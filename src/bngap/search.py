"""Family sweeps, exhaustive checks, seeded generators, and gap search.

Every run that consumes randomness takes a 64-bit seed and runs on a PCG64
generator; per-restart and per-sample streams are split off the master seed
as ``numpy.random.SeedSequence.spawn`` splits them (restart i's stream is
built from i alone, ``_restart_seed``), so identical inputs reproduce
identical outputs no matter how the work is scheduled.

The generators ``random_graph(n, density, rng)`` (each pair kept with the
given density) and ``random_k4_free(n, density, rng)`` (a random tripartite
split, each cross pair kept so as to target the density; K4-free by
construction) draw from the caller's ``numpy.random.Generator``: a hill
climb restart passes its own stream to the one that makes its start.  Both
pass the pairs they keep to ``bngap.graphs.from_edge_list``.  Edge codes,
the clique table's masks included, come from ``bngap.graphs``;
``graph6_pairs`` is read here only as index arrays: the labeled stacks'
scatter and the pair maps of ``_orbits``.

Every family is checked by one engine.  A producer turns a chunk of
graphs into ``gap_terms`` columns, and ``_fold`` adds the chunk's counts
straight to the running ``SweepSummary``, takes its least gap only when
strictly lower than the summary's, and rebuilds only the violating rows
as ``BnReport``s, each passed to the caller's ``on_violation`` in family
order, so no list of them is kept.
Adjacency stacks get their columns from ``_stack_terms``, one batched
``eigvalsh`` on a ``(B, n, n)`` array, so each graph gets the same floats
and flags as from ``bn_report``.  There are three producers:

* ``sweep``: the multipartite sweep, ``SWEEP_CHUNK`` partitions at a
  time.  It holds no report rule: each chunk of descending tuples from
  ``partitions_into_parts`` goes to ``conjecture.multipartite_columns``
  (one ``secular_root_range`` and one ``gap_terms`` call), its lines are
  written by ``conjecture.report_lines``, which builds no tag per row, and
  a source (``multipartite_source``) is built only for the rows ``_fold``
  reads: a chunk's least gap that lowers the running one, and each
  violator, its row read back with ``multipartite_report``.
* a graph6 stream, checked in runs of consecutive records with the same
  n >= 2.  A record with n = 1 is only counted, as out of domain, since
  K1 has no second eigenvalue.
* the labeled graphs on 1..N vertices, K1 counted as out of domain and
  each n from 2 up folded into the one summary by ``_fold_labeled``, one
  isomorphism class at a time, since isomorphic graphs have the same
  spectrum, m and clique number: ``_orbits`` maps every edge code to its
  class (one matmul gives the images of ``_ORBIT_BATCH`` codes, 35
  matmuls for the 208 classes of n <= 6), one stack solves the classes'
  least codes, and every code takes its class's columns.  Floats of
  isomorphic graphs still differ by rounding, so a class whose gap lies
  within ``_ORBIT_MARGIN * max(1, bound)`` of a flag threshold or of the
  least gap of its n is solved graph by graph in ``_chunk_size(n)``
  slices of its members' codes (``_unsure``).  For n <= 6 those are the 4,167 equality graphs.  The
  summary and violations are those of a graph-by-graph check.  Only the
  adjacency stack is built per member (``_labeled_stack``): m and the
  clique number are its class's, computed for the least codes
  (``_labeled_invariants``, the clique number read off a table of vertex
  subsets).  The columns of all codes of n are folded as one chunk in
  code order.

An adjacency stack holds at most ``spectra._CHUNK_ENTRIES`` matrix
entries (see ``bngap.spectra``), which bounds the engine's working memory
whatever the family size.

The hill climb and the Zykov walk draw a pair uniformly with one
``integers(count)`` and read it off the rows as the k-th edge (a deletion)
or non-edge (an addition or a replacement) of a ``graphs.pair_table``, so a
draw builds neither a pair list nor a complement.  The Zykov walk calls
``Graph.nth_non_edge``, which builds a table per draw.  The climb draws its
move with one ``random()`` placed in ``_MOVE_CDF``, the draw
``Generator.choice`` makes.  Once a restart's start graph is drawn, its
draws come from ``_Draws``, which returns the values of the restart
``Generator``'s ``random()`` and ``integers(count)`` from the raw PCG64
words as Python ints, so every seeded byte is numpy's.  A restart carries
its state as a graph, its pair table, built at the state's first pair
draw, its float64 adjacency matrix and its edge count: a candidate's matrix
is a copy with the move's two entries, or row and column, set, the same
bytes ``adjacency_matrix`` would pack, so ``eigvalsh`` sees the same input
and ``BnReport.from_eigenvalues`` builds the report from its output.  A
replacement between vertices that already share a neighbourhood leaves the
state as it is and is not solved again.  Nor is a move whose
candidate is isomorphic to one the current state already rejected, for
closing a K4, at -inf or by a clear margin: a restart keeps the
``_move_key`` of each such move, the move and the rows of its endpoints,
and clears them when the state changes.  Vertices with equal rows are
twins, so moves with equal keys build isomorphic candidates, and a move
whose key is kept is drawn as before but neither built nor solved.  Every
K4-constrained search state is K4-free, so its clique number comes from
``has_triangle``, and each solved candidate costs one eigensolve plus bit
operations.  The packed edge bitset that breaks ties between equally good
states is computed only on a tie.  The Zykov walk keeps its exact
``clique_number`` per step, the value its monotonicity check reads.

The climb's restarts are independent, so ``hill_climb`` splits them into
contiguous blocks, one per usable CPU where that pays (``_worker_count``:
n from 24 to 63, where each eigensolve runs on one BLAS thread and costs
enough, and enough iterations to repay the forks).  Block 0 runs in the
calling process and each other block in an ``os.fork``ed child, which
sends its block's ``_Best``, iterations and accepted count back as one
pickle over a pipe.
The block bests are offered to one ``_Best`` in block order, which keeps
the first offered state of highest (objective, -bitset), the serial run's
best, so the output bytes do not depend on the worker count.
"""

from __future__ import annotations

import os
import pickle
import sys
from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import combinations, islice, permutations
from typing import BinaryIO, Callable, Iterable, Iterator, Union

import numpy as np

from .conjecture import (
    GAP_TOL,
    BnReport,
    bn_report,
    gap_flags,
    gap_terms,
    multipartite_columns,
    multipartite_report,
    multipartite_source,
    report_lines,
)
from .graphs import (
    MAX_N,
    Graph,
    Graph6Error,
    check_vertex_count,
    clique_number,
    closes_k4,
    from_edge_list,
    graph6_pairs,
    has_triangle,
    nth_pair,
    pair_table,
    parse_graph6,
    zykov,
)
from .spectra import _chunk_size, adjacency_matrix

MAX_ENUM_N = 6

# Partitions per sweep chunk (``sweep``).
SWEEP_CHUNK = 1024

# Edge codes whose images ``_orbits`` finds with one matmul: an (n!, B)
# block, 90 KiB of float64 at n = 6.
_ORBIT_BATCH = 16

# An isomorphism class of labeled graphs is solved graph by graph when its
# representative's gap lies within _ORBIT_MARGIN * max(1, bound) of a
# threshold of ``gap_flags`` or of the least gap of its n.  Isomorphic
# graphs' float gaps differ by rounding only, at most 3.75e-15 * max(1,
# bound) for n <= 6 (the tests hold them within 1e-12 * max(1, bound)), so
# no member of a class solved once can cross a threshold or become the
# minimum.  The hill climb keeps a move's key as rejected (``_run_restart``)
# only when its candidate scores -inf or more than _ORBIT_MARGIN *
# max(1, bound) below the current state, so the isomorphic candidate of
# every move with that key is rejected too.  Up to MAX_N the rounding
# stays far inside that margin: ``eigvalsh``'s eigenvalues are off by a
# small multiple of n * eps * lambda1, and lambda1^2 <= lhs <= 2m <=
# 2 * bound (omega >= 2), so lambda1, lhs and the gap are off by a small
# multiple of n * eps * max(1, bound), 4.5e-13 * max(1, bound) at n = 2048.
_ORBIT_MARGIN = 1e-6


def partitions_into_parts(n: int, r_max: int) -> Iterator[tuple[int, ...]]:
    """Integer partitions of n with 2..r_max parts, descending tuples in
    lexicographic order.

    The first is n spread as evenly as it goes over min(r_max, n) parts.
    Each next one adds one to the rightmost part, short of the last, that
    may grow: a part below the one before it, or the first part while it is
    below n - 1.  What that leaves for the parts after it is spread as
    evenly as it goes over as many parts as r_max allows, the least
    completion in this order.
    """
    if n < 2 or r_max < 2:
        return
    parts: list[int] = []
    rest = n
    while True:
        if rest:
            slots = min(r_max - len(parts), rest)
            q, extra = divmod(rest, slots)
            parts += [q + 1] * extra + [q] * (slots - extra)
        yield tuple(parts)
        i = len(parts) - 2
        while i > 0 and parts[i] == parts[i - 1]:
            i -= 1
        if i == 0 and parts[0] == n - 1:
            return
        rest = sum(parts[i + 1:]) - 1
        parts[i] += 1
        del parts[i + 1:]


def sweep(n_max: int, r_max: int, write: Callable[[str], object],
          on_violation: Callable[[BnReport], None]) -> SweepSummary:
    """Check every partition of each n <= n_max into 2..r_max parts, in
    order, with its exact report, and return the summary.

    The partitions are drawn ``SWEEP_CHUNK`` at a time across n
    boundaries, so memory stays flat however many the sweep covers.  Each
    chunk's ``multipartite_columns`` are written to ``write`` as one string
    of report lines, and each violating row, read back with
    ``multipartite_report``, goes to ``on_violation``.  A source is built
    only for the rows ``_fold`` reads: a chunk's least gap that lowers the
    summary's, and the violators.
    """
    if n_max > MAX_N:
        raise ValueError(f"total vertex count exceeds {MAX_N}")
    partitions = (parts for n in range(2, n_max + 1)
                  for parts in partitions_into_parts(n, r_max))
    summary = SweepSummary()
    while chunk := list(islice(partitions, SWEEP_CHUNK)):
        columns, note = multipartite_columns(chunk)
        write(report_lines(columns, chunk, note))
        _fold(summary, columns, True,
              lambda i: multipartite_source(chunk[i], note[i]),
              lambda i: multipartite_report(columns, note, chunk, i),
              on_violation)
    return summary


@dataclass
class SweepSummary:
    """The running result of a check: ``sweep`` and ``exhaustive_check``
    fold every chunk of reports into one (``_fold``).

    ``total`` counts the graphs the bound applies to, those with an edge,
    and ``out_of_domain`` the others, which get no report.  Of the
    ``total``, ``excluded`` are complete graphs, whose gap is not tested;
    every other report ``holds`` or is one of the ``violations``, and
    ``equality`` counts those whose gap is zero within ``GAP_TOL``.
    ``min_gap`` is the least gap of a report that is not excluded, and
    ``argmin_source`` names it: ``min_gap`` is inf until such a report is
    folded in, and of equal minima the first is kept.
    """

    total: int = 0
    holds: int = 0
    equality: int = 0
    excluded: int = 0
    violations: int = 0
    out_of_domain: int = 0
    min_gap: float = float("inf")
    argmin_source: str = ""

    def as_dict(self) -> dict:
        """The fields in order, ``min_gap`` None when every report was excluded."""
        d = asdict(self)
        if self.total == self.excluded:
            d["min_gap"] = None
        return d


def _fold(summary: SweepSummary, terms: Iterable[np.ndarray],
          live: np.ndarray | bool, source: Callable[[int], str],
          rebuild: Callable[[int], BnReport],
          on_violation: Callable[[BnReport], None]) -> None:
    """Add a chunk of reports to ``summary`` in place: the one engine every
    family runs through.  ``terms`` are report columns that end with the
    ``gap_terms`` columns gap, holds, equality and excluded, the four read.

    ``live`` marks the graphs the bound applies to (at least one edge); the
    others count as out of domain and their entries are ignored.  The
    chunk's least applicable gap (the first of equal minima, ``np.argmin``)
    replaces the summary's only when strictly lower, and only then is it
    named, as ``source(i)``.  Each violating report is rebuilt as
    ``rebuild(i)`` and passed to ``on_violation`` in row order, so only
    violators become ``BnReport``s.
    """
    *_, gap, holds, equality, excluded = terms
    live = np.broadcast_to(live, gap.shape)
    applicable = live & ~excluded
    violators = np.flatnonzero(applicable & ~holds).tolist()
    summary.total += int(np.count_nonzero(live))
    summary.holds += int(np.count_nonzero(applicable & holds))
    summary.equality += int(np.count_nonzero(applicable & equality))
    summary.excluded += int(np.count_nonzero(live & excluded))
    summary.violations += len(violators)
    summary.out_of_domain += int(np.count_nonzero(~live))
    if applicable.any():
        i = int(np.argmin(np.where(applicable, gap, np.inf)))
        if gap[i] < summary.min_gap:
            summary.min_gap, summary.argmin_source = float(gap[i]), source(i)
    for i in violators:
        on_violation(rebuild(i))


def _stack_terms(adj: np.ndarray, m: np.ndarray, omega: np.ndarray) -> tuple:
    """The ``gap_terms`` columns of a (B, n, n) stack of adjacency matrices
    with edge counts ``m`` and clique numbers ``omega`` (n >= 2): one
    batched ``eigvalsh``, so each graph gets the floats of ``bn_report``."""
    vals = np.linalg.eigvalsh(adj)
    return gap_terms(adj.shape[1], m, omega, vals[:, -1], vals[:, -2])


def labeled_tag(n: int, code: int) -> str:
    """The source tag of the labeled graph on n vertices with edge code ``code``."""
    return f"labeled:n={n}:code={code}"


def graph6_tag(lineno: int) -> str:
    """The source tag of the graph6 record on line ``lineno`` (from 1)."""
    return f"graph6:line={lineno}"


def graph6_records(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """The (line number, line) of each record of a graph6 stream, counted
    from 1: a blank line, ASCII whitespace only, is skipped, and a line that
    holds a byte above 127 is a record."""
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii() or line.strip():
            yield lineno, line


@dataclass
class ExhaustiveResult:
    summary: SweepSummary  # ``summary.violations`` counts the violations
    malformed: int = 0  # graph6 records that did not parse


def _clique_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge codes of the complete graphs on the vertex subsets with at
    least 2 vertices, and the subset sizes, largest first, closed by one
    vertex with the empty code.  The clique number of an edge code is the
    size of the first subset whose code it contains."""
    table = [(0, 1)]
    for s in range(1 << n):
        size = s.bit_count()
        if size >= 2:
            rows = tuple(s & ~(1 << v) if s >> v & 1 else 0 for v in range(n))
            table.append((Graph._unchecked(n, rows).edge_bitset(), size))
    table.sort(key=lambda row: -row[1])
    masks, sizes = zip(*table)
    return np.array(masks, dtype=np.int64), np.array(sizes, dtype=np.int64)


def _labeled_stack(n: int, codes: np.ndarray) -> np.ndarray:
    """The (B, n, n) adjacency stack of the edge codes: built for the
    classes' least codes and for each member of an unsure class."""
    pairs = np.array(list(graph6_pairs(n)), dtype=np.intp).reshape(-1, 2)
    bits = (codes[:, None] >> np.arange(len(pairs))) & 1
    adj = np.zeros((len(codes), n, n))
    adj[:, pairs[:, 0], pairs[:, 1]] = bits
    adj[:, pairs[:, 1], pairs[:, 0]] = bits
    return adj


def _labeled_invariants(n: int, codes: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Edge counts and clique numbers of the edge codes.  Both are
    isomorphism invariants, so ``_fold_labeled`` computes them for the
    classes' representatives only."""
    m = ((codes[:, None] >> np.arange(n * (n - 1) // 2)) & 1).sum(axis=1)
    masks, sizes = _clique_table(n)
    return m, sizes[((codes[:, None] & masks) == masks).argmax(axis=1)]


def _orbits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The isomorphism classes of the labeled graphs on n vertices: the
    class index of every edge code, and each class's least code, in
    increasing order.

    The next ``_ORBIT_BATCH`` codes not yet reached get their images under
    the n! vertex permutations from one float64 matmul, exact since every
    code is below 2^15.  Walked in increasing order, a code of the batch
    that is still unreached is the least of its class: it opens the class,
    and its images join it."""
    pairs = np.array(list(graph6_pairs(n)), dtype=np.intp).reshape(-1, 2)
    index = np.zeros((n, n), dtype=np.int64)
    index[pairs[:, 0], pairs[:, 1]] = index[pairs[:, 1], pairs[:, 0]] = range(len(pairs))
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    # weights[p, k] is the bit, as a power of two, that pair k moves to
    # under permutation p.
    weights = 2.0 ** index[perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]]
    shifts = np.arange(len(pairs))[:, None]
    cls = np.full(1 << len(pairs), -1, dtype=np.int64)
    reps, start = [], 0
    while (batch := start + np.flatnonzero(cls[start:] < 0)[:_ORBIT_BATCH]).size:
        images = (weights @ (batch >> shifts & 1)).astype(np.intp)
        for code, column in zip(batch.tolist(), images.T):
            if cls[code] < 0:
                cls[column] = len(reps)
                reps.append(code)
        start = batch[-1] + 1  # every code up to here is reached
    return cls, np.array(reps, dtype=np.int64)


def _unsure(gap: np.ndarray, bound: np.ndarray,
            applicable: np.ndarray) -> np.ndarray:
    """Which of the classes with representatives' columns ``gap`` and
    ``bound`` are solved graph by graph: the applicable ones whose gap lies
    within ``_ORBIT_MARGIN * max(1, bound)`` of a threshold of ``gap_flags``
    (the flags at gap - margin and gap + margin differ) or of the least
    applicable gap."""
    margin = _ORBIT_MARGIN * np.maximum(1.0, bound)
    low, high = gap_flags(gap - margin, bound), gap_flags(gap + margin, bound)
    least = np.min(gap, where=applicable, initial=np.inf)
    return applicable & ((low[0] != high[0]) | (low[1] != high[1])
                         | (gap <= least + margin))


def _fold_labeled(n: int, summary: SweepSummary,
                  on_violation: Callable[[BnReport], None]) -> None:
    """Add the labeled graphs on n >= 2 vertices to ``summary`` in code
    order, solved one isomorphism class at a time (see the module
    docstring)."""
    cls, reps = _orbits(n)
    m, omega = _labeled_invariants(n, reps)
    bound, _, gap, holds, equality, excluded = _stack_terms(
        _labeled_stack(n, reps), m, omega)
    live = m >= 1
    unsure = _unsure(gap, bound, live & ~excluded)
    # Every code takes its class's gap and flags; the members of unsure
    # classes are then solved graph by graph, with their class's m and
    # omega, and keep their own.
    flags = [column[cls] for column in (gap, holds, equality, excluded)]
    members = np.flatnonzero(unsure[cls])
    step = _chunk_size(n)
    for lo in range(0, len(members), step):
        codes = members[lo:lo + step]
        k = cls[codes]
        solved = _stack_terms(_labeled_stack(n, codes), m[k], omega[k])
        for column, values in zip(flags, solved[2:]):
            column[codes] = values
    _fold(summary, flags, live[cls], lambda i: labeled_tag(n, i),
          lambda i: bn_report(Graph.from_edge_bitset(n, i),
                              source=labeled_tag(n, i)), on_violation)


def _print_malformed(lineno: int, message: str) -> None:
    print(f"bngap: malformed graph6 at line {lineno}: {message}",
          file=sys.stderr)


def _ignore_violation(report: BnReport) -> None:
    pass


def exhaustive_check(
        source: Union[int, Iterable[str]],
        on_malformed: Callable[[int, str], None] = _print_malformed,
        on_violation: Callable[[BnReport], None] = _ignore_violation,
) -> ExhaustiveResult:
    """Run gap reports over a graph family and count violations.

    ``source`` is either a vertex count N <= MAX_ENUM_N, for every labeled
    graph on 1..N vertices in (n, code) order, or an iterable of graph6
    lines.  Each malformed graph6 record is passed to ``on_malformed(lineno,
    message)`` (by default printed to stderr) when it is read, and counted,
    and the stream continues; blank lines are skipped (a line with a
    non-ASCII character is a record), and graphs the bound does not apply
    to (no edges) are counted and skipped.  Each violating graph's report is passed to
    ``on_violation(report)`` in family order, and only counted here, so
    memory does not grow with the violations.  A graph6 stream is checked
    in chunks and the labeled graphs one isomorphism class at a time (see
    the module docstring).
    """
    if isinstance(source, int):
        if not 1 <= source <= MAX_ENUM_N:
            raise ValueError(f"built-in enumeration capped at n <= {MAX_ENUM_N}")
        res = ExhaustiveResult(SweepSummary(out_of_domain=1))  # K1 has no edge
        for n in range(2, source + 1):
            _fold_labeled(n, res.summary, on_violation)
        return res

    res = ExhaustiveResult(SweepSummary())
    chunk: list[tuple[int, Graph]] = []

    def flush() -> None:
        # Every graph has n >= 2, so every complete graph has an edge.
        graphs = [g for _, g in chunk]
        m = np.array([g.m for g in graphs])
        terms = _stack_terms(np.stack([adjacency_matrix(g) for g in graphs]),
                             m, np.array([clique_number(g) for g in graphs]))
        _fold(res.summary, terms, m >= 1, lambda i: graph6_tag(chunk[i][0]),
              lambda i: bn_report(graphs[i], source=graph6_tag(chunk[i][0])),
              on_violation)
        chunk.clear()

    for lineno, line in graph6_records(source):
        try:
            g = parse_graph6(line)
        except Graph6Error as exc:
            on_malformed(lineno, str(exc))
            res.malformed += 1
            continue
        if g.n == 1:  # K1 has no second eigenvalue
            res.summary.out_of_domain += 1
            continue
        if chunk and (chunk[0][1].n != g.n or len(chunk) == _chunk_size(g.n)):
            flush()
        chunk.append((lineno, g))
    if chunk:
        flush()
    return res


def _check_density(density: float) -> None:
    """Reject a density outside [0, 1], NaN included."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")


def random_graph(n: int, density: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi style graph: each pair kept independently with p=density."""
    check_vertex_count(n)
    _check_density(density)
    return from_edge_list(n, [pair for pair in combinations(range(n), 2)
                              if rng.random() < density])


def random_k4_free(n: int, density: float, rng: np.random.Generator) -> Graph:
    """K4-free graph with roughly the requested edge density.

    Each vertex joins one of three parts at random, and each cross pair is
    kept with the probability that targets ``density * C(n,2)`` edges; the
    output is 3-partite, hence K4-free by construction.
    """
    check_vertex_count(n)
    _check_density(density)
    target_m = int(round(density * (n * (n - 1) // 2)))
    labels = rng.integers(0, 3, size=n)
    cross = [(u, v) for u, v in combinations(range(n), 2)
             if labels[u] != labels[v]]
    keep_p = min(1.0, target_m / len(cross)) if cross else 0.0
    return from_edge_list(n, [pair for pair in cross if rng.random() < keep_p])


@dataclass(frozen=True)
class TrajectoryStep:
    step: int
    u: int
    v: int
    lambda1: float
    omega: int
    m: int


@dataclass
class TrajectoryResult:
    initial_lambda1: float
    initial_omega: int
    initial_m: int
    steps: list[TrajectoryStep]
    final_graph: Graph
    findings: list[str]


def _lambda1_and_perron(g: Graph) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a non-negative eigenvector for it.

    For a non-negative symmetric matrix the entrywise absolute value of any
    top eigenvector is again a top eigenvector, so taking |.| removes the
    solver's sign ambiguity (and any mixed-sign combination across
    components that tie for the spectral radius).
    """
    vals, vecs = np.linalg.eigh(adjacency_matrix(g))
    return float(vals[-1]), np.abs(vecs[:, -1])


def zykov_trajectory(g: Graph, steps: int, seed: int) -> TrajectoryResult:
    """Apply random neighbourhood replacements and track (lambda1, omega, m).

    Pairs are drawn uniformly from the non-adjacent pairs; within a pair the
    kept neighbourhood is the one whose endpoint carries the larger Perron
    weight, the orientation under which a Rayleigh comparison shows the
    spectral radius cannot drop.  (Replacing against the Perron order can
    genuinely lower it, e.g. on a 4-vertex path.)  The clique number can
    never increase regardless of orientation.  Any breach of either
    monotonicity beyond the tolerance is recorded as a finding rather than
    suppressed.
    """
    rng = np.random.default_rng(np.random.PCG64(seed))
    lam1, perron = _lambda1_and_perron(g)
    omega = clique_number(g)
    m = g.m
    result = TrajectoryResult(lam1, omega, m, [], g, [])
    current = g
    pairs = g.n * (g.n - 1) // 2
    for step in range(1, steps + 1):
        count = pairs - m
        if count == 0:
            break
        u, v = current.nth_non_edge(int(rng.integers(count)))
        if perron[u] > perron[v]:
            u, v = v, u  # keep the neighbourhood of the heavier endpoint
        current = zykov(current, u, v)
        m = current.m
        new_lam1, perron = _lambda1_and_perron(current)
        new_omega = clique_number(current)
        if new_lam1 < lam1 - GAP_TOL:
            result.findings.append(
                f"step {step}: lambda1 decreased {lam1:.12g} -> {new_lam1:.12g}"
            )
        if new_omega > omega:
            result.findings.append(
                f"step {step}: omega increased {omega} -> {new_omega}"
            )
        result.steps.append(TrajectoryStep(step, u, v, new_lam1, new_omega, m))
        lam1, omega = new_lam1, new_omega
    result.final_graph = current
    return result


@dataclass(frozen=True)
class SearchConfig:
    seed: int
    n: int
    max_iters: int = 2000
    restarts: int = 1
    k4_constrained: bool = True
    objective: str = "bn_gap_negated"  # or "lambda1"
    init_density: float = 0.5

    def __post_init__(self) -> None:
        check_vertex_count(self.n)
        if self.restarts < 1:
            raise ValueError(f"need at least one restart, got {self.restarts}")
        if self.max_iters < 0:
            raise ValueError(f"iterations must be non-negative, got {self.max_iters}")
        if self.objective not in ("bn_gap_negated", "lambda1"):
            raise ValueError(f"unknown objective {self.objective!r}")
        _check_density(self.init_density)


@dataclass
class HillClimbResult:
    """The result of ``hill_climb``: its fields but ``best_graph``, in
    order, are the ``search`` output record."""

    config: SearchConfig
    best_graph: Graph
    best_objective: float
    best_report: BnReport | None
    found_violation: bool
    iterations: int
    accepted: int
    restarts_run: int


def _objective(cfg: SearchConfig, g: Graph, a: np.ndarray,
               m: int) -> tuple[float, BnReport | None]:
    """The objective and report of the state g with adjacency matrix a and
    m edges; no report when g has no edge.  The one evaluation of the climb."""
    if m < 1:
        return float("-inf"), None
    # A K4-constrained state is K4-free (see ``_run_restart``): omega is 3 or 2.
    if cfg.k4_constrained:
        omega = 3 if has_triangle(g) else 2
    else:
        omega = clique_number(g)
    report = BnReport.from_eigenvalues(np.linalg.eigvalsh(a), m, omega,
                                       f"search:seed={cfg.seed}")
    if cfg.objective == "lambda1":
        return report.lambda1, report
    if report.excluded:
        # A complete graph can never stand as a violation.
        return float("-inf"), report
    return -report.gap, report


@dataclass
class _Best:
    """The best search state so far: higher objective, then smaller packed
    edge bitset.  Only a strictly better state replaces it, as in ``max``,
    so of equal states the first offered is kept.  ``code`` caches the best
    state's edge bitset; bitsets are computed only when an offered
    objective ties the best one."""

    objective: float = float("-inf")
    graph: Graph | None = None
    report: BnReport | None = None
    code: int | None = None

    def offer(self, obj: float, g: Graph, report: BnReport | None) -> None:
        if report is None:
            return
        code = None
        if self.report is not None and obj <= self.objective:
            if obj < self.objective:
                return
            if self.code is None:
                self.code = self.graph.edge_bitset()
            code = g.edge_bitset()
            if code >= self.code:
                return
        self.objective, self.graph, self.report, self.code = obj, g, report, code


# The hill-climb moves (add an edge, delete an edge, replace a neighbourhood)
# are equally likely.  Seeded output depends on the draw, which is the one
# ``rng.choice(3, p=[1 / 3] * 3)`` makes: a single ``random()`` placed with
# ``bisect_right`` in the running sums of the probabilities, divided by the
# last one, as ``Generator.choice`` computes them; those sums are these
# floats exactly.  ``_Draws`` gives that ``random()`` the value
# ``Generator.random()`` would, read from the raw PCG64 words.
# ``integers(3)`` would consume the stream differently.
_MOVE_CDF = (1 / 3, 2 / 3, 1.0)

# Raw PCG64 words that ``_Draws`` takes from the bit generator at a time.
_DRAW_BATCH = 64

_UINT32 = (1 << 32) - 1


class _Draws:
    """The values ``rng.random()`` and ``int(rng.integers(count))`` would
    return, in the same order, read from batches of the raw 64-bit words
    of ``rng``'s PCG64 bit generator as Python ints.  Once this exists the
    caller draws only from it, since it reads ``rng``'s stream ahead.

    ``random()`` is ``(word >> 11) * 2**-53``, numpy's ``next_double``.
    ``integers(count)`` is numpy's bounded draw for a count up to 2**32,
    Lemire's method (arXiv:1805.10941) on 32-bit draws: x * count, rejected
    while its low 32 bits are below (2**32 - count) % count, gives
    (x * count) >> 32; a count of 1 draws nothing.  PCG64 makes two 32-bit
    draws of one word, the low half first, and carries the high half to
    the next 32-bit draw across 64-bit ones; the carry starts from
    ``rng``'s state, which an array draw such as ``random_k4_free``'s
    ``integers(0, 3, size=n)`` may leave holding a half."""

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        state = bit_generator.state
        self._raw = bit_generator.random_raw
        self._words: list[int] = []  # the batch's unread words, last first
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _word(self) -> int:
        if not self._words:
            self._words = self._raw(_DRAW_BATCH).tolist()
            self._words.reverse()
        return self._words.pop()

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _UINT32

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def integers(self, count: int) -> int:
        if not 1 <= count <= 1 << 32:
            raise ValueError(f"count {count} outside 1..2**32")
        if count == 1:
            return 0
        m = self._uint32() * count
        if m & _UINT32 < count:
            threshold = (1 << 32) % count  # (2**32 - count) % count
            while m & _UINT32 < threshold:
                m = self._uint32() * count
        return m >> 32


def _move_key(rows: tuple[int, ...], move: int, u: int, v: int) -> tuple:
    """The key of a climb move on the graph with adjacency rows ``rows``:
    the move (0 adds uv, 1 deletes it, 2 gives u the neighbourhood of v)
    and the rows of its endpoints, unordered for an addition or a deletion.

    Vertices with equal rows are twins, so two moves with equal keys differ
    by a product of twin transpositions, an automorphism of the graph, and
    their candidates are isomorphic."""
    if move == 2:
        return 2, rows[u], rows[v]
    ru, rv = rows[u], rows[v]
    return (move, ru, rv) if ru <= rv else (move, rv, ru)


def _run_restart(cfg: SearchConfig, child: np.random.SeedSequence,
                 best: _Best) -> tuple[int, int]:
    """One restart on the seed stream ``child``: offer its start and each
    accepted state to ``best``, and return (iterations, accepted)."""
    rng = np.random.default_rng(np.random.PCG64(child))
    # Under k4_constrained the start is tripartite, an addition that closes
    # a K4 is skipped, and neither a deletion nor a Zykov replacement can
    # raise the clique number: every state is K4-free.
    if cfg.k4_constrained:
        current = random_k4_free(cfg.n, cfg.init_density, rng)
    else:
        current = random_graph(cfg.n, cfg.init_density, rng)
    draws = _Draws(rng)
    # The state is carried as (graph, adjacency matrix, edge count).  A
    # candidate's matrix is a copy of the current one with the move's
    # entries set, the same bytes ``adjacency_matrix`` packs for it.
    a, m = adjacency_matrix(current), current.m
    pairs = cfg.n * (cfg.n - 1) // 2
    iterations = accepted = 0
    cur_obj, cur_report = _objective(cfg, current, a, m)
    best.offer(cur_obj, current, cur_report)
    sideways = 0
    # Keys (``_move_key``) of the moves the current state surely rejects.
    # A move with such a key is drawn as before but neither built nor solved.
    rejected: set[tuple] = set()
    # The current state's ``pair_table``, built at its first pair draw.
    table = None
    for _ in range(cfg.max_iters):
        iterations += 1
        move = bisect_right(_MOVE_CDF, draws.random())
        # Move 1 deletes an edge; moves 0 and 2 act on a non-adjacent pair.
        count = m if move == 1 else pairs - m
        if count == 0:
            continue
        if table is None:
            table = pair_table(current)
        u, v = nth_pair(table, draws.integers(count), move == 1)
        if move == 2 and draws.integers(2):
            u, v = v, u
        key = _move_key(current.adj, move, u, v)
        if key in rejected:
            continue
        if move == 1:
            candidate, cand_m = current.without_edge(u, v), m - 1
            b = a.copy()
            b[u, v] = b[v, u] = 0.0
        elif move == 0:
            if cfg.k4_constrained and closes_k4(current, u, v):
                # Whether uv closes a K4 is isomorphism-invariant too.
                rejected.add(key)
                continue
            candidate, cand_m = current.with_edge(u, v), m + 1
            b = a.copy()
            b[u, v] = b[v, u] = 1.0
        elif current.adj[u] == current.adj[v]:
            # N(u) is N(v) already, so the candidate is the current state:
            # scored and offered before, it is not solved again.
            candidate, cand_m, b = current, m, a
        else:
            candidate = zykov(current, u, v)
            cand_m = m - current.degree(u) + current.degree(v)
            b = a.copy()
            b[u] = b[:, u] = a[v]
        if candidate is current:
            cand_obj, cand_report = cur_obj, None
        else:
            cand_obj, cand_report = _objective(cfg, candidate, b, cand_m)
        if cand_obj > cur_obj:
            sideways = 0
        elif cand_obj == cur_obj and cand_obj > float("-inf"):
            if sideways >= cfg.n * cfg.n:
                break
            sideways += 1
        else:
            # A candidate at -inf or this far below is rejected whichever
            # move of its key builds it (see _ORBIT_MARGIN); a near-tie is
            # solved again.
            if cand_obj == float("-inf") or (
                    cand_obj < cur_obj - _ORBIT_MARGIN * max(1.0, cand_report.bound)):
                rejected.add(key)
            continue
        if candidate is not current:
            rejected.clear()
            table = None
        current, a, m, cur_obj = candidate, b, cand_m, cand_obj
        accepted += 1
        best.offer(cur_obj, current, cand_report)
    return iterations, accepted


def _restart_seed(seed: int, i: int) -> np.random.SeedSequence:
    """The seed stream of restart i: ``SeedSequence(seed).spawn(k)[i]`` for
    every k > i, built without the streams before it."""
    return np.random.SeedSequence(seed, spawn_key=(i,))


def _run_block(cfg: SearchConfig, lo: int,
               hi: int) -> tuple[_Best, int, int]:
    """Restarts lo..hi-1 in order, offering their states to one ``_Best``;
    that best, and the block's iterations and accepted moves."""
    best = _Best()
    iterations = accepted = 0
    for i in range(lo, hi):
        its, acc = _run_restart(cfg, _restart_seed(cfg.seed, i), best)
        iterations += its
        accepted += acc
    return best, iterations, accepted


def _worker_count(cfg: SearchConfig) -> int:
    """Processes that share the restarts: one per CPU this process may run
    on, at most one per restart and one per 250 iterations of the run; 1
    below n = 24, from n = 64 up, and without ``os.fork`` or
    ``os.sched_getaffinity``.

    Workers pay only where an eigensolve runs on one thread.  OpenBLAS,
    numpy's default BLAS, threads ``eigvalsh`` of a climb state from n = 64
    up, and there one process per CPU, each with a BLAS thread per CPU, took
    1.2 to 24 times the serial wall time (2 CPUs).  A block also needs about
    250 iterations to repay a fork's round trip of about 2.6 ms.  Below
    n = 24 a restart's solves are too cheap, or it stops on its sideways
    limit too early, to repay one: at n = 8, 12, 16 and 20, 2 restarts of
    1,000 steps ran slower on 2 workers than in one process (median of 45
    runs, 2 CPUs)."""
    if (not 24 <= cfg.n < 64 or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")):
        return 1
    blocks = cfg.restarts * cfg.max_iters // 250
    return max(1, min(cfg.restarts, blocks, len(os.sched_getaffinity(0))))


def _fork_block(cfg: SearchConfig, lo: int, hi: int) -> tuple[int, BinaryIO]:
    """Fork a child that runs ``_run_block(cfg, lo, hi)``; its pid and the
    read end of its pipe.

    The child writes the block's result as one pickle and exits 0, or
    writes the error it met as text and exits 1.  It leaves by
    ``os._exit``, so it runs none of the caller's cleanup and flushes none
    of its buffers.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        # The child never returns into the caller's frames: whatever it
        # meets, interrupts included, is reported here and ends it.
        code = 1
        try:
            os.close(read)
            try:
                payload, ok = pickle.dumps(_run_block(cfg, lo, hi)), True
            except BaseException as exc:
                payload, ok = f"{type(exc).__name__}: {exc}".encode(), False
            with open(write, "wb") as pipe:
                pipe.write(payload)
            code = 0 if ok else 1
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


def _block_result(lo: int, hi: int, payload: bytes,
                  code: int) -> tuple[_Best, int, int]:
    """The result a child sent for restarts lo..hi-1, given its exit code
    (minus the signal that killed it); ChildProcessError unless 0."""
    if code == 0:
        return pickle.loads(payload)
    why = payload.decode(errors="replace") or f"exit code {code}"
    raise ChildProcessError(f"search worker for restarts {lo}..{hi - 1} "
                            f"failed: {why}")


def hill_climb(cfg: SearchConfig) -> HillClimbResult:
    """First-improvement local search over graphs with sideways moves.

    Moves are edge additions, edge deletions, and neighbourhood replacements,
    drawn uniformly; when ``k4_constrained`` every state is kept K4-free.
    Sideways (equal-objective) moves are accepted up to n^2 consecutive times
    before the restart ends.  Ties between equally good states across the
    whole run go to the lexicographically smallest packed edge bitset.

    Restart i runs on the seed stream ``_restart_seed(cfg.seed, i)``.  The
    restarts are split into ``_worker_count`` contiguous blocks: block 0
    runs here and each other block in a forked child (``_fork_block``).
    Each block offers its restarts' starts and accepted states, in order, to
    a ``_Best`` of its own, and the block bests are offered in block order
    to one ``_Best``, so the result is that of the restarts run in order in
    one process.  The children are reaped before this returns, and killed
    first if it raises; a child that fails or dies raises
    ChildProcessError.
    """
    workers = _worker_count(cfg)
    bounds = [cfg.restarts * k // workers for k in range(workers + 1)]
    blocks = list(zip(bounds, bounds[1:]))
    forked: list[tuple[int, BinaryIO]] = []
    done = False
    try:
        for lo, hi in blocks[1:]:
            forked.append(_fork_block(cfg, lo, hi))
        results = [_run_block(cfg, *blocks[0])]
        payloads = [pipe.read() for _, pipe in forked]
        done = True
    finally:
        if not done:
            from signal import SIGKILL  # not loaded on the CLI's import path
            for pid, _ in forked:
                os.kill(pid, SIGKILL)
        codes = []
        for pid, pipe in forked:
            pipe.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (lo, hi), payload, code in zip(blocks[1:], payloads, codes):
        results.append(_block_result(lo, hi, payload, code))
    best = _Best()
    iterations = accepted = 0
    for block_best, its, acc in results:
        best.offer(block_best.objective, block_best.graph, block_best.report)
        iterations += its
        accepted += acc
    # With no report, no restart left the edgeless graphs: each started
    # edgeless (at density 0, or by its draw, as a K4-constrained start on
    # n = 2 whose two vertices share a part) and accepted no addition, none
    # being drawn or, at n = 2 under ``bn_gap_negated``, the only one giving
    # K2, which is excluded and scores -inf.
    report = best.report
    return HillClimbResult(cfg, best.graph or Graph.from_edge_bitset(cfg.n, 0),
                           best.objective, report,
                           report is not None and report.violation,
                           iterations, accepted, cfg.restarts)
