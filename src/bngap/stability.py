"""Edit distance to complete tripartite graphs and desk-scale stability runs.

The distance of a graph to the family of complete tripartite graphs on its
own vertex set is the minimum, over all assignments of vertices to three
(possibly empty) parts, of

    (edges inside a part)  +  (missing edges across parts).

Empty parts are allowed, so complete bipartite graphs and the edgeless graph
are members of the family at distance zero.  The exact solver enumerates
assignments; the local-search variant scales the same cost function to
larger graphs and can only overestimate.

The local search descends from one greedy start and seeded random starts.
A descent moves the lowest vertex that has an improving move to its first
improving part in 0, 1, 2, then rescans from vertex 0.  The cost of v in
part p is 2 N[p][v] - size[p] + [a_v = p] + (n - 1 - deg v), with N[p][v]
the neighbours of v in part p (the gain bookkeeping of Fiduccia and
Mattheyses, DAC 1982, without buckets).  All descents of a group of graphs
run in lockstep on one int16 table of the first three terms, shape
(descents, 3, n): one numpy scan per step finds every descent's move, and
the moved vertex's row of the int8 move-sign stack updates two rows of its
table.

``stability_experiment`` runs its rows in descent groups whose int8
adjacency stack holds at most ``_GROUP_ENTRIES`` entries (2^18, 256 KiB:
all 60 rows at n = 60, 26 at n = 100).  A row's matrix is the int8
adjacency of T(n, 3) with its drawn pairs zeroed, so no ``Graph`` is built
or packed per row, and its edge count is m(T(n, 3)) - k.  The greedy starts
run once per group on the int8 stack.  The float64 matrices are made one
sub-chunk of at most ``search._CHUNK_ENTRIES`` entries (2^15, 256 KiB) at a
time, for the batched ``eigvalsh`` that gives lambda1 and for the matmul
that fills the cost tables.  ``edit_distance_local`` runs the same search
on a one-graph stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .conjecture import bn_report, BnReport, OutOfDomainError
from .graphs import Graph, is_k4_free, triangle_count, turan_graph
from .search import _CHUNK_ENTRIES, _chunk_size
from .spectra import adjacency_matrix

EXACT_MAX_N = 12
# The starts (one greedy, the rest seeded random) of every stability row
# above EXACT_MAX_N; edit_distance_local takes ``restarts`` from its caller.
LOCAL_RESTARTS = 8

# Adjacency entries per stability descent group: the group's int8 stack
# (and its move signs) holds at most this many, B = max(1,
# _GROUP_ENTRIES // n^2) rows: 256 KiB, all 60 rows of the n = 60 benchmark
# run.  Its float64 matrices are built _CHUNK_ENTRIES at a time.
_GROUP_ENTRIES = 8 * _CHUNK_ENTRIES

STABILITY_CSV_COLUMNS = (
    "n", "k", "sample", "m", "lambda1_sq_over_m", "edits", "edits_normalized",
    "method",
)


@dataclass(frozen=True)
class EditResult:
    assignment: tuple[int, ...]
    edits: int
    normalized: float
    method: str


def edit_distance_exact(g: Graph) -> EditResult:
    """Minimum edit count over all 3^n part assignments (n <= 12).

    Enumeration is restricted to assignments whose parts appear in
    first-use order, which fixes the part-label symmetry and keeps the
    reported optimum the lexicographically smallest one.  Branches whose
    partial cost already meets the incumbent are cut.
    """
    if g.n > EXACT_MAX_N:
        raise ValueError(f"exact enumeration capped at n <= {EXACT_MAX_N}")
    # Assignment (0,...,0) costs m, so the incumbent cost m + 1 is beaten.
    best_cost, best_assignment = _exact_search(g.adj, [0] * g.n, 0, (0, 0, 0),
                                               0, 0, 0, (g.m + 1, None))
    assert best_assignment is not None
    return EditResult(best_assignment, best_cost, best_cost / g.n ** 2, "exact")


def _exact_search(adj: tuple[int, ...], assignment: list[int], v: int,
                  masks: tuple[int, int, int], assigned: int, used: int,
                  cost: int, best: tuple[int, tuple[int, ...] | None]
                  ) -> tuple[int, tuple[int, ...] | None]:
    """Extend ``assignment[:v]`` (parts ``masks``, vertex set ``assigned``,
    ``used`` parts in first-use order, ``cost`` so far) over vertices v..n-1:
    the ``(cost, assignment)`` pair ``best`` or a cheaper one found below."""
    if v == len(adj):
        return (cost, tuple(assignment)) if cost < best[0] else best
    row = adj[v]
    for part in range(min(used + 1, 3)):
        inside = (row & masks[part]).bit_count()
        other = assigned & ~masks[part]
        missing = other.bit_count() - (row & other).bit_count()
        new_cost = cost + inside + missing
        if new_cost >= best[0]:
            continue
        assignment[v] = part
        new_masks = list(masks)
        new_masks[part] |= 1 << v
        best = _exact_search(adj, assignment, v + 1, tuple(new_masks),
                             assigned | 1 << v, max(used, part + 1), new_cost,
                             best)
    return best


def _greedy_starts(adj: np.ndarray) -> np.ndarray:
    """Per graph of the (B, n, n) stack, assign vertices in index order,
    each to the first part of least added cost; shape (B, n).

    With N[p][v] the neighbours of v among the assigned vertices of part p,
    v adds 2 N[p][v] - size[p] plus a term that is the same for every part.
    """
    b, n, _ = adj.shape
    at = np.arange(b)
    count = np.zeros((b, 3, n))
    size = np.zeros((b, 3))
    assignment = np.empty((b, n), dtype=np.int64)
    for v in range(n):
        part = (2 * count[:, :, v] - size).argmin(axis=1)
        assignment[:, v] = part
        count[at, part] += adj[:, v]
        size[at, part] += 1
    return assignment


def _float_chunks(adj: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """The (B, n, n) int8 stack as float64 sub-stacks of at most
    ``search._CHUNK_ENTRIES`` entries, each with its slice of the stack."""
    step = _chunk_size(adj.shape[1])
    for lo in range(0, len(adj), step):
        at = slice(lo, lo + step)
        yield at, adj[at].astype(np.float64)


def _descend(adj: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """First-improvement single-vertex moves until locally optimal, for
    every start of every graph at once.

    ``adj`` stacks B adjacency matrices (int8, shape (B, n, n)) and
    ``starts`` holds R assignments per graph (shape (B, R, n)); each start
    descends in place and its final cost is returned, shape (B, R).

    A descent scans v = 0, 1, ... and moves the first v with an improving
    part to the first such part in 0, 1, 2, then scans again from v = 0.
    With N[p][v] the neighbours of v in part p, v in part p costs
    cost[p][v] = 2 N[p][v] - size[p] + [a_v = p], plus n - 1 - deg v
    whatever p is, so moving v to p improves exactly when
    cost[p][v] < cost[a_v][v].

    All descents step in lockstep on one (descents, 3, n) cost array (see
    ``_step``), and a descent with no move drops out.  A cost is at most
    N[p][v] and at least -(size[p] - [a_v = p]), so it lies in
    [1 - n, n - 1]: int16 holds it for every n <= MAX_N = 2048, and int8
    would overflow from n = 129.
    """
    b, r, n = starts.shape
    cost = _cost_table(adj, starts)
    # inside + across = (sum_v cost[a_v][v] + n^2 - n - 2m) / 2.
    total = np.repeat(n * n - n - adj.sum(axis=(1, 2), dtype=np.int64), r)
    sign = _move_signs(adj)
    live = np.arange(b * r)
    owner = live // r
    a = starts.reshape(b * r, n).copy()
    final = np.empty_like(a)
    while len(live):
        found, _, _, own = _step(cost, a, sign, owner)
        if not found.all():
            done = ~found
            final[live[done]] = a[done]
            total[live[done]] += own[done].sum(axis=1)
            live, owner, a, cost = (x[found] for x in (live, owner, a, cost))
    starts[...] = final.reshape(b, r, n)
    return (total // 2).reshape(b, r)


def _cost_table(adj: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """cost[p][v] of every start, shape (B * R, 3, n), from the (B, n, n)
    int8 adjacency stack and the (B, R, n) starts, one float sub-stack of
    the adjacency at a time."""
    b, r, n = starts.shape
    cost = np.empty((b, r, 3, n), dtype=np.int16)
    for at, sub in _float_chunks(adj):
        for p in range(3):
            in_p = (starts[at] == p).astype(np.float64)
            count = in_p @ sub  # N[p]; adj is symmetric
            cost[at, :, p] = 2 * count + in_p - in_p.sum(axis=2, keepdims=True)
    return cost.reshape(b * r, 3, n)


def _move_signs(adj: np.ndarray) -> np.ndarray:
    """The int8 stack s with s[w][v] = +1 on an edge, -1 off it and 0 on
    the diagonal: moving v from old to new changes cost[old][w] by -s and
    cost[new][w] by +s, and leaves cost[.][v] as it was."""
    n = adj.shape[1]
    sign = 2 * adj.astype(np.int8) - 1
    sign[:, np.arange(n), np.arange(n)] = 0
    return sign


def _step(cost: np.ndarray, a: np.ndarray, sign: np.ndarray,
          owner: np.ndarray) -> tuple[np.ndarray, ...]:
    """One lockstep move of every descent, in place.

    Descent i, on graph ``owner[i]`` of the ``sign`` stack, moves its lowest
    vertex with an improving part to the first such part, updating its
    assignment ``a[i]`` and cost table ``cost[i]``.  Returns ``found`` (did
    descent i move), the moved descents' vertices ``v`` and new parts
    ``new``, and ``own``, each descent's cost of its own part per vertex
    before the move.
    """
    n = a.shape[1]
    at = np.arange(len(a))
    own = np.take(cost, (3 * at[:, None] + a) * n + np.arange(n))
    better = cost < own[:, None, :]
    movable = better[:, 0] | better[:, 1] | better[:, 2]
    v = movable.argmax(axis=1)
    found = movable[at, v]
    if not found.all():
        at, v, owner = at[found], v[found], owner[found]
    new = better[at, :, v].argmax(axis=1)
    old = a[at, v]
    a[at, v] = new
    delta = sign[owner, v]
    cost[at, old] -= delta
    cost[at, new] += delta
    return found, v, new, own


def _local_search(adj: np.ndarray, seeds: list[int],
                  restarts: int) -> list[EditResult]:
    """Per graph of the (B, n, n) int8 stack, the least (cost, assignment)
    over the descents from one greedy start and restarts - 1 random starts
    drawn from the graph's seed."""
    n = adj.shape[1]
    starts = np.empty((len(seeds), restarts, n), dtype=np.int64)
    starts[:, 0] = _greedy_starts(adj)
    for row, seed in zip(starts, seeds):
        rng = np.random.default_rng(np.random.PCG64(seed))
        row[1:] = rng.integers(0, 3, size=(restarts - 1, n))
    costs = _descend(adj, starts)
    results = []
    for cost_row, start_row in zip(costs.tolist(), starts.tolist()):
        cost, assignment = min(zip(cost_row, map(tuple, start_row)))
        results.append(EditResult(assignment, cost, cost / n ** 2,
                                  "local_search"))
    return results


def edit_distance_local(g: Graph, restarts: int, seed: int) -> EditResult:
    """Best local optimum over one greedy start plus seeded random starts."""
    if restarts < 1:
        raise ValueError("need at least one restart")
    adj = adjacency_matrix(g).astype(np.int8)
    return _local_search(adj[None], [seed], restarts)[0]


def _stability_group(base: np.ndarray, pairs: np.ndarray,
                     cells: list[tuple[int, int]],
                     children: list[np.random.SeedSequence]) -> list[dict]:
    """The rows of a run of (k, sample) cells, one seed stream each.

    ``base`` is the int8 adjacency of T(n, 3) and ``pairs`` its edges.
    Each cell draws its deleted edges and then, above EXACT_MAX_N, the seed
    of its local-search starts.  Row i of the int8 stack is ``base`` with
    cell i's drawn pairs zeroed; lambda1 comes from one batched eigensolve
    per float sub-stack and the local searches from one batched descent.
    """
    n = len(base)
    ks = [k for k, _ in cells]
    drawn, seeds = [], []
    for k, child in zip(ks, children):
        rng = np.random.default_rng(np.random.PCG64(child))
        drawn.append(rng.choice(len(pairs), size=k, replace=False))
        if n > EXACT_MAX_N:
            seeds.append(int(rng.integers(2 ** 63)))
    i = np.repeat(np.arange(len(cells)), ks)
    u, v = pairs[np.concatenate(drawn)].T
    adj = np.repeat(base[None], len(cells), axis=0)
    adj[i, u, v] = adj[i, v, u] = 0
    lam1 = np.concatenate([np.linalg.eigvalsh(sub)[:, -1]
                           for _, sub in _float_chunks(adj)]).tolist()
    if seeds:
        results = _local_search(adj, seeds, LOCAL_RESTARTS)
    else:
        masks = (adj.astype(np.int64) << np.arange(n)).sum(axis=2).tolist()
        results = [edit_distance_exact(Graph._unchecked(n, tuple(row)))
                   for row in masks]
    rows = []
    for (k, sample), lam, res in zip(cells, lam1, results):
        m = len(pairs) - k
        rows.append(dict(zip(STABILITY_CSV_COLUMNS, (
            n, k, sample, m, lam * lam / m if m else 0.0, res.edits,
            res.normalized, res.method,
        ))))
    return rows


def stability_experiment(n: int, deletion_grid: list[int], samples: int,
                         seed: int) -> list[dict]:
    """Sample edge-deleted balanced tripartite graphs and measure recovery.

    For each k in the grid, delete k distinct random edges from the balanced
    complete tripartite graph on n vertices and record lambda1^2 / m (which
    sits at 4/3 exactly when nothing is deleted and 3 | n) together with the
    edit distance back to the family.  Rows follow STABILITY_CSV_COLUMNS.

    Each (k, sample) cell runs on its own spawned seed stream, so the rows
    do not depend on how the cells are grouped.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    turan = turan_graph(n, 3)
    pairs = np.array(turan.edges(), dtype=np.intp).reshape(-1, 2)
    for k in deletion_grid:
        if not 0 <= k <= len(pairs):
            raise ValueError(f"cannot delete {k} of {len(pairs)} edges")
    base = adjacency_matrix(turan).astype(np.int8)
    cells = [(k, sample) for k in deletion_grid for sample in range(samples)]
    children = np.random.SeedSequence(seed).spawn(len(cells))
    step = max(1, _GROUP_ENTRIES // (n * n))
    return [
        row
        for lo in range(0, len(cells), step)
        for row in _stability_group(base, pairs, cells[lo:lo + step],
                                    children[lo:lo + step])
    ]


@dataclass(frozen=True)
class DenseCaseReport:
    """The case split of one graph; the diagnostics, from ``lambda1_sq`` on,
    are None when the argument does not apply."""

    applicable: bool
    reason: str
    n: int
    m: int
    c: float
    delta: float
    lambda1_sq: float | None = None
    case_threshold: float | None = None  # (4/3 - delta) m
    case: int | None = None  # 1 if lambda1^2 above the threshold, else 2
    triangles: int | None = None
    triangle_bound: float | None = None  # n d^2 / 12 with d = 2m/n
    triangle_bound_ok: bool | None = None
    lambda2_cubed: float | None = None
    lambda2_cubed_bound: float | None = None  # 2 m^2 / n
    lambda2_cubed_ok: bool | None = None
    bn: BnReport | None = None


def dense_case_check(g: Graph, c: float, delta: float = 0.05) -> DenseCaseReport:
    """Instance-level walkthrough of the dense K4-free argument.

    The case split compares lambda1^2 against (4/3 - delta) m; the triangle
    and second-eigenvalue quantities from the sparse case are reported as
    observational diagnostics only, never asserted.  ``c`` and ``delta``
    must be finite and non-negative.
    """
    if not (0 <= c < math.inf and 0 <= delta < math.inf):
        raise ValueError(f"c and delta must be finite and non-negative,"
                         f" got c={c}, delta={delta}")
    def not_applicable(reason: str) -> DenseCaseReport:
        return DenseCaseReport(False, reason, g.n, g.m, c, delta)

    if not is_k4_free(g):
        return not_applicable("graph contains a K4")
    if g.n == 3 and g.is_complete():
        return not_applicable("triangle is excluded")
    if g.m < c * g.n * g.n:
        return not_applicable(f"m={g.m} below c*n^2={c * g.n * g.n}")
    try:
        report = bn_report(g, source=f"dense-check:c={c}")
    except OutOfDomainError:
        return not_applicable("graph has no edges")
    lam1_sq = report.lambda1 ** 2
    threshold = (4.0 / 3.0 - delta) * g.m
    d = 2.0 * g.m / g.n
    t3 = triangle_count(g)
    t3_bound = g.n * d * d / 12.0
    lam2_cubed = report.lambda2 ** 3
    lam2_bound = 2.0 * g.m * g.m / g.n
    return DenseCaseReport(
        True, "", g.n, g.m, c, delta, lam1_sq, threshold,
        1 if lam1_sq > threshold else 2,
        t3, t3_bound, t3 <= t3_bound + 1e-9,
        lam2_cubed, lam2_bound, lam2_cubed <= lam2_bound + 1e-9,
        report,
    )
