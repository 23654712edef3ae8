"""Gap reports for the clique-eigenvalue inequality and related diagnostics.

The headline quantity for a graph with m edges and clique number w is

    gap = 2 (1 - 1/w) m - (lambda1^2 + lambda2^2),

conjectured non-negative for every graph other than a complete one.  A
``BnReport`` collects everything a single graph contributes: the eigenvalue
pair, the bound, the gap, and the holds / equality / excluded flags.  Its
fields, in order, are its output record: ``jsonutil.dumps`` of ``vars``
writes it alone (the fields are flat), and of ``dataclasses.asdict`` nested
in another record.

``multipartite_columns`` is the one owner of the complete multipartite
report: it derives numpy columns of the report fields and the
bipartite-note mask from part sizes, and ``multipartite_source`` builds
the source text.  ``bn_report_multipartite`` is its one-row case.
``report_lines`` writes a sweep chunk of its columns, with the bytes of
``dumps``, from one variant of the template ``REPORT_LINE`` per part count
and note, so no row's tag is built.

Complete graphs violate the bound by exactly 1 and are excluded by the
conjecture; their reports are still fully populated so the violation itself
stays under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graphs import (
    Graph,
    PartSizes,
    clique_number,
    independence_number,
    is_k4_free,
)
from .multipartite import multipartite_tag, secular_root_range
from .spectra import eigenvalues

GAP_TOL = 1e-9


class OutOfDomainError(ValueError):
    """Raised for graphs the bound does not apply to (omega < 2)."""


@dataclass(frozen=True)
class BnReport:
    n: int
    m: int
    omega: int
    lambda1: float
    lambda2: float
    lambda_n: float
    bound: float
    lhs: float
    gap: float
    holds: bool
    equality: bool
    excluded: bool
    source: str

    @classmethod
    def from_eigenvalues(cls, vals, m: int, omega: int, source: str) -> BnReport:
        """The report of a graph with m edges and clique number omega, read
        off its ascending eigenvalues ``vals`` (``numpy.linalg.eigvalsh``
        output, at least two of them): n is ``len(vals)``, lambda1, lambda2
        and lambda_n are ``vals[-1]``, ``vals[-2]`` and ``vals[0]``."""
        n = len(vals)
        lam1, lam2 = float(vals[-1]), float(vals[-2])
        return cls(n, m, omega, lam1, lam2, float(vals[0]),
                   *gap_terms(n, m, omega, lam1, lam2), source)

    @property
    def violation(self) -> bool:
        """A non-excluded graph breaking the bound: the one cause of exit 1."""
        return not self.excluded and not self.holds


# A report line: the fields of ``BnReport`` in order, as ``dumps`` writes
# them.  A finite float's ``%.17g`` is ``format(x, ".17g")``, the JSON text
# ``dumps`` writes.  ``report_lines`` writes a sweep chunk with its variants
# (``_source_layout``).
REPORT_LINE = ('{"n": %d, "m": %d, "omega": %d, "lambda1": %.17g, '
               '"lambda2": %.17g, "lambda_n": %.17g, "bound": %.17g, '
               '"lhs": %.17g, "gap": %.17g, "holds": %s, "equality": %s, '
               '"excluded": %s, "source": %s}')
_JSON_BOOL = ("false", "true")

# Appended to the source of an unbalanced complete bipartite report with
# equality: lambda1^2 = ab = m matches the bound for every a and b.
BIPARTITE_NOTE = "; note: bipartite equality holds for all a,b"


def report_lines(columns, parts, note) -> str:
    """The lines ``dumps(vars(report))`` writes for a chunk
    of multipartite reports, each ended by a newline: ``columns`` and
    ``note`` as ``multipartite_columns(parts)`` returns them.  Every float
    must be finite, as in a sweep chunk.  No source tag is built: each row
    fills the variant of ``REPORT_LINE`` for its part count and note
    (``_source_layout``), made once per chunk, with its fields and then
    its part sizes."""
    *numbers, holds, equality, excluded = (c.tolist() for c in columns)
    flags = ([_JSON_BOOL[b] for b in flag] for flag in (holds, equality, excluded))
    keys = [(len(p), b) for p, b in zip(parts, note.tolist())]
    layouts = {key: _source_layout(*key) for key in set(keys)}
    lines = [layouts[key] % (row + p)
             for key, row, p in zip(keys, zip(*numbers, *flags), parts)]
    lines.append("")  # so the join ends the last line too
    return "\n".join(lines)


def _source_layout(r: int, noted: bool) -> str:
    """``REPORT_LINE`` with its source, the last ``%s``, replaced by the
    quoted ``multipartite_source`` of r ``%d`` slots and ``noted``: the
    line of a report with r parts, filled by its fields and then its r part
    sizes.  Neither the tag nor the note needs a JSON escape."""
    head, tail = REPORT_LINE.rsplit("%s", 1)
    return head + '"' + multipartite_source(("%d",) * r, noted) + '"' + tail


def multipartite_source(sizes, noted) -> str:
    """The source of a complete multipartite report: the
    ``multipartite_tag`` of ``sizes``, plus ``BIPARTITE_NOTE`` if ``noted``."""
    return multipartite_tag(sizes) + (BIPARTITE_NOTE if noted else "")


def gap_terms(n, m, omega, lam1, lam2):
    """``bound, lhs, gap, holds, equality, excluded`` for one graph or, as
    numpy columns, a chunk: only Python operators are used.  Both tests
    (``gap_flags``) use the scale ``GAP_TOL * max(1, bound)``, since the
    rounding error of ``lhs`` grows with it: ``holds`` is
    ``gap >= -GAP_TOL * max(1, bound)`` and ``equality`` is
    ``|gap| <= GAP_TOL * max(1, bound)``, so equality implies holds.
    ``excluded`` marks complete graphs.
    """
    bound = 2.0 * (1.0 - 1.0 / omega) * m
    lhs = lam1 * lam1 + lam2 * lam2
    gap = bound - lhs
    return (bound, lhs, gap, *gap_flags(gap, bound), m == n * (n - 1) // 2)


def gap_flags(gap, bound):
    """``holds, equality`` of ``gap_terms`` for a gap and its bound, one
    graph's or numpy columns': the one owner of the ``GAP_TOL`` tests."""
    holds = (gap >= -GAP_TOL) | (gap >= -GAP_TOL * bound)
    equality = (abs(gap) <= GAP_TOL) | (abs(gap) <= GAP_TOL * bound)
    return holds, equality


def bn_report(g: Graph, source: str = "graph") -> BnReport:
    """Full gap report for an arbitrary graph (numeric spectrum, exact omega)."""
    m = g.m
    if g.n < 2 or m < 1:
        raise OutOfDomainError(
            f"graph with n={g.n}, m={m} has clique number below 2"
        )
    return BnReport.from_eigenvalues(eigenvalues(g), m, clique_number(g),
                                     source)


def multipartite_columns(parts: list[tuple[int, ...]]
                         ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The report columns and bipartite-note mask of the complete
    multipartite graphs with part sizes ``parts`` (descending tuples, at
    least two parts each, trusted): one zero-padded array of part sizes,
    one ``secular_root_range`` call and one ``gap_terms`` call on all of
    them.  The columns are the ``BnReport`` fields from n to excluded, in
    field order (omega is the part count r); row i's source is
    ``multipartite_source(parts[i], note[i])``.

    The eigenvalues are the secular roots, the poles -p (p a size that
    occurs t >= 2 times) and, when n > r, zero.  So lambda1 is the largest
    root and lambda2 is zero when n > r, else -1.  The smallest root lies
    above the largest pole -p_max and below every other pole, so lambda_n
    is the least of that root, -p_max when p_max occurs twice or more, and
    zero.  The note marks two unequal parts with equality.
    """
    r = np.fromiter(map(len, parts), np.int64, len(parts))
    sizes = np.zeros((len(parts), int(r.max())), np.int64)
    sizes[np.arange(sizes.shape[1]) < r[:, None]] = list(chain.from_iterable(parts))
    n = sizes.sum(axis=1)
    m = (n * n - (sizes * sizes).sum(axis=1)) // 2
    lam1, smallest = secular_root_range(sizes)
    p_max, p_next = sizes[:, 0], sizes[:, 1]
    lam_n = np.where(p_next == p_max, np.minimum(smallest, -p_max), smallest)
    lam_n = np.where(n > r, np.minimum(lam_n, 0.0), lam_n)
    lam2 = np.where(n > r, 0.0, -1.0)
    terms = gap_terms(n, m, r, lam1, lam2)
    note = (r == 2) & terms[4] & (p_next != p_max)
    return (n, m, r, lam1, lam2, lam_n, *terms), note


def multipartite_report(columns, note, parts, i: int) -> BnReport:
    """Row i of the ``columns`` and ``note`` that
    ``multipartite_columns(parts)`` returned, as a ``BnReport``."""
    return BnReport(*(c.item(i) for c in columns),
                    multipartite_source(parts[i], note[i]))


def bn_report_multipartite(parts: PartSizes) -> BnReport:
    """Gap report for a complete multipartite graph via its exact spectrum:
    the one-row case of ``multipartite_columns``."""
    rows = [parts.sizes]
    return multipartite_report(*multipartite_columns(rows), rows, 0)


def hoffman_bound(g: Graph) -> float:
    """Hoffman's ratio bound -n lambda_n / (lambda1 - lambda_n).

    On regular graphs, where lambda1 is the degree, it is an upper bound on
    alpha.  On irregular graphs it can fall below alpha: the 3-vertex path
    gives 1.5 < alpha = 2.
    """
    if g.m < 1:
        raise ValueError("Hoffman bound needs at least one edge")
    vals = eigenvalues(g).tolist()
    lam1, lam_n = vals[-1], vals[0]
    return -g.n * lam_n / (lam1 - lam_n)


@dataclass(frozen=True)
class HoffmanRatioCheck:
    applicable: bool
    reason: str
    ratio: float | None
    passes: bool | None


def _third_result_gate(g: Graph) -> str:
    """Why g lies outside the domain of the paper's third result (K4-free
    graphs with 3*alpha >= n, and an edge), or "" if it lies inside."""
    if g.m < 1:
        return "needs at least one edge"
    if not is_k4_free(g):
        return "graph contains a K4"
    if 3 * independence_number(g) < g.n:
        return "independence number below n/3"
    return ""


def hoffman_ratio_check(g: Graph) -> HoffmanRatioCheck:
    """For K4-free graphs with 3*alpha >= n: check |lambda_n| >= lambda1 / 2."""
    reason = _third_result_gate(g)
    if reason:
        return HoffmanRatioCheck(False, reason, None, None)
    vals = eigenvalues(g).tolist()
    ratio = abs(vals[0]) / vals[-1]
    return HoffmanRatioCheck(True, "", ratio, ratio >= 0.5 - GAP_TOL)


@dataclass(frozen=True)
class ObstructionReport:
    applicable: bool
    reason: str
    m: int
    lambda1: float
    lhs: float
    hoffman_energy_bound: float  # 2m - lambda1^2 / 4
    lhs_within_bound: bool       # lhs <= bound
    bound_exceeds_four_thirds: bool  # bound > 4m/3: the bound is too weak
    lambda1_sq_below_eight_thirds: bool


def obstruction_report(g: Graph) -> ObstructionReport:
    """Why the Hoffman-energy route cannot close the K4-free case.

    Combining |lambda_n| >= lambda1/2 with the square-trace identity yields
    lhs <= B := 2m - lambda1^2/4, but B <= 4m/3 would require
    lambda1^2 >= 8m/3, which the spectral bound caps at 4m/3.  So B always
    overshoots the target bound; both facts are checked per instance.
    """
    reason = _third_result_gate(g)
    if not reason and g.n < 3:
        # The trace argument reads lambda1, lambda2, lambda_n as three
        # distinct entries; on two vertices lambda2 already is lambda_n.
        reason = "needs at least three eigenvalues"
    if not reason and g.n == 3 and g.is_complete():
        reason = "triangle is excluded"
    if reason:
        return ObstructionReport(False, reason, g.m, 0.0, 0.0, 0.0,
                                 False, False, False)
    vals = eigenvalues(g).tolist()
    lam1 = vals[-1]
    lhs = lam1 * lam1 + vals[-2] ** 2
    b = 2.0 * g.m - lam1 * lam1 / 4.0
    return ObstructionReport(
        True, "", g.m, lam1, lhs, b,
        lhs_within_bound=lhs <= b + GAP_TOL,
        bound_exceeds_four_thirds=b > 4.0 * g.m / 3.0 - GAP_TOL,
        lambda1_sq_below_eight_thirds=lam1 * lam1 < 8.0 * g.m / 3.0,
    )
