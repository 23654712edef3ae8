"""Edit distance to complete tripartite graphs and desk-scale stability runs.

The distance of a graph to the family of complete tripartite graphs on its
own vertex set is the minimum, over all assignments of vertices to three
(possibly empty) parts, of

    (edges inside a part)  +  (missing edges across parts).

Empty parts are allowed, so complete bipartite graphs and the edgeless graph
are members of the family at distance zero.  The exact solver enumerates
assignments; the local-search variant scales the same cost function to
larger graphs and can only overestimate.

The local search moves the lowest vertex that has an improving move to its
first improving part in 0, 1, 2, then rescans from vertex 0.  It keeps N[v][p],
the neighbours of v in part p, and the part sizes (the gain bookkeeping of
Fiduccia and Mattheyses, DAC 1982, without buckets), so each check is O(1):
v in part p costs 2 N[v][p] - size[p] + [a_v = p] + (n - 1 - deg v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjecture import bn_report, BnReport, OutOfDomainError
from .graphs import Graph, is_k4_free, triangle_count, turan_graph
from .spectra import eigenvalues

EXACT_MAX_N = 12
LOCAL_RESTARTS = 8  # edit_distance_local starts per stability row above EXACT_MAX_N
_OTHER_PARTS = ((1, 2), (0, 2), (0, 1))  # moves out of part p, in part order

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
    n = g.n
    adj = g.adj
    best_cost = g.m + 1  # assignment (0,...,0) costs m, so this is beaten
    best_assignment: tuple[int, ...] | None = None
    assignment = [0] * n

    def descend(v: int, masks: tuple[int, int, int], assigned: int,
                used: int, cost: int) -> None:
        nonlocal best_cost, best_assignment
        if v == n:
            if cost < best_cost:
                best_cost = cost
                best_assignment = tuple(assignment)
            return
        row = adj[v]
        for part in range(min(used + 1, 3)):
            inside = (row & masks[part]).bit_count()
            other = assigned & ~masks[part]
            missing = other.bit_count() - (row & other).bit_count()
            new_cost = cost + inside + missing
            if new_cost >= best_cost:
                continue
            assignment[v] = part
            new_masks = list(masks)
            new_masks[part] |= 1 << v
            descend(v + 1, tuple(new_masks), assigned | 1 << v,
                    max(used, part + 1), new_cost)

    descend(0, (0, 0, 0), 0, 0, 0)
    assert best_assignment is not None
    return EditResult(best_assignment, best_cost, best_cost / n ** 2, "exact")


def _greedy_assignment(g: Graph) -> tuple[int, ...]:
    """Assign vertices in index order, each to the part of least added cost."""
    masks = [0, 0, 0]
    assignment = []
    assigned = 0
    for v in range(g.n):
        row = g.adj[v]
        best_part, best_delta = 0, None
        for part in range(3):
            other = assigned & ~masks[part]
            delta = (row & masks[part]).bit_count() \
                + other.bit_count() - (row & other).bit_count()
            if best_delta is None or delta < best_delta:
                best_part, best_delta = part, delta
        assignment.append(best_part)
        masks[best_part] |= 1 << v
        assigned |= 1 << v
    return tuple(assignment)


def _local_descent(g: Graph, neighbors: list[list[int]],
                   assignment: list[int]) -> int:
    """First-improvement single-vertex moves until locally optimal.

    Scans v = 0, 1, ... and moves the first v with an improving part to the
    first such part in 0, 1, 2, then scans again from v = 0.  With count[v][p]
    the neighbours of v in part p, v in part p costs 2 count[v][p] - size[p]
    + [a_v = p] + (n - 1 - deg v), so moving v from cur to part improves
    exactly when 2 count[v][part] - size[part] < 2 count[v][cur] - size[cur]
    + 1.  Returns the final cost and leaves the assignment in place.
    """
    masks = [0, 0, 0]
    for v, part in enumerate(assignment):
        masks[part] |= 1 << v
    size = [mask.bit_count() for mask in masks]
    count = [[(row & mask).bit_count() for mask in masks] for row in g.adj]
    improved = True
    while improved:
        improved = False
        for v, cv in enumerate(count):
            cur = assignment[v]
            base = 2 * cv[cur] - size[cur] + 1
            for part in _OTHER_PARTS[cur]:
                if 2 * cv[part] - size[part] < base:
                    assignment[v] = part
                    size[cur] -= 1
                    size[part] += 1
                    for w in neighbors[v]:
                        count[w][cur] -= 1
                        count[w][part] += 1
                    improved = True
                    break
            if improved:
                break
    # Edges inside parts, plus pairs across parts that are not edges.
    inside = sum(cv[part] for cv, part in zip(count, assignment)) // 2
    across = (g.n * g.n - sum(s * s for s in size)) // 2
    return inside + across - (g.m - inside)


def edit_distance_local(g: Graph, restarts: int, seed: int) -> EditResult:
    """Best local optimum over one greedy start plus seeded random starts."""
    if restarts < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(np.random.PCG64(seed))
    neighbors = [list(g.neighbors(v)) for v in range(g.n)]
    best: tuple[int, tuple[int, ...]] | None = None
    for trial in range(restarts):
        if trial == 0:
            assignment = list(_greedy_assignment(g))
        else:
            assignment = [int(x) for x in rng.integers(0, 3, size=g.n)]
        cost = _local_descent(g, neighbors, assignment)
        key = (cost, tuple(assignment))
        if best is None or key < best:
            best = key
    cost, assignment = best
    return EditResult(assignment, cost, cost / g.n ** 2, "local_search")


def _stability_row(n: int, base: Graph, base_edges: list, k: int, sample: int,
                   child: np.random.SeedSequence) -> dict:
    rng = np.random.default_rng(np.random.PCG64(child))
    g = base
    for idx in rng.choice(len(base_edges), size=k, replace=False):
        g = g.without_edge(*base_edges[int(idx)])
    lam1 = eigenvalues(g).lambda1
    if n <= EXACT_MAX_N:
        res = edit_distance_exact(g)
    else:
        res = edit_distance_local(g, LOCAL_RESTARTS,
                                  seed=int(rng.integers(2 ** 63)))
    return dict(zip(STABILITY_CSV_COLUMNS, (
        n, k, sample, g.m, lam1 * lam1 / g.m if g.m else 0.0, res.edits,
        res.normalized, res.method,
    )))


def stability_experiment(n: int, deletion_grid: list[int], samples: int,
                         seed: int) -> list[dict]:
    """Sample edge-deleted balanced tripartite graphs and measure recovery.

    For each k in the grid, delete k distinct random edges from the balanced
    complete tripartite graph on n vertices and record lambda1^2 / m (which
    sits at 4/3 exactly when nothing is deleted and 3 | n) together with the
    edit distance back to the family.  Rows follow STABILITY_CSV_COLUMNS.

    Each (k, sample) cell runs on its own spawned seed stream.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    base = turan_graph(n, 3)
    base_edges = base.edges()
    for k in deletion_grid:
        if not 0 <= k <= len(base_edges):
            raise ValueError(f"cannot delete {k} of {len(base_edges)} edges")
    children = np.random.SeedSequence(seed).spawn(len(deletion_grid) * samples)
    return [
        _stability_row(n, base, base_edges, k, sample, children[ki * samples + sample])
        for ki, k in enumerate(deletion_grid)
        for sample in range(samples)
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
