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
table.  The same rows build every table, in integers (see ``_move_signs``).

``stability_experiment`` runs its rows in descent groups whose int8
adjacency stack holds at most ``_GROUP_ENTRIES`` entries (2^18, 256 KiB:
all 60 rows at n = 60, 26 at n = 100).  A row's matrix is the int8
adjacency of T(n, 3) with its drawn pairs zeroed, so no ``Graph`` is built
or packed per row, and its edge count is m(T(n, 3)) - k.  The float64
matrices of the rows are made one sub-stack of at most
``spectra._CHUNK_ENTRIES`` entries at a time, for the power iteration
that gives lambda1: on A + cI from the all-ones vector, whose iterates
stay positive, so the Rayleigh quotient and the Collatz-Wielandt bound
max_i (Ax)_i / x_i bracket lambda1.  A row reports its Rayleigh
quotient once the bracket is at most _PERRON_TOL * max(1, RQ) wide (after
at most 19 products on the benchmark run), and the rows of a sub-stack
still open after _PERRON_STEPS products take the value of one batched
``eigvalsh``.  Either way a row's lambda1 does not depend on the other
rows, so rows that drew the same pairs get the same value.

Above EXACT_MAX_N a row's edits are those of ``edit_distance_local``, the
least cost over its LOCAL_RESTARTS starts, but the rows first descend from
their greedy starts alone.  A greedy cost c is optimal when c = 0 or when
c pair-disjoint conflict triples, each inducing exactly one edge, pass
through the c defect pairs of the greedy assignment: no complete
multipartite graph has such a triple, so each needs an edit of its own
(the packing bound for cluster editing, on the complement).  Only rows
without that certificate descend from their random starts.  On the
benchmark run (n = 60, k in 0, 10, 50) every row is certified.
``edit_distance_local`` always descends from every start; it is the
oracle for the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjecture import bn_report, BnReport, OutOfDomainError
from .graphs import Graph, is_k4_free, triangle_count, turan_graph
from .spectra import _CHUNK_ENTRIES, _chunk_size, adjacency_matrix

EXACT_MAX_N = 12
# The starts (one greedy, the rest seeded random) of every stability row
# above EXACT_MAX_N; edit_distance_local takes ``restarts`` from its caller.
LOCAL_RESTARTS = 8

# Adjacency entries per stability descent group: the group's int8 stack
# (and its move signs) holds at most this many, B = max(1,
# _GROUP_ENTRIES // n^2) rows: 256 KiB, all 60 rows of the n = 60 benchmark
# run.  Its float64 matrices are built _CHUNK_ENTRIES at a time.
_GROUP_ENTRIES = 8 * _CHUNK_ENTRIES

# Products (A + cI) x a stability row takes before its lambda1 falls back
# to eigvalsh, and the relative width at which its bracket closes.
_PERRON_STEPS = 64
_PERRON_TOL = 1e-12

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


def _greedy_starts(sign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per graph of the (B, n, n) move-sign stack, assign vertices in index
    order, each to the first part of least added cost; returns the (B, n)
    assignments and their int16 cost tables, shape (B, 3, n).

    Row s[v] joins part p when v does (see ``_move_signs``), so before v is
    placed its entry for p is what v adds in p, up to a term that is the
    same for every part; once all are placed, the table is the cost table.
    """
    b, n, _ = sign.shape
    at = np.arange(b)
    table = np.zeros((b, 3, n), dtype=np.int16)
    assignment = np.empty((b, n), dtype=np.int64)
    for v in range(n):
        part = table[:, :, v].argmin(axis=1)
        assignment[:, v] = part
        table[at, part] += sign[:, v]
    return assignment, table


def _descend(sign: np.ndarray, starts: np.ndarray,
             cost: np.ndarray) -> np.ndarray:
    """First-improvement single-vertex moves until locally optimal, for
    every start of every graph at once.

    ``sign`` stacks the move signs of B graphs (int8, shape (B, n, n)),
    ``starts`` holds R assignments per graph (shape (B, R, n)) and ``cost``
    their int16 tables (shape (B * R, 3, n), see ``_move_signs``), which it
    uses up; each start descends in place and its final cost is returned,
    shape (B, R).

    A descent scans v = 0, 1, ... and moves the first v with an improving
    part to the first such part in 0, 1, 2, then scans again from v = 0.
    v in part p costs cost[p][v] plus n - 1 - deg v whatever p is, so
    moving v to p improves exactly when cost[p][v] < cost[a_v][v].

    All descents step in lockstep on one (descents, 3, n) cost array (see
    ``_step``), and a descent with no move drops out.
    """
    b, r, n = starts.shape
    # inside + across = (sum_v cost[a_v][v] + n^2 - n - 2m) / 2, and the
    # signs sum to 2m - (n^2 - n - 2m).
    pairs = n * n - n - sign.sum(axis=(1, 2), dtype=np.int64)
    total = np.repeat(pairs // 2, r)
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


def _cost_table(sign: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The int16 cost table of every start, shape (B * R, 3, n), from the
    (B, n, n) move-sign stack and the (B, R, n) starts: row s[v] is added
    to part a_v, vertex by vertex (see ``_move_signs``)."""
    b, r, n = starts.shape
    cost = np.zeros((b, r, 3, n), dtype=np.int16)
    graph, start = np.arange(b)[:, None], np.arange(r)
    for v in range(n):
        cost[graph, start, starts[:, :, v]] += sign[:, None, v]
    return cost.reshape(b * r, 3, n)


def _move_signs(adj: np.ndarray) -> np.ndarray:
    """The int8 stack s of the (B, n, n) adjacency stack: s[u][v] = +1 on
    an edge, -1 off it and 0 on the diagonal.  Every cost table is built
    from these rows, since with N[p][v] the neighbours of v in part p

        cost[p][v] = sum of s[u][v] over u in part p
                   = 2 N[p][v] - size[p] + [a_v = p];

    moving v from old to new adds -s[v] to cost[old] and s[v] to cost[new].
    A cost sums at most n - 1 signs: int16 holds it for every n <= MAX_N =
    2048, and int8 would overflow from n = 129.
    """
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


def _random_starts(seed: int, count: int, n: int) -> np.ndarray:
    """``count`` uniform assignments of n vertices drawn from ``seed``,
    shape (count, n)."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    return rng.integers(0, 3, size=(count, n))


def edit_distance_local(g: Graph, restarts: int, seed: int) -> EditResult:
    """Best local optimum over one greedy start plus seeded random starts:
    the least (cost, assignment) over the descents from all of them."""
    if restarts < 1:
        raise ValueError("need at least one restart")
    sign = _move_signs(adjacency_matrix(g).astype(np.int8)[None])
    starts = np.empty((1, restarts, g.n), dtype=np.int64)
    starts[:, 0] = _greedy_starts(sign)[0]
    starts[0, 1:] = _random_starts(seed, restarts - 1, g.n)
    costs = _descend(sign, starts, _cost_table(sign, starts))
    cost, assignment = min(zip(costs[0].tolist(),
                               map(tuple, starts[0].tolist())))
    return EditResult(assignment, cost, cost / g.n ** 2, "local_search")


def _bitset_rows(adj: np.ndarray) -> list[tuple[int, ...]]:
    """Per matrix of the (B, n, n) 0/1 stack, its n rows as ints, bit w of
    row v set when entry (v, w) is; any n, since the ints are unbounded.

    Each row is packed into 64-bit words, and row v is the sum of its
    words shifted into place.
    """
    b, n, _ = adj.shape
    words = -(-n // 64)
    packed = np.zeros((b, n, 8 * words), dtype=np.uint8)
    packed[..., :(n + 7) // 8] = np.packbits(adj, axis=2, bitorder="little")
    word = packed.view("<u8").reshape(b * n, words)
    rows = word[:, 0].tolist()
    for j in range(1, words):
        rows = [row | high << 64 * j
                for row, high in zip(rows, word[:, j].tolist())]
    return [tuple(rows[at:at + n]) for at in range(0, b * n, n)]


def _conflict_packing(adj: np.ndarray, assignments: np.ndarray) -> list[int]:
    """Per graph of the (B, n, n) int8 stack, how many pair-disjoint
    conflict triples a greedy pass packs, one through each defect pair of
    its assignment (a row of the (B, n) ``assignments``), before the first
    defect pair it cannot cover.

    A defect pair is an edge inside a part or a missing pair across parts,
    and a conflict triple induces exactly one edge: through an edge uv the
    third vertex w is adjacent to neither end, through a missing pair to
    exactly one.  In a complete multipartite graph non-adjacency is an
    equivalence relation, so none has a conflict triple, and each packed
    triple needs an edit on a pair of its own.  The count is therefore a
    lower bound on the edit distance (the cluster-editing bound of Gramm,
    Guo, Hueffner and Niedermeier, Theory Comput. Syst. 2005, on the
    complement).
    """
    n = adj.shape[1]
    defect = adj == (assignments[:, :, None] == assignments[:, None, :])
    defect[:, np.arange(n), np.arange(n)] = False
    return [_pack_triples(rows, defects) for rows, defects
            in zip(_bitset_rows(adj), _bitset_rows(defect))]


def _pack_triples(rows: tuple[int, ...], defect: tuple[int, ...]) -> int:
    """``_conflict_packing`` of one graph, from its bitset rows and the
    bitset rows of its defect pairs.

    Defect pairs uv, u < v, are taken in order of u, then v, each with the
    lowest w whose pairs uw and vw are neither defect pairs nor in a packed
    triple: a triple never takes a defect pair as a side pair, so that
    each defect pair is left for a triple of its own.
    """
    everyone = (1 << len(rows)) - 1
    blocked = list(defect)  # bit w of blocked[u]: uw is a defect or taken
    packed = 0
    for u, row in enumerate(rows):
        later = defect[u] >> (u + 1) << (u + 1)
        while later:
            low = later & -later
            later ^= low
            v = low.bit_length() - 1
            # Both ends are in row | rows[v] when uv is an edge, and in
            # neither side of row ^ rows[v] when it is not.
            free = ((everyone ^ (row | rows[v]) if row & low
                     else row ^ rows[v]) & ~(blocked[u] | blocked[v]))
            if not free:
                return packed
            w = free & -free
            blocked[u] |= w
            blocked[v] |= w
            blocked[w.bit_length() - 1] |= 1 << u | low
            packed += 1
    return packed


def _local_edits(adj: np.ndarray, ks: list[int],
                 seeds: list[int]) -> list[int]:
    """Per graph of the (B, n, n) int8 stack, T(n, 3) less ``ks[i]`` edges,
    the edits of ``edit_distance_local(g, LOCAL_RESTARTS, seeds[i])``.

    The greedy starts descend first, in one lockstep call from the tables
    the greedy pass built.  A greedy cost c is optimal, and so the least
    over all starts, when c = 0 or when ``_conflict_packing`` packs c
    triples; none is tried when c > k, since the base tripartition costs k.
    Only the other graphs descend from their LOCAL_RESTARTS - 1 random
    starts, in one more lockstep call.
    """
    n = adj.shape[1]
    sign = _move_signs(adj)
    greedy, cost = _greedy_starts(sign)
    starts = greedy[:, None]
    costs = _descend(sign, starts, cost)[:, 0].tolist()
    tried = [i for i, (c, k) in enumerate(zip(costs, ks)) if 0 < c <= k]
    packed = dict(zip(tried, _conflict_packing(adj[tried], starts[tried, 0])))
    searched = [i for i, c in enumerate(costs) if c and packed.get(i) != c]
    if searched:
        randoms = np.stack([_random_starts(seeds[i], LOCAL_RESTARTS - 1, n)
                            for i in searched])
        sub = sign[searched]
        best = _descend(sub, randoms, _cost_table(sub, randoms)).min(axis=1)
        for i, c in zip(searched, best.tolist()):
            costs[i] = min(costs[i], c)
    return costs


def _lambda1(adj: np.ndarray) -> list[float]:
    """lambda1 of each graph of the (B, n, n) int8 stack, one float
    sub-stack at a time: the low end of its ``_perron_bracket``, or, for
    the graphs of the sub-stack whose bracket did not close, their value
    from one batched ``eigvalsh``."""
    lam1 = np.empty(len(adj))
    step = _chunk_size(adj.shape[1])
    for lo in range(0, len(adj), step):
        sub = adj[lo:lo + step].astype(np.float64)
        low = _perron_bracket(sub)[0]
        slow = np.isnan(low)
        if slow.any():
            low[slow] = np.linalg.eigvalsh(sub[slow])[:, -1]
        lam1[lo:lo + step] = low
    return lam1.tolist()


def _perron_bracket(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix A of the (B, n, n) float64 0/1 stack, an interval
    [low, high] that holds lambda1, at most _PERRON_TOL * max(1, low) wide;
    both are NaN for a matrix whose interval did not close within
    _PERRON_STEPS products.

    Power iteration on A + cI from the all-ones vector, c a quarter of the
    largest degree, or 1/4 without edges: the shift that centres the rest
    of the spectrum of T(n, 3), lambda2 = 0 and lambda_n = -Delta/2.
    A + cI is nonnegative with a positive diagonal, so every iterate x is
    positive, and RQ(x) <= lambda1 <= max_i (Ax)_i / x_i: the Rayleigh
    quotient and the Collatz-Wielandt bound.  The bracket is read after
    products 1, 3, 5, ..., since a reading takes more numpy calls than a
    product; ``low`` is the first RQ whose bracket closes.  A matrix drops
    out once its bracket closes, so its values do not depend on the other
    matrices of the stack.
    """
    b, n, _ = sub.shape
    low, high = np.full(b, np.nan), np.full(b, np.nan)
    shift = np.maximum(sub.sum(axis=2).max(axis=1), 1.0)[:, None] / 4
    live = np.arange(b)
    x = np.ones((b, n))
    for step in range(_PERRON_STEPS):
        y = np.matmul(sub, x[:, :, None])[:, :, 0]
        if step % 2:
            x = y + shift * x
            continue
        rq = (x * y).sum(axis=1) / (x * x).sum(axis=1)
        cw = (y / x).max(axis=1)
        closed = cw - rq <= _PERRON_TOL * np.maximum(1.0, rq)
        if closed.any():
            low[live[closed]], high[live[closed]] = rq[closed], cw[closed]
            live, sub, x, y, shift = (
                v[~closed] for v in (live, sub, x, y, shift))
            if not len(live):
                break
        x = y + shift * x
        x /= x.max(axis=1, keepdims=True)
    return low, high


def _stability_group(base: np.ndarray, pairs: np.ndarray,
                     cells: list[tuple[int, int]],
                     children: list[np.random.SeedSequence]) -> list[dict]:
    """The rows of a run of (k, sample) cells, one seed stream each.

    ``base`` is the int8 adjacency of T(n, 3) and ``pairs`` its edges.
    Each cell draws its deleted edges and then, above EXACT_MAX_N, the seed
    of its local-search starts.  Row i of the int8 stack is ``base`` with
    cell i's drawn pairs zeroed, and ``_lambda1`` solves every row.  Above
    EXACT_MAX_N the edits come from ``_local_edits``: one lockstep descent
    of the greedy starts, then one of the random starts of the rows whose
    greedy cost is not certified optimal.
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
    lam1 = _lambda1(adj)
    if seeds:
        edits, method = _local_edits(adj, ks, seeds), "local_search"
    else:
        edits = [edit_distance_exact(Graph._unchecked(n, rows)).edits
                 for rows in _bitset_rows(adj)]
        method = "exact"
    rows = []
    for (k, sample), lam, e in zip(cells, lam1, edits):
        m = len(pairs) - k
        rows.append(dict(zip(STABILITY_CSV_COLUMNS, (
            n, k, sample, m, lam * lam / m if m else 0.0, e, e / n ** 2,
            method,
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
    base = adjacency_matrix(turan_graph(n, 3)).astype(np.int8)
    pairs = np.argwhere(np.triu(base))  # the edges (u, v), u < v, in order
    for k in deletion_grid:
        if not 0 <= k <= len(pairs):
            raise ValueError(f"cannot delete {k} of {len(pairs)} edges")
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
