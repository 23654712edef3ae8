"""Pinned counterexamples the toolkit surfaced while testing the bounds.

These are findings about the mathematics under test, kept as regression
tests so the toolkit keeps reporting them honestly instead of hiding them.

1.  The ratio bound alpha <= -n lambda_n / (lambda1 - lambda_n) is a theorem
    for regular graphs, where lambda1 equals the common degree.  With
    lambda1 substituted for the degree it fails on irregular graphs as
    small as the 3-vertex path.

2.  The claim "every K4-free graph with alpha >= n/3 has
    |lambda_n| >= lambda1 / 2" rests on that bound and fails too: the
    5-wheel (a hub joined to a 5-cycle) has ratio (1+sqrt 5)/2 / (1+sqrt 6)
    ~= 0.4691.  An exhaustive scan of all labeled 6-vertex graphs confirms
    the wheel is the worst case at this order.

3.  Equality in the gap inequality, lambda1^2 + lambda2^2 = 2 (1 - 1/omega) m,
    holds on every atlas graph (n <= 7) with an edge that is not complete
    exactly when, isolated vertices removed, it is (a) a balanced complete
    multipartite graph, (b) two disjoint copies of one, or (c) a bipartite
    graph whose adjacency has rank at most 4.  On (c) the spectrum is
    +-lambda1, +-lambda2 and zeros, so lambda1^2 + lambda2^2 = m, the bound
    at omega = 2.  The paper settles equality only inside the complete
    multipartite family; (b) and (c) are observations of this toolkit.

    Beyond the atlas the list misses a shape: (b') K_{r x a} + K_{r x b},
    two balanced complete r-partite graphs with the same r >= 2 and part
    sizes a != b.  There lambda1 = (r-1) max(a, b), lambda2 = (r-1) min(a, b),
    m = C(r, 2)(a^2 + b^2) and omega = r, so
    lambda1^2 + lambda2^2 = (r-1)^2 (a^2 + b^2) = 2 (1 - 1/r) m.  For r = 2
    these graphs lie in (c); the smallest with r >= 3 is K_{2,2,2} + K_3,
    on 9 vertices.
"""

import itertools
import math

import pytest

from bngap.conjecture import (
    bn_report,
    hoffman_bound,
    hoffman_ratio_check,
    obstruction_report,
)
from bngap.graphs import (
    Graph,
    PartSizes,
    clique_number,
    complete_multipartite,
    from_edge_list,
    independence_number,
    is_k4_free,
    parse_graph6,
)
from bngap.spectra import eigenvalues

from corpus import cycle_graph, path_graph, star_graph
from test_exhaustive_engine import labeled_graphs

WHEEL5_GRAPH6 = "Etv_"  # hub + 5-cycle, canonical labelling


def test_ratio_bound_fails_on_small_irregular_graphs():
    assert hoffman_bound(path_graph(3)) < independence_number(path_graph(3))
    assert hoffman_bound(star_graph(5)) < independence_number(star_graph(5))


def test_wheel5_refutes_the_half_ratio_claim():
    w5 = parse_graph6(WHEEL5_GRAPH6)
    assert w5.n == 6 and w5.m == 10
    assert clique_number(w5) == 3 and is_k4_free(w5)
    assert 3 * independence_number(w5) >= w5.n
    vals = eigenvalues(w5)
    assert vals[-1] == pytest.approx(1 + math.sqrt(6), abs=1e-9)
    assert vals[0] == pytest.approx(-(1 + math.sqrt(5)) / 2, abs=1e-9)
    ratio = abs(vals[0]) / vals[-1]
    assert ratio == pytest.approx(0.4690647340, abs=1e-9)
    assert ratio < 0.5 - 1e-9

    # the checker reports the violation rather than masking it
    check = hoffman_ratio_check(w5)
    assert check.applicable and check.passes is False

    # the energy-bound inequality chain still holds at this instance
    o = obstruction_report(w5)
    assert o.applicable and o.lhs_within_bound


def test_wheel5_is_worst_at_order_six():
    worst = 1.0
    worst_graph = None
    for _, g in labeled_graphs(6):
        if g.m < 1 or not is_k4_free(g):
            continue
        if 3 * independence_number(g) < g.n:
            continue
        vals = eigenvalues(g)
        ratio = abs(vals[0]) / vals[-1]
        if ratio < worst:
            worst, worst_graph = ratio, g
    assert worst == pytest.approx(0.4690647340, abs=1e-9)
    # worst case is isomorphic to the pinned wheel: same spectrum
    w5 = parse_graph6(WHEEL5_GRAPH6)
    assert eigenvalues(worst_graph) == pytest.approx(eigenvalues(w5), abs=1e-9)


def _bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _components(g, vertices):
    """Vertex masks of the connected components of g on ``vertices``."""
    comps, left = [], vertices
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= g.adj[v]
            frontier = reach & ~comp
            comp |= frontier
        comps.append(comp)
        left &= ~comp
    return comps


def _balanced_parts(g, vertices):
    """(part count, part size) if g on ``vertices`` is a balanced complete
    multipartite graph: non-adjacency is an equivalence relation there,
    all of whose classes have one size.  None otherwise."""
    parts = {vertices & ~g.adj[v] for v in _bits(vertices)}
    if any(vertices & ~g.adj[v] != part for part in parts for v in _bits(part)):
        return None
    sizes = {part.bit_count() for part in parts}
    return (len(parts), sizes.pop()) if len(sizes) == 1 else None


def _is_bipartite(g, vertices):
    side = {}
    for comp in _components(g, vertices):
        first = _bits(comp)[0]
        side[first], stack = 0, [first]
        while stack:
            v = stack.pop()
            for w in _bits(g.adj[v]):
                if w not in side:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def integer_rank(matrix):
    """Rank of an integer matrix by fraction-free (Bareiss) elimination:
    every division is exact, so no float enters."""
    a = [list(row) for row in matrix]
    rank, prev = 0, 1
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank][col]
        for i in range(rank + 1, len(a)):
            a[i] = [(p * x - a[i][col] * y) // prev
                    for x, y in zip(a[i], a[rank])]
        prev, rank = p, rank + 1
    return rank


def equality_shape(g):
    """'a', 'b' or 'c' (in that order of precedence) for the equality shapes
    of finding 3, None for a graph of none of them."""
    live = sum(1 << v for v in range(g.n) if g.adj[v])
    if _balanced_parts(g, live):
        return "a"
    comps = _components(g, live)
    if len(comps) == 2:
        shapes = [_balanced_parts(g, comp) for comp in comps]
        if shapes[0] and shapes[0] == shapes[1]:
            return "b"
    if _is_bipartite(g, live):
        matrix = [[row >> v & 1 for v in range(g.n)] for row in g.adj]
        if integer_rank(matrix) <= 4:
            return "c"
    return None


def test_integer_rank_on_known_matrices():
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[2, 4], [1, 2]]) == 1
    assert integer_rank([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == 3
    # C6 has eigenvalues 2, 1, 1, -1, -1, -2: rank 6; P4 has rank 4, K_{2,3} 2.
    c6 = [[1 if abs(i - j) in (1, 5) else 0 for j in range(6)] for i in range(6)]
    assert integer_rank(c6) == 6
    p4 = [[1 if abs(i - j) == 1 else 0 for j in range(4)] for i in range(4)]
    assert integer_rank(p4) == 4
    k23 = [[1 if (i < 2) != (j < 2) else 0 for j in range(5)] for i in range(5)]
    assert integer_rank(k23) == 2


def test_equality_shapes_match_the_equality_flag_on_the_atlas():
    nx = pytest.importorskip("networkx")
    shapes = {"a": 0, "b": 0, "c": 0}
    checked = 0
    for h in nx.graph_atlas_g()[1:]:  # index 0 is the order-0 graph
        g = from_edge_list(h.number_of_nodes(), h.edges())
        if g.m < 1 or g.is_complete():
            continue
        checked += 1
        shape = equality_shape(g)
        assert (shape is not None) == bn_report(g).equality, nx.to_graph6_bytes(h)
        if shape:
            shapes[shape] += 1
    assert checked == 1239  # 1,252 graphs less 7 edgeless ones and K2..K7
    assert shapes == {"a": 23, "b": 6, "c": 85}
    # The smallest instances of each shape.
    assert equality_shape(from_edge_list(5, [(0, 1), (0, 2), (1, 2), (0, 3),
                                             (1, 3), (2, 3)])) == "a"  # K4 + K1
    assert equality_shape(from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4),
                                             (4, 5), (3, 5)])) == "b"  # 2K3
    assert equality_shape(path_graph(4)) == "c"
    assert equality_shape(cycle_graph(5)) is None
    assert equality_shape(Graph(3, (2, 1, 0))) == "a"  # K2 + K1


def _union(g, h):
    """The disjoint union of g and h, g on the low vertices."""
    return Graph(g.n + h.n, g.adj + tuple(row << g.n for row in h.adj))


def _balanced(r, a):
    """K_{r x a}, the complete r-partite graph with parts of size a."""
    return complete_multipartite(PartSizes((a,) * r))


def test_two_balanced_components_with_one_r_meet_the_bound():
    # (b') beyond the atlas: K_{2,2,2} + K_3 and K_{3,3,3,3} + K_4 meet the
    # bound to rounding; K_{2,2,2} + K_4, with different r, misses it by 2.
    for r, a, b in ((3, 2, 1), (4, 3, 1)):
        report = bn_report(_union(_balanced(r, a), _balanced(r, b)))
        assert report.equality and abs(report.gap) <= 1e-13, (r, a, b)
    control = bn_report(_union(_balanced(3, 2), _balanced(4, 1)))
    assert control.gap == pytest.approx(2.0, abs=1e-12)
    assert not control.equality
    # The closed form, and equality, for 2 <= r <= 6 and 1 <= a != b <= 6.
    for r in range(2, 7):
        for a, b in itertools.permutations(range(1, 7), 2):
            report = bn_report(_union(_balanced(r, a), _balanced(r, b)))
            big, small = (r - 1) * max(a, b), (r - 1) * min(a, b)
            assert report.lambda1 == pytest.approx(big, rel=1e-12)
            assert report.lambda2 == pytest.approx(small, rel=1e-12)
            assert report.m == math.comb(r, 2) * (a * a + b * b)
            assert report.omega == r
            assert r * (big ** 2 + small ** 2) == 2 * (r - 1) * report.m
            assert report.equality, (r, a, b)
