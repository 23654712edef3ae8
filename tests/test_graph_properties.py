"""Every graph an internal operation or a parser builds passes the full
validator.

Derived and parsed graphs skip ``Graph.__post_init__``: their rows come from
a valid graph, are symmetric by construction or are built by a parser from
checked input.  These properties stand in for that per-call check:
rebuilding each output through ``Graph(n, adj)`` must succeed and give the
same graph.  Vertex arguments outside 0..n-1 must still raise
instead of producing a graph.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bngap.graphs import (
    Graph,
    PartSizes,
    complete_multipartite,
    from_edge_list,
    parse_graph6,
    to_graph6,
    turan_graph,
    zykov,
)
from bngap.search import random_graph, random_k4_free

from corpus import greedy_k4_free
from test_exhaustive_engine import labeled_graphs

MAX_TEST_N = 40

# An example takes a few milliseconds, but a stall on a loaded machine can
# pass hypothesis's default 200 ms deadline and fail a correct run.
no_deadline = settings(deadline=None)


def assert_valid(g: Graph) -> None:
    assert type(g) is Graph
    assert Graph(g.n, g.adj) == g


@st.composite
def graphs(draw, min_n: int = 1) -> Graph:
    n = draw(st.integers(min_n, MAX_TEST_N))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    code = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edge_list(n, [p for k, p in enumerate(pairs) if code >> k & 1])


@st.composite
def graph_and_pair(draw, min_n: int = 2):
    """A graph and two distinct vertices of it."""
    g = draw(graphs(min_n))
    u = draw(st.integers(0, g.n - 1))
    v = draw(st.integers(0, g.n - 2))
    return g, u, v if v < u else v + 1


def out_of_range(n: int):
    return st.integers(-64, -1) | st.integers(n, n + 64)


class TestDerivedGraphsAreValid:
    @no_deadline
    @given(graphs())
    def test_complement(self, g):
        assert_valid(g.complement())

    @no_deadline
    @given(graph_and_pair())
    def test_with_edge(self, case):
        g, u, v = case
        h = g.with_edge(u, v)
        assert_valid(h)
        assert h.has_edge(u, v) and h.has_edge(v, u)

    @no_deadline
    @given(graph_and_pair())
    def test_without_edge(self, case):
        g, u, v = case
        h = g.without_edge(u, v)
        assert_valid(h)
        assert not h.has_edge(u, v) and not h.has_edge(v, u)

    @no_deadline
    @given(graphs(min_n=2), st.data())
    def test_zykov(self, g, data):
        non_edges = [(u, v) for u in range(g.n) for v in range(g.n)
                     if u != v and not g.has_edge(u, v)]
        if not non_edges:
            return  # complete graph: no pair to replace
        u, v = data.draw(st.sampled_from(non_edges))
        h = zykov(g, u, v)
        assert_valid(h)
        assert h.adj[u] == g.adj[v]

    @no_deadline
    @given(st.lists(st.integers(1, 12), min_size=2, max_size=6)
           .filter(lambda sizes: sum(sizes) <= MAX_TEST_N))
    def test_complete_multipartite(self, sizes):
        g = complete_multipartite(PartSizes(tuple(sizes)))
        assert_valid(g)
        assert g.m == (g.n ** 2 - sum(s * s for s in sizes)) // 2

    @no_deadline
    @given(st.integers(1, MAX_TEST_N), st.data())
    def test_turan_graph(self, n, data):
        r = data.draw(st.integers(1, n))
        assert_valid(turan_graph(n, r))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_labeled_graphs(self, n):
        count = 0
        for _, g in labeled_graphs(n):
            assert_valid(g)
            count += 1
        assert count == 2 ** (n * (n - 1) // 2)

    @no_deadline
    @given(st.integers(1, MAX_TEST_N), st.data())
    def test_from_edge_bitset(self, n, data):
        code = data.draw(st.integers(0, (1 << n * (n - 1) // 2) - 1))
        g = Graph.from_edge_bitset(n, code)
        assert_valid(g)
        assert g.edge_bitset() == code

    @no_deadline
    @given(st.integers(1, MAX_TEST_N), st.data())
    def test_from_edge_list(self, n, data):
        # Pairs may repeat and come in either order.
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs = [p for p in data.draw(st.lists(pair, max_size=3 * n))
                 if p[0] != p[1]]
        g = from_edge_list(n, pairs)
        assert_valid(g)
        assert set(g.edges()) == {(min(p), max(p)) for p in pairs}

    @no_deadline
    @given(graphs())
    def test_parse_graph6(self, g):
        h = parse_graph6(to_graph6(g))
        assert_valid(h)
        assert h == g

    def test_edge_bitset_round_trip(self):
        rng = np.random.default_rng(9)
        for n in range(1, MAX_TEST_N + 1):
            for density in (0.0, float(rng.random()), 1.0):
                g = random_graph(n, density, rng)
                assert Graph.from_edge_bitset(n, g.edge_bitset()) == g

    @no_deadline
    @given(st.integers(1, MAX_TEST_N), st.floats(0.0, 1.0),
           st.integers(0, 2 ** 63 - 1))
    def test_random_graph(self, n, density, seed):
        assert_valid(random_graph(n, density, np.random.default_rng(seed)))

    @no_deadline
    @given(st.integers(1, MAX_TEST_N), st.floats(0.0, 1.0),
           st.integers(0, 2 ** 63 - 1))
    def test_random_k4_free(self, n, density, seed):
        assert_valid(random_k4_free(n, density, np.random.default_rng(seed)))
        assert_valid(greedy_k4_free(n, density, seed))


def reference_random_graph(n, density, rng):
    """``random_graph`` as a per-pair loop: one draw per pair, in order."""
    rows = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < density:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return tuple(rows)


def reference_random_k4_free(n, density, rng):
    """``random_k4_free`` as a per-pair loop: the labels, then one draw per
    cross pair, in order."""
    target_m = int(round(density * (n * (n - 1) // 2)))
    labels = rng.integers(0, 3, size=n)
    rows = [0] * n
    cross = [(u, v) for u, v in combinations(range(n), 2)
             if labels[u] != labels[v]]
    keep_p = min(1.0, target_m / len(cross)) if cross else 0.0
    for u, v in cross:
        if rng.random() < keep_p:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return tuple(rows)


class TestGeneratorDrawOrder:
    """The generators consume the caller's stream as a per-pair loop does,
    so every seeded search start stays the same graph."""

    @pytest.mark.parametrize("generate, reference", [
        (random_graph, reference_random_graph),
        (random_k4_free, reference_random_k4_free),
    ])
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    def test_rows_match_the_per_pair_reference(self, generate, reference, n,
                                               density):
        for seed in range(50):
            ours = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            assert generate(n, density, ours).adj == reference(n, density,
                                                               theirs)
            assert ours.random() == theirs.random()


class TestVertexArgumentsAreChecked:
    @no_deadline
    @given(graphs(), st.data())
    def test_with_edge_and_without_edge(self, g, data):
        bad = data.draw(out_of_range(g.n))
        good = data.draw(st.integers(0, g.n - 1))
        for op in (g.with_edge, g.without_edge):
            for u, v in ((bad, good), (good, bad), (bad, bad)):
                with pytest.raises((ValueError, IndexError)):
                    op(u, v)

    @no_deadline
    @given(graphs(), st.data())
    def test_zykov(self, g, data):
        bad = data.draw(out_of_range(g.n))
        good = data.draw(st.integers(0, g.n - 1))
        for u, v in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises((ValueError, IndexError)):
                zykov(g, u, v)
