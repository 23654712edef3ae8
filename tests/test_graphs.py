"""Graph representation, parameters, the Zykov operation, and serialization."""

import gc
import itertools

import numpy as np
import pytest

import bngap.graphs
from bngap.graphs import (
    MAX_N,
    Graph,
    Graph6Error,
    PartSizes,
    clique_number,
    complete_multipartite,
    from_edge_list,
    has_triangle,
    independence_number,
    is_k4_free,
    nth_pair,
    pair_table,
    parse_edge_list_text,
    parse_graph6,
    to_graph6,
    triangle_count,
    turan_graph,
    zykov,
)
from bngap.search import random_graph

from corpus import CORPUS, cycle_graph, path_graph, petersen


def garbage_left_by(call):
    """The count of objects that ``gc.collect()`` frees after ``call()``
    runs with the cyclic collector disabled: the reference cycles it left."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def all_partitions(n, smallest_max=None):
    cap = smallest_max or n
    if n == 0:
        yield ()
        return
    for first in range(min(cap, n), 0, -1):
        for rest in all_partitions(n - first, first):
            yield (first,) + rest


class TestConstruction:
    def test_symmetry_and_diagonal_enforced(self):
        with pytest.raises(ValueError, match="^adjacency is not symmetric$"):
            Graph(2, (0b10, 0b00))  # missing mirror bit
        with pytest.raises(ValueError, match="^adjacency is not symmetric$"):
            Graph(2, [0b10, 0b00])
        with pytest.raises(ValueError, match="^self-loop at vertex 0$"):
            Graph(2, (0b01, 0b10))  # diagonal bits
        with pytest.raises(ValueError,
                           match="^row 0 has bits beyond vertex range$"):
            Graph(2, (0b100, 0b00))  # stray high bit

    @pytest.mark.parametrize("n, rows", [(3, (0, 0, 0)), (2, (2, 1)),
                                         (4, (0b1110, 0b0101, 0b0011, 0b0001))])
    def test_list_and_generator_rows_build_the_tuple_graph(self, n, rows):
        g = Graph(n, rows)
        assert Graph(n, list(rows)) == g
        assert Graph(n, (row for row in rows)) == g
        assert type(Graph(n, list(rows)).adj) is tuple

    def test_numpy_rows_past_64_bits_equal_python_rows(self):
        # Edges among vertices 0..62 only, so each row fits an int64, but
        # the edge code of n = 70 does not.
        rows = random_graph(63, 0.5, np.random.default_rng(3)).adj + (0,) * 7
        g = Graph(70, rows)
        assert g.m > 0
        for np_rows in (np.array(rows, dtype=np.int64),
                        [np.int64(row) for row in rows]):
            h = Graph(70, np_rows)
            assert h == g and h.edge_bitset() == g.edge_bitset()
            assert all(type(row) is int for row in h.adj)

    def test_float_row_raises(self):
        with pytest.raises(TypeError):
            Graph(2, [2.0, 1])
        with pytest.raises(TypeError):
            Graph(2, np.array([2, 1], dtype=float))

    @pytest.mark.parametrize("n", [np.int64(3), np.int64(70)])
    def test_numpy_vertex_count_is_a_python_int(self, n):
        g = Graph(n, (0,) * int(n))
        assert type(g.n) is int and g.n == n
        assert g.complement().m == n * (n - 1) // 2

    def test_float_vertex_count_raises(self):
        with pytest.raises(TypeError):
            Graph(3.0, (0, 0, 0))

    def test_corpus_invariants(self):
        for name, g in CORPUS:
            total = 0
            for u in range(g.n):
                assert not g.adj[u] >> u & 1, name
                for v in range(g.n):
                    if g.adj[u] >> v & 1:
                        assert g.has_edge(v, u), name
                total += g.degree(u)
            assert total == 2 * g.m, name

    def test_from_edge_list(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        assert g.m == 3 and clique_number(g) == 3
        assert from_edge_list(2, []).m == 0
        # duplicates are idempotent
        assert from_edge_list(3, [(0, 1), (1, 0), (0, 1)]).m == 1
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(ValueError):
            from_edge_list(3, [(1, 1)])


class TestFamilies:
    def test_complete_multipartite_examples(self):
        g = complete_multipartite(PartSizes((2, 2, 2)))
        assert g.n == 6 and g.m == 12
        assert complete_multipartite(PartSizes((1, 1, 1))).m == 3
        assert complete_multipartite(PartSizes((2, 3))).m == 6

    def test_multipartite_m_and_omega_all_partitions_n12(self):
        for n in range(2, 13):
            for parts in all_partitions(n):
                if len(parts) < 2:
                    continue
                ps = PartSizes(parts)
                g = complete_multipartite(ps)
                expected_m = sum(
                    a * b for a, b in itertools.combinations(ps.sizes, 2)
                )
                assert g.m == expected_m
                assert clique_number(g) == ps.r

    def test_turan(self):
        assert turan_graph(6, 3) == complete_multipartite(PartSizes((2, 2, 2)))
        assert turan_graph(7, 3) == complete_multipartite(PartSizes((3, 2, 2)))
        assert turan_graph(5, 5) == complete_multipartite(PartSizes((1,) * 5))
        with pytest.raises(ValueError):
            turan_graph(3, 4)
        with pytest.raises(ValueError):
            turan_graph(3, 0)

    def test_part_sizes_canonical(self):
        ps = PartSizes((1, 3, 2))
        assert ps.sizes == (3, 2, 1)
        with pytest.raises(ValueError):
            PartSizes((3,))
        with pytest.raises(ValueError):
            PartSizes((0, 2))


class TestParameters:
    def test_clique_examples(self):
        assert clique_number(complete_multipartite(PartSizes((2, 2, 2)))) == 3
        assert clique_number(cycle_graph(5)) == 2
        assert clique_number(complete_multipartite(PartSizes((1,) * 5))) == 5
        # A search as deep as the clique number, above the default
        # recursion limit of 1000.
        assert clique_number(turan_graph(1100, 1100)) == 1100

    def test_clique_closes_without_colouring(self, monkeypatch):
        colourings = []

        def counting_color_sort(adj, cand):
            colourings.append(cand)
            return color_sort(adj, cand)

        color_sort = bngap.graphs._color_sort
        monkeypatch.setattr(bngap.graphs, "_color_sort", counting_color_sort)
        assert clique_number(turan_graph(2048, 2048)) == 2048
        assert len(colourings) <= 3

    def test_clique_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(np.random.PCG64(43))
        for _ in range(300):
            n = int(rng.integers(1, 40))
            g = random_graph(n, float(rng.random()), rng)
            h = nx.empty_graph(n)
            h.add_edges_from(g.edges())
            assert clique_number(g) == max(map(len, nx.find_cliques(h)))

    def test_clique_number_leaves_no_reference_cycle(self):
        g = complete_multipartite(PartSizes((3, 2, 2, 1)))
        assert garbage_left_by(lambda: clique_number(g)) == 0

    def test_independence_examples(self):
        assert independence_number(complete_multipartite(PartSizes((2, 2, 2)))) == 2
        assert independence_number(cycle_graph(5)) == 2
        assert independence_number(Graph(4, (0, 0, 0, 0))) == 4
        assert independence_number(Graph(1100, (0,) * 1100)) == 1100

    def test_clique_against_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            n = int(rng.integers(1, 11))
            g = random_graph(n, float(rng.random()), rng)
            best = 1
            for k in range(2, n + 1):
                if any(
                    all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2))
                    for sub in itertools.combinations(range(n), k)
                ):
                    best = k
            assert clique_number(g) == best

    def test_k4_free_examples(self):
        assert is_k4_free(complete_multipartite(PartSizes((3, 3, 3))))
        assert not is_k4_free(complete_multipartite(PartSizes((1, 1, 1, 1))))

    def test_k4_free_petersen_brute_force(self):
        pet = petersen()
        has_k4 = any(
            all(pet.has_edge(a, b) for a, b in itertools.combinations(sub, 2))
            for sub in itertools.combinations(range(10), 4)
        )
        assert not has_k4
        assert is_k4_free(pet)
        assert clique_number(pet) == 2

    def test_k4_free_matches_clique_1000_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 21))
            g = random_graph(n, float(rng.random()), rng)
            assert is_k4_free(g) == (clique_number(g) <= 3)

    def test_triangles(self):
        assert triangle_count(complete_multipartite(PartSizes((1, 1, 1)))) == 1
        assert triangle_count(cycle_graph(5)) == 0
        # brute force over 3-subsets
        g = complete_multipartite(PartSizes((2, 2, 2)))
        brute = sum(
            1 for sub in itertools.combinations(range(6), 3)
            if all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2))
        )
        assert brute == 8
        assert triangle_count(g) == 8

    def test_has_triangle_matches_count(self):
        k33 = complete_multipartite(PartSizes((3, 3)))
        assert has_triangle(complete_multipartite(PartSizes((1, 1, 1))))
        assert not has_triangle(cycle_graph(5))
        assert not has_triangle(k33)
        assert has_triangle(k33.with_edge(0, 1))
        rng = np.random.default_rng(11)
        cases = [random_graph(int(rng.integers(1, 25)), float(rng.random()), rng)
                 for _ in range(500)]
        # T(30,3) thinned until triangles become rare, then gone.
        t30 = turan_graph(30, 3)
        for keep in (1.0, 0.5, 0.2, 0.1, 0.05, 0.0):
            g = t30
            for u, v in t30.edges():
                if rng.random() >= keep:
                    g = g.without_edge(u, v)
            cases.append(g)
        # A path whose only triangle closes on the last three vertices.
        for n in range(3, 13):
            path = [(i, i + 1) for i in range(n - 1)]
            cases.append(from_edge_list(n, path + [(n - 3, n - 1)]))
        for g in cases:
            assert has_triangle(g) == (triangle_count(g) > 0)
        assert {has_triangle(g) for g in cases} == {True, False}


class TestNthEdge:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_matches_edges_list(self, n):
        rng = np.random.default_rng(n)
        for density in (0.0, float(rng.random()), 1.0):
            g = random_graph(n, density, rng)
            # The complement's order is the order non-edges are drawn in.
            for h in (g, g.complement()):
                edges = h.edges()
                assert [h.nth_edge(k) for k in range(len(edges))] == edges
                for k in (len(edges), -1):
                    with pytest.raises(IndexError):
                        h.nth_edge(k)

    @pytest.mark.parametrize("n", [2, 7, 30, 70])
    def test_nth_non_edge_is_the_complements_nth_edge(self, n):
        rng = np.random.default_rng(n)
        for density in (0.0, float(rng.random()), 1.0):
            g = random_graph(n, density, rng)
            h = g.complement()
            assert [g.nth_non_edge(k) for k in range(h.m)] == \
                [h.nth_edge(k) for k in range(h.m)]
            for k in (-1, h.m):
                with pytest.raises(IndexError):
                    g.nth_non_edge(k)

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 70])
    def test_pair_table_reads_both_edge_lists(self, n):
        rng = np.random.default_rng(100 + n)
        for density in (0.0, float(rng.random()), 1.0):
            g = random_graph(n, density, rng)
            table = pair_table(g)
            for edge, pairs in ((True, g.edges()),
                                (False, g.complement().edges())):
                assert [nth_pair(table, k, edge)
                        for k in range(len(pairs))] == pairs
                for k in (-1, len(pairs)):
                    with pytest.raises(IndexError):
                        nth_pair(table, k, edge)


class TestZykov:
    def test_identity_when_neighbourhoods_match(self):
        p3 = path_graph(3)
        assert zykov(p3, 0, 2) == p3
        k22 = complete_multipartite(PartSizes((2, 2)))
        assert zykov(k22, 0, 1) == k22

    def test_p4_to_star(self):
        z = zykov(path_graph(4), 0, 3)
        assert sorted(z.edges()) == [(0, 2), (1, 2), (2, 3)]

    def test_preconditions(self):
        p4 = path_graph(4)
        with pytest.raises(ValueError):
            zykov(p4, 0, 0)
        with pytest.raises(ValueError):
            zykov(p4, 0, 1)

    def test_result_neighbourhoods(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(3, 15))
            g = random_graph(n, float(rng.random()), rng)
            pairs = [(u, v) for u in range(n) for v in range(n)
                     if u != v and not g.has_edge(u, v)]
            if not pairs:
                continue
            u, v = pairs[int(rng.integers(len(pairs)))]
            z = zykov(g, u, v)
            assert z.adj[u] == z.adj[v] == g.adj[v]
            for w in range(n):
                if w in (u, v):
                    continue
                assert z.adj[w] & ~(1 << u) == g.adj[w] & ~(1 << u)

    def test_omega_never_increases_1000_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(3, 16))
            g = random_graph(n, float(rng.random()), rng)
            pairs = [(u, v) for u in range(n) for v in range(n)
                     if u != v and not g.has_edge(u, v)]
            if not pairs:
                continue
            u, v = pairs[int(rng.integers(len(pairs)))]
            z = zykov(g, u, v)
            assert clique_number(z) <= clique_number(g)
            if is_k4_free(g):
                assert is_k4_free(z)


class TestGraph6:
    def test_spec_fixtures(self):
        g = parse_graph6("D?{")
        assert to_graph6(g) == "D?{"
        assert to_graph6(Graph(5, (0,) * 5)) == "D??"
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_malformed(self):
        for bad in ["D?", "D?{x", ">>graph6<<D??", "D" + chr(30), chr(127)]:
            with pytest.raises(Graph6Error):
                parse_graph6(bad)

    @pytest.mark.parametrize("line, message", [
        ("A`", "nonzero padding bits"),
        ("Ao", "nonzero padding bits"),  # the bit right after the last pair
        ("?", "vertex count must be at least 1"),
        ("~~??????", "8-byte vertex counts exceed the supported range"),
        ("~?", "truncated vertex-count header"),
        ("D?", "truncated body: need 2 bytes, got 1"),
        ("D?{x", "trailing bytes after adjacency body"),
        ("D" + chr(30), "record: byte 30 outside graph6 range 63..126"),
        (">>graph6<<A_", "header directives are not supported"),
    ])
    def test_malformed_messages(self, line, message):
        with pytest.raises(Graph6Error) as err:
            parse_graph6(line)
        assert str(err.value) == message

    def test_round_trip_corpus(self):
        for name, g in CORPUS:
            assert parse_graph6(to_graph6(g)) == g, name

    def test_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(12)
        for _ in range(150):
            n = int(rng.integers(1, 70))
            nxg = nx.gnp_random_graph(n, float(rng.random()),
                                      seed=int(rng.integers(2 ** 31)))
            line = nx.to_graph6_bytes(nxg, header=False).decode().strip()
            g = parse_graph6(line)
            assert g.n == n and g.m == nxg.number_of_edges()
            assert to_graph6(g) == line

    def test_long_form_header(self):
        g = Graph(63, (0,) * 63).with_edge(0, 62)
        line = to_graph6(g)
        assert line.startswith(chr(126))
        assert parse_graph6(line) == g


def format_edge_list_text(g: Graph) -> str:
    """The plain edge-list text ``parse_edge_list_text`` reads."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


class TestEdgeListText:
    def test_round_trip(self):
        g = complete_multipartite(PartSizes((2, 2, 2)))
        assert parse_edge_list_text(format_edge_list_text(g)) == g

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_edge_list_text("")
        with pytest.raises(ValueError):
            parse_edge_list_text("3 2\n0 1\n")  # missing edge line
        with pytest.raises(ValueError):
            parse_edge_list_text("3 1\n0 9\n")

    # Each error about one line names it by its number in the text, blank
    # lines counted, as graph6 records are numbered.
    @pytest.mark.parametrize("text, message", [
        ("3 1\n\n\n0 1 2\n", "line 4: expected 'u v', got '0 1 2'"),
        ("3 x\n", "line 1: invalid literal for int() with base 10: 'x'"),
        ("\n3 1\n\n0 x\n", "line 4: invalid literal for int() with base 10: 'x'"),
        ("3 1\n\n0 -1\n", "line 3: edge (0, -1) out of range for n=3"),
        ("3 2\n0 1\n\n2 2\n", "line 4: self-loop at vertex 2"),
        ("\n3\n", "line 2: expected 'n m', got '3'"),
        ("\n\n0 0\n", f"line 3: vertex count 0 outside 1..{MAX_N}"),
        ("3 2\n\n0 1\n", "declared 2 edges but found 1 edge lines"),
    ])
    def test_errors_name_the_line(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_edge_list_text(text)
        assert str(exc.value) == message

    def test_blank_lines_are_skipped(self):
        g = parse_edge_list_text("\n3 2\n\n0 1\n  \n1 2\n\n")
        assert g == from_edge_list(3, [(0, 1), (1, 2)])
