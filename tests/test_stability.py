"""Edit distance to complete tripartite graphs and the deletion experiment."""

import itertools
import math

import numpy as np
import pytest

import bngap.search
import bngap.stability
from bngap.graphs import (
    Graph,
    PartSizes,
    complete_multipartite,
    turan_graph,
)
from bngap.search import random_graph
from bngap.spectra import adjacency_matrix, eigenvalues
from bngap.stability import (
    EXACT_MAX_N,
    LOCAL_RESTARTS,
    STABILITY_CSV_COLUMNS,
    _cost_table,
    _descend,
    _greedy_starts,
    _move_signs,
    _step,
    dense_case_check,
    edit_distance_exact,
    edit_distance_local,
    stability_experiment,
)

from corpus import cycle_graph
from test_graphs import garbage_left_by
from test_spectra import weyl_check


def brute_force_edit_distance(g):
    best = None
    for assign in itertools.product(range(3), repeat=g.n):
        cost = 0
        for u in range(g.n):
            for v in range(u + 1, g.n):
                same = assign[u] == assign[v]
                edge = g.has_edge(u, v)
                cost += int(same and edge) + int(not same and not edge)
        if best is None or cost < best:
            best = cost
    return best


def reference_assignment_cost(g, assignment):
    """Edit cost of an assignment from bitset popcounts, vertex by vertex."""
    masks = [0, 0, 0]
    for v, part in enumerate(assignment):
        masks[part] |= 1 << v
    cost = 0
    assigned = 0
    for v, part in enumerate(assignment):
        inside = g.adj[v] & masks[part] & assigned
        other = assigned & ~masks[part]
        cost += inside.bit_count()
        cost += other.bit_count() - (g.adj[v] & other).bit_count()
        assigned |= 1 << v
    return cost


def reference_greedy_assignment(g):
    """The reference for ``_greedy_starts``: vertices in index order, each
    to the first part of least added cost, from bitset popcounts."""
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
    return assignment


def reference_local_descent(g, assignment):
    """The reference for ``_descend``: the same first-improvement order
    (lowest v, first part, rescan from v = 0), with every check recomputing
    the cost of v in a part from whole-row bitset popcounts.
    """
    masks = [0, 0, 0]
    for v, part in enumerate(assignment):
        masks[part] |= 1 << v
    all_mask = (1 << g.n) - 1

    def vertex_cost(v, part):
        row = g.adj[v]
        own = masks[part] & ~(1 << v)
        other = all_mask & ~masks[part] & ~(1 << v)
        return (row & own).bit_count() \
            + other.bit_count() - (row & other).bit_count()

    improved = True
    while improved:
        improved = False
        for v in range(g.n):
            cur = assignment[v]
            base = vertex_cost(v, cur)
            for part in range(3):
                if part == cur:
                    continue
                if vertex_cost(v, part) < base:
                    masks[cur] &= ~(1 << v)
                    masks[part] |= 1 << v
                    assignment[v] = part
                    improved = True
                    break
            if improved:
                break
    return reference_assignment_cost(g, tuple(assignment))


def int8_stack(graphs):
    """The (B, n, n) int8 adjacency stack the descent runs on."""
    return np.stack([adjacency_matrix(g) for g in graphs]).astype(np.int8)


class RecordedAssignment(list):
    """An assignment list that logs every write, so the reference's moves
    can be replayed."""

    def __init__(self, start):
        super().__init__(start)
        self.writes = []

    def __setitem__(self, v, part):
        self.writes.append((v, part))
        super().__setitem__(v, part)


class TestExact:
    def test_fixtures(self):
        assert edit_distance_exact(cycle_graph(5)).edits == 3
        k4 = complete_multipartite(PartSizes((1, 1, 1, 1)))
        assert edit_distance_exact(k4).edits == 1

    def test_tripartite_members_have_distance_zero(self):
        members = [
            turan_graph(6, 3), turan_graph(12, 3),
            complete_multipartite(PartSizes((3, 3))),      # empty third part
            complete_multipartite(PartSizes((4, 3, 2))),
            Graph(5, (0,) * 5),                            # all parts empty-ish
        ]
        for g in members:
            assert edit_distance_exact(g).edits == 0

    def test_against_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            g = random_graph(n, float(rng.random()), rng)
            assert edit_distance_exact(g).edits == brute_force_edit_distance(g)

    def test_assignment_is_witness(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            g = random_graph(n, float(rng.random()), rng)
            res = edit_distance_exact(g)
            cost = 0
            for u in range(n):
                for v in range(u + 1, n):
                    same = res.assignment[u] == res.assignment[v]
                    edge = g.has_edge(u, v)
                    cost += int(same and edge) + int(not same and not edge)
            assert cost == res.edits
            assert res.normalized == pytest.approx(res.edits / n ** 2)

    def test_deterministic_tie_break(self):
        g = cycle_graph(6)
        a = edit_distance_exact(g)
        b = edit_distance_exact(g)
        assert a.assignment == b.assignment
        assert a.assignment[0] == 0  # canonical first-use order

    def test_size_cap(self):
        with pytest.raises(ValueError):
            edit_distance_exact(Graph(13, (0,) * 13))

    def test_leaves_no_reference_cycle(self):
        g = cycle_graph(7)
        assert garbage_left_by(lambda: edit_distance_exact(g)) == 0

    def test_monotone_upper_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(4, 13))
            base = turan_graph(n, 3)
            edges = base.edges()
            k = int(rng.integers(0, min(6, len(edges)) + 1))
            g = base
            for idx in rng.choice(len(edges), size=k, replace=False):
                g = g.without_edge(*edges[int(idx)])
            assert edit_distance_exact(g).edits <= k


class TestLocal:
    def test_planted_assignments_recovered(self):
        assert edit_distance_local(turan_graph(30, 3), restarts=4, seed=0).edits == 0
        k33 = complete_multipartite(PartSizes((3, 3)))
        assert edit_distance_local(k33, restarts=4, seed=0).edits == 0

    def test_never_beats_exact_matches_most(self):
        matched = 0
        for seed in range(200):
            rng = np.random.default_rng(np.random.PCG64(seed))
            n = int(rng.integers(4, 11))
            g = random_graph(n, float(rng.random()), rng)
            exact = edit_distance_exact(g).edits
            local = edit_distance_local(g, restarts=8, seed=seed).edits
            assert local >= exact
            matched += local == exact
        assert matched >= 190  # >= 95 percent

    def test_deterministic(self):
        g = random_graph(14, 0.5, np.random.default_rng(4))
        a = edit_distance_local(g, restarts=6, seed=77)
        b = edit_distance_local(g, restarts=6, seed=77)
        assert a == b

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            edit_distance_local(cycle_graph(4), restarts=0, seed=1)


def _deleted_turan(n, k, rng):
    base = turan_graph(n, 3)
    edges = base.edges()
    g = base
    for idx in rng.choice(len(edges), size=k, replace=False):
        g = g.without_edge(*edges[int(idx)])
    return g


class TestGainTableDescent:
    """The batched descent makes the reference's moves, in its order."""

    def check(self, g, start):
        ref = RecordedAssignment(start)
        ref_cost = reference_local_descent(g, ref)
        adj = int8_stack([g])
        starts = np.array([[start]])
        # One descent stepped by hand: each step must make the reference's
        # next move, and the step after the last must find none, so a
        # runaway descent fails instead of hanging.
        cost, a = _cost_table(adj, starts), starts[0].copy()
        sign, owner = _move_signs(adj), np.zeros(1, dtype=np.intp)
        for v, part in ref.writes:
            found, moved, new, _ = _step(cost, a, sign, owner)
            assert (found.tolist(), moved.tolist(), new.tolist()) == (
                [True], [v], [part])
        assert _step(cost, a, sign, owner)[0].tolist() == [False]
        assert a[0].tolist() == list(ref)
        costs = _descend(adj, starts)
        assert costs.tolist() == [[ref_cost]]
        assert starts[0, 0].tolist() == list(ref)

    def starts(self, g, rng, randoms=2):
        yield reference_greedy_assignment(g)
        for _ in range(randoms):
            yield [int(x) for x in rng.integers(0, 3, size=g.n)]

    def test_random_graphs(self):
        rng = np.random.default_rng(np.random.PCG64(71))
        for n in range(1, 41):
            for _ in range(3):
                g = random_graph(n, float(rng.random()), rng)
                for start in self.starts(g, rng):
                    self.check(g, start)

    def test_structured_graphs(self):
        rng = np.random.default_rng(np.random.PCG64(72))
        graphs = [Graph(n, (0,) * n) for n in (1, 2, 5, 20)]
        graphs += [complete_multipartite(PartSizes((1,) * n)) for n in (2, 3, 7, 25)]
        graphs += [complete_multipartite(PartSizes(ab))
                   for ab in ((1, 1), (3, 5), (10, 12))]
        graphs += [_deleted_turan(n, k, rng)
                   for n in (13, 30, 45) for k in (0, 5, n)]
        for g in graphs:
            for start in self.starts(g, rng, randoms=3):
                self.check(g, start)

    def test_costs_beyond_int8(self):
        # From all-in-one-part, a vertex of degree 145 or more starts at a
        # cost of at least 141: an int8 table would wrap.
        rng = np.random.default_rng(np.random.PCG64(74))
        g = random_graph(150, 0.97, rng)
        assert max(row.bit_count() for row in g.adj) >= 145
        self.check(g, [0] * g.n)
        self.check(g, reference_greedy_assignment(g))

    def test_graph_stack_matches_single_graphs(self):
        rng = np.random.default_rng(np.random.PCG64(75))
        for n in (1, 7, 31):
            graphs = [random_graph(n, float(rng.random()), rng) for _ in range(5)]
            adj = int8_stack(graphs)
            starts = rng.integers(0, 3, size=(5, 4, n))
            singles = [starts[i:i + 1].copy() for i in range(5)]
            costs = _descend(adj, starts)
            for i, one in enumerate(singles):
                assert _descend(adj[i:i + 1], one).tolist() == [costs[i].tolist()]
                assert (one[0] == starts[i]).all()

    def test_greedy_matches_reference(self):
        rng = np.random.default_rng(np.random.PCG64(76))
        for n in (1, 2, 9, 40):
            graphs = [random_graph(n, float(rng.random()), rng) for _ in range(4)]
            graphs.append(turan_graph(n, min(3, n)))
            got = _greedy_starts(int8_stack(graphs))
            assert got.tolist() == [reference_greedy_assignment(g) for g in graphs]

    def test_edit_distance_local_matches_reference_restarts(self):
        rng = np.random.default_rng(np.random.PCG64(73))
        for seed in range(20):
            g = _deleted_turan(int(rng.integers(13, 40)), int(rng.integers(0, 40)),
                               rng)
            starts = np.random.default_rng(np.random.PCG64(seed))
            best = None
            for trial in range(LOCAL_RESTARTS):
                assignment = (reference_greedy_assignment(g) if trial == 0 else
                              [int(x) for x in starts.integers(0, 3, size=g.n)])
                key = (reference_local_descent(g, assignment), tuple(assignment))
                best = key if best is None else min(best, key)
            res = edit_distance_local(g, LOCAL_RESTARTS, seed)
            assert (res.edits, res.assignment) == best


class TestWeylCrossCheck:
    def test_lambda2_bounded_by_sqrt_2k(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(6, 25))
            base = turan_graph(n, 3)
            edges = base.edges()
            k = int(rng.integers(1, 11))
            g = base
            for idx in rng.choice(len(edges), size=min(k, len(edges)),
                                  replace=False):
                g = g.without_edge(*edges[int(idx)])
            k_eff = base.m - g.m
            r = weyl_check(g, base)
            lam2 = eigenvalues(g)[-2]
            assert abs(lam2) <= r.spectral_norm + 1e-9
            assert r.spectral_norm <= math.sqrt(2 * k_eff) + 1e-9
            assert abs(lam2) <= math.sqrt(2 * k_eff) + 1e-9


class TestExperiment:
    def test_row_schema_and_k0(self):
        rows = stability_experiment(12, [0, 1, 2], samples=5, seed=21)
        assert len(rows) == 15
        for row in rows:
            assert tuple(row) == STABILITY_CSV_COLUMNS
            if row["k"] == 0:
                assert row["lambda1_sq_over_m"] == pytest.approx(4 / 3, abs=1e-9)
                assert row["edits"] == 0
            assert row["edits_normalized"] <= row["k"] / 144 + 1e-12

    def test_mean_edits_monotone_in_k(self):
        rows = stability_experiment(12, [0, 2, 4, 6, 8], samples=50, seed=5)
        means = {}
        for row in rows:
            means.setdefault(row["k"], []).append(row["edits_normalized"])
        grid = sorted(means)
        averages = [sum(means[k]) / len(means[k]) for k in grid]
        assert all(b >= a - 1e-12 for a, b in zip(averages, averages[1:])), averages

    def test_local_method_above_exact_cap(self):
        rows = stability_experiment(15, [0, 1], samples=3, seed=2)
        assert all(row["method"] == "local_search" for row in rows)
        for row in rows:
            if row["k"] == 0:
                assert row["edits"] == 0

    @pytest.mark.parametrize("n", [9, 15, 40])
    def test_rows_do_not_depend_on_the_chunk(self, monkeypatch, n):
        args = (n, [0, 3, 20], 4, 6)
        # At the defaults, the 12 rows are one descent group and one float
        # sub-chunk.
        group = bngap.stability._GROUP_ENTRIES
        assert min(group, bngap.search._CHUNK_ENTRIES) // (n * n) >= 12
        rows = stability_experiment(*args)
        # One row per group; then one group over float sub-chunks of 5, 5
        # and 2 rows.
        for entries in ((1, bngap.search._CHUNK_ENTRIES), (group, 5 * n * n)):
            monkeypatch.setattr(bngap.stability, "_GROUP_ENTRIES", entries[0])
            monkeypatch.setattr(bngap.search, "_CHUNK_ENTRIES", entries[1])
            assert stability_experiment(*args) == rows
        # Each row is its graph's: the cell's seed stream draws the deleted
        # edges, then the seed of edit_distance_local's starts.
        children = np.random.SeedSequence(args[3]).spawn(len(rows))
        for row, child in zip(rows, children):
            rng = np.random.default_rng(np.random.PCG64(child))
            g = _deleted_turan(n, row["k"], rng)
            lam = np.linalg.eigvalsh(adjacency_matrix(g))[-1]
            assert (row["m"], row["lambda1_sq_over_m"]) == (g.m, lam * lam / g.m)
            res = (edit_distance_exact(g) if n <= EXACT_MAX_N else
                   edit_distance_local(g, LOCAL_RESTARTS,
                                       int(rng.integers(2 ** 63))))
            assert (row["edits"], row["method"]) == (res.edits, res.method)

    def test_deterministic_reruns(self):
        a = stability_experiment(9, [0, 1, 3], samples=8, seed=33)
        b = stability_experiment(9, [0, 1, 3], samples=8, seed=33)
        assert a == b

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            stability_experiment(6, [100], samples=1, seed=0)
        with pytest.raises(ValueError, match="cannot delete -1"):
            stability_experiment(6, [-1], samples=1, seed=0)
        with pytest.raises(ValueError, match="samples"):
            stability_experiment(6, [0], samples=-1, seed=0)


class TestDenseCase:
    def test_k333(self):
        r = dense_case_check(complete_multipartite(PartSizes((3, 3, 3))), 0.25)
        assert r.applicable and r.m == 27
        assert r.bn.holds and r.bn.equality

    def test_c5(self):
        r = dense_case_check(cycle_graph(5), 0.2)
        assert r.applicable
        assert r.triangles == 0
        assert r.triangle_bound == pytest.approx(5 * 4 / 12)
        assert r.triangle_bound_ok
        assert r.bn.holds

    def test_k222_minus_edge(self):
        g = complete_multipartite(PartSizes((2, 2, 2))).without_edge(0, 2)
        r = dense_case_check(g, 0.25)
        assert r.applicable and r.bn.holds and r.bn.gap > 1e-6

    def test_not_applicable_cases(self):
        k4 = complete_multipartite(PartSizes((1, 1, 1, 1)))
        assert not dense_case_check(k4, 0.1).applicable
        k3 = complete_multipartite(PartSizes((1, 1, 1)))
        assert not dense_case_check(k3, 0.1).applicable
        sparse = cycle_graph(12)
        assert not dense_case_check(sparse, 0.25).applicable

    def test_case_split_respects_delta(self):
        g = turan_graph(12, 3)
        r = dense_case_check(g, 0.2, delta=0.05)
        assert r.case == 1  # balanced tripartite sits at 4m/3 exactly
        r = dense_case_check(cycle_graph(5), 0.2, delta=0.05)
        assert r.case == 2
