"""Edit distance to complete tripartite graphs and the deletion experiment."""

import itertools
import math

import numpy as np
import pytest

from bngap.graphs import (
    Graph,
    PartSizes,
    complete_multipartite,
    turan_graph,
)
from bngap.search import random_graph
from bngap.spectra import eigenvalues, weyl_check
from bngap.stability import (
    STABILITY_CSV_COLUMNS,
    dense_case_check,
    edit_distance_exact,
    edit_distance_local,
    stability_experiment,
)

from corpus import cycle_graph


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
            lam2 = eigenvalues(g).lambda2
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
