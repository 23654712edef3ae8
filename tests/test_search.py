"""Sweeps, exhaustive checks, seeded generators, and the hill climber."""

import hashlib
import json
import os
import time
from bisect import bisect_right
from dataclasses import asdict

import numpy as np
import pytest

import bngap.conjecture
import bngap.search
from bngap import cli
from bngap.conjecture import BnReport, bn_report
from bngap.graphs import (
    MAX_N,
    Graph,
    PartSizes,
    clique_number,
    complete_multipartite,
    is_k4_free,
    to_graph6,
    zykov,
)
from bngap.search import (
    _MOVE_CDF,
    SearchConfig,
    _Best,
    _Draws,
    _fold,
    _move_key,
    _objective,
    _restart_seed,
    _worker_count,
    SweepSummary,
    exhaustive_check,
    hill_climb,
    partitions_into_parts,
    random_graph,
    random_k4_free,
    sweep,
    zykov_trajectory,
)
from bngap.spectra import adjacency_matrix

from corpus import cycle_graph, greedy_k4_free, path_graph
from test_exhaustive_engine import add, labeled_graphs
from test_graphs import all_partitions


def no_violation(report):
    raise AssertionError(f"unexpected violation: {report}")


def sweep_reports(n_max, r_max):
    """The reports ``sweep`` writes, parsed back from its lines; the
    summary it returns must be their per-report fold."""
    written = []
    summary = sweep(n_max, r_max, written.append, no_violation)
    reports = [BnReport(**json.loads(line))
               for line in "".join(written).splitlines()]
    want = SweepSummary()
    for report in reports:
        add(want, report)
    assert summary == want
    return reports


class TestSweep:
    def test_partition_enumeration(self):
        assert list(partitions_into_parts(3, 6)) == [(1, 1, 1), (2, 1)]
        assert list(partitions_into_parts(4, 2)) == [(2, 2), (3, 1)]

    def test_partitions_match_filtered_enumeration(self):
        for n in range(18):
            every = list(all_partitions(n))
            for r_max in range(9):
                want = sorted(p for p in every if 2 <= len(p) <= r_max)
                assert list(partitions_into_parts(n, r_max)) == want

    def test_partition_count_n60(self):
        assert sum(1 for _ in partitions_into_parts(60, 6)) == 19857

    def test_n_max_3(self):
        reports = sweep_reports(3, 6)
        assert len(reports) == 3
        sources = [r.source.split(";")[0] for r in reports]
        assert sources == ["multipartite[1,1]", "multipartite[1,1,1]",
                           "multipartite[2,1]"]

    def test_n_max_4_equality_set(self):
        by_parts = {}
        for r in sweep_reports(4, 6):
            key = r.source.split("[")[1].split("]")[0]
            by_parts[key] = r
        assert by_parts["1,1"].excluded
        assert by_parts["1,1,1"].excluded
        assert by_parts["1,1,1,1"].excluded
        equality = sorted(k for k, r in by_parts.items()
                          if r.equality and not r.excluded)
        assert equality == ["2,1", "2,2", "3,1"]

    def test_deterministic_order(self):
        a = [r.source for r in sweep_reports(10, 5)]
        b = [r.source for r in sweep_reports(10, 5)]
        assert a == b

    def test_summary_counts(self):
        summary = SweepSummary()
        for r in sweep_reports(10, 6):
            add(summary, r)
        d = summary.as_dict()
        assert d["violations"] == 0
        assert d["total"] == d["holds"] + d["excluded"]


    def test_n_max_above_the_vertex_cap(self):
        written = []
        with pytest.raises(ValueError, match="exceeds 2048"):
            sweep(2049, 2, written.append, no_violation)
        assert written == []


def fold_columns(gap, holds, equality, excluded, source, live):
    """The summary ``_fold`` gives one chunk of columns on a fresh summary."""
    summary = SweepSummary()
    _fold(summary, (gap, holds, equality, excluded), live, source,
          lambda i: None, lambda report: None)
    return summary


class TestFoldColumns:
    def test_equals_the_per_report_fold(self):
        rng = np.random.default_rng(3)
        for size in (1, 2, 7, 200):
            # Few distinct gaps, so minima tie; some reports excluded, some
            # out of domain.
            gap = rng.integers(-3, 4, size) / 4.0
            holds, equality = gap >= 0, gap == 0
            excluded = rng.random(size) < 0.2
            live = rng.random(size) < 0.8
            got = fold_columns(gap, holds, equality, excluded,
                               lambda i: f"row {i}", live)
            want = SweepSummary(out_of_domain=int((~live).sum()))
            for i in np.flatnonzero(live).tolist():
                add(want, BnReport(3, 2, 2, 0.0, 0.0, 0.0, 0.0, 0.0,
                                   float(gap[i]), bool(holds[i]),
                                   bool(equality[i]), bool(excluded[i]),
                                   f"row {i}"))
            assert got == want, size

    def test_no_live_report(self):
        got = fold_columns(np.zeros(3), np.ones(3, bool), np.ones(3, bool),
                           np.zeros(3, bool), str, np.zeros(3, bool))
        assert got == SweepSummary(out_of_domain=3)


class TestSweepChunks:
    def sweep_digest(self, capsys) -> str:
        assert cli.main(["sweep", "--n-max", "20", "--r-max", "6"]) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    def test_chunk_size_keeps_the_bytes(self, monkeypatch, capsys):
        default = self.sweep_digest(capsys)
        for size in (1, 7, bngap.search.SWEEP_CHUNK):
            monkeypatch.setattr(bngap.search, "SWEEP_CHUNK", size)
            assert self.sweep_digest(capsys) == default, size

    @pytest.mark.parametrize("size", [7, None])
    def test_first_report_draws_one_chunk(self, monkeypatch, size):
        # The sweep writes chunk 1 before it draws partition SWEEP_CHUNK + 1.
        if size is not None:
            monkeypatch.setattr(bngap.search, "SWEEP_CHUNK", size)
        drawn = 0
        original = bngap.search.partitions_into_parts

        def counting(n, r_max):
            nonlocal drawn
            for parts in original(n, r_max):
                drawn += 1
                yield parts

        class FirstChunk(Exception):
            pass

        def write(text):
            raise FirstChunk(drawn, text.splitlines())

        monkeypatch.setattr(bngap.search, "partitions_into_parts", counting)
        with pytest.raises(FirstChunk) as caught:
            sweep(200, 200, write, no_violation)
        drawn_then, lines = caught.value.args
        assert json.loads(lines[0])["source"] == "multipartite[1,1]"
        assert drawn_then == len(lines) == bngap.search.SWEEP_CHUNK

    def test_benchmark_sweep_builds_2_tags(self, monkeypatch):
        # ``sweep --n-max 30 --r-max 6`` builds a row's source tag only when
        # the row lowers the running least gap (2 of its 9 chunks' least
        # gaps) or violates the bound (none).
        calls = []
        real_tag = bngap.conjecture.multipartite_tag

        def counted(sizes):
            if "%d" not in sizes:  # not a line template of ``report_lines``
                calls.append(sizes)
            return real_tag(sizes)

        monkeypatch.setattr(bngap.conjecture, "multipartite_tag", counted)
        written = []
        summary = sweep(30, 6, written.append, no_violation)
        assert summary.total == 8516 and len(written) == 9
        assert summary.violations == 0 and len(calls) == 2
        assert summary.argmin_source.startswith(real_tag(calls[-1]))


class TestExhaustive:
    # N counts every labeled graph on 1..N vertices: 1 + 2 + 8 + 64 for
    # N = 4, and 1,024 more for N = 5, with K2 to K5 excluded.
    def test_builtin_n4(self):
        res = exhaustive_check(4)
        assert res.summary.total + res.summary.out_of_domain == 75
        assert res.summary.violations == 0

    def test_builtin_n5(self):
        res = exhaustive_check(5)
        assert res.summary.total + res.summary.out_of_domain == 1099
        assert res.summary.violations == 0
        assert res.summary.excluded == 4

    def test_builtin_cap(self):
        with pytest.raises(ValueError):
            exhaustive_check(7)

    def test_stream_with_k5_and_malformed(self):
        k5 = to_graph6(complete_multipartite(PartSizes((1,) * 5)))
        seen = []
        res = exhaustive_check([k5, "", "   ", "bad line \x01"],
                               lambda lineno, message: seen.append(lineno))
        assert res.summary.excluded == 1
        assert res.summary.violations == 0
        assert res.malformed == 1 and seen == [4]

    def test_malformed_records_go_to_stderr_by_default(self, capsys):
        k5 = to_graph6(complete_multipartite(PartSizes((1,) * 5)))
        res = exhaustive_check(["bad\x01", k5, "bad\x02"])
        err = capsys.readouterr().err.splitlines()
        assert res.malformed == 2 and len(err) == 2
        assert err[0].startswith("bngap: malformed graph6 at line 1: ")
        assert err[1].startswith("bngap: malformed graph6 at line 3: ")

    def test_stream_counts(self):
        lines = [to_graph6(g) for _, g in labeled_graphs(4)]
        res = exhaustive_check(lines)
        assert res.summary.total + res.summary.out_of_domain == 64
        assert res.summary.violations == 0


class TestRandomK4Free:
    def test_always_k4_free(self):
        # 10^4 seeded draws: the library generator and the greedy helper
        for seed in range(5000):
            assert is_k4_free(random_k4_free(14, 0.6, np.random.default_rng(seed)))
        for seed in range(5000):
            assert is_k4_free(greedy_k4_free(9, 0.9, seed=seed))

    def test_deterministic(self):
        assert (random_k4_free(12, 0.5, np.random.default_rng(7))
                == random_k4_free(12, 0.5, np.random.default_rng(7)))
        assert greedy_k4_free(12, 0.5, seed=7) == greedy_k4_free(12, 0.5, seed=7)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            random_k4_free(5, 1.5, np.random.default_rng(0))
        for density in (2.0, float("nan"), -0.5):
            with pytest.raises(ValueError) as err:
                random_k4_free(5, density, np.random.default_rng(0))
            assert str(err.value) == f"density must lie in [0, 1], got {density}"

    def test_greedy_best_effort_at_impossible_density(self):
        # A K4-free graph on 9 vertices has at most 27 edges (balanced
        # tripartite), well below the 36 requested here.
        g = greedy_k4_free(9, 1.0, seed=3)
        assert is_k4_free(g)
        assert g.m <= 27


class TestZykovTrajectory:
    def test_p4_step(self):
        tr = zykov_trajectory(path_graph(4), 1, seed=3)
        assert len(tr.steps) == 1
        assert tr.steps[0].lambda1 >= tr.initial_lambda1 - 1e-9

    def test_same_part_moves_are_constant(self):
        g = complete_multipartite(PartSizes((2, 2, 2)))
        tr = zykov_trajectory(g, 10, seed=0)
        # all non-adjacent pairs sit inside parts, so every move is identity
        assert all(abs(s.lambda1 - 4.0) < 1e-9 and s.m == 12 for s in tr.steps)

    def test_complete_graph_empty_trajectory(self):
        tr = zykov_trajectory(complete_multipartite(PartSizes((1,) * 5)), 5, 0)
        assert tr.steps == [] and tr.findings == []

    def test_c5_monotone_100_seeds(self):
        c5 = cycle_graph(5)
        for seed in range(100):
            tr = zykov_trajectory(c5, 20, seed=seed)
            assert not tr.findings, tr.findings
            lams = [tr.initial_lambda1] + [s.lambda1 for s in tr.steps]
            assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))

    def test_deterministic(self):
        g = cycle_graph(7)
        a = zykov_trajectory(g, 15, seed=9)
        b = zykov_trajectory(g, 15, seed=9)
        assert [(s.u, s.v, s.m) for s in a.steps] == \
            [(s.u, s.v, s.m) for s in b.steps]
        assert a.final_graph == b.final_graph


class TestHillClimb:
    @pytest.fixture(autouse=True)
    def one_worker(self, monkeypatch):
        # The spies here record in the calling process, so every restart
        # runs there; TestParallelRestarts covers the worker counts.
        use_workers(monkeypatch, 1)

    def test_reaches_equality_k4_constrained(self):
        res = hill_climb(SearchConfig(seed=11, n=6, max_iters=300, restarts=10,
                                      k4_constrained=True))
        assert not res.found_violation
        assert abs(res.best_report.gap) <= 1e-8

    def test_reaches_equality_unconstrained_n5(self):
        res = hill_climb(SearchConfig(seed=5, n=5, max_iters=300, restarts=8,
                                      k4_constrained=False))
        assert not res.found_violation
        assert not res.best_report.excluded
        assert abs(res.best_report.gap) <= 1e-8

    def test_zero_iters_returns_initial_report(self):
        res = hill_climb(SearchConfig(seed=7, n=6, max_iters=0, restarts=1))
        assert res.iterations == 0
        assert res.best_report is not None
        assert res.best_report.n == 6

    def test_k4_constraint_respected(self):
        res = hill_climb(SearchConfig(seed=3, n=8, max_iters=200, restarts=3,
                                      k4_constrained=True))
        assert is_k4_free(res.best_graph)

    def test_bit_identical_reruns(self):
        cfg = SearchConfig(seed=123, n=7, max_iters=150, restarts=3)
        a = hill_climb(cfg)
        b = hill_climb(cfg)
        assert a.best_graph == b.best_graph
        assert a.best_objective == b.best_objective
        assert a.iterations == b.iterations and a.accepted == b.accepted
        assert asdict(a.best_report) == asdict(b.best_report)

    def test_one_rank_orders_states_and_restarts(self, monkeypatch):
        p4, c4 = path_graph(4), cycle_graph(4)
        assert p4.edge_bitset() < c4.edge_bitset()
        best = _Best()
        for obj, g, source in [(0.5, p4, "lower"), (1.0, c4, "c4"),
                               (1.0, p4, "first p4"), (1.0, p4, "second p4"),
                               (0.5, p4, "lower again")]:
            best.offer(obj, g, bn_report(g, source))
        assert best.report.source == "first p4" and best.objective == 1.0

        # Each restart offers its states to the one best of the run.
        restarts = iter([[], [(1.0, c4, "c4")], [(1.0, p4, "first p4")],
                         [(1.0, p4, "second p4")], [(0.5, p4, "lower")]])

        def run_restart(cfg, child, best):
            states = next(restarts)
            for obj, g, source in states:
                best.offer(obj, g, bn_report(g, source))
            return 1, len(states)

        monkeypatch.setattr(bngap.search, "_run_restart", run_restart)
        res = hill_climb(SearchConfig(seed=0, n=4, restarts=5))
        assert res.best_report.source == "first p4" and res.best_graph == p4
        assert res.best_objective == 1.0
        assert (res.iterations, res.accepted, res.restarts_run) == (5, 4, 5)

    def test_edge_bitsets_only_on_ties(self, monkeypatch):
        p4, c4 = path_graph(4), cycle_graph(4)
        reports = {g: bn_report(g) for g in (p4, c4)}
        coded = []
        real_edge_bitset = Graph.edge_bitset

        def counted(g):
            coded.append(g)
            return real_edge_bitset(g)

        monkeypatch.setattr(Graph, "edge_bitset", counted)
        best = _Best()
        for obj, g in [(0.5, c4), (1.0, c4), (2.0, p4)]:
            best.offer(obj, g, reports[g])
        assert coded == []
        best.offer(2.0, c4, reports[c4])
        best.offer(2.0, c4, reports[c4])
        # The best's bitset is computed once and kept.
        assert coded == [p4, c4, c4] and best.graph == p4

    @staticmethod
    def spy_objective(monkeypatch, check):
        """Run ``check(cfg, g, a, m, report)`` on every evaluated state."""
        real = bngap.search._objective

        def spied(cfg, g, a, m):
            obj, report = real(cfg, g, a, m)
            check(cfg, g, a, m, report)
            return obj, report

        monkeypatch.setattr(bngap.search, "_objective", spied)

    @pytest.mark.parametrize("objective", ["bn_gap_negated", "lambda1"])
    @pytest.mark.parametrize("n", [8, 15, 30])
    def test_k4_constrained_omega_is_exact(self, monkeypatch, n, objective):
        # The triangle test stands in for clique_number on every state.
        omegas = []

        def check(cfg, g, a, m, report):
            if report is not None:
                assert report.omega == clique_number(g)
                omegas.append(report.omega)

        self.spy_objective(monkeypatch, check)
        # A sparse start passes through triangle-free states, a denser one
        # through states with triangles.
        for density in (0.05, 0.5):
            hill_climb(SearchConfig(seed=n, n=n, max_iters=300, restarts=2,
                                    objective=objective, init_density=density))
        assert set(omegas) == {2, 3}

    def test_free_search_computes_omega(self, monkeypatch):
        scored, computed = [], []
        real_clique_number = bngap.search.clique_number

        def counted(g):
            computed.append(g)
            return real_clique_number(g)

        def check(cfg, g, a, m, report):
            if report is not None:
                scored.append(g)
                assert report.omega == real_clique_number(g)

        monkeypatch.setattr(bngap.search, "clique_number", counted)
        self.spy_objective(monkeypatch, check)
        hill_climb(SearchConfig(seed=4, n=12, max_iters=200, restarts=2,
                                k4_constrained=False))
        assert scored and computed == scored

    @pytest.mark.parametrize("objective", ["bn_gap_negated", "lambda1"])
    @pytest.mark.parametrize("k4_constrained", [True, False])
    @pytest.mark.parametrize("n", [8, 15, 30])
    def test_carried_matrix_is_the_packed_one(self, monkeypatch, n,
                                              k4_constrained, objective):
        evaluated = []

        def check(cfg, g, a, m, report):
            packed = adjacency_matrix(g)
            assert a.dtype == packed.dtype and a.shape == packed.shape
            assert a.tobytes() == packed.tobytes()
            assert m == g.m
            evaluated.append(g)

        self.spy_objective(monkeypatch, check)
        res = hill_climb(SearchConfig(seed=n, n=n, max_iters=300, restarts=2,
                                      k4_constrained=k4_constrained,
                                      objective=objective))
        assert res.accepted >= 1 and len(set(evaluated)) > res.restarts_run

    def test_restart_packs_once_and_builds_no_complement(self, monkeypatch):
        packed = []
        real_adjacency_matrix = bngap.search.adjacency_matrix

        def counted(g):
            packed.append(g)
            return real_adjacency_matrix(g)

        def no_complement(g):
            raise AssertionError("complement built")

        monkeypatch.setattr(bngap.search, "adjacency_matrix", counted)
        monkeypatch.setattr(Graph, "complement", no_complement)
        for k4_constrained in (True, False):
            packed.clear()
            hill_climb(SearchConfig(seed=1, n=12, max_iters=300, restarts=3,
                                    k4_constrained=k4_constrained))
            assert len(packed) == 3

    def test_move_draw_is_choice(self):
        ours = np.random.default_rng(np.random.PCG64(2024))
        theirs = np.random.default_rng(np.random.PCG64(2024))
        drawn = [bisect_right(_MOVE_CDF, ours.random()) for _ in range(10 ** 5)]
        chosen = [int(theirs.choice(3, p=[1 / 3] * 3)) for _ in range(10 ** 5)]
        assert drawn == chosen and set(drawn) == {0, 1, 2}
        assert ours.random() == theirs.random()

    def test_lambda1_objective(self):
        res = hill_climb(SearchConfig(seed=2, n=6, max_iters=200, restarts=2,
                                      objective="lambda1", k4_constrained=False))
        assert res.best_objective == pytest.approx(res.best_report.lambda1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(seed=0, n=5, restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(seed=0, n=5, objective="noop")
        for density in (2.0, float("nan"), -0.5):
            for k4_constrained in (True, False):
                with pytest.raises(ValueError, match="density"):
                    SearchConfig(seed=0, n=5, init_density=density,
                                 k4_constrained=k4_constrained)
        for density in (0.0, 1.0):
            SearchConfig(seed=0, n=5, init_density=density, k4_constrained=False)

    @pytest.mark.parametrize("objective", ["bn_gap_negated", "lambda1"])
    @pytest.mark.parametrize("k4_constrained", [True, False])
    @pytest.mark.parametrize("n", [5, 9, 15, 30])
    def test_skipped_moves_change_no_result(self, monkeypatch, n,
                                            k4_constrained, objective):
        # With an infinite margin only -inf rejections, which are exact,
        # skip a move, so nearly every candidate is solved: the oracle.
        # With a fresh object as each move's key no key repeats, so no move
        # is skipped at all, not even an addition known to close a K4.
        solved = {}

        def run(cfg, margin, fresh_keys=False):
            scored = solved.setdefault((margin, fresh_keys), [])
            with monkeypatch.context() as patch:
                patch.setattr(bngap.search, "_ORBIT_MARGIN", margin)
                if fresh_keys:
                    patch.setattr(bngap.search, "_move_key",
                                  lambda *args: object())
                self.spy_objective(patch, lambda *args: scored.append(1))
                return hill_climb(cfg)

        for seed in (0, 1, 2):
            for density in (0.2, 0.5, 0.9):
                cfg = SearchConfig(seed=seed, n=n, max_iters=300, restarts=2,
                                   k4_constrained=k4_constrained,
                                   objective=objective, init_density=density)
                fast = run(cfg, bngap.search._ORBIT_MARGIN)
                oracle = run(cfg, float("inf"))
                every_move = run(cfg, float("inf"), fresh_keys=True)
                # Best rows, report, objective, iterations and accepted.
                assert fast == oracle == every_move
                assert repr(fast.best_objective) == repr(oracle.best_objective)
                assert repr(fast.best_objective) == repr(every_move.best_objective)
        # Some candidates were skipped, so the comparison is not vacuous.
        assert (len(solved[bngap.search._ORBIT_MARGIN, False])
                < len(solved[float("inf"), False]))

    def test_benchmark_search_solves_at_most_1000(self, monkeypatch):
        # ``search --n-max 30 --restarts 6 --steps 1000 --seed 0`` solved
        # 2,430 candidates before rejected moves were remembered.
        solves = []
        real_eigvalsh = np.linalg.eigvalsh

        def counted(a):
            solves.append(a.shape)
            return real_eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        res = hill_climb(SearchConfig(seed=0, n=30, max_iters=1000, restarts=6))
        assert res.iterations == 6000
        assert 0 < len(solves) <= 1000

    def test_benchmark_search_tests_closes_k4_at_most_500(self, monkeypatch):
        # The same run tested 2,004 additions for closing a K4 before the
        # additions that close one were remembered as rejected.
        calls = []
        real_closes_k4 = bngap.search.closes_k4

        def counted(g, u, v):
            calls.append((u, v))
            return real_closes_k4(g, u, v)

        monkeypatch.setattr(bngap.search, "closes_k4", counted)
        res = hill_climb(SearchConfig(seed=0, n=30, max_iters=1000, restarts=6))
        assert res.iterations == 6000
        assert 0 < len(calls) <= 500

    @pytest.mark.parametrize("seed", [0, 3])
    def test_two_vertices_in_one_part_have_no_report(self, seed):
        # The tripartite start puts both vertices in one part, so it is
        # edgeless, and the only addition gives K2, excluded at -inf.
        res = hill_climb(SearchConfig(seed=seed, n=2, init_density=1.0))
        assert res.best_report is None and not res.found_violation
        assert res.best_objective == float("-inf")
        assert res.best_graph == Graph(2, (0, 0))
        assert (res.iterations, res.accepted) == (2000, 0)

    def test_never_reports_complete_as_violation(self):
        # tiny n so the climber has every chance to reach K_n
        for seed in range(5):
            res = hill_climb(SearchConfig(seed=seed, n=3, max_iters=200,
                                          restarts=2, k4_constrained=False))
            if res.best_report is not None:
                assert not (res.found_violation and res.best_report.excluded)
                assert not res.best_report.excluded or not res.found_violation


def use_workers(monkeypatch, count):
    """Split the restarts into min(restarts, count) blocks, whatever the
    CPU count, n and run length."""
    monkeypatch.setattr(bngap.search, "_worker_count",
                        lambda cfg: min(cfg.restarts, count))


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestDraws:
    """``_Draws`` returns the values of numpy's ``Generator`` calls."""

    # The bounds of the 32-bit path, counts whose Lemire draw rejects often
    # (3e9 about 30% of words) or never (2), and the climb's pair counts up
    # to C(2048, 2).
    COUNTS = (1, 2, 3, 7, 435, 2_096_128, 3 * 10 ** 9, 2 ** 32 - 1, 2 ** 32)

    @pytest.mark.parametrize("leftover", [0, 1, 2, 5])
    def test_interleaved_draws_equal_numpy(self, leftover):
        # An array draw of ``leftover`` values in 0..2 first, as a K4-free
        # start makes, leaves half a word behind when it took an odd number
        # of 32-bit draws; 200 calls per seed span several batches.
        for seed in range(75):
            ours = np.random.default_rng(np.random.PCG64(seed))
            theirs = np.random.default_rng(np.random.PCG64(seed))
            for rng in (ours, theirs):
                rng.integers(0, 3, size=leftover)
            draws = _Draws(ours)
            calls = np.random.default_rng(seed + 10 ** 6)
            for _ in range(200):
                pick = int(calls.integers(len(self.COUNTS) + 2))
                if pick == len(self.COUNTS):
                    assert draws.random() == theirs.random()
                else:
                    count = (self.COUNTS[pick] if pick < len(self.COUNTS)
                             else int(calls.integers(1, 2 ** 32 + 1)))
                    assert draws.integers(count) == int(theirs.integers(count))

    def test_runs_of_one_call_equal_numpy(self):
        # 150 calls of one kind cross a batch boundary.
        for seed in range(25):
            for count in self.COUNTS:
                ours = np.random.default_rng(seed)
                theirs = np.random.default_rng(seed)
                draws = _Draws(ours)
                assert [draws.integers(count) for _ in range(150)] == \
                    [int(theirs.integers(count)) for _ in range(150)]
            draws = _Draws(np.random.default_rng(seed))
            theirs = np.random.default_rng(seed)
            assert [draws.random() for _ in range(150)] == \
                [theirs.random() for _ in range(150)]

    def test_counts_outside_the_32_bit_path_raise(self):
        draws = _Draws(np.random.default_rng(0))
        for count in (0, -1, 2 ** 32 + 1):
            with pytest.raises(ValueError, match="count"):
                draws.integers(count)


class TestParallelRestarts:
    def test_worker_count_is_capped(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))

        def count(n=30, restarts=10 ** 9, max_iters=2000):
            return _worker_count(SearchConfig(seed=0, n=n, restarts=restarts,
                                              max_iters=max_iters))

        assert count(restarts=1) == 1
        assert count() == cpus
        # The benchmark's search.
        assert count(restarts=6, max_iters=1000) == min(2, cpus)
        # Below n = 24 a fork does not pay: one process.
        assert count(n=23) == count(n=2) == 1
        assert count(n=24) == cpus
        # From n = 64 up an eigensolve is threaded: one process.
        assert count(n=63) == cpus
        assert count(n=64) == count(n=2048) == 1
        # At most one block per 250 iterations of the run.
        assert count(restarts=2, max_iters=0) == 1
        assert count(restarts=2, max_iters=124) == 1
        assert count(restarts=2, max_iters=125) == 1
        assert count(restarts=2, max_iters=250) == min(2, cpus)
        assert count(restarts=6, max_iters=125) == min(3, cpus)
        monkeypatch.delattr(os, "fork")
        assert count() == 1

    @pytest.mark.parametrize("n", [0, MAX_N + 1])
    def test_bad_vertex_count_forks_no_worker(self, monkeypatch, n):
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(n))
        use_workers(monkeypatch, 4)
        with pytest.raises(ValueError, match="vertex count"):
            hill_climb(SearchConfig(seed=0, n=n, restarts=4))
        assert forks == []
        assert_no_child()

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 64 - 1])
    def test_restart_streams_by_index_equal_spawn(self, seed):
        for k in range(1, 9):
            spawned = np.random.SeedSequence(seed).spawn(k)
            for i, child in enumerate(spawned):
                ours = _restart_seed(seed, i)
                assert (ours.generate_state(8).tolist()
                        == child.generate_state(8).tolist())
                assert (np.random.default_rng(np.random.PCG64(ours)).random(4).tolist()
                        == np.random.default_rng(np.random.PCG64(child)).random(4).tolist())

    @pytest.mark.parametrize("method", ["k4free", "free"])
    @pytest.mark.parametrize("objective", ["bn-gap", "lambda1"])
    @pytest.mark.parametrize("restarts", [1, 2, 6])
    def test_worker_count_keeps_the_bytes(self, monkeypatch, capsys, restarts,
                                          objective, method):
        argv = ["search", "--n-max", "8", "--restarts", str(restarts),
                "--steps", "150", "--seed", "4", "--objective", objective,
                "--method", method]
        cfg = SearchConfig(seed=4, n=8, max_iters=150, restarts=restarts,
                           k4_constrained=method == "k4free",
                           objective={"bn-gap": "bn_gap_negated",
                                      "lambda1": "lambda1"}[objective])
        runs = []
        for count in (1, 2, 3, 7):
            use_workers(monkeypatch, count)
            res = hill_climb(cfg)
            assert_no_child()
            assert cli.main(argv) == 0
            assert_no_child()
            runs.append((res, repr(res.best_objective), capsys.readouterr().out))
        assert all(run == runs[0] for run in runs)
        assert runs[0][0].restarts_run == restarts

    @pytest.mark.parametrize("seed", range(1, 5))
    def test_block_bests_merge_to_the_serial_best(self, monkeypatch, seed):
        # Restarts offer random states of two objectives and two graphs, so
        # ties decide the best, and each report names its offer.
        rng = np.random.default_rng(seed)
        pool = [path_graph(4), cycle_graph(4)]
        offers = [[(float(rng.integers(2)), int(rng.integers(2)))
                   for _ in range(rng.integers(1, 4))] for _ in range(6)]
        reports = {}

        def report(i, r, j):
            return reports.setdefault((i, r, j), bn_report(pool[j], f"{i}:{r}"))

        serial = _Best()
        for i, states in enumerate(offers):
            for r, (obj, j) in enumerate(states):
                serial.offer(obj, pool[j], report(i, r, j))
        # The best state is offered by more than one restart.
        assert sum((serial.objective, pool.index(serial.graph)) in states
                   for states in offers) >= 2

        def run_restart(cfg, child, best):
            i = child.spawn_key[-1]
            for r, (obj, j) in enumerate(offers[i]):
                best.offer(obj, pool[j], report(i, r, j))
            return 1, len(offers[i])

        monkeypatch.setattr(bngap.search, "_run_restart", run_restart)
        for count in range(1, 7):
            use_workers(monkeypatch, count)
            res = hill_climb(SearchConfig(seed=0, n=4, restarts=6))
            assert_no_child()
            assert (res.best_report, res.best_graph) == (serial.report, serial.graph)
            assert res.best_objective == serial.objective
            assert (res.iterations, res.accepted) == (6, sum(map(len, offers)))

    @pytest.mark.parametrize("failure", ["raises", "dies"])
    def test_failed_worker_is_a_usage_error(self, monkeypatch, capsys, failure):
        real = bngap.search._run_restart

        def run_restart(cfg, child, best):
            if child.spawn_key == (4,):  # in the second of two blocks
                if failure == "dies":
                    os._exit(3)
                raise RuntimeError("restart 4 broke")
            return real(cfg, child, best)

        monkeypatch.setattr(bngap.search, "_run_restart", run_restart)
        use_workers(monkeypatch, 2)
        assert cli.main(["search", "--n-max", "8", "--restarts", "6",
                         "--steps", "50"]) == 2
        assert_no_child()
        out, err = capsys.readouterr()
        assert out == ""
        want = ("RuntimeError: restart 4 broke" if failure == "raises"
                else "exit code 3")
        assert err == ("bngap: error: search worker for restarts 3..5 "
                       f"failed: {want}\n")

    def test_failure_here_kills_the_workers(self, monkeypatch, capsys):
        # Block 0 fails at once while the other blocks would run on for a
        # minute: they are killed, not waited for.
        def run_restart(cfg, child, best):
            if child.spawn_key == (0,):
                raise ValueError("restart 0 broke")
            time.sleep(60)

        monkeypatch.setattr(bngap.search, "_run_restart", run_restart)
        use_workers(monkeypatch, 3)
        start = time.monotonic()
        assert cli.main(["search", "--n-max", "30", "--restarts", "3"]) == 2
        assert time.monotonic() - start < 30
        assert_no_child()
        assert capsys.readouterr().err == "bngap: error: restart 0 broke\n"


def test_random_graph_rejects_density_outside_unit_interval():
    for density in (2.0, float("nan"), -0.5):
        with pytest.raises(ValueError) as err:
            random_graph(5, density, np.random.default_rng(0))
        assert str(err.value) == f"density must lie in [0, 1], got {density}"


def test_random_graph_reports_match_direct_computation():
    # spot-check that search-produced graphs feed the report pipeline
    g = random_k4_free(10, 0.6, np.random.default_rng(99))
    if g.m >= 1:
        r = bn_report(g, "spot")
        assert r.omega == clique_number(g)
        assert r.holds


def twinned_graph(n, rng):
    """A random graph on n vertices, most of them with twins: a random
    graph on k <= n base vertices blown up by a random map of the n
    vertices onto them, so the vertices over one base vertex share a row."""
    k = int(rng.integers(1, n + 1))
    base = random_graph(k, float(rng.random()), rng)
    over = [*range(k), *rng.integers(k, size=n - k).tolist()]
    return Graph(n, tuple(sum(1 << w for w in range(n)
                              if base.adj[over[v]] >> over[w] & 1)
                          for v in range(n)))


def moves_by_key(g):
    """The candidates of every hill-climb move from g, grouped by the
    move's ``_move_key``."""
    groups = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                moves = [((1, u, v), g.without_edge(u, v))]
            else:
                moves = [((0, u, v), g.with_edge(u, v)),
                         ((2, u, v), zykov(g, u, v)),
                         ((2, v, u), zykov(g, v, u))]
            for move, candidate in moves:
                groups.setdefault(_move_key(g.adj, *move), []).append(candidate)
    return groups


def test_equal_move_keys_give_isomorphic_candidates():
    nx = pytest.importorskip("networkx")

    def as_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    rng = np.random.default_rng(19)
    merged = 0
    for _ in range(60):
        n = int(rng.integers(2, 9))
        g = twinned_graph(n, rng) if rng.random() < 0.7 else \
            random_graph(n, float(rng.random()), rng)
        for candidates in moves_by_key(g).values():
            first = as_nx(candidates[0])
            for other in candidates[1:]:
                assert nx.is_isomorphic(first, as_nx(other))
            merged += len(set(candidates)) > 1
    # Some keys merge moves that build different graphs.
    assert merged


def test_equal_move_keys_give_equal_objectives():
    rng = np.random.default_rng(20)
    merged = 0
    for n in (2, 5, 10, 17, 24, 30):
        g = twinned_graph(n, rng)
        for candidates in moves_by_key(g).values():
            if len(set(candidates)) < 2:
                continue
            merged += 1
            for objective in ("bn_gap_negated", "lambda1"):
                cfg = SearchConfig(seed=0, n=n, k4_constrained=False,
                                   objective=objective)
                scored = [_objective(cfg, c, adjacency_matrix(c), c.m)
                          for c in candidates]
                objs = [obj for obj, _ in scored]
                if objs[0] == float("-inf"):
                    assert set(objs) == {float("-inf")}
                    continue
                report = scored[0][1]
                assert {(r.m, r.omega, r.bound) for _, r in scored} == \
                    {(report.m, report.omega, report.bound)}
                assert max(objs) - min(objs) <= 1e-12 * max(1.0, report.bound)
    assert merged
