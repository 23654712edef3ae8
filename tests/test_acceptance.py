"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.
"""

import math
import os

import numpy as np
import pytest

from bngap.conjecture import (
    bn_report_multipartite,
    hoffman_bound,
    hoffman_ratio_check,
    multipartite_columns,
    multipartite_report,
    obstruction_report,
)
from bngap.graphs import (
    PartSizes,
    complete_multipartite,
    independence_number,
    triangle_count,
    turan_graph,
)
from bngap.multipartite import multipartite_spectrum, secular_roots
from bngap.search import exhaustive_check, random_graph, zykov_trajectory
from bngap.spectra import eigenvalues
from bngap.stability import (
    edit_distance_exact,
    edit_distance_local,
    stability_experiment,
)

import _acceptance_log
from corpus import CORPUS, cycle_graph
from test_graphs import all_partitions
from test_spectra import weyl_check


def report(line: str) -> None:
    print(f"\n{line}")
    _acceptance_log.LINES.append(line)


def oracle_partitions(n_max: int):
    """All partitions with at least two parts, n up to n_max."""
    for n in range(2, n_max + 1):
        for parts in all_partitions(n):
            if len(parts) >= 2:
                yield PartSizes(parts)


def test_criterion_1_secular_vs_dense_oracle():
    cases = 0
    worst = 0.0
    for ps in oracle_partitions(17):
        cases += 1
        flat = np.asarray(multipartite_spectrum(ps).values)
        dense = eigenvalues(complete_multipartite(ps))[::-1]
        scale = max(1.0, float(np.abs(dense).max()))
        err = float(np.max(np.abs(flat - dense))) / scale
        worst = max(worst, err)
        assert err <= 1e-9, (ps, err)
    assert cases >= 1000
    report(f"ACCEPTANCE 1: PASS - secular vs dense on {cases} partitions "
           f"(all n<=12 included, extended to n<=17); worst rel err {worst:.2e}")


def test_criterion_2_sign_structure():
    checked = 0
    for ps in oracle_partitions(17):
        checked += 1
        roots = secular_roots(ps)
        assert sum(1 for r in roots if r > 0) == 1, ps
        flat = multipartite_spectrum(ps).values
        if ps.n > ps.r:
            assert abs(flat[1]) <= 1e-10, ps
            dense = eigenvalues(complete_multipartite(ps))[::-1]
            assert abs(dense[1]) <= 1e-10, ps
        else:
            expected = (ps.r - 1.0,) + (-1.0,) * (ps.r - 1)
            assert max(abs(a - b) for a, b in zip(flat, expected)) <= 1e-10, ps
    report(f"ACCEPTANCE 2: PASS - lambda2 sign structure on {checked} cases")


def test_criterion_3_multipartite_sweep_30_6():
    # The rows of one batched call, of which bn_report_multipartite is the
    # one-row case.
    rows = [parts for n in range(2, 31) for parts in all_partitions(n)
            if 2 <= len(parts) <= 6]
    columns, note = multipartite_columns(rows)
    total = equality = excluded = 0
    min_gap = float("inf")
    for i, parts in enumerate(rows):
        r = multipartite_report(columns, note, rows, i)
        total += 1
        if r.excluded:
            excluded += 1
            assert not r.equality
            continue
        assert r.gap >= -1e-9, (parts, r.gap)
        min_gap = min(min_gap, r.gap)
        balanced = all(s == parts[0] for s in parts)
        expect_equality = len(parts) == 2 or balanced
        assert r.equality == expect_equality, (parts, r.gap)
        if r.equality:
            equality += 1
    report(f"ACCEPTANCE 3: PASS - sweep(30,6): {total} reports, 0 violations,"
           f" equality at all-bipartite + balanced r>=3 ({equality} cases,"
           f" {excluded} excluded, min gap {min_gap:.2e})")


def test_criterion_4_complete_graph_exclusion_arithmetic():
    for n in range(3, 31):
        r = bn_report_multipartite(PartSizes((1,) * n))
        assert r.excluded
        assert abs((r.lhs - r.bound) - 1.0) <= 1e-8, n
    report("ACCEPTANCE 4: PASS - K_n violates by exactly 1 for 3<=n<=30")


def test_criterion_5_exhaustive_small_graphs():
    res = exhaustive_check(6)
    assert res.summary.violations == 0
    labeled = res.summary.total
    atlas_note = ""
    nx = pytest.importorskip("networkx")
    lines = []
    for g in nx.graph_atlas_g()[1:]:  # index 0 is the order-0 graph
        lines.append(nx.to_graph6_bytes(g, header=False).decode().strip())
    res = exhaustive_check(lines)
    assert not res.malformed
    assert res.summary.violations == 0
    atlas_note = (f"; isomorph-free atlas n<=7: {res.summary.total} applicable,"
                  f" 0 violations")
    external = os.environ.get("BNGAP_GRAPH6_CORPUS")
    extra = ""
    if external:
        with open(external, "r", encoding="utf-8") as fh:
            res = exhaustive_check(fh)
        assert res.summary.violations == 0
        extra = f"; external corpus: {res.summary.total} graphs, 0 violations"
    else:
        extra = "; external n=8 corpus not provided (set BNGAP_GRAPH6_CORPUS)"
    report(f"ACCEPTANCE 5: PASS - built-in n<=6 ({labeled} applicable"
           f" labeled graphs, 0 violations){atlas_note}{extra}")


def test_criterion_6_zykov_monotonicity_1000_trajectories():
    rng = np.random.default_rng(20240131)
    findings = []
    for seed in range(1000):
        n = int(rng.integers(4, 21))
        g = random_graph(n, float(rng.random()), rng)
        tr = zykov_trajectory(g, 20, seed=seed)
        findings.extend(tr.findings)
        omegas = [tr.initial_omega] + [s.omega for s in tr.steps]
        assert all(b <= a for a, b in zip(omegas, omegas[1:])), seed
        lams = [tr.initial_lambda1] + [s.lambda1 for s in tr.steps]
        assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:])), seed
    assert findings == []
    report("ACCEPTANCE 6: PASS - 1000 trajectories (n<=20, 20 steps):"
           " omega never up, lambda1 never down beyond 1e-9, 0 findings")


def test_criterion_7a_hoffman_bound_vs_alpha_whole_corpus():
    """A Hoffman eigenvalue bound is at least alpha on the whole corpus.

    The bound checked is the minimum-degree form that holds for every graph
    (W. H. Haemers, "Interlacing eigenvalues and graphs", Linear Algebra
    Appl. 226-228, 1995):

        alpha <= B := n (-lambda1 lambda_n) / (delta^2 - lambda1 lambda_n),

    with delta the minimum degree.  Its denominator is positive whenever
    m >= 1, and delta = 0 gives B = n.  For every corpus graph with an edge:

    1. B >= alpha - 1e-8;
    2. on regular graphs, where delta = lambda1, B equals ``hoffman_bound``
       (the ratio bound -n lambda_n / (lambda1 - lambda_n)) within
       1e-9 max(1, B);
    3. ``hoffman_bound`` <= B + 1e-9, because delta <= lambda1;
    4. the ratio bound falls below alpha on at least one irregular graph
       (e.g. the 3-vertex path: 1.5 < 2).  Those graphs are listed in the
       PASS line and pinned in tests/test_findings.py.
    """
    regular = irregular = 0
    ratio_below_alpha = []
    for name, g in CORPUS:
        if g.m < 1:
            continue
        vals = eigenvalues(g)
        lam1, lamn = vals[-1], vals[0]
        degrees = [g.degree(u) for u in range(g.n)]
        delta = min(degrees)
        b = g.n * (-lam1 * lamn) / (delta * delta - lam1 * lamn)
        alpha = independence_number(g)
        ratio = hoffman_bound(g)
        assert b >= alpha - 1e-8, (name, b, alpha)
        assert ratio <= b + 1e-9, (name, ratio, b)
        if delta == max(degrees):
            regular += 1
            assert abs(b - ratio) <= 1e-9 * max(1.0, b), (name, b, ratio)
        else:
            irregular += 1
            if ratio < alpha - 1e-8:
                ratio_below_alpha.append(name)
    assert ratio_below_alpha, "no irregular corpus graph where ratio < alpha"
    report(f"ACCEPTANCE 7a: PASS - min-degree Hoffman bound >= alpha on "
           f"{regular} regular and {irregular} irregular corpus graphs; equals"
           f" the ratio bound on the regular ones; the ratio bound falls below"
           f" alpha on {len(ratio_below_alpha)} irregular graphs: "
           f"{', '.join(ratio_below_alpha)}")


def test_criterion_7b_half_ratio_on_applicable_corpus():
    applicable = 0
    for name, g in CORPUS:
        check = hoffman_ratio_check(g)
        if check.applicable:
            applicable += 1
            assert check.ratio >= 0.5 - 1e-9, (name, check.ratio)
    assert applicable >= 5
    report(f"ACCEPTANCE 7b: PASS - |lambda_n| >= lambda1/2 on {applicable} "
           f"applicable corpus graphs (NOTE: refuted in general by the "
           f"5-wheel, ratio 0.4691; see tests/test_findings.py)")


def test_criterion_7c_obstruction_on_applicable_corpus():
    applicable = 0
    for name, g in CORPUS:
        o = obstruction_report(g)
        if not o.applicable:
            continue
        applicable += 1
        assert o.lhs_within_bound, name
        assert o.bound_exceeds_four_thirds, name
        assert o.lambda1_sq_below_eight_thirds, name
    assert applicable >= 5
    report(f"ACCEPTANCE 7c: PASS - energy bound holds and overshoots 4m/3 on "
           f"{applicable} applicable corpus graphs")


def test_criterion_8_trace_identities_corpus():
    checked = 0
    for name, g in CORPUS:
        if g.n > 64:
            continue
        checked += 1
        vals = eigenvalues(g)
        assert abs(vals.sum()) <= 1e-8 * g.n, name
        assert abs((vals ** 2).sum() - 2 * g.m) <= 1e-8 * max(1, 2 * g.m), name
        assert abs((vals ** 3).sum() - 6 * triangle_count(g)) <= 1e-6, name
    report(f"ACCEPTANCE 8: PASS - trace identities (sum, squares=2m,"
           f" cubes=6t3) on {checked} corpus graphs")


def test_criterion_9_weyl_suite():
    rng = np.random.default_rng(777)
    for _ in range(500):
        n = int(rng.integers(4, 41))
        g = random_graph(n, float(rng.random()), rng)
        h = g
        for _ in range(int(rng.integers(1, 11))):
            u, v = rng.integers(n), rng.integers(n)
            if u == v:
                continue
            u, v = int(u), int(v)
            h = h.without_edge(u, v) if h.has_edge(u, v) else h.with_edge(u, v)
        r = weyl_check(g, h, tol=1e-9)
        assert r.passes, (n, r)
    for trial in range(100):
        n = int(rng.integers(6, 31))
        base = turan_graph(n, 3)
        edges = base.edges()
        k = int(rng.integers(1, 11))
        g = base
        for idx in rng.choice(len(edges), size=min(k, len(edges)),
                              replace=False):
            g = g.without_edge(*edges[int(idx)])
        k_eff = base.m - g.m
        lam2 = eigenvalues(g)[-2]
        assert abs(lam2) <= math.sqrt(2 * k_eff) + 1e-9, (n, k_eff, lam2)
    report("ACCEPTANCE 9: PASS - 500 perturbation pairs inside the spectral-"
           "norm bound; |lambda2| <= sqrt(2k) near tripartite (100 cases)")


def test_criterion_10_edit_distance_oracle():
    assert edit_distance_exact(cycle_graph(5)).edits == 3
    k4 = complete_multipartite(PartSizes((1, 1, 1, 1)))
    assert edit_distance_exact(k4).edits == 1
    matched = 0
    for seed in range(200):
        rng = np.random.default_rng(np.random.PCG64(seed))
        n = int(rng.integers(4, 11))
        g = random_graph(n, float(rng.random()), rng)
        exact = edit_distance_exact(g).edits
        local = edit_distance_local(g, restarts=8, seed=seed).edits
        assert local >= exact, seed
        matched += local == exact
    assert matched >= 190
    report(f"ACCEPTANCE 10: PASS - local search never beats exact and matched"
           f" on {matched}/200 instances; d(C5)=3, d(K4)=1")


def test_criterion_11_stability_experiment():
    rows = stability_experiment(12, list(range(11)), samples=50, seed=2024)
    assert len(rows) == 11 * 50
    for row in rows:
        if row["k"] == 0:
            assert abs(row["lambda1_sq_over_m"] - 4 / 3) <= 1e-9
            assert row["edits"] == 0
        assert row["edits_normalized"] <= row["k"] / 144 + 1e-12, row
    report("ACCEPTANCE 11: PASS - stability rows: k=0 sits at 4/3 with 0"
           " edits; normalized edits <= k/n^2 per sample (n=12, k<=10,"
           " 50 samples)")
