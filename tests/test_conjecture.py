"""Gap reports, the spectral bound, and the Hoffman-route diagnostics.

``spectral_turan_check`` is an oracle for Nikiforov's spectral Turán bound
lambda1 <= sqrt(2 (1 - 1/omega) m), the step the paper's multipartite proof
applies after lambda2 = 0.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bngap.conjecture import (
    GAP_TOL,
    OutOfDomainError,
    bn_report,
    bn_report_multipartite,
    gap_terms,
    hoffman_bound,
    hoffman_ratio_check,
    obstruction_report,
)
from bngap.graphs import (
    Graph,
    PartSizes,
    clique_number,
    complete_multipartite,
    independence_number,
    is_k4_free,
    turan_graph,
)

from bngap.search import _labeled_invariants, _labeled_stack
from bngap.spectra import eigenvalues

from corpus import CORPUS, cycle_graph
from test_graph_properties import graphs, no_deadline
from test_graphs import all_partitions

GOLDEN = 1 + math.sqrt(5)
C5_LAMBDA2 = 2 * math.cos(2 * math.pi / 5)


@dataclass(frozen=True)
class TuranCheck:
    lambda1: float
    bound: float
    slack: float
    passes: bool


def spectral_turan_check(g: Graph) -> TuranCheck:
    """Check lambda1 <= sqrt(2 (1 - 1/omega) m) and report the slack."""
    if g.n < 2 or g.m < 1:
        raise OutOfDomainError("spectral bound needs omega >= 2")
    lam1 = eigenvalues(g)[-1]
    bound = math.sqrt(2.0 * (1.0 - 1.0 / clique_number(g)) * g.m)
    return TuranCheck(lam1, bound, bound - lam1, lam1 <= bound + GAP_TOL)


def complete(n):
    return complete_multipartite(PartSizes((1,) * n))


class TestBnReport:
    def test_k5(self):
        r = bn_report(complete(5), "K5")
        assert r.lhs == pytest.approx(17.0, abs=1e-9)
        assert r.bound == pytest.approx(16.0)
        assert r.excluded and not r.holds and not r.equality

    def test_k222_equality(self):
        r = bn_report(complete_multipartite(PartSizes((2, 2, 2))), "K222")
        assert r.lhs == pytest.approx(16.0, abs=1e-8)
        assert r.bound == pytest.approx(16.0)
        assert r.holds and r.equality and not r.excluded

    def test_c5(self):
        r = bn_report(cycle_graph(5), "C5")
        assert r.lhs == pytest.approx(4 + C5_LAMBDA2 ** 2, abs=1e-9)
        assert r.bound == pytest.approx(5.0)
        assert r.holds and not r.equality

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            bn_report(Graph(4, (0, 0, 0, 0)))
        with pytest.raises(OutOfDomainError):
            bn_report(Graph(1, (0,)))

    def test_json_field_names(self):
        r = bn_report(cycle_graph(5), "C5")
        assert list(asdict(r)) == [
            "n", "m", "omega", "lambda1", "lambda2", "lambda_n", "bound",
            "lhs", "gap", "holds", "equality", "excluded", "source",
        ]
        json.dumps(asdict(r))  # serializable

    def test_kn_violation_arithmetic(self):
        for n in range(3, 31):
            r = bn_report(complete(n), f"K{n}")
            assert r.excluded
            assert r.lhs - r.bound == pytest.approx(1.0, abs=1e-8)


def gap_cases():
    """(n, m, omega, lam1, lam2) rows.  At omega = 2 the bound is m, here
    below 1, exactly 1 and above 1; the gaps sit on both sides of the
    equality threshold, and one gap is NaN.  Two rows test exclusion."""
    rows = []
    for m in (0.25, 1.0, 7.0):
        tol = GAP_TOL * max(1.0, m)
        for offset in (-3, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 3):
            rows.append((5, m, 2, math.sqrt(m - offset * tol), 0.0))
        rows.append((5, m, 2, math.nan, 0.0))
    return rows + [(4, 6, 4, 3.0, -1.0), (4, 5, 3, 2.5, 0.0)]


class TestGapTerms:
    def test_scalars_give_bools_of_the_max_form(self):
        seen = set()
        for n, m, omega, lam1, lam2 in gap_cases():
            bound, lhs, gap, holds, equality, excluded = gap_terms(
                n, m, omega, lam1, lam2)
            assert {type(holds), type(equality), type(excluded)} == {bool}
            assert equality == (abs(gap) <= GAP_TOL * max(1.0, bound))
            assert holds == (gap >= -GAP_TOL * max(1.0, bound))
            assert excluded == (m == n * (n - 1) // 2)
            seen.add((bound, equality))
        # Each bound class has gaps inside and outside the threshold.
        assert {(b, e) for b in (0.25, 1.0, 7.0) for e in (True, False)} <= seen

    def test_columns_match_scalars(self):
        rows = gap_cases()
        columns = gap_terms(*(np.array(col) for col in zip(*rows)))
        bound, gap, equality = columns[0], columns[2], columns[4]
        assert (equality == (np.abs(gap) <= GAP_TOL * np.maximum(1.0, bound))).all()
        for k, row in enumerate(rows):
            for column, value in zip(columns, gap_terms(*row)):
                assert column[k] == value or (math.isnan(value)
                                              and math.isnan(column[k]))

    def test_recorded_turan_1500_3_holds(self):
        # T(1500, 3) as the dense eigensolve returns it: lhs ~ 1e6 carries a
        # rounding error of a few 1e-9, so the exact equality case has
        # gap = -3.7e-9, below the absolute tolerance.
        bound, _, gap, holds, equality, excluded = gap_terms(
            1500, 750000, 3, 1000.0000000000019, 1.3965e-11)
        assert gap < -GAP_TOL
        assert equality and holds and not excluded

    @no_deadline
    @given(m=st.integers(1, 2_000_000), omega=st.integers(2, 40),
           rel=st.floats(-1e-8, 1e-8))
    def test_equality_implies_holds_near_the_bound(self, m, omega, rel):
        bound = 2.0 * (1.0 - 1.0 / omega) * m
        lam1, lam2 = math.sqrt(bound * (1.0 + rel)), 0.0
        _, _, _, holds, equality, _ = gap_terms(2 * m, m, omega, lam1, lam2)
        assert holds or not equality
        columns = gap_terms(*(np.array([v]) for v in (2 * m, m, omega, lam1, lam2)))
        assert (columns[3] | ~columns[4]).all()

    @no_deadline
    @given(graphs(min_n=2))
    def test_equality_implies_holds_on_graphs(self, g):
        if g.m >= 1:
            r = bn_report(g)
            assert r.holds or not r.equality

    @no_deadline
    @given(n=st.integers(2, 6), data=st.data())
    def test_equality_implies_holds_on_exhaustive_chunks(self, n, data):
        count = 1 << n * (n - 1) // 2
        start = data.draw(st.integers(0, count - 1))
        codes = np.arange(start, min(count, start + 256), dtype=np.int64)
        m, omega = _labeled_invariants(n, codes)
        live = m >= 1
        vals = np.linalg.eigvalsh(_labeled_stack(n, codes[live]))
        _, _, _, holds, equality, _ = gap_terms(
            n, m[live], omega[live], vals[:, -1], vals[:, -2])
        assert (holds | ~equality).all()


class TestBnReportMultipartite:
    def test_balanced_equality(self):
        r = bn_report_multipartite(PartSizes((3, 3, 3)))
        assert abs(r.gap) <= 1e-9 and r.equality

    def test_unbalanced_strict(self):
        r = bn_report_multipartite(PartSizes((1, 2, 2)))
        assert r.lhs == pytest.approx(GOLDEN ** 2, abs=1e-9)
        assert r.bound == pytest.approx(2 * (2 / 3) * 8)
        assert r.holds and not r.equality

    def test_bipartite_equality_with_note(self):
        r = bn_report_multipartite(PartSizes((2, 3)))
        assert r.lhs == pytest.approx(6.0, abs=1e-9) and r.equality
        assert "note" in r.source
        assert "note" not in bn_report_multipartite(PartSizes((3, 3))).source

    def test_complete_graph_excluded(self):
        r = bn_report_multipartite(PartSizes((1, 1, 1)))
        assert r.excluded and not r.holds

    def test_agrees_with_numeric_path_n12(self):
        for n in range(2, 13):
            for parts in all_partitions(n):
                if len(parts) < 2:
                    continue
                ps = PartSizes(parts)
                exact = bn_report_multipartite(ps)
                numeric = bn_report(complete_multipartite(ps), "numeric")
                assert exact.omega == numeric.omega
                assert exact.m == numeric.m
                assert exact.excluded == numeric.excluded
                for field in ("lambda1", "lambda2", "lambda_n", "bound",
                              "lhs", "gap"):
                    assert getattr(exact, field) == pytest.approx(
                        getattr(numeric, field), abs=1e-8), (ps, field)


class TestSpectralTuran:
    def test_turan_equality(self):
        t = spectral_turan_check(turan_graph(6, 3))
        assert t.slack == pytest.approx(0.0, abs=1e-9) and t.passes

    def test_c5_slack(self):
        t = spectral_turan_check(cycle_graph(5))
        assert t.slack == pytest.approx(math.sqrt(5) - 2, abs=1e-9)

    def test_k122_slack(self):
        t = spectral_turan_check(complete_multipartite(PartSizes((1, 2, 2))))
        assert t.slack == pytest.approx(math.sqrt(32 / 3) - GOLDEN, abs=1e-9)

    def test_corpus_passes(self):
        for name, g in CORPUS:
            if g.m < 1:
                continue
            assert spectral_turan_check(g).passes, name


class TestHoffman:
    def test_examples(self):
        assert hoffman_bound(complete_multipartite(PartSizes((2, 2, 2)))) \
            == pytest.approx(2.0, abs=1e-9)
        assert hoffman_bound(cycle_graph(5)) == pytest.approx(math.sqrt(5), abs=1e-9)
        assert hoffman_bound(complete_multipartite(PartSizes((3, 3)))) \
            == pytest.approx(3.0, abs=1e-9)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            hoffman_bound(Graph(3, (0, 0, 0)))

    def test_upper_bounds_alpha_on_regular_graphs(self):
        # The ratio bound is a theorem for regular graphs (lambda1 equals the
        # degree there); the corpus keeps plenty of them.
        seen = 0
        for name, g in CORPUS:
            if g.m < 1:
                continue
            degrees = {g.degree(u) for u in range(g.n)}
            if len(degrees) != 1:
                continue
            seen += 1
            assert hoffman_bound(g) >= independence_number(g) - 1e-8, name
        assert seen >= 8

    def test_irregular_counterexamples(self):
        # Substituting lambda1 for the degree breaks the bound on irregular
        # graphs; these pinned values document the failure.
        from corpus import path_graph, star_graph

        p3 = path_graph(3)
        assert hoffman_bound(p3) == pytest.approx(1.5, abs=1e-9)
        assert independence_number(p3) == 2
        star = star_graph(5)
        assert hoffman_bound(star) == pytest.approx(3.0, abs=1e-9)
        assert independence_number(star) == 5

    def test_ratio_examples(self):
        h = hoffman_ratio_check(complete_multipartite(PartSizes((2, 2, 2))))
        assert h.applicable and h.ratio == pytest.approx(0.5, abs=1e-9) and h.passes
        h = hoffman_ratio_check(cycle_graph(5))
        assert h.applicable and h.ratio == pytest.approx(GOLDEN / 2 / 2, abs=1e-6)
        assert h.passes
        h = hoffman_ratio_check(complete(4))
        assert not h.applicable and h.ratio is None

    def test_ratio_on_applicable_corpus(self):
        seen = 0
        for name, g in CORPUS:
            h = hoffman_ratio_check(g)
            if h.applicable:
                seen += 1
                assert h.passes, (name, h.ratio)
        assert seen >= 5  # the corpus must actually exercise this


class TestObstruction:
    def test_examples(self):
        o = obstruction_report(complete_multipartite(PartSizes((2, 2, 2))))
        assert o.applicable
        assert o.hoffman_energy_bound == pytest.approx(20.0, abs=1e-8)
        assert o.lhs_within_bound and o.bound_exceeds_four_thirds
        assert o.lambda1_sq_below_eight_thirds

        o = obstruction_report(cycle_graph(5))
        assert o.hoffman_energy_bound == pytest.approx(9.0, abs=1e-9)

        o = obstruction_report(complete_multipartite(PartSizes((3, 3, 3))))
        assert o.hoffman_energy_bound == pytest.approx(45.0, abs=1e-8)

    def test_k3_excluded(self):
        assert not obstruction_report(complete(3)).applicable

    def test_applicable_corpus(self):
        for name, g in CORPUS:
            o = obstruction_report(g)
            if not o.applicable:
                continue
            assert o.lhs_within_bound, name
            assert o.bound_exceeds_four_thirds, name
            assert o.lambda1_sq_below_eight_thirds, name

    def test_applicability_matches_preconditions(self):
        for name, g in CORPUS:
            o = obstruction_report(g)
            expected = (
                g.m >= 1
                and g.n >= 3
                and not (g.n == 3 and g.is_complete())
                and is_k4_free(g)
                and 3 * independence_number(g) >= g.n
            )
            assert o.applicable == expected, name

    def test_two_vertex_graph_not_applicable(self):
        # On K2 the second eigenvalue is the smallest one, so the trace
        # chain behind the bound degenerates; it is out of scope, not a
        # failure.
        o = obstruction_report(complete(2))
        assert not o.applicable and "three eigenvalues" in o.reason


# Each reason the two Hoffman functions give, in gate order: the shared
# domain gate first, so a graph with no edge is reported as such even on
# two vertices, then the obstruction's own n < 3 and triangle gates.
# The complement of C7 has omega = 3 and alpha = 2 < 7/3.
@pytest.mark.parametrize("g, ratio_reason, obstruction_reason", [
    (turan_graph(2, 1), "needs at least one edge", "needs at least one edge"),
    (complete(2), "", "needs at least three eigenvalues"),
    (complete(3), "", "triangle is excluded"),
    (complete(4), "graph contains a K4", "graph contains a K4"),
    (cycle_graph(7).complement(), "independence number below n/3",
     "independence number below n/3"),
], ids=["2K1", "K2", "K3", "K4", "co-C7"])
def test_not_applicable_reasons(g, ratio_reason, obstruction_reason):
    h = hoffman_ratio_check(g)
    assert (h.applicable, h.reason) == (not ratio_reason, ratio_reason)
    o = obstruction_report(g)
    assert (o.applicable, o.reason) == (not obstruction_reason,
                                        obstruction_reason)
