"""Secular-equation spectra against the dense eigensolver oracle."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from bngap.conjecture import (
    BIPARTITE_NOTE,
    BnReport,
    bn_report_multipartite,
    gap_terms,
)
from bngap.graphs import PartSizes, complete_multipartite
from bngap.jsonutil import dumps
from bngap.multipartite import (
    multipartite_spectrum,
    multipartite_tag,
    secular_root_range,
    secular_roots,
    secular_value,
)
from bngap.spectra import adjacency_matrix, eigenvalues

from test_graphs import all_partitions
from test_search import sweep_reports

GOLDEN = (1 + math.sqrt(5))  # positive secular root of parts (2,2,1)

# Uneven partitions far beyond the enumerated range, n from 352 to 494.
LARGE_PARTS = (
    tuple(range(1, 30)) + (5,) * 10,
    (200, 100, 50, 1, 1),
    (97, 89, 83, 79, 73, 71),
    (300, 150, 20, 7, 7, 7, 2, 1),
)


def distinct_sizes(parts: PartSizes) -> list[tuple[int, int]]:
    """Distinct part sizes with their multiplicities, largest size first,
    read off the runs of equal sizes independently of the library."""
    return [(size, len(list(run))) for size, run in itertools.groupby(parts.sizes)]


def part_sizes_upto(n_max):
    for n in range(2, n_max + 1):
        for parts in all_partitions(n):
            if len(parts) >= 2:
                yield PartSizes(parts)


class TestSecularFunction:
    def test_values(self):
        assert secular_value(PartSizes((2, 2, 2)), 4.0) == pytest.approx(1.0)
        assert secular_value(PartSizes((2, 2, 2)), 0.0) == pytest.approx(3.0)
        assert secular_value(PartSizes((1, 1)), 1.0) == pytest.approx(1.0)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            secular_value(PartSizes((2, 3)), -3.0)
        with pytest.raises(ValueError):
            secular_value(PartSizes((2, 2, 1)), -2.0)

    def test_value_at_zero_is_r(self):
        for ps in part_sizes_upto(9):
            assert secular_value(ps, 0.0) == pytest.approx(ps.r)


class TestSecularRoots:
    def test_examples(self):
        assert secular_roots(PartSizes((2, 2, 2))) == pytest.approx((4.0,), abs=1e-12)
        roots = secular_roots(PartSizes((1, 2, 2)))
        assert roots == pytest.approx((GOLDEN, 2 - GOLDEN), abs=1e-12)
        assert secular_roots(PartSizes((1, 1, 1))) == pytest.approx((2.0,), abs=1e-12)

    def test_exactly_one_positive_and_interlacing(self):
        for ps in part_sizes_upto(14):
            roots = secular_roots(ps)
            dist = distinct_sizes(ps)
            assert len(roots) == len(dist)
            assert sum(1 for r in roots if r > 0) == 1
            smallest_size = dist[-1][0]
            assert all(r <= -smallest_size for r in roots[1:])
            # each non-positive root sits strictly between its poles
            for k, root in enumerate(roots[1:], start=1):
                hi_pole = -dist[len(dist) - 1 - k][0]
                lo_pole = -dist[len(dist) - k][0]
                assert hi_pole < root < lo_pole

    def test_roots_solve_equation(self):
        for ps in part_sizes_upto(12):
            for root in secular_roots(ps):
                assert secular_value(ps, root) == pytest.approx(1.0, abs=1e-9)


def single_solve(parts: PartSizes) -> tuple[float, ...]:
    """The secular roots from one eigvalsh call on one matrix, descending."""
    dist = distinct_sizes(parts)
    tp = np.array([p * t for p, t in dist], dtype=float)
    matrix = np.sqrt(np.outer(tp, tp)) - np.diag([float(p) for p, _ in dist])
    return tuple(np.linalg.eigvalsh(matrix)[::-1].tolist())


def bits(values) -> list[str]:
    return [float(x).hex() for x in values]


def report_bits(report: BnReport) -> list[tuple[type, object]]:
    """Each field of ``report`` with its type, a float as its hex bits."""
    return [(type(v), float.hex(v) if isinstance(v, float) else v)
            for v in dataclasses.astuple(report)]


def sampled_partitions_of_60(count: int, seed: int = 0) -> list[PartSizes]:
    """Partitions of 60 with at least 2 parts: parts drawn until the rest
    is used up, each size uniform in 1..rest."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        rest, sizes = 60, []
        while rest:
            sizes.append(int(rng.integers(1, rest + 1)))
            rest -= sizes[-1]
        if len(sizes) >= 2:
            out.append(PartSizes(tuple(sizes)))
    return out


def scalar_report_multipartite(parts: PartSizes) -> BnReport:
    """Gap report for a complete multipartite graph via its exact spectrum,
    one partition at a time with Python scalars.

    The eigenvalues are the secular roots, the poles -p (p a size that
    occurs t >= 2 times) and, when n > r, zero.  The smallest root lies
    above the largest pole -p_max and below every other pole, so lambda_n is
    the least of that root, -p_max when p_max occurs twice or more, and
    zero.  The library derives the same reports as numpy columns
    (``multipartite_columns``); these scalar rules are the reference they
    are held to.
    """
    roots = secular_roots(parts)
    sizes = parts.sizes
    n, r = parts.n, parts.r
    lam_n = roots[-1]
    if sizes[1] == sizes[0]:
        lam_n = min(lam_n, float(-sizes[0]))
    if n > r:
        lam_n = min(lam_n, 0.0)
    m = (n * n - sum(s * s for s in sizes)) // 2
    lam1, lam2 = roots[0], 0.0 if n > r else -1.0
    terms = gap_terms(n, m, r, lam1, lam2)
    source = multipartite_tag(sizes)
    if r == 2 and terms[4] and sizes[0] != sizes[1]:
        source += BIPARTITE_NOTE
    return BnReport(n, m, r, lam1, lam2, lam_n, *terms, source)


# Every partition with n <= 30 and 2..8 parts, in sweep order.
SWEEP_30_8 = [PartSizes(parts) for n in range(2, 31)
              for parts in sorted(all_partitions(n)) if 2 <= len(parts) <= 8]


class TestBatchedSecularRoots:
    def test_equal_to_single_solves_bit_for_bit(self):
        cases = SWEEP_30_8 + sampled_partitions_of_60(500)
        assert len({len(distinct_sizes(ps)) for ps in cases}) >= 8
        for ps in cases:
            assert bits(secular_roots(ps)) == bits(single_solve(ps)), ps.sizes

    def test_root_range_equals_single_solves_bit_for_bit(self):
        cases = (SWEEP_30_8 + sampled_partitions_of_60(500)
                 + [PartSizes(p) for p in LARGE_PARTS])
        sizes = np.zeros((len(cases), max(ps.r for ps in cases)), np.int64)
        for row, ps in zip(sizes, cases):
            row[:ps.r] = ps.sizes
        largest, smallest = secular_root_range(sizes)
        for ps, hi, lo in zip(cases, largest.tolist(), smallest.tolist()):
            roots = single_solve(ps)
            assert bits([hi, lo]) == bits([roots[0], roots[-1]]), ps.sizes

    def test_direct_lambda_n_matches_values(self):
        for ps in SWEEP_30_8 + sampled_partitions_of_60(500, seed=1):
            flat = multipartite_spectrum(ps).values
            assert bits([scalar_report_multipartite(ps).lambda_n]) == bits([flat[-1]])

    def test_sweep_reports_equal_single_path(self):
        notes = 0
        for ps, report in zip(SWEEP_30_8, sweep_reports(30, 8), strict=True):
            single = dataclasses.asdict(scalar_report_multipartite(ps))
            assert dataclasses.asdict(report) == single, ps.sizes
            notes += "note" in report.source
        assert notes > 0

    def test_one_row_report_is_the_scalar_report_at_the_vertex_cap(self):
        # Unequal and equal bipartite, every Turan graph T(2048, r) with
        # r = 3..8, and the uneven large partitions.
        turan = []
        for r in range(3, 9):
            q, extra = divmod(2048, r)
            turan.append((q + 1,) * extra + (q,) * (r - extra))
        cases = [(2047, 1), (1024, 1024), *turan, *LARGE_PARTS]
        for sizes in cases:
            ps = PartSizes(sizes)
            got, want = bn_report_multipartite(ps), scalar_report_multipartite(ps)
            assert report_bits(got) == report_bits(want), sizes
            assert dumps(dataclasses.asdict(got)) == dumps(
                dataclasses.asdict(want)), sizes
        assert bn_report_multipartite(PartSizes((2047, 1))).source.endswith(
            BIPARTITE_NOTE)


class TestSpectrumAssembly:
    def test_examples(self):
        flat = multipartite_spectrum(PartSizes((2, 2, 2))).values
        assert flat == pytest.approx((4, 0, 0, 0, -2, -2), abs=1e-12)
        flat = multipartite_spectrum(PartSizes((1, 2, 2))).values
        assert flat == pytest.approx((GOLDEN, 0, 0, 2 - GOLDEN, -2), abs=1e-12)
        flat = multipartite_spectrum(PartSizes((1, 1, 1, 1))).values
        assert flat == pytest.approx((3, -1, -1, -1), abs=1e-12)

    def test_multiplicity_accounting(self):
        for ps in part_sizes_upto(12):
            spec = multipartite_spectrum(ps)
            assert (spec.n, spec.m) == (ps.n, complete_multipartite(ps).m)
            s = len(spec.secular_roots)
            pole_total = sum(mult for _, mult in spec.pole_eigenvalues)
            assert s + pole_total + spec.zero_multiplicity == ps.n
            assert (spec.zero_multiplicity >= 1) == (ps.n > ps.r)

    def test_oracle_equivalence_n12(self):
        for ps in part_sizes_upto(12):
            flat = np.asarray(multipartite_spectrum(ps).values)
            dense = eigenvalues(complete_multipartite(ps))[::-1]
            scale = max(1.0, float(abs(dense).max()))
            assert float(np.max(np.abs(flat - dense))) <= 1e-9 * scale, ps
        for sizes in LARGE_PARTS:
            ps = PartSizes(sizes)
            spec = multipartite_spectrum(ps)
            flat = np.asarray(spec.values)
            dense = eigenvalues(complete_multipartite(ps))[::-1]
            radius = float(abs(dense).max())
            assert float(np.max(np.abs(flat - dense))) <= 1e-12 * radius, sizes
            # Strict interlacing: pole_0 < root_0 < pole_1 < ... < root_{s-1},
            # ascending, with the largest root positive.
            poles = [-p for p, _ in distinct_sizes(ps)]
            chain = [x for pair in zip(poles, sorted(spec.secular_roots))
                     for x in pair]
            assert all(a < b for a, b in zip(chain, chain[1:])), sizes
            assert spec.secular_roots[0] > 0, sizes

    def test_trace_identities_exact_path(self):
        for ps in part_sizes_upto(12):
            spec = multipartite_spectrum(ps)
            flat, m = np.asarray(spec.values), spec.m
            assert abs(flat.sum()) <= 1e-9 * max(1.0, 2.0 * m)
            assert abs((flat ** 2).sum() - 2 * m) <= 1e-9 * max(1.0, 2.0 * m)

    def test_lambda2(self):
        assert bn_report_multipartite(PartSizes((2, 3))).lambda2 == 0.0
        assert bn_report_multipartite(PartSizes((1, 1, 1))).lambda2 == -1.0
        assert bn_report_multipartite(PartSizes((5, 5))).lambda2 == 0.0
        for ps in part_sizes_upto(11):
            flat = multipartite_spectrum(ps).values
            assert flat[1] == pytest.approx(bn_report_multipartite(ps).lambda2,
                                            abs=1e-10)


@dataclasses.dataclass(frozen=True)
class ZeroBasisVector:
    """A +1/-1 difference vector inside one part, annihilated by the adjacency."""

    part_index: int
    member_index: int
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.coefficients) != 0:
            raise ValueError("coefficients must sum to zero")


def zero_eigenbasis(parts: PartSizes) -> list[ZeroBasisVector]:
    """The n - r within-part difference vectors spanning the zero eigenspace.

    Vector (i, k) has +1 at the k-th vertex of part i and -1 at the last
    vertex of that part; vectors from distinct parts have disjoint supports.
    An oracle for the zero multiplicity n - r of the exact spectrum.
    """
    n = parts.n
    out = []
    for i, (size, start) in enumerate(zip(parts.sizes, parts.offsets())):
        last = start + size - 1
        for k in range(size - 1):
            coeffs = [0] * n
            coeffs[start + k] = 1
            coeffs[last] = -1
            out.append(ZeroBasisVector(i, k, tuple(coeffs)))
    return out


_POLE_GUARD = 1e-9


def quotient_eigenvector(parts: PartSizes, root: float) -> tuple[float, ...]:
    """Part-constant coefficients c_i = 1/(root + n_i) of a secular root.

    Normalized so that sum_i n_i c_i = 1; lifting c to the full vertex set
    (value c_i on every vertex of part i) gives an eigenvector for `root`.
    An oracle that each secular root is an eigenvalue of the graph.
    """
    for p, _ in distinct_sizes(parts):
        if abs(root + p) <= _POLE_GUARD:
            raise ValueError(f"root {root} is within {_POLE_GUARD} of pole {-p}")
    return tuple(1.0 / (root + s) for s in parts.sizes)


class TestZeroEigenbasis:
    def test_counts(self):
        assert len(zero_eigenbasis(PartSizes((2, 3)))) == 3
        assert zero_eigenbasis(PartSizes((1, 1, 1))) == []
        vecs = zero_eigenbasis(PartSizes((2, 2)))
        assert len(vecs) == 2
        assert sum(a * b for a, b in zip(vecs[0].coefficients,
                                         vecs[1].coefficients)) == 0

    def test_exact_integer_annihilation(self):
        for ps in part_sizes_upto(10):
            g = complete_multipartite(ps)
            vecs = zero_eigenbasis(ps)
            assert len(vecs) == ps.n - ps.r
            for vec in vecs:
                assert sum(vec.coefficients) == 0
                assert sum(1 for c in vec.coefficients if c) == 2
                for w in range(g.n):
                    assert sum(vec.coefficients[v] for v in range(g.n)
                               if g.adj[w] >> v & 1) == 0

    def test_cross_part_orthogonality(self):
        vecs = zero_eigenbasis(PartSizes((3, 3, 2)))
        by_part = {}
        for vec in vecs:
            by_part.setdefault(vec.part_index, []).append(vec)
        parts = sorted(by_part)
        for i in parts:
            for j in parts:
                if i >= j:
                    continue
                for a in by_part[i]:
                    for b in by_part[j]:
                        assert sum(x * y for x, y in zip(a.coefficients,
                                                         b.coefficients)) == 0


class TestQuotientEigenvector:
    def test_examples(self):
        assert quotient_eigenvector(PartSizes((2, 2, 2)), 4.0) == pytest.approx(
            (1 / 6, 1 / 6, 1 / 6))
        # canonical order is sizes descending: (2, 2, 1)
        assert quotient_eigenvector(PartSizes((1, 2, 2)), GOLDEN) == pytest.approx(
            (1 / (2 + GOLDEN), 1 / (2 + GOLDEN), 1 / (1 + GOLDEN)))
        assert quotient_eigenvector(PartSizes((3, 3)), 3.0) == pytest.approx(
            (1 / 6, 1 / 6))

    def test_near_pole_rejected(self):
        with pytest.raises(ValueError):
            quotient_eigenvector(PartSizes((2, 3)), -3.0 + 1e-12)

    def test_lift_satisfies_eigen_equation(self):
        for ps in part_sizes_upto(11):
            g = complete_multipartite(ps)
            a = adjacency_matrix(g)
            for root in secular_roots(ps):
                coeffs = quotient_eigenvector(ps, root)
                lifted = np.repeat(coeffs, ps.sizes)
                assert np.max(np.abs(a @ lifted - root * lifted)) <= 1e-8
                assert float(np.dot(ps.sizes, coeffs)) == pytest.approx(1.0)


def closed_forms(parts: PartSizes) -> np.ndarray | None:
    """Exact spectrum for the closed-form families, without root finding,
    sorted non-increasing.

    Covers complete bipartite graphs (+-sqrt(ab) and zeros), complete graphs
    (r-1 and -1 repeated), and balanced r-partite graphs ((r-1)p, zeros, -p
    repeated); returns None for anything else.  An oracle independent of the
    secular path.
    """
    sizes = parts.sizes
    n, r = parts.n, parts.r
    if r == 2:
        a, b = sizes
        ab = a * b
        lam = float(math.isqrt(ab)) if math.isqrt(ab) ** 2 == ab else math.sqrt(ab)
        return np.array((lam,) + (0.0,) * (n - 2) + (-lam,))
    if all(s == sizes[0] for s in sizes):
        p = sizes[0]
        return np.array((float((r - 1) * p),) + (0.0,) * (n - r)
                        + (float(-p),) * (r - 1))
    return None


class TestClosedForms:
    def test_examples(self):
        assert closed_forms(PartSizes((4, 4))) == pytest.approx(
            (4,) + (0,) * 6 + (-4,))
        assert closed_forms(PartSizes((1, 1, 1, 1, 1))) == pytest.approx(
            (4, -1, -1, -1, -1))
        assert closed_forms(PartSizes((3, 3, 3))) == pytest.approx(
            (6,) + (0,) * 6 + (-3, -3))
        assert closed_forms(PartSizes((1, 2, 2))) is None

    def test_matches_secular_path(self):
        for ps in part_sizes_upto(13):
            cf = closed_forms(ps)
            if cf is None:
                continue
            spec = multipartite_spectrum(ps)
            assert np.max(np.abs(cf - spec.values)) <= 1e-12
            # secular_roots builds these families' matrices exactly.
            assert spec.secular_roots[0] == cf[0], ps
