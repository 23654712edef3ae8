"""The chunked exhaustive engine against the per-graph reference loop.

``reference`` is the scalar path: one ``Graph``, one ``bn_report`` and one
``add`` (the per-report summary fold) per record.  The engine must give the
same summary, pass the same violation reports to ``on_violation`` in the
same order and report the same malformed list.  The labeled graphs are
solved one isomorphism class at a time, so the classes of ``_orbits`` and
the rule that sends a class back to graph-by-graph solving (``_unsure``)
are tested on their own too.  ``labeled_graphs``, every labeled graph one
by one, is the oracle of the class-at-a-time engine here and elsewhere in
the suite, and ``orbits_one_class_at_a_time`` of the batched ``_orbits``.
"""

from dataclasses import fields
from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest

import bngap.conjecture
import bngap.search
import bngap.spectra
from bngap.conjecture import OutOfDomainError, bn_report, gap_terms
from bngap.graphs import (
    Graph,
    Graph6Error,
    clique_number,
    graph6_pairs,
    parse_graph6,
    to_graph6,
)
from bngap.search import (
    SweepSummary,
    _fold_labeled,
    _labeled_invariants,
    _labeled_stack,
    _orbits,
    _unsure,
    exhaustive_check,
    labeled_tag,
    random_graph,
)

from corpus import path_graph


def labeled_graphs(n):
    """All 2^C(n,2) labeled graphs on n vertices (no isomorphism reduction)."""
    for code in range(1 << n * (n - 1) // 2):
        yield labeled_tag(n, code), Graph.from_edge_bitset(n, code)


def orbits_one_class_at_a_time(n):
    """``_orbits`` one class per matmul: the least code not yet reached
    opens a class, and its images under the n! vertex permutations join it."""
    pairs = np.array(list(graph6_pairs(n)), dtype=np.intp).reshape(-1, 2)
    index = np.zeros((n, n), dtype=np.int64)
    index[pairs[:, 0], pairs[:, 1]] = index[pairs[:, 1], pairs[:, 0]] = range(len(pairs))
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    # weights[p, k] is the bit that pair k moves to under permutation p.
    weights = 1 << index[perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]]
    shifts = np.arange(len(pairs))
    cls = np.full(1 << len(pairs), -1, dtype=np.int64)
    reps = []
    while (unseen := cls < 0).any():
        code = int(unseen.argmax())
        cls[weights @ (code >> shifts & 1)] = len(reps)
        reps.append(code)
    return cls, np.array(reps, dtype=np.int64)


def add(summary, report):
    """Fold one report into ``summary``: the per-report reference for
    ``search._fold``, which adds a chunk of columns in place."""
    summary.total += 1
    if report.excluded:
        summary.excluded += 1
        return
    if report.violation:
        summary.violations += 1
    else:
        summary.holds += 1
    if report.equality:
        summary.equality += 1
    if report.gap < summary.min_gap:
        summary.min_gap = report.gap
        summary.argmin_source = report.source


def reference(source):
    """(summary, violations, malformed) from the per-graph loop; an int N
    stands for every labeled graph on 1..N vertices, in (n, code) order."""
    summary = SweepSummary()
    violations = []
    malformed = []

    def consume(tag, g):
        try:
            report = bn_report(g, source=tag)
        except OutOfDomainError:
            summary.out_of_domain += 1
            return
        add(summary, report)
        if not report.excluded and not report.holds:
            violations.append(report)

    if isinstance(source, int):
        for n in range(1, source + 1):
            for tag, g in labeled_graphs(n):
                consume(tag, g)
    else:
        for lineno, line in enumerate(source, start=1):
            if not line.strip():
                continue
            try:
                g = parse_graph6(line)
            except Graph6Error as exc:
                malformed.append((lineno, str(exc)))
                continue
            consume(f"graph6:line={lineno}", g)
    return summary, violations, malformed


def assert_matches_reference(source):
    """The engine against ``reference``; returns the result and the
    (lineno, message) pairs it passed to ``on_malformed``, in call order."""
    seen, reported = [], []
    res = exhaustive_check(source, lambda *record: seen.append(record),
                           reported.append)
    summary, violations, malformed = reference(source)
    assert res.summary.as_dict() == summary.as_dict()
    assert reported == violations
    assert res.summary.violations == len(violations)
    assert seen == malformed and res.malformed == len(malformed)
    return res, seen


def tighten(monkeypatch):
    """Count a gap below 1 as a violation, so the violation path runs.
    The gap test has one owner, so one patch reaches the engine too."""
    monkeypatch.setattr(bngap.conjecture, "GAP_TOL", -1.0)


@pytest.fixture
def strict_tolerance(monkeypatch):
    tighten(monkeypatch)


def atlas_stream():
    nx = pytest.importorskip("networkx")
    lines = [nx.to_graph6_bytes(g, header=False).decode().strip()
             for g in nx.graph_atlas_g()[1:]]
    big = to_graph6(random_graph(40, 0.3, np.random.default_rng(7)))
    return (lines[:20] + ["", "bad line \x01", "   "] + lines[20:300] + [big]
            + lines[300:800] + ["~??", ""] + lines[800:])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_subset_table_clique_number(n):
    codes = np.arange(1 << n * (n - 1) // 2, dtype=np.int64)
    m, omega = _labeled_invariants(n, codes)
    graphs = [g for _, g in labeled_graphs(n)]
    assert omega.tolist() == [clique_number(g) for g in graphs]
    assert m.tolist() == [g.m for g in graphs]


def test_pair_order_is_the_edge_bitset_order():
    assert list(graph6_pairs(4)) == [(0, 1), (0, 2), (1, 2), (0, 3),
                                     (1, 3), (2, 3)]
    for tag, g in labeled_graphs(4):
        assert tag == f"labeled:n=4:code={g.edge_bitset()}"
    for n in (2, 9, 40):
        g = random_graph(n, 0.5, np.random.default_rng(n))
        want = sum(1 << k for k, (u, v) in enumerate(graph6_pairs(n))
                   if g.has_edge(u, v))
        assert g.edge_bitset() == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_labeled_matches_reference(n):
    # The least gap falls with n, from -8.9e-16 at n = 3 to -1.24e-14 at
    # n = 6, so from N = 4 on a later n replaces the running minimum.
    res, _ = assert_matches_reference(n)
    assert res.summary.out_of_domain == n


def test_labeled_violations_match_reference(strict_tolerance):
    res, _ = assert_matches_reference(5)
    assert res.summary.violations > 100


def test_graph6_stream_matches_reference():
    res, seen = assert_matches_reference(atlas_stream())
    assert [lineno for lineno, _ in seen] == [22, 805]
    assert res.summary.total > 1000


def test_graph6_violations_match_reference(strict_tolerance):
    res, _ = assert_matches_reference(atlas_stream())
    assert res.summary.violations > 100


def test_malformed_records_are_reported_as_read():
    records = ["bad line \x01", to_graph6(path_graph(5)), "~??", "",
               to_graph6(path_graph(6)), "also bad \x02"]
    read = []

    def stream():
        for lineno, line in enumerate(records, start=1):
            read.append(lineno)
            yield line

    reported = []
    res = exhaustive_check(stream(), lambda lineno, message: reported.append(
        (lineno, read[-1])))
    # Each record is reported in line order, before the next line is read.
    assert reported == [(1, 1), (3, 3), (6, 6)]
    assert res.malformed == 3 and res.summary.total == 2
    assert [f.name for f in fields(res)] == ["summary", "malformed"]


def test_argmin_keeps_the_first_record():
    lowest = to_graph6(Graph.from_edge_bitset(6, 4949))
    p6, p5 = to_graph6(path_graph(6)), to_graph6(path_graph(5))
    gap = {line: bn_report(parse_graph6(line)).gap for line in (lowest, p6, p5)}
    assert gap[lowest] < min(gap[p6], gap[p5])
    chunk = bngap.spectra._chunk_size(6)
    lines = [lowest, lowest] + [p6] * (2 * chunk + 3) + [lowest] + [p5] * 3 + [lowest]
    res, _ = assert_matches_reference(lines)
    assert res.summary.argmin_source == "graph6:line=1"
    assert res.summary.min_gap == gap[lowest]


def test_graph6_chunks_are_bounded_runs_of_one_n(monkeypatch):
    shapes = []
    stack_terms = bngap.search._stack_terms

    def recorded(adj, m, omega):
        shapes.append(adj.shape)
        return stack_terms(adj, m, omega)

    monkeypatch.setattr(bngap.search, "_stack_terms", recorded)
    monkeypatch.setattr(bngap.spectra, "_CHUNK_ENTRIES", 36 * 7)
    p6, p5 = to_graph6(path_graph(6)), to_graph6(path_graph(5))
    exhaustive_check([p6] * 9 + [p5] * 2 + ["", p5] + [p6])
    assert shapes == [(7, 6, 6), (2, 6, 6), (3, 5, 5), (1, 6, 6)]


@pytest.mark.parametrize("entries", [36, 36 * 7])
def test_chunk_size_does_not_change_the_result(monkeypatch, entries):
    want = exhaustive_check(6).summary.as_dict()
    monkeypatch.setattr(bngap.spectra, "_CHUNK_ENTRIES", entries)
    assert exhaustive_check(6).summary.as_dict() == want


def test_bn_report_only_for_violations(monkeypatch):
    calls = []

    def counted(g, source="graph"):
        calls.append(source)
        return bn_report(g, source=source)

    monkeypatch.setattr(bngap.search, "bn_report", counted)
    assert exhaustive_check(5).summary.violations == 0 and calls == []
    tighten(monkeypatch)
    reported = []
    res = exhaustive_check(4, on_violation=reported.append)
    assert res.summary.violations == len(reported) > 0
    assert calls == [r.source for r in reported]


@pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 4), (4, 11),
                                        (5, 34), (6, 156)])
def test_orbit_class_counts(n, classes):
    # OEIS A000088: graphs on n unlabeled vertices.
    cls, reps = _orbits(n)
    assert len(reps) == classes and len(cls) == 1 << comb(n, 2)
    sizes = np.bincount(cls)
    assert sizes.sum() == len(cls) and (factorial(n) % sizes == 0).all()
    # Each class's representative is its least code.
    assert cls[reps].tolist() == list(range(classes))
    assert (reps[cls] <= np.arange(len(cls))).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_batched_orbits_match_one_class_at_a_time(n):
    cls, reps = _orbits(n)
    want_cls, want_reps = orbits_one_class_at_a_time(n)
    assert cls.dtype == want_cls.dtype and reps.dtype == want_reps.dtype
    assert np.array_equal(cls, want_cls) and np.array_equal(reps, want_reps)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_members_are_isomorphic_to_their_representative(n):
    nx = pytest.importorskip("networkx")

    def graph(code):
        g = nx.empty_graph(n)
        g.add_edges_from(Graph.from_edge_bitset(n, int(code)).edges())
        return g

    cls, reps = _orbits(n)
    rep_graphs = [graph(code) for code in reps]
    for code, k in enumerate(cls.tolist()):
        assert nx.is_isomorphic(graph(code), rep_graphs[k])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_member_gaps_spread_by_rounding_only(n):
    cls, reps = _orbits(n)
    codes = np.arange(len(cls))
    m, omega = _labeled_invariants(n, codes)
    # Members take m and omega from their class's representative.
    assert (m == m[reps][cls]).all() and (omega == omega[reps][cls]).all()
    vals = np.linalg.eigvalsh(_labeled_stack(n, codes))
    bound, _, gap, *_ = gap_terms(n, m, omega, vals[:, -1], vals[:, -2])
    assert (bound == bound[reps][cls]).all()
    high = np.full(len(reps), -np.inf)
    low = np.full(len(reps), np.inf)
    np.maximum.at(high, cls, gap)
    np.minimum.at(low, cls, gap)
    assert (high - low <= 1e-12 * np.maximum(1.0, bound[reps])).all()


@pytest.mark.parametrize("bound", [0.5, 3.0, 40.0])
def test_unsure_rule(bound):
    scale = max(1.0, bound)
    tol = bngap.conjecture.GAP_TOL * scale
    margin = bngap.search._ORBIT_MARGIN * scale
    least = -5.0
    # At gap = margin only the equality flag tells gap - margin from
    # gap + margin.
    near = [least, least + margin / 2, tol + margin / 2, tol - margin / 2,
            -tol + margin / 2, -tol - margin / 2, margin, -margin]
    far = [least + 2 * margin, tol + 2 * margin, -tol - 2 * margin, 1.0]
    gap = np.array(near + far + [least, tol])
    applicable = np.array([True] * (len(near) + len(far)) + [False, False])
    unsure = _unsure(gap, np.full(len(gap), bound), applicable)
    assert unsure.tolist() == [True] * len(near) + [False] * (len(far) + 2)


def solved_codes(monkeypatch):
    """The edge codes ``_labeled_stack`` is called on, in call order."""
    codes = []
    labeled_stack = bngap.search._labeled_stack

    def recorded(n, chunk):
        codes.extend(chunk.tolist())
        return labeled_stack(n, chunk)

    monkeypatch.setattr(bngap.search, "_labeled_stack", recorded)
    return codes


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_only_equality_classes_are_solved_graph_by_graph(monkeypatch, n):
    codes = solved_codes(monkeypatch)
    summary = SweepSummary()
    _fold_labeled(n, summary, lambda report: None)
    _, reps = _orbits(n)
    assert codes[:len(reps)] == reps.tolist()
    assert len(codes) - len(reps) == summary.equality


@pytest.mark.parametrize("gap_tol", [None, -1.0])
def test_unbounded_margin_gives_the_same_result(monkeypatch, gap_tol):
    if gap_tol is not None:
        monkeypatch.setattr(bngap.conjecture, "GAP_TOL", gap_tol)

    def run(n):
        reported = []
        summary = SweepSummary()
        _fold_labeled(n, summary, reported.append)
        return summary.as_dict(), reported

    def run_all():
        reported = []
        res = exhaustive_check(6, on_violation=reported.append)
        return res.summary.as_dict(), reported

    want = [run(n) for n in range(2, 7)]
    want_all = run_all()
    monkeypatch.setattr(bngap.search, "_ORBIT_MARGIN", np.inf)
    codes = solved_codes(monkeypatch)
    for n in range(2, 7):
        codes.clear()
        summary, reported = want[n - 2]
        assert run(n) == (summary, reported)
        # Every applicable graph is solved graph by graph.
        classes = len(_orbits(n)[1])
        assert len(codes) == classes + summary["total"] - summary["excluded"]
    # K1 and the fold across n are the same too.
    assert run_all() == want_all
