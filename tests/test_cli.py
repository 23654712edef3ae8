"""End-to-end command-line runs: output formats, manifests, exit codes."""

import csv
import hashlib
import itertools
import json
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

import pytest

import bngap.conjecture
import bngap.search
import bngap.spectra
from bngap import cli
from bngap.graphs import (
    MAX_N,
    PartSizes,
    complete_multipartite,
    from_edge_list,
    to_graph6,
    turan_graph,
)
from bngap.jsonutil import csv_cell, dumps
from bngap.search import SweepSummary, partitions_into_parts
from test_exhaustive_engine import add, labeled_graphs, reference
from test_multipartite import scalar_report_multipartite

K5_LINE = to_graph6(complete_multipartite(PartSizes((1,) * 5)))
C5_EDGES = "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n"
C5_LINE = to_graph6(from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))


def run_cli(*argv, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "bngap.cli", *argv],
        input=stdin, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestSpectrum:
    def test_exact_parts(self):
        code, out, _ = run_cli("spectrum", "--parts", "2,2,2")
        assert code == 0
        rec = json.loads(out)
        assert rec["values"] == pytest.approx([4, 0, 0, 0, -2, -2], abs=1e-9)
        assert rec["zero_multiplicity"] == 3

    def test_numeric_from_edges(self):
        code, out, _ = run_cli("spectrum", "--edges", "-", stdin=C5_EDGES)
        rec = json.loads(out)
        assert code == 0 and rec["n"] == 5
        assert rec["values"][0] == pytest.approx(2.0, abs=1e-9)

    def test_bad_parts(self):
        code, _, err = run_cli("spectrum", "--parts", "2,zebra")
        assert code == 2 and "error" in err

    def test_every_partition_up_to_20_golden_bytes(self, capsys):
        # The stdout of all 2,693 partitions of n = 2..20 into any number
        # of parts, one run each, in order.
        runs = [",".join(map(str, parts)) for n in range(2, 21)
                for parts in partitions_into_parts(n, n)]
        assert len(runs) == 2693
        assert all(cli.main(["spectrum", "--parts", p]) == 0 for p in runs)
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c3392b65c9668206fe3ba0035574a21135db181ff735bf80da676184f13a96a0")


class TestReport:
    def test_k5_stdin_excluded(self):
        code, out, _ = run_cli("report", "--graph6", "-", stdin=K5_LINE + "\n")
        assert code == 0
        rec = json.loads(out)
        assert rec["excluded"] is True
        assert rec["lhs"] == pytest.approx(17.0)
        assert list(rec) == ["n", "m", "omega", "lambda1", "lambda2",
                             "lambda_n", "bound", "lhs", "gap", "holds",
                             "equality", "excluded", "source"]

    def test_complete_graph_beyond_the_recursion_limit_exits_0(self):
        line = to_graph6(turan_graph(1100, 1100))
        code, out, err = run_cli("report", "--graph6", "-", stdin=line + "\n")
        assert code == 0 and "Traceback" not in err
        assert json.loads(out)["excluded"] is True

    def test_edgeless_out_of_domain_status(self):
        code, out, _ = run_cli("report", "--edges", "-", stdin="3 0\n")
        assert code == 0
        assert json.loads(out)["status"] == "out-of-domain"

    def test_malformed_graph6_is_usage_error(self):
        code, _, err = run_cli("report", "--graph6", "-", stdin="{}{}\n")
        assert code == 2 and "line 1" in err

    def test_rounded_equality_case_exits_0(self):
        # T(900, 3) meets the bound with equality; its dense lhs ~ 3.6e5
        # rounds to gap = -1.05e-9, below the absolute 1e-9.
        line = to_graph6(turan_graph(900, 3))
        code, out, err = run_cli("report", "--graph6", "-", stdin=line + "\n")
        rec = json.loads(out)
        assert code == 0 and "VIOLATION" not in err
        assert rec["holds"] is True and rec["equality"] is True

    def test_float_serialization_17_digits(self):
        code, out, _ = run_cli("report", "--edges", "-", stdin=C5_EDGES)
        rec = json.loads(out)
        assert rec["lhs"] == pytest.approx(4.381966011250105, abs=1e-12)
        assert "4.3819660112501" in out


class TestSweep:
    def test_jsonl_and_summary(self, tmp_path):
        out_file = tmp_path / "sweep.jsonl"
        code, _, err = run_cli("sweep", "--n-max", "10", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert all(r["gap"] >= -1e-9 for r in records if not r["excluded"])
        assert "0 violations" in err
        summary = (tmp_path / "sweep.jsonl.summary.csv").read_text().splitlines()
        assert summary[0].startswith("total,holds,equality,excluded")
        manifest = json.loads((tmp_path / "sweep.jsonl.manifest.json").read_text())
        assert manifest["subcommand"] == "sweep"
        assert manifest["flags"]["n_max"] == 10
        assert "started" in manifest and "finished" in manifest

    def test_summary_csv_quotes_argmin_source(self, tmp_path):
        out_file = tmp_path / "sweep.jsonl"
        code, _, _ = run_cli("sweep", "--n-max", "10", "--out", str(out_file))
        assert code == 0
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        argmin = min((r for r in records if not r["excluded"]),
                     key=lambda r: r["gap"])
        summary = tmp_path / "sweep.jsonl.summary.csv"
        with open(summary, newline="", encoding="utf-8") as fh:
            head, row = csv.reader(fh)
        assert len(head) == len(row) == 8
        assert head[-1] == "argmin_source" and row[-1] == argmin["source"]

    def test_lines_are_the_library_reports(self, capsys):
        assert cli.main(["sweep", "--n-max", "30", "--r-max", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        reports = [scalar_report_multipartite(PartSizes(parts)) for n in range(2, 31)
                   for parts in partitions_into_parts(n, 8)]
        assert len(lines) == len(reports) > 10000
        assert lines == [dumps(asdict(r)) for r in reports]

    def test_violations_match_the_per_report_reference(self, tmp_path,
                                                       monkeypatch, capsys):
        # Count a gap below 5 as a violation, so most reports fail; the gap
        # test has one owner, so the patch reaches the chunks and the
        # reference alike.
        monkeypatch.setattr(bngap.conjecture, "GAP_TOL", -5.0)
        monkeypatch.setattr(bngap.search, "SWEEP_CHUNK", 100)
        reports = [scalar_report_multipartite(PartSizes(parts)) for n in range(2, 17)
                   for parts in partitions_into_parts(n, 5)]
        want = SweepSummary()
        for report in reports:
            add(want, report)
        assert want.violations > want.total // 2
        out = tmp_path / "sweep.jsonl"
        assert cli.main(["sweep", "--n-max", "16", "--r-max", "5",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "VIOLATION" in line] == [
            f"bngap: VIOLATION: {r.source} gap={r.gap!r}"
            for r in reports if r.violation]
        assert out.read_text().splitlines() == [dumps(asdict(r)) for r in reports]
        with open(tmp_path / "sweep.jsonl.summary.csv", newline="",
                  encoding="utf-8") as fh:
            head, row = csv.reader(fh)
        d = want.as_dict()
        assert head == list(d)
        assert row == ["" if v is None else csv_cell(v) for v in d.values()]


class TestExhaustive:
    def test_builtin(self):
        code, out, err = run_cli("exhaustive", "--n-max", "4")
        assert code == 0
        rec = json.loads(out.strip().splitlines()[-1])
        assert rec["summary"]["violations"] == 0
        assert "0 violations" in err

    def test_stream_reports_malformed_line_numbers(self):
        stdin = K5_LINE + "\nnot-a-record {}\n"
        code, out, err = run_cli("exhaustive", "--graph6", "-", stdin=stdin)
        assert code == 0
        assert "line 2" in err
        rec = json.loads(out.strip().splitlines()[-1])
        assert rec["summary"]["excluded"] == 1 and rec["malformed"] == 1

    def test_malformed_diagnostics_in_line_order(self):
        stdin = "bad \x01\n" + K5_LINE + "\n~??\n\n" + C5_LINE + "\nbad \x02\n"
        code, out, err = run_cli("exhaustive", "--graph6", "-", stdin=stdin)
        assert code == 0
        lines = [line for line in err.splitlines() if "malformed" in line]
        assert [line.split(":")[1] for line in lines] == [
            " malformed graph6 at line 1", " malformed graph6 at line 3",
            " malformed graph6 at line 6"]
        assert json.loads(out.splitlines()[-1])["malformed"] == 3

    def test_any_input_byte_is_read(self, tmp_path):
        # Input is decoded byte for byte: a record with a byte outside
        # 63..126, UTF-8 or not, is malformed, its error names that byte,
        # and the stream goes on.
        data = b"Dhc\n\xff\xfe\nDhc\nDh\xc3\xa9\n\xa0\n"
        path = tmp_path / "bytes.g6"
        path.write_bytes(data)
        for source, stdin in ((str(path), b""), ("-", data)):
            proc = subprocess.run(
                [sys.executable, "-m", "bngap.cli", "exhaustive", "--graph6", source],
                input=stdin, capture_output=True, timeout=300)
            assert proc.returncode == 0
            assert proc.stderr.decode().splitlines() == [
                f"bngap: malformed graph6 at line {lineno}: record: byte {byte}"
                " outside graph6 range 63..126"
                for lineno, byte in ((2, 0xff), (4, 0xc3), (5, 0xa0))] + [
                "bngap: exhaustive (graph6 stream): 0 violations"
                " / 2 applicable graphs"]
            rec = json.loads(proc.stdout)
            assert rec["malformed"] == 3 and rec["summary"]["total"] == 2
        code, out, err = run_cli("report", "--graph6", str(path))
        assert code == 2 and out == ""
        assert err == ("bngap: error: line 2: record: byte 255"
                       " outside graph6 range 63..126\n")

    @staticmethod
    def violating_stream(tmp_path, monkeypatch, reps):
        """A graph6 file of ``reps`` copies of every fourth labeled graph on
        5 vertices, with a malformed and an excluded record; with a gap
        below 5 counted as a violation, almost every record violates."""
        monkeypatch.setattr(bngap.conjecture, "GAP_TOL", -5.0)
        every_fourth = itertools.islice(labeled_graphs(5), 0, None, 4)
        lines = [to_graph6(g) for _, g in every_fourth]
        lines[10:10] = ["bad \x01", K5_LINE, ""]
        path = tmp_path / f"x{reps}.g6"
        path.write_text("\n".join(lines * reps) + "\n")
        return path, lines * reps

    def test_violations_match_the_per_report_reference(self, tmp_path,
                                                       monkeypatch, capsys):
        path, lines = self.violating_stream(tmp_path, monkeypatch, 1)
        summary, violations, malformed = reference(lines)
        assert len(violations) > 250 and len(malformed) == 1
        out = tmp_path / "x.jsonl"
        assert cli.main(["exhaustive", "--graph6", str(path),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "VIOLATION" in line] == [
            f"bngap: VIOLATION: {r.source} gap={r.gap!r}" for r in violations]
        assert out.read_text().splitlines() == [
            dumps(asdict(r)) for r in violations] + [dumps(
                {"summary": summary.as_dict(), "malformed": len(malformed)})]

    def test_memory_does_not_grow_with_the_violations(self, tmp_path,
                                                      monkeypatch):
        # Chunks of 64 graphs, so that both streams run full chunks.
        monkeypatch.setattr(bngap.spectra, "_CHUNK_ENTRIES", 25 * 64)

        def peak(reps):
            path, _ = self.violating_stream(tmp_path, monkeypatch, reps)
            # Keep stderr's VIOLATION lines out of traced memory.
            with open(tmp_path / "err", "w", encoding="utf-8") as err:
                monkeypatch.setattr(sys, "stderr", err)
                tracemalloc.start()
                try:
                    assert cli.main(["exhaustive", "--graph6", str(path),
                                     "--out", str(tmp_path / "x.jsonl")]) == 1
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        # Holding the reports would add about 400 bytes per violation,
        # some 0.9 MB over the longer stream's 2,300 extra ones.
        small, large = peak(1), peak(10)
        assert large - small < 128 * 1024, (small, large)

    def test_summary_csv_leaves_min_gap_empty_without_applicable_graphs(
            self, tmp_path):
        out = tmp_path / "k5.jsonl"
        code, _, _ = run_cli("exhaustive", "--graph6", "-", "--out", str(out),
                             stdin=K5_LINE + "\n")
        assert code == 0
        assert (tmp_path / "k5.jsonl.summary.csv").read_text() == (
            "total,holds,equality,excluded,violations,out_of_domain,min_gap,"
            "argmin_source\n1,0,0,1,0,0,,\n")


class TestSearch:
    def test_no_violation_run(self):
        code, out, _ = run_cli("search", "--n-max", "5", "--seed", "3",
                               "--restarts", "4", "--steps", "150")
        assert code == 0
        rec = json.loads(out)
        assert rec["found_violation"] is False
        assert abs(rec["best_report"]["gap"]) <= 1e-8

    def test_unscored_run_is_strict_json(self):
        # K2 is excluded, so every state scores -inf.
        code, out, _ = run_cli("search", "--n-max", "2", "--restarts", "1",
                               "--steps", "5")
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        rec = json.loads(out, parse_constant=reject)
        assert rec["best_objective"] is None

    def test_seeded_reruns_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("search", "--n-max", "6", "--seed", "9", "--restarts", "3",
                "--steps", "120")
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_text() == b.read_text()


class TestZykov:
    def test_trajectory_jsonl(self):
        code, out, err = run_cli("zykov", "--edges", "-", "--steps", "5",
                                 "--seed", "1", stdin="4 3\n0 1\n1 2\n2 3\n")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records[0]["type"] == "initial"
        assert records[-1]["type"] == "summary"
        assert records[-1]["findings"] == []
        lam = [records[0]["lambda1"]] + [r["lambda1"] for r in records[1:-1]]
        assert all(b >= a - 1e-9 for a, b in zip(lam, lam[1:]))

    # Seeded walks on C5 and on a fixed 20-vertex graph (78 edges, omega 5):
    # the pair drawn at each step, and so every byte, is fixed.
    @pytest.mark.parametrize("argv, stdin, digest", [
        (("--edges", "-", "--steps", "50", "--seed", "1"), C5_EDGES,
         "34cacff6de829039aea608f30bb9a4d59cb47a9f2631012eea911bfd07967a05"),
        (("--graph6", "-", "--steps", "100", "--seed", "4"),
         "S_yN[YhdCCIXSXTSCBPatyN_[E?iPFYKg\n",
         "061730bce601ff6ca5f29f9abf93d5c16e924dc45c23bfff40f627c81741abba"),
    ])
    def test_golden_bytes(self, argv, stdin, digest):
        code, out, _ = run_cli("zykov", *argv, stdin=stdin)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestStability:
    def test_csv_shape(self):
        code, out, _ = run_cli("stability", "--n-max", "6", "--grid", "0,1",
                               "--samples", "4", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("n,k,sample,m,lambda1_sq_over_m,edits,"
                            "edits_normalized,method")
        assert len(lines) == 9
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] == "6" and cells[-1] == "exact"

    def test_seeded_reruns_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("stability", "--n-max", "9", "--grid", "0,2", "--samples", "5",
                "--seed", "3")
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_smallest_vertex_count_runs(self):
        code, out, _ = run_cli("stability", "--n-max", "3", "--grid", "0,1",
                               "--samples", "2")
        assert code == 0 and len(out.strip().splitlines()) == 5

    # Above EXACT_MAX_N every row takes the local-search edit distance; the
    # n = 10 run is exact.  At k = 40 of 75 edges the local optima fall
    # below k.  Every row of the n = 60 and n = 100 runs, and 10 of the 15
    # of the n = 15 run, has a greedy cost certified optimal.  The n = 100
    # run spans two descent groups and many float sub-chunks.  In the
    # n = 61 and n = 10 runs many rows drew the same pairs (the 20 of k = 0,
    # and repeats of k = 1): only 41 of the 60 rows and 19 of the 40 rows
    # differ.  T(61, 3) is not regular, so its k = 0 rows take several
    # products.
    @pytest.mark.parametrize("argv, digest", [
        (("--n-max", "60", "--grid", "0,10,50", "--samples", "20", "--seed", "0"),
         "62bc096b653c4f54829ea5780f964668d54aa51086ecb000a2428f4125bdeb90"),
        (("--n-max", "15", "--grid", "0,4,40", "--samples", "5", "--seed", "3"),
         "e2a204b34371675be2f31295b539b53ae884b6e463c01d9604d7355ee094a0b3"),
        (("--n-max", "100", "--grid", "0,20,200", "--samples", "10", "--seed", "1"),
         "a481ac74834c22833167fc3bb62522df80c6dd7c4e4abb6ae9c7e1c0410ad644"),
        (("--n-max", "61", "--grid", "0,1,2", "--samples", "20", "--seed", "2"),
         "1a3dc12831bcc9012ce51d562edc3d138dc64fb42341322f87a4d115a2af9855"),
        (("--n-max", "10", "--grid", "0,1", "--samples", "20", "--seed", "2"),
         "23f98af2dc6863e0aa2a2bbe5e922cfd42a348acbe695eeae8223a9961be7c11"),
    ])
    def test_local_search_golden_bytes(self, argv, digest):
        code, out, _ = run_cli("stability", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# Seeded searches (k4free at n = 9 and 30, free at n = 12, the lambda1
# objective at n = 20), the labeled exhaustive check and three multipartite
# sweeps (part counts up to 8, and 870 lines that carry the bipartite
# note): their stdout bytes are fixed.  In the last two searches (the
# lambda1 objective at n = 7, free at n = 8) several restarts tie on the
# best objective with different graphs, and the smaller edge bitset of a
# later restart wins.  The labeled exhaustive check is pinned for the
# smaller n-max too (n-max 2 has no applicable graph, so its min_gap is
# null).
@pytest.mark.parametrize("argv, digest", [
    (("search", "--n-max", "30", "--restarts", "6", "--steps", "1000",
      "--seed", "0"),
     "70b8ed8e32d5550701921478ee8369d7770d1c0384d24d9d7bcfa2f460829828"),
    (("search", "--n-max", "9", "--restarts", "4", "--steps", "500",
      "--seed", "3"),
     "c172a7b9a18c81677d6eaf820ad161f19a52918a31298581a69dcb8f054a18e3"),
    (("search", "--n-max", "12", "--restarts", "2", "--steps", "300",
      "--seed", "5", "--method", "free"),
     "a897143dbda4b0cd60a1b00013675149fc135048575836a9547fbd8b8e09407d"),
    (("exhaustive", "--n-max", "6"),
     "5466934b83a8b0071d8b5e1775b3cbd13d3466e041ec230a879cfaa63e94b581"),
    (("sweep", "--n-max", "30", "--r-max", "6"),
     "6605907e38fe2a9256022327b9dc4c9d7c0c6a04c6b38a0f404312236d213cfe"),
    (("search", "--n-max", "20", "--restarts", "3", "--steps", "400",
      "--seed", "5", "--objective", "lambda1"),
     "86db6076750fd3e05b1016a72abfe98e86a331cf6149a32eeee12bffef6b2230"),
    (("sweep", "--n-max", "45", "--r-max", "8"),
     "db5525bf1aaada361101176e6f192e93afd9443b8ec648d3227ad32f7f1e59f0"),
    (("sweep", "--n-max", "60", "--r-max", "2"),
     "2c5b38f6c103317892606863f9bad98eff87de4fe0ba05fc2e1273f77ae2a0f4"),
    (("search", "--n-max", "7", "--restarts", "6", "--steps", "200",
      "--seed", "1", "--objective", "lambda1"),
     "d4c8817e90f17d50d00cc12f1a27261acf3297e06ce4a7fef2459bf002887c7d"),
    (("search", "--n-max", "8", "--restarts", "6", "--steps", "200",
      "--seed", "6", "--method", "free"),
     "291d4ab0fefa39aba74751f2596b6f2926a4775e51f816a0726f6ddbe0bf9d57"),
    (("exhaustive", "--n-max", "1"),
     "b2558a0ed3d604f6f37b75b70bace02090b42fa70588029c6f4744d10e9ace3e"),
    (("exhaustive", "--n-max", "2"),
     "9bacf588e4228b57887f87438f61d968a2d057fe74527a2bdd51ee9e455f04b2"),
    (("exhaustive", "--n-max", "3"),
     "e457582013601d54c0b59dc9e73676716927023d5fcb4210dd965dd2d67ed981"),
    (("exhaustive", "--n-max", "4"),
     "3e2b1244b3059a080cfd4d91e8b8901f4f1d330194aa75129c826572da36b922"),
    (("exhaustive", "--n-max", "5"),
     "67f854122468d167da11ede9df69b3d1d6e12e103a011312075a6d69cba06a03"),
])
def test_golden_bytes(argv, digest):
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_summary_csv_golden_bytes(tmp_path):
    out = tmp_path / "sweep.jsonl"
    code, _, _ = run_cli("sweep", "--n-max", "30", "--r-max", "6", "--out", str(out))
    assert code == 0
    data = (tmp_path / "sweep.jsonl.summary.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "9e80008e48eff72ff6af9c4160aaa080c16decf778672c063a45223e5a00f47c")


def test_exhaustive_summary_csv_golden_bytes(tmp_path):
    out = tmp_path / "e.jsonl"
    code, _, _ = run_cli("exhaustive", "--n-max", "6", "--out", str(out))
    assert code == 0
    data = (tmp_path / "e.jsonl.summary.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "49e4c9d54c2f0cdf37c3e6c6177b7b4aa01b17a3363aebb5a82b31fc59151ee4")


# K1, C5, the edgeless 3-vertex graph, P4, K5 and K_{3,2,1}: out-of-domain,
# holding, equality and excluded reports.
MIXED_G6 = "@\nDhc\nB?\nCh\nD~{\nEFzw\n"


# Every record layout the CLI writes besides the ones above: dense-check
# records applicable and not (K4 inside, no edges, the triangle), reports
# and spectra of a mixed stream, an exact spectrum, a search whose every
# start is edgeless, so it has no best report, and exhaustive summaries with
# and without an applicable graph.
@pytest.mark.parametrize("argv, stdin, digest", [
    (("dense-check", "--edges", "-", "--density", "0.2"), C5_EDGES,
     "592a62d9a98246f20a1467043a030d1e149780b70535f18be827752cebfe28c6"),
    (("dense-check", "--edges", "-"), "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
     "c9befb51f7296162e46d70ed0fb9e1f82d950281c9ca17506fed9f294a913e15"),
    (("dense-check", "--graph6", "-", "--density", "0"),
     "Dhc\nD~{\nB?\nBw\nCh\nEFzw\n",
     "309da5a7c6e66d736b2860f8ecf53c5010f3f00eaceb3eceb01dd5ab7ce417cd"),
    (("report", "--graph6", "-"), MIXED_G6,
     "4bf50f4ac87941d73cf026e6ba5d902344bd03962fa5813f7ee5cf84d1f9d5bc"),
    (("spectrum", "--parts", "3,2,2,1"), "",
     "265ac1e2b4c7f850904ed15d0373d53a7f5aaa6d51ff9b1e28af29c6bb588fb4"),
    (("spectrum", "--graph6", "-"), MIXED_G6,
     "727285d1ee99d97039bbf97d177572e095c9d360b06277bdb2a1b66e0cf7bab1"),
    (("search", "--n-max", "5", "--density", "0", "--restarts", "2",
      "--steps", "0"), "",
     "1b66bf55bc567dbbf7a297a5f8fac55824e8493b4cd05280a89a3d57eb5380ff"),
    (("exhaustive", "--graph6", "-"), MIXED_G6,
     "9a1597b8905db013ba28f41d6d93bd10c9d38785a2eff9e61ebbc5768e2c388a"),
    (("exhaustive", "--graph6", "-"), "D~{\n",
     "077f3eed49f2e40b4ab3baa93ae1aa05cb19598210dc195d97853ef1ecb837ad"),
])
def test_record_golden_bytes(argv, stdin, digest):
    code, out, _ = run_cli(*argv, stdin=stdin)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDenseCheck:
    def test_c5(self):
        code, out, _ = run_cli("dense-check", "--edges", "-",
                               "--density", "0.2", stdin=C5_EDGES)
        assert code == 0
        rec = json.loads(out)
        assert rec["applicable"] and rec["triangles"] == 0
        assert rec["bn"]["holds"]

    def test_not_applicable_k4(self):
        k4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
        code, out, _ = run_cli("dense-check", "--edges", "-", stdin=k4)
        assert code == 0
        rec = json.loads(out)
        assert not rec["applicable"] and "K4" in rec["reason"]


class TestUsage:
    def test_unknown_flag(self):
        code, _, _ = run_cli("sweep", "--n-max", "5", "--bogus")
        assert code == 2

    def test_exhaustive_needs_a_family(self):
        code, _, err = run_cli("exhaustive")
        assert code == 2 and "--n-max --graph6 is required" in err

    def test_missing_input(self):
        code, _, err = run_cli("report")
        assert code == 2 and "one of the arguments --graph6 --edges is required" in err

    # Cases whose diagnostic must name the flag at fault.
    NAMED_FLAG = {
        ("exhaustive", "--n-max", "7"): "argument --n-max: need at most 6",
        ("stability", "--n-max", "2"): "argument --n-max: need at least 3",
        ("search", "--n-max", "5", "--restarts", "1", "--steps", "3",
         "--seed", "-1"): "argument --seed: need at least 0",
        ("stability", "--n-max", "13", "--grid", "0", "--samples", "1",
         "--seed", "-1"): "argument --seed: need at least 0",
        ("zykov", "--edges", "-", "--seed", "-1"): "argument --seed: need at least 0",
        ("search", "--n-max", "2049"): "argument --n-max: need at most 2048, got 2049",
        ("stability", "--n-max", "2049"):
            "argument --n-max: need at most 2048, got 2049",
    }

    @pytest.mark.parametrize("argv", [
        ("exhaustive", "--n-max", "7"),
        ("search", "--n-max", "5", "--density", "2"),
        ("search", "--n-max", "1"),
        ("stability", "--n-max", "2"),
        ("stability", "--n-max", "6", "--grid", "999"),
        ("stability", "--n-max", "6", "--grid", "-1"),
        ("stability", "--n-max", "6", "--samples", "-1"),
        ("exhaustive", "--n-max", "-3"),
        ("sweep", "--n-max", "5", "--r-max", "1"),
        ("sweep", "--n-max", "1"),
        ("stability", "--n-max", "6", "--grid", ","),
        ("stability", "--n-max", "6", "--samples", "0"),
        ("search", "--n-max", "5", "--restarts", "0"),
        ("search", "--n-max", "5", "--restarts", "-2"),
        ("search", "--n-max", "5", "--steps", "-1"),
        ("zykov", "--edges", "-", "--steps", "-1"),
        ("exhaustive", "--graph6", "-", "--n-max", "3"),
        ("spectrum", "--parts", "2,2", "--edges", "-"),
        ("report", "--graph6", "{tmp}/k5.g6", "--edges", "-"),
        ("sweep", "--n-max", "3", "--out", "{tmp}/missing/x"),
        ("sweep", "--n-max", "3", "--out", "{tmp}/dir"),
        ("dense-check", "--edges", "-", "--delta", "nan"),
        ("dense-check", "--edges", "-", "--density", "-1"),
        ("search", "--n-max", "5", "--restarts", "1", "--steps", "3", "--seed", "-1"),
        ("stability", "--n-max", "13", "--grid", "0", "--samples", "1", "--seed", "-1"),
        ("zykov", "--edges", "-", "--seed", "-1"),
        ("search", "--n-max", "5", "--method", "free", "--density", "2"),
        ("search", "--n-max", "5", "--method", "free", "--density", "nan"),
        ("search", "--n-max", "5", "--method", "free", "--density", "-0.5"),
        ("search", "--n-max", "2049"),
        ("stability", "--n-max", "2049"),
    ])
    def test_out_of_range_value_is_usage_error(self, argv, tmp_path):
        (tmp_path / "k5.g6").write_text(K5_LINE + "\n")
        (tmp_path / "dir").mkdir()
        named = self.NAMED_FLAG.get(argv, "error:")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code, out, err = run_cli(*argv, stdin=C5_EDGES)
        assert code == 2 and out == "" and "error:" in err and named in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.tmp"))

    def test_edge_list_error_names_the_line(self):
        code, out, err = run_cli("report", "--edges", "-",
                                 stdin="3 1\n\n\n0 1 2\n")
        assert code == 2 and out == ""
        assert err == "bngap: error: line 4: expected 'u v', got '0 1 2'\n"

    def test_sweep_n_max_above_the_vertex_cap(self):
        code, out, err = run_cli("sweep", "--n-max", str(MAX_N + 1), "--r-max", "2")
        assert code == 2 and out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"bngap sweep: error: argument --n-max: need at most {MAX_N},"
            f" got {MAX_N + 1}"]
        assert "Traceback" not in err

    def test_version(self):
        code, out, _ = run_cli("--version")
        assert code == 0 and out.strip() == "0.1.0"


class TestStreamingRun:
    def test_manifest_records_input_digest(self, tmp_path):
        data = (K5_LINE + "\n" + C5_LINE + "\n").encode()
        src = tmp_path / "in.g6"
        src.write_bytes(data)
        for path, stdin in ((str(src), ""), ("-", data.decode())):
            out = tmp_path / "report.jsonl"
            code, _, _ = run_cli("report", "--graph6", path, "--out", str(out),
                                 stdin=stdin)
            assert code == 0
            manifest = json.loads((tmp_path / "report.jsonl.manifest.json").read_text())
            assert manifest["inputs"] == [{
                "path": "<stdin>" if path == "-" else path,
                "sha256": hashlib.sha256(data).hexdigest(),
            }]

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_failed_run_leaves_no_files(self, tmp_path, monkeypatch, exc):
        out = tmp_path / "sweep.jsonl"

        sweep_chunk = bngap.search.multipartite_columns
        chunks = 0

        def failing_chunk(parts):
            # Two chunks are written, then the third one fails.
            nonlocal chunks
            chunks += 1
            if chunks == 3:
                assert (tmp_path / "sweep.jsonl.tmp").exists()
                raise exc("interrupted mid-run")
            return sweep_chunk(parts)

        monkeypatch.setattr(bngap.search, "SWEEP_CHUNK", 5)
        monkeypatch.setattr(bngap.search, "multipartite_columns", failing_chunk)
        argv = ["sweep", "--n-max", "8", "--out", str(out)]
        if exc is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                cli.main(argv)
        else:
            assert cli.main(argv) == 2
        assert list(tmp_path.iterdir()) == []

    def test_stdout_matches_out_file(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        code, stdout, _ = run_cli("sweep", "--n-max", "12")
        assert code == 0
        code, _, _ = run_cli("sweep", "--n-max", "12", "--out", str(out))
        assert code == 0
        assert stdout.encode() == out.read_bytes()

    def test_crlf_stream_matches_lf(self, tmp_path):
        records = [C5_LINE, K5_LINE, "not-a-record {}", "",
                   to_graph6(complete_multipartite(PartSizes((3, 2, 1)))), C5_LINE]
        runs = []
        for name, eol in (("lf.g6", "\n"), ("crlf.g6", "\r\n")):
            path = tmp_path / name
            path.write_bytes("".join(r + eol for r in records).encode())
            runs.append(run_cli("exhaustive", "--graph6", str(path)))
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 0 and "malformed graph6 at line 3" in err
        rec = json.loads(out)
        assert rec["malformed"] == 1 and rec["summary"]["total"] == 4
