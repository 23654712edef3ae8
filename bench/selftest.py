"""Self-test of the benchmark, in well under a minute.

Run from the repository root:

    python3 bench/selftest.py

1. Runs every workload at a tiny size, untraced and traced, and checks the
   result against the schema and metric lists in ``BENCHMARK.json``; in the
   traced runs, layers the workload does not reach must read zero calls.
2. Checks that the output checker flags corrupted results: a changed summary
   count, and a float shifted by 1e-6 relative; and that a rerun whose bytes
   differ from the first run's counts as failed.
3. Checks that ``run.py`` exits non-zero, printing nothing, in a directory
   that holds only ``BENCHMARK.json`` and ``bench/``.

Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import TINY

ROOT = run.ROOT
FAILURES: list[str] = []

# Layers each workload must reach (calls > 0) and must not reach (calls == 0).
REACHED = {
    "sweep": (["multipartite.multipartite_spectrum", "multipartite.secular_roots",
               "conjecture.bn_report_multipartite", "search.partitions_into_parts",
               "jsonutil.dumps", "jsonutil.csv_cell", "cli.main"],
              ["graphs.Graph", "spectra.eigenvalues", "graphs.clique_number",
               "conjecture.bn_report"]),
    "exhaustive": (["graphs.Graph", "spectra.eigenvalues", "spectra.adjacency_matrix",
                    "graphs.clique_number", "conjecture.bn_report",
                    "search.exhaustive_check", "jsonutil.dumps", "cli.main"],
                   ["multipartite.multipartite_spectrum", "graphs.with_edge",
                    "stability.edit_distance_local"]),
    "search": (["graphs.Graph", "graphs.with_edge", "graphs.without_edge",
                "graphs.zykov", "graphs.edges", "graphs.clique_number",
                "spectra.eigenvalues", "conjecture.bn_report", "search.hill_climb"],
               ["multipartite.multipartite_spectrum", "search.exhaustive_check",
                "stability.edit_distance_local"]),
    "stability": (["graphs.Graph", "graphs.without_edge", "graphs.edges",
                   "spectra.eigenvalues", "stability.edit_distance_local",
                   "stability.stability_experiment", "jsonutil.csv_cell"],
                  ["graphs.clique_number", "conjecture.bn_report",
                   "multipartite.multipartite_spectrum"]),
}


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def check_schema(name: str, result: dict, listed: list[dict]) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{name}: result keys")
    expect(result["correct"] is True and result["failed"] == 0,
           f"{name}: correct, no failed runs")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{name}: attempted is a positive integer")
    metrics = result["metrics"]
    expect(list(metrics) == [m["name"] for m in listed],
           f"{name}: metric names match BENCHMARK.json")
    expect(all(metrics[m["name"]]["unit"] == m["unit"] for m in listed
               if m["name"] in metrics), f"{name}: units match BENCHMARK.json")
    expect(all(set(v) == {"value", "unit"} and isinstance(v["value"], (int, float))
               and math.isfinite(v["value"]) for v in metrics.values()),
           f"{name}: every value is a finite number")


def schema_checks(cli, spec: dict) -> None:
    for name, workload in TINY.items():
        result, _ = run.run_workload(cli, workload, name, 0, 0.5, trace=False)
        check_schema(f"{name} untraced", result, spec["end_to_end"])
        expect(all(v["value"] > 0 for v in result["metrics"].values()),
               f"{name} untraced: every end-to-end metric is above zero")

        result, _ = run.run_workload(cli, workload, name, 0, 0.5, trace=True)
        check_schema(f"{name} traced", result, spec["per_layer"])
        calls = {k[:-len(".calls")]: v["value"]
                 for k, v in result["metrics"].items() if k.endswith(".calls")}
        reached, skipped = REACHED[name]
        expect(all(calls[layer] > 0 for layer in reached),
               f"{name} traced: reached layers count calls")
        expect(all(calls[layer] == 0 for layer in skipped),
               f"{name} traced: layers not reached read zero")
        if name == "sweep":
            # One per report plus the manifest: dumps' own recursion is not counted.
            expect(calls["jsonutil.dumps"] == workload.expect["total"] + 1,
                   "sweep traced: only top-level dumps calls are counted")


def tiny_output(cli, name: str) -> dict:
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        bench = run.Bench(cli, TINY[name], 0, Path(tmp))
        bench.run_in_process()
        return dict(bench.reference)


def shifted(x: float) -> float:
    return x * (1.0 + 1e-6)


def corruption_checks(cli) -> None:
    sweep, exhaustive, search = (TINY[n] for n in ("sweep", "exhaustive", "search"))

    out = tiny_output(cli, "sweep")
    expect(sweep.check(out, 0) == [], "sweep: genuine output passes")
    head, row, *rest = out[".summary.csv"].split("\n")
    cells = row.split(",")
    cells[2] = str(int(cells[2]) + 1)  # equality count
    bad = dict(out, **{".summary.csv": "\n".join([head, ",".join(cells), *rest])})
    expect(sweep.check(bad, 0) != [], "sweep: changed summary count is flagged")
    lines = out[""].splitlines()
    i = sweep.sample(out, 0)[0]
    rep = json.loads(lines[i])
    rep["lambda1"] = shifted(rep["lambda1"])
    lines[i] = json.dumps(rep)
    bad = dict(out, **{"": "\n".join(lines) + "\n"})
    expect(sweep.check(bad, 0) != [], "sweep: lambda1 shifted 1e-6 is flagged")

    out = tiny_output(cli, "exhaustive")
    expect(exhaustive.check(out, 0) == [], "exhaustive: genuine output passes")
    record = json.loads(out[""])
    record["summary"]["holds"] -= 1
    bad = dict(out, **{"": json.dumps(record) + "\n"})
    expect(exhaustive.check(bad, 0) != [],
           "exhaustive: changed summary count is flagged")

    out = tiny_output(cli, "search")
    expect(search.check(out, 0) == [], "search: genuine output passes")
    record = json.loads(out[""])
    record["best_report"]["lambda1"] = shifted(record["best_report"]["lambda1"])
    bad = dict(out, **{"": json.dumps(record) + "\n"})
    expect(search.check(bad, 0) != [], "search: lambda1 shifted 1e-6 is flagged")


def rerun_check(cli) -> None:
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        bench = run.Bench(cli, TINY["search"], 0, Path(tmp))
        bench.run_in_process()
        bench.reference = dict(bench.reference, **{"": bench.reference[""] + " "})
        bench.run_in_process()
    expect(bench.attempted == 2 and bench.failed == 1,
           "search: output bytes that differ from the first run fail the run")


def bare_directory_check() -> None:
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "bench", Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and proc.stdout == "",
           "without the sources run.py exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.SCRATCH.mkdir(exist_ok=True)
    cli = run.import_cli()
    schema_checks(cli, spec)
    corruption_checks(cli)
    rerun_check(cli)
    bare_directory_check()
    print(f"{len(FAILURES)} failed checks")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
