"""Run every workload over several seeds and print each metric's spread.

Run from the repository root:

    python3 bench/summary.py --runs 10

For each workload in ``BENCHMARK.json`` it runs ``bench/run.py`` once per
seed 0, 1, ... with ``run_seconds`` and tracing off, and prints, for every
end-to-end metric, its unit, the number of runs, the quartiles and median
over runs, and the spread (q3 - q1) / median next to the metric's bound.  A
spread above a third of the bound is flagged.  The unscaled wall-time figures
``wall_items_per_s`` and ``wall_setup_s`` follow without a bound, so that a
move of a scaled median can be compared with the raw one.  ``--trace`` adds
one traced run per workload and prints the per-layer metrics side by side.
Exits non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import ROOT, quartiles

UNSCALED = {"wall_items_per_s": "1/s", "wall_setup_s": "s"}


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """(detail, result): the last two lines ``run.py`` prints."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail), json.loads(result)


def print_row(workload: str, name: str, unit: str, values: list[float],
              bound: float | None) -> None:
    q = quartiles(values)
    q1, med, q3 = q["q1"], q["median"], q["q3"]
    spread = (q3 - q1) / med if med else float("inf")
    flag = "  WIDE" if bound is not None and spread > bound / 3 else ""
    print(f"{workload:<11} {name:<16} {unit:<5} {len(values):>3} "
          f"{q1:>12.6g} {med:>12.6g} {q3:>12.6g} {spread:>7.4f} "
          f"{'-' if bound is None else bound:>6}{flag}", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    failed = 0
    print(f"{'workload':<11} {'metric':<16} {'unit':<5} {'n':>3} {'q1':>12} "
          f"{'median':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in range(args.runs)]
        failed += sum(r["failed"] for _, r in runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            print_row(workload, name, metric["unit"],
                      [r["metrics"][name]["value"] for _, r in runs],
                      metric["bound"])
        for name, unit in UNSCALED.items():
            print_row(workload, name, unit,
                      [d["samples"][name]["median"] for d, _ in runs], None)

    if args.trace:
        traced = {w: run_once(w, 0, seconds, 1)[1] for w in workloads}
        failed += sum(r["failed"] for r in traced.values())
        print(f"\n{'per-layer metric':<42}" + "".join(f"{w:>13}" for w in workloads))
        for metric in spec["per_layer"]:
            name = metric["name"]
            print(f"{name:<42}" + "".join(
                f"{traced[w]['metrics'][name]['value']:>13.6g}" for w in workloads))

    print(f"\nfailed runs: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
