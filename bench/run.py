"""Benchmark of the bngap command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

``--workload`` names one of ``workloads.WORKLOADS``.  Every run goes through
the public entry point ``bngap.cli.main(argv)`` with ``--out`` in a scratch
directory under ``.bench_out/``; ``--seed`` is passed to the seeded workloads
and picks the sample of sweep reports that is checked against a dense
eigensolve.  Each run's output is checked (``workloads.py``) and must repeat
the first run's bytes; a run that exits non-zero or fails either check is a
failed run.

With ``--trace 0`` the metrics are end to end:

* ``items_per_s``: median over in-process CLI runs, repeated for
  ``--seconds``, of units of work (reports, graphs, iterations or rows) per
  second of wall time, at a reference host speed (see ``SpeedProbe``).
* ``setup_s``: median wall time of fresh interpreters that import
  ``bngap.cli`` and build its parser, ready to dispatch, scaled by the same
  probe.
* ``peak_rss_mb``: peak resident memory of a fresh process that runs the
  workload once.
* ``ok_frac``: workload runs that passed divided by workload runs attempted
  (in-process and fresh; the setup interpreters are not counted, and one
  that fails makes the result not correct).

With ``--trace 1`` the metrics are per layer, from ``tracer.Tracer``: for each
wrapped function, calls and self seconds per CLI run (median over traced
runs), plus the ratios and counts in ``derived_layer_metrics``.  Traced runs
alternate with untraced ones, and ``trace.overhead_frac`` is the median over
adjacent pairs of 1 - untraced / traced time at the reference host speed.
Both run under ``SpeedProbe``, whose samples (about 1% of the time) count
toward the self time of the span they interrupt.  The spans go to
``.bench_out/spans_<workload>.npz``.

The last line of stdout is the result; the line before it records the
environment and the quartiles and sample count behind each timing, including
the unscaled wall-time rate.  The program under test runs in this single
process with one BLAS thread.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from array import array
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread setting)

from tracer import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SPAWNS = 21
CHILD_TIMEOUT_S = 120.0
SETUP_CODE = "import bngap.cli as c; c.build_parser()"
RUN_CODE = "import sys; from bngap.cli import main; sys.exit(main(sys.argv[1:]))"

PROBE_PERIOD_S = 0.01
PROBE_STEPS = 300
# Share of the fastest and of the slowest probe samples left out of their mean.
PROBE_TRIM = 0.1
# Trimmed mean probe duration that defines the reference host speed: about
# the probe's time on an idle 2.1 GHz x86-64 core with CPython 3.11.
PROBE_REF_S = 75e-6

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "1"}


def _layer_units() -> dict[str, str]:
    units = {}
    for name, *_ in SPANS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units.update({
        "multipartite.secular_value.per_spectrum": "count",
        "cli.output_bytes": "B",
        "search.accept_ratio": "1",
        "search.eval_ratio": "1",
        "trace.overhead_frac": "1",
    })
    return units


PER_LAYER_UNITS = _layer_units()


def import_cli():
    """``bngap.cli`` from this checkout's ``src``, never an installed copy."""
    if not (SRC / "bngap" / "cli.py").is_file():
        raise ImportError(f"no bngap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bngap.cli
    return bngap.cli


def _probe_work() -> int:
    """Fixed interpreter work on integers only.

    Integers are not tracked by the garbage collector, so a sample never
    triggers a collection, whose cost would grow with the program's heap.
    """
    x = 1
    for _ in range(PROBE_STEPS):
        x = (x * 2654435761 + 12345) & 0xFFFFFFFFFFFF
        x ^= (x >> 7).bit_count() + (x & -x)
    return x


class SpeedProbe:
    """Samples the host's current speed while a timed run executes.

    On a shared host the CPU's speed drifts with its neighbours' load: on a
    2-vCPU VM the wall time of one run varied by up to 1.8x between minutes,
    with process CPU time tracking wall time and no steal.  Every
    PROBE_PERIOD_S a timer signal runs ``_probe_work`` in this thread and
    times it, so the samples cover the same interval as the run: inside an
    in-process run, or while this process waits for a setup child.

    The samples of one run have two modes (on that VM about 80 and 130 us),
    as the host moves between idle and contended spells, so their median
    jumps between the modes.  Their trimmed mean tracks the run's share of
    slow time, and leaving out the extremes keeps one preempted sample from
    moving it.  Over 134 sweep and search runs on that VM, log wall time
    against log trimmed-mean probe time had a slope of 0.99-1.02 and a
    correlation of 0.97-0.99; dividing wall time by trimmed mean /
    PROBE_REF_S cut the spread (q3 - q1) / median of single runs from
    0.24-0.36 to 0.04-0.05, and of medians of 15 setup children from 0.16
    to 0.06.
    """

    def __init__(self) -> None:
        self.samples = array("d")

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _probe_work()
        self.samples.append(perf_counter() - start)

    def timing(self, wall: float) -> "Timing":
        ordered = sorted(self.samples)
        cut = int(len(ordered) * PROBE_TRIM)
        kept = ordered[cut:len(ordered) - cut]
        return Timing(wall, sum(ordered),
                      sum(kept) / len(kept) if kept else 0.0, len(ordered))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass(frozen=True)
class Timing:
    wall: float              # seconds of one cli.main call or setup child
    probe_s: float = 0.0     # total seconds of SpeedProbe samples taken meanwhile
    probe_mean: float = 0.0  # their trimmed mean
    probes: int = 0


def host_slowness(timings: list[Timing]) -> list[float]:
    """Trimmed mean probe time over PROBE_REF_S for each timing (above 1:
    slow host).

    A timing too short to hold a probe sample takes the median over timings.
    """
    means = [t.probe_mean for t in timings if t.probes]
    fallback = statistics.median(means) if means else PROBE_REF_S
    return [(t.probe_mean if t.probes else fallback) / PROBE_REF_S
            for t in timings]


def run_seconds(timings: list[Timing]) -> list[float]:
    """Seconds at the reference host speed of in-process runs, whose probe
    samples ran inside the timed call and are taken out."""
    return [(t.wall - t.probe_s) / slow
            for t, slow in zip(timings, host_slowness(timings))]


def repeat(seconds: float, min_runs: int, run) -> list:
    """Results of the passing calls of ``run`` among as many as fit in
    ``seconds``; ``run`` returns None for a failed run."""
    results = []
    runs = 0
    start = perf_counter()
    while runs < min_runs or (perf_counter() - start) * (runs + 1) / runs <= seconds:
        result = run()
        runs += 1
        if result is not None:
            results.append(result)
    return results


class Bench:
    """Runs one workload repeatedly and keeps the tally of failed runs."""

    def __init__(self, cli, workload, seed: int, tmp: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.out = tmp / "out"
        self.argv = workload.argv(seed) + ["--out", str(self.out)]
        self.attempted = 0
        self.failed = 0
        self.setup_failed = False
        self.reference: dict | None = None
        self.counts: dict = {}

    def _record(self, ok: bool, why: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: failed run: {why}", file=sys.stderr)
        return ok

    def _outputs(self) -> dict[str, str]:
        name = self.out.name
        return {p.name[len(name):]: p.read_text(encoding="utf-8")
                for p in self.tmp.iterdir()
                if p.name.startswith(name) and not p.name.endswith(".manifest.json")}

    def _clear(self) -> None:
        for p in self.tmp.iterdir():
            p.unlink()

    def _judge(self, rc) -> bool:
        if rc != 0:
            return self._record(False, f"exit code {rc}")
        out = self._outputs()
        if self.reference is None:
            problems = self.workload.check(out, self.seed)
            if problems:
                return self._record(False, "; ".join(problems[:5]))
            self.reference = out
            self.counts = self.workload.counts(out)
        elif out != self.reference:
            return self._record(False, "output bytes differ from the first run")
        return self._record(True, "")

    def run_in_process(self, probe: SpeedProbe | None = None) -> Timing | None:
        """Timing of one ``cli.main`` call, or None if the run failed."""
        self._clear()
        sink = io.StringIO()
        wall = None
        try:
            with redirect_stdout(sink), redirect_stderr(sink), probe or nullcontext():
                start = perf_counter()
                rc = self.cli.main(self.argv)
                wall = perf_counter() - start
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = "exception"
        if not self._judge(rc):
            return None
        return probe.timing(wall) if probe else Timing(wall)

    def _spawn(self, args: list[str]):
        """Run ``python args`` on this checkout; (exit code, wall s, rusage)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        log = self.tmp.parent / (self.tmp.name + ".stderr")
        with open(log, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(log.read_text(errors="replace")[-2000:])
        log.unlink()
        return proc.returncode, wall, usage

    def setup_time(self) -> Timing:
        """The probe samples run in this process while the child starts."""
        with SpeedProbe() as probe:
            rc, wall, _ = self._spawn(["-c", SETUP_CODE])
        if rc != 0:
            self.setup_failed = True
            print(f"bench: setup exit code {rc}", file=sys.stderr)
        return probe.timing(wall)

    def run_fresh(self) -> float:
        """Peak RSS in MB of a fresh process running the workload once."""
        self._clear()
        rc, _, usage = self._spawn(["-c", RUN_CODE, *self.argv])
        self._judge(rc)
        return usage.ru_maxrss / 1024.0  # kilobytes on Linux


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0] if values else 0.0
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup = [bench.setup_time() for _ in range(SETUP_SPAWNS)]
    rss = bench.run_fresh()
    timings = repeat(seconds, 3, lambda: bench.run_in_process(SpeedProbe()))
    items = bench.counts.get("items", 0)
    # A setup child ran alongside its probe samples, so they are not taken out.
    samples = {
        "items_per_s": quartiles([items / s for s in run_seconds(timings)]),
        "wall_items_per_s": quartiles([items / t.wall for t in timings]),
        "setup_s": quartiles([t.wall / slow
                              for t, slow in zip(setup, host_slowness(setup))]),
        "wall_setup_s": quartiles([t.wall for t in setup]),
        "host_slowness": quartiles(host_slowness(timings)),
    }
    values = {
        "items_per_s": samples["items_per_s"]["median"],
        "setup_s": samples["setup_s"]["median"],
        "peak_rss_mb": rss,
        "ok_frac": (bench.attempted - bench.failed) / bench.attempted,
    }
    return values, samples


def derived_layer_metrics(run: dict, counts: dict, output_bytes: int) -> dict:
    """Ratios and counts built from one traced run's calls."""
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    iterations = counts.get("iterations", 0)
    return {
        "multipartite.secular_value.per_spectrum": ratio(
            run["multipartite.secular_value.calls"],
            run["multipartite.multipartite_spectrum.calls"]),
        "cli.output_bytes": output_bytes,
        "search.accept_ratio": ratio(counts.get("accepted", 0), iterations),
        "search.eval_ratio": ratio(run["conjecture.bn_report.calls"], iterations),
    }


def per_layer(bench: Bench, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    tracer = Tracer()

    def traced_run() -> Timing | None:
        tracer.install()
        try:
            tracer.begin_run()
            return bench.run_in_process(SpeedProbe())
        finally:
            tracer.uninstall()

    def pair() -> tuple[Timing, Timing] | None:
        untraced, traced = bench.run_in_process(SpeedProbe()), traced_run()
        return (untraced, traced) if untraced and traced else None

    pairs = repeat(seconds, 2, pair)
    tracer.save(spans_path)
    items = bench.counts.get("items", 0)
    output_bytes = sum(len(text.encode("utf-8"))
                       for text in (bench.reference or {}).values())
    runs = [dict(run, **derived_layer_metrics(run, bench.counts, output_bytes))
            for run in tracer.per_run()]
    untraced = run_seconds([u for u, _ in pairs])
    traced = run_seconds([t for _, t in pairs])
    overhead = [1.0 - u / t for u, t in zip(untraced, traced)]
    samples = {
        "items_per_s": quartiles([items / s for s in untraced]),
        "traced_items_per_s": quartiles([items / s for s in traced]),
        "trace.overhead_frac": quartiles(overhead),
    }
    values = {name: statistics.median(run[name] for run in runs)
              for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
    values["trace.overhead_frac"] = samples["trace.overhead_frac"]["median"]
    return values, samples


def _git_rev() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bngap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "processes": 1,
        "loadavg_1m": os.getloadavg()[0],
    }


def run_workload(cli, workload, name: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result, detail) as printed."""
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        bench = Bench(cli, workload, seed, Path(tmp))
        if trace:
            values, samples = per_layer(bench, seconds,
                                        SCRATCH / f"spans_{name}.npz")
            units = PER_LAYER_UNITS
        else:
            values, samples = end_to_end(bench, seconds)
            units = END_TO_END_UNITS
    result = {
        "correct": bench.failed == 0 and not bench.setup_failed,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "samples": samples}
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"bench: cannot import bngap: {exc}", file=sys.stderr)
        return 2
    result, detail = run_workload(cli, WORKLOADS[args.workload], args.workload,
                                  args.seed, args.seconds, bool(args.trace))
    detail["env"] = environment()
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
