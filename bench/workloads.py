"""The benchmark's workloads: CLI arguments, units of work and output checks.

Each workload is one ``bngap`` subcommand at a fixed input size.  A run's
output is a dict that maps the suffix of each file the CLI wrote next to
``--out`` ("" for the main file, ".summary.csv", ...) to its text; the
manifest is left out because it holds timestamps.

Checks compare values, not bytes: counts must match exactly and floats must
agree within ``REL_TOL`` relative to the scale of the quantity, the tolerance
the test suite uses.  A check returns a list of problems; empty means the
output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9

# Reports per sweep whose extreme eigenvalues are recomputed densely.
SWEEP_SAMPLE = 64

_PARTS = re.compile(r"multipartite\[([0-9,]+)\]")


def close(got: float, want: float, scale: float = 0.0) -> bool:
    """``got`` equals ``want`` within REL_TOL of max(1, |want|, scale)."""
    return abs(got - want) <= REL_TOL * max(1.0, abs(want), scale)


def _summary_csv(text: str | None) -> dict:
    """The six count columns that lead a ``.summary.csv``.

    The trailing ``argmin_source`` cell is written unquoted and can hold
    commas, so the row is not parsed as a whole.
    """
    lines = (text or "").splitlines()
    if len(lines) < 2:
        return {}
    return {k: int(v) for k, v in zip(lines[0].split(",")[:6],
                                      lines[1].split(",")[:6])}


def _expect_counts(where: str, got: dict, want: dict) -> list[str]:
    return [f"{where}: {key} is {got.get(key)}, expected {value}"
            for key, value in want.items() if got.get(key) != value]


@dataclass(frozen=True)
class Sweep:
    """Exact reports for every partition with n <= n_max, r <= r_max."""

    n_max: int
    r_max: int
    expect: dict

    def argv(self, seed: int) -> list[str]:
        return ["sweep", "--n-max", str(self.n_max), "--r-max", str(self.r_max)]

    def counts(self, out: dict) -> dict:
        return {"items": out[""].count("\n")}

    def sample(self, out: dict, seed: int) -> list[int]:
        """Line indices of the reports checked against a dense eigensolve."""
        total = out[""].count("\n")
        return sorted(random.Random(seed).sample(range(total),
                                                 min(SWEEP_SAMPLE, total)))

    def check(self, out: dict, seed: int) -> list[str]:
        problems = _expect_counts("summary", _summary_csv(out.get(".summary.csv")),
                                  self.expect)
        lines = out[""].splitlines()
        if len(lines) != self.expect["total"]:
            problems.append(f"{len(lines)} report lines, expected "
                            f"{self.expect['total']}")
        for i in self.sample(out, seed):
            rep = json.loads(lines[i])
            match = _PARTS.match(rep["source"])
            if not match:
                problems.append(f"line {i + 1}: bad source {rep['source']!r}")
                continue
            sizes = [int(s) for s in match.group(1).split(",")]
            n = sum(sizes)
            adj = np.ones((n, n))
            start = 0
            for s in sizes:
                adj[start:start + s, start:start + s] = 0.0
                start += s
            vals = np.linalg.eigvalsh(adj)
            scale = float(np.abs(vals).max())
            m = (n * n - sum(s * s for s in sizes)) // 2
            if (rep["n"], rep["m"], rep["omega"]) != (n, m, len(sizes)):
                problems.append(f"line {i + 1}: n, m, omega of {sizes} wrong")
            for key, want in (("lambda1", vals[-1]), ("lambda_n", vals[0])):
                if not close(rep[key], float(want), scale):
                    problems.append(f"line {i + 1}: {key} {rep[key]!r} vs "
                                    f"dense {float(want)!r}")
        return problems


@dataclass(frozen=True)
class Exhaustive:
    """Every labeled graph with n <= n_max vertices."""

    n_max: int
    expect: dict

    def argv(self, seed: int) -> list[str]:
        return ["exhaustive", "--n-max", str(self.n_max)]

    def counts(self, out: dict) -> dict:
        summary = json.loads(out[""])["summary"]
        return {"items": summary["total"] + summary["out_of_domain"]}

    def check(self, out: dict, seed: int) -> list[str]:
        lines = out[""].splitlines()
        if len(lines) != 1:
            return [f"{len(lines)} output lines, expected 1"]
        record = json.loads(lines[0])
        problems = _expect_counts("summary", record["summary"], self.expect)
        problems += _expect_counts("summary.csv",
                                   _summary_csv(out.get(".summary.csv")),
                                   self.expect)
        if record["malformed"] != 0:
            problems.append(f"{record['malformed']} malformed records")
        return problems


@dataclass(frozen=True)
class Search:
    """Seeded K4-free hill climb at a fixed vertex count."""

    n: int
    restarts: int
    steps: int

    def argv(self, seed: int) -> list[str]:
        return ["search", "--n-max", str(self.n), "--restarts", str(self.restarts),
                "--steps", str(self.steps), "--seed", str(seed)]

    def counts(self, out: dict) -> dict:
        record = json.loads(out[""])
        return {"items": record["iterations"], "iterations": record["iterations"],
                "accepted": record["accepted"]}

    def check(self, out: dict, seed: int) -> list[str]:
        lines = out[""].splitlines()
        if len(lines) != 1:
            return [f"{len(lines)} output lines, expected 1"]
        d = json.loads(lines[0])
        problems = []
        cfg = d["config"]
        if (cfg["seed"], cfg["n"], cfg["max_iters"], cfg["restarts"]) != (
                seed, self.n, self.steps, self.restarts):
            problems.append(f"config {cfg} does not echo the arguments")
        if not d["iterations"] <= self.restarts * self.steps:
            problems.append(f"iterations {d['iterations']} above restarts*steps")
        if not d["accepted"] <= d["iterations"]:
            problems.append(f"accepted {d['accepted']} above iterations")
        if d["restarts_run"] != self.restarts or d["found_violation"]:
            problems.append("restarts_run or found_violation wrong")
        rep = d["best_report"]
        if rep is None:
            return problems + ["no best report"]
        bound, lhs = rep["bound"], rep["lhs"]
        if rep["n"] != self.n or not 2 <= rep["omega"] <= 3:
            problems.append(f"best report n={rep['n']} omega={rep['omega']}")
        if not close(bound, 2.0 * (1.0 - 1.0 / rep["omega"]) * rep["m"]):
            problems.append(f"bound {bound!r} is not 2(1-1/omega)m")
        if not close(lhs, rep["lambda1"] ** 2 + rep["lambda2"] ** 2):
            problems.append(f"lhs {lhs!r} is not lambda1^2 + lambda2^2")
        if not close(rep["gap"], bound - lhs, bound):
            problems.append(f"gap {rep['gap']!r} is not bound - lhs")
        if not close(d["best_objective"], -rep["gap"], bound):
            problems.append("best_objective is not -gap")
        return problems


@dataclass(frozen=True)
class Stability:
    """Edge deletions from the balanced complete tripartite graph T(n, 3)."""

    n: int
    grid: tuple[int, ...]
    samples: int

    def argv(self, seed: int) -> list[str]:
        return ["stability", "--n-max", str(self.n),
                "--grid", ",".join(map(str, self.grid)),
                "--samples", str(self.samples), "--seed", str(seed)]

    def counts(self, out: dict) -> dict:
        return {"items": out[""].count("\n") - 1}

    def check(self, out: dict, seed: int) -> list[str]:
        rows = list(csv.DictReader(io.StringIO(out[""])))
        want_rows = len(self.grid) * self.samples
        if len(rows) != want_rows:
            return [f"{len(rows)} rows, expected {want_rows}"]
        q, r = divmod(self.n, 3)
        sizes = [q + 1] * r + [q] * (3 - r)
        turan_m = (self.n ** 2 - sum(s * s for s in sizes)) // 2
        problems = []
        for i, row in enumerate(rows):
            k = self.grid[i // self.samples]
            edits, ratio = int(row["edits"]), float(row["lambda1_sq_over_m"])
            where = f"row {i + 1} (k={k})"
            if (int(row["n"]), int(row["k"]), int(row["sample"])) != (
                    self.n, k, i % self.samples):
                problems.append(f"{where}: n, k, sample out of order")
            if int(row["m"]) != turan_m - k:
                problems.append(f"{where}: m {row['m']}, expected {turan_m - k}")
            # Edge-deleted T(n,3) is K4-free, so spectral Turan caps the ratio.
            if ratio > 4.0 / 3.0 + REL_TOL:
                problems.append(f"{where}: lambda1^2/m {ratio!r} above 4/3")
            if k == 0 and (edits != 0 or (self.n % 3 == 0
                                          and not close(ratio, 4.0 / 3.0))):
                problems.append(f"{where}: undeleted T(n,3) not at 4/3, 0 edits")
            if not close(float(row["edits_normalized"]), edits / self.n ** 2):
                problems.append(f"{where}: edits_normalized is not edits/n^2")
        return problems


# Full-size workloads.  Expected counts are those of the published sweep
# (criterion 3) and of all 33,867 labeled graphs on at most 6 vertices.
WORKLOADS = {
    "sweep": Sweep(30, 6, {"total": 8516, "holds": 8511, "equality": 248,
                           "excluded": 5, "violations": 0, "out_of_domain": 0}),
    "exhaustive": Exhaustive(6, {"total": 33861, "holds": 33856,
                                 "equality": 4167, "excluded": 5,
                                 "violations": 0, "out_of_domain": 6}),
    "search": Search(30, 6, 1000),
    "stability": Stability(60, (0, 10, 50), 20),
}

# The same workloads at a size that runs in well under a second, for the
# benchmark's self-test.
TINY = {
    "sweep": Sweep(12, 4, {"total": 142, "holds": 139, "equality": 40,
                           "excluded": 3, "violations": 0, "out_of_domain": 0}),
    "exhaustive": Exhaustive(4, {"total": 71, "holds": 68, "equality": 50,
                                 "excluded": 3, "violations": 0,
                                 "out_of_domain": 4}),
    "search": Search(8, 2, 60),
    "stability": Stability(15, (0, 4), 3),
}
