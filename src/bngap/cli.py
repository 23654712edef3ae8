"""Command-line front door: reproducible batch runs over all the machinery.

Exit codes: 0 means the run completed and found no violation of the gap
inequality; 1 means at least one non-excluded graph violated it (the
headline signal); 2 means a usage or input error, including an input or
``--out`` path that cannot be opened.

Each run goes through one ``_Run``: it reads input line by line, writes each
output line as it is made (a sweep writes a chunk of lines at once), counts
violations and picks the exit code.
``--out FILE`` writes the main output to ``FILE.tmp``, renames it to FILE
once the run completes, and then writes a sibling ``FILE.manifest.json``
recording the subcommand, flags, seeds, tool version, input digests, and
timestamps.  A run that fails or is interrupted leaves no FILE.tmp behind.
Timestamps live only in the manifest, so re-running an invocation
reproduces the output bytes exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Iterator

from . import __version__
from .conjecture import BnReport, OutOfDomainError, bn_report
from .graphs import (
    MAX_N,
    Graph,
    Graph6Error,
    PartSizes,
    parse_edge_list_text,
    parse_graph6,
)
from .jsonutil import csv_cell, dumps
from .multipartite import multipartite_spectrum
from .search import (
    MAX_ENUM_N,
    SearchConfig,
    SweepSummary,
    exhaustive_check,
    graph6_records,
    graph6_tag,
    hill_climb,
    sweep,
    zykov_trajectory,
)
from .spectra import eigenvalues
from .stability import (
    STABILITY_CSV_COLUMNS,
    dense_case_check,
    stability_experiment,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class _Run:
    """One CLI run: the output sink, the inputs read, the violation count,
    and the manifest."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.out = getattr(args, "out", None)
        self.inputs: list[dict] = []
        self.violations = 0
        self.started = datetime.now(timezone.utc).isoformat()
        if self.out and os.path.isdir(self.out):
            raise IsADirectoryError(f"--out {self.out!r} is a directory")
        self.sink = (open(self.out + ".tmp", "w", encoding="utf-8") if self.out
                     else sys.stdout)

    def emit(self, line: str) -> None:
        self.sink.write(line + "\n")

    def lines(self, path: str) -> Iterator[str]:
        """The lines of ``path`` ('-' is stdin), line endings kept, decoded
        byte for byte (latin-1), so no input byte is a decoding error: a
        graph6 record with a byte outside 63..126 is malformed, and its
        error names that byte.  The input's sha256 joins the manifest once
        it has been read to the end."""
        import hashlib  # loads OpenSSL's libcrypto: only runs that read input

        digest = hashlib.sha256()
        with (contextlib.nullcontext(sys.stdin.buffer) if path == "-"
              else open(path, "rb")) as fh:
            for raw in fh:
                digest.update(raw)
                yield raw.decode("latin-1")
        self.inputs.append({"path": "<stdin>" if path == "-" else path,
                            "sha256": digest.hexdigest()})

    def check(self, report: BnReport, tag: str) -> None:
        if report.violation:
            self.violations += 1
            _status(f"VIOLATION: {tag} gap={report.gap!r}")

    def manifest(self) -> dict:
        flags = {
            k: v for k, v in sorted(vars(self.args).items())
            if k != "func" and v is not None
        }
        return {
            "tool": "bngap",
            "version": __version__,
            "subcommand": self.args.subcommand,
            "flags": flags,
            "seed": getattr(self.args, "seed", None),
            "inputs": self.inputs,
            "started": self.started,
            "finished": datetime.now(timezone.utc).isoformat(),
        }

    def finish(self, summary: SweepSummary | None = None) -> int:
        """Publish FILE, FILE.summary.csv and, last, the manifest; the exit code."""
        if self.out:
            self.sink.close()
            os.replace(self.out + ".tmp", self.out)
            if summary is not None:
                d = summary.as_dict()
                with open(self.out + ".summary.csv", "w", encoding="utf-8") as fh:
                    writer = csv.writer(fh, lineterminator="\n")
                    writer.writerow(d.keys())
                    writer.writerow("" if v is None else csv_cell(v)
                                    for v in d.values())
            with open(self.out + ".manifest.json", "w", encoding="utf-8") as fh:
                fh.write(dumps(self.manifest()) + "\n")
        return EXIT_VIOLATION if self.violations else EXIT_OK


def _status(message: str) -> None:
    print(f"bngap: {message}", file=sys.stderr)


def _int_at_least(lo: int, hi: int | None = None):
    """An argparse type: an integer no smaller than ``lo`` (and no larger
    than ``hi``, if given)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"need at least {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"need at most {hi}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _parse_parts(text: str) -> PartSizes:
    try:
        return PartSizes(tuple(int(tok) for tok in text.split(",") if tok.strip()))
    except ValueError as exc:
        raise ValueError(f"bad --parts value {text!r}: {exc}") from exc


def _parse_grid(text: str) -> list[int]:
    try:
        grid = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --grid value {text!r}: {exc}") from exc
    if not grid:
        raise ValueError(f"bad --grid value {text!r}: no deletion counts")
    return grid


def _load_graphs(run: _Run) -> list[tuple[str, Graph]]:
    """Graphs from --graph6 (one record per line) or --edges (one graph),
    all parsed before the run emits anything."""
    args = run.args
    if args.edges is not None:
        return [("edges", parse_edge_list_text("".join(run.lines(args.edges))))]
    graphs = []
    for lineno, line in graph6_records(run.lines(args.graph6)):
        try:
            graphs.append((graph6_tag(lineno), parse_graph6(line)))
        except Graph6Error as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if not graphs:
        raise ValueError("no graph6 records in input")
    return graphs


def _cmd_spectrum(run: _Run) -> int:
    args = run.args
    if args.parts is not None:
        run.emit(dumps(vars(multipartite_spectrum(_parse_parts(args.parts)))))
    else:
        for tag, g in _load_graphs(run):
            run.emit(dumps({"source": tag, "n": g.n, "m": g.m,
                            "values": eigenvalues(g)[::-1].tolist()}))
    return run.finish()


def _cmd_report(run: _Run) -> int:
    graphs = _load_graphs(run)
    for tag, g in graphs:
        try:
            report = bn_report(g, source=tag)
        except OutOfDomainError as exc:
            run.emit(dumps({"status": "out-of-domain", "n": g.n, "m": g.m,
                            "source": tag, "detail": str(exc)}))
            continue
        run.emit(dumps(vars(report)))
        run.check(report, tag)
    _status(f"report: {run.violations} violations / {len(graphs)} graphs")
    return run.finish()


def _cmd_sweep(run: _Run) -> int:
    args = run.args
    summary = sweep(args.n_max, args.r_max, run.sink.write,
                    lambda report: run.check(report, report.source))
    _status(
        f"sweep n<={args.n_max} r<={args.r_max}: {summary.violations} violations"
        f" / {summary.total} reports (equality={summary.equality},"
        f" excluded={summary.excluded})"
    )
    return run.finish(summary)


def _cmd_exhaustive(run: _Run) -> int:
    args = run.args
    if args.graph6 is not None:
        source, scope = run.lines(args.graph6), "graph6 stream"
    else:
        source, scope = args.n_max, f"all labeled graphs, n<={args.n_max}"

    def violation(report: BnReport) -> None:
        run.emit(dumps(vars(report)))
        run.check(report, report.source)

    res = exhaustive_check(source, on_violation=violation)
    run.emit(dumps({"summary": res.summary.as_dict(), "malformed": res.malformed}))
    _status(f"exhaustive ({scope}): {run.violations} violations"
            f" / {res.summary.total} applicable graphs")
    return run.finish(res.summary)


def _cmd_search(run: _Run) -> int:
    args = run.args
    cfg = SearchConfig(
        seed=args.seed,
        n=args.n_max,
        max_iters=args.steps,
        restarts=args.restarts,
        k4_constrained=args.method == "k4free",
        objective={"bn-gap": "bn_gap_negated", "lambda1": "lambda1"}[args.objective],
        init_density=args.density,
    )
    result = hill_climb(cfg)
    run.emit(dumps({k: v for k, v in asdict(result).items() if k != "best_graph"}))
    if result.best_report:
        _status(f"search: best gap {result.best_report.gap!r}"
                f" over {result.iterations} iterations")
        run.check(result.best_report, result.best_report.source)
    return run.finish()


def _cmd_zykov(run: _Run) -> int:
    args = run.args
    graphs = _load_graphs(run)
    if len(graphs) != 1:
        raise ValueError("zykov expects exactly one input graph")
    tag, g = graphs[0]
    result = zykov_trajectory(g, args.steps, args.seed)
    run.emit(dumps({"type": "initial", "source": tag,
                    "lambda1": result.initial_lambda1,
                    "omega": result.initial_omega, "m": result.initial_m}))
    for step in result.steps:
        run.emit(dumps({"type": "step", **asdict(step)}))
    run.emit(dumps({"type": "summary", "steps": len(result.steps),
                    "findings": result.findings}))
    for finding in result.findings:
        _status(f"zykov finding: {finding}")
    _status(f"zykov: {len(result.steps)} steps, {len(result.findings)} findings")
    return run.finish()


def _cmd_stability(run: _Run) -> int:
    args = run.args
    grid = _parse_grid(args.grid)
    rows = stability_experiment(args.n_max, grid, args.samples, args.seed)
    run.emit(",".join(STABILITY_CSV_COLUMNS))
    for row in rows:
        run.emit(",".join(csv_cell(row[col]) for col in STABILITY_CSV_COLUMNS))
    _status(f"stability: {len(rows)} rows (n={args.n_max}, grid={grid})")
    return run.finish()


def _cmd_dense_check(run: _Run) -> int:
    for tag, g in _load_graphs(run):
        report = dense_case_check(g, run.args.density, run.args.delta)
        record = {"source": tag} | {k: v for k, v in asdict(report).items()
                                    if v is not None}
        if report.applicable:
            run.check(report.bn, tag)
        run.emit(dumps(record))
    return run.finish()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bngap",
        description="Verification toolkit for the clique-eigenvalue gap "
                    "inequality lambda1^2 + lambda2^2 <= 2(1 - 1/omega) m.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write output to FILE plus FILE.manifest.json")
        return p

    def graph_input(p: argparse.ArgumentParser):
        """The required choice of one input: --graph6 or --edges."""
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--graph6", help="graph6 file, '-' for stdin")
        group.add_argument("--edges",
                           help="edge-list file ('n m' header), '-' for stdin")
        return group

    p = add("spectrum", _cmd_spectrum,
            "adjacency spectrum (exact for --parts, numeric otherwise)")
    graph_input(p).add_argument("--parts",
                                help="comma-separated part sizes, e.g. 2,2,2")

    graph_input(add("report", _cmd_report, "gap report per input graph (JSONL)"))

    p = add("sweep", _cmd_sweep, "exact reports for all part-size partitions")
    p.add_argument("--n-max", type=_int_at_least(2, MAX_N), required=True)
    p.add_argument("--r-max", type=_int_at_least(2), default=6)

    p = add("exhaustive", _cmd_exhaustive,
            f"check every labeled graph (n<={MAX_ENUM_N}) or a graph6 stream")
    family = p.add_mutually_exclusive_group(required=True)
    family.add_argument("--n-max", type=_int_at_least(1, MAX_ENUM_N))
    family.add_argument("--graph6", help="graph6 file, '-' for stdin")

    p = add("search", _cmd_search, "hill-climb for gap violations")
    p.add_argument("--n-max", type=_int_at_least(2, MAX_N), required=True,
                   help=f"vertex count, 2 to {MAX_N}")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--restarts", type=_int_at_least(1), default=10)
    p.add_argument("--steps", type=_int_at_least(0), default=1000,
                   help="iterations per restart")
    p.add_argument("--method", choices=["k4free", "free"], default="k4free")
    p.add_argument("--objective", choices=["bn-gap", "lambda1"], default="bn-gap")
    p.add_argument("--density", type=float, default=0.5, help="initial density")

    p = add("zykov", _cmd_zykov, "random neighbourhood-replacement trajectory")
    graph_input(p)
    p.add_argument("--steps", type=_int_at_least(0), default=20)
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = add("stability", _cmd_stability,
            "edge-deletion experiment around the balanced tripartite graph")
    p.add_argument("--n-max", type=_int_at_least(3, MAX_N), required=True,
                   help=f"vertex count, 3 to {MAX_N}")
    p.add_argument("--grid", default="0,1,2,3,4,5",
                   help="comma-separated deletion counts")
    p.add_argument("--samples", type=_int_at_least(1), default=20)
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = add("dense-check", _cmd_dense_check,
            "dense K4-free case diagnostics per input graph")
    graph_input(p)
    p.add_argument("--density", type=float, default=0.1,
                   help="edge-density constant c in m >= c n^2")
    p.add_argument("--delta", type=float, default=0.05,
                   help="case-split margin")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run = None
    try:
        run = _Run(args)
        return args.func(run)
    except BrokenPipeError:
        return EXIT_OK
    except (ValueError, OSError) as exc:
        # Bad values, unreadable inputs and unwritable outputs; never violations.
        _status(f"error: {exc}")
        return EXIT_USAGE
    finally:
        if run is not None and run.out:
            run.sink.close()
            with contextlib.suppress(FileNotFoundError):
                os.remove(run.out + ".tmp")


if __name__ == "__main__":
    sys.exit(main())
