"""Every small benchmark workload passes the benchmark's own output check.

``bench/workloads.py`` holds each workload's CLI arguments and the check a
benchmark run applies to its output.  This runs the ``TINY`` size of each
through ``bngap.cli.main`` with ``--out``, collects the files the way a
benchmark run does (the manifest left out), and asserts the check finds no
problem, so an engine change that would fail a benchmark run fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from bngap.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
spec = importlib.util.spec_from_file_location("bngap_bench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(spec)
# ``dataclass`` reads the module of each class it decorates from sys.modules.
sys.modules[spec.name] = workloads
spec.loader.exec_module(workloads)

SEED = 0


@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_tiny_workload_passes_its_check(name, tmp_path, capsys):
    workload = workloads.TINY[name]
    out = tmp_path / "out"
    rc = main(workload.argv(SEED) + ["--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    outputs = {p.name[len(out.name):]: p.read_text(encoding="utf-8")
               for p in tmp_path.iterdir()
               if p.name.startswith(out.name)
               and not p.name.endswith(".manifest.json")}
    assert "" in outputs
    assert workload.check(outputs, SEED) == []
