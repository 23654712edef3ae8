"""Every imported name in the package and the tests is used, the package
exports exactly the names of the README's round trip, and a CLI run loads
OpenSSL and ``numpy.random`` only where it digests an input or draws."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The package's ``__init__`` imports only to re-export.
SCANNED = sorted(p for p in (ROOT / "src" / "bngap").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` (``__future__`` aside)
    that no expression of it reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_scanner_finds_an_unused_name():
    source = "import os, sys\nimport bngap.search\nfrom x import a, b as c\nprint(sys, c, bngap)\n"
    assert unused_imports(source) == ["os", "a"]


def test_no_unused_imports():
    assert len(SCANNED) > 20
    found = {p.relative_to(ROOT).as_posix(): names for p in SCANNED
             if (names := unused_imports(p.read_text(encoding="utf-8")))}
    assert found == {}


def readme_round_trip() -> str:
    """The code of the README's round-trip block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"A quick round trip:\n\n```python\n(.*?)```", readme,
                         re.DOTALL)
    return block


def test_package_exports_only_the_round_trip_names():
    init = ast.parse((ROOT / "src" / "bngap" / "__init__.py").read_text(encoding="utf-8"))
    bound = {a.asname or a.name for node in init.body
             if isinstance(node, ast.ImportFrom) for a in node.names}
    bound |= {t.id for node in init.body if isinstance(node, ast.Assign)
              for t in node.targets}
    imported = {a.name for node in ast.walk(ast.parse(readme_round_trip()))
                if isinstance(node, ast.ImportFrom) and node.module == "bngap"
                for a in node.names}
    assert bound - {"__version__"} == imported


def test_readme_round_trip_runs(capsys):
    exec(readme_round_trip(), {})
    assert capsys.readouterr().out.splitlines() == [
        "(6.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -3.0, -3.0)", "True"]


# Runs ``bngap.cli.main`` on the given argv (stdin from the parent) and
# prints which of the heavy modules the run left in ``sys.modules``.
LOADED_AFTER_MAIN = """
import contextlib, json, os, sys
from bngap.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(sys.argv[1:])
print(json.dumps([code, [m for m in ("hashlib", "numpy.random") if m in sys.modules]]))
"""


@pytest.mark.parametrize("argv, stdin, loaded", [
    (("sweep", "--n-max", "8"), "", []),
    (("exhaustive", "--n-max", "3"), "", []),
    (("spectrum", "--parts", "2,2,2"), "", []),
    # The control: the probe sees the import that the runs above skip.
    (("report", "--graph6", "-"), "Bw\n", ["hashlib"]),
])
def test_only_a_digested_input_loads_hashlib(argv, stdin, loaded):
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER_MAIN, *argv],
                          input=stdin, capture_output=True, text=True,
                          timeout=300, check=True)
    assert json.loads(proc.stdout) == [0, loaded]
