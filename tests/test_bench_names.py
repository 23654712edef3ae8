"""Every function the benchmark's tracer patches still exists in bngap.

``bench/tracer.py`` names its spans and counters by module and attribute
path and raises at install time if one is gone.  This reads those tables
without installing the tracer, so a rename or deletion in ``bngap`` fails
here and not only in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
spec = importlib.util.spec_from_file_location("bngap_bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


def target(module_name, path):
    assert module_name.startswith("bngap.")
    owner, attr = tracer._owner_and_attr(module_name, path)
    fn = getattr(owner, attr)
    assert callable(fn)
    return fn


@pytest.mark.parametrize("name, module_name, path, only", tracer.SPANS,
                         ids=[span[0] for span in tracer.SPANS])
def test_span_target_resolves(name, module_name, path, only):
    fn = target(module_name, path)
    for bound in only:
        assert getattr(importlib.import_module(bound), path) is fn


@pytest.mark.parametrize("name, module_name, path", tracer.COUNTERS,
                         ids=[counter[0] for counter in tracer.COUNTERS])
def test_counter_target_resolves(name, module_name, path):
    target(module_name, path)
