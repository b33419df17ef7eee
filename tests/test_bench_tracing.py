"""The names the benchmark's tracer wraps must exist in heckesat.

``bench/tracing.py`` replaces each (module, attribute path) of ``TRACED``
by a wrapper and fails on a name that is gone, so a deleted or renamed
function would break ``bench/run.py --trace 1`` although nothing under
``tests/`` calls it.  The file is loaded by path and read as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_bench_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load_bench_tracing().TRACED


@pytest.mark.parametrize("module, path", TRACED,
                         ids=[f"{m}.{p}" for m, p in TRACED])
def test_traced_name_resolves(module, path):
    obj = importlib.import_module(f"heckesat.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
