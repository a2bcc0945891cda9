"""The benchmark's layer tracer rebinds package attributes by name, so
every attribute it names must exist for ``bench/run.py --trace 1`` to run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_boundary_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.BOUNDARIES
               if not hasattr(module, attr)]
    assert not missing
