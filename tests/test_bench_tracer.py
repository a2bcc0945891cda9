"""The benchmark's layer tracer rebinds package attributes by name, so
every attribute it names must exist for ``bench/run.py --trace 1`` to run;
its workloads read package attributes and build configs by keyword, so
those must exist too."""

import ast
import dataclasses
import importlib.util
from pathlib import Path

import rbc_stoplab
from rbc_stoplab import cli, criteria, engine, montecarlo

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
WORKLOAD = BENCH / "workload.py"
MODULES = {"cli": cli, "criteria": criteria, "engine": engine, "montecarlo": montecarlo,
           "rbc_stoplab": rbc_stoplab}
CONFIGS = {"ExperimentConfig": montecarlo.ExperimentConfig, "TrialConfig": engine.TrialConfig}


def test_every_traced_boundary_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.BOUNDARIES
               if not hasattr(module, attr)]
    assert not missing


def workload_nodes():
    return list(ast.walk(ast.parse(WORKLOAD.read_text(encoding="utf-8"))))


def test_every_package_attribute_the_workload_reads_exists():
    reads = {(node.value.id, node.attr) for node in workload_nodes()
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in MODULES}
    assert reads
    missing = sorted(f"{module}.{attr}" for module, attr in reads
                     if not hasattr(MODULES[module], attr))
    assert not missing


def test_every_config_keyword_the_workload_passes_is_a_field():
    calls = [node for node in workload_nodes() if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr in CONFIGS]
    assert {call.func.attr for call in calls} == set(CONFIGS)
    unknown = [f"{call.func.attr}({kw.arg}=...)" for call in calls for kw in call.keywords
               if kw.arg not in {f.name for f in dataclasses.fields(CONFIGS[call.func.attr])}]
    assert not unknown
