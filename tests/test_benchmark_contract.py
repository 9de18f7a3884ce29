"""The benchmark in perfbench/ reaches into the package by name and argv.

`perfbench/tracing.py` rebinds the names in its BOUNDARIES by getattr, and
`CountCache`'s `_load` and `save` from the class's own `__dict__`; its
`run_probes` calls a few library functions that no CLI path uses;
`perfbench/workloads.py` builds the argv of every op it runs.  A rename,
deletion, signature or flag change would only show when the benchmark
runs; these tests make it show in the suite.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

from gapsets.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# what run_probes calls
PROBED = [
    ("gapsets.tilings", "count_compositions"),
    ("gapsets.tilings", "compositions_fixed_parts"),
    ("gapsets.kunz", "coords_violation"),
    ("gapsets.census", "CensusQuery"),
    ("gapsets.census", "count_gapsets"),
]


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_resolve():
    for module_name, layers in load("tracing").BOUNDARIES.items():
        module = importlib.import_module(module_name)
        for names in layers.values():
            for name in names:
                assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_traced_cache_methods_resolve():
    from gapsets.cli import CountCache

    for name in ("_load", "save"):
        assert callable(CountCache.__dict__.get(name)), f"CountCache.{name}"


def test_probed_names_resolve():
    for module_name, name in PROBED:
        assert callable(getattr(importlib.import_module(module_name), name, None)), f"{module_name}.{name}"


def test_probes_run():
    probes = load("tracing").run_probes(6, 6)  # the census-sharded probe and every other at genus 6
    assert probes and all(type(v) is float and math.isfinite(v) for v in probes.values()), probes


def test_workload_argvs_parse():
    workloads = load("workloads")
    parser = build_parser()
    for name in workloads.WORKLOADS:
        for scale in ("full", "smoke"):
            for op in workloads.make_ops(name, seed=1, scale=scale):
                parser.parse_args(op.argv)  # exits on an unknown flag or a bad value
