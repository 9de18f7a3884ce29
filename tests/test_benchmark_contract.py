"""The benchmark in perfbench/ reaches into the package by name.

`perfbench/tracing.py` rebinds the names in its BOUNDARIES by getattr, and
its `run_probes` calls a few library functions that no CLI path uses.  A
rename or deletion would only show when the benchmark runs; this test
makes it show in the suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# what run_probes calls
PROBED = [
    ("gapsets.tilings", "count_compositions"),
    ("gapsets.tilings", "compositions_fixed_parts"),
    ("gapsets.kunz", "coords_violation"),
    ("gapsets.census", "CensusQuery"),
    ("gapsets.census", "count_gapsets"),
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_resolve():
    for module_name, layers in load_tracing().BOUNDARIES.items():
        module = importlib.import_module(module_name)
        for names in layers.values():
            for name in names:
                assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_probed_names_resolve():
    for module_name, name in PROBED:
        assert callable(getattr(importlib.import_module(module_name), name, None)), f"{module_name}.{name}"
