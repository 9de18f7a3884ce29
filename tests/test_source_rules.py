"""Rules the library source keeps, checked on its syntax tree.

No `assert` statement and no `__debug__` name: `python -O` strips both,
so a check written that way vanishes and the run time changes under -O.

Each library module declares its public API once, in its `__all__`: every
public function and class it defines and every upper-case constant, each
named once.  The package root re-exports those lists in module order and
writes no name list of its own.

The library modules import one another along a fixed graph: the census
engine imports none of them, the tilings rest on the sets and their Kunz
coordinates, the formulas on the sequences.  No module imports a process pool: a sharded
census forks its own workers.

No source truncates, replaces or renames a file: it names none of `os.ftruncate`,
`os.truncate`, `os.replace`, `os.rename` and `os.O_TRUNC`.  The count cache only appends,
so every byte a file handed to `--cache` held stays.

The census walk has one output, its tally: `census_coords` records each gapset as the tally
counts it, so the walk in `census._census` (`grow` and the loop over `firsts`) names neither
`items` nor `selects`.

The census's wrap-around floor walks its pairs with two indices: `floor` in `census._census`
calls no `range`, which would build a range object and its iterator on each of its many
short scans.

The count cache holds only its log: the body of `cli.CountCache` names none of `count_gapsets`,
`census_histograms`, `_guard` and `GMAX_GUARD`.  It reads and appends records; `count --selfcheck`
builds the queries, applies the genus guard and recounts them, so the record format and the
recount can change apart.
"""

import ast
import importlib
from pathlib import Path

import pytest

import gapsets

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gapsets").glob("*.py"))
LIBRARY = ["census", "core", "formulas", "kunz", "sequences", "tilings"]  # the root's order


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"census.py", "cli.py", "core.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_check_that_python_O_strips(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []


def test_every_module_is_library_or_front_end():
    assert sorted(p.stem for p in SOURCES) == sorted(LIBRARY + ["__init__", "cli"])


def declared_api(path):
    """(the module's `__all__` as written, the public names it defines at top level)."""
    exported, defined = None, set()
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    exported = ast.literal_eval(node.value)
                elif isinstance(target, ast.Name) and target.id.isupper():
                    defined.add(target.id)
    return exported, {name for name in defined if not name.startswith("_")}


@pytest.mark.parametrize("module", LIBRARY)
def test_module_all_is_its_public_api(module):
    exported, defined = declared_api(SOURCES[0].parent / f"{module}.py")
    assert exported is not None, f"{module} has no literal __all__"
    assert len(exported) == len(set(exported)), f"{module}.__all__ names a name twice"
    assert set(exported) == defined


def test_root_reexports_every_module_all():
    modules = [importlib.import_module(f"gapsets.{name}") for name in LIBRARY]
    assert gapsets.__all__ == [name for module in modules for name in module.__all__]
    for name in gapsets.__all__:
        assert hasattr(gapsets, name), name


# library module -> the library modules it imports
IMPORTS = {
    "census": set(),
    "core": set(),
    "formulas": {"sequences"},
    "kunz": {"core"},
    "sequences": set(),
    "tilings": {"core", "kunz"},
}


def package_imports(path):
    """The modules of the package one source file imports, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["gapsets" if node.level else "", node.module]))
            dotted = [module] + [f"{module}.{alias.name}" for alias in node.names]  # from . import x
        else:
            continue
        found |= {name.split(".")[1] for name in dotted if name.startswith("gapsets.")}
    return found


def test_library_import_graph():
    assert sorted(IMPORTS) == sorted(LIBRARY)
    for module in LIBRARY:
        assert package_imports(SOURCES[0].parent / f"{module}.py") == IMPORTS[module], module


def top_level_imports(path):
    """The top-level names of the modules one source file imports, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_process_pool_import(path):
    assert top_level_imports(path) & {"multiprocessing", "concurrent"} == set()


REWRITES = {"ftruncate", "truncate", "replace", "rename", "O_TRUNC"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_file_rewrite(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: os.{name}" for name in names if name in REWRITES]
    assert found == []


def census_engine():
    """The syntax tree of `census._census`."""
    tree = ast.parse((SOURCES[0].parent / "census.py").read_text(encoding="utf-8"))
    return next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_census")


def test_census_walk_has_one_output():
    census = census_engine()
    walk = [
        node
        for node in census.body
        if (isinstance(node, ast.FunctionDef) and node.name == "grow")
        or (isinstance(node, ast.For) and isinstance(node.iter, ast.Name) and node.iter.id == "firsts")
    ]
    assert len(walk) == 2
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for part in walk
        for node in ast.walk(part)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert named & {"items", "selects"} == set()


def test_census_floor_calls_no_range():
    floor = next(node for node in census_engine().body if isinstance(node, ast.FunctionDef) and node.name == "floor")
    calls = [
        node.lineno
        for node in ast.walk(floor)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "range"
    ]
    assert calls == []


def test_count_cache_holds_only_its_log():
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text(encoding="utf-8"))
    cache = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "CountCache")
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(cache)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert named & {"count_gapsets", "census_histograms", "_guard", "GMAX_GUARD"} == set()
