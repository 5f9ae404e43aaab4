import ast
import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eploop

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from eploop import *", namespace)  # AttributeError if __all__ names something eploop lacks
    assert sorted(set(eploop.__all__) - set(namespace)) == []
    assert len(set(eploop.__all__)) == len(eploop.__all__)


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads: not as a name, and not in its __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted((ROOT / "src" / "eploop").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 20
    assert [entry for path in paths for entry in _unused_imports(path)] == []


def _layer_names() -> set[tuple[str, str]]:
    """(module, function) of every name in perfbench's LAYERS: its tracer reads them by name."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    layers = next(node.value for node in tree.body
                  if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
    return {(module, fn) for module, fns in ast.literal_eval(layers).items() for fn in fns}


def _read_names(node: ast.AST) -> list[str]:
    """Every name read under node, as a bare name or as an attribute."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)]


def test_every_top_level_definition_is_read_outside_itself():
    sources = sorted((ROOT / "src" / "eploop").glob("*.py"))
    paths = sources + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    reads = collections.Counter(name for tree in trees.values() for name in _read_names(tree))
    layers = _layer_names()
    unread = [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
              for path in sources for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and reads[node.name] == _read_names(node).count(node.name)  # recursion is no read
              and (path.stem, node.name) not in layers]
    assert unread == []


def test_no_module_calls_numpys_norm():
    """_row_norms is the one norm of src/: no module reads np.linalg.norm, or imports norm from numpy.linalg."""
    calls = []
    for path in sorted((ROOT / "src" / "eploop").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if ((isinstance(node, ast.Attribute) and node.attr == "norm" and getattr(node.value, "attr", "") == "linalg")
                    or (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                        and "norm" in [alias.name for alias in node.names])):
                calls.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert calls == []


def test_one_write_path():
    """Only cli.main writes to stdout, only harness.write_texts calls write_text, and only cli.main and
    harness.reproduce_figure call write_texts."""
    sites = set()
    for path in sorted((ROOT / "src" / "eploop").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                where = (path.stem, getattr(top, "name", None))
                if (isinstance(node, ast.Attribute) and node.attr == "write"
                        and isinstance(node.value, ast.Attribute) and node.value.attr == "stdout"):
                    sites.add(("sys.stdout.write", *where))
                elif isinstance(node, ast.Call) and (called := getattr(node.func, "id", None)
                                                     or getattr(node.func, "attr", None)) in ("write_text",
                                                                                             "write_texts"):
                    sites.add((called, *where))
    assert sites == {("sys.stdout.write", "cli", "main"), ("write_text", "harness", "write_texts"),
                     ("write_texts", "cli", "main"), ("write_texts", "harness", "reproduce_figure")}


# run in a fresh process: what importing the CLI loads, and which eploop classes are dataclasses
_STARTUP = """
import json, sys
import eploop, eploop.cli
loaded = sorted(m for m in sys.modules if m.startswith("eploop."))
records = sorted({c.__name__ for m in loaded for c in vars(sys.modules[m]).values()
                  if isinstance(c, type) and c.__module__.startswith("eploop") and hasattr(c, "__dataclass_fields__")})
first_use = eploop.compile_walk_step.__module__
print(json.dumps([loaded, records, first_use]))
"""


def test_importing_the_cli_leaves_optics_unloaded():
    """Start-up guard: only compile-optics loads optics; linalg stays loaded, as perfbench's tracer patches it; and
    only the records that dataclasses.fields, replace or astuple read are dataclasses."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", _STARTUP], env=env, capture_output=True, text=True, check=True)
    loaded, records, first_use = json.loads(out.stdout)
    assert "eploop.optics" not in loaded and "eploop.linalg" in loaded
    assert records == ["CaseStats", "DCoefficients", "EvolutionReport", "RunConfig", "StepRecords", "WalkParams"]
    assert first_use == "eploop.optics"
    assert eploop.__getattr__("compile_walk_step") is eploop.optics.compile_walk_step
    with pytest.raises(AttributeError, match="has no attribute 'compile_nothing'"):
        eploop.__getattr__("compile_nothing")


def test_value_records_compare_and_hash_by_value():
    records = [eploop.Classification("zeta1", (1.0, 0.0, 0.0, 0.0), False), eploop.EpLocation(0.0, -0.3, 1e-12),
               eploop.loops.ControlDriftReport((0.1, 0.2), 0.2, 1), eploop.SheetTrace(1, (3,)),
               eploop.OptimizeResult((1.0, 2.0), 0.9, 0.8), eploop.DisorderSummary(()),
               eploop.CountsTable((("H", "H", 7),)), eploop.TomoConfig(5, 1), eploop.OpticalElement("HWP", (0.1,))]
    for record in records:
        twin = type(record)(*record)
        assert twin is not record and twin == record and hash(twin) == hash(record), record
    schedule = eploop.loop1_schedule(8, "cw")
    twin = eploop.loop1_schedule(8, "cw")
    assert schedule == schedule and schedule != twin and len({schedule, twin, schedule}) == 2


@pytest.mark.parametrize("build, error, message", [
    (lambda: eploop.TomoConfig(counts_per_basis=0), eploop.ConfigError,
     "counts_per_basis must lie in [1, 1000000000000], got 0"),
    (lambda: eploop.TomoConfig(7, -1), eploop.ConfigError, "seed must be >= 0, got -1"),
    (lambda: eploop.OpticalElement("MIRROR", (0.1,)), eploop.DomainError, "unknown element kind 'MIRROR'"),
    (lambda: eploop.OpticalElement("HWP", (0.1,), path="middle"), eploop.DomainError,
     "path must be upper/lower/both, got 'middle'"),
    (lambda: eploop.OpticalElement("PPBS", (1.2, 0.5)), eploop.DomainError,
     "transmittances must lie in [0, 1], got (1.2, 0.5)"),
])
def test_checked_records_refuse_bad_fields_when_constructed(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
