import ast
import collections
from pathlib import Path

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
    """Only cli.main writes to stdout, and only it and harness.reproduce_figure call write_text."""
    sites = set()
    for path in sorted((ROOT / "src" / "eploop").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                where = (path.stem, getattr(top, "name", None))
                if (isinstance(node, ast.Attribute) and node.attr == "write"
                        and isinstance(node.value, ast.Attribute) and node.value.attr == "stdout"):
                    sites.add(("sys.stdout.write", *where))
                elif isinstance(node, ast.Call) and "write_text" in (getattr(node.func, "id", None),
                                                                     getattr(node.func, "attr", None)):
                    sites.add(("write_text", *where))
    assert sites == {("sys.stdout.write", "cli", "main"), ("write_text", "cli", "main"),
                     ("write_text", "harness", "reproduce_figure")}
