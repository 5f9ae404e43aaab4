import ast
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
