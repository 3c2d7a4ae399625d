"""The package's __all__ against the names the package binds and uses."""

import ast
from pathlib import Path
from types import ModuleType

import gccodes

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_each_public_name_once():
    names = gccodes.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(gccodes, name), name
    # submodules and __version__ are not part of __all__
    public = {name for name, value in vars(gccodes).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(names) == public


def test_every_public_name_is_used_outside_the_tests():
    """Each name in __all__ is read somewhere in the package (not counting
    __init__.py), the demos or the bench: a public function that only the
    tests call has no place in the API. A use is the name read as a whole
    identifier, bare or as an attribute; a definition, an import or a
    mention in a docstring does not count."""
    files = [path for folder in ("src/gccodes", "demos", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path.name != "__init__.py" and "tests" not in path.parts[-2:]]
    assert len(files) > 10
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(gccodes.__all__) - used) == []
