"""The package's __all__ against the names the package binds and uses:
no public name, default parameter or member exists only for the tests.
And the package's imports against the standard library and against one
another."""

import ast
import inspect
import sys
from pathlib import Path
from types import MemberDescriptorType, ModuleType

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


def _outside_trees():
    """The parsed package (not counting __init__.py), demos and bench,
    without their tests."""
    files = [path for folder in ("src/gccodes", "demos", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path.name != "__init__.py" and "tests" not in path.parts[-2:]]
    assert len(files) > 10
    return [ast.parse(path.read_text(), str(path)) for path in files]


def _reads(trees):
    """Every identifier read in trees, bare or as an attribute."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                used.add(node.id if isinstance(node, ast.Name) else node.attr)
    return used


def _public_api():
    """(name, object) for each function and non-exception class in __all__."""
    for name in gccodes.__all__:
        obj = getattr(gccodes, name)
        if inspect.isfunction(obj) or (inspect.isclass(obj)
                                       and not issubclass(obj, BaseException)):
            yield name, obj


def test_every_public_name_is_used_outside_the_tests():
    """Each name in __all__ is read somewhere in the package (not counting
    __init__.py), the demos or the bench: a public function that only the
    tests call has no place in the API. A use is the name read as a whole
    identifier, bare or as an attribute; a definition, an import or a
    mention in a docstring does not count."""
    assert sorted(set(gccodes.__all__) - _reads(_outside_trees())) == []


def test_every_public_default_is_passed_outside_the_tests():
    """Each parameter with a default, on a function or class in __all__,
    is passed at some call outside the tests: an option that only the
    tests set doubles the configurations a reader must consider and
    should be a constant. A call counts when it names the callable, bare
    or as an attribute, and passes that position or keyword."""
    passed = {}  # callable name -> positions and keywords some call passes
    for tree in _outside_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            keywords = {kw.arg for kw in node.keywords}
            # positions are known up to the first *args
            known = next((i for i, arg in enumerate(node.args)
                          if isinstance(arg, ast.Starred)), len(node.args))
            passed.setdefault(name, set()).update(range(known), keywords)
    unpassed = []
    for name, obj in _public_api():
        got = passed.get(name, set())
        for pos, param in enumerate(inspect.signature(obj).parameters.values()):
            if param.default is param.empty:
                continue
            positional = param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
            if not ((positional and pos in got) or param.name in got):
                unpassed.append(f"{name}({param.name}=)")
    assert unpassed == []


def test_every_public_member_is_read_outside_the_tests():
    """Each public method, property and slot field of a class in __all__
    is read somewhere outside the tests: a member that only the tests read
    has no place in the API. A read is the name loaded as an attribute of
    anything. A name that a builtin type or another class outside the
    tests also defines does not count as read: its reads may be that
    other member's (FieldContext.add hid behind Tracer.add and set.add)."""
    trees = _outside_trees()
    public = set(gccodes.__all__)
    elsewhere = {attr for kind in (str, bytes, int, list, tuple, dict, set)
                 for attr in dir(kind)}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name not in public:
                elsewhere.update(item.name for item in node.body
                                 if isinstance(item, ast.FunctionDef))
    members = [(name, attr) for name, obj in _public_api() if inspect.isclass(obj)
               for attr, value in vars(obj).items()
               if not attr.startswith("_")
               and (inspect.isfunction(value)
                    or isinstance(value, (property, MemberDescriptorType)))]
    assert len(members) > 5
    used = _reads(trees) - elsewhere
    assert [f"{name}.{attr}" for name, attr in members if attr not in used] == []


def test_package_imports_only_the_standard_library():
    """Every import in the package names a standard library module or the
    package itself: pyproject promises no runtime dependencies."""
    files = sorted((ROOT / "src" / "gccodes").rglob("*.py"))
    assert len(files) > 5
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in {*sys.stdlib_module_names, "gccodes"}]
    assert outside == []


def _package_imports():
    """{module: set of package modules it imports, anywhere in its body}
    for each file of the package, and the module-level imports that follow
    a def or class, as "module: line"."""
    files = {path.stem: path for path in sorted((ROOT / "src" / "gccodes").glob("*.py"))}
    graph, late = {}, []
    for name, path in files.items():
        tree = ast.parse(path.read_text(), str(path))
        seen_def = False
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                seen_def = True
            elif seen_def and isinstance(node, (ast.Import, ast.ImportFrom)):
                late.append(f"{name}: {node.lineno}")
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:                             # from .mod import names
                    targets.add(node.module.split(".")[0])
                else:                                       # from . import mods or names
                    targets.update(alias.name if alias.name in files else "__init__"
                                   for alias in node.names)
                continue
            if isinstance(node, ast.Import):
                names = [alias.name.split(".") for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module.split(".")]
            else:
                continue
            targets.update(parts[1] if len(parts) > 1 else "__init__"
                           for parts in names if parts[0] == "gccodes")
        graph[name] = targets
    return graph, late


def test_package_import_graph_is_layered():
    """The package's modules import one another without a cycle, so each
    can be imported first. The two layout modules, single_window and
    multi_window, sit below the engine (codec): they import nothing of
    the package but gf2e and mds. No module-level import waits below a def
    or class, as one that breaks a cycle would."""
    graph, late = _package_imports()
    assert {"codec", "single_window", "multi_window", "mds", "gf2e"} <= set(graph)
    for layout in ("single_window", "multi_window"):
        assert graph[layout] <= {"gf2e", "mds"}, (layout, graph[layout])
    done, path = set(), []

    def visit(name):
        assert name not in path, " -> ".join([*path[path.index(name):], name])
        if name in done:
            return
        path.append(name)
        for target in sorted(graph[name]):
            visit(target)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
    assert late == []
