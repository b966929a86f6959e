import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import boidol

MODULES = sorted(info.name for info in pkgutil.iter_modules(boidol.__path__))
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_modules_found():
    assert {"fields", "group", "kernels"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_is_defined(name):
    module = importlib.import_module(f"boidol.{name}")
    missing = [entry for entry in getattr(module, "__all__", ())
               if entry not in vars(module)]
    assert not missing, f"boidol.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_every_demo_imports_and_has_main(path, capsys):
    """Each demo imports, and its `main()` runs to the end and prints: the
    demos build their grids and configs themselves, so an API change that
    breaks one shows here."""
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
    module.main()
    assert capsys.readouterr().out


def test_verdict_path_imports_no_scipy(tmp_path):
    """No module of the package needs scipy: a fresh process that imports the
    package and runs `boidol orbits` on the default config loads none."""
    src = str(Path(boidol.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, boidol; from boidol.cli import main; "
            "print(boidol.__file__); "
            f"print(main(['--out', {str(tmp_path)!r}, 'orbits'])); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert Path(out[0]).resolve() == Path(boidol.__file__).resolve()
    assert out[-2:] == ["0", "[]"]
    assert (tmp_path / "orbits.json").exists()


def test_no_line_is_longer_than_100_characters():
    root = Path(__file__).resolve().parents[1]
    files = [path for folder in (root / "src" / "boidol", root / "tests", root / "demos")
             for path in sorted(folder.glob("*.py"))]
    long = [f"{path.relative_to(root)}:{i}" for path in files
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert files and not long, long


def _functions(tree):
    """(class name or None, def) of every def in the tree, nested ones too."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                found.append((cls, child))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return found


def _calls(tree):
    """(call, innermost enclosing def or None) of every call in the tree."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                found.append((child, fn))
            visit(child, child if isinstance(child, ast.FunctionDef) else fn)

    visit(tree, None)
    return found


def never_set_defaults(root: Path) -> list:
    """The defaulted parameters of the functions and methods defined in
    `src/boidol` that no call in `src/boidol`, `tests`, `demos` or `bench`
    passes, as "module.[Class.]function(parameter)".

    A call is matched to every def of its name and passes a parameter by
    keyword or by position (after `self` or `cls`); a call with `*` or `**`
    passes every one.  A call that passes on the caller's own defaulted
    parameter counts only once that parameter is passed: forwarding a
    default nothing sets passes that one value.  Constructors (`__init__`)
    and dataclass fields are out of scope."""
    params, owners, calls = {}, {}, []
    for folder in ("src/boidol", "tests", "demos", "bench"):
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            calls += _calls(tree)
            if folder != "src/boidol":
                continue
            for cls, fn in _functions(tree):
                if cls and fn.name == "__init__":
                    continue
                decorators = {getattr(d, "id", None) for d in fn.decorator_list}
                shift = 1 if cls and "staticmethod" not in decorators else 0
                a = fn.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                named = [(arg.arg, i - shift) for i, arg in enumerate(positional) if i >= first]
                named += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
                owner = f"{path.stem}.{cls + '.' if cls else ''}{fn.name}"
                owners[fn] = {}
                for name, at in named:
                    key = f"{owner}({name})"
                    params[key], owners[fn][name] = (fn.name, name, at), key
    edges = []  # (parameter passed, the caller's parameter it forwards, or None)
    for call, caller in calls:
        func = call.func
        callee = getattr(func, "id", None) or getattr(func, "attr", None)
        starred = (any(isinstance(x, ast.Starred) for x in call.args)
                   or any(k.arg is None for k in call.keywords))
        keywords = {k.arg: k.value for k in call.keywords}
        for key, (fn_name, name, at) in params.items():
            if fn_name != callee:
                continue
            if name in keywords:
                value = keywords[name]
            elif at is not None and at < len(call.args):
                value = call.args[at]
            elif starred:
                value = None
            else:
                continue
            forwarded = owners.get(caller, {}).get(getattr(value, "id", None))
            edges.append((key, forwarded))
    passed, grew = set(), True
    while grew:
        grew = False
        for key, forwarded in edges:
            if key not in passed and (forwarded is None or forwarded in passed):
                passed.add(key)
                grew = True
    return sorted(set(params) - passed)


def test_every_default_is_set_by_some_caller():
    """A default that no caller ever changes is a constant: write it as one."""
    never = never_set_defaults(Path(__file__).resolve().parents[1])
    assert not never, never


def _is_passed(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == "passed"


def verdicts_outside_the_rule(root: Path) -> list:
    """The places that make or read a verdict around `fields._verdict`, as
    "path:line": a "passed" key written in `src/boidol` outside `_verdict`
    (a dict display's key, an assigned subscript or a keyword argument), and
    a `.get("passed", ...)` call in `src/boidol`, `demos` or `tests`, which
    reads a verdict that lacks one as failed."""
    found = []
    for folder in ("src/boidol", "demos", "tests"):
        for path in sorted((root / folder).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            rule = {id(node) for _, fn in _functions(tree) if fn.name == "_verdict"
                    for node in ast.walk(fn)}
            for node in ast.walk(tree):
                written = folder == "src/boidol" and id(node) not in rule and (
                    isinstance(node, ast.Dict) and any(map(_is_passed, node.keys))
                    or isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                    and _is_passed(node.slice)
                    or isinstance(node, ast.keyword) and node.arg == "passed")
                read = (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get"
                        and node.args and _is_passed(node.args[0]))
                if written or read:
                    found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_every_verdict_comes_from_the_one_rule():
    """A verdict's `passed` is written by `fields._verdict` alone, so every
    row, table, condition and report takes the worst status of its parts,
    and no reader defaults a missing `passed` to false."""
    found = verdicts_outside_the_rule(Path(__file__).resolve().parents[1])
    assert not found, found
