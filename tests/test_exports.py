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
def test_every_demo_imports_and_has_main(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


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
