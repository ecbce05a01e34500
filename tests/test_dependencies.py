"""psumlint has no runtime dependencies: it imports only the standard library."""

import ast
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "psumlint")


def test_package_imports_only_the_standard_library():
    imported = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                imported.setdefault(module.partition(".")[0], set()).add(name)
    assert "json" in imported  # the walk sees the package's imports
    outside = {module: sorted(files) for module, files in imported.items()
               if module not in sys.stdlib_module_names}
    assert outside == {}


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_import_loads_no_slow_standard_modules():
    # dataclasses pulls in inspect, ast and dis, and importlib.resources
    # pulls in pathlib and zipfile: milliseconds at every start of the CLI.
    # -S keeps site-packages, which may import them itself, out of the way.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import psumlint, psumlint.cli; "
            "print([m for m in ('dataclasses', 'inspect', 'importlib.resources') "
            "if m in sys.modules])")
    result = subprocess.run([sys.executable, "-S", "-c", code,
                             os.path.join(ROOT, "src")],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
