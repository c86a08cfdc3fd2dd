"""Which sibling modules each package module may import, and which each
subcommand loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import setdifflab

PACKAGE = Path(setdifflab.__file__).parent


def sibling_imports(module: str) -> set[str]:
    """The modules named by the ``from .x import`` lines of one module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}


def test_universe_sits_on_errors_alone():
    assert sibling_imports("universe") == {"errors"}


def test_fpforms_needs_only_the_universe():
    assert sibling_imports("fpforms") == {"errors", "universe"}


def test_extremal_does_not_import_fpforms():
    assert "patterns" in sibling_imports("extremal")
    assert "fpforms" not in sibling_imports("extremal")


def module_level_imports(module: str) -> set[str]:
    """The modules a module imports outside its functions and classes."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def all_imports(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_no_module_imports_dataclasses():
    for path in sorted(PACKAGE.glob("*.py")):
        assert "dataclasses" not in all_imports(path.stem), path.name


def test_cli_defers_every_layer_to_its_subcommand():
    package = {name for name in module_level_imports("cli") if name.startswith(".")}
    assert package == {".", ".errors"}  # ``.`` is ``from . import __version__``


def loaded_modules(argv: list[str]) -> set[str]:
    """The ``setdifflab.*`` modules a fresh interpreter holds after running
    ``cli.main(argv)``, beyond the package, ``cli`` and ``errors``."""
    script = (
        "import json, sys\n"
        "from setdifflab import cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code or 0, sorted(sys.modules)]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    base = {"setdifflab", "setdifflab.cli", "setdifflab.errors"}
    assert base <= set(modules)
    return {name.split(".", 1)[1] for name in modules
            if name.startswith("setdifflab.") and name not in base}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("layering")
    files = {
        "fam1.txt": "shape s=1 d=1 n=4\n1\n3\n7\nf\n",
        "pattern.txt": "shape s=1 d=1 n=2\n0\n1\n2\n3\n",
        "fam2.txt": "shape s=1 d=2 n=2\n0\n9\nf\n",
        "forms.txt": "p=3\n1 2 0 1\n",
    }
    for name, text in files.items():
        (root / name).write_text(text)
    return root


SUBCOMMANDS = {
    "version": (["--version"], set()),
    "extremal": (["extremal", "--d", "1", "2", "--n", "2"],
                 {"universe", "patterns", "extremal"}),
    "scan": (["scan", "--family", "{fam1.txt}", "--m", "2",
              "--pattern-family", "{pattern.txt}"],
             {"universe", "patterns", "covering"}),
    "verify-framework": (["verify-framework", "--n", "3"],
                         {"universe", "patterns", "covering"}),
    "demo-interval": (["demo-interval", "--n", "4", "--family", "{fam1.txt}"],
                      {"universe", "patterns", "covering"}),
    "phidist": (["phidist", "--forms", "{forms.txt}"], {"universe", "fpforms"}),
    "quasirandomize": (["quasirandomize", "--family", "{fam1.txt}", "--p", "3",
                        "--eta", "1/4"],
                       {"universe", "patterns", "fpforms", "increment"}),
    "reduce": (["reduce", "--mode", "multiplex", "--s", "2",
                "--family", "{fam2.txt}"],
               {"universe", "patterns", "reductions"}),
}


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_each_subcommand_loads_only_its_layers(name, inputs):
    argv, expected = SUBCOMMANDS[name]
    argv = [str(inputs / arg[1:-1]) if arg.startswith("{") else arg for arg in argv]
    assert loaded_modules(argv) == expected
