"""Which sibling modules each package module may import, and which each
subcommand loads."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import setdifflab
from setdifflab import patterns
from setdifflab.universe import UniverseShape

PACKAGE = Path(setdifflab.__file__).parent
BENCH = PACKAGE.parent.parent / "bench"
README = PACKAGE.parent.parent / "README.md"


def sibling_imports(module: str) -> set[str]:
    """The modules named by the ``from .x import`` lines of one module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}


def test_universe_sits_on_errors_alone():
    assert sibling_imports("universe") == {"errors"}


def test_fpforms_needs_only_the_universe():
    assert sibling_imports("fpforms") == {"errors", "universe"}


def test_covering_and_reductions_need_only_the_universe():
    assert sibling_imports("covering") == {"errors", "universe"}
    assert sibling_imports("reductions") == {"errors", "universe"}


def test_extremal_does_not_import_fpforms():
    assert "patterns" in sibling_imports("extremal")
    assert "fpforms" not in sibling_imports("extremal")


def test_every_pattern_spec_has_a_pattern_index():
    # one decision path: find_pattern_pair and extremal graph building read
    # every spec through pattern_index, with no pairwise fallback
    specs = typing.get_args(patterns.PatternSpec)
    assert specs == (patterns.PolynomialDifference, patterns.CliqueDifference)
    shape = UniverseShape((1, 2), 2)
    for spec, witness in zip(specs, (patterns.PowerWitness, patterns.CliqueWitness)):
        mask, touch, found = patterns.pattern_index(shape, spec(shape.degrees))
        assert mask and len(touch) == shape.n and found is witness


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


def test_no_module_imports_random():
    # every table is exact: a sampled path would need a generator
    for path in sorted(PACKAGE.glob("*.py")):
        assert "random" not in all_imports(path.stem), path.name


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
             {"universe", "covering"}),
    "verify-framework": (["verify-framework", "--n", "3"],
                         {"universe", "covering"}),
    "demo-interval": (["demo-interval", "--n", "4", "--family", "{fam1.txt}"],
                      {"universe", "covering"}),
    "phidist": (["phidist", "--forms", "{forms.txt}"], {"universe", "fpforms"}),
    "quasirandomize": (["quasirandomize", "--family", "{fam1.txt}", "--p", "3",
                        "--eta", "1/4"],
                       {"universe", "patterns", "fpforms", "increment"}),
    "reduce": (["reduce", "--mode", "multiplex", "--s", "2",
                "--family", "{fam2.txt}"],
               {"universe", "reductions"}),
}


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_each_subcommand_loads_only_its_layers(name, inputs):
    argv, expected = SUBCOMMANDS[name]
    argv = [str(inputs / arg[1:-1]) if arg.startswith("{") else arg for arg in argv]
    assert loaded_modules(argv) == expected


# Public names no src/ module calls, kept on purpose, each for the caller it
# names; ROADMAP items 2 and 9 give the distance-2 check its command.  Audits
# no command runs live in the tests.  Any other public function, class,
# method or property in src/ needs a caller in src/.
KEPT_LIBRARY_AUDITS = (
    (("patterns.distance2_witness",),
     "re-verifies the distance-2 records of item 2's extremal --distance 2"),
    (("extremal.ForbiddenPairGraph.edge_count",),
     "the e2ebench tracer reads it off build_forbidden_graph"),
    (("extremal.ForbiddenPairGraph.distance2_closure",),
     "the distance-2 graph of item 2's extremal --distance 2"),
)


def uncalled_public_names(sources) -> set[str]:
    """The public names of the (module stem, source) pairs that none of them
    calls.  A module-level name is called through a name, an attribute or an
    import; a class member only through an attribute (x.name), so a local
    variable that shares its name does not count as a call."""
    defined, members, named, attributes = {}, {}, set(), set()
    for stem, source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            attributes |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            names = {n.id if isinstance(n, ast.Name) else n.name
                     for n in ast.walk(node) if isinstance(n, (ast.Name, ast.alias))}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)  # a definition does not call itself
                if not node.name.startswith("_"):
                    defined[f"{stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                # a method name is never an Attribute node of its own
                # definition; dunders go unchecked
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")):
                        members[f"{stem}.{node.name}.{member.name}"] = member.name
            named |= names
    called = named | attributes
    uncalled = {qualified for qualified, name in defined.items() if name not in called}
    uncalled |= {qualified for qualified, name in members.items() if name not in attributes}
    return uncalled


def test_every_public_name_has_a_caller_in_src():
    sources = [(path.stem, path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))]
    assert uncalled_public_names(sources) == {
        name for names, _ in KEPT_LIBRARY_AUDITS for name in names}


@pytest.mark.parametrize("source,uncalled", [
    ("class _S:\n    def full(self): ...\n"
     "def _f(s):\n    return s.full()\n", set()),
    ("class _S:\n    def full(self): ...\n"
     "def _f():\n    full = 1\n    return full\n", {"m._S.full"}),
    ("def g(): ...\ndef _f():\n    return g()\n", set()),
], ids=["member-through-attribute", "member-behind-local-name", "function-through-name"])
def test_caller_rule(source, uncalled):
    assert uncalled_public_names([("m", source)]) == uncalled


def test_every_cap_is_refused_by_one_helper():
    # "refuse before work, never multiply past the cap" is decided in one
    # place: only errors.capped_count constructs CapExceededError, and other
    # modules may only re-raise it
    constructed = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(None, tree)]
        while scopes:
            scope, node = scopes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = f"{path.stem}.{node.name}"
            if isinstance(node, ast.Call) and "CapExceededError" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                constructed.append(scope)
            scopes.extend((scope, child) for child in ast.iter_child_nodes(node))
    assert constructed == ["errors.capped_count"]


def test_budgets_table_lists_every_cap():
    # the README "Budgets" table names each module-level *_CAP / *_BUDGET
    # constant of src/ and gives its value once, as an integer or 2^k
    constants = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                name = getattr(node.targets[0], "id", "")
                if re.fullmatch(r"[A-Z0-9_]+_(CAP|BUDGET)", name):
                    constants[f"{path.stem}.{name}"] = eval(ast.unparse(node.value), {})
    readme = README.read_text(encoding="utf-8")
    budgets = readme.split("\n## Budgets\n", 1)[1].split("\n## ", 1)[0]
    named, valued = set(), {}
    for name, value in re.findall(r"^\| `(\w+\.\w+)(?: = ([^`]+))?`", budgets, re.M):
        named.add(name)
        if value:
            power = re.fullmatch(r"2\^(\d+)", value)
            assert name not in valued, f"{name} has two values"
            valued[name] = 1 << int(power[1]) if power else int(value)
    assert named == set(constants)
    assert valued == constants


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_bench_modules_import(path):
    # bench/ sits outside testpaths: importing each module here turns a
    # retired name it still uses into a tier-1 failure
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_bench_cases_run_once():
    # each bench case runs once, untimed, so a case that fails when it runs
    # (not only when it is imported) fails tier-1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "--benchmark-disable", "-q",
         "-p", "no:cacheprovider"],
        cwd=BENCH.parent, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
