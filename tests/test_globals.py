"""Static guards: every global name a function of `onephase` loads must
exist, and so must every name a module exports; quadrature stays out of the
chart and Traizet layers; every error class is raised somewhere; each CLI
command reads exactly the parameters `cli.PARAMS` and the settings
`cli.SETTINGS` declare for it, since the CLI rejects any other name;
only `onephase.common` encodes JSON and compares with `np.inf`; every
public function and method has a caller in `src/` or `perfbench/`, or a
reason to stay on `UNCALLED_KEPT`, and each method name that unrelated
classes share is on `SHARED_NAMES` with each class's caller.  No module
imports scipy: the minimizer solves its 5-point systems by
multigrid-preconditioned CG in numpy, so `import onephase` and every
command, `minimize` included, load no scipy module.  The tests keep scipy
as an oracle.

A call to a helper that was never defined only fails when its branch runs,
which a seeded test may never reach.  This compiles each module, walks all
nested code objects, and checks each LOAD_GLOBAL against the imported
module's globals and the builtins — standard library only.  A stale
`__all__` entry fails only on `import *`, so each is looked up too."""

import ast
import builtins
import dis
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import onephase
from onephase import cli, errors
from onephase.errors import OnePhaseError

MODULES = sorted(m.name for m in pkgutil.iter_modules(onephase.__path__,
                                                      "onephase."))


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from _code_objects(const)


def unresolved_globals(module_name):
    """(qualname, line, name) for each LOAD_GLOBAL that names neither a
    module global nor a builtin."""
    module = importlib.import_module(module_name)
    path = Path(module.__file__)
    known = set(vars(module)) | set(vars(builtins))
    missing = []
    for code in _code_objects(compile(path.read_text(encoding="utf-8"),
                                      str(path), "exec")):
        for ins in dis.get_instructions(code):
            if ins.opname == "LOAD_GLOBAL" and ins.argval not in known:
                missing.append((code.co_qualname, ins.positions.lineno,
                                ins.argval))
    return missing


def test_modules_found():
    assert "onephase.geometry" in MODULES
    assert "onephase.cli" in MODULES


@pytest.mark.parametrize("module_name", MODULES)
def test_every_global_load_resolves(module_name):
    assert unresolved_globals(module_name) == []


@pytest.mark.parametrize("module_name", ["onephase"] + MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    exports = getattr(module, "__all__", [])
    assert [name for name in exports if not hasattr(module, name)] == []


SRC = Path(onephase.__file__).resolve().parent.parent


def test_every_error_class_is_raised():
    raised = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, OnePhaseError)
               and obj is not OnePhaseError}
    assert sorted(classes - raised) == []


#: public functions and methods that no module of `src/` or `perfbench/`
#: references, with the reason each stays
UNCALLED_KEPT = {
    "traizet.traizet_map": "the correspondence itself",
    "solutions.Solution.rescale": "ROADMAP item 16 builds on the dilation",
    "solutions.Solution.saddle_value": "criterion 4 reads it",
    "solutions.Hairpin.saddle_value": "criterion 4 reads it",
    "solutions.Scherk.saddle_value": "criterion 4 reads it",
    "conformal.HHPStrip.derivative":
        "the reference for f′ in the chart tests and `_assert_one_start`",
    "conformal.ScherkStrip.derivative":
        "the reference for f′ in the chart tests and `_assert_one_start`",
}


def _uncalled_public_defs():
    """The qualified names of the public module functions and methods in
    `src/onephase` that nothing in `src/` or `perfbench/` references.

    The match is by name alone: a method counts as referenced by any
    attribute `x.name`, or by the exact string constant "name" in
    `perfbench/` (its tracer names methods by string), and a module
    function by any name or attribute reference.  So a member whose name
    another object's member shares, such as `FreeBoundary.load` beside
    `ScalarField2D.load`, passes without a caller of its own."""
    names, attrs, strings = set(), set(), set()
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    for path in [*SRC.glob("onephase/*.py"), *bench.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif (isinstance(node, ast.Constant) and path.parent == bench
                  and isinstance(node.value, str)):
                strings.add(node.value)
    uncalled = []
    for path in sorted(SRC.glob("onephase/*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            if (isinstance(node, ast.FunctionDef) and node.name[0] != "_"
                    and node.name not in names | attrs):
                uncalled.append(f"{path.stem}.{node.name}")
            uncalled += [f"{path.stem}.{node.name}.{m.name}" for m in members
                         if isinstance(m, ast.FunctionDef)
                         and m.name[0] != "_"
                         and m.name not in attrs | strings]
    return uncalled


def test_every_public_function_has_a_caller():
    # tests alone do not justify an entry point: each one is called by the
    # package, the CLI or the benchmark, or kept for its named reason
    assert sorted(_uncalled_public_defs()) == sorted(UNCALLED_KEPT)


#: public method names that two classes define with no shared definition,
#: so the guard above, matching by name, sees one caller for both; each
#: class's caller, checked by hand
SHARED_NAMES = {
    "derivative": "HHPStrip and ScherkStrip: none (UNCALLED_KEPT)",
    "forward": "HHPStrip: traizet.patch_hairpin; "
               "ScherkStrip: perfbench's tracer, by string",
    "inverse": "HHPStrip: Hairpin's chart; "
               "ScherkStrip: Scherk's chart and traizet.patch_scherk",
    "primitive_in_chart": "Hairpin: Hairpin._primitive_body and "
                          "traizet.patch_hairpin; Scherk: "
                          "Scherk._primitive_body and traizet.patch_scherk",
    "save": "FreeBoundary: cli.cmd_boundary and cli.cmd_minimize; "
            "ScalarField2D: cli.cmd_minimize",
    "to_dict": "RigidMotion: Solution.to_dict; Solution: cli.cmd_verify, "
               "cli.cmd_traizet and cli.cmd_classify",
}


def _shared_method_names():
    """The public method names that two classes of `src/onephase` define
    when neither definition comes from a class both inherit: each class
    defining the name is a root unless one of its ancestors defines it
    too, and a name with two roots is shared."""
    bases, owners = {}, {}
    for path in SRC.glob("onephase/*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [getattr(b, "id", None) for b in node.bases]
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and m.name[0] != "_":
                        owners.setdefault(m.name, set()).add(node.name)

    def ancestors(cls):
        found = set()
        for b in bases.get(cls, []):
            if b in bases:
                found |= {b} | ancestors(b)
        return found

    return {name for name, classes in owners.items()
            if sum(not ancestors(c) & classes for c in classes) > 1}


def test_shared_method_names_are_checked_by_hand():
    # a new name shared by unrelated classes fails here until its callers
    # are checked and named in SHARED_NAMES
    assert sorted(_shared_method_names()) == sorted(SHARED_NAMES)


def _cfg(node, attr):
    """Whether `node` is the expression `cfg.<attr>`."""
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "cfg")


def _params_read(fn):
    """The names `fn` reads through cfg.number, cfg.numbers,
    cfg.params.get, cfg.params[...] and `in cfg.params`.  A name that is
    no string literal reads as None, and so does any other use of
    cfg.params."""
    names, uses, reads = set(), 0, 0
    for node in ast.walk(fn):
        uses += _cfg(node, "params")
        func = node.func if isinstance(node, ast.Call) else None
        if _cfg(func, "number") or _cfg(func, "numbers"):
            key = node.args[0]
        elif (isinstance(func, ast.Attribute) and func.attr == "get"
              and _cfg(func.value, "params")):
            key, reads = node.args[0], reads + 1
        elif isinstance(node, ast.Subscript) and _cfg(node.value, "params"):
            key, reads = node.slice, reads + 1
        elif (isinstance(node, ast.Compare) and len(node.ops) == 1
              and isinstance(node.ops[0], ast.In)
              and _cfg(node.comparators[0], "params")):
            key, reads = node.left, reads + 1
        else:
            continue
        names.add(key.value if isinstance(key, ast.Constant) else None)
    return names | ({None} if uses != reads else set())


def test_each_command_reads_its_declared_params():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    commands = {node.name.removeprefix("cmd_"): node
                for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("cmd_")}
    assert set(commands) == set(cli.PARAMS) == set(cli.COMMANDS)
    assert {name: _params_read(fn) for name, fn in commands.items()} \
        == {name: set(names) for name, names in cli.PARAMS.items()}


def test_each_command_reads_its_declared_settings():
    # cfg.resolution, cfg.seed, and cfg.window or cfg.get_window
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    reads = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_"):
            reads[fn.name.removeprefix("cmd_")] = {
                {"get_window": "window"}.get(node.attr, node.attr)
                for node in ast.walk(fn) if any(
                    _cfg(node, a) for a in ("resolution", "seed", "window",
                                            "get_window"))}
    assert reads == cli.SETTINGS


def _imported(module_name):
    """The absolute names of the modules the source imports, at any depth
    and in either spelling."""
    path = Path(importlib.import_module(module_name).__file__)
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            # relative: `from . import quad` or `from .quad import x`
            names |= ({f"onephase.{node.module}"} if node.module else
                      {f"onephase.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
    return names


def test_only_the_variational_layer_uses_quadrature():
    # the charts and the Traizet map are closed forms; the tests keep the
    # quadrature routes that check them
    assert [m for m in MODULES
            if "onephase.quad" in _imported(m)] == ["onephase.variational"]


def _encodes_json(module_name):
    """Whether the module's source names `json.dump` or `json.dumps`, as an
    attribute or in an import."""
    path = Path(importlib.import_module(module_name).__file__)
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"):
            return True
        if (isinstance(node, ast.ImportFrom) and node.module == "json"
                and any(a.name in ("dump", "dumps") for a in node.names)):
            return True
    return False


def test_only_the_common_layer_encodes_json():
    # every report, sidecar and printed copy goes through common.json_text,
    # so numpy values and key order are handled in one place
    assert [m for m in ["onephase"] + MODULES
            if _encodes_json(m)] == ["onephase.common"]


def _compares_with_inf(module_name):
    """The lines on which the module's source compares with `np.inf`."""
    path = Path(importlib.import_module(module_name).__file__)
    return [node.lineno
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Compare) and any(
                isinstance(x, ast.Attribute) and x.attr == "inf"
                and isinstance(x.value, ast.Name) and x.value.id == "np"
                for x in [node.left, *node.comparators])]


def test_only_the_common_layer_checks_finite_lengths():
    # a length is valid by common.finite_positive's one rule, so no other
    # module writes its own 0 < x < np.inf, the check that forgot NaN or
    # inf in some of its copies
    assert [m for m in MODULES if _compares_with_inf(m)] \
        == ["onephase.common"]


@pytest.mark.parametrize("module_name", ["onephase.common",
                                         "onephase.conformal",
                                         "onephase.geometry",
                                         "onephase.solutions"])
def test_chart_layer_imports_no_scipy(module_name):
    # every Newton start is closed-form, so no chart needs a spatial index;
    # geometry labels components and finds nearest points with numpy
    assert sorted(m for m in _imported(module_name)
                  if m.split(".")[0] == "scipy") == []


@pytest.mark.parametrize("module_name", ["onephase"] + MODULES)
def test_scipy_imported_inside_functions_only(module_name):
    # the name dates from when the minimizer imported scipy inside its
    # functions; now no module imports it at any depth
    assert sorted(m for m in _imported(module_name)
                  if m.split(".")[0] == "scipy") == []


def _scipy_loaded_after(code):
    """The scipy modules a fresh interpreter has loaded after running
    `code` with this checkout's src/ on its path (the test process itself
    has scipy loaded already)."""
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == "
         "'scipy'))"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=120, check=True)
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_loaded_after("import onephase, onephase.cli") == []


def test_boundary_command_loads_no_scipy(tmp_path):
    code = ("import onephase.cli\n"
            "assert onephase.cli.main(['boundary', '--family', 'half_plane',"
            f" '--out', {str(tmp_path)!r}]) == 0")
    assert _scipy_loaded_after(code) == []
    assert (tmp_path / "boundary_half_plane.csv").exists()


@pytest.mark.parametrize("params", [
    {"solution": {"family": "hairpin", "params": {"a": 0.05}},
     "params": {"mode": "trichotomy", "delta": 0.25}},
    {"solution": {"family": "half_plane"},
     "params": {"mode": "annulus", "delta": 0.01,
                "scales": [0.05, 0.1, 0.2, 0.4]}}],
    ids=["trichotomy", "annulus"])
def test_classify_command_loads_no_scipy(tmp_path, params):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(params), encoding="utf-8")
    code = ("import onephase.cli\n"
            "assert onephase.cli.main(['classify', '--config', "
            f"{str(config)!r}, '--out', {str(tmp_path)!r}]) == 0")
    assert _scipy_loaded_after(code) == []
    assert (tmp_path / "classify_report.json").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "half_plane"],
    ["traizet", "--family", "hairpin"],
    ["traizet", "--family", "scherk", "--resolution", "32"]],
    ids=["verify_half_plane", "traizet_hairpin", "traizet_scherk"])
def test_mesh_commands_load_no_scipy(tmp_path, argv):
    # scipy's import alone costs about 29 MB of resident memory
    code = ("import onephase.cli\n"
            "assert onephase.cli.main("
            f"{argv + ['--out', str(tmp_path)]!r}) == 0")
    assert _scipy_loaded_after(code) == []
    assert list(tmp_path.glob("*_report.json"))


def test_minimize_command_loads_no_scipy(tmp_path):
    # the minimizer's sparse LU and its import cost about 45 MB of peak
    # resident memory; its multigrid runs in numpy
    code = ("import onephase.cli\n"
            "assert onephase.cli.main(['minimize', '--family', 'half_plane', "
            f"'--resolution', '32', '--out', {str(tmp_path)!r}]) == 0")
    assert _scipy_loaded_after(code) == []
    assert (tmp_path / "minimize_report.json").exists()
