import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import legendrian_lab
from legendrian_lab import cli

SRC = Path(legendrian_lab.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in legendrian_lab.__all__ if not hasattr(legendrian_lab, name)]
    assert missing == []
    assert len(set(legendrian_lab.__all__)) == len(legendrian_lab.__all__)


def _library_trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _names_read(trees):
    """Every name and attribute the library loads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_public_function_is_exported_or_called_by_the_library():
    """Library code exists for a command or the public API, not for tests."""
    trees = _library_trees()
    referenced = _names_read(trees)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((f"{module}:{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(f"{module}:{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef)]
    unused = [where for where, name in defined
              if not name.startswith("_") and name not in legendrian_lab.__all__
              and name not in referenced]
    assert unused == []


# Library functions that no command enters, each with the reason it stays in src/.
UNREACHED_BY_COMMANDS = {
    "flow.first_variation_check": "the three-way first-variation oracle of the flow tests",
    "immersions.variation_field_on_positions": "the V_f that oracle reads; "
                                               "perfbench/test_spans.py reads it from flow",
}

_REACH_CHILD = """
import json, os, sys, tempfile

entered = set()

def note(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(note)
from legendrian_lab import cli
with tempfile.TemporaryDirectory() as out:
    for argv in json.loads(sys.argv[1]):
        try:
            cli.main(argv + ["--out", out])
        except SystemExit:  # a usage error
            pass
sys.setprofile(None)
print(json.dumps(sorted((os.path.realpath(name), line) for name, line in entered)))
"""


def _reach_ops():
    """Every command x surface x scheme, then the paths the defaults do not take."""
    ops = [[command, "--surface", surface, "--scheme", scheme, "--grid", "16"]
           for command in ("verify", "integrals", "flow")
           for surface in ("legendrian-torus", "equatorial-legendrian-sphere", "clifford-s3",
                           "veronese-s4")
           for scheme in ("spectral", "fd4", "fd2")]
    eps = ["--epsilon", "0.02"]
    return ops + [
        ["verify", *eps, "--grid", "16"],                       # the perturbed torus
        ["verify", *eps, "--grid", "16", "--scheme", "fd2"],    # fd order fit on (N, 2N)
        ["verify", *eps, "--grid", "64", "--scheme", "fd4"],    # fd order fit on (N/2, N)
        ["integrals", *eps, "--grid", "130"],                   # direct derivative path
        ["flow", *eps, "--grid", "16"],
        ["verify", *eps, "--grid", "8", "--scheme", "fd2"],     # residual_pack_error
        ["verify", "--epsilon", "100", "--grid", "16"],         # start_error: det g
        ["flow", "--epsilon", "0.3", "--grid", "16"],           # start_error: not a graph
        ["flow", "--epsilon", "2", "--grid", "32", "--scheme", "fd2"],  # start_error: angle
        ["verify", "--grid", "6"],                              # usage error
    ]


def _library_functions():
    """{(file, first line): module.qualified.name} of every def; lambdas and comprehensions skipped.

    Keyed by first line, since co_qualname needs Python 3.11.
    """
    found = {}

    def walk(code, path, prefix):
        for const in code.co_consts:
            if isinstance(const, type(code)) and not const.co_name.startswith("<"):
                name = prefix + const.co_name
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    found[(str(path), const.co_firstlineno)] = name
                walk(const, path, name + ".")

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path, f"{path.stem}.")
    return found


def test_every_library_function_is_reached_by_a_command_or_allowlisted():
    """Code no command runs leaves src/, bar the allowlisted oracles.

    A fresh interpreter, so that no lru_cache a test filled hides a table builder.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _REACH_CHILD, json.dumps(_reach_ops())],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(key) for key in json.loads(proc.stdout)}
    functions = _library_functions()
    assert (str(SRC / "cli.py"), cli.main.__code__.co_firstlineno) in entered
    unreached = sorted(name for key, name in functions.items() if key not in entered)
    assert unreached == sorted(UNREACHED_BY_COMMANDS)


def test_every_module_constant_is_read_by_the_library():
    """A tolerance or limit that outlives its readers is a knob that does nothing."""
    trees = _library_trees()
    referenced = _names_read(trees)
    defined = [(module, target.id) for module, tree in trees.items() for node in tree.body
               if isinstance(node, ast.Assign) for target in node.targets
               if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)]
    assert defined  # the census sees the constants at all
    assert [f"{module}:{name}" for module, name in defined if name not in referenced] == []


def _uses_numpy_fft(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            return True
        if isinstance(node, ast.Import) and any(a.name.startswith("numpy.fft") for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.fft")
                or (node.module == "numpy" and any(a.name == "fft" for a in node.names))):
            return True
    return False


def test_only_grids_uses_numpy_fft():
    """One Fourier convention: frequencies, derivatives and filters live in grids."""
    users = [path.name for path in sorted(SRC.glob("*.py"))
             if _uses_numpy_fft(ast.parse(path.read_text()))]
    assert users == ["grids.py"]


def _calls(tree, owners, attr):
    """Whether tree calls owner.attr for an owner name in owners."""
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == attr and isinstance(node.func.value, ast.Name)
               and node.func.value.id in owners for node in ast.walk(tree))


def test_only_grids_sums_with_numpy():
    """One trapezoid rule: every area integral goes through grids.quadrature."""
    users = [path.name for path in sorted(SRC.glob("*.py"))
             if _calls(ast.parse(path.read_text()), ("np", "numpy"), "sum")]
    assert users == ["grids.py"]


def test_flow_takes_no_contact_form_of_its_own():
    """The flow's Legendrian residual is extrinsic.legendrian_residual, the frame's."""
    assert not _calls(ast.parse((SRC / "flow.py").read_text()), ("contact",), "contact_form")


def _uses_einsum(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "einsum":
            return True
        if isinstance(node, ast.ImportFrom) and any(a.name == "einsum" for a in node.names):
            return True
    return False


def test_grid_ops_calls_no_einsum():
    """Frame-index sums in grid_ops are written out over (N, N) slices.

    A per-point einsum over 2- or 3-long frame indices is several times
    slower than the same sum written out, and grid_ops runs on every
    certified surface.
    """
    assert not _uses_einsum(ast.parse((SRC / "grid_ops.py").read_text()))


def test_grid_ops_calls_no_sphere_connection():
    """Every normal-bundle derivative in grid_ops is projected, which removes the p-term.

    The sphere connection D V + <x, V> p differs from D V by a multiple
    of p only, so forming it before the normal projection is wasted work.
    """
    assert "sphere_connection" not in _names_read({"grid_ops.py": ast.parse(
        (SRC / "grid_ops.py").read_text())})


def test_importing_the_package_builds_no_differentiation_matrix():
    """Matrices are built on first use, so a command's set-up pays for none."""
    code = ("import legendrian_lab.cli, sys; from legendrian_lab import grids; "
            "sys.exit(grids._diff_matrix.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
