"""The import graph of the package: numerics at the bottom, experiments on top."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import hlab

PACKAGE = Path(hlab.__file__).parent

# lowest first; a module may import only modules of earlier groups, so the
# transforms and the grid calculus import no hlab module
ORDER = [("spectral", "lattice"), ("fields",), ("solver",), ("coarse",), ("correctors",),
         ("renorm", "twoscale", "stochproc"), ("harness",), ("cli",)]
RANK = {name: i for i, group in enumerate(ORDER) for name in group}
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
# the third-party modules (and their submodules) the package may import
THIRD_PARTY = {"numpy", "scipy.fft", "scipy.sparse"}


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(), filename=f"{name}.py")


def _hlab_imports(tree):
    """Names of the hlab modules a module imports; "__init__" for the package itself."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] if "." in a.name else "__init__"
                       for a in node.names if a.name.split(".")[0] == "hlab")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module is None or node.module.split(".")[0] != "hlab":
                    continue
                parts = node.module.split(".")[1:]
            else:
                parts = node.module.split(".") if node.module else []
            if parts:
                out.add(parts[0])
            else:  # `from . import a, b`: submodules, or attributes of the package
                out.update(a.name if a.name in RANK else "__init__" for a in node.names)
    return out


def test_every_module_has_a_layer():
    assert set(MODULES) - {"__init__"} == set(RANK)


@pytest.mark.parametrize("name", MODULES)
def test_imports_only_lower_layers(name):
    imported = _hlab_imports(_tree(name)) - {"__init__"}
    # the package namespace re-exports the bottom layers; any module may read it
    ceiling = RANK["harness"] if name == "__init__" else RANK[name]
    above = sorted(m for m in imported if RANK[m] >= ceiling)
    assert above == [], f"hlab.{name} imports {above}, which are not below it"


@pytest.mark.parametrize("name", MODULES)
def test_imports_only_allowed_third_party(name):
    allowed = THIRD_PARTY | ({"click"} if name == "cli" else set())
    imported = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # `from scipy import fft` may name a submodule; `from numpy import pi` an attribute
            imported.update(f"{node.module}.{a.name}" for a in node.names)
    outside = sorted(m for m in imported
                     if m.split(".")[0] not in sys.stdlib_module_names | {"hlab"}
                     and not any(m == a or m.startswith(a + ".") for a in allowed))
    assert outside == [], f"hlab.{name} imports {outside}, outside {sorted(allowed)}"


@pytest.mark.parametrize("name", MODULES)
def test_imports_only_at_module_top(name):
    tree = _tree(name)
    top = {id(node) for node in tree.body}
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == [], f"hlab.{name} imports inside a block at lines {nested}"


@pytest.mark.parametrize("name", MODULES)
def test_no_private_names_from_other_modules(name):
    # a private name (one leading underscore) stays inside its module
    tree = _tree(name)
    modules = set()
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "hlab"):
            private += [a.name for a in node.names if _is_private(a.name)]
            if node.module is None:
                modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name.startswith("hlab."))
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)]
    assert private == [], f"hlab.{name} uses private names of other modules: {private}"


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("name", MODULES)
def test_exports_exist(name):
    # every name in a module's __all__ is defined in that module
    module = importlib.import_module("hlab" if name == "__init__" else f"hlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"hlab.{name} exports undefined names {missing}"


def test_numpy_floor_has_vecdot():
    # the CG and the projector call np.vecdot, which numpy added in 2.0; read with re,
    # since tomllib needs Python 3.11 and the package supports 3.10
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    floors = re.findall(r'"numpy\s*>=\s*(\d+)(?:\.(\d+))?', text)
    assert len(floors) == 1, floors
    assert (int(floors[0][0]), int(floors[0][1] or 0)) >= (2, 0)
