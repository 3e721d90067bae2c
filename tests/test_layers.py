"""The import graph of the package: numerics at the bottom, experiments on top."""

import ast
from pathlib import Path

import pytest

import hlab

PACKAGE = Path(hlab.__file__).parent

# lowest first; a module may import only modules of earlier groups
ORDER = [("spectral",), ("lattice",), ("fields",), ("solver",), ("coarse",), ("correctors",),
         ("renorm", "twoscale", "stochproc"), ("harness",), ("cli",)]
RANK = {name: i for i, group in enumerate(ORDER) for name in group}
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


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
def test_imports_only_at_module_top(name):
    tree = _tree(name)
    top = {id(node) for node in tree.body}
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == [], f"hlab.{name} imports inside a block at lines {nested}"
