"""Import boundaries between the modules: the commands and the oracle read
a structured model through ``structure`` and ``grassmann``, not through the
optimizer module's private names."""

import ast
from pathlib import Path

import pytest

import grasscat

SRC = Path(grasscat.__file__).parent


def _imports_from_fit(module: str) -> list[str]:
    """Every name ``grasscat/<module>.py`` imports from ``grasscat.fit``,
    whether as ``from .fit import ...``, ``from grasscat.fit import ...``
    or ``import grasscat.fit``."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = "." * node.level + (node.module or "")
            if target in (".fit", "grasscat.fit"):
                names.extend(alias.name for alias in node.names)
            elif target in (".", "grasscat"):
                names.extend(alias.name for alias in node.names if alias.name == "fit")
        elif isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names if alias.name == "grasscat.fit")
    return names


@pytest.mark.parametrize("module", ["cli", "oracle"])
def test_no_private_name_from_fit(module):
    assert [name for name in _imports_from_fit(module) if name.startswith("_")] == []


def test_oracle_imports_nothing_from_fit():
    assert _imports_from_fit("oracle") == []


def test_the_check_sees_a_private_import(tmp_path, monkeypatch):
    """The parse finds each spelling of an import from the fit module."""
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    (tmp_path / "m.py").write_text(
        "from .fit import _likelihood, state_counts\n"
        "from grasscat.fit import _Packer\n"
        "from . import fit\n"
        "import grasscat.fit\n"
        "from .structure import _gauss_jordan\n",
        encoding="utf-8",
    )
    assert _imports_from_fit("m") == [
        "_likelihood", "state_counts", "_Packer", "fit", "grasscat.fit"]
