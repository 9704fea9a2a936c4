import os
import sys
from pathlib import Path

import numpy as np
import pytest


def _src_under_test() -> Path:
    """The first PYTHONPATH entry that holds a grasscat package, so that
    ``PYTHONPATH=<tree>/src python -m pytest`` tests that tree; otherwise
    this checkout's src."""
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry and (Path(entry) / "grasscat" / "__init__.py").is_file():
            return Path(entry).resolve()
    return Path(__file__).resolve().parents[1] / "src"


_SRC = _src_under_test()
sys.path[:0] = [str(_SRC), str(Path(__file__).parent)]

import grasscat  # noqa: E402

if Path(grasscat.__file__).resolve().parent != _SRC / "grasscat":
    raise pytest.UsageError(
        f"grasscat is imported from {Path(grasscat.__file__).parent}, "
        f"not from {_SRC / 'grasscat'}, the tree under test"
    )

from generators import reader_style_schema  # noqa: E402

# one line per acceptance criterion, printed in the terminal summary so the
# report survives pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


@pytest.fixture
def reader_schema():
    return reader_style_schema()
