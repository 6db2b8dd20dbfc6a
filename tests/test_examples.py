"""Smoke tests: every example script must run to completion.

Each example's ``main()`` is executed in-process with stdout captured;
assertions inside the examples double as end-to-end checks.
"""

import importlib
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: Every script in ``examples/``, so an example added later is run too.
EXAMPLES = sorted(
    path.stem
    for path in EXAMPLES_DIR.glob("*.py")
    if not path.stem.startswith("_")
)


@pytest.fixture(autouse=True)
def _examples_on_path():
    sys.path.insert(0, str(EXAMPLES_DIR))
    yield
    sys.path.remove(str(EXAMPLES_DIR))


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = importlib.import_module(name)
    module.main()
    output = capsys.readouterr().out
    assert output.strip(), f"{name} produced no output"
    assert "Traceback" not in output


def test_every_example_file_is_covered():
    # an empty glob would parametrize nothing and pass silently
    assert "quickstart" in EXAMPLES
    for name in EXAMPLES:
        assert "def main(" in (EXAMPLES_DIR / f"{name}.py").read_text(), name
