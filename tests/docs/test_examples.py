"""Every script under ``examples/`` runs to completion.

The examples are the package's end-to-end tour: each builds a topology and
a workload, plans it through the public API and prints objectives next to
their lower bounds.  A renamed or removed public name breaks them silently
unless something runs them, so each one runs here in a fresh interpreter,
the way its docstring says (each script puts ``src/`` on its own path), and
must exit 0 with some output.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs(script, tmp_path):
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), f"{script.name} printed nothing"
