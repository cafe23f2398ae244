"""What a process imports: a run with no LP scheme never loads the LP stack.

Every case runs in a fresh interpreter, because a module an earlier test
imported would hide a load.  The heuristic cases install a ``sys.meta_path``
finder that refuses ``scipy.optimize`` and ``scipy.sparse`` (what
:mod:`repro.lp` loads from scipy) and records every attempt, so a load
anywhere on the path fails the case even where something catches the
``ImportError``.  The LP cases check the other side of the boundary:
building a scheme that solves an LP loads the stack then, before any plan
(DESIGN.md §8, "What a process imports").
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Run first in every heuristic case: refuse the LP stack's scipy modules.
REFUSE_LP_STACK = """
import sys

refused = []


class RefuseLPStack:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[:2] in (["scipy", "optimize"], ["scipy", "sparse"]):
            refused.append(name)
            raise ImportError(f"{name} is refused in this process")
        return None


sys.meta_path.insert(0, RefuseLPStack())
"""

#: Run last in every heuristic case: nothing refused, no LP module loaded.
NOTHING_LOADED = """
loaded = [
    name for name in ("repro.lp", "repro.packet", "repro.circuit.given_paths")
    if name in sys.modules
]
assert not refused and not loaded, (refused, loaded)
"""

TINY_SWEEP = """
import repro.analysis as analysis

spec = analysis.spec_from_dict({
    "name": "tiny",
    "schemes": ["SEBF", "Baseline"],
    "tries": 1,
    "reference": "Baseline",
    "base": {"num_coflows": 2, "coflow_width": 2, "topology": "fat_tree(k=4)"},
    "sweep": {"parameter": "coflow_width", "values": [2, 3]},
})
ran = analysis.run_spec(spec)
paths = analysis.export_artifacts(
    "artifacts", spec, ran.result, stats=ran.stats,
    fingerprints=ran.fingerprints, extras=ran.extras,
)
assert "HiGHS" in paths["run"].read_text()
"""


def run_python(code: str, cwd: Path) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; return stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def cli_run(scheme: str) -> str:
    argv = ["run", "--scheme", scheme, "--num-coflows", "2", "--coflow-width", "2",
            "--output", "run.json"]
    return f"from repro.cli import main\nassert main({argv!r}) == 0\n"


@pytest.mark.parametrize(
    "code",
    [
        "import repro, repro.analysis\n",
        TINY_SWEEP,
        cli_run("SEBF"),
        cli_run("Baseline"),
        "from repro.analysis import provenance\n"
        "assert 'HiGHS' in provenance()['solver']\n",
    ],
    ids=["import", "sweep-and-export", "run-SEBF", "run-Baseline", "provenance"],
)
def test_heuristic_paths_load_nothing_from_the_lp_stack(code, tmp_path):
    run_python(REFUSE_LP_STACK + code + NOTHING_LOADED, tmp_path)


def test_building_a_scheme_without_an_lp_stage_loads_no_lp(tmp_path):
    run_python(
        REFUSE_LP_STACK
        + "from repro.baselines import SCHEME_ALIASES, scheme_from_spec\n"
        + "for name, spec in SCHEME_ALIASES.items():\n"
        + "    if '=lp' not in spec:\n"
        + "        scheme_from_spec(name)\n"
        + NOTHING_LOADED,
        tmp_path,
    )


@pytest.mark.parametrize(
    "build",
    [
        "scheme_from_spec('LP-Based')",
        "scheme_from_spec('LP-Based (given paths)')",
        "scheme_from_spec('pipeline(router=balanced, order=lp)')",
        "spec_from_dict({'name': 'lp', 'schemes': ['LP-Based'], 'reference': None, "
        "'base': {'topology': 'fat_tree(k=4)'}, 'points': [{'label': 'p'}]})",
    ],
    ids=["LP-Based", "LP-Based-given-paths", "balanced-router-lp-order", "sweep-spec"],
)
def test_building_an_lp_scheme_loads_the_lp_stack(build, tmp_path):
    """The LP stack loads when the scheme is built (set-up), so neither a
    sweep's timed work nor a streaming session's first re-plan pays it."""
    run_python(
        "import sys\n"
        "from repro.analysis import spec_from_dict\n"
        "from repro.baselines import scheme_from_spec\n"
        "assert 'repro.lp.solver' not in sys.modules\n"
        f"{build}\n"
        "assert {'repro.lp.solver', 'scipy.optimize'} <= set(sys.modules)\n",
        tmp_path,
    )


def test_lazy_namespaces_resolve_every_public_name(tmp_path):
    """``repro`` and ``repro.circuit`` load their parts on first access:
    subpackages, submodules reached as attributes, re-exported names and
    ``import *`` all still resolve."""
    run_python(
        "import sys\n"
        "import repro\n"
        "assert 'repro.lp' not in sys.modules and 'repro.circuit' not in sys.modules\n"
        "assert repro.circuit.routing.__name__ == 'repro.circuit.routing'\n"
        "assert repro.circuit.GivenPathsLP.__module__ == 'repro.circuit.given_paths'\n"
        "assert repro.lp.solve is sys.modules['repro.lp.solver'].solve\n"
        "for package in (repro, repro.circuit):\n"
        "    names = {}\n"
        "    exec(f'from {package.__name__} import *', names)\n"
        "    assert set(package.__all__) <= set(names) <= set(dir(package)) | {'__builtins__'}\n",
        tmp_path,
    )


def test_version_loads_the_solver_and_names_its_highs_version(tmp_path):
    from repro.lp.solver import solver_description

    out = run_python("from repro.cli import main\nmain(['--version'])\n", tmp_path)
    assert f"solver: {solver_description()} (paper: IBM CPLEX)" in out.splitlines()
