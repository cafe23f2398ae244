"""What a process imports: a run with no LP scheme never loads the LP stack,
a run with one loads scipy's HiGHS extension and nothing else of the LP
side of scipy, no run loads networkx (the tests' oracle only), and PyYAML,
the sweep fabric, the process pool and the streaming engine load only when
a run uses them.

Every case runs in a fresh interpreter, because a module an earlier test
imported would hide a load.  Most cases install a ``sys.meta_path`` finder
that refuses ``scipy.optimize`` and ``scipy.sparse`` and records every
attempt, so a load anywhere on the path fails the case even where something
catches the ``ImportError``.  A heuristic run loads nothing from
:mod:`repro.lp`; an LP run loads :mod:`repro.lp` when its scheme is built,
before any plan, and :mod:`repro.lp.solver` loads the HiGHS extension from
its file without importing either package (DESIGN.md §1 and §8, "What a
process imports").
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lp import solver

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

try:
    import yaml  # noqa: F401 - availability probe for the YAML case
    HAVE_YAML = True
except ImportError:  # pragma: no cover
    HAVE_YAML = False

#: Run first in every refusing case: refuse the LP stack's scipy modules.
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


#: Run last in every LP case under the refusing finder: nothing refused,
#: the solver loaded on the direct binding, neither scipy package loaded.
DIRECT_BINDING_ONLY = """
from repro.lp import solver

absent = {"scipy.optimize", "scipy.sparse"} & set(sys.modules)
assert not refused and not absent, (refused, absent)
assert solver._highs is not None
"""

TINY_LP_SWEEP = TINY_SWEEP.replace('["SEBF", "Baseline"]', '["LP-Based", "Baseline"]')

#: A small LP whose solve takes a few simplex iterations.
SMALL_LP = """
from repro.lp import LinearProgram, solve

lp = LinearProgram("small")
lp.add_variables(["a", "b", "c"], upper=4.0, objective=[1.0, 2.0, 3.0])
lp.add_constraint({"a": 1.0, "b": 1.0}, ">=", 2.0)
lp.add_constraint({"b": 1.0, "c": 2.0}, ">=", 3.0)
lp.add_constraint({"a": 1.0, "c": -1.0}, "<=", 1.0)
lp.add_constraint({"a": 1.0, "b": 1.0, "c": 1.0}, "==", 3.5)
"""

#: The binding-dependent cases skip where this scipy has none (the
#: ``linprog`` fallback is the only solve path there).
needs_binding = pytest.mark.skipif(
    solver._highs is None, reason="this scipy has no loadable _highspy binding"
)


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


@needs_binding
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
    sweep's timed work nor a streaming session's first re-plan pays it.
    It loads the HiGHS extension alone: neither ``scipy.optimize`` nor
    ``scipy.sparse``."""
    run_python(
        "import sys\n"
        "from repro.analysis import spec_from_dict\n"
        "from repro.baselines import scheme_from_spec\n"
        "assert 'repro.lp.solver' not in sys.modules\n"
        f"{build}\n"
        "solver = sys.modules['repro.lp.solver']\n"
        "assert solver._highs is not None\n"
        "absent = {'scipy.optimize', 'scipy.sparse'} & set(sys.modules)\n"
        "assert not absent, absent\n",
        tmp_path,
    )


@needs_binding
@pytest.mark.parametrize(
    "code",
    [
        TINY_LP_SWEEP,
        cli_run("pipeline(router=balanced, order=lp)"),
        "import repro.lp\n"
        "from repro.analysis import provenance\n"
        "assert repro.lp.solver.solver_description() in provenance()['solver']\n",
    ],
    ids=["sweep-and-export", "run-balanced-router-lp-order", "provenance"],
)
def test_lp_paths_load_neither_scipy_package(code, tmp_path):
    """An ``LP-Based`` sweep with its artifacts, a ``repro run`` that solves
    the Section-2.1 LP, and the provenance record all run on the binding
    alone: the refusing finder records no attempt."""
    run_python(REFUSE_LP_STACK + code + DIRECT_BINDING_ONLY, tmp_path)


@needs_binding
def test_scipy_optimize_still_imports_after_a_solve(tmp_path):
    """A later ``import scipy.optimize`` gets the extension the solver
    loaded, from CPython's extension cache: one ``_Highs`` type, and
    ``linprog`` still solves."""
    run_python(
        "import sys\n"
        + SMALL_LP
        + "from repro.lp import solver\n"
        "before = solve(lp).x\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "import scipy.optimize\n"
        "assert scipy.optimize._highspy._core._Highs is solver._highs._Highs\n"
        "result = scipy.optimize.linprog(\n"
        "    [1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method='highs'\n"
        ")\n"
        "assert result.status == 0 and result.x.tolist() == [1.0, 0.0], result\n"
        "assert solve(lp).x.tolist() == before.tolist()\n",
        tmp_path,
    )


@needs_binding
def test_a_hidden_binding_falls_back_to_linprog(tmp_path):
    """With no binding in the folder searched, the solver takes the
    ``linprog`` path, which imports ``scipy.optimize`` on first use, and
    returns the direct path's solution."""
    empty = tmp_path / "no-binding"
    empty.mkdir()
    run_python(
        "import sys\n"
        + SMALL_LP
        + "from repro.lp import solver\n"
        "direct = solve(lp)\n"
        f"solver._highs = solver._load_highs([{str(empty)!r}])\n"
        "assert solver._highs is None and 'scipy.optimize' not in sys.modules\n"
        "fallback = solve(lp)\n"
        "assert 'scipy.optimize' in sys.modules and 'linprog' in vars(solver)\n"
        "assert fallback.x.tolist() == direct.x.tolist()\n"
        "assert fallback.objective == direct.objective\n"
        "assert fallback.iterations == direct.iterations\n",
        tmp_path,
    )


def test_lazy_namespaces_resolve_every_public_name(tmp_path):
    """``repro``, ``repro.circuit``, ``repro.analysis`` (the fabric's names)
    and ``repro.sim`` (the streaming names) load their parts on first
    access: subpackages, submodules reached as attributes, re-exported
    names and ``import *`` all still resolve."""
    run_python(
        "import sys\n"
        "import repro\n"
        "assert 'repro.lp' not in sys.modules and 'repro.circuit' not in sys.modules\n"
        "assert repro.circuit.routing.__name__ == 'repro.circuit.routing'\n"
        "assert repro.circuit.GivenPathsLP.__module__ == 'repro.circuit.given_paths'\n"
        "assert repro.lp.solve is sys.modules['repro.lp.solver'].solve\n"
        "import repro.analysis, repro.sim\n"
        "lazy = ('repro.analysis.fabric', 'repro.sim.streaming')\n"
        "assert not set(lazy) & set(sys.modules), lazy\n"
        "assert repro.analysis.Worker.__module__ == 'repro.analysis.fabric.worker'\n"
        "assert repro.analysis.fabric.__name__ == 'repro.analysis.fabric'\n"
        "assert repro.sim.StreamingScheduler.__module__ == 'repro.sim.streaming'\n"
        "assert repro.sim.streaming.__name__ == 'repro.sim.streaming'\n"
        "for package in (repro, repro.circuit, repro.analysis, repro.sim):\n"
        "    names = {}\n"
        "    exec(f'from {package.__name__} import *', names)\n"
        "    assert set(package.__all__) <= set(names) <= set(dir(package)) | {'__builtins__'}\n",
        tmp_path,
    )


def test_version_loads_the_solver_and_names_its_highs_version(tmp_path):
    out = run_python("from repro.cli import main\nmain(['--version'])\n", tmp_path)
    assert f"solver: {solver.solver_description()} (paper: IBM CPLEX)" in out.splitlines()


#: Run first in the cases below: refuse networkx and PyYAML.
REFUSE_NETWORKX_AND_YAML = """
import sys

refused = []


class RefuseNetworkxAndYaml:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("networkx", "yaml"):
            refused.append(name)
            raise ImportError(f"{name} is refused in this process")
        return None


sys.meta_path.insert(0, RefuseNetworkxAndYaml())
"""


def absent(*modules: str) -> str:
    """Code asserting that nothing was refused and none of ``modules``
    (nor networkx or yaml) is loaded."""
    return (
        f"loaded = [name for name in sys.modules if name in {modules!r}\n"
        "          or name.split('.')[0] in ('networkx', 'yaml')]\n"
        "assert not refused and not loaded, (refused, loaded)\n"
    )


#: A session re-planning at every arrival, on the Section-2.1 LP.
STREAMING_SESSION = """
from repro.baselines import scheme_from_spec
from repro.core import topologies
from repro.sim import StreamingScheduler
from repro.workloads import CoflowGenerator, WorkloadConfig

network = topologies.fat_tree(4)
config = WorkloadConfig(num_coflows=3, coflow_width=2)
instance = CoflowGenerator(network, config).instance()
scheme = scheme_from_spec("pipeline(router=balanced, order=lp)")
session = StreamingScheduler(
    network, lambda context: scheme.plan(context.instance, context.network)
)
assert session.run(instance).weighted_completion_time > 0
"""

SERIAL_ONLY = ("concurrent.futures.process", "repro.analysis.fabric")
STATIC_ONLY = ("repro.sim.streaming",)


@pytest.mark.parametrize(
    "code",
    [
        TINY_SWEEP + absent(*SERIAL_ONLY, *STATIC_ONLY),
        pytest.param(TINY_LP_SWEEP + absent(*SERIAL_ONLY), marks=needs_binding),
        cli_run("SEBF") + absent(*SERIAL_ONLY, *STATIC_ONLY),
        pytest.param(cli_run("LP-Based") + absent(*SERIAL_ONLY), marks=needs_binding),
        pytest.param(STREAMING_SESSION + absent(*SERIAL_ONLY), marks=needs_binding),
        "from repro.analysis import provenance\n"
        "assert 'networkx' not in provenance()\n" + absent(),
        "from repro.cli import main\nassert main(['--version']) == 0\n" + absent(),
    ],
    ids=[
        "sweep-and-export", "lp-sweep-and-export", "run-SEBF", "run-LP-Based",
        "streaming-session", "provenance", "version",
    ],
)
def test_no_run_loads_networkx_or_yaml(code, tmp_path):
    """networkx is the tests' oracle and PyYAML serves YAML documents only:
    sweeps with their artifacts, ``repro run``, a streaming session, the
    provenance record and ``repro --version`` run under a finder refusing
    both.  A serial sweep loads neither the process pool nor the sweep
    fabric, and a static scheme does not load the streaming engine."""
    run_python(REFUSE_NETWORKX_AND_YAML + code, tmp_path)


@pytest.mark.skipif(not HAVE_YAML, reason="PyYAML not installed")
def test_a_yaml_spec_loads_pyyaml_when_read(tmp_path):
    run_python(
        "import sys\n"
        "from repro.analysis import load_spec\n"
        "assert 'yaml' not in sys.modules\n"
        f"spec = load_spec({str(ROOT / 'specs' / 'fig3.yaml')!r})\n"
        "assert spec.name == 'fig3' and 'yaml' in sys.modules\n",
        tmp_path,
    )


def test_a_two_worker_sweep_loads_the_process_pool(tmp_path):
    run_python(
        "import sys\n"
        + TINY_SWEEP.replace("run_spec(spec)", "run_spec(spec, workers=2)")
        + "assert ran.stats.workers == 2\n"
        "assert 'concurrent.futures.process' in sys.modules\n"
        "assert 'repro.analysis.fabric' not in sys.modules\n",
        tmp_path,
    )


def test_an_online_scheme_loads_streaming_when_built(tmp_path):
    """Built, not run: the first re-plan of a session must not pay the
    import (DESIGN.md §8)."""
    run_python(
        "import sys\n"
        "from repro.baselines import scheme_from_spec\n"
        "scheme_from_spec('SEBF')\n"
        "assert 'repro.sim.streaming' not in sys.modules\n"
        "scheme_from_spec('Online-SEBF')\n"
        "assert 'repro.sim.streaming' in sys.modules\n",
        tmp_path,
    )
