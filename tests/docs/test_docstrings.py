"""Docstring coverage for the public API.

Walks the modules listed in :data:`MODULES` and asserts that the module
itself, every public class and function defined in it, and every public
method of those classes carries a non-trivial docstring.  This is the
enforcement half of the "no undocumented public surface" satellite: adding
a public name without documentation fails here, naming the offender.
"""

import importlib
import inspect

import pytest

#: Modules whose public surface must be fully documented.
MODULES = [
    "repro.analysis.artifacts",
    "repro.analysis.engine",
    "repro.analysis.fabric",
    "repro.analysis.fabric.merge",
    "repro.analysis.fabric.store",
    "repro.analysis.fabric.worker",
    "repro.analysis.report",
    "repro.analysis.runstore",
    "repro.analysis.sweep",
    "repro.baselines.pipeline",
    "repro.baselines.spec",
    "repro.baselines.stages",
    "repro.cli",
    "repro.cli.main",
    "repro.cli.run",
    "repro.cli.sweep",
    "repro.cli.report",
    "repro.cli.merge",
    "repro.cli.bench",
    "repro.sim.allocators",
    "repro.sim.kernel",
    "repro.sim.metrics",
    "repro.sim.online",
    "repro.sim.plan",
    "repro.sim.simulator",
    "repro.sim.streaming",
    "repro.lp.model",
    "repro.lp.solver",
    "repro.workloads.generator",
    "repro.workloads.serialization",
]


def public_members(module):
    """Public functions/classes *defined in* (not imported into) a module."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        yield name, obj


def missing_docstrings(module):
    """All undocumented public names in a module, fully qualified."""
    missing = []
    if not (module.__doc__ or "").strip():
        missing.append(module.__name__)
    for name, obj in public_members(module):
        if not (inspect.getdoc(obj) or "").strip():
            missing.append(f"{module.__name__}.{name}")
        if inspect.isclass(obj):
            for attr_name, attr in sorted(vars(obj).items()):
                if attr_name.startswith("_"):
                    continue
                if isinstance(attr, property):
                    target = attr.fget
                elif inspect.isfunction(attr):
                    target = attr
                elif isinstance(attr, (classmethod, staticmethod)):
                    target = attr.__func__
                else:
                    continue
                if not (inspect.getdoc(target) or "").strip():
                    missing.append(f"{module.__name__}.{name}.{attr_name}")
    return missing


@pytest.mark.parametrize("module_name", MODULES)
def test_public_api_is_documented(module_name):
    module = importlib.import_module(module_name)
    missing = missing_docstrings(module)
    assert not missing, (
        "undocumented public API (add a docstring, with an example where "
        f"cheap): {missing}"
    )
