"""Packaging for the coflow-scheduling reproduction.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) because the offline
development environment has no ``wheel`` package and no network, so pip
falls back to the legacy setuptools editable-install path, which needs a
``setup.py``.  Installing registers the ``repro`` console script; without
installing, the same CLI is reachable as ``PYTHONPATH=src python -m repro``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Single source of truth for the version is repro/__init__.py.
_INIT = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text()
VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT, re.MULTILINE).group(1)

setup(
    name="repro-coflow-scheduling",
    version=VERSION,
    description=(
        "Reproduction of Jahanjou, Kantor & Rajaraman, 'Asymptotically "
        "Optimal Approximation Algorithms for Coflow Scheduling' (SPAA 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    extras_require={
        "yaml": ["pyyaml"],
        # networkx is the tests' oracle for the graph algorithms that
        # repro.core.network and its callers port; the package never imports it.
        "tests": ["pytest", "pytest-benchmark", "pyyaml", "networkx"],
    },
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
