"""Packaging for the ``repro`` library.

The package lives under ``src/``; the version comes from
``repro.__version__`` (a dependency-free module), so it has one source
of truth. Install with ``pip install .`` (or ``pip install -e .``) from
the repository root.
"""

import os
import sys

from setuptools import find_packages, setup

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "src"))
from repro import __version__  # noqa: E402

setup(
    name="repro",
    version=__version__,
    package_dir={"": "src"},
    packages=find_packages("src"),
)
