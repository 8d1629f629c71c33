"""Package metadata for ``repro`` (the sources live under ``src/``).

A plain setup.py with no pyproject build requirements: the package
installs offline with ``python setup.py develop`` or ``pip install -e .``
using the setuptools already present, without fetching an isolated
build backend.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
