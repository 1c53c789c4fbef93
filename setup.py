"""Legacy setup shim.

The canonical metadata lives in pyproject.toml; this file exists so that
``pip install -e . --no-use-pep517`` works in offline environments that
lack the ``wheel`` package required by PEP 660 editable builds.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
