"""Setup shim for environments without the ``wheel`` package.

This file is the package's only build metadata. It exists so
``pip install -e .`` can use the legacy ``setup.py develop`` code path on
offline machines where PEP 660 editable wheels cannot be built.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of Distributed GraphLab (Low et al., VLDB 2012)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy", "networkx"],
)
