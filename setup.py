"""Packaging via setup.py: the sandboxed environment's pip/setuptools pair
predates PEP 660 editable installs, so metadata lives here instead of in a
``[project]`` table (which would force the PEP 517 path and fail on the
missing ``wheel`` package)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Differentially-private learning via PAC-Bayes and information "
        "theory (reproduction of Mir, PAIS/EDBT 2012)"
    ),
    long_description=open("README.md").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    python_requires=">=3.10",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24", "scipy>=1.11"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
