"""Package metadata for the WATTER reproduction.

This file is the only place the metadata lives (there is no
``pyproject.toml``); ``pip install -e . --no-use-pep517`` works from it
in offline environments where the ``wheel`` package is unavailable.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Read, not imported: importing ``repro`` would need its dependencies.
_VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
