"""Setuptools shim.

``pip install -e .`` requires the ``wheel`` package for PEP 660 editable
installs; in fully offline environments without ``wheel`` you can instead run
``python setup.py develop --no-deps`` or simply add ``src/`` to a ``.pth``
file in site-packages (both are equivalent for this pure-Python package).
"""

from setuptools import setup

setup(python_requires=">=3.11")
