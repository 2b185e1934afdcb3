"""Build script. The package is pure Python; `setup.py build_ext --inplace`
builds nothing and exits 0."""

from setuptools import setup

setup()
