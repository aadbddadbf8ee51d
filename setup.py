"""Build script: a pure-Python install with zero build-time dependencies.

The offline environment lacks the `wheel` package, so PEP 517 editable
installs cannot build; this file keeps `setup.py develop` working.
"""

from setuptools import setup

setup()
