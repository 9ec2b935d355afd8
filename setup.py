"""Setup shim: PEP 660 fallback.

The canonical metadata lives in ``pyproject.toml``; this file keeps
``python setup.py develop`` working on machines where the ``wheel``
package is unavailable (offline build environments).
"""

from setuptools import setup

setup()
