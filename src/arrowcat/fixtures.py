"""The two named categories that the benchmark's workloads import from here.

``bench/workloads.py`` builds its ``decide`` inputs from ``one()`` and
``walking_iso()``, so this module keeps exactly those two names.  The named
categories of the test suite live in ``tests/catalog.py``.
"""
from .core import ObjlessCategory as _ObjlessCategory
from .generators import gen_walking_iso as walking_iso

__all__ = ["one", "walking_iso"]


def one() -> _ObjlessCategory:
    """The terminal category: a single identity."""
    return _ObjlessCategory.build(["star"], {("star", "star"): "star"})
