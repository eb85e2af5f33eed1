"""Exact-arithmetic checks for twisted rank-one groups and folded root systems."""

from __future__ import annotations

from .core import BACKEND
from .scalar import INFINITY, ExtVal, QuadExt, parse_quad

__all__ = [
    "BACKEND",
    "INFINITY",
    "ExtVal",
    "QuadExt",
    "parse_quad",
]

__version__ = "0.1.0"
