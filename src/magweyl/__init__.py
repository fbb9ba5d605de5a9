"""Magnetic Weyl calculus on nilpotent Lie groups."""

from . import errors, lie_core, magnetic, symbol_space, weyl_calculus
from .errors import MagweylError

__version__ = "0.1.0"
