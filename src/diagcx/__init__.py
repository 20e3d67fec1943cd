"""Diagonal complexes, planted forests and symmetric automorphisms of free products."""

__version__ = "0.1.0"
