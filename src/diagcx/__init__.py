"""Diagonal complexes, planted forests and symmetric automorphisms of free products."""

__version__ = "0.1.0"

# The largest n at which the forest complex Γ(F_n) is built, and so at which
# `series fr` answers: its closed form is checked against Γ(F_n).
BUILD_CAP = 6
