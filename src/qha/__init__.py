"""Numerical workbench for harmonic analysis on finite phase spaces.

Exact function calculus on finite abelian groups, projective Weyl systems
on Z_N x Z_N with the full convolution calculus between functions and
operators, regularity/rank diagnostics, and truncated sequence-space and
interval models with convergence-topology probes.
"""
