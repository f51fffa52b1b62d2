"""Truncated sequence-space and interval models with convergence diagnostics."""

# Import names from their submodules.  These two stay here because the
# benchmark's compactness operation reads them off this package.
from .windowed import compactness_proxy, halmos_operator
