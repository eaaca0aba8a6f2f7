"""Spectral-sum estimation library.

Estimates Tr[f(A)] quantities (log-determinant, Schatten-p norms, von
Neumann entropy, trace of inverse) for dense real symmetric matrices via
three routes: exact eigenvalue oracles, classical randomized
baselines, and a desk-scale emulation of quantum block-encoding
algorithms with abstract query-cost accounting.
"""

__version__ = "0.1.0"
