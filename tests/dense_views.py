"""Dense matrices of eigenvalue-stored block-encodings, for the tests.

An encoding keeps eigenvalue vectors indexed like its source's
descending eigenvalues and no eigenvectors, so a test that compares
matrices builds the eigenbasis itself with its own ``eigh``.
"""

from types import SimpleNamespace

import numpy as np


def eigenbasis(entries):
    """Orthonormal eigenvectors of symmetric ``entries``, in descending eigenvalue order."""
    w, v = np.linalg.eigh(np.asarray(entries))
    return v[:, np.argsort(w)[::-1]]


def dense(be, V):
    """The payload and target of ``be`` as matrices in the basis V."""
    build = lambda values: (V * values) @ V.T
    return SimpleNamespace(payload=build(be.payload_values),
                           target=build(be.alpha * be.payload_values))
