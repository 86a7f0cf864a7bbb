"""Sparse LU factorization and the residual contract every solve keeps.

Solves are direct factorizations (SuperLU through scipy) held to an explicit
relative residual by :func:`checked_solve`: a solve that misses it after one
step of iterative refinement raises :class:`SolverFailure` instead of
returning silently.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import SolverFailure


def compressed(A):
    """Normalize a matrix-like input to canonical CSR."""
    A = sparse.csr_matrix(A)
    A.sum_duplicates()
    A.sort_indices()
    return A


def factorize(A):
    """SuperLU factors of a square sparse matrix, real or complex, in a
    minimum-degree order on the pattern of A^T + A (Liu, ACM TOMS 11, 1985):
    every matrix factorized here has the symmetric pattern of an interior
    block.  Threshold partial pivoting stays on, since a slab mode's
    Hermitian part need not be definite."""
    try:
        return splu(sparse.csc_matrix(A), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SolverFailure(f"factorization failed: {exc}") from exc


def checked_solve(solve, apply, b, tol, label):
    """x = solve(b), held to |apply(x) - b| <= tol * |b| (norms over all entries).

    One step of iterative refinement runs when the first residual misses.
    """
    x = solve(b)
    bnorm = np.linalg.norm(b)
    res = np.linalg.norm(apply(x) - b)
    if res > tol * max(bnorm, 1e-300):
        x = x + solve(b - apply(x))  # one step of iterative refinement
        res = np.linalg.norm(apply(x) - b)
        if res > tol * max(bnorm, 1e-300):
            raise SolverFailure(
                f"{label} solve residual {res:.3e} exceeds {tol:.1e} * |b|",
                residual=res,
            )
    if not np.all(np.isfinite(x)):
        raise SolverFailure(f"{label} solve produced non-finite entries")
    return x


class Factorization:
    """Reusable LU factorization; each solve is held to relative residual 1e-12."""

    def __init__(self, A):
        self.A = compressed(A)
        self._lu = factorize(self.A)

    def solve(self, b):
        return checked_solve(self._lu.solve, self.A.dot, np.asarray(b, dtype=float),
                             1e-12, "factorized")
