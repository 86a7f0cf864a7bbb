import numpy as np
import pytest
from scipy import sparse

from wavext.errors import SolverFailure
from wavext.linalg import Factorization, compressed


def test_identity():
    A = sparse.eye(5, format="csr")
    b = np.arange(5.0)
    assert np.allclose(Factorization(A).solve(b), b)


def test_small_spd_hand_solve():
    A = sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = Factorization(A).solve(np.array([3.0, 3.0]))
    assert x == pytest.approx([1.0, 1.0], abs=1e-14)


def test_permutation_and_swap():
    P = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert Factorization(P).solve(np.array([1.0, 2.0])) == pytest.approx([2.0, 1.0])
    n = 6
    rng = np.random.default_rng(0)
    perm = rng.permutation(n)
    P = sparse.csr_matrix((np.ones(n), (np.arange(n), perm)), shape=(n, n))
    b = rng.normal(size=n)
    assert np.allclose(P @ Factorization(P).solve(b), b)


@pytest.mark.parametrize("seed", range(20))
def test_random_spd_residual_contract(seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(50, 50))
    A = sparse.csr_matrix(B.T @ B + np.eye(50))
    b = rng.normal(size=50)
    x = Factorization(A).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("seed", range(10))
def test_general_recovers_known_solution(seed):
    rng = np.random.default_rng(100 + seed)
    A = sparse.csr_matrix(rng.normal(size=(40, 40)) + 5 * np.eye(40))
    x_known = rng.normal(size=40)
    x = Factorization(A).solve(A @ x_known)
    assert np.linalg.norm(x - x_known) <= 1e-9 * np.linalg.norm(x_known)


def test_singular_matrix_raises():
    A = sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SolverFailure):
        Factorization(A)


def test_factorization_reuse():
    rng = np.random.default_rng(7)
    A = sparse.csr_matrix(rng.normal(size=(30, 30)) + 6 * np.eye(30))
    fact = Factorization(A)
    for _ in range(3):
        b = rng.normal(size=30)
        x = fact.solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_compressed_normalizes():
    A = compressed(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert A.format == "csr"
    assert A.has_sorted_indices
