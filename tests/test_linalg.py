import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdisc.errors import DimensionMismatch, NotHermitian
from sepdisc.linalg import (
    hermitian_eig,
    kron_all,
    maxabs,
    partial_transpose,
    psd_project,
    random_hermitian,
    vector_norm,
)
from sepdisc.states import phi_plus

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_kron_identities():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.array_equal(np.kron(np.diag([1.0, 2.0]), np.diag([3.0])), np.diag([3.0, 6.0]))


def test_kron_flips_basis_vector():
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    assert np.allclose(np.kron(X, X) @ np.kron(e0, e0), np.kron(e1, e1))


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _kron_fold(factors):
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (2, 3, 2), (3, 3, 3)])
def test_kron_all_of_vectors_is_bitwise_np_kron(dims):
    rng = np.random.default_rng(sum(dims))
    for _ in range(20):
        factors = [_complex(rng, d) for d in dims]
        got, want = kron_all(factors), _kron_fold(factors)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    # real factors keep their dtype
    real = [rng.standard_normal(d) for d in dims]
    assert kron_all(real).tobytes() == _kron_fold(real).tobytes()


@pytest.mark.parametrize("n", range(2, 28))
def test_vector_norm_is_bitwise_np_linalg_norm(n):
    # contiguous, strided and reversed views, real and complex, over scales
    # 1e-150 to 1e150
    rng = np.random.default_rng(n)
    for scale in 10.0 ** np.arange(-150, 151, 30):
        big = _complex(rng, 3 * n) * scale
        for v in (big[:n], big[::3], big[n - 1 :: -1], big.reshape(3, n)[:, 0]):
            for x in (v, v.real, np.ascontiguousarray(v.real)):
                assert vector_norm(x) == np.linalg.norm(x), (n, scale)


def test_kron_all_of_matrices_matches_np_kron():
    # local unitaries, the way rotations are built
    rng = np.random.default_rng(3)
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        us = [np.linalg.qr(_complex(rng, (d, d)))[0] for d in dims]
        assert np.array_equal(kron_all(us), _kron_fold(us))


@given(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_kron_associativity(da, db, dc, seed):
    # exact equality needs entries whose pairwise products are representable
    rng = np.random.default_rng(seed)
    a, b, c = (
        rng.integers(-8, 9, (d, d)).astype(complex) + 1j * rng.integers(-8, 9, (d, d))
        for d in (da, db, dc)
    )
    assert np.array_equal(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)))


def test_eig_diagonal_sorted_ascending():
    values, _ = hermitian_eig(np.diag([2.0, 1.0]).astype(complex))
    assert np.allclose(values, [1.0, 2.0])


def test_eig_rank1_projector():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    values, _ = hermitian_eig(np.outer(plus, plus.conj()))
    assert np.allclose(values, [0.0, 1.0], atol=1e-12)


def test_eig_trace_identity_and_reconstruction(rng):
    for d in (2, 5, 17, 32):
        h = random_hermitian(rng, d)
        values, vectors = hermitian_eig(h)
        assert abs(values.sum() - np.trace(h).real) < 1e-10 * max(1.0, abs(np.trace(h).real))
        recon = vectors @ np.diag(values) @ vectors.conj().T
        assert maxabs(recon - h) < 1e-9 * max(1.0, maxabs(h))
        gram = vectors.conj().T @ vectors
        assert maxabs(gram - np.eye(d)) < 1e-10


def test_eig_rejects_asymmetric():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.zeros((2, 3)))


def test_partial_transpose_product_case(rng):
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    op = np.kron(a, b)
    assert np.allclose(partial_transpose(op, (2, 3), 1), np.kron(a, b.T))
    assert np.allclose(partial_transpose(op, (2, 3), 0), np.kron(a.T, b))


def test_partial_transpose_involution(rng):
    op = random_hermitian(rng, 8)
    pt = partial_transpose(op, (2, 2, 2), (1,))
    assert np.allclose(partial_transpose(pt, (2, 2, 2), (1,)), op)


def test_partial_transpose_preserves_trace_and_hermiticity(rng):
    for _ in range(20):
        op = random_hermitian(rng, 6)
        pt = partial_transpose(op, (2, 3), 0)
        assert abs(np.trace(pt) - np.trace(op)) < 1e-12
        assert maxabs(pt - pt.conj().T) < 1e-12


def test_partial_transpose_bell_spectrum():
    # independent oracle: direct eigendecomposition of the partially
    # transposed projector
    rho = phi_plus().density()
    pt = partial_transpose(rho, (2, 2), 1)
    vals = np.linalg.eigvalsh(pt)
    assert np.allclose(sorted(vals), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_psd_project_stack(rng):
    stack = np.stack([random_hermitian(rng, 4) for _ in range(3)])
    proj = psd_project(stack)
    assert np.linalg.eigvalsh(proj).min() > -1e-12
    one = psd_project(stack[0])
    assert np.allclose(one, proj[0])
