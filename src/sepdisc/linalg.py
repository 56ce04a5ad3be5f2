"""Small dense complex-matrix arithmetic.

All operators in this package are dense complex matrices of dimension at
most a few dozen, so everything below simply wraps LAPACK through numpy.
Functions accept stacked operands (leading batch axes) where noted.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import BadBipartition, DimensionMismatch, NotHermitian


def kron_all(factors) -> np.ndarray:
    """Kronecker product of vectors or of matrices, left to right."""
    out = np.asarray(factors[0])
    for f in factors[1:]:
        f = np.asarray(f)
        # on vectors the outer product is np.kron's result, entry for entry
        out = np.multiply.outer(out, f).ravel() if out.ndim == f.ndim == 1 else np.kron(out, f)
    return out


def dag(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def vector_norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a float or complex array, bit for bit: its own
    formula, sqrt(re.re + im.im) over x raveled in memory order."""
    x = x.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def maxabs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if np.asarray(a).size else 0.0


def check_hermitian(a: np.ndarray, tol: Tolerances = DEFAULT) -> None:
    """Reject the first matrix of a square stack ``(..., D, D)`` whose
    asymmetry exceeds the ``hermiticity`` tolerance relative to its scale."""
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    defect = np.abs(a - dag(a)).max(axis=(-2, -1), initial=0.0)
    if (bad := defect > tol.hermiticity * scale).any():
        j = bad.argmax()
        raise NotHermitian(f"asymmetry {defect.flat[j]:.3e} exceeds {tol.hermiticity:.1e}*{scale.flat[j]:.3e}")


def hermitian_eig(a: np.ndarray, tol: Tolerances = DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian matrix, as ``np.linalg.eigh``
    returns it: real ascending eigenvalues and orthonormal eigenvector columns.

    The input is symmetrized internally; an asymmetry beyond the
    ``hermiticity`` tolerance (relative to the matrix scale) is rejected.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    check_hermitian(a, tol)
    return np.linalg.eigh((a + dag(a)) / 2.0)


def psd_project(a: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (negative eigenvalues clipped).

    Accepts a stack ``(..., D, D)`` of Hermitian matrices.
    """
    a = np.asarray(a, dtype=complex)
    h = (a + dag(a)) / 2.0
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return np.einsum("...ij,...j,...kj->...ik", v, w, v.conj())


def min_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix in a Hermitian stack."""
    h = (a + dag(a)) / 2.0
    return np.linalg.eigvalsh(h)[..., 0]


def _axis_spec(dims, parties, nbatch: int):
    k = len(dims)
    for p in parties:
        if not 0 <= p < k:
            raise BadBipartition(f"party index {p} out of range for {k} parties")
    axes = list(range(nbatch + 2 * k))
    for p in parties:
        i, j = nbatch + p, nbatch + k + p
        axes[i], axes[j] = axes[j], axes[i]
    return axes


def partial_transpose(a: np.ndarray, dims, parties) -> np.ndarray:
    """Transpose on the chosen tensor factors only; involutive.

    ``parties`` is an index or an iterable of indices into ``dims``.
    Accepts a stack ``(..., D, D)``.
    """
    if isinstance(parties, (int, np.integer)):
        parties = (int(parties),)
    parties = tuple(parties)
    a = np.asarray(a)
    d = math.prod(dims)
    if a.shape[-2:] != (d, d):
        raise DimensionMismatch(
            f"operator of shape {a.shape[-2:]} does not match total dimension {d}"
        )
    batch = a.shape[:-2]
    t = a.reshape(batch + tuple(dims) * 2)
    t = np.transpose(t, _axis_spec(tuple(dims), parties, len(batch)))
    return t.reshape(batch + (d, d))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + dag(m)) / 2.0
