"""Seeded random generators used by the verification suites and tests."""

from __future__ import annotations

import numpy as np

from .constructions import concurrence_triple_of_unitary
from .linalg import kron_all
from .states import QUBIT_PAIR, PureState, StateSpace, concurrence, orthonormal_completion


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    return q * (ph.conj() / np.abs(ph))


def random_pure_state(rng: np.random.Generator, space: StateSpace) -> PureState:
    v = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return PureState.normalized(space, v)


def random_local_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_product_state(rng: np.random.Generator, space: StateSpace) -> PureState:
    factors = [random_local_vector(rng, d) for d in space.dims]
    return PureState(space, kron_all(factors))


def random_entangled_2x2(rng: np.random.Generator, min_concurrence: float = 0.05) -> PureState:
    while True:
        psi = random_pure_state(rng, QUBIT_PAIR)
        if concurrence(psi) >= min_concurrence:
            return psi


def random_basis_of_complement(rng: np.random.Generator, phi: PureState) -> list[PureState]:
    """Random orthonormal basis of {phi}^perp (Haar mixing of a completion)."""
    comp = orthonormal_completion([phi])
    cols = np.column_stack([s.amplitudes for s in comp])
    mixed = cols @ random_unitary(rng, len(comp))
    return [PureState(phi.space, mixed[:, j]) for j in range(mixed.shape[1])]


def random_product_basis(rng: np.random.Generator, space: StateSpace) -> list[PureState]:
    """Product basis obtained from random local bases on each party."""
    locals_ = [random_unitary(rng, d) for d in space.dims]
    out = []
    for flat in range(space.dim):
        idx = np.unravel_index(flat, space.dims)
        out.append(PureState(space, kron_all([u[:, i] for u, i in zip(locals_, idx)])))
    return out


def sample_unitary_triples(rng: np.random.Generator, n: int) -> np.ndarray:
    """Concurrence triples of Haar-random 3x3 unitaries, for empirical checks
    of the tetrahedron membership conjecture."""
    out = np.empty((n, 3))
    for i in range(n):
        out[i] = concurrence_triple_of_unitary(random_unitary(rng, 3))
    return out
