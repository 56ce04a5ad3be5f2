"""State spaces, pure states, the discrimination instance, the 2x2
coefficient-matrix correspondence, concurrence, and the magic basis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DimensionMismatch, InvalidInstance, WrongSpace
from .linalg import hermitian_eig, maxabs


@dataclass(frozen=True)
class StateSpace:
    """Tensor-factor layout: party dimensions d_1..d_K, total D = prod(d_k)."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise DimensionMismatch("a state space needs at least two parties")
        if any(d < 2 for d in dims):
            raise DimensionMismatch("every party dimension must be at least 2")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def nparties(self) -> int:
        return len(self.dims)


QUBIT_PAIR = StateSpace((2, 2))


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector over a StateSpace."""

    space: StateSpace
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        vec = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if vec.shape != (self.space.dim,):
            raise DimensionMismatch(
                f"amplitude vector of length {vec.shape} does not match D={self.space.dim}"
            )
        if not np.all(np.isfinite(vec.view(float))):
            raise DimensionMismatch("amplitudes must be finite")
        if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
            raise DimensionMismatch(
                f"state norm {np.linalg.norm(vec):.12f} is not 1 within 1e-10"
            )
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @classmethod
    def normalized(cls, space: StateSpace, vec) -> "PureState":
        vec = np.asarray(vec, dtype=complex)
        n = np.linalg.norm(vec)
        if n == 0:
            raise DimensionMismatch("cannot normalize the zero vector")
        return cls(space, vec / n)

    @cached_property
    def product(self):
        """The state's ProductVector factorization, or None if entangled;
        computed on first use and kept, as the amplitudes are read-only."""
        from .tensor_rank import try_factor

        return try_factor(self.amplitudes, self.space.dims)

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def inner(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def basis_state(space: StateSpace, indices) -> PureState:
    """Computational basis ket |i_1 ... i_K>."""
    if len(indices) != space.nparties:
        raise DimensionMismatch("one index per party required")
    flat = int(np.ravel_multi_index(tuple(int(i) for i in indices), space.dims))
    vec = np.zeros(space.dim, dtype=complex)
    vec[flat] = 1.0
    return PureState(space, vec)


def ket(space: StateSpace, label: str) -> PureState:
    """Shorthand: ket(space, "01") == |0>|1>."""
    return basis_state(space, [int(c) for c in label])


@dataclass(frozen=True)
class DiscriminationInstance:
    """Orthogonal pure states (or support projectors) to be discriminated,
    with an optional declared residual state phi when they span {phi}^perp.
    Build it with :meth:`from_pure` or :meth:`from_projectors`, the only
    places an instance is validated."""

    space: StateSpace
    states: tuple[PureState, ...] = ()
    projectors: tuple[np.ndarray, ...] = ()
    phi: PureState | None = None

    @classmethod
    def from_pure(cls, space: StateSpace, states, phi: PureState | None = None):
        states = tuple(states)
        if not states:
            raise InvalidInstance("need at least one state")
        if any(s.space != space for s in states) or (phi is not None and phi.space != space):
            raise InvalidInstance(f"every state must lie in the space with dims {space.dims}")
        gram = np.array([[a.inner(b) for b in states] for a in states])
        if maxabs(gram - np.eye(len(states))) > 1e-9:
            raise InvalidInstance("states must be orthonormal within 1e-9")
        if phi is not None:
            if len(states) != space.dim - 1:
                raise InvalidInstance("a declared phi requires exactly D-1 states")
            overlaps = [abs(phi.inner(s)) for s in states]
            if max(overlaps) > 1e-9:
                raise InvalidInstance("declared phi must be orthogonal to every state")
        return cls(space=space, states=states, phi=phi)

    @classmethod
    def from_projectors(cls, space: StateSpace, projectors):
        projectors = tuple(np.asarray(p, dtype=complex) for p in projectors)
        if not projectors:
            raise InvalidInstance("need at least one projector")
        if any(p.shape != (space.dim, space.dim) for p in projectors):
            raise InvalidInstance(f"every projector must be {space.dim}x{space.dim}")
        for p in projectors:
            w = hermitian_eig(p).values
            if np.any((w > 1e-8) & (np.abs(w - 1.0) > 1e-8)) or w[0] < -1e-8:
                raise InvalidInstance("inputs must be projectors")
        for i, p in enumerate(projectors):
            for q in projectors[i + 1 :]:
                if maxabs(p @ q) > 1e-9:
                    raise InvalidInstance("projector supports must be orthogonal")
        return cls(space=space, projectors=projectors)

    @property
    def n(self) -> int:
        return len(self.states) if self.states else len(self.projectors)

    def projector_list(self) -> list[np.ndarray]:
        if self.states:
            return [s.density() for s in self.states]
        return list(self.projectors)

    def residual_projector(self) -> np.ndarray:
        """P0 = I - sum_k P_k, the part of the space no member occupies."""
        p0 = np.eye(self.space.dim, dtype=complex) - sum(self.projector_list())
        return (p0 + p0.conj().T) / 2.0


def phi_plus() -> PureState:
    return PureState(QUBIT_PAIR, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


def coeff_matrix(psi: PureState) -> np.ndarray:
    """The unique 2x2 matrix M with |psi> = (I (x) M)|Phi+>.

    With amplitude matrix A[i,j] = <ij|psi>, the identity forces
    M = sqrt(2) * A^T (M acts on the second factor).  This is the one fixed
    convention used everywhere; the determinant below is insensitive to it,
    but the anti-parallel eigenvalue test is not.
    """
    if psi.space.dims != (2, 2):
        raise WrongSpace("coefficient matrices are defined on 2x2 spaces only")
    a = psi.amplitudes.reshape(2, 2)
    return math.sqrt(2.0) * a.T


def state_from_coeff_matrix(m: np.ndarray) -> PureState:
    """Inverse of :func:`coeff_matrix`; exact round trip."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise WrongSpace("expected a 2x2 coefficient matrix")
    return PureState(QUBIT_PAIR, (m.T / math.sqrt(2.0)).reshape(4))


def concurrence(psi: PureState) -> float:
    """|det M| of the coefficient matrix: 0 for products, 1 for maximally
    entangled states."""
    c = abs(np.linalg.det(coeff_matrix(psi)))
    return min(float(c), 1.0)


_INVSQRT2 = 1.0 / math.sqrt(2.0)

# Four maximally entangled states in whose coordinates the concurrence is
# |sum of squared coefficients|.
_MAGIC_VECTORS = np.array(
    [
        [_INVSQRT2, 0, 0, _INVSQRT2],
        [1j * _INVSQRT2, 0, 0, -1j * _INVSQRT2],
        [0, 1j * _INVSQRT2, 1j * _INVSQRT2, 0],
        [0, _INVSQRT2, -_INVSQRT2, 0],
    ],
    dtype=complex,
)


def magic_basis() -> list[PureState]:
    return [PureState(QUBIT_PAIR, v) for v in _MAGIC_VECTORS]


@dataclass(frozen=True)
class MagicBasisCoords:
    """Coordinates of a 2x2 state in the magic basis."""

    lambdas: np.ndarray

    @property
    def concurrence(self) -> float:
        return min(float(abs(np.sum(self.lambdas**2))), 1.0)


def magic_coords(psi: PureState) -> MagicBasisCoords:
    if psi.space.dims != (2, 2):
        raise WrongSpace("magic coordinates are defined on 2x2 spaces only")
    lam = _MAGIC_VECTORS.conj() @ psi.amplitudes
    return MagicBasisCoords(lambdas=lam)


def _pivoted_completion(seed_cols: np.ndarray, dim: int, tol: Tolerances) -> np.ndarray:
    """Orthonormal completion of the given orthonormal columns.

    Gram-Schmidt seeded from the standard basis, pivoting on the largest
    remaining residual norm (ties resolved by lowest index) so the output is
    reproducible.  Two orthogonalization passes keep the result orthonormal
    to machine precision.
    """
    basis = [seed_cols[:, j] for j in range(seed_cols.shape[1])]
    residuals = np.eye(dim, dtype=complex)
    for v in basis:
        residuals -= np.outer(v, v.conj() @ residuals)
    out = []
    while len(basis) < dim:
        norms = np.linalg.norm(residuals, axis=0)
        pick = int(np.argmax(norms > norms.max() - 1e-15))
        v = residuals[:, pick]
        for _ in range(2):
            for u in basis:
                v = v - u * np.vdot(u, v)
        v = v / np.linalg.norm(v)
        basis.append(v)
        out.append(v)
        residuals -= np.outer(v, v.conj() @ residuals)
    return np.column_stack(out) if out else np.zeros((dim, 0), dtype=complex)


def orthonormal_completion(states: list[PureState], tol: Tolerances = DEFAULT) -> list[PureState]:
    """Orthonormal basis of the orthogonal complement of the given states."""
    if not states:
        raise DimensionMismatch("need at least one state to complete")
    space = states[0].space
    cols = np.column_stack([s.amplitudes for s in states])
    gram = cols.conj().T @ cols
    if np.max(np.abs(gram - np.eye(len(states)))) > 1e-8:
        raise DimensionMismatch("completion requires an orthonormal seed set")
    comp = _pivoted_completion(cols, space.dim, tol)
    return [PureState(space, comp[:, j]) for j in range(comp.shape[1])]


def orthocomplement_basis(phi: PureState, tol: Tolerances = DEFAULT) -> list[PureState]:
    """D-1 orthonormal states spanning {phi}^perp."""
    return orthonormal_completion([phi], tol)


def local_basis_containing(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of a single-party space whose first column
    is the given unit vector."""
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    comp = _pivoted_completion(v[:, None], v.shape[0], DEFAULT)
    return np.column_stack([v] + [comp[:, j] for j in range(comp.shape[1])])
