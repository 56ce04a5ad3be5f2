"""State spaces, pure states, the discrimination instance, the 2x2
coefficient-matrix correspondence, concurrence, and the magic basis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidInstance, WrongSpace
from .linalg import check_hermitian, dag, maxabs


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
        return math.prod(self.dims)

    @property
    def nparties(self) -> int:
        return len(self.dims)

    @cached_property
    def cuts(self) -> tuple[tuple[int, ...], ...]:
        """Every bipartition, as its left party subset, one per complement pair; built once."""
        from .tensor_rank import proper_cuts

        return tuple(proper_cuts(self.nparties))


QUBIT_PAIR = StateSpace((2, 2))


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector over a StateSpace; equal only to itself."""

    space: StateSpace
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        # a copy: a later write to the caller's buffer cannot reach the state
        vec = np.array(self.amplitudes, dtype=complex)
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

        return try_factor(self.amplitudes[None], self.space.dims)[0]

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def inner(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def factor_states(states) -> None:
    """Fill the cached :attr:`PureState.product` of every state not factored
    yet, with one :func:`~sepdisc.tensor_rank.try_factor` call over them all."""
    todo = [s for s in states if "product" not in vars(s)]
    if todo:
        from .tensor_rank import try_factor

        for state, pv in zip(todo, try_factor(np.stack([s.amplitudes for s in todo]), todo[0].space.dims)):
            vars(state)["product"] = pv


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


@dataclass(frozen=True, eq=False)
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
        if not _orthonormal_columns(np.column_stack([s.amplitudes for s in states])):
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
        projectors = [np.asarray(p, dtype=complex) for p in projectors]
        if not projectors:
            raise InvalidInstance("need at least one projector")
        if any(p.shape != (space.dim, space.dim) for p in projectors):
            raise InvalidInstance(f"every projector must be {space.dim}x{space.dim}")
        # the instance owns this copy: later writes to the caller's arrays miss it
        p = np.stack(projectors)
        if not np.isfinite(p).all():
            raise InvalidInstance("projector entries must be finite")
        check_hermitian(p)
        w = np.linalg.eigvalsh((p + dag(p)) / 2.0)
        if np.any((w > 1e-8) & (np.abs(w - 1.0) > 1e-8)) or w[:, 0].min() < -1e-8:
            raise InvalidInstance("inputs must be projectors")
        i, j = np.triu_indices(len(p), 1)
        if maxabs(p[i] @ p[j]) > 1e-9:
            raise InvalidInstance("projector supports must be orthogonal")
        return cls(space=space, projectors=tuple(_read_only(p)))

    @property
    def n(self) -> int:
        return len(self.states) if self.states else len(self.projectors)

    def projector_list(self) -> list[np.ndarray]:
        """Every member's projector, read-only and built once per instance."""
        return list(self._projectors)

    def residual_projector(self) -> np.ndarray:
        """P0 = I - sum_k P_k, the part of the space no member occupies, read-only and built once."""
        return self._residual

    @cached_property
    def residual_rank(self) -> int:
        """P0's rank, by no eigenvalue threshold: D less the members' ranks, 1 per pure state
        and a projector's trace rounded (:meth:`from_projectors` pins its eigenvalues within 1e-8)."""
        taken = len(self.states) or sum(round(float(np.trace(p).real)) for p in self.projectors)
        return self.space.dim - taken

    @cached_property
    def residual_support(self) -> np.ndarray:
        """Pi, the projector onto the eigenvectors of P0's :attr:`residual_rank` largest
        eigenvalues, read-only and built from one eigh on first use."""
        v = np.linalg.eigh(self._residual)[1][:, self.space.dim - self.residual_rank :]
        return _read_only(v @ dag(v))

    @cached_property
    def _projectors(self) -> tuple[np.ndarray, ...]:
        if self.states:
            return tuple(_read_only(s.density()) for s in self.states)
        return self.projectors

    @cached_property
    def _residual(self) -> np.ndarray:
        p0 = np.eye(self.space.dim, dtype=complex) - sum(self._projectors)
        return _read_only((p0 + p0.conj().T) / 2.0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
_MAGIC_BASIS = tuple(PureState(QUBIT_PAIR, v) for v in _MAGIC_VECTORS)


def magic_basis() -> list[PureState]:
    """The four magic-basis states, built once; each call returns a new list."""
    return list(_MAGIC_BASIS)


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


def _orthonormal_columns(cols: np.ndarray) -> bool:
    """Whether the columns are orthonormal within 1e-9 by one Gram product:
    the one test of instances and completions, so an accepted instance completes."""
    return maxabs(cols.conj().T @ cols - np.eye(cols.shape[1])) <= 1e-9


def _pivoted_completion(seed_cols: np.ndarray, dim: int) -> np.ndarray:
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


def orthonormal_completion(states: list[PureState]) -> list[PureState]:
    """Orthonormal basis of the orthogonal complement of the given states."""
    if not states:
        raise DimensionMismatch("need at least one state to complete")
    space = states[0].space
    cols = np.column_stack([s.amplitudes for s in states])
    if not _orthonormal_columns(cols):
        raise DimensionMismatch("completion requires a seed set orthonormal within 1e-9")
    comp = _pivoted_completion(cols, space.dim)
    return [PureState(space, comp[:, j]) for j in range(comp.shape[1])]


def orthocomplement_basis(phi: PureState) -> list[PureState]:
    """D-1 orthonormal states spanning {phi}^perp."""
    return orthonormal_completion([phi])


def local_basis_containing(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of a single-party space whose first column
    is the given unit vector."""
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    comp = _pivoted_completion(v[:, None], v.shape[0])
    return np.column_stack([v] + [comp[:, j] for j in range(comp.shape[1])])
