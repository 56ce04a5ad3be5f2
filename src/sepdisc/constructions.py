"""Constructive generators.

* the three-state 2x2 family that separable operations distinguish but LOCC
  cannot, parametrized by angles (alpha, beta, gamma),
* bases hitting prescribed concurrence targets,
* the tetrahedron-to-unitary algorithm realizing any admissible concurrence
  triple over the magic basis,
* the dimension-7 (two qutrits) and dimension-6 (three qubits)
  indistinguishable subspaces with their structural verifiers,
* the LOCC-distinguishable basis for orthocomplements of two-term states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    NotUnitary,
    ParamsOutOfRange,
    PointOutsideTetrahedron,
    TargetsOutOfRange,
    WrongForm,
)
from .linalg import kron_all, maxabs
from .states import (
    PureState,
    QUBIT_PAIR,
    StateSpace,
    basis_state,
    local_basis_containing,
    magic_basis,
    orthonormal_completion,
)
from .tensor_rank import (
    ProductVector,
    Schmidt2Decomposition,
    Schmidt2Kind,
    cut_rank,
    product_vectors_in_span,
    schmidt2_classify,
)


def psi_angle(theta: float) -> PureState:
    """cos(t)|01> + sin(t)|10>."""
    return PureState(QUBIT_PAIR, np.array([0.0, math.cos(theta), math.sin(theta), 0.0], dtype=complex))


def phi_angle(theta: float) -> PureState:
    """cos(t)|00> + sin(t)|11>."""
    return PureState(QUBIT_PAIR, np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)], dtype=complex))


def gamma_range(alpha: float, beta: float) -> tuple[float, float]:
    lo = math.atan(math.sqrt(math.sin(2 * alpha) / math.sin(2 * beta)))
    hi = math.atan(math.sqrt(math.sin(2 * beta) / math.sin(2 * alpha)))
    return lo, hi


@dataclass(frozen=True)
class FamilyParams:
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= self.beta <= math.pi / 4 + 1e-12:
            raise ParamsOutOfRange(
                f"need 0 < alpha <= beta <= pi/4; got alpha={self.alpha}, beta={self.beta}"
            )
        lo, hi = gamma_range(self.alpha, self.beta)
        if not lo - 1e-12 <= self.gamma <= hi + 1e-12:
            raise ParamsOutOfRange(
                f"gamma={self.gamma} outside "
                f"[atan(sqrt(sin2a/sin2b)), atan(sqrt(sin2b/sin2a))] = [{lo:.6f}, {hi:.6f}]"
            )


def _family_states(alpha: float, beta: float, gamma: float):
    phi = phi_angle(beta)
    psi1 = psi_angle(alpha)
    psi2 = PureState(
        QUBIT_PAIR,
        math.cos(gamma) * psi_angle(alpha - math.pi / 2).amplitudes
        + math.sin(gamma) * phi_angle(beta - math.pi / 2).amplitudes,
    )
    psi3 = PureState(
        QUBIT_PAIR,
        math.sin(gamma) * psi_angle(alpha - math.pi / 2).amplitudes
        - math.cos(gamma) * phi_angle(beta - math.pi / 2).amplitudes,
    )
    return phi, [psi1, psi2, psi3]


def family_sep_not_locc(params: FamilyParams) -> tuple[PureState, list[PureState]]:
    """The residual state phi(beta) and the three-state basis of its
    orthocomplement; in range, the basis is distinguishable by separable
    operations while two entangled members rule out LOCC."""
    return _family_states(params.alpha, params.beta, params.gamma)


def family_concurrences(params: FamilyParams) -> tuple[float, float, float]:
    """Closed forms: C1 = sin 2a, C2 = |cos^2 g sin 2a - sin^2 g sin 2b|,
    C3 = |sin^2 g sin 2a - cos^2 g sin 2b|."""
    s2a, s2b = math.sin(2 * params.alpha), math.sin(2 * params.beta)
    cg2, sg2 = math.cos(params.gamma) ** 2, math.sin(params.gamma) ** 2
    return (s2a, abs(cg2 * s2a - sg2 * s2b), abs(sg2 * s2a - cg2 * s2b))


def basis_for_targets(c1: float, c2: float, c3: float) -> tuple[PureState, list[PureState]]:
    """Basis of three states with prescribed concurrences (c1, c2, c3),
    c1+c2+c3 <= 1, distinguishable by separable operations.

    Parameter solution: sin 2b = c1+c2+c3, sin 2a = c1,
    sin^2 g = (c1+c2)/(s+c1); validated by the round trip, with the all-zero
    case handled as a product basis.
    """
    targets = tuple(float(c) for c in (c1, c2, c3))
    # max(0.0, nan) is 0.0, so a NaN target must be caught here
    if not all(math.isfinite(c) and c >= -1e-12 for c in targets):
        raise TargetsOutOfRange(f"concurrence targets must be finite and nonnegative; got {targets}")
    c1, c2, c3 = (max(0.0, c) for c in targets)
    s = c1 + c2 + c3
    if s > 1.0 + 1e-12:
        raise TargetsOutOfRange(f"concurrence targets must satisfy c1+c2+c3 <= 1; got {s}")
    s = min(s, 1.0)
    if s <= 1e-15:
        phi = basis_state(QUBIT_PAIR, (0, 0))
        return phi, [basis_state(QUBIT_PAIR, (0, 1)), basis_state(QUBIT_PAIR, (1, 0)), basis_state(QUBIT_PAIR, (1, 1))]
    alpha = math.asin(min(c1, 1.0)) / 2.0
    beta = math.asin(s) / 2.0
    gamma = math.asin(math.sqrt((c1 + c2) / (s + c1)))
    return _family_states(alpha, beta, gamma)


@dataclass(frozen=True)
class TetraPoint:
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        xs = (self.x1, self.x2, self.x3)
        if not in_tetrahedron(np.array(xs, dtype=float), slack=1e-12):
            raise PointOutsideTetrahedron(
                f"point {xs} is outside the concurrence tetrahedron: need every "
                "x_k in [0,1], x1+x2+x3 >= 1 and x1+x2+x3 - 2 x_k <= 1"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3], dtype=float)


def _householder_with_first_column(u: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix whose first column is the given unit vector.

    Reflection through u + e1 maps e1 to -u without cancellation for u >= 0,
    so the first column is fixed up afterwards.
    """
    n = u.shape[0]
    w = u.copy()
    w[0] += 1.0
    h = np.eye(n) - 2.0 * np.outer(w, w) / float(w @ w)
    h[:, 0] = -h[:, 0]
    return h


def tetra_unitary(point: TetraPoint) -> np.ndarray:
    """3x3 unitary whose rows achieve |sum_j U[k,j]^2| = x_k.

    Writes U = O diag(1, e^{i t}, e^{i t}) with O real orthogonal and first
    column u.  With x sorted descending, c = cos^2 t and s_k = sqrt(x_k^2 -
    c), the rows need u_k^2 = (sin t + sign_k s_k)/(2 sin t), and the column
    is a unit vector iff sin t = s_1 + s_2 +- s_3.  Squared twice, that
    condition is linear in c:

        c* = (16 K^2 x_3^2 - m^2) / (8 K (m + 2 K (1 + x_3^2))),
        K = 1 + x_3^2 - x_1^2 - x_2^2,  m = 4 (x_1^2 x_2^2 - x_3^2) - K^2.

    The candidates are c = 0 (t = pi/2) and c* when it lies in [0, x_3^2];
    the candidate and sign pattern (-,-,-) or (-,-,+) that best satisfy the
    unsquared condition are kept.
    """
    xs = point.as_array()
    order = np.argsort(-xs, kind="stable")
    x = xs[order]

    if x[2] >= 1.0 - 1e-12:
        return np.eye(3, dtype=complex)

    x1, x2, x3 = x * x
    k = 1.0 + x3 - x1 - x2
    m = 4.0 * (x1 * x2 - x3) - k * k
    den = 8.0 * k * (m + 2.0 * k * (1.0 + x3))
    c_star = (16.0 * k * k * x3 - m * m) / den if den != 0.0 else math.nan
    cands = np.array([0.0, c_star] if 0.0 <= c_star <= x3 else [0.0])
    sin_t = np.sqrt(1.0 - cands)
    signs = np.array([[-1.0, -1.0, -1.0], [-1.0, -1.0, 1.0]])
    # s[candidate, pattern, k] = sign_k s_k
    s = signs * np.sqrt(x * x - cands[:, None])[:, None, :]
    miss = np.abs(sin_t[:, None] + s.sum(axis=-1))
    i, j = np.unravel_index(np.argmin(miss), miss.shape)
    # a coordinate up to the slack above 1 makes s_k exceed sin t
    col = np.sqrt(np.clip((sin_t[i] + s[i, j]) / (2.0 * sin_t[i]), 0.0, 1.0))
    col = col / np.linalg.norm(col)

    phase = np.exp(1j * math.acos(math.sqrt(cands[i])))
    u_out = np.empty((3, 3), dtype=complex)
    u_out[order] = _householder_with_first_column(col) @ np.diag([1.0, phase, phase])

    defect = maxabs(u_out.conj().T @ u_out - np.eye(3))
    error = np.max(np.abs(concurrence_triple_of_unitary(u_out) - xs))
    if not (defect <= 1e-10 and error <= 1e-8):
        raise PointOutsideTetrahedron(
            f"construction failed numerically: unitarity defect {defect:.2e}, target error {error:.2e}"
        )
    return u_out


def basis_from_unitary(u: np.ndarray) -> list[PureState]:
    """Rotate the first three magic-basis states, which span {phi}^perp for
    phi the fourth, by a 3x3 unitary; the resulting concurrences are |sum of
    squared row entries|."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (3, 3) or maxabs(u.conj().T @ u - np.eye(3)) > 1e-9:
        raise NotUnitary("expected a 3x3 unitary matrix")
    others = magic_basis()[:3]
    out = []
    for k in range(3):
        vec = sum(u[k, l] * others[l].amplitudes for l in range(3))
        out.append(PureState.normalized(QUBIT_PAIR, vec))
    return out


def concurrence_triple_of_unitary(u: np.ndarray) -> np.ndarray:
    return np.abs(np.sum(np.asarray(u, dtype=complex) ** 2, axis=1))


def in_tetrahedron(x: np.ndarray, slack: float = 1e-9) -> bool:
    x = np.asarray(x, dtype=float)
    if np.any(x < -slack) or np.any(x > 1 + slack):
        return False
    s = float(x.sum())
    if s < 1 - slack:
        return False
    return all(s - 2 * x[i] <= 1 + slack for i in range(3))


def tetra_grid(step: float):
    """Points (x1, x2, x3) of the cubic grid with the given step that lie in
    the concurrence tetrahedron."""
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    for x1 in ticks:
        for x2 in ticks:
            for x3 in ticks:
                if in_tetrahedron(np.array([x1, x2, x3]), slack=1e-9):
                    yield float(x1), float(x2), float(x3)


class SubspaceFamily(Enum):
    BIPARTITE_3X3_DIM7 = "dim7"
    TRIPARTITE_222_DIM6 = "dim6"


@dataclass(frozen=True)
class SubspaceSpec:
    kind: SubspaceFamily | None
    space: StateSpace
    phi1: PureState
    phi2: PureState
    complement: tuple[PureState, ...]


def indistinguishable_subspace(kind: SubspaceFamily) -> SubspaceSpec:
    """The spanning pair and an orthonormal basis of its orthocomplement for
    the shipped indistinguishable subspaces."""
    if kind is SubspaceFamily.BIPARTITE_3X3_DIM7:
        space = StateSpace((3, 3))
        phi1 = PureState.normalized(space, np.eye(3, dtype=complex).reshape(9))
        phi2 = basis_state(space, (0, 1))
    elif kind is SubspaceFamily.TRIPARTITE_222_DIM6:
        space = StateSpace((2, 2, 2))
        phi1 = PureState.normalized(
            space,
            basis_state(space, (0, 0, 1)).amplitudes
            + basis_state(space, (0, 1, 0)).amplitudes
            + basis_state(space, (1, 0, 0)).amplitudes,
        )
        phi2 = basis_state(space, (0, 0, 0))
    else:
        raise WrongForm(f"unknown subspace kind {kind}")
    complement = tuple(orthonormal_completion([phi1, phi2]))
    return SubspaceSpec(kind=kind, space=space, phi1=phi1, phi2=phi2, complement=complement)


def subspace_spec_from_pair(phi1: PureState, phi2: PureState) -> SubspaceSpec:
    return SubspaceSpec(
        kind=None,
        space=phi1.space,
        phi1=phi1,
        phi2=phi2,
        complement=tuple(orthonormal_completion([phi1, phi2])),
    )


@dataclass(frozen=True)
class PropertyReport:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SubspaceReport:
    p0: PropertyReport
    p1: PropertyReport
    p2: PropertyReport

    @property
    def all_passed(self) -> bool:
        return self.p0.passed and self.p1.passed and self.p2.passed


def _needs_three_products(state: PureState, tol: Tolerances) -> bool:
    """True when the state provably needs >= 3 product terms (not merely >= 3
    orthogonal ones)."""
    if state.space.nparties == 2:
        return cut_rank(state.amplitudes, state.space.dims, (0,), tol) >= 3
    cls = schmidt2_classify(state, tol)
    if cls.kind is not Schmidt2Kind.AT_LEAST_3:
        return False
    from .tensor_rank import AtLeast3Reason

    return cls.reason in (AtLeast3Reason.CUT_RANK, AtLeast3Reason.PRODUCT_SHORTAGE)


def _sample_grid(n_mag: int, n_phase: int):
    for t in np.linspace(0.08, math.pi / 2 - 0.08, n_mag):
        for ph in np.linspace(0.0, 2 * math.pi, n_phase, endpoint=False):
            yield math.cos(t), math.sin(t) * np.exp(1j * ph)


def verify_subspace_properties(spec: SubspaceSpec, tol: Tolerances = DEFAULT) -> SubspaceReport:
    """Check the three structural properties behind indistinguishability:
    a unique product direction in the span, three-term entangled members on
    a sampling grid, and the same for the difference combinations that the
    rank-bound argument uses."""
    span = product_vectors_in_span(spec.phi1, spec.phi2, tol)
    unique_product = (not span.infinitely_many) and len(span.vectors) == 1
    p0_detail: dict = {"count": len(span.vectors), "infinitely_many": span.infinitely_many}
    if unique_product:
        v = span.vectors[0].unit()
        p0_detail["product_overlap_phi2"] = float(abs(np.vdot(v, spec.phi2.amplitudes)))
    p0 = PropertyReport("unique_product_vector", unique_product, p0_detail)

    n_checked = 0
    n_failed = 0
    for a, b in _sample_grid(10, 10):
        vec = a * spec.phi1.amplitudes + b * spec.phi2.amplitudes
        state = PureState.normalized(spec.space, vec)
        n_checked += 1
        if not _needs_three_products(state, tol):
            n_failed += 1
    p1 = PropertyReport(
        "entangled_members_need_three_products",
        n_failed == 0 and n_checked >= 100,
        {"checked": n_checked, "failed": n_failed},
    )

    n2 = 0
    f2 = 0
    for mag in np.linspace(0.15, 6.0, 20):
        for ph in np.linspace(0.0, 2 * math.pi, 5, endpoint=False):
            alpha_inv = mag * np.exp(1j * ph)
            vec = spec.phi1.amplitudes - alpha_inv * spec.phi2.amplitudes
            state = PureState.normalized(spec.space, vec)
            n2 += 1
            if not _needs_three_products(state, tol):
                f2 += 1
    p2 = PropertyReport(
        "difference_combinations_need_three_products",
        f2 == 0,
        {"checked": n2, "failed": f2},
    )
    return SubspaceReport(p0=p0, p1=p1, p2=p2)


def _product_basis_through(a: ProductVector, b: ProductVector, space: StateSpace) -> list[PureState]:
    """Complete two orthogonal product vectors to a full orthogonal product
    basis.

    Some party has orthogonal factors; a local basis on that party splits the
    space into sectors, and each sector gets a product basis aligned with the
    corresponding factors.
    """
    a = a.normalized()
    b = b.normalized()
    dims = space.dims
    k = space.nparties
    ortho_party = None
    for p in range(k):
        if abs(np.vdot(a.factors[p], b.factors[p])) < 1e-9:
            ortho_party = p
            break
    if ortho_party is None:
        raise WrongForm("the two product vectors are not orthogonal through any single party")

    da = dims[ortho_party]
    # local basis of the splitting party containing both orthogonal factors
    local_cols = [a.factors[ortho_party], b.factors[ortho_party]]
    completion = local_basis_containing(a.factors[ortho_party])
    for j in range(completion.shape[1]):
        v = completion[:, j]
        for u in local_cols:
            v = v - u * np.vdot(u, v)
        n = np.linalg.norm(v)
        if n > 1e-6:
            local_cols.append(v / n)
    if len(local_cols) != da:
        raise WrongForm("local completion failed on the splitting party")

    def _sector_basis(sector_vec: np.ndarray, anchors) -> list[PureState]:
        cols = {
            p: (np.eye(dims[p], dtype=complex) if anchors is None else local_basis_containing(anchors[p]))
            for p in range(k)
            if p != ortho_party
        }
        shape = [dims[p] if p != ortho_party else 1 for p in range(k)]
        out = []
        for flat in range(int(np.prod(shape))):
            idx = np.unravel_index(flat, shape)
            factors = [
                sector_vec if p == ortho_party else cols[p][:, idx[p]] for p in range(k)
            ]
            out.append(PureState.normalized(space, kron_all(factors)))
        return out

    basis: list[PureState] = []
    for j, lv in enumerate(local_cols):
        anchors = a.factors if j == 0 else b.factors if j == 1 else None
        basis.extend(_sector_basis(lv, anchors))
    return basis


def locc_basis_sch2(phi: PureState, tol: Tolerances = DEFAULT) -> list[PureState]:
    """Basis of {phi}^perp distinguishable by local projective measurements,
    for phi = cos(t) a + sin(t) b with a, b orthogonal products: the unique
    entangled member sin(t) a - cos(t) b plus the product completion of
    {a, b}."""
    cls = schmidt2_classify(phi, tol)
    if cls.kind is not Schmidt2Kind.SCHMIDT2 or not cls.decomposition.orthogonal:
        raise WrongForm("state does not split into two orthogonal product terms")
    return _locc_basis(phi, cls.decomposition)


def _locc_basis(phi: PureState, dec: Schmidt2Decomposition) -> list[PureState]:
    """:func:`locc_basis_sch2` from the orthogonal decomposition phi = a + b."""
    psi = PureState.normalized(phi.space, dec.complement())
    a_hat, b_hat = dec.a.unit(), dec.b.unit()
    full = _product_basis_through(dec.a, dec.b, phi.space)
    others = [
        st
        for st in full
        if abs(np.vdot(st.amplitudes, a_hat)) < 0.5 and abs(np.vdot(st.amplitudes, b_hat)) < 0.5
    ]
    if len(others) != phi.space.dim - 2:
        raise WrongForm("product completion failed to produce the expected count")
    return [psi] + others


def sample_unitary_triples(rng: np.random.Generator, n: int) -> np.ndarray:
    """Concurrence triples of Haar-random 3x3 unitaries, for empirical checks
    of the tetrahedron membership conjecture."""
    from .sampling import random_unitary

    out = np.empty((n, 3))
    for i in range(n):
        out[i] = concurrence_triple_of_unitary(random_unitary(rng, 3))
    return out
