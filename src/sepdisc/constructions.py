"""Constructive generators.

* the three-state 2x2 family that separable operations distinguish but LOCC
  cannot, parametrized by angles (alpha, beta, gamma),
* bases hitting prescribed concurrence targets,
* the tetrahedron-to-unitary algorithm realizing any admissible concurrence
  triple over the magic basis,
* the dimension-7 (two qutrits) and dimension-6 (three qubits)
  indistinguishable subspaces with their structural verifiers,
* the orthocomplement trichotomy, with the LOCC basis of two-term states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    NotUnitary,
    ParamsOutOfRange,
    PhiProduct,
    PointOutsideTetrahedron,
    TargetsOutOfRange,
    WrongForm,
)
from .linalg import kron_all, maxabs, vector_norm
from .states import (
    PureState,
    QUBIT_PAIR,
    StateSpace,
    _MAGIC_VECTORS,
    _pivoted_completion,
    basis_state,
    local_basis_containing,
    orthonormal_completion,
)
from .tensor_rank import (
    AtLeast3Reason,
    Schmidt2Decomposition,
    Schmidt2Kind,
    product_vectors_in_span,
    schmidt2_classify,
)


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
    """phi(beta), psi(alpha) and two rotations by gamma of psi(alpha - pi/2) and phi(beta - pi/2),
    for psi(t) = cos(t)|01> + sin(t)|10> and phi(t) = cos(t)|00> + sin(t)|11>."""

    def psi(t):
        return np.array([0.0, math.cos(t), math.sin(t), 0.0], dtype=complex)

    def phi(t):
        return np.array([math.cos(t), 0.0, 0.0, math.sin(t)], dtype=complex)

    a, b = psi(alpha - math.pi / 2), phi(beta - math.pi / 2)
    c, s = math.cos(gamma), math.sin(gamma)
    vectors = [phi(beta), psi(alpha), c * a + s * b, s * a - c * b]
    phi_state, *basis = (PureState(QUBIT_PAIR, v) for v in vectors)
    return phi_state, basis


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
        if not in_tetrahedron(xs, slack=1e-12):
            raise PointOutsideTetrahedron(
                f"point {xs} is outside the concurrence tetrahedron: need every "
                "x_k in [0,1], x1+x2+x3 >= 1 and x1+x2+x3 - 2 x_k <= 1"
            )


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
    xs = (float(point.x1), float(point.x2), float(point.x3))
    order = sorted(range(3), key=lambda k: -xs[k])
    x = [xs[k] for k in order]

    if x[2] >= 1.0 - 1e-12:
        return np.eye(3, dtype=complex)

    x1, x2, x3 = (v * v for v in x)
    k = 1.0 + x3 - x1 - x2
    m = 4.0 * (x1 * x2 - x3) - k * k
    den = 8.0 * k * (m + 2.0 * k * (1.0 + x3))
    c_star = (16.0 * k * k * x3 - m * m) / den if den != 0.0 else math.nan
    best = None
    for c in [0.0, c_star] if 0.0 <= c_star <= x3 else [0.0]:
        sin_t = math.sqrt(1.0 - c)
        root = [math.sqrt(d) if (d := v * v - c) >= 0.0 else math.nan for v in x]
        for s in ([-root[0], -root[1], -root[2]], [-root[0], -root[1], root[2]]):
            miss = abs(sin_t + (s[0] + s[1] + s[2]))
            # as np.argmin over (candidate, pattern): the first least miss, or the first nan
            if best is None or best[0] == best[0] and not miss >= best[0]:
                best = (miss, c, sin_t, s)
    _, c, sin_t, s = best
    # a coordinate up to the slack above 1 makes s_k exceed sin t
    col = np.array([math.sqrt(min(max((sin_t + v) / (2.0 * sin_t), 0.0), 1.0)) for v in s])
    col = col / vector_norm(col)

    phase = np.exp(1j * math.acos(math.sqrt(c)))
    u_out = np.empty((3, 3), dtype=complex)
    u_out[order] = _householder_with_first_column(col) * np.array([1.0, phase, phase])

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
    # a sum that starts from 0 writes every zero amplitude as +0.0, never -0.0
    rows = 0 + u[:, 0:1] * _MAGIC_VECTORS[0] + u[:, 1:2] * _MAGIC_VECTORS[1] + u[:, 2:3] * _MAGIC_VECTORS[2]
    return [PureState.normalized(QUBIT_PAIR, vec) for vec in rows]


def concurrence_triple_of_unitary(u: np.ndarray) -> np.ndarray:
    return np.abs(np.sum(np.asarray(u, dtype=complex) ** 2, axis=1))


def in_tetrahedron(x, slack: float = 1e-9) -> bool:
    xs = [float(v) for v in x]
    s = xs[0] + xs[1] + xs[2]
    return s >= 1 - slack and all(-slack <= v <= 1 + slack and s - 2 * v <= 1 + slack for v in xs)


def tetra_grid(step: float):
    """Points (x1, x2, x3) of the cubic grid with the given step that lie in
    the concurrence tetrahedron."""
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    for x1 in ticks:
        for x2 in ticks:
            for x3 in ticks:
                if in_tetrahedron((x1, x2, x3), slack=1e-9):
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


def verify_subspace_properties(spec: SubspaceSpec, tol: Tolerances = DEFAULT) -> SubspaceReport:
    """Check the three structural properties behind indistinguishability:
    a unique product direction in the span, three-term entangled members on
    a sampling grid, and the same for the difference combinations that the
    rank-bound argument uses.  Both grids are one :func:`schmidt2_classify`
    call; a member passes when a cut rank or a product shortage makes it
    AT_LEAST_3, as these rule out any two-term split, orthogonal or not."""
    span = product_vectors_in_span(spec.phi1, spec.phi2)
    unique_product = (not span.infinitely_many) and len(span.vectors) == 1
    p0_detail: dict = {"count": len(span.vectors), "infinitely_many": span.infinitely_many}
    if unique_product:
        v = span.vectors[0].unit()
        p0_detail["product_overlap_phi2"] = float(abs(np.vdot(v, spec.phi2.amplitudes)))
    p0 = PropertyReport("unique_product_vector", unique_product, p0_detail)

    # p1: cos(t) phi1 + sin(t) e^{i ph} phi2 on a 10 x 10 grid; p2:
    # phi1 - m e^{i ph} phi2 on 20 magnitudes x 5 phases
    turns = [np.linspace(0.0, 2 * math.pi, n, endpoint=False) for n in (10, 5)]
    t, ph1 = np.meshgrid(np.linspace(0.08, math.pi / 2 - 0.08, 10), turns[0], indexing="ij")
    mag, ph2 = np.meshgrid(np.linspace(0.15, 6.0, 20), turns[1], indexing="ij")
    a = np.concatenate([np.cos(t).ravel(), np.ones(100)])
    b = np.concatenate([(np.sin(t) * np.exp(1j * ph1)).ravel(), (-mag * np.exp(1j * ph2)).ravel()])
    vecs = a[:, None] * spec.phi1.amplitudes + b[:, None] * spec.phi2.amplitudes
    three = (AtLeast3Reason.CUT_RANK, AtLeast3Reason.PRODUCT_SHORTAGE)
    classes = schmidt2_classify(vecs / np.linalg.norm(vecs, axis=1, keepdims=True), spec.space.dims, tol)
    failed = [cls.reason not in three for cls in classes]
    f1, f2 = sum(failed[:100]), sum(failed[100:])
    p1 = PropertyReport("entangled_members_need_three_products", f1 == 0, {"checked": 100, "failed": f1})
    p2 = PropertyReport("difference_combinations_need_three_products", f2 == 0, {"checked": 100, "failed": f2})
    return SubspaceReport(p0=p0, p1=p1, p2=p2)


class SubspaceKind(Enum):
    NO_DISTINGUISHABLE_BASIS = "no_distinguishable_basis"
    HAS_LOCC_BASIS = "has_locc_basis"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class SubspaceVerdict:
    kind: SubspaceKind
    basis: tuple[PureState, ...] | None = None
    classification: object = None


def subspace_verdict(phi: PureState, tol: Tolerances = DEFAULT) -> SubspaceVerdict:
    """Trichotomy for the orthocomplement of an entangled state: either no
    basis is distinguishable by separable operations, or an explicitly
    LOCC-distinguishable basis exists."""
    cls = schmidt2_classify(phi.amplitudes[None], phi.space.dims, tol, [phi.product])[0]
    if cls.kind is Schmidt2Kind.PRODUCT:
        raise PhiProduct("subspace question requires an entangled state")
    if cls.kind is Schmidt2Kind.AT_LEAST_3:
        return SubspaceVerdict(kind=SubspaceKind.NO_DISTINGUISHABLE_BASIS, classification=cls)
    if cls.kind is Schmidt2Kind.SCHMIDT2:
        basis = tuple(_locc_basis(phi, cls.decomposition))
        return SubspaceVerdict(kind=SubspaceKind.HAS_LOCC_BASIS, basis=basis, classification=cls)
    return SubspaceVerdict(kind=SubspaceKind.UNDECIDED, classification=cls)


def locc_basis_sch2(phi: PureState, tol: Tolerances = DEFAULT) -> list[PureState]:
    """Basis of {phi}^perp distinguishable by local projective measurements,
    for phi = cos(t) a + sin(t) b with a, b orthogonal products: the unique
    entangled member sin(t) a - cos(t) b plus the product completion of
    {a, b}."""
    cls = schmidt2_classify(phi.amplitudes[None], phi.space.dims, tol, [phi.product])[0]
    if cls.kind is not Schmidt2Kind.SCHMIDT2:
        raise WrongForm("state does not split into two orthogonal product terms")
    return _locc_basis(phi, cls.decomposition)


def _locc_basis(phi: PureState, dec: Schmidt2Decomposition) -> list[PureState]:
    """:func:`locc_basis_sch2` from the orthogonal decomposition phi = a + b.

    On p, the first party where a and b split, their orthogonal factors and
    the completion of those form a local basis that cuts the space into
    sectors.  The sector of a's factor holds a product basis through a, that
    of b's factor one through b, and every other sector a standard basis; a
    and b, the first vectors of their sectors, are left out.
    """
    space, dims = phi.space, phi.space.dims
    a, b = dec.a.normalized(), dec.b.normalized()
    p = dec.split[0]
    local = np.column_stack([a.factors[p], b.factors[p]])
    local = np.column_stack([local, _pivoted_completion(local, dims[p])])
    basis = [PureState.normalized(space, dec.complement())]
    for j in range(dims[p]):
        anchors = a.factors if j == 0 else b.factors if j == 1 else None
        cols = [
            local[:, j : j + 1] if q == p
            else np.eye(d, dtype=complex) if anchors is None
            else local_basis_containing(anchors[q])
            for q, d in enumerate(dims)
        ]
        sector = [
            PureState.normalized(space, kron_all([c[:, i] for c, i in zip(cols, idx)]))
            for idx in itertools.product(*(range(c.shape[1]) for c in cols))
        ]
        basis.extend(sector[1:] if anchors is not None else sector)
    return basis
