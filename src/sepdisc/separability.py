"""Separability tests and the convex feasibility solver.

The lambda rule (:func:`separable_lambdas`, the one lambda at which
|psi><psi| + lambda |phi><phi| is separable), read by the D-1 decider and by
the rank-2 lemma alike; the trace lemma, anti-parallel eigenvalue test and
PPT oracle; the one rule that certifies a POVM element separable
(:func:`element_separability`, with the product decomposition it falls back
on); and a cyclic-Dykstra solver for the PSD+PPT relaxation of the POVM
feasibility problem, which ends at a feasible point or at a checked dual
certificate that the relaxation is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DimensionMismatch, NotPsd, PhiProduct, PreconditionViolated
from .linalg import check_hermitian, dag, hermitian_eig, min_eigenvalues, partial_transpose, psd_project
from .states import DiscriminationInstance, PureState, StateSpace, coeff_matrix
from .tensor_rank import ProductVector, SpanRoots, span_roots, try_factor


class SepStatus(Enum):
    SEPARABLE = "separable"
    ENTANGLED = "entangled"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class ProductDecomposition:
    """Convex decomposition sum_i w_i |p_i><p_i| into product projectors."""

    weights: tuple[float, ...]
    vectors: tuple[ProductVector, ...]

    def residual(self, target: np.ndarray) -> float:
        """||sum_i w_i |p_i><p_i| - target|| / ||target||, Frobenius: the
        one-element case of :func:`reassembly_residuals`."""
        return float(reassembly_residuals([self], np.asarray(target)[None])[0])


# largest reassembly residual of a product decomposition that proves its element
REASSEMBLY_BOUND = 1e-8


def reassembly_residuals(decompositions, targets: np.ndarray) -> np.ndarray:
    """||sum_i w_i |p_i><p_i| - E|| / ||E||, Frobenius, of each decomposition
    against its element E of the (n, D, D) stack ``targets``: every product
    vector of them all is assembled, party by party, into one (m, D) stack of
    unit vectors, and one matrix product sums them into the n elements (to
    zero where there are none)."""
    vectors = [pv for dec in decompositions for pv in dec.vectors]
    weights, m = np.zeros((len(decompositions), len(vectors))), len(vectors)
    owner = [k for k, dec in enumerate(decompositions) for _ in dec.vectors]
    weights[owner, range(m)] = [w for dec in decompositions for w in dec.weights]
    units = np.ones((m, 1))
    for factors in zip(*(pv.factors for pv in vectors)):
        units = (units[:, :, None] * np.array(factors)[:, None, :]).reshape(m, -1)
    units = units / np.linalg.norm(units, axis=1, keepdims=True)
    sums = (weights[:, None, :] * units.T) @ units.conj()
    return np.linalg.norm(sums - targets, axis=(1, 2)) / np.maximum(np.linalg.norm(targets, axis=(1, 2)), 1e-300)


@dataclass(frozen=True)
class PtWitness:
    """Negative partial-transpose eigenvector certifying entanglement."""

    cut: tuple[int, ...]
    eigenvalue: float
    eigenvector: np.ndarray


@dataclass(frozen=True)
class PptRecord:
    """PPT finding: all partial transposes PSD; exact iff the space is 2x2 or 2x3."""

    min_eigenvalue: float
    exact: bool
    cuts: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SeparabilityVerdict:
    status: SepStatus
    evidence: ProductDecomposition | PtWitness | PptRecord | None = None
    detail: dict = field(default_factory=dict)


class Lemma1Status(Enum):
    HOLDS_BOTH_WAYS = "holds_both_ways"
    VIOLATION = "violation"


@dataclass(frozen=True)
class Lemma1Result:
    status: Lemma1Status
    trace_side: bool  # tr(E rho) = 1
    psd_side: bool  # E - P >= 0
    consistent: bool  # the two sides agree, as the equivalence demands
    trace_value: float
    min_eigenvalue: float


def lemma1_check(e: np.ndarray, rho: np.ndarray, tol: Tolerances = DEFAULT) -> Lemma1Result:
    """Evaluate both sides of the equivalence tr(E rho)=1 <=> E - P >= 0,
    for 0 <= E <= I and the support projector P of the density matrix rho,
    onto rho's eigenvectors above tol.rank lambda_max, from the one
    eigendecomposition of rho that the density-matrix check takes."""
    ew = hermitian_eig(e, tol)[0]
    if ew[0] < -tol.psd or ew[-1] > 1.0 + tol.psd:
        raise PreconditionViolated(f"operator must satisfy 0 <= E <= I; spectrum in [{ew[0]:.3e}, {ew[-1]:.3e}]")
    rw, rv = hermitian_eig(rho, tol)
    if rw[0] < -tol.psd or abs(np.trace(rho).real - 1.0) > 1e-8:
        raise PreconditionViolated("rho must be a density matrix")
    v = rv[:, rw > tol.rank * max(float(rw[-1]), 0.0)]
    p = v @ dag(v)
    trace_value = float(np.real(np.trace(e @ rho)))
    trace_side = abs(trace_value - 1.0) <= 1e-9
    min_eig = float(hermitian_eig(e - p, tol)[0][0])
    psd_side = min_eig >= -tol.psd
    status = Lemma1Status.HOLDS_BOTH_WAYS if (trace_side and psd_side) else Lemma1Status.VIOLATION
    return Lemma1Result(
        status=status,
        trace_side=trace_side,
        psd_side=psd_side,
        consistent=trace_side == psd_side,
        trace_value=trace_value,
        min_eigenvalue=min_eig,
    )


class Rank2Case(Enum):
    BOTH_PRODUCT = "i"
    PSI_PRODUCT_LAMBDA_ZERO = "ii"
    TWO_TERM = "iii"
    ENTANGLED = "entangled"


@dataclass(frozen=True)
class Rank2Result:
    verdict: SeparabilityVerdict
    case: Rank2Case


def rank2_separability(psi: PureState, phi: PureState, lam: float, tol: Tolerances = DEFAULT) -> Rank2Result:
    """Exact separability of |psi><psi| + lam |phi><phi| for orthogonal unit
    states, the one-member case of :func:`separable_lambdas`: at every lam
    when both states are product, and otherwise only within 1e-12 + 1e-9
    (lam + lambda*) of psi's lambda* (0 for a product psi), when the kernel's
    decomposition at lambda* reassembles the target within REASSEMBLY_BOUND."""
    if psi.space != phi.space:
        raise DimensionMismatch("states live on different spaces")
    if not 0.0 <= lam < np.inf:
        raise PreconditionViolated("lam must be finite and nonnegative")
    if abs(psi.inner(phi)) > 1e-9:
        raise PreconditionViolated("states must be orthogonal")
    target = psi.density() + lam * phi.density()

    def separable(dec: ProductDecomposition, case: Rank2Case) -> Rank2Result:
        return Rank2Result(SeparabilityVerdict(SepStatus.SEPARABLE, dec, {"residual": dec.residual(target)}), case)

    if psi.product is not None and phi.product is not None:
        n = 2 if lam > 0 else 1
        return separable(ProductDecomposition((1.0, float(lam))[:n], (psi.product, phi.product)[:n]), Rank2Case.BOTH_PRODUCT)
    (star,), decomposition = separable_lambdas(phi, [psi], tol)
    if star is not None and abs(lam - star) <= 1e-12 + 1e-9 * (lam + star):
        case = Rank2Case.TWO_TERM if psi.product is None else Rank2Case.PSI_PRODUCT_LAMBDA_ZERO
        result = separable(decomposition(0), case)
        if result.verdict.detail["residual"] <= REASSEMBLY_BOUND:
            return result
    detail = {"reason": "no separable decomposition at this lambda", "lambda_star": star}
    return Rank2Result(SeparabilityVerdict(SepStatus.ENTANGLED, detail=detail), Rank2Case.ENTANGLED)


def two_term_decomposition(span: SpanRoots, i: int, lam: float) -> ProductDecomposition:
    """|psi_i><psi_i| + lam |phi><phi| on the unit vectors of its product
    vectors v_j = s_j psi_i + t_j phi, at the lam where the cross terms
    cancel: weights ||v_1||^2 (|t2|^2 + lam |s2|^2) / |s1 t2 - s2 t1|^2 and
    the same with 1 and 2 swapped, that is ((|z2|^2 + lam) ||a||^2,
    (|z1|^2 + lam) ||b||^2) / |z1 - z2|^2 for a, b = psi + z1 phi, psi + z2 phi."""
    (s1, t1), (s2, t2) = span.roots[i]
    gap = abs(s1 * t2 - s2 * t1) ** 2
    weights = (abs(t2) ** 2 + lam * abs(s2) ** 2, abs(t1) ** 2 + lam * abs(s1) ** 2)
    weights = tuple(float(np.vdot(v, v).real * w / gap) for v, w in zip(span.vectors[i], weights))
    return ProductDecomposition(weights, (span.product_vector(i, 0), span.product_vector(i, 1)))


def separable_lambdas(phi: PureState, members, tol: Tolerances = DEFAULT):
    """For phi and members orthogonal to it, not all product: per member, the one
    lambda >= 0 at which E = |psi><psi| + lambda |phi><phi| is separable, or
    None; and a function that builds member k's E's product decomposition.

    A product member has lambda = 0.  The span of an entangled member holds
    at most two product directions psi + z phi, z = t/s for the roots (s : t)
    that :func:`~sepdisc.tensor_rank.span_roots` finds for all members at
    once, and E is separable at lambda* = -conj(z1) z2 alone, where the cross
    terms cancel; it counts when real and positive, within ``tol.angular`` in
    phase (which puts z1 and z2 on opposite rays, so they are distinct).
    """
    lambdas: list = [0.0 if psi.product is not None else None for psi in members]
    entangled = [k for k, lam in enumerate(lambdas) if lam is None]
    if entangled:
        span = span_roots(np.stack([members[k].amplitudes for k in entangled]), phi.amplitudes, phi.space.dims)
        (s1, t1), (s2, t2) = span.roots.transpose(1, 2, 0)
        # lambda* |s1 s2|^2: real and positive exactly when lambda* is, and
        # zero, not 0/0, when a root is phi itself
        scaled = -(np.conj(t1) * s1) * (t2 * np.conj(s2))
        good = span.product.all(axis=1) & (scaled.real > 0.0) & (np.abs(np.angle(scaled)) < tol.angular)
        for i in np.flatnonzero(good):
            lambdas[entangled[i]] = float(scaled[i].real / abs(s1[i] * s2[i]) ** 2)

    def decomposition(k: int) -> ProductDecomposition:
        if members[k].product is not None:
            return ProductDecomposition((1.0,), (members[k].product,))
        return two_term_decomposition(span, entangled.index(k), lambdas[k])

    return lambdas, decomposition


def _worst_cut(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of the (n, C, d, d) Hermitian stack m, from one eigh call: the
    first cut with the least lowest eigenvalue, and that cut's eigenvalues
    (n, d) and eigenvector columns (n, d, d)."""
    w, v = np.linalg.eigh(m)
    rows, cut = np.arange(len(m)), w[..., 0].argmin(axis=1)
    return cut, w[rows, cut], v[rows, cut]


@dataclass(frozen=True)
class AntiparallelResult:
    passed: bool
    lambda_star: float
    eigenvalues: tuple[complex, complex]
    angle_defect: float
    reason: str = ""


def antiparallel_test(psi: PureState, phi: PureState, tol: Tolerances = DEFAULT) -> AntiparallelResult:
    """Anti-parallel eigenvalue test for the 2x2 coefficient matrices.

    Pass iff the eigenvalues of M_psi M_phi^{-1} are negative real multiples
    of each other; returns lambda* = C(psi)/C(phi) alongside.
    """
    m_phi = coeff_matrix(phi)
    c_phi = abs(np.linalg.det(m_phi))
    if c_phi <= 1e-12:
        raise PhiProduct("reference state has a singular coefficient matrix")
    m_psi = coeff_matrix(psi)
    c_psi = abs(np.linalg.det(m_psi))
    lam_star = float(c_psi / c_phi)
    if c_psi <= 1e-12:
        return AntiparallelResult(False, lam_star, (0j, 0j), np.inf, "psi is a product state")
    t = m_psi @ np.linalg.inv(m_phi)
    tr = t[0, 0] + t[1, 1]
    det = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
    disc = np.sqrt(complex(tr * tr - 4.0 * det))
    mu1, mu2 = (tr + disc) / 2.0, (tr - disc) / 2.0
    ratio = -mu1 / mu2
    defect = abs(np.angle(ratio))
    if defect < tol.angular:
        return AntiparallelResult(True, lam_star, (complex(mu1), complex(mu2)), float(defect))
    return AntiparallelResult(
        False, lam_star, (complex(mu1), complex(mu2)), float(defect), "eigenvalue ratio not negative real"
    )


_EXACT_PPT_DIMS = {(2, 2), (2, 3), (3, 2)}
# lowest eigenvalue a certificate may show, for its elements and for the
# partial transposes behind its PPT records
_EIGENVALUE_FLOOR = -1e-9


def ppt_is_exact(space: StateSpace) -> bool:
    """PPT is equivalent to separability on 2x2 and 2x3 spaces only."""
    return space.nparties == 2 and space.dims in _EXACT_PPT_DIMS


def ppt_oracle(rho: np.ndarray, space: StateSpace, tol: Tolerances = DEFAULT) -> SeparabilityVerdict:
    """PPT criterion over every cut: entanglement verdicts are always sound;
    separability is claimed only on 2x2 and 2x3 spaces where PPT is exact."""
    w = hermitian_eig(rho, tol)[0]
    scale = max(1.0, float(w[-1]))
    if w[0] < -tol.psd * scale:
        raise NotPsd(f"input has negative eigenvalue {w[0]:.3e}")
    tr = float(np.real(np.trace(rho)))
    if tr <= 0:
        raise NotPsd("input has nonpositive trace")
    pts = np.asarray(np.stack([partial_transpose(rho, space.dims, cut) for cut in space.cuts]) / tr, dtype=complex)
    check_hermitian(pts, tol)
    (c,), (w,), (v,) = _worst_cut(((pts + dag(pts)) / 2.0)[None])
    min_eig = float(w[0])
    if min_eig < _EIGENVALUE_FLOOR:
        return SeparabilityVerdict(SepStatus.ENTANGLED, PtWitness(space.cuts[c], min_eig, v[:, 0]), {"min_pt_eigenvalue": min_eig})

    record = PptRecord(min_eigenvalue=min_eig, exact=ppt_is_exact(space), cuts=space.cuts)
    if record.exact:
        return SeparabilityVerdict(SepStatus.SEPARABLE, record, {})
    return SeparabilityVerdict(SepStatus.UNDECIDED, record, {"reason": "PPT necessary only"})


# an element's rank counts its eigenvalues above _RANK_CUT max(1, lambda_max);
# the product search merges eigenvalues within _MERGE_WIDTH max(1, lambda_max)
# into one eigenspace and skips columns shorter than _COLUMN_FLOOR
_RANK_CUT = 1e-9
_MERGE_WIDTH = 1e-8
_COLUMN_FLOOR = 1e-9


def try_product_decomposition(op: np.ndarray, vals: np.ndarray, vecs: np.ndarray, space: StateSpace) -> ProductDecomposition | None:
    """Product decomposition of a PSD operator diagonal in some orthogonal
    product basis, from its spectrum ``vals, vecs`` as hermitian_eig gives it,
    eigenspace by eigenspace: each greedy step makes one try_factor call over
    the standard basis projected into what is left of the eigenspace, longest
    column first, and takes the first that factors (on the last vector every
    column is the same direction, so the first); None when a step finds none."""
    scale = max(1.0, float(vals[-1]))
    weights, vectors = [], []
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and abs(vals[j + 1] - vals[i]) <= _MERGE_WIDTH * scale:
            j += 1
        lam = float(np.mean(vals[i : j + 1]))
        if lam > _RANK_CUT * scale:
            block = vecs[:, i : j + 1]
            resid = block @ block.conj().T
            for left in range(j - i, -1, -1):
                norms = np.linalg.norm(resid, axis=0)
                order = np.argsort(-norms)
                live = order[norms[order] >= _COLUMN_FLOOR][: None if left else 1]
                cands = resid.T[live] / norms[live, None]
                found = next((pv for pv in try_factor(cands, space.dims) if pv is not None), None)
                if found is None:
                    return None
                vec = found.unit()
                weights.append(lam)
                vectors.append(found)
                resid = resid - np.outer(vec, vec.conj() @ resid)
        i = j + 1
    dec = ProductDecomposition(tuple(weights), tuple(vectors))
    return None if dec.residual(op) > REASSEMBLY_BOUND else dec


def _factored(pv: ProductVector | None, weight: float) -> SeparabilityVerdict:
    """weight |v><v| is separable iff v has a factorization pv."""
    if pv is None:
        return SeparabilityVerdict(SepStatus.ENTANGLED, detail={"reason": "entangled pure element"})
    return SeparabilityVerdict(SepStatus.SEPARABLE, ProductDecomposition((weight,), (pv,)))


def _ppt_or_undecided(rho: np.ndarray, space: StateSpace, tol: Tolerances) -> SeparabilityVerdict:
    try:
        return ppt_oracle(rho, space, tol)
    except NotPsd as exc:
        return SeparabilityVerdict(SepStatus.UNDECIDED, detail={"reason": str(exc)})


def element_separability(
    member: PureState | np.ndarray, space: StateSpace, tol: Tolerances = DEFAULT
) -> SeparabilityVerdict:
    """Separability of one POVM element, with the evidence a certificate
    carries for it; a pure state stands for its projector.

    In order: an element with an eigenvalue below the floor is undecided,
    since no certificate may carry it; a pure state or a rank-1 element is
    settled by factoring it (weight: its eigenvalue); on 2x2 and 2x3 a PPT
    element is separable; a rank-2 element is settled by the exact rank-2
    lemma on its eigenvectors; then an eigenspace-wise product
    decomposition; otherwise the PPT oracle's verdict.  Rank counts the
    eigenvalues above _RANK_CUT max(1, lambda_max).
    """
    if isinstance(member, PureState):
        return _factored(member.product, 1.0)
    vals, vecs = hermitian_eig(member, tol)
    if vals[0] < _EIGENVALUE_FLOOR:
        return SeparabilityVerdict(SepStatus.UNDECIDED, detail={"min_eigenvalue": float(vals[0])})
    rank = int(np.sum(vals > _RANK_CUT * max(1.0, float(vals[-1]))))
    if rank == 1:
        return _factored(try_factor(vecs[None, :, -1], space.dims)[0], float(vals[-1]))
    ppt = None
    if ppt_is_exact(space):
        ppt = _ppt_or_undecided(member, space, tol)
        if ppt.status is SepStatus.SEPARABLE:
            return ppt
    if rank == 2:
        # E = mu_1 (|v_1><v_1| + (mu_2 / mu_1) |v_2><v_2|), mu_1 <= mu_2
        mu = float(vals[-2])
        psi, phi = (PureState.normalized(space, vecs[:, i]) for i in (-2, -1))
        r2 = rank2_separability(psi, phi, float(vals[-1]) / mu, tol).verdict
        if r2.status is not SepStatus.SEPARABLE:
            return r2
        dec = ProductDecomposition(tuple(mu * w for w in r2.evidence.weights), r2.evidence.vectors)
        return SeparabilityVerdict(SepStatus.SEPARABLE, dec, r2.detail)
    dec = try_product_decomposition(member, vals, vecs, space)
    if dec is not None:
        return SeparabilityVerdict(SepStatus.SEPARABLE, dec)
    return ppt if ppt is not None else _ppt_or_undecided(member, space, tol)


@dataclass(frozen=True)
class DualCertificate:
    """Farkas certificate that the PSD+PPT relaxation is infeasible.

    A Hermitian ``y`` and PSD ``z[k, c]`` (member k, cut ``cuts[c]``) with
    Pi(Y - sum_c PT_c Z[k, c])Pi >= 0 for every k, Pi the instance's support
    of P0 = I - sum_k P_k, and objective tr(Y P0) + sum_{k,c} tr(Z[k, c]
    PT_c(P_k)) < 0.  Any feasible point E would give the objective
    sum_k tr(Pi(Y - sum_c PT_c Z[k, c])Pi E_k) + sum_{k,c} tr(Z[k, c]
    PT_c(P_k + E_k)) >= 0, so none exists; separable POVM elements are PPT,
    so no separable POVM distinguishes the states.  ``objective`` and
    ``scale`` = ||Y||_F + sum ||Z[k, c]||_F are what :func:`check_dual`
    measured; a checker recomputes them.
    """

    y: np.ndarray
    z: np.ndarray
    cuts: tuple[tuple[int, ...], ...]
    objective: float
    scale: float


def check_dual(y, z, cuts, instance: DiscriminationInstance, tol: Tolerances = DEFAULT) -> tuple[DualCertificate, bool]:
    """Re-derive a dual certificate from raw matrices and test it against
    the instance's P0 and Pi, built once per instance.

    Every Z is replaced by its PSD part, and the most negative eigenvalue of
    Pi(Y - sum_c PT_c Z[k, c])Pi over k is absorbed into Y as a multiple of
    Pi.  Valid iff the objective of the result is below -tol.feasibility
    times its scale, which an empty cut list never is.
    """
    p, p0, supp = instance.projectors, instance.residual_projector, instance.residual_support
    n, d, dims = instance.n, instance.space.dim, instance.space.dims
    try:
        y = np.asarray(y, dtype=complex)
        z = np.asarray(z, dtype=complex)
        cuts = tuple(tuple(int(i) for i in c) for c in cuts)
    except (TypeError, ValueError):  # a field of the wrong type
        return DualCertificate(y, z, cuts, np.inf, 0.0), False
    if (
        y.shape != (d, d)
        or z.shape != (n, len(cuts), d, d)
        or not set(cuts) <= set(instance.space.cuts)
        or not (np.isfinite(y).all() and np.isfinite(z).all())
    ):
        return DualCertificate(y, z, cuts, np.inf, 0.0), False
    y = (y + dag(y)) / 2.0
    z = psd_project(z)
    pt_z = sum((partial_transpose(z[:, c], dims, cut) for c, cut in enumerate(cuts)), np.zeros_like(p))
    gap = float(min_eigenvalues(supp @ (y - pt_z) @ supp).min())
    y = y + max(0.0, -gap) * supp
    # tr(Z[k, c] PT_c(P_k)) = tr(PT_c(Z[k, c]) P_k)
    objective = float(np.real(np.trace(y @ p0) + np.einsum("kij,kji->", pt_z, p)))
    scale = float(np.linalg.norm(y)) + float(np.linalg.norm(z, axis=(-2, -1)).sum())
    return DualCertificate(y, z, cuts, objective, scale), objective < -tol.feasibility * scale


@dataclass(frozen=True)
class FeasibilityOutcome:
    """A feasible point, a checked dual proving infeasibility, or neither."""

    feasible: bool
    e_ops: np.ndarray | None
    residual: float
    best_residual: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)
    dual: DualCertificate | None = None

    @property
    def stalled(self) -> bool:
        return not self.feasible and self.dual is None


def constraint_residual(e: np.ndarray, instance: DiscriminationInstance) -> tuple[float, dict]:
    """Largest constraint violation of a point E of the instance's
    relaxation (affine sum, PSD blocks, PPT of P_k + E_k per cut), and
    those three parts."""
    parts = {"affine": float(np.linalg.norm(e.sum(axis=0) - instance.residual_projector))}
    parts["psd"] = float(max(0.0, -min_eigenvalues(e).min()))
    pe, dims = instance.projectors + e, instance.space.dims
    worst = min(min_eigenvalues(partial_transpose(pe, dims, cut)).min() for cut in instance.space.cuts)
    parts["ppt"] = float(max(0.0, -worst))
    return max(parts.values()), parts


# Dykstra path: iterations between residual checks (the first check is at
# iteration 1, then every _CHECK_EVERY), and the iteration cap unless the
# caller sets one
_CHECK_EVERY = 5
_MAX_ITERATIONS = 20000
# rank-1 path: the bracket and final width of the peak search, and the
# window every sublevel interval is clipped to
_PEAK_BRACKET = (-0.05, 1.05)
_PEAK_WIDTH = 1e-13
# a block's v_min bound from above this far below another's bound from below cannot be the worst
_PRUNE_MARGIN = 1e-12
_WINDOW = 1.5
# a block whose least violation lies within this of the level touches it at
# its peak only; one within this of 0 takes its interval at _GRAZING_LEVEL,
# a tenth of the eigenvalue floor a certificate may show
_GRAZING = 1e-12
_GRAZING_LEVEL = 1e-10
# an eigenvalue gap up to this is a degeneracy, which adds no curvature
_DEGENERATE_GAP = 1e-9


class _PencilBlock:
    """One block in the rank-1 parametrization E_k = lam * P0.

    The block constraints read lam >= 0 and A_c + lam B_c >= 0 per cut c,
    with A_c = PT_c(P_k) a (C, d, d) stack and B_c = PT_c(P0) shared by all
    blocks.  The violation v(lam) = max(-lam, max_c -lambda_min(A_c + lam
    B_c)) is convex in lam, so its sublevel sets are intervals.
    """

    def __init__(self, pk: np.ndarray, dims, cuts):
        self.a = np.stack([partial_transpose(pk, dims, cut) for cut in cuts])


def _slopes(a: np.ndarray, b: np.ndarray, lams: np.ndarray) -> list[tuple[float, float, float, int]]:
    """(v, v', v'', piece) of every block of the (n, C, d, d) stack a at
    lams[k], with the shared (C, d, d) stack b, from one eigh call.  On the
    -lam piece (piece -1) the slope is -1 and the curvature 0.  On the worst
    cut c, with A_c + lam B_c = sum_j w_j x_j x_j^H, v = -w_0, v' = -x_0^H
    B_c x_0 and v'' = 2 sum_{j>0} |x_j^H B_c x_0|^2 / (w_j - w_0) (Lewis &
    Overton, Acta Numerica 5 (1996) 149-190)."""
    cut, w, v = _worst_cut(a + lams[:, None, None, None] * b)
    coupling = (dag(v) @ (b[cut] @ v[:, :, :1]))[..., 0]  # x_j^H B_c x_0
    gap = w[:, 1:] - w[:, :1]
    terms = np.divide(np.abs(coupling[:, 1:]) ** 2, gap, out=np.zeros_like(gap), where=gap > _DEGENERATE_GAP)
    on_lam = lams <= w[:, 0]
    f = np.maximum(-lams, -w[:, 0])
    g = np.where(on_lam, -1.0, -coupling[:, 0].real)
    h = np.where(on_lam, 0.0, 2.0 * terms.sum(axis=1))
    return list(zip(f.tolist(), g.tolist(), h.tolist(), np.where(on_lam, -1, cut).tolist()))


def _meet(br: list) -> tuple[float, float]:
    """(lam, v) where the end tangents of one bracket of :func:`_peaks` meet."""
    lo, hi, (f0, g0, _, _), (f1, g1, _, _) = br[:4]
    lam = (f1 - f0 + g0 * lo - g1 * hi) / (g0 - g1)
    return lam, f0 + g0 * (lam - lo)


def _next_lam(br: list) -> float:
    """The next point of one open bracket of :func:`_peaks`, which records in
    ``br`` whether it probes."""
    lo, hi, (f0, g0, h0, p0), (f1, g1, h1, p1), width2, _, probed = br
    half = _PEAK_WIDTH / 2.0
    near_lo = abs(g0) <= abs(g1)
    end, slope, curv = (lo, g0, h0) if near_lo else (hi, g1, h1)
    step = -slope / curv if curv > 0.0 else np.inf
    br[6] = abs(step) <= half and not probed
    if br[6]:
        return lo + half if near_lo else hi - half
    if hi - lo > width2 / 2.0:
        lam = (lo + hi) / 2.0
    elif p0 == p1 and g1 - g0 <= 2.0 * max(h0, h1) * (hi - lo) and lo < end + step < hi:
        lam = end + step
    else:  # g0 < 0 < g1 on an open bracket
        lam = _meet(br)[0]
    return min(max(lam, lo + half), hi - half)


def _peaks(a: np.ndarray, b: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """(lam_peak, v_min) of every block by a safeguarded Newton search on the
    convex v_k, one eigh call (:func:`_slopes`) per step over the open brackets.

    A bracket keeps v' < 0 at its lower end and v' > 0 at its upper end.  The
    end with the smaller |v'| proposes a Newton step; a step of at most
    _PEAK_WIDTH/2 probes just inside that end instead, which closes the
    bracket (never twice in a row).  A bracket that two steps failed to halve
    is bisected.  Ends on one piece whose curvature accounts for their change
    of slope take the Newton step; ends on different pieces (two cuts cross,
    -lam meets a cut, or the lowest eigenvalue is degenerate) take the point
    where their tangents meet.  Points stay _PEAK_WIDTH/2 inside the bracket,
    which closes at width _PEAK_WIDTH or less; the peak is its end with the
    smaller v, so a monotone v peaks at the end of _PEAK_BRACKET it falls to.

    Branch and bound: a bracket's smaller end value U bounds v_min above, and
    the value L where its end tangents meet bounds it below (L = U once
    closed).  Once the largest L exceeds ``threshold``, a block whose U lies
    over _PRUNE_MARGIN below it cannot be the worst and stops, reporting U;
    the worst block takes the full search's steps.  inf refines every block.
    """
    n = len(a)
    ends = _slopes(np.concatenate([a, a]), b, np.repeat(_PEAK_BRACKET, n))
    # per block: lo, hi, (v, v', v'', piece) at each, the widths two steps and
    # one step back, whether the last step probed; open while v'(lo) < 0 < v'(hi)
    brackets = [[*_PEAK_BRACKET, at_lo, at_hi, np.inf, np.inf, False] for at_lo, at_hi in zip(ends[:n], ends[n:])]
    while True:
        is_open = [br[1] - br[0] > _PEAK_WIDTH and br[2][1] < 0.0 < br[3][1] for br in brackets]
        upper = [min(br[2][0], br[3][0]) for br in brackets]
        lower = max(_meet(br)[1] if op else u for br, op, u in zip(brackets, is_open, upper))
        keep = lower - _PRUNE_MARGIN if lower > threshold else -np.inf
        if not (k := [j for j, op in enumerate(is_open) if op and upper[j] >= keep]):
            break
        lams = [_next_lam(brackets[j]) for j in k]
        for j, lam, at in zip(k, lams, _slopes(a[k], b, np.array(lams))):
            br = brackets[j]
            br[4], br[5] = br[5], br[1] - br[0]
            if at[1] <= 0.0:
                br[0], br[2] = lam, at
            if at[1] >= 0.0:
                br[1], br[3] = lam, at
    peaks = [br[1] if br[3][0] < br[2][0] else br[0] for br in brackets]
    return np.array(peaks), np.array(upper)


def _intervals(a, b, peaks, vmins, level) -> tuple[np.ndarray, np.ndarray]:
    """Sublevel intervals {lam : v_k(lam) <= level_k} of every block, clipped
    to the window; ``level`` is one level for every block or one per block.

    The peak is an interior point: M = A_c + level I + lam_p B_c = L L^H is
    positive definite, and M + mu B_c >= 0 iff 1 + mu nu >= 0 for every
    eigenvalue nu of L^-1 B_c L^-H.  The endpoints lam_p - 1/nu_max and
    lam_p - 1/nu_min are the generalized eigenvalues of (A_c + level I, -B_c)
    that enclose the peak.  A block whose minimum lies within _GRAZING of
    the level (or above it) grazes it at its peak alone.
    """
    eye = np.eye(a.shape[-1])
    level = np.broadcast_to(level, peaks.shape)
    inside = level - vmins > _GRAZING
    m = a + level[:, None, None, None] * eye + peaks[:, None, None, None] * b
    m[~inside] = eye
    linv = np.linalg.inv(np.linalg.cholesky(m))
    nu = np.linalg.eigvalsh(linv @ b @ dag(linv))
    tiny = np.finfo(float).tiny
    lo = peaks - 1.0 / np.maximum(nu[..., -1].max(axis=1), tiny)
    hi = peaks - 1.0 / np.minimum(nu[..., 0].min(axis=1), -tiny)
    lo = np.maximum(lo, np.maximum(-level, -_WINDOW))
    hi = np.minimum(hi, 1.0 + _WINDOW)
    return np.where(inside, lo, peaks), np.where(inside, hi, peaks)


def _cut_duals(a: np.ndarray, b: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Z[k, c] = x x^H / |tr(x x^H B_c)| on the worst cut c of every block at
    lams[k], x the lowest eigenvector of A_c + lams[k] B_c, and zero on the
    other cuts: the affine bound tr(Z (A_c + lam B_c)) >= 0, with slope +-1
    in lam, that excludes lams[k] when that eigenvalue is negative."""
    worst, _, v = _worst_cut(a + lams[:, None, None, None] * b)
    x = v[:, :, 0]
    slope = np.einsum("ki,kij,kj->k", x.conj(), b[worst], x).real
    z = np.zeros(a.shape, dtype=complex)
    z[np.arange(len(lams)), worst] = x[:, :, None] * x[:, None, :].conj() / np.abs(slope)[:, None, None]
    return z


def _solve_rank1(instance: DiscriminationInstance, tol: Tolerances) -> FeasibilityOutcome:
    """Exact decision when the instance's rule gives P0 rank 1.

    PSD blocks summing to a rank-1 P0 are forced to E_k = lam_k P0, which
    sum to P0 exactly, so the problem collapses to intervals of lam around
    each block's peak (:func:`_peaks`, about ten eigh calls) intersected
    with the simplex.  A dual's Z bounds each binding block just outside its
    binding end (:func:`_cut_duals`, at _PEAK_WIDTH).  A block whose least
    violation exceeds tol.feasibility, the only one the search then refines,
    is infeasible alone: Z bounds both sides of its peak, the slopes cancel
    and Y = 0.  Otherwise the water-filled point is measured by
    :func:`constraint_residual`, as Dykstra's points are; floors summing
    above 1 take Y = +Pi, and ceilings summing below 1 take Y = -Pi.
    :func:`check_dual` decides whether the dual proves infeasibility; when
    it does not, the outcome stalls.  Every ending returns at one exit.
    """
    p0, n, dims, cuts = instance.residual_projector, instance.n, instance.space.dims, instance.space.cuts
    a = np.stack([_PencilBlock(pk, dims, cuts).a for pk in instance.projectors])
    b = np.stack([partial_transpose(p0, dims, cut) for cut in cuts])
    peaks, vmins = _peaks(a, b, tol.feasibility)
    diagnostics: dict = {"path": "rank1-exact"}
    e, y, z = None, 0.0, np.zeros_like(a)
    k = int(vmins.argmax())
    if vmins[k] > tol.feasibility:
        res = float(vmins[k])
        z[k] = _cut_duals(a[[k, k]], b, peaks[k] + np.array([-_PEAK_WIDTH, _PEAK_WIDTH])).sum(axis=0)
    else:
        # a block that grazes v = 0, at its peak or along a plateau, is
        # measured at _GRAZING_LEVEL, which leaves its elements above the
        # eigenvalue floor; a block missing v = 0 contributes its peak alone
        lows, highs = _intervals(a, b, peaks, vmins, np.where(np.abs(vmins) <= _GRAZING, _GRAZING_LEVEL, 0.0))
        # water-fill from the interval floors toward the target sum, then
        # clamp; tiny overshoots sit at quadratic minima and stay harmless
        lam, room = lows.copy(), highs - lows
        if (need := 1.0 - lam.sum()) > 0 and room.sum() > 0:
            lam = lam + room * min(1.0, need / room.sum())
        lam = lam - (lam.sum() - 1.0) / n
        point = lam[:, None, None] * p0
        res, parts = constraint_residual(point, instance)
        if res <= tol.feasibility:
            e = point
            diagnostics = {**diagnostics, "lambdas": [float(x) for x in lam], **parts}
        elif lows.sum() > 1.0:
            # a floor of 0 comes from E_k >= 0, which Y already covers
            y, z = 1.0, _cut_duals(a, b, lows - _PEAK_WIDTH) * (lows > 0.0)[:, None, None, None]
        elif highs.sum() < 1.0:
            y, z = -1.0, _cut_duals(a, b, highs + _PEAK_WIDTH)
    dual, valid = check_dual(y * p0, z, cuts, instance, tol) if e is None else (None, False)
    return FeasibilityOutcome(e is not None, e, res, res, 0, diagnostics, dual if valid else None)


def _solve_dykstra(
    instance: DiscriminationInstance, tol: Tolerances = DEFAULT, max_iterations: int = _MAX_ITERATIONS
) -> FeasibilityOutcome:
    """Cyclic Dykstra projections onto the affine sum constraint, the PSD
    cones, and the per-cut PPT cones, for at most ``max_iterations``
    iterations.  Works for any P0; :func:`feasibility_solve` calls it for
    every P0 whose rank is not 1.

    Since every E_k is squeezed between 0 and P0, the iterate is also
    projected onto the instance's Pi, P0's support (0 at rank 0): an
    implied linear constraint that sharpens convergence.  On an infeasible
    problem the corrections grow along a dual certificate: Z[k, c] =
    -PT_c(r_ppt[c][k]), and Y the Pi-compression of the mean over k of
    -r_psd[k] - sum_c r_ppt[c][k] (which is W_k + sum_c PT_c Z[k, c],
    W_k = -r_psd[k]).  The residual is
    checked at iteration 1, every ``_CHECK_EVERY`` iterations and at the
    cap; the dual is tried after the feasibility test at iteration 1,
    iterations 5, 10, 20, 40, ... and the cap, so long runs pay O(log
    iterations) attempts.  Every run leaves the loop at one exit and returns
    its last iterate and last check: a feasible point, a dual that
    :func:`check_dual` validates, or, at the cap, neither, reported with
    ``iteration_cap`` in the diagnostics as a result, not an error.
    ``max_iterations`` is at least 1, as :func:`feasibility_solve` checks.
    """
    dims, cuts, d, n = instance.space.dims, instance.space.cuts, instance.space.dim, instance.n
    p, p0, supp = instance.projectors, instance.residual_projector, instance.residual_support

    e = np.broadcast_to(p0 / n, (n, d, d)).copy()
    r_psd = np.zeros_like(e)
    r_ppt = {cut: np.zeros_like(e) for cut in cuts}

    best, dual = np.inf, None
    for it in range(1, max_iterations + 1):
        # PSD cones
        y = e + r_psd
        yp = psd_project(y)
        r_psd = y - yp
        e = yp
        # PPT cones
        for cut in cuts:
            y = e + r_ppt[cut]
            z = partial_transpose(p + y, dims, cut)
            zp = psd_project(z)
            yp = partial_transpose(zp, dims, cut) - p
            r_ppt[cut] = y - yp
            e = yp
        # implied support constraint (linear subspace, no correction term)
        e = supp @ e @ supp
        # affine sum constraint (affine subspace, no correction term)
        shift = (e.sum(axis=0) - p0) / n
        e = e - shift
        e = (e + dag(e)) / 2.0

        if it == 1 or it % _CHECK_EVERY == 0 or it == max_iterations:
            res, parts = constraint_residual(e, instance)
            best = min(best, res)
            if res <= tol.feasibility:
                break
            # iteration 1 gives checks = 0, and 0 & -1 == 0 passes the
            # power-of-two test, so the dual is tried there too
            checks = it // _CHECK_EVERY
            if checks & (checks - 1) == 0 or it == max_iterations:
                y_dual = supp @ (-r_psd - sum(r_ppt.values())).mean(axis=0) @ supp
                z_dual = np.stack([-partial_transpose(r_ppt[cut], dims, cut) for cut in cuts], axis=1)
                dual, valid = check_dual(y_dual, z_dual, cuts, instance, tol)
                if valid:
                    break
                dual = None
    else:
        parts = {**parts, "iteration_cap": max_iterations}
    return FeasibilityOutcome(res <= tol.feasibility, e, res, best, it, parts, dual)


def feasibility_solve(
    instance: DiscriminationInstance, tol: Tolerances = DEFAULT, max_iterations: int | None = None
) -> FeasibilityOutcome:
    """Decide the PSD+PPT relaxation of the instance: operators E_k >= 0
    with sum_k E_k = P0 = I - sum_k P_k and P_k + E_k PPT across every cut.

    P0's rank is the instance's, D less the members' ranks, which no
    eigenvalue threshold or ``tol`` moves.  Rank 1 goes to the exact
    interval reduction (:func:`_solve_rank1`); any other rank to cyclic
    Dykstra projections (:func:`_solve_dykstra`), capped at
    ``max_iterations`` (default 20,000, at least 1).
    """
    if max_iterations is not None and max_iterations < 1:
        raise PreconditionViolated(f"max_iterations must be at least 1, got {max_iterations}")
    if instance.residual_rank == 1:
        return _solve_rank1(instance, tol)
    return _solve_dykstra(instance, tol, _MAX_ITERATIONS if max_iterations is None else max_iterations)
