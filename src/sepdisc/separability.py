"""Separability tests and the convex feasibility solver.

Four analytic oracles (trace lemma, rank-2 case analysis, anti-parallel
eigenvalue test, PPT), the one rule that certifies a POVM element separable
(:func:`element_separability`, with the product decomposition it falls back
on), plus a cyclic-Dykstra solver for the PSD+PPT relaxation of the POVM
feasibility problem, which ends at a feasible point or at a checked dual
certificate that the relaxation is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import NotPsd, PhiProduct, PreconditionViolated
from .linalg import (
    dag,
    frob,
    hermitian_eig,
    maxabs,
    min_eigenvalues,
    partial_transpose,
    psd_project,
)
from .states import DiscriminationInstance, PureState, StateSpace, coeff_matrix
from .tensor_rank import ProductVector, product_vectors_in_span, proper_cuts, span_coordinates, try_factor


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
        """||sum_i w_i |p_i><p_i| - target|| / ||target||, Frobenius; an
        empty decomposition sums to the zero matrix of the target's shape."""
        out = np.zeros(np.shape(target), dtype=complex)
        for w, pv in zip(self.weights, self.vectors):
            v = pv.unit()
            out = out + w * np.outer(v, v.conj())
        return frob(out - target) / max(frob(target), 1e-300)


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


def support_projector(rho: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    eig = hermitian_eig(rho, tol)
    lam_max = float(eig.values[-1])
    keep = eig.values > tol.rank * max(lam_max, 0.0)
    v = eig.vectors[:, keep]
    return v @ dag(v)


def lemma1_check(e: np.ndarray, rho: np.ndarray, tol: Tolerances = DEFAULT) -> Lemma1Result:
    """Evaluate both sides of the equivalence tr(E rho)=1 <=> E - P >= 0,
    for 0 <= E <= I and the support projector P of the density matrix rho."""
    ew = hermitian_eig(e, tol).values
    if ew[0] < -tol.psd or ew[-1] > 1.0 + tol.psd:
        raise PreconditionViolated(
            f"operator must satisfy 0 <= E <= I; spectrum in [{ew[0]:.3e}, {ew[-1]:.3e}]"
        )
    rw = hermitian_eig(rho, tol).values
    if rw[0] < -tol.psd or abs(np.trace(rho).real - 1.0) > 1e-8:
        raise PreconditionViolated("rho must be a density matrix")

    p = support_projector(rho, tol)
    trace_value = float(np.real(np.trace(e @ rho)))
    trace_side = abs(trace_value - 1.0) <= 1e-9
    min_eig = float(hermitian_eig(e - p, tol).values[0])
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


def rank2_separability(
    psi: PureState, phi: PureState, lam: float, tol: Tolerances = DEFAULT
) -> Rank2Result:
    """Exact separability of |psi><psi| + lam |phi><phi| for orthogonal unit
    states.

    Separable only in three situations: both states product; psi product with
    lam = 0; or both entangled with the support spanned by two product
    vectors a, b such that the cross terms |a><b| cancel, which pins lam to a
    single value.
    """
    if lam < 0:
        raise PreconditionViolated("lam must be nonnegative")
    if abs(psi.inner(phi)) > 1e-9:
        raise PreconditionViolated("states must be orthogonal")
    target = psi.density() + lam * phi.density()

    if psi.product is not None and phi.product is not None:
        weights, vectors = [1.0], [psi.product]
        if lam > 0:
            weights.append(float(lam))
            vectors.append(phi.product)
        dec = ProductDecomposition(tuple(weights), tuple(vectors))
        return Rank2Result(
            SeparabilityVerdict(SepStatus.SEPARABLE, dec, {"residual": dec.residual(target)}),
            Rank2Case.BOTH_PRODUCT,
        )

    if psi.product is not None:  # phi entangled
        if lam <= 1e-12:
            dec = ProductDecomposition((1.0,), (psi.product,))
            return Rank2Result(
                SeparabilityVerdict(SepStatus.SEPARABLE, dec, {"residual": dec.residual(target)}),
                Rank2Case.PSI_PRODUCT_LAMBDA_ZERO,
            )
        return Rank2Result(
            SeparabilityVerdict(SepStatus.ENTANGLED, detail={"reason": "mixture of a product state and an entangled state"}),
            Rank2Case.ENTANGLED,
        )

    if phi.product is not None or lam <= 1e-12:
        # psi entangled: pure entangled state at lam=0, or entangled+product mixture
        return Rank2Result(
            SeparabilityVerdict(SepStatus.ENTANGLED, detail={"reason": "psi is entangled"}),
            Rank2Case.ENTANGLED,
        )

    # both entangled: the support must be spanned by exactly two product vectors
    span = product_vectors_in_span(psi, phi, tol)
    if span.infinitely_many or len(span.vectors) < 2:
        return Rank2Result(
            SeparabilityVerdict(SepStatus.ENTANGLED, detail={"reason": f"support contains {len(span.vectors)} product directions"}),
            Rank2Case.ENTANGLED,
        )
    a, b = span.vectors
    coords = span_coordinates(a, b, (psi.amplitudes, phi.amplitudes))
    alpha, beta = coords[0, 0], coords[1, 0]
    gamma, delta = coords[0, 1], coords[1, 1]
    cross = alpha * np.conj(beta) + lam * gamma * np.conj(delta)
    scale = abs(alpha * beta) + lam * abs(gamma * delta)
    if abs(cross) <= 1e-9 * max(scale, 1e-30):
        wa = float(abs(alpha) ** 2 + lam * abs(gamma) ** 2)
        wb = float(abs(beta) ** 2 + lam * abs(delta) ** 2)
        dec = ProductDecomposition((wa, wb), (a, b))
        resid = dec.residual(target)
        if resid <= 1e-8:
            return Rank2Result(
                SeparabilityVerdict(SepStatus.SEPARABLE, dec, {"residual": resid}),
                Rank2Case.TWO_TERM,
            )
    return Rank2Result(
        SeparabilityVerdict(SepStatus.ENTANGLED, detail={"reason": "cross terms do not cancel", "cross": abs(cross)}),
        Rank2Case.ENTANGLED,
    )


def _worst_pt(rho: np.ndarray, space: StateSpace, cuts, tol: Tolerances) -> PtWitness:
    """Lowest partial-transpose eigenpair of rho over the given cuts."""
    worst = None
    for cut in cuts:
        eig = hermitian_eig(partial_transpose(rho, space.dims, cut), tol)
        if worst is None or eig.values[0] < worst.eigenvalue:
            worst = PtWitness(cut=cut, eigenvalue=float(eig.values[0]), eigenvector=eig.vectors[:, 0])
    return worst


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
    w = hermitian_eig(rho, tol).values
    scale = max(1.0, float(w[-1]))
    if w[0] < -tol.psd * scale:
        raise NotPsd(f"input has negative eigenvalue {w[0]:.3e}")
    tr = float(np.real(np.trace(rho)))
    if tr <= 0:
        raise NotPsd("input has nonpositive trace")
    cuts = list(proper_cuts(space.nparties))
    worst = _worst_pt(rho / tr, space, cuts, tol)
    min_eig = worst.eigenvalue
    if min_eig < _EIGENVALUE_FLOOR:
        return SeparabilityVerdict(SepStatus.ENTANGLED, worst, {"min_pt_eigenvalue": min_eig})

    record = PptRecord(min_eigenvalue=min_eig, exact=ppt_is_exact(space), cuts=tuple(cuts))
    if record.exact:
        return SeparabilityVerdict(SepStatus.SEPARABLE, record, {})
    return SeparabilityVerdict(SepStatus.UNDECIDED, record, {"reason": "PPT necessary only"})


def try_product_decomposition(op: np.ndarray, space: StateSpace, tol: Tolerances = DEFAULT) -> ProductDecomposition | None:
    """Product decomposition of a PSD operator that is diagonal in some
    orthogonal product basis, found eigenspace by eigenspace; None when an
    eigenspace admits no orthonormal product basis this way."""
    eig = hermitian_eig(op, tol)
    scale = max(1.0, float(eig.values[-1]))
    weights: list[float] = []
    vectors: list[ProductVector] = []
    i = 0
    vals = eig.values
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and abs(vals[j + 1] - vals[i]) <= 1e-8 * scale:
            j += 1
        lam = float(np.mean(vals[i : j + 1]))
        if lam > 1e-9 * scale:
            block = eig.vectors[:, i : j + 1]
            # project the standard basis into the eigenspace and pick product
            # directions greedily
            proj = block @ block.conj().T
            chosen: list[np.ndarray] = []
            resid = proj.copy()
            for _ in range(j - i + 1):
                norms = np.linalg.norm(resid, axis=0)
                order = np.argsort(-norms)
                found = None
                for idx in order:
                    if norms[idx] < 1e-9:
                        break
                    cand = resid[:, idx] / norms[idx]
                    found = try_factor(cand, space.dims)
                    # with one dimension left every column is the same
                    # direction, so the first candidate settles it
                    if found is not None or len(chosen) == j - i:
                        break
                if found is None:
                    return None
                vec = found.unit()
                chosen.append(vec)
                weights.append(lam)
                vectors.append(found)
                resid = resid - np.outer(vec, vec.conj() @ resid)
        i = j + 1
    dec = ProductDecomposition(tuple(weights), tuple(vectors))
    if dec.residual(op) > 1e-8:
        return None
    return dec


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
    eigenvalues above 1e-9 max(1, lambda_max).
    """
    if isinstance(member, PureState):
        return _factored(member.product, 1.0)
    eig = hermitian_eig(member, tol)
    vals = eig.values
    if vals[0] < _EIGENVALUE_FLOOR:
        return SeparabilityVerdict(SepStatus.UNDECIDED, detail={"min_eigenvalue": float(vals[0])})
    rank = int(np.sum(vals > 1e-9 * max(1.0, float(vals[-1]))))
    if rank == 1:
        return _factored(try_factor(eig.vectors[:, -1], space.dims), float(vals[-1]))
    ppt = None
    if ppt_is_exact(space):
        ppt = _ppt_or_undecided(member, space, tol)
        if ppt.status is SepStatus.SEPARABLE:
            return ppt
    if rank == 2:
        # E = mu_1 (|v_1><v_1| + (mu_2 / mu_1) |v_2><v_2|), mu_1 <= mu_2
        mu = float(vals[-2])
        psi, phi = (PureState.normalized(space, eig.vectors[:, i]) for i in (-2, -1))
        r2 = rank2_separability(psi, phi, float(vals[-1]) / mu, tol).verdict
        if r2.status is not SepStatus.SEPARABLE:
            return r2
        dec = ProductDecomposition(tuple(mu * w for w in r2.evidence.weights), r2.evidence.vectors)
        return SeparabilityVerdict(SepStatus.SEPARABLE, dec, r2.detail)
    dec = try_product_decomposition(member, space, tol)
    if dec is not None:
        return SeparabilityVerdict(SepStatus.SEPARABLE, dec)
    return ppt if ppt is not None else _ppt_or_undecided(member, space, tol)


@dataclass(frozen=True)
class DualCertificate:
    """Farkas certificate that the PSD+PPT relaxation is infeasible.

    A Hermitian ``y`` and PSD ``z[k, c]`` (member k, cut ``cuts[c]``) with
    Pi(Y - sum_c PT_c Z[k, c])Pi >= 0 for every k, Pi the support of
    P0 = I - sum_k P_k, and objective tr(Y P0) + sum_{k,c} tr(Z[k, c]
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


def check_dual(y, z, cuts, projectors, dims, tol: Tolerances = DEFAULT) -> tuple[DualCertificate, bool]:
    """Re-derive a dual certificate from raw matrices and test it.

    Pi is recomputed from P0 = I - sum_k P_k, every Z is replaced by its
    PSD part, and the most negative eigenvalue of Pi(Y - sum_c PT_c Z[k,
    c])Pi over k is absorbed into Y as a multiple of Pi.  Valid iff the
    objective of the result is below -tol.feasibility times its scale.
    """
    p = np.stack([np.asarray(pk, dtype=complex) for pk in projectors])
    n, d = p.shape[0], p.shape[-1]
    y = np.asarray(y, dtype=complex)
    z = np.asarray(z, dtype=complex)
    cuts = tuple(tuple(int(i) for i in c) for c in cuts)
    if (
        y.shape != (d, d)
        or z.shape != (n, len(cuts), d, d)
        or not set(cuts) <= set(proper_cuts(len(dims)))
        or not (np.isfinite(y).all() and np.isfinite(z).all())
    ):
        return DualCertificate(y, z, cuts, np.inf, 0.0), False
    p0 = np.eye(d) - p.sum(axis=0)
    supp = support_projector(p0, tol)
    y = (y + dag(y)) / 2.0
    z = psd_project(z)
    pt_z = sum(partial_transpose(z[:, c], dims, cut) for c, cut in enumerate(cuts))
    gap = float(min_eigenvalues(supp @ (y - pt_z) @ supp).min())
    y = y + max(0.0, -gap) * supp
    # tr(Z[k, c] PT_c(P_k)) = tr(PT_c(Z[k, c]) P_k)
    objective = float(np.real(np.trace(y @ p0) + np.einsum("kij,kji->", pt_z, p)))
    scale = frob(y) + float(np.linalg.norm(z, axis=(-2, -1)).sum())
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


def constraint_residual(e: np.ndarray, p: np.ndarray, p0: np.ndarray, dims, cuts) -> tuple[float, dict]:
    """Largest constraint violation of a point E of the relaxation (affine
    sum, PSD blocks, PPT of P_k + E_k per cut), and those three parts."""
    parts = {"affine": float(np.linalg.norm(e.sum(axis=0) - p0))}
    parts["psd"] = float(max(0.0, -min_eigenvalues(e).min()))
    worst_ppt = 0.0
    for cut in cuts:
        pt = partial_transpose(p + e, dims, cut)
        worst_ppt = max(worst_ppt, float(max(0.0, -min_eigenvalues(pt).min())))
    parts["ppt"] = worst_ppt
    return max(parts.values()), parts


# Dykstra path: iterations between residual checks, and the iteration cap
# unless the caller sets one
_CHECK_EVERY = 5
_MAX_ITERATIONS = 20000
# rank-1 path: the bracket and final width of the peak search, and the
# window every sublevel interval is clipped to
_PEAK_BRACKET = (-0.05, 1.05)
_PEAK_WIDTH = 1e-13
_WINDOW = 1.5
# a block whose least violation lies within this of the level touches it at
# its peak only
_GRAZING = 1e-12
_GOLDEN = (5.0**0.5 - 1.0) / 2.0


class _PencilBlock:
    """One block in the rank-1 parametrization E_k = lam * P0.

    The block constraints read lam >= 0 and A_c + lam B_c >= 0 per cut c,
    with A_c = PT_c(P_k) and B_c = PT_c(P0) held as (C, d, d) stacks.  The
    violation v(lam) = max(-lam, max_c -lambda_min(A_c + lam B_c)) is convex
    in lam, so its sublevel sets are intervals.
    """

    def __init__(self, pk: np.ndarray, p0: np.ndarray, dims, cuts):
        self.a = np.stack([partial_transpose(pk, dims, cut) for cut in cuts])
        self.b = np.stack([partial_transpose(p0, dims, cut) for cut in cuts])


def _violations(a: np.ndarray, b: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """v_k(lams[k]) for every block of the (n, C, d, d) stacks at once."""
    low = np.linalg.eigvalsh(a + lams[:, None, None, None] * b)[..., 0]
    return np.maximum(-lams, -low.min(axis=1))


def _peaks(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam_peak, v_min) of every block: one golden-section search over the
    whole stack, one eigenvalue call per step."""
    lo = np.full(a.shape[0], _PEAK_BRACKET[0])
    hi = np.full(a.shape[0], _PEAK_BRACKET[1])
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = _violations(a, b, x1), _violations(a, b, x2)
    while hi[0] - lo[0] > _PEAK_WIDTH:
        right = f1 > f2  # the minimum lies in [x1, hi]
        lo = np.where(right, x1, lo)
        hi = np.where(right, hi, x2)
        new = np.where(right, lo + _GOLDEN * (hi - lo), hi - _GOLDEN * (hi - lo))
        fn = _violations(a, b, new)
        x1, x2 = np.where(right, x2, new), np.where(right, new, x1)
        f1, f2 = np.where(right, f2, fn), np.where(right, fn, f1)
    peaks = (lo + hi) / 2.0
    return peaks, _violations(a, b, peaks)


def _intervals(a, b, peaks, vmins, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Sublevel intervals {lam : v_k(lam) <= level} of every block, clipped
    to the window.

    The peak is an interior point: M = A_c + level I + lam_p B_c = L L^H is
    positive definite, and M + mu B_c >= 0 iff 1 + mu nu >= 0 for every
    eigenvalue nu of L^-1 B_c L^-H.  The endpoints lam_p - 1/nu_max and
    lam_p - 1/nu_min are the generalized eigenvalues of (A_c + level I, -B_c)
    that enclose the peak.  A block whose minimum lies within _GRAZING of
    the level (or above it) grazes it at its peak alone.
    """
    eye = np.eye(a.shape[-1])
    inside = level - vmins > _GRAZING
    m = a + level * eye + peaks[:, None, None, None] * b
    m[~inside] = eye
    linv = np.linalg.inv(np.linalg.cholesky(m))
    nu = np.linalg.eigvalsh(linv @ b @ dag(linv))
    tiny = np.finfo(float).tiny
    lo = peaks - 1.0 / np.maximum(nu[..., -1].max(axis=1), tiny)
    hi = peaks - 1.0 / np.minimum(nu[..., 0].min(axis=1), -tiny)
    lo = np.maximum(lo, max(-level, -_WINDOW))
    hi = np.minimum(hi, 1.0 + _WINDOW)
    return np.where(inside, lo, peaks), np.where(inside, hi, peaks)


def _cut_duals(a: np.ndarray, b: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Z[k, c] = x x^H / |tr(x x^H B_c)| on the worst cut c of every block at
    lams[k], x the lowest eigenvector of A_c + lams[k] B_c, and zero on the
    other cuts: the affine bound tr(Z (A_c + lam B_c)) >= 0, with slope +-1
    in lam, that excludes lams[k] when that eigenvalue is negative."""
    w, v = np.linalg.eigh(a + lams[:, None, None, None] * b)
    rows = np.arange(len(lams))
    worst = w[..., 0].argmin(axis=1)
    x = v[rows, worst, :, 0]
    slope = np.einsum("ki,kij,kj->k", x.conj(), b[rows, worst], x).real
    z = np.zeros(a.shape, dtype=complex)
    z[rows, worst] = x[:, :, None] * x[:, None, :].conj() / np.abs(slope)[:, None, None]
    return z


def _solve_rank1(instance: DiscriminationInstance, tol: Tolerances) -> FeasibilityOutcome:
    """Exact decision when P0 = |w><w|.

    PSD blocks summing to a rank-1 projector are forced to E_k = lam_k P0,
    so the problem collapses to intervals of lam intersected with the
    simplex.  A feasible point is verified by direct eigenvalue checks.  An
    infeasible problem ends at a dual certificate whose Z bounds each
    binding block just outside its binding end (:func:`_cut_duals`, at
    _PEAK_WIDTH): an empty block takes both sides of its peak, so the
    slopes cancel and Y = 0; floors summing above 1 take Y = +Pi, and
    ceilings summing below 1 take Y = -Pi.  :func:`check_dual` decides
    whether it proves infeasibility; when it does not, the outcome stalls.
    """
    projectors = instance.projector_list()
    n = len(projectors)
    p0 = instance.residual_projector()
    dims = instance.space.dims
    cuts = list(proper_cuts(instance.space.nparties))

    blocks = [_PencilBlock(pk, p0, dims, cuts) for pk in projectors]
    a = np.stack([blk.a for blk in blocks])
    b = np.stack([blk.b for blk in blocks])
    peaks, vmins = _peaks(a, b)
    # a block grazing the boundary, or missing it, contributes its peak as a
    # singleton
    lows, highs = _intervals(a, b, peaks, vmins, 0.0)

    # water-fill from the interval floors toward the target sum, then clamp;
    # tiny overshoots sit at quadratic minima and stay harmless
    lam = lows.copy()
    need = 1.0 - lam.sum()
    if need > 0:
        room = highs - lows
        if room.sum() > 0:
            lam = lam + room * min(1.0, need / room.sum())
    excess = lam.sum() - 1.0
    lam = lam - excess / n
    res = max(0.0, float(_violations(a, b, lam).max()))
    diagnostics: dict = {"path": "rank1-exact"}
    if res <= tol.feasibility:
        diagnostics["lambdas"] = [float(x) for x in lam]
        return FeasibilityOutcome(
            feasible=True,
            e_ops=lam[:, None, None] * p0,
            residual=res,
            best_residual=res,
            iterations=0,
            diagnostics=diagnostics,
        )

    y, z = 0.0, np.zeros_like(a)
    k = int(vmins.argmax())
    if vmins[k] > tol.feasibility:
        z[k] = _cut_duals(a[[k, k]], b[[k, k]], peaks[k] + np.array([-_PEAK_WIDTH, _PEAK_WIDTH])).sum(axis=0)
    elif lows.sum() > 1.0:
        # a floor of 0 comes from E_k >= 0, which Y already covers
        y, z = 1.0, _cut_duals(a, b, lows - _PEAK_WIDTH) * (lows > 0.0)[:, None, None, None]
    elif highs.sum() < 1.0:
        y, z = -1.0, _cut_duals(a, b, highs + _PEAK_WIDTH)
    dual, valid = check_dual(y * p0, z, cuts, projectors, dims, tol)
    return FeasibilityOutcome(
        feasible=False,
        e_ops=None,
        residual=res,
        best_residual=res,
        iterations=0,
        diagnostics=diagnostics,
        dual=dual if valid else None,
    )


def _solve_dykstra(
    instance: DiscriminationInstance, tol: Tolerances = DEFAULT, max_iterations: int = _MAX_ITERATIONS
) -> FeasibilityOutcome:
    """Cyclic Dykstra projections onto the affine sum constraint, the PSD
    cones, and the per-cut PPT cones, for at most ``max_iterations``
    iterations.  Works for any P0; :func:`feasibility_solve` calls it for
    every P0 that is not rank 1.

    Since every E_k is squeezed between 0 and P0, the iterate is also
    projected onto the support subspace of P0 (an implied linear constraint
    that sharpens convergence).  On an infeasible problem the corrections
    grow along a dual certificate: Z[k, c] = -PT_c(r_ppt[c][k]), and Y the
    Pi-compression of the mean over k of -r_psd[k] - sum_c r_ppt[c][k]
    (which is W_k + sum_c PT_c Z[k, c], W_k = -r_psd[k]).  It is checked at
    residual checks 1, 2, 4, 8, ... and at the cap, after the feasibility
    test, so feasible runs pay O(log iterations) attempts.  A run with
    neither a feasible point nor a valid certificate by the cap is reported
    as a result, not an error.
    """
    dims = instance.space.dims
    d = instance.space.dim
    n = instance.n
    cuts = list(proper_cuts(instance.space.nparties))

    p = np.stack(instance.projector_list())
    p0 = instance.residual_projector()
    supp = support_projector(p0, tol)
    rank_p0 = int(round(float(np.real(np.trace(supp)))))

    e = np.broadcast_to(p0 / n, (n, d, d)).copy()
    r_psd = np.zeros_like(e)
    r_ppt = {cut: np.zeros_like(e) for cut in cuts}

    best = np.inf
    res = np.inf
    parts: dict = {}
    it = 0
    while it < max_iterations:
        it += 1
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
        if rank_p0 < d:
            e = supp @ e @ supp
        # affine sum constraint (affine subspace, no correction term)
        shift = (e.sum(axis=0) - p0) / n
        e = e - shift
        e = (e + dag(e)) / 2.0

        if it % _CHECK_EVERY == 0 or it == max_iterations:
            res, parts = constraint_residual(e, p, p0, dims, cuts)
            best = min(best, res)
            if res <= tol.feasibility:
                return FeasibilityOutcome(
                    feasible=True,
                    e_ops=e,
                    residual=res,
                    best_residual=best,
                    iterations=it,
                    diagnostics=parts,
                )
            checks = it // _CHECK_EVERY
            if checks & (checks - 1) == 0 or it == max_iterations:
                y_dual = supp @ (-r_psd - sum(r_ppt.values())).mean(axis=0) @ supp
                z_dual = np.stack([-partial_transpose(r_ppt[cut], dims, cut) for cut in cuts], axis=1)
                dual, valid = check_dual(y_dual, z_dual, cuts, p, dims, tol)
                if valid:
                    return FeasibilityOutcome(
                        feasible=False,
                        e_ops=e,
                        residual=res,
                        best_residual=best,
                        iterations=it,
                        diagnostics=parts,
                        dual=dual,
                    )
    return FeasibilityOutcome(
        feasible=False,
        e_ops=e,
        residual=res,
        best_residual=best,
        iterations=it,
        diagnostics={**parts, "iteration_cap": max_iterations},
    )


def feasibility_solve(
    instance: DiscriminationInstance, tol: Tolerances = DEFAULT, max_iterations: int | None = None
) -> FeasibilityOutcome:
    """Decide the PSD+PPT relaxation of the instance: operators E_k >= 0
    with sum_k E_k = P0 = I - sum_k P_k and P_k + E_k PPT across every cut.

    A rank-1 P0 = |w><w| goes to the exact interval reduction
    (:func:`_solve_rank1`); any other P0 to cyclic Dykstra projections
    (:func:`_solve_dykstra`), capped at ``max_iterations`` (default 20,000,
    at least 1).
    """
    if max_iterations is not None and max_iterations < 1:
        raise PreconditionViolated(f"max_iterations must be at least 1, got {max_iterations}")
    p0 = instance.residual_projector()
    eig = hermitian_eig(p0, tol)
    # the rank of support_projector(p0), read from the same eigenvalues
    rank_p0 = int(np.sum(eig.values > tol.rank * max(float(eig.values[-1]), 0.0)))
    w = eig.vectors[:, -1]
    if rank_p0 == 1 and maxabs(p0 - np.outer(w, w.conj())) <= 1e-9:
        return _solve_rank1(instance, tol)
    return _solve_dykstra(instance, tol, _MAX_ITERATIONS if max_iterations is None else max_iterations)
