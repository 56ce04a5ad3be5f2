"""Deciders for perfect discrimination by separable operations.

The dispatcher :func:`decide` settles D-1 states by the classification of
the residual state phi: a phi needing three orthogonal product terms admits
no distinguishable basis, a product phi only product members, and any other
phi, in every dimension, goes to one lambda rule
(:func:`~sepdisc.separability.separable_lambdas`): every element is forced
to |psi_k><psi_k| + lambda_k |phi><phi| with sum_k lambda_k = 1, each
lambda_k read from the product vectors of span{psi_k, phi}.  Every other
instance, a product phi's product bases included, goes to one allocation,
:func:`_allocate_residual`, and then to the PSD+PPT feasibility solver: the
whole residual P0 = I - sum_k P_k goes to one member.  The full span is the
case where the allocation is forced (P0 = 0), and a product phi, declared
or completed, certifies the residual (P0 = |phi><phi|).  Distinguishable
verdicts carry a POVM certificate, and solver verdicts of
indistinguishability a dual certificate, whose validity is re-checkable
independently of the decider that produced it.  One builder,
:func:`_distinguishable`, makes every POVM certificate and runs the
validator's evidence check, :func:`_check_evidence`, on it.  Every element
outside the lambda certificates gets its evidence from one rule,
:func:`~sepdisc.separability.element_separability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import NotHermitian, PreconditionViolated
from .linalg import check_hermitian, maxabs, min_eigenvalues, partial_transpose
from .separability import (
    _EIGENVALUE_FLOOR,
    REASSEMBLY_BOUND,
    DualCertificate,
    ProductDecomposition,
    PptRecord,
    SepStatus,
    check_dual,
    constraint_residual,
    element_separability,
    feasibility_solve,
    ppt_is_exact,
    reassembly_residuals,
    separable_lambdas,
)
from .states import DiscriminationInstance, PureState, StateSpace, concurrence, factor_states, orthonormal_completion
from .tensor_rank import ProductVector, Schmidt2Kind, schmidt2_classify


class VerdictStatus(Enum):
    DISTINGUISHABLE = "distinguishable"
    INDISTINGUISHABLE = "indistinguishable"
    UNDECIDED = "undecided"


class LoccFlag(Enum):
    LOCC_INDISTINGUISHABLE = "locc_indistinguishable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Reason:
    code: str
    message: str
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PovmCertificate:
    """POVM elements with per-element separability evidence."""

    elements: tuple[np.ndarray, ...]
    evidence: tuple[object, ...]  # ProductDecomposition | PptRecord per element
    lambdas: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    theorem: str | None = None
    certificate: PovmCertificate | DualCertificate | None = None
    reason: Reason | None = None
    locc_flag: LoccFlag = LoccFlag.UNKNOWN
    diagnostics: dict = field(default_factory=dict)


def _check_evidence(elements: np.ndarray, evidence, space: StateSpace):
    """The one check of certificate evidence, shared by the builder and the
    validator, on an (n, D, D) stack of elements with one piece of evidence
    each.  Per element: the reassembly residual of a product decomposition
    (0 otherwise); min_c lambda_min(PT_c(E)) / tr E over every cut for a PPT
    record with tr E > 0 (nan otherwise); whether the evidence is exact,
    which a product decomposition is with finite, nonnegative weights (every
    Hermitian matrix is a signed sum of product projectors) and a PPT record
    with tr E > 0 on 2x2 or 2x3; and whether it passes: exact, with a
    residual of at most REASSEMBLY_BOUND and a PT minimum of at least the floor."""
    n = len(elements)
    residual, pt_min, exact = np.zeros(n), np.full(n, np.nan), np.zeros(n, dtype=bool)
    dec = [k for k, ev in enumerate(evidence) if isinstance(ev, ProductDecomposition)]
    if dec:
        residual[dec] = reassembly_residuals([evidence[k] for k in dec], elements[dec])
        exact[dec] = [all(0.0 <= w < np.inf for w in evidence[k].weights) for k in dec]
    rec = [k for k, ev in enumerate(evidence) if isinstance(ev, PptRecord)]
    if rec:
        tr = np.trace(elements, axis1=1, axis2=2).real
        rec = [k for k in rec if tr[k] > 0.0]
        pts = [min_eigenvalues(partial_transpose(elements[rec], space.dims, cut)) for cut in space.cuts]
        pt_min[rec] = np.min(pts, axis=0) / tr[rec]
        exact[rec] = ppt_is_exact(space)
    return residual, pt_min, exact, exact & (residual <= REASSEMBLY_BOUND) & ~(pt_min < _EIGENVALUE_FLOOR)


def validate_certificate(
    cert: PovmCertificate | DualCertificate, instance: DiscriminationInstance, tol: Tolerances = DEFAULT
) -> dict:
    """Independent re-check of a certificate.  A POVM certificate: its
    completeness, statistics tr(E_k P_j) = delta_kj tr(P_j) and PSD, and the
    evidence check the builder runs too (:func:`_check_evidence`, which
    recomputes everything from the elements), with one element and one piece
    of evidence per member.  A malformed one fails and never raises: before
    any arithmetic, in order, ``counts_ok`` (n numeric D x D arrays as
    elements, one real weight per product vector and each a ProductVector
    with one factor per party of that party's dimension), ``finite``,
    ``hermitian`` (as :func:`~sepdisc.linalg.check_hermitian` checks) and
    ``lambdas_ok`` (n real ones, if any), and the first that fails is the one
    key returned besides ``valid``.  A dual certificate: the objective and
    scale :func:`check_dual` recomputes from its matrices and the instance's
    projectors, P0 and Pi."""
    if isinstance(cert, DualCertificate):
        checked, valid = check_dual(cert.y, cert.z, cert.cuts, instance, tol)
        return {"objective": checked.objective, "scale": checked.scale, "valid": valid}
    d, n, dims = instance.space.dim, instance.n, instance.space.dims
    key = "counts_ok"
    try:  # a field of the wrong type fails the check that reads it
        ok = len(cert.elements) == n and all(isinstance(el, np.ndarray) and el.dtype.kind in "fiuc" and el.shape == (d, d) for el in cert.elements)
        for ev in [ev for ev in cert.evidence if isinstance(ev, ProductDecomposition)]:
            ok = ok and np.asarray(ev.weights).dtype.kind in "fiu" and np.shape(ev.weights) == (len(ev.vectors),)
            ok = ok and all(isinstance(pv, ProductVector) and [f.shape for f in pv.factors] == [(k,) for k in dims] for pv in ev.vectors)
        if ok:
            key, ok = "finite", all(np.isfinite(el).all() for el in cert.elements)
        if ok:
            key = "hermitian"
            check_hermitian(elements := np.stack(cert.elements), tol)
            key, lam = "lambdas_ok", cert.lambdas
            ok = lam is None or (np.asarray(lam).dtype.kind in "fiu" and np.shape(lam) == (n,))
    except (AttributeError, TypeError, ValueError, NotHermitian):
        ok = False
    if not ok:
        return {key: False, "valid": False}
    counts_ok = len(cert.evidence) == n
    projectors = instance.projectors
    completeness = maxabs(elements.sum(axis=0) - np.eye(d))
    psd_min = float(min_eigenvalues(elements).min())
    # E_k must act as the identity on the support of P_j for k == j and
    # vanish on it otherwise
    stats = np.einsum("kab,jba->kj", elements, projectors).real
    correctness = maxabs(stats - np.diag(np.trace(projectors, axis1=1, axis2=2).real))
    # evidence of the wrong count is checked against as many elements
    residual, pt_min, exact, passed = _check_evidence(elements[: len(cert.evidence)], cert.evidence[:n], instance.space)
    measured = pt_min[~np.isnan(pt_min)]
    lam = None if cert.lambdas is None else np.asarray(cert.lambdas)
    lambdas_ok = lam is None or bool(np.all(lam >= -1e-12) and abs(lam.sum() - 1.0) <= 1e-8)
    return {
        "completeness": completeness,
        "correctness": correctness,
        "psd_min": psd_min,
        # np.max keeps a NaN residual (a NaN decomposition weight)
        "evidence_residual": float(np.max(residual, initial=0.0)),
        "evidence_exact": bool(exact.all()),
        "ppt_min": float(measured.min()) if measured.size else None,
        "lambdas_ok": lambdas_ok,
        "counts_ok": counts_ok,
        "valid": counts_ok
        and completeness <= 1e-8
        and correctness <= 1e-7
        and psd_min >= _EIGENVALUE_FLOOR
        and bool(passed.all())
        and lambdas_ok,
    }


def _distinguishable(
    space: StateSpace, elements, evidence, theorem="T1", lambdas=None, locc_flag=LoccFlag.UNKNOWN, diagnostics=None
) -> Verdict:
    """The one builder of a POVM certificate and of a distinguishable
    verdict, on the instance's space.  It runs the validator's evidence check
    (:func:`_check_evidence`), and when an element fails it the verdict is
    undecided, naming the first such member (and its lambda, if any);
    completeness, statistics and PSD are left to the validator.  Each PPT
    record is replaced by the one the check measured."""
    diagnostics = diagnostics or {}
    _, pt_min, exact, passed = _check_evidence(np.stack(elements), evidence, space)
    failed = np.flatnonzero(~passed)
    if failed.size:
        k = int(failed[0])
        message = f"a POVM was found but certificate element {k} failed its separability check"
        data = {"member": k} if lambdas is None else {"member": k, "lambda": lambdas[k]}
        reason = Reason("internal_inconsistency", message, data)
        return Verdict(VerdictStatus.UNDECIDED, theorem, reason=reason, locc_flag=locc_flag, diagnostics=diagnostics)
    evidence = [PptRecord(float(pt_min[k]), bool(exact[k]), space.cuts) if isinstance(ev, PptRecord) else ev for k, ev in enumerate(evidence)]
    cert = PovmCertificate(tuple(elements), tuple(evidence), None if lambdas is None else tuple(lambdas))
    return Verdict(VerdictStatus.DISTINGUISHABLE, theorem, cert, locc_flag=locc_flag, diagnostics=diagnostics)


def _allocate_residual(instance: DiscriminationInstance, tol: Tolerances, phi: PureState | None) -> Verdict | None:
    """Theorem 1 with the simplest POVM: the whole residual P0 = I - sum_k P_k
    goes to one member, E_k = P_k + P0 and E_j = P_j otherwise, and every
    element must be certified separable; None when no allocation is.

    When P0 has rank 0 (the members' ranks fill the space), the POVM is
    forced: the states are distinguishable iff every member's projector is
    separable, and the first member that is not settles the verdict.
    Otherwise P0 is certified once, through ``phi`` when one is given (the
    declared or the completed residual state, P0 = |phi><phi|); E_k carries
    P_k's product decomposition joined with P0's when both have one, and
    otherwise its own.  The allocation doubles as an explicit feasible point
    of the relaxation, verified directly instead of iterating."""
    space, members = instance.space, instance.states or instance.projectors
    forced = instance.residual_rank == 0
    factor_states(instance.states)
    per_element: list[object] = []
    for j, member in enumerate(members):
        verdict = element_separability(member, space, tol)
        if verdict.status is SepStatus.SEPARABLE:
            per_element.append(verdict.evidence)
        elif forced and verdict.status is SepStatus.ENTANGLED:
            message = f"basis member {j} is entangled, so its projector cannot be separable"
            reason = Reason("entangled_member", message, {"member": j})
            return Verdict(VerdictStatus.INDISTINGUISHABLE, "T1", reason=reason)
        elif forced:
            reason = Reason("separability_unknown", f"projector {j} is not certified separable", {"member": j})
            return Verdict(VerdictStatus.UNDECIDED, "T1", reason=reason)
        elif None in per_element:
            # every allocation leaves all members but one as they are
            return None
        else:
            per_element.append(None)
    projectors, n = instance.projectors, instance.n
    if forced:
        return _distinguishable(space, projectors, per_element)
    p0 = instance.residual_projector
    p0_evidence = element_separability(p0 if phi is None else phi, space, tol).evidence
    for k in range(n):
        if any(per_element[j] is None for j in range(n) if j != k):
            continue
        big = projectors[k] + p0
        own = per_element[k]
        if isinstance(own, ProductDecomposition) and isinstance(p0_evidence, ProductDecomposition):
            joined = ProductDecomposition(own.weights + p0_evidence.weights, own.vectors + p0_evidence.vectors)
        else:
            verdict = element_separability(big, space, tol)
            if verdict.status is not SepStatus.SEPARABLE:
                continue
            joined = verdict.evidence
        e = np.zeros((n,) + p0.shape, dtype=complex)
        e[k] = big - projectors[k]
        point_res, _ = constraint_residual(e, instance)
        return _distinguishable(
            space,
            [big if j == k else p for j, p in enumerate(projectors)],
            [joined if j == k else ev for j, ev in enumerate(per_element)],
            lambdas=[float(j == k) for j in range(n)],
            diagnostics={
                "path": "completability",
                "residual_assigned_to": k,
                "feasibility": {"residual": point_res, "verified_point": True},
            },
        )
    return None


def _decide_feasibility(
    instance: DiscriminationInstance, tol: Tolerances, max_iterations: int | None, phi: PureState | None = None
) -> Verdict:
    fast = _allocate_residual(instance, tol, phi)
    if fast is not None:
        return fast

    outcome = feasibility_solve(instance, tol, max_iterations)
    diag = {
        "residual": outcome.residual,
        "best_residual": outcome.best_residual,
        "iterations": outcome.iterations,
        "stalled": outcome.stalled,
        **outcome.diagnostics,
    }

    if outcome.dual is not None:
        message = "the PSD+PPT relaxation is infeasible by a checked dual certificate, so no separable POVM exists"
        reason = Reason("ppt_dual", message, {})
        return Verdict(VerdictStatus.INDISTINGUISHABLE, "PPT-dual", outcome.dual, reason, diagnostics=diag)
    if outcome.feasible:
        elements = instance.projectors + outcome.e_ops
        evidence = []
        for el in elements:
            # a solver point inside the feasibility tolerance can still dip
            # below the floor the validator holds certificates to
            verdict = element_separability(el, instance.space, tol)
            if verdict.status is not SepStatus.SEPARABLE:
                break
            evidence.append(verdict.evidence)
        else:
            return _distinguishable(instance.space, elements, evidence, diagnostics=diag)
        code = "ppt_feasible_relaxation"
        message = "PPT-feasible (relaxation): a relaxed solution exists but separability is not certified"
    else:
        code = "feasibility_stall"
        message = "the relaxed feasibility solver ended with neither a feasible point nor a checked dual certificate"
    reason = Reason(code, message, {"residual": outcome.residual})
    return Verdict(VerdictStatus.UNDECIDED, "T1", reason=reason, diagnostics=diag)


def decide(instance: DiscriminationInstance, tol: Tolerances = DEFAULT, max_iterations: int | None = None) -> Verdict:
    """Dispatch an instance to the sharpest applicable decision path.

    ``max_iterations`` caps the Dykstra solver (at least 1; None keeps the
    solver's default cap)."""
    if max_iterations is not None and max_iterations < 1:
        raise PreconditionViolated(f"max_iterations must be at least 1, got {max_iterations}")
    space, states = instance.space, instance.states
    if not states or instance.residual_rank != 1:
        return _decide_feasibility(instance, tol, max_iterations)

    phi = orthonormal_completion(states)[0] if instance.phi is None else instance.phi
    cls = schmidt2_classify(phi.amplitudes[None], space.dims, tol, [phi.product])[0]
    if cls.kind is Schmidt2Kind.AT_LEAST_3:
        return Verdict(
            status=VerdictStatus.INDISTINGUISHABLE,
            theorem="T6",
            reason=Reason(
                "orthogonal_schmidt_number",
                "the residual state needs at least three orthogonal product terms, so no basis of its orthocomplement is distinguishable",
                {"reason": cls.reason.value if cls.reason else None},
            ),
        )
    factor_states(states)
    if cls.kind is Schmidt2Kind.PRODUCT:
        # a product residual state admits only product bases, and those the
        # allocation certifies
        j = next((j for j, s in enumerate(states) if s.product is None), None)
        if j is None:
            return _decide_feasibility(instance, tol, max_iterations, phi)
        message = f"member {j} is entangled while the residual state is product"
        reason = Reason("entangled_member_product_phi", message, {"member": j})
        return Verdict(VerdictStatus.INDISTINGUISHABLE, "T1", reason=reason)
    if cls.kind is Schmidt2Kind.UNDECIDED:
        theorem = "T1"
    elif cls.detail["entry_distance"] >= 3:
        theorem = "T5"
    elif space.dims != (2, 2):
        theorem = "T4"
    else:
        theorem = "C2" if concurrence(phi) > 1.0 - 1e-8 else "T2"
    # cited sufficient condition: two or more entangled members of a 2x2
    # basis cannot be told apart by LOCC
    two_entangled = space.dims == (2, 2) and sum(s.product is None for s in states) >= 2
    flag = LoccFlag.LOCC_INDISTINGUISHABLE if two_entangled else LoccFlag.UNKNOWN
    # every POVM element is forced to |psi_k><psi_k| + lambda_k |phi><phi|
    # with sum_k lambda_k = 1
    lambdas, decomposition = separable_lambdas(phi, states, tol)
    total = sum(lam for lam in lambdas if lam is not None)
    if None in lambdas:
        j = lambdas.index(None)
        message = f"entangled member {j} has no lambda at which its POVM element is separable"
        reason = Reason("no_separable_lambda", message, {"member": j})
    elif abs(total - 1.0) > tol.concurrence_sum:
        reason = Reason("lambda_sum", f"lambda sum {total:.9f} != 1", {"sum": total, "lambdas": lambdas})
    else:
        elements = [psi.density() + lam * phi.density() for psi, lam in zip(states, lambdas)]
        return _distinguishable(space, elements, [decomposition(k) for k in range(len(states))], theorem, lambdas, flag)
    return Verdict(status=VerdictStatus.INDISTINGUISHABLE, theorem=theorem, reason=reason, locc_flag=flag)

