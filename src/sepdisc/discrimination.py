"""Deciders for perfect discrimination by separable operations.

The dispatcher :func:`decide` routes an instance to the sharpest applicable
analytic decider (the full-span criterion, every member's projector
separable, for pure states or projectors; for D-1 states, by the
classification of the residual state phi, the concurrence-sum decider for a
product prefix times an entangled pair, of which 2x2 is the empty-prefix
case, or the unique-entangled-member decider) and falls back to the PSD+PPT
feasibility solver.  Distinguishable verdicts carry a POVM
certificate, and solver verdicts of indistinguishability a dual
certificate, whose validity is re-checkable independently of the decider
that produced it.  Every POVM element outside the rank-2 lemma's own
certificates gets its evidence from one rule,
:func:`~sepdisc.separability.element_separability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import PhiProduct, PreconditionViolated
from .linalg import hermitian_eig, maxabs
from .separability import (
    _EIGENVALUE_FLOOR,
    DualCertificate,
    ProductDecomposition,
    PptRecord,
    SepStatus,
    _worst_pt,
    antiparallel_test,
    check_dual,
    constraint_residual,
    element_separability,
    feasibility_solve,
    ppt_is_exact,
    rank2_separability,
)
from .states import (
    QUBIT_PAIR,
    DiscriminationInstance,
    PureState,
    concurrence,
    orthonormal_completion,
)
from .tensor_rank import (
    Schmidt2Decomposition,
    Schmidt2Kind,
    cut_matrix,
    peel_parties,
    proper_cuts,
    schmidt2_classify,
)


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


def validate_certificate(
    cert: PovmCertificate | DualCertificate, instance: DiscriminationInstance, tol: Tolerances = DEFAULT
) -> dict:
    """Independent re-check of a certificate.  A POVM certificate: its
    completeness, correctness, PSD, reassembly of every product
    decomposition, and the partial transposes behind every PPT record,
    recomputed from the element itself, with one element and one piece of
    evidence (and one lambda, if any) per member; the wrong number of
    elements, an element that is not D x D, or a product vector without one
    factor per party of that party's dimension fails ``counts_ok``, and an
    element with a non-finite entry fails ``finite``, before any
    arithmetic.  Product evidence needs one real, finite, nonnegative weight
    per vector, since every Hermitian matrix is a signed sum of product
    projectors.  A dual certificate: the objective and scale
    :func:`check_dual` recomputes from its matrices and the instance's
    projectors."""
    if isinstance(cert, DualCertificate):
        checked, valid = check_dual(cert.y, cert.z, cert.cuts, instance.projector_list(), instance.space.dims, tol)
        return {"objective": checked.objective, "scale": checked.scale, "valid": valid}
    d, n, dims = instance.space.dim, instance.n, instance.space.dims
    shapes_ok = all(np.shape(el) == (d, d) for el in cert.elements) and all(
        [np.shape(f) for f in pv.factors] == [(k,) for k in dims]
        for ev in cert.evidence
        if isinstance(ev, ProductDecomposition)
        for pv in ev.vectors
    )
    if len(cert.elements) != n or not shapes_ok:
        return {"counts_ok": False, "valid": False}
    if not all(np.isfinite(el).all() for el in cert.elements):
        return {"finite": False, "valid": False}
    counts_ok = len(cert.evidence) == n
    total = sum(cert.elements)
    completeness = maxabs(total - np.eye(d))
    psd_min = min(float(hermitian_eig(e, tol).values[0]) for e in cert.elements)
    rhos = instance.projector_list()
    correctness = 0.0
    for k, el in enumerate(cert.elements):
        for j, rho in enumerate(rhos):
            # E_k must act as the identity on the support of P_j for k == j
            # and vanish on it otherwise: tr(E_k P_j) = delta_kj tr(P_j)
            tr = float(np.real(np.trace(el @ rho)))
            target = float(np.real(np.trace(rho))) if k == j else 0.0
            correctness = max(correctness, abs(tr - target))
    residuals = [0.0]
    evidence_ok = True
    ppt_min = None
    for el, ev in zip(cert.elements, cert.evidence):
        if isinstance(ev, ProductDecomposition):
            w = np.asarray(ev.weights)
            evidence_ok = evidence_ok and bool(
                w.dtype.kind in "fiu" and w.shape == (len(ev.vectors),) and np.all(np.isfinite(w)) and np.all(w >= 0)
            )
            residuals.append(ev.residual(el))
        elif isinstance(ev, PptRecord):
            # PPT proves separability only where it is exact, and only when
            # every partial transpose of the trace-normalized element is PSD
            tr = float(np.trace(el).real)
            evidence_ok = evidence_ok and ppt_is_exact(instance.space) and tr > 0.0
            if tr > 0.0:
                cuts = proper_cuts(instance.space.nparties)
                pt = _worst_pt(el / tr, instance.space, cuts, tol).eigenvalue
                ppt_min = pt if ppt_min is None else min(ppt_min, pt)
        else:
            evidence_ok = False
    # np.max keeps a NaN residual (a NaN decomposition weight), which fails
    # the bound
    evidence_resid = float(np.max(residuals))
    lambdas_ok = True
    if cert.lambdas is not None:
        lam = np.asarray(cert.lambdas)
        lambdas_ok = bool(len(lam) == n and np.all(lam >= -1e-12) and abs(lam.sum() - 1.0) <= 1e-8)
    return {
        "completeness": completeness,
        "correctness": correctness,
        "psd_min": psd_min,
        "evidence_residual": evidence_resid,
        "evidence_exact": evidence_ok,
        "ppt_min": ppt_min,
        "lambdas_ok": lambdas_ok,
        "counts_ok": counts_ok,
        "valid": counts_ok
        and completeness <= 1e-8
        and correctness <= 1e-7
        and psd_min >= _EIGENVALUE_FLOOR
        and evidence_resid <= 1e-8
        and evidence_ok
        and (ppt_min is None or ppt_min >= _EIGENVALUE_FLOOR)
        and lambdas_ok,
    }


def _lambda_certificate(
    basis, phi: PureState, lambdas, theorem: str, tol: Tolerances,
    locc_flag: LoccFlag = LoccFlag.UNKNOWN, diagnostics=None,
) -> Verdict:
    """The certificate E_k = |psi_k><psi_k| + lambda_k |phi><phi|, each
    element shown separable by the rank-2 lemma; every state's product
    factorization is read from its cache, so a member or phi the decider
    already factored is not factored again."""
    p_phi = phi.density()
    elements = []
    evidence = []
    for k, (psi, lam) in enumerate(zip(basis, lambdas)):
        r2 = rank2_separability(psi, phi, lam, tol)
        if r2.verdict.status is not SepStatus.SEPARABLE:
            return Verdict(
                status=VerdictStatus.UNDECIDED,
                theorem=theorem,
                reason=Reason(
                    "internal_inconsistency",
                    f"analytic conditions hold but certificate element {k} failed its separability check",
                    {"member": k, "lambda": lam},
                ),
                locc_flag=locc_flag,
            )
        elements.append(psi.density() + lam * p_phi)
        evidence.append(r2.verdict.evidence)
    cert = PovmCertificate(tuple(elements), tuple(evidence), tuple(lambdas))
    return Verdict(
        status=VerdictStatus.DISTINGUISHABLE,
        theorem=theorem,
        certificate=cert,
        locc_flag=locc_flag,
        diagnostics=diagnostics or {},
    )


def _decide_concurrence_sum(phi: PureState, basis, dec: Schmidt2Decomposition, tol: Tolerances) -> Verdict | None:
    """Concurrence-sum decider for a residual state that is a product prefix
    times a bipartite entangled pair, read from its two-term decomposition
    phi = a + b with entry distance 2; on 2x2 the prefix is empty.  Every
    entangled member must share the prefix, embed in the pair's 2x2 Schmidt
    subspace and pass the anti-parallel eigenvalue test there, and the
    embedded concurrences must sum to C(phi).  None when a and b are not
    the pair's Schmidt terms."""
    dims = phi.space.dims
    # schmidt2_classify splits a two-party core by its SVD, so the pair is
    # where a and b split: their factors there are orthonormal Schmidt
    # vectors and their weights the Schmidt coefficients; elsewhere a and b
    # share the prefix factors
    pair = dec.split
    if len(pair) != 2:
        return None
    prefix = {p: f for p, f in enumerate(dec.a.factors) if p not in pair}
    left = np.column_stack([dec.a.factors[pair[0]], dec.b.factors[pair[0]]])
    right = np.column_stack([dec.a.factors[pair[1]], dec.b.factors[pair[1]]])
    phi_emb = PureState.normalized(QUBIT_PAIR, [dec.a.weight, 0.0, 0.0, dec.b.weight])
    c_phi = concurrence(phi_emb)
    if dims != (2, 2):
        theorem = "T4"
    else:
        theorem = "C2" if c_phi > 1.0 - 1e-8 else "T2"

    def embed(psi: PureState) -> tuple[bool, PureState | None]:
        """Whether the member carries the prefix, and its state in the
        pair's Schmidt basis when it stays inside that 2x2 subspace."""
        # the prefix factors only need to agree up to phase: the embedded
        # state feeds the concurrence and the anti-parallel test alone
        peeled = peel_parties(psi.amplitudes, dims, list(prefix), tol)
        if peeled is None or any(abs(np.vdot(f, prefix[p])) < 1.0 - 1e-9 for p, f in peeled[0].items()):
            return False, None
        _, core, core_dims = peeled
        coeff = left.conj().T @ cut_matrix(core, core_dims, (0,)) @ right.conj()
        if abs(np.linalg.norm(coeff) - 1.0) > 1e-8:
            return True, None
        return True, PureState.normalized(QUBIT_PAIR, coeff.reshape(4))

    members = [embed(psi) for psi in basis]
    # embedded concurrence of each member, 0.0 for product members
    cs = [0.0 if emb is None else concurrence(emb) for _, emb in members]
    # cited sufficient condition: two or more entangled members of a 2x2
    # basis cannot be told apart by LOCC
    if dims == (2, 2) and sum(c > tol.rank for c in cs) >= 2:
        flag = LoccFlag.LOCC_INDISTINGUISHABLE
    else:
        flag = LoccFlag.UNKNOWN

    def reject(code: str, message: str, data: dict) -> Verdict:
        return Verdict(
            status=VerdictStatus.INDISTINGUISHABLE, theorem=theorem, reason=Reason(code, message, data), locc_flag=flag
        )

    for j, (psi, (shares_prefix, emb)) in enumerate(zip(basis, members)):
        if emb is None and psi.product is None:
            if shares_prefix:
                return reject(
                    "embedding_failed",
                    f"entangled member {j} leaves the 2x2 subspace spanned by the residual pair",
                    {"member": j},
                )
            return reject(
                "prefix_mismatch",
                f"entangled member {j} does not carry the residual state's product prefix",
                {"member": j},
            )
        if cs[j] <= tol.rank:
            cs[j] = 0.0
            continue
        res = antiparallel_test(emb, phi_emb, tol)
        if not res.passed:
            return reject(
                "antiparallel_failed",
                f"member {j} fails the anti-parallel eigenvalue condition",
                {"member": j, "angle_defect": res.angle_defect},
            )

    total = float(sum(cs))
    if abs(total - c_phi) > tol.concurrence_sum:
        return reject(
            "concurrence_sum",
            f"concurrence sum {total:.9f} != {c_phi:.9f}",
            {"sum": total, "c_phi": c_phi, "concurrences": cs},
        )
    lambdas = tuple(c / c_phi for c in cs)
    return _lambda_certificate(basis, phi, lambdas, theorem, tol, flag, {"concurrences": cs, "c_phi": c_phi})


def _decide_unique_entangled_member(phi: PureState, basis, dec: Schmidt2Decomposition, tol: Tolerances) -> Verdict:
    """Decider when the residual state splits into two orthogonal product
    vectors differing in three or more parties: the basis must contain the
    unique complementary entangled state and otherwise products."""
    candidate = dec.complement()
    ent_indices = [j for j, s in enumerate(basis) if s.product is None]
    if len(ent_indices) != 1:
        return Verdict(
            status=VerdictStatus.INDISTINGUISHABLE,
            theorem="T5",
            reason=Reason(
                "entangled_count",
                f"basis has {len(ent_indices)} entangled members; exactly one is required",
                {"count": len(ent_indices)},
            ),
        )
    j = ent_indices[0]
    match = abs(np.vdot(candidate, basis[j].amplitudes))
    if match < 1.0 - tol.match_phase:
        return Verdict(
            status=VerdictStatus.INDISTINGUISHABLE,
            theorem="T5",
            reason=Reason(
                "wrong_entangled_member",
                "the entangled member is not the complementary superposition of the residual pair",
                {"overlap": float(match)},
            ),
        )

    lambdas = tuple(1.0 if i == j else 0.0 for i in range(len(basis)))
    return _lambda_certificate(basis, phi, lambdas, "T5", tol)


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
    cls = schmidt2_classify(phi, tol)
    if cls.kind is Schmidt2Kind.PRODUCT:
        raise PhiProduct("subspace question requires an entangled state")
    if cls.kind is Schmidt2Kind.AT_LEAST_3:
        return SubspaceVerdict(kind=SubspaceKind.NO_DISTINGUISHABLE_BASIS, classification=cls)
    if cls.kind is Schmidt2Kind.SCHMIDT2:
        from .constructions import _locc_basis

        basis = tuple(_locc_basis(phi, cls.decomposition))
        return SubspaceVerdict(kind=SubspaceKind.HAS_LOCC_BASIS, basis=basis, classification=cls)
    return SubspaceVerdict(kind=SubspaceKind.UNDECIDED, classification=cls)


def _decide_full_span(instance: DiscriminationInstance, tol: Tolerances) -> Verdict:
    """Full-span case: with no residual the POVM is forced to the members'
    projectors, so the states are distinguishable iff each is separable."""
    evidence = []
    for j, member in enumerate(instance.states or instance.projectors):
        verdict = element_separability(member, instance.space, tol)
        if verdict.status is SepStatus.ENTANGLED:
            return Verdict(
                status=VerdictStatus.INDISTINGUISHABLE,
                theorem="T1",
                reason=Reason(
                    "entangled_member",
                    f"basis member {j} is entangled, so its projector cannot be separable",
                    {"member": j},
                ),
            )
        if verdict.status is SepStatus.UNDECIDED:
            return Verdict(
                status=VerdictStatus.UNDECIDED,
                theorem="T1",
                reason=Reason("separability_unknown", f"projector {j} is not certified separable", {"member": j}),
            )
        evidence.append(verdict.evidence)
    cert = PovmCertificate(tuple(instance.projector_list()), tuple(evidence), None)
    return Verdict(status=VerdictStatus.DISTINGUISHABLE, theorem="T1", certificate=cert)


def _try_completability(instance: DiscriminationInstance, p0: np.ndarray, tol: Tolerances) -> Verdict | None:
    """Allocate the whole residual to a single element, E_k = P_k + P0 and
    E_j = P_j otherwise, and certify every element separable."""
    projectors = instance.projector_list()
    n = len(projectors)
    per_element: list[object] = []
    for member in instance.states or instance.projectors:
        verdict = element_separability(member, instance.space, tol)
        per_element.append(verdict.evidence if verdict.status is SepStatus.SEPARABLE else None)
        # every allocation leaves all members but one as they are
        if per_element.count(None) >= 2:
            return None
    for k in range(n):
        if any(per_element[j] is None for j in range(n) if j != k):
            continue
        big = projectors[k] + p0
        verdict = element_separability(big, instance.space, tol)
        if verdict.status is not SepStatus.SEPARABLE:
            continue
        elements = tuple(big if j == k else p for j, p in enumerate(projectors))
        evidence = tuple(verdict.evidence if j == k else ev for j, ev in enumerate(per_element))
        cert = PovmCertificate(elements, evidence, tuple(float(j == k) for j in range(n)))
        return Verdict(
            status=VerdictStatus.DISTINGUISHABLE,
            theorem="T1",
            certificate=cert,
            diagnostics={"path": "completability", "residual_assigned_to": k},
        )
    return None


def _decide_feasibility(instance: DiscriminationInstance, tol: Tolerances, max_iterations: int | None) -> Verdict:
    projectors = instance.projector_list()
    p0 = instance.residual_projector()
    cuts = list(proper_cuts(instance.space.nparties))

    fast = _try_completability(instance, p0, tol)
    if fast is not None:
        # the analytic allocation doubles as an explicit feasible point of
        # the relaxation; verify it directly instead of iterating
        e = np.stack([el - pk for el, pk in zip(fast.certificate.elements, projectors)])
        point_res, _ = constraint_residual(e, np.stack(projectors), p0, instance.space.dims, cuts)
        return Verdict(
            status=fast.status,
            theorem=fast.theorem,
            certificate=fast.certificate,
            diagnostics={**fast.diagnostics, "feasibility": {"residual": point_res, "verified_point": True}},
        )

    outcome = feasibility_solve(instance, tol, max_iterations)
    diag = {
        "residual": outcome.residual,
        "best_residual": outcome.best_residual,
        "iterations": outcome.iterations,
        "stalled": outcome.stalled,
        **outcome.diagnostics,
    }

    if outcome.dual is not None:
        return Verdict(
            status=VerdictStatus.INDISTINGUISHABLE,
            theorem="PPT-dual",
            certificate=outcome.dual,
            reason=Reason(
                "ppt_dual",
                "the PSD+PPT relaxation is infeasible by a checked dual certificate, so no separable POVM exists",
                {},
            ),
            diagnostics=diag,
        )
    if outcome.feasible:
        elements = tuple(p + e for p, e in zip(projectors, outcome.e_ops))
        evidence = []
        for el in elements:
            # a solver point inside the feasibility tolerance can still dip
            # below the floor the validator holds certificates to
            verdict = element_separability(el, instance.space, tol)
            if verdict.status is not SepStatus.SEPARABLE:
                return Verdict(
                    status=VerdictStatus.UNDECIDED,
                    theorem="T1",
                    reason=Reason(
                        "ppt_feasible_relaxation",
                        "PPT-feasible (relaxation): a relaxed solution exists but separability is not certified",
                        {"residual": outcome.residual},
                    ),
                    diagnostics=diag,
                )
            evidence.append(verdict.evidence)
        cert = PovmCertificate(elements, tuple(evidence), None)
        return Verdict(status=VerdictStatus.DISTINGUISHABLE, theorem="T1", certificate=cert, diagnostics=diag)
    return Verdict(
        status=VerdictStatus.UNDECIDED,
        theorem="T1",
        reason=Reason(
            "feasibility_stall",
            "the relaxed feasibility solver ended with neither a feasible point nor a checked dual certificate",
            {"residual": outcome.residual},
        ),
        diagnostics=diag,
    )


def decide(instance: DiscriminationInstance, tol: Tolerances = DEFAULT, max_iterations: int | None = None) -> Verdict:
    """Dispatch an instance to the sharpest applicable decision path.

    ``max_iterations`` caps the Dykstra solver (at least 1; None keeps the
    solver's default cap)."""
    if max_iterations is not None and max_iterations < 1:
        raise PreconditionViolated(f"max_iterations must be at least 1, got {max_iterations}")
    space = instance.space
    d = space.dim

    if instance.states:
        total_rank = instance.n
    else:
        total_rank = int(round(sum(float(np.real(np.trace(p))) for p in instance.projectors)))
    if total_rank == d:
        return _decide_full_span(instance, tol)
    if instance.projectors:
        return _decide_feasibility(instance, tol, max_iterations)

    states = list(instance.states)
    n = len(states)

    phi = instance.phi
    if phi is None and n == d - 1:
        phi = orthonormal_completion(states)[0]

    if phi is not None and n == d - 1:
        cls = schmidt2_classify(phi, tol)
        if cls.kind is Schmidt2Kind.PRODUCT:
            # a product residual state admits only product bases
            for j, s in enumerate(states):
                if s.product is None:
                    return Verdict(
                        status=VerdictStatus.INDISTINGUISHABLE,
                        theorem="T1",
                        reason=Reason(
                            "entangled_member_product_phi",
                            f"member {j} is entangled while the residual state is product",
                            {"member": j},
                        ),
                    )
            lambdas = [1.0] + [0.0] * (n - 1)
            return _lambda_certificate(states, phi, lambdas, "T1", tol)
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
        if cls.kind is Schmidt2Kind.SCHMIDT2:
            if cls.detail["entry_distance"] >= 3:
                return _decide_unique_entangled_member(phi, states, cls.decomposition, tol)
            verdict = _decide_concurrence_sum(phi, states, cls.decomposition, tol)
            if verdict is not None:
                return verdict
        return Verdict(
            status=VerdictStatus.UNDECIDED,
            theorem="T6",
            reason=Reason("classification_undecided", "the residual state's product structure could not be settled", {}),
        )

    return _decide_feasibility(instance, tol, max_iterations)
