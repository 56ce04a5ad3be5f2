"""Deterministic verification suites behind the ``verify`` CLI command.

Each suite runs seeded randomized property checks and returns one record per
property with counts and worst residuals.  The acceptance tests reuse these
functions at their documented sample sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .discrimination import (
    LoccFlag,
    VerdictStatus,
    decide,
    validate_certificate,
)
from .constructions import (
    FamilyParams,
    SubspaceFamily,
    TetraPoint,
    basis_from_unitary,
    concurrence_triple_of_unitary,
    family_sep_not_locc,
    gamma_range,
    in_tetrahedron,
    indistinguishable_subspace,
    tetra_grid,
    tetra_unitary,
    verify_subspace_properties,
)
from .linalg import dag, kron_all, maxabs
from .sampling import (
    random_basis_of_complement,
    random_entangled_2x2,
    random_local_vector,
    random_product_state,
    random_unitary,
    sample_unitary_triples,
)
from .separability import (
    Lemma1Status,
    Rank2Case,
    SepStatus,
    antiparallel_test,
    feasibility_solve,
    lemma1_check,
    ppt_oracle,
    rank2_separability,
    separable_lambdas,
)
from .states import DiscriminationInstance, PureState, QUBIT_PAIR, StateSpace, concurrence, magic_basis
from .tensor_rank import span_roots


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    count: int
    worst: float
    detail: str = ""


def _random_support(rng: np.random.Generator, d: int, rank: int):
    q, _ = np.linalg.qr(rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank)))
    return q[:, :rank]


def _random_density_on(rng: np.random.Generator, cols: np.ndarray) -> np.ndarray:
    r = cols.shape[1]
    m = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    rho_small = m @ dag(m)
    rho_small = rho_small / np.trace(rho_small).real
    return cols @ rho_small @ dag(cols)


def check_lemma1(seed: int, n_pairs: int = 200, tol: Tolerances = DEFAULT) -> CheckResult:
    rng = np.random.default_rng(seed)
    d = 6
    ok = 0
    worst = 0.0
    half = n_pairs // 2
    for i in range(n_pairs):
        rank = int(rng.integers(1, 4))
        cols = _random_support(rng, d, rank)
        rho = _random_density_on(rng, cols)
        p = cols @ dag(cols)
        q = np.eye(d) - p
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = x @ dag(x)
        x = x / (np.linalg.eigvalsh(x)[-1] + 1e-12)  # 0 <= X <= I
        if i < half:
            e = p + q @ x @ q  # E - P >= 0 by construction, so tr must be 1
            res = lemma1_check(e, rho, tol)
            good = res.status is Lemma1Status.HOLDS_BOTH_WAYS and res.consistent
            worst = max(worst, abs(res.trace_value - 1.0))
        else:
            eps = float(rng.uniform(0.05, 0.5))
            e = (1.0 - eps) * p + q @ x @ q  # both sides must fail together
            res = lemma1_check(e, rho, tol)
            good = res.status is Lemma1Status.VIOLATION and res.consistent
            worst = max(worst, abs(res.trace_value - (1.0 - eps)))
        ok += int(good)
    return CheckResult("lemma1_both_directions", ok == n_pairs, n_pairs, worst)


def _random_orthogonal_product_pair(rng: np.random.Generator):
    x = random_local_vector(rng, 2)
    xp = np.array([-np.conj(x[1]), np.conj(x[0])])
    y = random_local_vector(rng, 2)
    yq = random_local_vector(rng, 2)
    psi = PureState(QUBIT_PAIR, np.kron(x, y))
    phi = PureState(QUBIT_PAIR, np.kron(xp, yq))
    return psi, phi


def _random_family_pair(rng: np.random.Generator):
    a = float(rng.uniform(0.05, math.pi / 4 - 0.05))
    b = float(rng.uniform(a + 0.01, math.pi / 4))
    lo, hi = gamma_range(a, b)
    g = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
    phi, basis = family_sep_not_locc(FamilyParams(a, b, g))
    k = int(rng.integers(0, 3))
    return phi, basis, k


def check_lemma4_cases(seed: int, per_case: int = 50, tol: Tolerances = DEFAULT) -> CheckResult:
    rng = np.random.default_rng(seed)
    counts = {c: 0 for c in Rank2Case}
    agree = 0
    total = 0
    worst = 0.0

    def ppt_agrees(psi, phi, lam, verdict) -> bool:
        rho = psi.density() + lam * phi.density()
        p = ppt_oracle(rho, QUBIT_PAIR, tol)
        return (verdict is SepStatus.SEPARABLE) == (p.status is SepStatus.SEPARABLE)

    for _ in range(per_case):
        # case i: two orthogonal products, any weight
        psi, phi = _random_orthogonal_product_pair(rng)
        lam = float(rng.uniform(0.0, 2.0))
        r = rank2_separability(psi, phi, lam, tol)
        counts[r.case] += 1
        total += 1
        agree += int(r.case is Rank2Case.BOTH_PRODUCT and ppt_agrees(psi, phi, lam, r.verdict.status))
        worst = max(worst, r.verdict.detail.get("residual", 0.0))

        # case ii: product psi, entangled phi, lam = 0 (and entangled for lam > 0)
        psi = random_product_state(rng, QUBIT_PAIR)
        comp = random_basis_of_complement(rng, psi)
        phi = next(s for s in comp if concurrence(s) > 0.05)
        r = rank2_separability(psi, phi, 0.0, tol)
        counts[r.case] += 1
        total += 1
        agree += int(r.case is Rank2Case.PSI_PRODUCT_LAMBDA_ZERO and ppt_agrees(psi, phi, 0.0, r.verdict.status))
        lam = float(rng.uniform(0.2, 1.5))
        r = rank2_separability(psi, phi, lam, tol)
        counts[r.case] += 1
        total += 1
        agree += int(r.case is Rank2Case.ENTANGLED and ppt_agrees(psi, phi, lam, r.verdict.status))

        # case iii: an entangled family member against its residual state
        phi_f, basis, k = _random_family_pair(rng)
        psi = basis[k]
        c_psi, c_phi = concurrence(psi), concurrence(phi_f)
        if c_psi > 1e-6:
            lam = c_psi / c_phi
            r = rank2_separability(psi, phi_f, lam, tol)
            counts[r.case] += 1
            total += 1
            good = r.case is Rank2Case.TWO_TERM and ppt_agrees(psi, phi_f, lam, r.verdict.status)
            agree += int(good)
            worst = max(worst, r.verdict.detail.get("residual", 0.0))

        # entangled branch: generic entangled pair at a generic weight
        phi0 = random_entangled_2x2(rng, 0.1)
        comp = random_basis_of_complement(rng, phi0)
        psi = next(s for s in comp if concurrence(s) > 0.05)
        lam = float(rng.uniform(0.1, 2.0))
        r = rank2_separability(psi, phi0, lam, tol)
        counts[r.case] += 1
        total += 1
        agree += int(ppt_agrees(psi, phi0, lam, r.verdict.status))

    covered = all(counts[c] >= per_case for c in (Rank2Case.BOTH_PRODUCT, Rank2Case.PSI_PRODUCT_LAMBDA_ZERO, Rank2Case.TWO_TERM, Rank2Case.ENTANGLED))
    return CheckResult(
        "lemma4_case_coverage_ppt_agreement",
        covered and agree == total,
        total,
        worst,
        detail=str({c.value: n for c, n in counts.items()}),
    )


def check_lemma5(seed: int, n_pairs: int = 100, tol: Tolerances = DEFAULT) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = 0
    total = 0
    worst = 0.0
    for i in range(n_pairs):
        if i % 2 == 0:
            phi, basis, k = _random_family_pair(rng)
            psi = basis[k]
            if concurrence(psi) < 1e-3:
                continue
        else:
            phi = random_entangled_2x2(rng, 0.1)
            comp = random_basis_of_complement(rng, phi)
            psi = next(s for s in comp if concurrence(s) > 0.1)
        res = antiparallel_test(psi, phi, tol)
        r_at = rank2_separability(psi, phi, res.lambda_star, tol)
        (kernel,), _ = separable_lambdas(phi, [psi], tol)
        total += 1
        # the rank-2 lemma reads the lambda kernel, so the anti-parallel test
        # is the independent reference: both follow it, at lambda* = C(psi)/C(phi)
        consistent = res.passed == (r_at.verdict.status is SepStatus.SEPARABLE) == (kernel is not None)
        consistent = consistent and (kernel is None or abs(kernel - res.lambda_star) <= 1e-9)
        flipped = True
        if res.passed:
            for d in (-1e-3, 1e-3):
                lam = res.lambda_star + d
                if lam < 0:
                    continue
                r_off = rank2_separability(psi, phi, lam, tol)
                flipped = flipped and r_off.verdict.status is SepStatus.ENTANGLED
        ok += int(consistent and flipped)
        worst = max(worst, res.angle_defect if res.passed else 0.0)
    return CheckResult("lemma5_lambda_star_consistency", ok == total, total, worst)


def check_lemma3_uniqueness(seed: int, n_states: int = 20) -> CheckResult:
    rng = np.random.default_rng(seed)
    space = StateSpace((2, 2, 2))
    errors = []
    for _ in range(n_states):
        t = float(rng.uniform(0.2, math.pi / 2 - 0.2))
        a = random_product_state(rng, space)
        # orthogonal product partner differing in all three parties
        factors_b = []
        for p, fa in enumerate(a.product.factors):
            fb = random_local_vector(rng, 2)
            fb = fb - fa * np.vdot(fa, fb)
            factors_b.append(fb / np.linalg.norm(fb))
        b = PureState(space, kron_all(factors_b))
        phi = PureState.normalized(space, math.cos(t) * a.amplitudes + math.sin(t) * b.amplitudes)
        for _ in range(5):
            # a companion from span{a, b}, so that the span holds the two
            # product vectors a and b
            x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            companion = PureState.normalized(space, x * a.amplitudes + y * b.amplitudes)
            if abs(companion.inner(phi)) > 0.99:
                continue
            span = span_roots(phi.amplitudes[None], companion.amplitudes, space.dims)
            if span.product[0].all() and not span.all_product[0]:
                # the product vectors v_j = s_j phi + t_j companion split phi as
                # (t2 v1 - t1 v2) / (s1 t2 - s2 t1), which must be the original split
                (s1, t1), (s2, t2) = span.roots[0]
                terms = np.array([t2, -t1])[:, None] * span.vectors[0] / (s1 * t2 - s2 * t1)
                refs = np.array([math.cos(t) * a.amplitudes, math.sin(t) * b.amplitudes])
                errors.append(min(np.linalg.norm(terms - r, axis=1).max() for r in (refs, refs[::-1])))
    # only the splits that were checked count, and a check with none fails
    worst = float(np.max(errors)) if errors else math.nan
    return CheckResult("lemma3_unique_two_term_decomposition", worst < 1e-7, len(errors), worst)


def suite_lemmas(seed: int = 42, tol: Tolerances = DEFAULT) -> list[CheckResult]:
    return [
        check_lemma1(seed, 200, tol),
        check_lemma3_uniqueness(seed + 1, 20),
        check_lemma4_cases(seed + 2, 50, tol),
        check_lemma5(seed + 3, 100, tol),
    ]


def _checked_dual(outcome, instance: DiscriminationInstance, tol: Tolerances) -> tuple[bool, float]:
    """Whether a solver outcome carries a dual certificate that validates,
    and its relative objective (inf without one)."""
    if outcome.dual is None:
        return False, np.inf
    checked = validate_certificate(outcome.dual, instance, tol)
    return checked["valid"], checked["objective"] / checked["scale"]


def agreement_experiment(seed: int, n_bases: int, tol: Tolerances = DEFAULT) -> CheckResult:
    """Analytic decider versus relaxed feasibility solver on random bases of
    {phi}^perp: mixed Haar bases (generically indistinguishable) and
    locally rotated family bases (distinguishable).  A distinguishable
    basis must be feasible, any other must end with a dual certificate that
    validates.  The margin is the least negative relative dual objective."""
    rng = np.random.default_rng(seed)
    agree = 0
    worst = -np.inf
    for i in range(n_bases):
        if i % 2 == 0:
            phi = random_entangled_2x2(rng, 0.05)
            basis = random_basis_of_complement(rng, phi)
        else:
            phi, basis, _ = _random_family_pair(rng)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            phi = PureState(QUBIT_PAIR, u @ phi.amplitudes)
            basis = [PureState(QUBIT_PAIR, u @ s.amplitudes) for s in basis]
        instance = DiscriminationInstance.from_pure(QUBIT_PAIR, basis, phi)
        verdict = decide(instance, tol)
        outcome = feasibility_solve(instance, tol)
        if verdict.status is VerdictStatus.DISTINGUISHABLE:
            good = outcome.feasible and outcome.residual < tol.feasibility
        else:
            good, relative = _checked_dual(outcome, instance, tol)
            worst = max(worst, relative)
        agree += int(good)
    return CheckResult(
        "decider_solver_agreement",
        agree == n_bases,
        n_bases,
        float(worst),
        detail=f"least negative relative dual objective {worst:.3e}",
    )


def check_concurrence_sum_grid(n: int = 20) -> CheckResult:
    worst = 0.0
    count = 0
    alphas = np.linspace(0.03, math.pi / 4, n)
    for a in alphas:
        for b in np.linspace(a, math.pi / 4, n):
            lo, hi = gamma_range(a, b)
            for g in np.linspace(lo, hi, n):
                phi, basis = family_sep_not_locc(FamilyParams(a, b, g))
                total = sum(concurrence(s) for s in basis)
                worst = max(worst, abs(total - concurrence(phi)))
                count += 1
    return CheckResult("concurrence_sum_identity", worst < 1e-9, count, worst)


def check_gamma_endpoints(n: int = 20) -> CheckResult:
    ok = 0
    count = 0
    worst = 0.0
    for a in np.linspace(0.03, math.pi / 4 - 0.02, n):
        for b in np.linspace(a + 0.01, math.pi / 4, n):
            lo, hi = gamma_range(a, b)
            for g, product_member in ((lo, 1), (hi, 2)):
                phi, basis = family_sep_not_locc(FamilyParams(a, b, g))
                cs = [concurrence(s) for s in basis]
                count += 1
                small = cs[product_member]
                others = [cs[j] for j in (1, 2) if j != product_member]
                ok += int(small < 1e-9 and all(c > 1e-9 for c in others))
                worst = max(worst, small)
    return CheckResult("gamma_endpoint_single_product", ok == count, count, worst)


def check_sep_not_locc(seed: int, n_samples: int = 100, tol: Tolerances = DEFAULT) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = 0
    for _ in range(n_samples):
        phi, basis, _ = _random_family_pair(rng)
        inst = DiscriminationInstance.from_pure(QUBIT_PAIR, basis, phi)
        verdict = decide(inst, tol)
        n_ent = sum(concurrence(s) > tol.rank for s in basis)
        cert_ok = verdict.certificate is not None and validate_certificate(verdict.certificate, inst, tol)["valid"]
        ok += int(
            verdict.status is VerdictStatus.DISTINGUISHABLE
            and n_ent >= 2
            and verdict.locc_flag is LoccFlag.LOCC_INDISTINGUISHABLE
            and cert_ok
        )
    return CheckResult("sep_not_locc_witness", ok == n_samples, n_samples, 0.0)


def suite_theorem2(seed: int = 42, tol: Tolerances = DEFAULT, n_bases: int = 1000) -> list[CheckResult]:
    return [
        agreement_experiment(seed, n_bases, tol),
        check_concurrence_sum_grid(20),
        check_gamma_endpoints(20),
        check_sep_not_locc(seed + 5, 100, tol),
    ]


def tetra_walk(step: float, tol: Tolerances = DEFAULT):
    """Each tetrahedron grid point with its unitary, the concurrence triple
    that unitary achieves, and the verdict on the basis it builds over the
    magic states spanning {phi}^perp, phi the fourth magic state."""
    phi = magic_basis()[3]
    for point in tetra_grid(step):
        u = tetra_unitary(TetraPoint(*point))
        verdict = decide(DiscriminationInstance.from_pure(QUBIT_PAIR, basis_from_unitary(u), phi), tol)
        yield point, u, concurrence_triple_of_unitary(u), verdict


def check_tetra(step: float = 0.05, tol: Tolerances = DEFAULT) -> tuple[CheckResult, CheckResult]:
    """Round trip of every grid point through its unitary, and the verdict
    on its basis: distinguishable exactly on the face x1 + x2 + x3 = 1."""
    worst_err = 0.0
    worst_defect = 0.0
    ok = 0
    count = 0
    for (x1, x2, x3), u, achieved, verdict in tetra_walk(step, tol):
        worst_err = max(worst_err, float(np.max(np.abs(achieved - np.array([x1, x2, x3])))))
        worst_defect = max(worst_defect, maxabs(u.conj().T @ u - np.eye(3)))
        on_face = abs((x1 + x2 + x3) - 1.0) <= 1e-9
        expected = VerdictStatus.DISTINGUISHABLE if on_face else VerdictStatus.INDISTINGUISHABLE
        ok += int(verdict.status is expected)
        count += 1
    round_trip = CheckResult(
        "tetra_round_trip",
        worst_err < 1e-8 and worst_defect < 1e-10,
        count,
        worst_err,
        detail=f"unitarity defect {worst_defect:.2e}",
    )
    return round_trip, CheckResult("tetra_face_interior_decisions", ok == count, count, 0.0)


def check_unitary_triples_membership(seed: int, n: int = 1000) -> CheckResult:
    triples = sample_unitary_triples(np.random.default_rng(seed), n)
    bad = sum(not in_tetrahedron(x, slack=1e-9) for x in triples)
    return CheckResult("unitary_triples_inside_tetrahedron", bad == 0, n, float(bad))


def suite_tetra(seed: int = 42, tol: Tolerances = DEFAULT) -> list[CheckResult]:
    return [*check_tetra(0.05, tol), check_unitary_triples_membership(seed + 7, 1000)]


def check_subspace_properties(kind: SubspaceFamily, tol: Tolerances = DEFAULT) -> CheckResult:
    spec = indistinguishable_subspace(kind)
    report = verify_subspace_properties(spec, tol)
    detail = {
        "p0": report.p0.detail,
        "p1": report.p1.detail,
        "p2": report.p2.detail,
    }
    count = report.p1.detail["checked"] + report.p2.detail["checked"]
    return CheckResult(f"subspace_{kind.value}_properties", report.all_passed, count, 0.0, detail=str(detail))


def check_subspace_duals(
    kind: SubspaceFamily,
    seed: int,
    n_bases: int = 20,
    tol: Tolerances = DEFAULT,
) -> CheckResult:
    """Haar-rotated bases of the subspace's orthocomplement: each must end
    with a dual certificate of PPT infeasibility that validates.  The
    margin is the least negative relative objective."""
    rng = np.random.default_rng(seed)
    spec = indistinguishable_subspace(kind)
    cols = np.column_stack([s.amplitudes for s in spec.complement])
    dim = len(spec.complement)
    ok = 0
    worst = -np.inf
    for _ in range(n_bases):
        mixed = cols @ random_unitary(rng, dim)
        instance = DiscriminationInstance.from_pure(spec.space, [PureState(spec.space, mixed[:, j]) for j in range(dim)])
        valid, relative = _checked_dual(feasibility_solve(instance, tol), instance, tol)
        ok += int(valid)
        worst = max(worst, relative)
    return CheckResult(
        f"subspace_{kind.value}_ppt_dual",
        ok == n_bases,
        n_bases,
        float(worst),
        detail=f"least negative relative dual objective {worst:.3e}",
    )


def suite_subspaces(seed: int = 42, tol: Tolerances = DEFAULT) -> list[CheckResult]:
    return [
        check_subspace_properties(SubspaceFamily.BIPARTITE_3X3_DIM7, tol),
        check_subspace_properties(SubspaceFamily.TRIPARTITE_222_DIM6, tol),
        check_subspace_duals(SubspaceFamily.BIPARTITE_3X3_DIM7, seed + 11, 20, tol),
        check_subspace_duals(SubspaceFamily.TRIPARTITE_222_DIM6, seed + 12, 20, tol),
    ]


SUITES = {
    "lemmas": suite_lemmas,
    "theorem2": suite_theorem2,
    "tetra": suite_tetra,
    "subspaces": suite_subspaces,
}
