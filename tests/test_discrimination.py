import math
import sys

import numpy as np
import pytest

import sepdisc.discrimination as disc
import sepdisc.separability as separability
import sepdisc.tensor_rank as tensor_rank
from sepdisc.config import DEFAULT
from sepdisc.constructions import FamilyParams, family_sep_not_locc, gamma_range, locc_basis_sch2
from sepdisc.errors import DimensionMismatch, InvalidInstance, PhiProduct
from sepdisc.linalg import kron_all, partial_transpose
from sepdisc.discrimination import (
    DiscriminationInstance,
    LoccFlag,
    SubspaceKind,
    VerdictStatus,
    _lambda_certificate,
    decide,
    subspace_verdict,
    validate_certificate,
)
from sepdisc.sampling import (
    random_basis_of_complement,
    random_entangled_2x2,
    random_product_basis,
    random_pure_state,
    random_unitary,
)
from sepdisc.separability import (
    PptRecord,
    ProductDecomposition,
    SepStatus,
    feasibility_solve,
    rank2_separability,
    try_product_decomposition,
)
from sepdisc.states import (
    PureState,
    QUBIT_PAIR,
    StateSpace,
    basis_state,
    concurrence,
    ket,
    magic_basis,
    orthonormal_completion,
    phi_plus,
)
from sepdisc.tensor_rank import is_product, proper_cuts, try_factor
from tests.conftest import bell, decide_with_phi, ghz_theta, w_state

S3 = StateSpace((2, 2, 2))


def _family(alpha=0.3, beta=0.4, frac=0.5):
    lo, hi = gamma_range(alpha, beta)
    return family_sep_not_locc(FamilyParams(alpha, beta, lo + frac * (hi - lo)))


class TestFullBasis:
    def test_standard_basis_distinguishable(self):
        basis = [ket(QUBIT_PAIR, f"{i}{j}") for i in range(2) for j in range(2)]
        inst = DiscriminationInstance.from_pure(QUBIT_PAIR, basis)
        v = decide(inst)
        assert v.status is VerdictStatus.DISTINGUISHABLE
        assert v.theorem == "T1"
        assert validate_certificate(v.certificate, inst)["valid"]

    def test_bell_basis_indistinguishable(self):
        basis = [phi_plus(), bell("phi-"), bell("psi+"), bell("psi-")]
        inst = DiscriminationInstance.from_pure(QUBIT_PAIR, basis)
        v = decide(inst)
        assert v.status is VerdictStatus.INDISTINGUISHABLE
        assert v.reason.code == "entangled_member"

    def test_random_product_bases(self, rng):
        for space in (QUBIT_PAIR, StateSpace((3, 3))):
            for _ in range(5):
                basis = random_product_basis(rng, space)
                v = decide(DiscriminationInstance.from_pure(space, basis))
                assert v.status is VerdictStatus.DISTINGUISHABLE

    def test_random_mixed_bases_indistinguishable(self, rng):
        for _ in range(5):
            u = random_unitary(rng, 4)
            basis = [PureState(QUBIT_PAIR, u[:, j]) for j in range(4)]
            if all(concurrence(s) < 1e-9 for s in basis):
                continue
            v = decide(DiscriminationInstance.from_pure(QUBIT_PAIR, basis))
            assert v.status is VerdictStatus.INDISTINGUISHABLE


class TestTwoQubitBasis:
    def test_family_distinguishable_with_flag(self):
        phi, basis = _family()
        v = decide_with_phi(phi, basis)
        assert v.status is VerdictStatus.DISTINGUISHABLE
        assert v.theorem == "T2"
        assert v.locc_flag is LoccFlag.LOCC_INDISTINGUISHABLE
        inst = DiscriminationInstance.from_pure(QUBIT_PAIR, basis, phi)
        assert validate_certificate(v.certificate, inst)["valid"]

    def test_bell_triple_concurrence_sum(self):
        v = decide_with_phi(phi_plus(), [bell("phi-"), bell("psi+"), bell("psi-")])
        assert v.status is VerdictStatus.INDISTINGUISHABLE
        assert v.reason.code == "concurrence_sum"
        assert abs(v.reason.data["sum"] - 3.0) < 1e-9

    def test_one_zero_zero_basis(self):
        v = decide_with_phi(phi_plus(), [bell("phi-"), ket(QUBIT_PAIR, "01"), ket(QUBIT_PAIR, "10")])
        assert v.status is VerdictStatus.DISTINGUISHABLE
        assert np.allclose(v.certificate.lambdas, [1.0, 0.0, 0.0])

    def test_lambda_uniqueness_perturbation(self):
        phi, basis = _family()
        v = decide_with_phi(phi, basis)
        for psi, lam in zip(basis, v.certificate.lambdas):
            for d in (-1e-3, 1e-3):
                lam_p = lam + d
                if lam_p < 0:
                    continue
                r = rank2_separability(psi, phi, lam_p)
                assert r.verdict.status is SepStatus.ENTANGLED


class TestMaxEntBasis:
    def test_equal_thirds(self):
        from sepdisc.constructions import TetraPoint, basis_from_unitary, tetra_unitary

        basis = basis_from_unitary(tetra_unitary(TetraPoint(1 / 3, 1 / 3, 1 / 3)))
        v = decide_with_phi(magic_basis()[3], basis)
        assert v.status is VerdictStatus.DISTINGUISHABLE
        assert v.theorem == "C2"

    def test_product_members_fail_sum(self):
        basis = [ket(QUBIT_PAIR, "01"), ket(QUBIT_PAIR, "10"), None]
        # complete the two products to a basis of {phi+}^perp with bell("phi-")
        basis[2] = bell("phi-")
        # reorder so the residual state is phi+
        v = decide_with_phi(phi_plus(), [basis[0], basis[1], basis[2]])
        assert v.status is VerdictStatus.DISTINGUISHABLE  # concurrences (0,0,1)

        all_product = [ket(QUBIT_PAIR, "01"), ket(QUBIT_PAIR, "10"), bell("phi+") if False else None]
        # a genuinely failing sum: three states with concurrences (1,1,1)
        v = decide_with_phi(phi_plus(), [bell("phi-"), bell("psi+"), bell("psi-")])
        assert v.status is VerdictStatus.INDISTINGUISHABLE


class TestDispatcher:
    def test_declared_phi_routes_2x2(self):
        phi, basis = _family()
        inst = DiscriminationInstance.from_pure(QUBIT_PAIR, basis, phi)
        v = decide(inst)
        assert v.status is VerdictStatus.DISTINGUISHABLE
        assert v.theorem == "T2"

    def test_undeclared_phi_computed(self):
        phi, basis = _family()
        inst = DiscriminationInstance.from_pure(QUBIT_PAIR, basis)
        v = decide(inst)
        assert v.status is VerdictStatus.DISTINGUISHABLE

    def test_product_phi_product_basis(self):
        basis = [ket(QUBIT_PAIR, "01"), ket(QUBIT_PAIR, "10"), ket(QUBIT_PAIR, "11")]
        inst = DiscriminationInstance.from_pure(QUBIT_PAIR, basis, ket(QUBIT_PAIR, "00"))
        v = decide(inst)
        assert v.status is VerdictStatus.DISTINGUISHABLE
        assert validate_certificate(v.certificate, inst)["valid"]

    def test_product_phi_entangled_member(self):
        phi = ket(QUBIT_PAIR, "00")
        entangled = PureState.normalized(
            QUBIT_PAIR, ket(QUBIT_PAIR, "01").amplitudes + ket(QUBIT_PAIR, "10").amplitudes
        )
        other = PureState.normalized(
            QUBIT_PAIR, ket(QUBIT_PAIR, "01").amplitudes - ket(QUBIT_PAIR, "10").amplitudes
        )
        inst = DiscriminationInstance.from_pure(
            QUBIT_PAIR, [entangled, other, ket(QUBIT_PAIR, "11")], phi
        )
        v = decide(inst)
        assert v.status is VerdictStatus.INDISTINGUISHABLE
        assert v.reason.code == "entangled_member_product_phi"

    def test_w_complement_indistinguishable(self, rng):
        w = w_state(S3)
        basis = random_basis_of_complement(rng, w)
        inst = DiscriminationInstance.from_pure(S3, basis, w)
        v = decide(inst)
        assert v.status is VerdictStatus.INDISTINGUISHABLE
        assert v.theorem == "T6"

    def test_three_products_plus_one_distinguishable(self):
        # a completable product triple plus an entangled companion
        products = [ket(S3, "000"), ket(S3, "011"), ket(S3, "101")]
        companion = PureState.normalized(
            S3, ket(S3, "110").amplitudes + ket(S3, "001").amplitudes
        )
        inst = DiscriminationInstance.from_pure(S3, products + [companion])
        v = decide(inst)
        assert v.status is VerdictStatus.DISTINGUISHABLE
        assert v.theorem == "T1"
        assert validate_certificate(v.certificate, inst)["valid"]
        # the certificate is itself a verified point of the relaxed
        # feasibility problem
        assert v.diagnostics["feasibility"]["residual"] < 1e-7

    def test_projector_instance_full_span(self):
        p_bell = phi_plus().density() + bell("phi-").density()
        p_rest = ket(QUBIT_PAIR, "01").density() + ket(QUBIT_PAIR, "10").density()
        inst = DiscriminationInstance.from_projectors(QUBIT_PAIR, [p_bell, p_rest])
        v = decide(inst)
        # the bell block is separable (|00><00| + |11><11| span), the rest too
        assert v.status is VerdictStatus.DISTINGUISHABLE

    def test_projector_certificate_validates_for_higher_rank(self):
        # tr(E_k P_j) is delta_kj tr(P_j), which is 3 for the complement
        p00 = ket(QUBIT_PAIR, "00").density()
        inst = DiscriminationInstance.from_projectors(QUBIT_PAIR, [p00, np.eye(4) - p00])
        v = decide(inst)
        assert v.status is VerdictStatus.DISTINGUISHABLE
        check = validate_certificate(v.certificate, inst)
        assert check["correctness"] < 1e-12
        assert check["valid"]

    def test_projector_instance_entangled_block(self):
        p1 = phi_plus().density()
        p2 = np.eye(4) - p1
        inst = DiscriminationInstance.from_projectors(QUBIT_PAIR, [p1, p2])
        v = decide(inst)
        assert v.status is VerdictStatus.INDISTINGUISHABLE


class TestH3:
    def test_ghz_locc_basis(self):
        phi = ghz_theta(S3, math.pi / 6)
        basis = locc_basis_sch2(phi)
        v = decide_with_phi(phi, basis)
        assert v.status is VerdictStatus.DISTINGUISHABLE
        assert v.theorem == "T5"
        inst = DiscriminationInstance.from_pure(S3, basis, phi)
        assert validate_certificate(v.certificate, inst)["valid"]

    def test_two_entangled_members_rejected(self):
        phi = ghz_theta(S3, 0.5)
        basis = locc_basis_sch2(phi)
        # mix two product members from different sectors (they differ on at
        # least two parties, so the mixtures are genuinely entangled)
        products = basis[1:]
        i, j = 0, None
        from sepdisc.tensor_rank import entry_distance, try_factor

        pv_i = try_factor(products[i].amplitudes, S3.dims)
        for cand in range(1, len(products)):
            pv_c = try_factor(products[cand].amplitudes, S3.dims)
            if entry_distance(pv_i, pv_c) >= 2:
                j = cand
                break
        assert j is not None
        v1, v2 = products[i].amplitudes, products[j].amplitudes
        mixed1 = PureState.normalized(S3, (v1 + v2) / math.sqrt(2))
        mixed2 = PureState.normalized(S3, (v1 - v2) / math.sqrt(2))
        assert not is_product(mixed1)
        tampered = [basis[0], mixed1, mixed2] + [
            s for k, s in enumerate(products) if k not in (i, j)
        ]
        v = decide_with_phi(phi, tampered)
        assert v.status is VerdictStatus.INDISTINGUISHABLE
        assert v.reason.code == "entangled_count"

    def test_wrong_entangled_member(self):
        # swap the unique entangled member for an orthogonal state that mixes
        # in a product of the complement: the overlap check rejects it
        phi = ghz_theta(S3, 0.5)
        basis = locc_basis_sch2(phi)
        good = basis[0]
        prod = basis[1]
        wrong = PureState.normalized(S3, 0.8 * good.amplitudes + 0.6 * prod.amplitudes)
        other = PureState.normalized(S3, 0.6 * good.amplitudes - 0.8 * prod.amplitudes)
        tampered = [wrong, other] + basis[2:]
        v = decide_with_phi(phi, tampered)
        assert v.status is VerdictStatus.INDISTINGUISHABLE
        assert v.reason.code in ("wrong_entangled_member", "entangled_count")


class TestMultipartiteSch2:
    def _embed_family(self, alpha=0.3, beta=0.4, frac=0.5):
        phi22, fam = _family(alpha, beta, frac)
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        phi = PureState.normalized(S3, np.kron(e0, phi22.amplitudes))
        basis = [PureState.normalized(S3, np.kron(e0, s.amplitudes)) for s in fam]
        for i in range(2):
            for j in range(2):
                basis.append(PureState(S3, kron_all([e1, np.eye(2)[:, i], np.eye(2)[:, j]])))
        return phi, basis

    def test_embedded_family_distinguishable(self):
        phi, basis = self._embed_family()
        v = decide_with_phi(phi, basis)
        assert v.status is VerdictStatus.DISTINGUISHABLE
        assert v.theorem == "T4"
        inst = DiscriminationInstance.from_pure(S3, basis, phi)
        assert validate_certificate(v.certificate, inst)["valid"]

    def test_prefix_mismatch_indistinguishable(self):
        phi, basis = self._embed_family()
        e1 = np.array([0, 1], dtype=complex)
        _, fam = _family()
        bad = PureState.normalized(S3, np.kron(e1, fam[0].amplitudes))
        rest = orthonormal_completion([phi, bad])
        inst = DiscriminationInstance.from_pure(S3, [bad] + rest, phi)
        v = decide(inst)
        assert v.status is VerdictStatus.INDISTINGUISHABLE
        assert v.reason.code == "prefix_mismatch"

    def test_bipartite_3x3_embedded_family(self):
        # two qutrits, residual state entangled on the {0,1}x{0,1} block: the
        # embedded concurrence-sum decider applies with an empty prefix
        s33 = StateSpace((3, 3))
        phi22, fam = _family()

        def embed(vec4):
            out = np.zeros(9, dtype=complex)
            out[[0, 1, 3, 4]] = vec4  # row-major {0,1}x{0,1} block of 3x3
            return out

        phi = PureState.normalized(s33, embed(phi22.amplitudes))
        basis = [PureState.normalized(s33, embed(s.amplitudes)) for s in fam]
        for i, j in [(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)]:
            basis.append(basis_state(s33, (i, j)))
        inst = DiscriminationInstance.from_pure(s33, basis, phi)
        v = decide(inst)
        assert v.status is VerdictStatus.DISTINGUISHABLE
        assert v.theorem == "T4"
        assert validate_certificate(v.certificate, inst)["valid"]

    def test_embedding_violation_indistinguishable(self):
        # an entangled member sharing the prefix but using a third level of
        # the second pair needs a 2x3 embedding, which is disallowed
        s223 = StateSpace((2, 2, 3))
        e0 = np.array([1, 0], dtype=complex)
        phi22, _ = _family()
        pad = np.zeros(6, dtype=complex)
        pad[[0, 1, 3, 4]] = phi22.amplitudes  # embed 2x2 into 2x3
        phi = PureState.normalized(s223, np.kron(e0, pad))
        outside = np.zeros(6, dtype=complex)
        outside[[1, 5]] = [1 / math.sqrt(2), 1 / math.sqrt(2)]  # uses level 2
        bad = PureState.normalized(s223, np.kron(e0, outside))
        assert abs(phi.inner(bad)) < 1e-12
        rest = orthonormal_completion([phi, bad])
        inst = DiscriminationInstance.from_pure(s223, [bad] + rest, phi)
        v = decide(inst)
        assert v.status is VerdictStatus.INDISTINGUISHABLE
        assert v.reason.code in ("embedding_failed", "antiparallel_failed", "concurrence_sum")


class TestSubspaceVerdict:
    def test_w_no_basis(self):
        sv = subspace_verdict(w_state(S3))
        assert sv.kind is SubspaceKind.NO_DISTINGUISHABLE_BASIS

    def test_ghz_has_locc_basis(self):
        for theta in np.linspace(0.2, math.pi / 2 - 0.2, 5):
            sv = subspace_verdict(ghz_theta(S3, theta))
            assert sv.kind is SubspaceKind.HAS_LOCC_BASIS
            v = decide_with_phi(ghz_theta(S3, theta), list(sv.basis))
            assert v.status is VerdictStatus.DISTINGUISHABLE

    def test_superposed_product_no_basis(self):
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        vec = 0.6 * ket(S3, "000").amplitudes + 0.8 * kron_all([plus] * 3)
        sv = subspace_verdict(PureState.normalized(S3, vec))
        assert sv.kind is SubspaceKind.NO_DISTINGUISHABLE_BASIS

    def test_product_phi_rejected(self):
        with pytest.raises(PhiProduct):
            subspace_verdict(ket(S3, "000"))


def test_instance_validation():
    with pytest.raises(InvalidInstance):
        DiscriminationInstance.from_pure(QUBIT_PAIR, [phi_plus(), phi_plus()])
    with pytest.raises(InvalidInstance):
        DiscriminationInstance.from_pure(QUBIT_PAIR, [phi_plus()], phi_plus())
    # states and phi from another space
    s33 = StateSpace((3, 3))
    with pytest.raises(InvalidInstance):
        DiscriminationInstance.from_pure(QUBIT_PAIR, [ket(s33, "00"), ket(s33, "01")])
    with pytest.raises(InvalidInstance):
        DiscriminationInstance.from_pure(QUBIT_PAIR, [ket(QUBIT_PAIR, l) for l in ("00", "01", "10")], ket(s33, "11"))
    # no projector, a projector of the wrong shape, overlapping projectors
    with pytest.raises(InvalidInstance):
        DiscriminationInstance.from_projectors(QUBIT_PAIR, [])
    with pytest.raises(InvalidInstance):
        DiscriminationInstance.from_projectors(QUBIT_PAIR, [np.diag([1, 0, 0])])
    with pytest.raises(InvalidInstance):
        DiscriminationInstance.from_projectors(QUBIT_PAIR, [phi_plus().density(), phi_plus().density()])


def test_try_product_decomposition_diagonal():
    op = np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex)
    dec = try_product_decomposition(op, QUBIT_PAIR)
    assert dec is not None
    assert dec.residual(op) < 1e-10
    bellop = phi_plus().density()
    assert try_product_decomposition(bellop, QUBIT_PAIR) is None


def test_lambda_certificate_failure_names_member_theorem_and_flag():
    phi, basis = _family()
    good = decide_with_phi(phi, basis)
    assert good.status is VerdictStatus.DISTINGUISHABLE
    # moving lambda off C(psi)/C(phi) leaves the first entangled member's
    # element entangled
    lambdas = list(good.certificate.lambdas)
    k = next(j for j, s in enumerate(basis) if concurrence(s) > 1e-6)
    lambdas[k] += 1e-3
    v = _lambda_certificate(basis, phi, lambdas, "T2", DEFAULT, LoccFlag.LOCC_INDISTINGUISHABLE, {})
    assert v.status is VerdictStatus.UNDECIDED
    assert v.theorem == "T2"
    assert v.locc_flag is LoccFlag.LOCC_INDISTINGUISHABLE
    assert v.reason.code == "internal_inconsistency"
    assert v.reason.data["member"] == k
    assert v.certificate is None


def test_entangled_rank1_projector_costs_one_factor_attempt(monkeypatch):
    calls = []

    def counting(vec, dims, *args, **kwargs):
        calls.append(1)
        return try_factor(vec, dims, *args, **kwargs)

    monkeypatch.setattr(separability, "try_factor", counting)
    psi = random_pure_state(np.random.default_rng(3), S3)
    assert separability.try_product_decomposition(psi.density(), S3) is None
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["product", "haar", "bell"])
def test_full_span_pure_and_projector_forms_agree(kind):
    rng = np.random.default_rng(8)
    if kind == "product":
        basis = random_product_basis(rng, QUBIT_PAIR)
    elif kind == "haar":
        u = random_unitary(rng, 4)
        basis = [PureState(QUBIT_PAIR, u[:, k]) for k in range(4)]
    else:
        basis = [bell(w) for w in ("phi+", "phi-", "psi+", "psi-")]
    pure = decide(DiscriminationInstance.from_pure(QUBIT_PAIR, basis))
    proj = decide(DiscriminationInstance.from_projectors(QUBIT_PAIR, [s.density() for s in basis]))
    assert pure.status is proj.status
    assert pure.theorem == proj.theorem == "T1"
    assert (pure.reason and pure.reason.code) == (proj.reason and proj.reason.code)
    assert (pure.reason and pure.reason.message) == (proj.reason and proj.reason.message)
    want = VerdictStatus.DISTINGUISHABLE if kind == "product" else VerdictStatus.INDISTINGUISHABLE
    assert pure.status is want


def test_two_product_states_take_the_completability_path():
    basis = random_product_basis(np.random.default_rng(0), QUBIT_PAIR)[:2]
    inst = DiscriminationInstance.from_pure(QUBIT_PAIR, basis)
    v = decide(inst)
    assert v.status is VerdictStatus.DISTINGUISHABLE
    assert v.diagnostics["path"] == "completability"
    assert validate_certificate(v.certificate, inst)["valid"]


def _two_haar_states(seed: int) -> DiscriminationInstance:
    u = random_unitary(np.random.default_rng(seed), 4)
    return DiscriminationInstance.from_pure(QUBIT_PAIR, [PureState(QUBIT_PAIR, u[:, k]) for k in range(2)])


def test_ppt_records_carry_the_measured_minimum():
    inst = _two_haar_states(5)
    v = decide(inst)
    assert v.status is VerdictStatus.DISTINGUISHABLE
    assert "iterations" in v.diagnostics  # the Dykstra path ran
    for el, rec in zip(v.certificate.elements, v.certificate.evidence):
        assert isinstance(rec, PptRecord) and rec.exact
        rho = el / np.trace(el).real
        want = min(np.linalg.eigvalsh(partial_transpose(rho, (2, 2), cut))[0] for cut in rec.cuts)
        assert abs(rec.min_eigenvalue - want) <= 1e-12


def _solver_certificate(seed: int):
    """The relaxed solver's point for two Haar states of 2x2, with a PPT
    record per element."""
    inst = _two_haar_states(seed)
    outcome = feasibility_solve(inst)
    assert outcome.feasible
    elements = tuple(p + e for p, e in zip(inst.projector_list(), outcome.e_ops))
    records = tuple(PptRecord(0.0, True, tuple(proper_cuts(2))) for _ in elements)
    return inst, disc.PovmCertificate(elements, records, None)


def test_validator_recomputes_ppt_evidence():
    # seed 0: an element's partial transpose dips to -4.2e-8, below the PSD
    # bound, so the PPT record proves nothing, whatever minimum it claims
    inst, cert = _solver_certificate(0)
    check = validate_certificate(cert, inst)
    assert -5e-8 < check["ppt_min"] < -4e-8
    assert not check["valid"]
    # seed 5: every partial transpose is PSD with room to spare
    inst, cert = _solver_certificate(5)
    check = validate_certificate(cert, inst)
    assert check["ppt_min"] > 1e-3
    assert check["valid"]


def test_solver_verdicts_pass_their_certificate_check():
    for seed in range(12):
        inst = _two_haar_states(seed)
        v = decide(inst)
        if v.status is VerdictStatus.DISTINGUISHABLE:
            assert validate_certificate(v.certificate, inst)["valid"], seed
        if seed == 0:
            # the solver point is feasible within tolerance but not PPT to
            # the floor, and it has no product decomposition
            assert v.status is VerdictStatus.UNDECIDED
            assert v.reason.code == "ppt_feasible_relaxation"


def test_ppt_record_outside_2x2_and_2x3_is_rejected():
    s33 = StateSpace((3, 3))
    basis = [basis_state(s33, (i, j)) for i in range(3) for j in range(3)]
    inst = DiscriminationInstance.from_pure(s33, basis)
    cert = decide(inst).certificate
    record = PptRecord(0.0, True, ((0,),))
    forged = disc.PovmCertificate(cert.elements, (record,) * len(cert.elements), None)
    check = validate_certificate(forged, inst)
    assert check["ppt_min"] >= 0.0
    assert not check["evidence_exact"]
    assert not check["valid"]


def test_certificate_counts_must_match_the_members():
    # four entangled basis projectors are a complete, correct POVM with no
    # evidence that its elements are separable
    u = random_unitary(np.random.default_rng(2), 4)
    basis = [PureState(QUBIT_PAIR, u[:, j]) for j in range(4)]
    bare = disc.PovmCertificate(tuple(s.density() for s in basis), (), None)
    check = validate_certificate(bare, DiscriminationInstance.from_pure(QUBIT_PAIR, basis))
    assert check["completeness"] <= 1e-8 and check["correctness"] <= 1e-7
    assert not check["counts_ok"] and not check["valid"]
    # a valid lambda certificate with its evidence cut short, or a lambda added
    phi, states = _family()
    inst = DiscriminationInstance.from_pure(QUBIT_PAIR, states, phi)
    cert = decide(inst).certificate
    assert validate_certificate(cert, inst)["valid"]
    short = disc.PovmCertificate(cert.elements, cert.evidence[:-1], cert.lambdas)
    padded = disc.PovmCertificate(cert.elements, cert.evidence, cert.lambdas + (0.0,))
    for forged in (short, padded):
        assert not validate_certificate(forged, inst)["valid"]
    # elements of the wrong size, and product evidence on 3x3 factors
    full = DiscriminationInstance.from_pure(QUBIT_PAIR, [ket(QUBIT_PAIR, f"{i}{j}") for i in range(2) for j in range(2)])
    s33 = StateSpace((3, 3))
    qutrit = ProductDecomposition((1.0,), (try_factor(basis_state(s33, (0, 0)).amplitudes, s33.dims),))
    forgeries = [
        disc.PovmCertificate((np.eye(2) / 2.0,) * 4, (None,) * 4, None),
        disc.PovmCertificate((np.eye(3) / 3.0,) * 4, (None,) * 4, None),
        disc.PovmCertificate(decide(full).certificate.elements, (qutrit,) * 4, None),
    ]
    for forged in forgeries:
        check = validate_certificate(forged, full)
        assert not check["counts_ok"] and not check["valid"]
    # a zero or NaN product vector cannot be built; a zero element with a
    # PPT record (its trace is 0) and a NaN element fail without raising
    cert = decide(full).certificate
    e00 = np.eye(2)[0]
    for factors, weight in (((e00, e00), 0.0), ((e00, e00), np.nan), ((e00, np.full(2, np.nan)), 1.0)):
        with pytest.raises(DimensionMismatch):
            tensor_rank.ProductVector(factors, weight)
    ppt = PptRecord(0.0, True, tuple(proper_cuts(2)))
    forgeries = [
        disc.PovmCertificate((np.zeros((4, 4)),) + cert.elements[1:], (ppt,) * 4, None),
        disc.PovmCertificate((np.full((4, 4), np.nan),) + cert.elements[1:], cert.evidence, None),
    ]
    for forged in forgeries:
        assert not validate_certificate(forged, full)["valid"]
    # a one-factor "product" vector is any vector: the Bell projectors with
    # themselves as evidence reassemble exactly but prove nothing
    bells = [bell(w) for w in ("phi+", "phi-", "psi+", "psi-")]
    bell_inst = DiscriminationInstance.from_pure(QUBIT_PAIR, bells)
    unfactored = tuple(ProductDecomposition((1.0,), (tensor_rank.ProductVector((s.amplitudes,)),)) for s in bells)
    forged = disc.PovmCertificate(tuple(s.density() for s in bells), unfactored, None)
    check = validate_certificate(forged, bell_inst)
    assert not check["counts_ok"] and not check["valid"]
    # every Hermitian matrix is a signed sum of product projectors: each Bell
    # projector is (II +- XX +- YY +- ZZ)/4, split over the Paulis' eigenvectors
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]

    def signed(rho):
        weights, vectors = [], []
        for p in paulis:
            vals, vecs = np.linalg.eigh(p)
            for i in range(2):
                for j in range(2):
                    weights.append(float(np.real(np.trace(np.kron(p, p) @ rho))) / 4 * vals[i] * vals[j])
                    vectors.append(tensor_rank.ProductVector((vecs[:, i], vecs[:, j])))
        return ProductDecomposition(tuple(weights), tuple(vectors))

    forged = disc.PovmCertificate(tuple(s.density() for s in bells), tuple(signed(s.density()) for s in bells), None)
    check = validate_certificate(forged, bell_inst)
    assert decide(bell_inst).status is VerdictStatus.INDISTINGUISHABLE
    assert check["counts_ok"] and check["evidence_residual"] < 1e-12
    assert not check["evidence_exact"] and not check["valid"]


def _prefixed(phi, basis):
    """e0 (x) phi and e0 (x) basis, completed by the four products e1 (x) |ij>."""
    e0, e1 = np.eye(2, dtype=complex)
    lifted = [PureState(S3, np.kron(e0, s.amplitudes)) for s in basis]
    lifted += [PureState(S3, kron_all([e1, np.eye(2)[:, i], np.eye(2)[:, j]])) for i in range(2) for j in range(2)]
    return PureState(S3, np.kron(e0, phi.amplitudes)), lifted


def test_product_prefix_leaves_the_2x2_verdict_unchanged():
    rng = np.random.default_rng(11)
    cases = [_family(frac=frac) for frac in (0.0, 0.5, 1.0)]
    for _ in range(6):
        alpha = float(rng.uniform(0.05, math.pi / 4 - 0.05))
        phi, basis = _family(alpha, float(rng.uniform(alpha + 0.01, math.pi / 4)), float(rng.uniform(0.1, 0.9)))
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        cases.append((PureState(QUBIT_PAIR, u @ phi.amplitudes), [PureState(QUBIT_PAIR, u @ s.amplitudes) for s in basis]))
    for _ in range(6):
        phi = random_entangled_2x2(rng, 0.05)
        cases.append((phi, random_basis_of_complement(rng, phi)))
    statuses = set()
    for phi, basis in cases:
        flat = decide(DiscriminationInstance.from_pure(QUBIT_PAIR, basis, phi))
        phi3, basis3 = _prefixed(phi, basis)
        lifted = decide(DiscriminationInstance.from_pure(S3, basis3, phi3))
        assert lifted.theorem == "T4"
        assert lifted.status is flat.status
        assert (lifted.reason is None) == (flat.reason is None)
        if flat.reason is not None:
            assert lifted.reason.code == flat.reason.code
        if flat.certificate is not None:
            lam = lifted.certificate.lambdas
            assert np.max(np.abs(np.subtract(lam[:3], flat.certificate.lambdas))) <= 1e-12
            assert lam[3:] == (0.0,) * 4
        statuses.add(flat.status)
    assert statuses == {VerdictStatus.DISTINGUISHABLE, VerdictStatus.INDISTINGUISHABLE}


def _counting(monkeypatch, name):
    """Record the arguments of every call to a tensor_rank function through
    every sepdisc module that binds it."""
    fn = getattr(tensor_rank, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("sepdisc") and getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, counting)
    return calls


def _ghz_type_t5_instance():
    rng = np.random.default_rng(7)
    us = [random_unitary(rng, 2) for _ in range(3)]
    a, b = kron_all([u[:, 0] for u in us]), kron_all([u[:, 1] for u in us])
    phi = PureState.normalized(S3, 0.6 * a + 0.8 * b)
    return DiscriminationInstance.from_pure(S3, locc_basis_sch2(phi), phi)


def test_t5_residual_state_is_classified_once(monkeypatch):
    inst = _ghz_type_t5_instance()
    calls = _counting(monkeypatch, "schmidt2_classify")
    v = decide(inst)
    assert v.status is VerdictStatus.DISTINGUISHABLE and v.theorem == "T5"
    assert len(calls) == 1


def test_2x2_cut_rank_is_computed_once(monkeypatch):
    rng = np.random.default_rng(7)
    phi = random_entangled_2x2(rng, 0.05)
    inst = DiscriminationInstance.from_pure(QUBIT_PAIR, random_basis_of_complement(rng, phi), phi)
    calls = _counting(monkeypatch, "cut_rank")
    v = decide(inst)
    assert v.theorem == "T2"
    assert len(calls) == 1


def _assert_each_vector_factored_once(monkeypatch, inst, theorem):
    calls = _counting(monkeypatch, "try_factor")
    v = decide(inst)
    assert v.status is VerdictStatus.DISTINGUISHABLE and v.theorem == theorem
    vectors = [np.asarray(args[0], dtype=complex).tobytes() for args in calls]
    assert len(vectors) == len(set(vectors)), f"{len(vectors) - len(set(vectors))} repeated factorizations"
    # every member and phi itself were factored
    assert len(vectors) > inst.n


def test_t5_decide_factors_each_vector_once(monkeypatch):
    _assert_each_vector_factored_once(monkeypatch, _ghz_type_t5_instance(), "T5")


def test_t2_decide_factors_each_vector_once(monkeypatch):
    rng = np.random.default_rng(7)
    phi, basis = _family()
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    phi = PureState(QUBIT_PAIR, u @ phi.amplitudes)
    basis = [PureState(QUBIT_PAIR, u @ s.amplitudes) for s in basis]
    _assert_each_vector_factored_once(monkeypatch, DiscriminationInstance.from_pure(QUBIT_PAIR, basis, phi), "T2")


def test_product_phi_t1_decide_factors_each_vector_once(monkeypatch):
    rng = np.random.default_rng(5)
    basis = random_product_basis(rng, S3)
    inst = DiscriminationInstance.from_pure(S3, basis[1:], basis[0])
    _assert_each_vector_factored_once(monkeypatch, inst, "T1")


def test_t4_decide_factors_each_vector_once(monkeypatch):
    phi, basis = _prefixed(*_family())
    _assert_each_vector_factored_once(monkeypatch, DiscriminationInstance.from_pure(S3, basis, phi), "T4")


def test_state_product_is_factored_once():
    entangled_state = random_pure_state(np.random.default_rng(4), S3)
    for state, entangled in ((entangled_state, True), (ket(S3, "010"), False)):
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting(mp, "try_factor")
            first = state.product
            assert all(state.product is first for _ in range(3))
        assert len(calls) == 1
        assert (first is None) is entangled


@pytest.mark.parametrize("build", ["t2", "t5"])
def test_second_decide_factors_no_member_and_not_phi(monkeypatch, build):
    if build == "t5":
        inst = _ghz_type_t5_instance()
    else:
        phi, basis = _family()
        inst = DiscriminationInstance.from_pure(QUBIT_PAIR, basis, phi)
    first = decide(inst)
    calls = _counting(monkeypatch, "try_factor")
    second = decide(inst)
    assert second.status is first.status is VerdictStatus.DISTINGUISHABLE
    assert second.certificate.lambdas == first.certificate.lambdas
    known = {s.amplitudes.tobytes() for s in inst.states + (inst.phi,)}
    # only the pencil roots of a span, which are neither members nor phi,
    # are factored again
    assert not known & {np.asarray(args[0], dtype=complex).tobytes() for args in calls}
