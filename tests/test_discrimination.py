import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import sepdisc.discrimination as disc
import sepdisc.linalg as linalg
import sepdisc.separability as separability
import sepdisc.tensor_rank as tensor_rank
from sepdisc.config import DEFAULT
from sepdisc.constructions import (
    FamilyParams,
    SubspaceKind,
    family_sep_not_locc,
    gamma_range,
    locc_basis_sch2,
    subspace_verdict,
)
from sepdisc.errors import DimensionMismatch, InvalidInstance, PhiProduct
from sepdisc.linalg import kron_all, partial_transpose
from sepdisc.discrimination import (
    DiscriminationInstance,
    LoccFlag,
    VerdictStatus,
    _distinguishable,
    decide,
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
    ppt_is_exact,
    rank2_separability,
    separable_lambdas,
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
from sepdisc.tensor_rank import proper_cuts, try_factor
from tests.conftest import (
    bell,
    census_cell,
    decide_with_phi,
    ghz_theta,
    upb_pyramid,
    upb_shifts,
    upb_tiles,
    upb_with_complement,
    w_state,
)

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

    def test_flag_counts_entangled_members_as_the_certificate_does(self):
        # two members within 7e-10 of |01> and |10>: the lambda certificate
        # factors them (lambda = 0), so the flag does not count them
        eps = 7e-10
        k01, k10 = ket(QUBIT_PAIR, "01").amplitudes, ket(QUBIT_PAIR, "10").amplitudes
        near = [math.cos(eps) * k01 + math.sin(eps) * k10, -math.sin(eps) * k01 + math.cos(eps) * k10]
        v = decide_with_phi(phi_plus(), [PureState(QUBIT_PAIR, a) for a in near] + [bell("phi-")])
        assert v.status is VerdictStatus.DISTINGUISHABLE
        assert v.certificate.lambdas == (0.0, 0.0, 1.0)
        assert v.locc_flag is LoccFlag.UNKNOWN

    def test_bell_triple_concurrence_sum(self):
        v = decide_with_phi(phi_plus(), [bell("phi-"), bell("psi+"), bell("psi-")])
        assert v.status is VerdictStatus.INDISTINGUISHABLE
        assert v.reason.code == "lambda_sum"
        assert abs(v.reason.data["sum"] - 3.0) < 1e-9
        assert np.allclose(v.reason.data["lambdas"], [1.0, 1.0, 1.0])

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
        # the residual goes to the first member, through the allocation
        assert v.diagnostics["path"] == "completability"
        assert v.certificate.lambdas == (1.0, 0.0, 0.0)
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

        pv_i = try_factor(products[i].amplitudes[None], S3.dims)[0]
        for cand in range(1, len(products)):
            pv_c = try_factor(products[cand].amplitudes[None], S3.dims)[0]
            if entry_distance(pv_i, pv_c) >= 2:
                j = cand
                break
        assert j is not None
        v1, v2 = products[i].amplitudes, products[j].amplitudes
        mixed1 = PureState.normalized(S3, (v1 + v2) / math.sqrt(2))
        mixed2 = PureState.normalized(S3, (v1 - v2) / math.sqrt(2))
        assert mixed1.product is None
        tampered = [basis[0], mixed1, mixed2] + [
            s for k, s in enumerate(products) if k not in (i, j)
        ]
        v = decide_with_phi(phi, tampered)
        assert v.status is VerdictStatus.INDISTINGUISHABLE
        assert v.reason.code == "no_separable_lambda"
        assert v.reason.data == {"member": 1}

    def test_wrong_entangled_member(self):
        # swap the unique entangled member for an orthogonal state that mixes
        # in a product of the complement: no lambda makes its element separable
        phi = ghz_theta(S3, 0.5)
        basis = locc_basis_sch2(phi)
        good = basis[0]
        prod = basis[1]
        wrong = PureState.normalized(S3, 0.8 * good.amplitudes + 0.6 * prod.amplitudes)
        other = PureState.normalized(S3, 0.6 * good.amplitudes - 0.8 * prod.amplitudes)
        tampered = [wrong, other] + basis[2:]
        v = decide_with_phi(phi, tampered)
        assert v.status is VerdictStatus.INDISTINGUISHABLE
        assert v.reason.code == "no_separable_lambda"
        assert v.reason.data == {"member": 0}


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
        assert v.reason.code == "no_separable_lambda"
        assert v.reason.data == {"member": 0}

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
        # the second pair: no lambda makes its element separable
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
        assert v.reason.code == "no_separable_lambda"
        assert v.reason.data == {"member": 0}


class TestLambdaKernel:
    """One lambda rule for D-1 states against an entangled residual state."""

    @staticmethod
    def _phi(dims, seed):
        # cos(t) a + sin(t) b for products a, b orthogonal on every party
        rng = np.random.default_rng(seed)
        us = [random_unitary(rng, d) for d in dims]
        a, b = kron_all([u[:, 0] for u in us]), kron_all([u[:, 1] for u in us])
        return PureState.normalized(StateSpace(dims), 0.6 * a + 0.8 * b)

    @pytest.mark.parametrize("dims, theorem", [((2, 3), "T4"), ((3, 3), "T4"), ((2, 2, 3), "T5")])
    def test_locc_bases_distinguishable(self, dims, theorem):
        phi = self._phi(dims, 3)
        inst = DiscriminationInstance.from_pure(phi.space, locc_basis_sch2(phi), phi)
        v = decide(inst)
        assert v.status is VerdictStatus.DISTINGUISHABLE and v.theorem == theorem
        assert validate_certificate(v.certificate, inst)["valid"]

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 2, 3)])
    def test_haar_complements_have_no_separable_lambda(self, dims):
        phi = self._phi(dims, 3)
        basis = random_basis_of_complement(np.random.default_rng(4), phi)
        v = decide_with_phi(phi, basis)
        assert v.status is VerdictStatus.INDISTINGUISHABLE
        assert v.reason.code == "no_separable_lambda"
        assert v.reason.data == {"member": 0}


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


@pytest.mark.parametrize("eps", [0.0, 0.9e-9, 1.5e-9])
def test_projector_noise_inside_the_pin_keeps_the_verdict(eps):
    # the 3x3 computational basis with eps |psi><psi| added to |00><00|,
    # psi = (|12> + |21>)/sqrt(2): within the 1e-8 pin, every member is the
    # projector onto its eigenvalue-1 eigenvectors, so |00><00| stays rank 1
    s33 = StateSpace((3, 3))
    projectors = [basis_state(s33, idx).density() for idx in np.ndindex(3, 3)]
    psi = PureState.normalized(s33, basis_state(s33, (1, 2)).amplitudes + basis_state(s33, (2, 1)).amplitudes)
    projectors[0] = projectors[0] + eps * psi.density()
    inst = DiscriminationInstance.from_projectors(s33, projectors)
    assert all(np.abs(p @ p - p).max() <= 1e-15 for p in inst.projectors)
    v = decide(inst)
    assert (v.status, v.theorem) == (VerdictStatus.DISTINGUISHABLE, "T1")
    assert validate_certificate(v.certificate, inst)["valid"]


def test_a_member_without_an_eigenvalue_near_1_is_rejected():
    with pytest.raises(InvalidInstance):
        DiscriminationInstance.from_projectors(QUBIT_PAIR, [ket(QUBIT_PAIR, "00").density(), np.zeros((4, 4))])


def test_try_product_decomposition_diagonal():
    op = np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex)
    dec = try_product_decomposition(op, *linalg.hermitian_eig(op), QUBIT_PAIR)
    assert dec is not None
    assert dec.residual(op) < 1e-10
    bellop = phi_plus().density()
    assert try_product_decomposition(bellop, *linalg.hermitian_eig(bellop), QUBIT_PAIR) is None


def test_lambda_certificate_failure_names_member_theorem_and_flag():
    phi, basis = _family()
    good = decide_with_phi(phi, basis)
    assert good.status is VerdictStatus.DISTINGUISHABLE
    # moving lambda off C(psi)/C(phi) leaves the first entangled member's
    # element entangled
    lambdas = list(good.certificate.lambdas)
    k = next(j for j, s in enumerate(basis) if concurrence(s) > 1e-6)
    lambdas[k] += 1e-3
    _, decomposition = separable_lambdas(phi, basis)
    decompositions = [decomposition(j) for j in range(len(basis))]
    elements = [psi.density() + lam * phi.density() for psi, lam in zip(basis, lambdas)]
    v = _distinguishable(QUBIT_PAIR, elements, decompositions, "T2", lambdas, LoccFlag.LOCC_INDISTINGUISHABLE)
    assert v.status is VerdictStatus.UNDECIDED
    assert v.theorem == "T2"
    assert v.locc_flag is LoccFlag.LOCC_INDISTINGUISHABLE
    assert v.reason.code == "internal_inconsistency"
    assert v.reason.data["member"] == k
    assert v.certificate is None


def _computational_basis(dims) -> DiscriminationInstance:
    space = StateSpace(dims)
    return DiscriminationInstance.from_pure(space, [basis_state(space, idx) for idx in np.ndindex(*dims)])


def _signed_weights(cert):
    # |00><00| - 0.5 |01><01| + 0.5 |01><01| still reassembles exactly
    ev, v01 = cert.evidence[0], ket(QUBIT_PAIR, "01").product
    return (ProductDecomposition(ev.weights + (-0.5, 0.5), ev.vectors + (v01, v01)),) + cert.evidence[1:]


def _nan_weight(cert):
    return (ProductDecomposition((np.nan,), cert.evidence[0].vectors),) + cert.evidence[1:]


def _other_type(cert):
    return (separability.PtWitness((0,), 0.0, np.zeros(4)),) + cert.evidence[1:]


def _ppt_records(cert):
    return (PptRecord(0.0, True, ((0,),)),) * len(cert.elements)


_BELL_BASIS = ("phi+", "phi-", "psi+", "psi-")
_FORGED_EVIDENCE = {
    "signed_weights": (lambda: _computational_basis((2, 2)), _signed_weights),
    "ppt_on_3x3": (lambda: _computational_basis((3, 3)), _ppt_records),
    "ppt_on_bell": (lambda: DiscriminationInstance.from_pure(QUBIT_PAIR, [bell(w) for w in _BELL_BASIS]), _ppt_records),
    "nan_weight": (lambda: _computational_basis((2, 2)), _nan_weight),
    "other_type": (lambda: _computational_basis((2, 2)), _other_type),
}


@pytest.mark.parametrize("forgery", list(_FORGED_EVIDENCE))
def test_forged_evidence_fails_the_builder_and_the_validator(forgery):
    # the builder and the validator run one evidence check, so a
    # certificate the validator rejects never leaves the builder
    build, forge = _FORGED_EVIDENCE[forgery]
    inst = build()
    elements = tuple(inst.projectors)
    if forgery == "ppt_on_bell":
        cert = disc.PovmCertificate(elements, (None,) * 4, None)
    else:
        cert = decide(inst).certificate
        assert validate_certificate(cert, inst)["valid"]
    evidence = forge(cert)
    v = _distinguishable(inst.space, elements, evidence)
    assert v.status is VerdictStatus.UNDECIDED and v.certificate is None
    assert v.reason.code == "internal_inconsistency" and v.reason.data == {"member": 0}
    check = validate_certificate(disc.PovmCertificate(elements, evidence, None), inst)
    assert not check["valid"]
    if forgery == "signed_weights":
        assert check["evidence_residual"] == 0.0 and not check["evidence_exact"]


def test_entangled_rank1_projector_costs_one_factor_attempt(monkeypatch):
    calls = []

    def counting(vec, dims, *args, **kwargs):
        calls.append(1)
        return try_factor(vec, dims, *args, **kwargs)

    monkeypatch.setattr(separability, "try_factor", counting)
    psi = random_pure_state(np.random.default_rng(3), S3)
    op = psi.density()
    assert separability.try_product_decomposition(op, *linalg.hermitian_eig(op), S3) is None
    assert len(calls) == 1
    # a Haar rank-3 projector on 3x3, one eigenspace: every column of the
    # first greedy step goes into one call, and none factors
    u = random_unitary(np.random.default_rng(5), 9)
    op = u[:, :3] @ u[:, :3].conj().T
    assert separability.try_product_decomposition(op, *linalg.hermitian_eig(op), StateSpace((3, 3))) is None
    assert len(calls) == 2


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


def _hadamard_basis_minus_two() -> list[PureState]:
    """Columns 0-5 of H (x) H (x) H: a locally rotated 2x2x2 product basis
    minus two members, with residual |--><--| (x) I."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    cols = kron_all([h, h, h])
    return [PureState(S3, cols[:, j]) for j in range(6)]


@pytest.mark.parametrize(
    "build",
    [
        _hadamard_basis_minus_two,
        lambda: random_product_basis(np.random.default_rng(11), S3)[:-2],
        lambda: random_product_basis(np.random.default_rng(12), StateSpace((3, 3)))[:-2],
        lambda: random_product_basis(np.random.default_rng(13), StateSpace((2, 3)))[:-2],
    ],
    ids=["hadamard_2x2x2", "random_2x2x2", "random_3x3", "random_2x3"],
)
def test_product_basis_minus_two_completes_without_the_solver(monkeypatch, build):
    basis = build()
    inst = DiscriminationInstance.from_pure(basis[0].space, basis)
    solves = []

    def counting(*args, **kwargs):
        solves.append(args)
        return feasibility_solve(*args, **kwargs)

    monkeypatch.setattr(disc, "feasibility_solve", counting)
    v = decide(inst)
    assert solves == []
    assert v.status is VerdictStatus.DISTINGUISHABLE
    assert v.diagnostics["path"] == "completability"
    assert validate_certificate(v.certificate, inst)["valid"]
    if not ppt_is_exact(inst.space):
        # the residual's two product terms follow the member's own
        k = v.diagnostics["residual_assigned_to"]
        joined = v.certificate.evidence[k]
        assert joined.vectors[0] is basis[k].product and len(joined.vectors) == 3


def test_completability_join_that_does_not_reassemble_is_undecided(monkeypatch):
    # the residual's product decomposition off by 1e-6 in weight: the joined
    # evidence of E_k = P_k + P0 no longer reassembles E_k within 1e-8
    inst = DiscriminationInstance.from_pure(S3, _hadamard_basis_minus_two())
    p0 = inst.residual_projector
    element_separability = disc.element_separability

    def perturbed(member, *args, **kwargs):
        verdict = element_separability(member, *args, **kwargs)
        if member is p0:
            dec = verdict.evidence
            weights = tuple(w + 1e-6 for w in dec.weights)
            verdict = separability.SeparabilityVerdict(verdict.status, ProductDecomposition(weights, dec.vectors))
        return verdict

    monkeypatch.setattr(disc, "element_separability", perturbed)
    v = decide(inst)
    assert v.status is VerdictStatus.UNDECIDED
    assert v.reason.code == "internal_inconsistency"
    assert v.diagnostics["path"] == "completability"
    assert v.reason.data["member"] == v.diagnostics["residual_assigned_to"]
    assert v.certificate is None


def test_entangled_residual_completes_through_the_member_plus_residual():
    # P0 = |phi-><phi-| is entangled, so E_2 = |phi+><phi+| + P0 is certified
    # on its own, by PPT on 2x2
    members = [ket(QUBIT_PAIR, "01"), ket(QUBIT_PAIR, "10"), phi_plus()]
    inst = DiscriminationInstance.from_projectors(QUBIT_PAIR, [s.density() for s in members])
    v = decide(inst)
    assert v.status is VerdictStatus.DISTINGUISHABLE
    assert v.diagnostics["path"] == "completability"
    assert v.diagnostics["residual_assigned_to"] == 2
    assert isinstance(v.certificate.evidence[2], PptRecord)
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
    elements = tuple(inst.projectors + outcome.e_ops)
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


def test_ppt_record_on_a_small_trace_element_is_checked_without_raising():
    # |00><00| scaled by 1e-3 with an asymmetry of 5e-9: Hermitian at its
    # own scale, 5e-6 off once divided by its trace
    basis = [ket(QUBIT_PAIR, f"{i}{j}") for i in range(2) for j in range(2)]
    inst = DiscriminationInstance.from_pure(QUBIT_PAIR, basis)
    cert = decide(inst).certificate
    small = cert.elements[0] * 1e-3
    small[0, 1] += 5e-9
    record = PptRecord(0.0, True, tuple(proper_cuts(2)))
    check = validate_certificate(disc.PovmCertificate((small,) + cert.elements[1:], (record,) * 4, None), inst)
    assert check["ppt_min"] > -1e-9
    assert check["completeness"] > 0.9 and not check["valid"]


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


def test_ppt_records_report_what_the_check_measured():
    # a record claiming a minimum of 5.0 over no cut is replaced by the one
    # the evidence check measured: 0.0 over the one cut of 2x2
    from sepdisc.statefile import verdict_report

    elements = [ket(QUBIT_PAIR, f"{i}{j}").density() for i in range(2) for j in range(2)]
    v = _distinguishable(QUBIT_PAIR, elements, [PptRecord(5.0, True, ())] * 4)
    assert v.status is VerdictStatus.DISTINGUISHABLE
    assert v.certificate.evidence == (PptRecord(0.0, True, ((0,),)),) * 4
    evidence = [e["evidence"] for e in json.loads(verdict_report(v, "{}"))["elements"]]
    assert evidence == [{"kind": "ppt_record", "min_eigenvalue": 0.0, "exact": True, "cuts": [[0]]}] * 4


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
    qutrit = ProductDecomposition((1.0,), (try_factor(basis_state(s33, (0, 0)).amplitudes[None], s33.dims)[0],))
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


def _first_weight_is_a_string(ev):
    return ProductDecomposition(("1.0",) + tuple(ev.weights[1:]), ev.vectors)


def _bare_vectors(ev):
    return ProductDecomposition(ev.weights, tuple(pv.assemble() for pv in ev.vectors))


_TAMPERINGS = {
    "asymmetric": lambda c: replace(c, elements=(c.elements[0] + 1e-3 * np.eye(4, k=1),) + c.elements[1:]),
    "string_weight": lambda c: replace(c, evidence=(_first_weight_is_a_string(c.evidence[0]),) + c.evidence[1:]),
    "bare_vector": lambda c: replace(c, evidence=(_bare_vectors(c.evidence[0]),) + c.evidence[1:]),
    "string_lambdas": lambda c: replace(c, lambdas=tuple(str(x) for x in c.lambdas)),
    "nested_lists": lambda c: replace(c, elements=tuple(e.tolist() for e in c.elements)),
    "none": lambda c: None,
}


@pytest.mark.parametrize(
    "tampering, key",
    [("asymmetric", "hermitian"), ("string_weight", "counts_ok"), ("bare_vector", "counts_ok"), ("string_lambdas", "lambdas_ok"), ("nested_lists", "counts_ok"), ("none", "counts_ok")],
)
def test_malformed_certificate_fails_without_raising(monkeypatch, tampering, key):
    phi, states = family_sep_not_locc(FamilyParams(0.3, 0.4, 0.78))
    inst = DiscriminationInstance.from_pure(QUBIT_PAIR, states, phi)
    cert = decide(inst).certificate
    assert validate_certificate(cert, inst)["valid"]
    forged = _TAMPERINGS[tampering](cert)

    def no_eigendecomposition(*args, **kwargs):
        raise AssertionError("the form checks come before any eigendecomposition")

    monkeypatch.setattr(np.linalg, "eigh", no_eigendecomposition)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigendecomposition)
    assert validate_certificate(forged, inst) == {key: False, "valid": False}


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


def _counting(monkeypatch, name, home=tensor_rank):
    """Record the arguments of every call to a sepdisc function (of
    tensor_rank unless ``home`` names another module) through every sepdisc
    module that binds it."""
    fn = getattr(home, name)
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
    # a fresh phi, which decide factors itself instead of reading the
    # factorization that building the basis cached
    return DiscriminationInstance.from_pure(S3, locc_basis_sch2(phi), PureState(S3, phi.amplitudes))


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


def _factored_rows(calls) -> list[bytes]:
    """Every row of every stack handed to try_factor."""
    return [row.tobytes() for args in calls for row in np.asarray(args[0], dtype=complex)]


def _assert_each_vector_factored_once(monkeypatch, inst, theorem):
    calls = _counting(monkeypatch, "try_factor")
    v = decide(inst)
    assert v.status is VerdictStatus.DISTINGUISHABLE and v.theorem == theorem
    vectors = _factored_rows(calls)
    assert len(vectors) == len(set(vectors)), f"{len(vectors) - len(set(vectors))} repeated factorizations"
    # every member and phi itself were factored, phi in one call and the
    # members in at most one more
    assert set(vectors) >= {s.amplitudes.tobytes() for s in inst.states + (inst.phi,)}
    assert len(calls) <= 2


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


@pytest.mark.parametrize("declared", [True, False], ids=["declared", "completed"])
def test_product_phi_certifies_the_residual_once(monkeypatch, declared):
    # a 2x2x2 product basis minus one member: P0 is certified through the
    # factorization of phi, declared or completed, and never as a matrix;
    # phi and the 7 members are factored in 2 calls
    basis = random_product_basis(np.random.default_rng(5), S3)
    inst = DiscriminationInstance.from_pure(S3, basis[1:], basis[0] if declared else None)
    eigs = _counting(monkeypatch, "hermitian_eig", linalg)
    factors = _counting(monkeypatch, "try_factor")
    v = decide(inst)
    assert len(eigs) == 0
    assert len(factors) == 2 and len(_factored_rows(factors)) == 8
    assert v.status is VerdictStatus.DISTINGUISHABLE and v.diagnostics["path"] == "completability"
    assert validate_certificate(v.certificate, inst)["valid"]


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
    # neither a member nor phi is factored again
    assert not known & set(_factored_rows(calls))


# -- census guard: the cells that reach Dykstra and decide in milliseconds ---

_PPT_DUAL = (VerdictStatus.INDISTINGUISHABLE, "PPT-dual", "ppt_dual")
_PPT_FEASIBLE = (VerdictStatus.UNDECIDED, "T1", "ppt_feasible_relaxation")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "dims, n, expected",
    [
        ((2, 3), 3, _PPT_DUAL),
        ((2, 3), 4, _PPT_DUAL),
        ((3, 3), 2, _PPT_FEASIBLE),
        ((3, 3), 5, _PPT_DUAL),
        ((3, 3), 6, _PPT_DUAL),
        ((3, 3), 7, _PPT_DUAL),
        ((2, 2, 2), 2, _PPT_FEASIBLE),
        ((2, 2, 2), 4, _PPT_DUAL),
        ((2, 2, 2), 5, _PPT_DUAL),
        ((2, 2, 2), 6, _PPT_DUAL),
    ],
)
def test_census_cells_keep_their_verdicts(dims, n, expected, seed):
    # capped at 2,000 iterations: the solver ends at its first check on
    # every cell
    v = decide(census_cell(dims, n, seed), max_iterations=2000)
    assert (v.status, v.theorem, v.reason.code) == expected


def test_one_iteration_with_neither_point_nor_dual_is_a_stall():
    # census 3x3, n = 3, s = 1: one iteration finds neither a feasible point
    # nor a dual that validates
    v = decide(census_cell((3, 3), 3, 1), max_iterations=1)
    assert (v.status, v.theorem, v.reason.code) == (VerdictStatus.UNDECIDED, "T1", "feasibility_stall")
    assert "iteration_cap" in v.diagnostics
    assert v.certificate is None


# -- unextendible product bases (Bennett et al., PRL 82, 5385 (1999)) ----------


@pytest.mark.parametrize("build", [upb_tiles, upb_shifts], ids=["tiles", "shifts"])
def test_upb_completes_through_a_product_decomposition_of_member_plus_residual(build):
    # the residual of a UPB holds no product vector, so P0 has no product
    # decomposition of its own; E_k = P_k + P0 gets one, and PPT is not
    # exact on 3x3 or 2x2x2
    inst = build()
    v = decide(inst)
    assert v.status is VerdictStatus.DISTINGUISHABLE
    assert v.diagnostics["path"] == "completability"
    k = v.diagnostics["residual_assigned_to"]
    assert isinstance(v.certificate.evidence[k], ProductDecomposition)
    assert validate_certificate(v.certificate, inst)["valid"]


def test_pyramid_upb_is_never_indistinguishable():
    inst = upb_pyramid()
    v = decide(inst)
    assert v.status is not VerdictStatus.INDISTINGUISHABLE
    if v.status is VerdictStatus.DISTINGUISHABLE:
        assert validate_certificate(v.certificate, inst)["valid"]


@pytest.mark.parametrize("build", [upb_tiles, upb_shifts, upb_pyramid], ids=["tiles", "shifts", "pyramid"])
def test_full_span_with_a_bound_entangled_member_is_undecided(build):
    # the complement of a UPB is PPT and holds no product vector, so no
    # rule certifies its projector separable or proves it entangled: the
    # forced POVM is undecided at that last member
    inst = upb_with_complement(build)
    v = decide(inst)
    assert (v.status, v.theorem, v.reason.code) == (VerdictStatus.UNDECIDED, "T1", "separability_unknown")
    assert v.reason.data == {"member": inst.n - 1}
    assert v.certificate is None
