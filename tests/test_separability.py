import dataclasses
import math

import numpy as np
import pytest

import sepdisc.separability as separability
from sepdisc.config import DEFAULT
from sepdisc.constructions import FamilyParams, family_sep_not_locc
from sepdisc.errors import DimensionMismatch, NotPsd, PhiProduct, PreconditionViolated
from sepdisc.linalg import hermitian_eig, kron_all, partial_transpose, random_hermitian
from sepdisc.sampling import (
    random_basis_of_complement,
    random_entangled_2x2,
    random_local_vector,
    random_product_state,
    random_pure_state,
    random_unitary,
)
from sepdisc.separability import (
    Lemma1Status,
    PptRecord,
    ProductDecomposition,
    Rank2Case,
    SepStatus,
    antiparallel_test,
    element_separability,
    lemma1_check,
    ppt_oracle,
    rank2_separability,
    reassembly_residuals,
    separable_lambdas,
    try_product_decomposition,
)
from sepdisc.states import (
    QUBIT_PAIR,
    PureState,
    StateSpace,
    basis_state,
    ket,
    phi_plus,
    state_from_coeff_matrix,
)
from sepdisc.tensor_rank import ProductVector
from tests.conftest import bell


def _density(state):
    return state.density()


class TestLemma1:
    def test_identity_operator(self):
        rho = phi_plus().density()
        res = lemma1_check(np.eye(4), rho)
        assert res.status is Lemma1Status.HOLDS_BOTH_WAYS
        assert res.trace_side and res.psd_side and res.consistent

    def test_support_projector_itself(self):
        rho = 0.5 * ket(QUBIT_PAIR, "00").density() + 0.5 * ket(QUBIT_PAIR, "01").density()
        p = ket(QUBIT_PAIR, "00").density() + ket(QUBIT_PAIR, "01").density()
        res = lemma1_check(p, rho)
        assert res.status is Lemma1Status.HOLDS_BOTH_WAYS

    def test_scaled_projector_fails_both_sides(self):
        rho = phi_plus().density()
        p = phi_plus().density()
        res = lemma1_check(0.9 * p, rho)
        assert res.status is Lemma1Status.VIOLATION
        assert not res.trace_side and not res.psd_side
        assert res.consistent
        assert abs(res.trace_value - 0.9) < 1e-12
        assert abs(res.min_eigenvalue + 0.1) < 1e-9

    def test_precondition(self):
        rho = phi_plus().density()
        with pytest.raises(PreconditionViolated):
            lemma1_check(2.0 * np.eye(4), rho)

    def test_rho_is_eigendecomposed_once(self, monkeypatch):
        # E, rho and E - P: the support projector P comes from rho's one
        # eigendecomposition
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(1)
            return hermitian_eig(a, *args, **kwargs)

        monkeypatch.setattr(separability, "hermitian_eig", counting)
        rho = 0.5 * ket(QUBIT_PAIR, "00").density() + 0.5 * ket(QUBIT_PAIR, "01").density()
        res = lemma1_check(ket(QUBIT_PAIR, "00").density() + ket(QUBIT_PAIR, "01").density(), rho)
        assert res.status is Lemma1Status.HOLDS_BOTH_WAYS
        assert len(calls) == 3


class TestRank2:
    def test_case_i_products(self):
        r = rank2_separability(ket(QUBIT_PAIR, "00"), ket(QUBIT_PAIR, "11"), 0.7)
        assert r.case is Rank2Case.BOTH_PRODUCT
        assert r.verdict.status is SepStatus.SEPARABLE
        target = ket(QUBIT_PAIR, "00").density() + 0.7 * ket(QUBIT_PAIR, "11").density()
        assert r.verdict.evidence.residual(target) < 1e-10

    def test_entangled_plus_product_is_entangled(self):
        for lam in (0.1, 0.7, 2.0):
            r = rank2_separability(phi_plus(), ket(QUBIT_PAIR, "01"), lam)
            assert r.case is Rank2Case.ENTANGLED
            assert r.verdict.status is SepStatus.ENTANGLED

    def test_product_psi_lambda_zero(self):
        r = rank2_separability(ket(QUBIT_PAIR, "01"), phi_plus(), 0.0)
        assert r.case is Rank2Case.PSI_PRODUCT_LAMBDA_ZERO
        assert r.verdict.status is SepStatus.SEPARABLE

    def test_case_iii_bell_pair(self):
        psi = bell("phi-")
        r = rank2_separability(psi, phi_plus(), 1.0)
        assert r.case is Rank2Case.TWO_TERM
        assert r.verdict.status is SepStatus.SEPARABLE
        dec = r.verdict.evidence
        dirs = sorted(
            tuple(np.round(np.abs(pv.assemble() / np.linalg.norm(pv.assemble())), 6))
            for pv in dec.vectors
        )
        assert dirs == [(0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0)]
        target = psi.density() + phi_plus().density()
        assert dec.residual(target) < 1e-10

    def test_lambda_scan_single_separable_point(self, rng):
        # separability happens at exactly one weight for entangled pairs
        psi = bell("phi-")
        phi = phi_plus()
        seps = [
            rank2_separability(psi, phi, lam).verdict.status is SepStatus.SEPARABLE
            for lam in np.linspace(0.0, 2.0, 41)
        ]
        assert sum(seps) == 1  # the lam = 1.0 grid point

    def test_lambda_scan_randomized(self, rng):
        # over a lambda grid, at most one cell brackets the separable point
        from sepdisc.states import concurrence

        for _ in range(20):
            phi = random_entangled_2x2(rng, 0.1)
            basis = random_basis_of_complement(rng, phi)
            psi = next(s for s in basis if concurrence(s) > 0.05)
            res = antiparallel_test(psi, phi)
            grid = np.linspace(0.0, 2.0, 81)
            seps = [
                rank2_separability(psi, phi, lam).verdict.status is SepStatus.SEPARABLE
                for lam in grid
            ]
            assert sum(seps) <= 1
            if res.passed and res.lambda_star <= 2.0:
                step = grid[1] - grid[0]
                bracketed = [
                    lam for lam, s in zip(grid, seps) if s
                ] or [g for g in grid if abs(g - res.lambda_star) < step]
                assert bracketed

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 2, 2)])
    def test_schmidt2_pairs_beyond_two_qubits(self, rng, dims):
        # phi = cos t a + sin t b and psi = sin t a - cos t b for orthogonal
        # products a, b: the cross terms of |psi><psi| + lam |phi><phi|
        # cancel at lam* = 1 alone
        space = StateSpace(dims)
        for _ in range(10):
            us = [random_unitary(rng, d) for d in dims]
            a, b = (kron_all([u[:, j] for u in us]) for j in (0, 1))
            t = float(rng.uniform(0.2, math.pi / 2 - 0.2))
            phi = PureState.normalized(space, math.cos(t) * a + math.sin(t) * b)
            psi = PureState.normalized(space, math.sin(t) * a - math.cos(t) * b)
            at = rank2_separability(psi, phi, 1.0)
            assert at.verdict.status is SepStatus.SEPARABLE and at.case is Rank2Case.TWO_TERM
            assert at.verdict.evidence.residual(psi.density() + phi.density()) <= 1e-8
            for lam in (1.0 - 1e-3, 1.0 + 1e-3):
                assert rank2_separability(psi, phi, lam).verdict.status is SepStatus.ENTANGLED

    def test_requires_orthogonality(self):
        with pytest.raises(PreconditionViolated):
            rank2_separability(phi_plus(), phi_plus(), 1.0)

    def test_rejects_a_non_finite_lambda_and_states_from_two_spaces(self):
        for lam in (math.nan, math.inf, -0.5):
            with pytest.raises(PreconditionViolated):
                rank2_separability(ket(QUBIT_PAIR, "01"), ket(QUBIT_PAIR, "10"), lam)
        with pytest.raises(DimensionMismatch):
            rank2_separability(ket(QUBIT_PAIR, "01"), ket(StateSpace((2, 2, 2)), "100"), 1.0)

    def test_lambda_star_a_few_1e9_off_the_real_axis_is_separable(self):
        # a family member moved 1e-9 off its residual state: the kernel's
        # lambda* has a phase of a few 1e-9 and its two-term decomposition
        # reassembles the element within 6e-10, so the rank-2 lemma and, on
        # a 3x3 embedding where no PPT step runs first, element_separability
        # accept it
        phi, basis = family_sep_not_locc(FamilyParams(0.3, 0.4, 0.78))
        rng = np.random.default_rng(0)
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        d = d - phi.amplitudes * np.vdot(phi.amplitudes, d)
        psi = PureState.normalized(QUBIT_PAIR, basis[2].amplitudes + 1e-9 * d / np.linalg.norm(d))
        (star,), _ = separable_lambdas(phi, [psi])
        assert abs(star - 0.116088945778826) < 1e-12
        r = rank2_separability(psi, phi, star)
        assert r.verdict.status is SepStatus.SEPARABLE and r.case is Rank2Case.TWO_TERM
        assert r.verdict.detail["residual"] <= 1e-8

        def embed(state):
            return np.pad(state.amplitudes.reshape(2, 2), ((0, 1), (0, 1))).reshape(-1)

        element = np.outer(embed(psi), embed(psi).conj()) + star * np.outer(embed(phi), embed(phi).conj())
        verdict = element_separability(element, S33)
        assert verdict.status is SepStatus.SEPARABLE
        assert verdict.evidence.residual(element) <= 1e-8

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3)])
    def test_agrees_with_the_lambda_kernel(self, dims):
        # on orthogonal pairs from two orthogonal products (exact and moved
        # off phi), from two non-orthogonal products and at random: separable at
        # lambda* exactly when the kernel finds a lambda* whose decomposition
        # reassembles the element, and entangled 1e-3 away from it
        rng, space = np.random.default_rng(len(dims) * 10 + sum(dims)), StateSpace(dims)

        def off(v, phi):
            return v - phi * np.vdot(phi, v)

        found = 0
        for i in range(24):
            if i % 4 < 2:
                us = [random_unitary(rng, d) for d in dims]
                a, b = (kron_all([u[:, j] for u in us]) for j in (0, 1))
                t, w = float(rng.uniform(0.2, math.pi / 2 - 0.2)), np.exp(1j * rng.uniform(0, 2 * math.pi))
                phi = PureState.normalized(space, math.cos(t) * a + w * math.sin(t) * b)
                d = off(random_pure_state(rng, space).amplitudes, phi.amplitudes)
                move = 10.0 ** rng.uniform(-10, -8) if i % 4 else 0.0
                psi = PureState.normalized(space, math.sin(t) * a - w * math.cos(t) * b + move * d / np.linalg.norm(d))
            elif i % 4 == 2:  # a + b and a - b for unit products with <a, b> real: lambda* = |a + b|^2 / |a - b|^2
                a, b = (random_product_state(rng, space).amplitudes for _ in range(2))
                b = b * np.exp(-1j * np.angle(np.vdot(a, b)))
                phi, psi = PureState.normalized(space, a + b), PureState.normalized(space, a - b)
            else:
                phi = random_pure_state(rng, space)
                psi = PureState.normalized(space, off(random_pure_state(rng, space).amplitudes, phi.amplitudes))
            (star,), decomposition = separable_lambdas(phi, [psi])
            if star is None:
                for lam in (0.0, 0.37, 1.0, 2.5):
                    assert rank2_separability(psi, phi, lam).verdict.status is SepStatus.ENTANGLED
                continue
            target = psi.density() + star * phi.density()
            reassembles = decomposition(0).residual(target) <= 1e-8
            assert (rank2_separability(psi, phi, star).verdict.status is SepStatus.SEPARABLE) == reassembles
            found += reassembles
            for lam in (star * (1 - 1e-3), star * (1 + 1e-3)) if star > 0 else ():
                assert rank2_separability(psi, phi, lam).verdict.status is SepStatus.ENTANGLED
        assert found >= 12


class TestAntiparallel:
    def test_max_ent_reference_always_passes(self, rng):
        phi = phi_plus()
        for _ in range(20):
            basis = random_basis_of_complement(rng, phi)
            for psi in basis:
                from sepdisc.states import concurrence

                if concurrence(psi) < 1e-6:
                    continue
                res = antiparallel_test(psi, phi)
                assert res.passed
                assert abs(res.lambda_star - concurrence(psi)) < 1e-10

    def test_same_sign_ratio_fails(self):
        # coefficient matrix with eigenvalues 1 and 2 against the identity
        m = np.diag([1.0, 2.0]) * math.sqrt(2.0 / 5.0)
        psi = state_from_coeff_matrix(m)
        res = antiparallel_test(psi, phi_plus())
        assert not res.passed

    def test_product_reference_rejected(self):
        with pytest.raises(PhiProduct):
            antiparallel_test(phi_plus(), ket(QUBIT_PAIR, "00"))

    def test_consistency_with_rank2(self, rng):
        # Pass(lambda*) if and only if the two-projector mixture at lambda*
        # is separable
        hits = 0
        for _ in range(50):
            phi = random_entangled_2x2(rng, 0.1)
            basis = random_basis_of_complement(rng, phi)
            from sepdisc.states import concurrence

            psi = next(s for s in basis if concurrence(s) > 0.05)
            res = antiparallel_test(psi, phi)
            r2 = rank2_separability(psi, phi, res.lambda_star)
            assert res.passed == (r2.verdict.status is SepStatus.SEPARABLE)
            hits += int(res.passed)
        assert hits < 50  # generic random pairs fail the test


class TestPptOracle:
    def test_bell_witness(self):
        verdict = ppt_oracle(phi_plus().density(), QUBIT_PAIR)
        assert verdict.status is SepStatus.ENTANGLED
        assert abs(verdict.evidence.eigenvalue + 0.5) < 1e-12
        w = verdict.evidence.eigenvector
        pt = partial_transpose(phi_plus().density(), (2, 2), verdict.evidence.cut)
        assert np.linalg.norm(pt @ w - verdict.evidence.eigenvalue * w) < 1e-10

    def test_maximally_mixed_separable(self):
        verdict = ppt_oracle(np.eye(4) / 4.0, QUBIT_PAIR)
        assert verdict.status is SepStatus.SEPARABLE
        assert verdict.evidence.exact

    def test_qutrit_ppt_stays_undecided(self):
        s33 = StateSpace((3, 3))
        verdict = ppt_oracle(np.eye(9) / 9.0, s33)
        assert verdict.status is SepStatus.UNDECIDED
        assert not verdict.evidence.exact

    def test_rejects_non_psd(self):
        with pytest.raises(NotPsd):
            ppt_oracle(np.diag([1.0, -1.0, 1.0, 1.0]), QUBIT_PAIR)

    def test_agreement_with_rank2_on_2x2(self, rng):
        # PPT is exact on 2x2, so the two oracles must agree on rank-2 inputs
        for _ in range(300):
            phi = random_entangled_2x2(rng, 0.02)
            basis = random_basis_of_complement(rng, phi)
            psi = basis[int(rng.integers(0, 3))]
            lam = float(rng.uniform(0.0, 1.5))
            r2 = rank2_separability(psi, phi, lam)
            rho = psi.density() + lam * phi.density()
            p = ppt_oracle(rho, QUBIT_PAIR)
            assert (r2.verdict.status is SepStatus.SEPARABLE) == (
                p.status is SepStatus.SEPARABLE
            )


S33 = StateSpace((3, 3))


class TestElementSeparability:
    def test_rank1_weight_is_the_eigenvalue(self):
        op = 0.7 * ket(QUBIT_PAIR, "01").density()
        verdict = element_separability(op, QUBIT_PAIR)
        assert verdict.status is SepStatus.SEPARABLE
        assert isinstance(verdict.evidence, ProductDecomposition)
        assert abs(verdict.evidence.weights[0] - 0.7) < 1e-12
        assert verdict.evidence.residual(op) < 1e-12
        # a pure state stands for its projector, with weight 1
        state = element_separability(ket(QUBIT_PAIR, "01"), QUBIT_PAIR)
        assert state.evidence.weights == (1.0,)
        assert element_separability(0.5 * phi_plus().density(), QUBIT_PAIR).status is SepStatus.ENTANGLED
        assert element_separability(phi_plus(), QUBIT_PAIR).status is SepStatus.ENTANGLED

    def test_rank2_on_3x3_uses_the_rank2_lemma(self, monkeypatch):
        u = kron_all([random_unitary(np.random.default_rng(4), 3) for _ in range(2)])
        op = u @ (0.4 * basis_state(S33, (0, 0)).density() + 0.9 * basis_state(S33, (1, 1)).density()) @ u.conj().T
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return rank2_separability(*args, **kwargs)

        monkeypatch.setattr(separability, "rank2_separability", counting)
        verdict = element_separability(op, S33)
        assert len(calls) == 1
        assert verdict.status is SepStatus.SEPARABLE
        assert isinstance(verdict.evidence, ProductDecomposition)
        assert abs(sum(verdict.evidence.weights) - 1.3) < 1e-9
        assert verdict.evidence.residual(op) < 1e-9
        # an entangled pair plus an orthogonal product term
        pair = PureState.normalized(S33, basis_state(S33, (0, 0)).amplitudes + basis_state(S33, (1, 1)).amplitudes)
        entangled = pair.density() + 0.5 * basis_state(S33, (2, 2)).density()
        assert element_separability(entangled, S33).status is SepStatus.ENTANGLED
        assert len(calls) == 2

    def test_ppt_comes_first_on_2x2(self):
        op = ket(QUBIT_PAIR, "00").density() + ket(QUBIT_PAIR, "11").density()
        verdict = element_separability(op, QUBIT_PAIR)
        assert verdict.status is SepStatus.SEPARABLE
        assert isinstance(verdict.evidence, PptRecord) and verdict.evidence.exact
        # the same element on 3x3, where PPT is not exact, is decomposed
        lifted = basis_state(S33, (0, 0)).density() + basis_state(S33, (1, 1)).density()
        assert isinstance(element_separability(lifted, S33).evidence, ProductDecomposition)

    def test_below_the_floor_is_undecided(self):
        verdict = element_separability(np.diag([1.0, 1.0, 1.0, -1e-8]).astype(complex), QUBIT_PAIR)
        assert verdict.status is SepStatus.UNDECIDED
        assert verdict.evidence is None
        assert verdict.detail["min_eigenvalue"] == -1e-8

    def test_not_psd_in_the_ppt_oracle_is_undecided(self):
        # above the certificate floor but below a tightened PSD tolerance, in
        # an entangled eigenbasis so that no product decomposition exists
        tol = dataclasses.replace(DEFAULT, psd=1e-12)
        u = random_unitary(np.random.default_rng(1), 4)
        op = u @ np.diag([-1e-10, 0.3, 0.6, 1.0]) @ u.conj().T
        with pytest.raises(NotPsd):
            ppt_oracle(op, QUBIT_PAIR, tol)
        verdict = element_separability(op, QUBIT_PAIR, tol)
        assert verdict.status is SepStatus.UNDECIDED
        assert verdict.evidence is None

    def test_zero_operator_is_separable_with_an_empty_decomposition(self):
        # every eigenvalue is under the rank threshold, so nothing is summed:
        # the residual compares the zero matrix of the target's shape
        for space in (QUBIT_PAIR, S33, StateSpace((2, 2, 2))):
            zero = np.zeros((space.dim, space.dim))
            dec = try_product_decomposition(zero, space)
            assert dec == ProductDecomposition((), ())
            assert dec.residual(zero) == 0.0
            verdict = element_separability(zero, space)
            assert verdict.status is SepStatus.SEPARABLE
            assert verdict.evidence == ProductDecomposition((), ())
        # an empty decomposition is far from a nonzero target
        assert ProductDecomposition((), ()).residual(np.eye(4)) == 1.0


def test_stacked_reassembly_matches_a_per_vector_sum():
    # 100 product atoms on 3x3, unnormalized factors with a complex weight:
    # the stacked kernel against the one-vector-at-a-time sum
    rng = np.random.default_rng(11)
    vectors = tuple(
        ProductVector((rng.uniform(0.5, 2.0) * random_local_vector(rng, 3), random_local_vector(rng, 3)), complex(*rng.standard_normal(2)))
        for _ in range(100)
    )
    dec = ProductDecomposition(tuple(rng.uniform(0.0, 1.0, 100)), vectors)
    reference = sum(w * np.outer(pv.unit(), pv.unit().conj()) for w, pv in zip(dec.weights, dec.vectors))
    targets = [reference, reference + 1e-6 * random_hermitian(rng, 9), np.eye(9)]
    for target in targets:
        want = np.linalg.norm(reference - target) / np.linalg.norm(target)
        assert abs(dec.residual(target) - want) <= 1e-14
    # several decompositions, an empty one among them, in one call
    decs = [dec, ProductDecomposition((), ()), ProductDecomposition(dec.weights[:3], dec.vectors[:3])]
    stacked = reassembly_residuals(decs, np.stack(targets))
    assert np.allclose(stacked, [d.residual(t) for d, t in zip(decs, targets)], rtol=0.0, atol=1e-14)
    assert stacked[1] == 1.0
