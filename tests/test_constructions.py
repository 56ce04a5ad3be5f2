import math

import numpy as np
import pytest

from sepdisc.constructions import (
    FamilyParams,
    SubspaceFamily,
    TetraPoint,
    basis_for_targets,
    basis_from_unitary,
    concurrence_triple_of_unitary,
    family_concurrences,
    family_sep_not_locc,
    gamma_range,
    in_tetrahedron,
    indistinguishable_subspace,
    locc_basis_sch2,
    sample_unitary_triples,
    subspace_spec_from_pair,
    tetra_unitary,
    verify_subspace_properties,
)
from sepdisc.discrimination import VerdictStatus
from sepdisc.errors import (
    NotUnitary,
    ParamsOutOfRange,
    PointOutsideTetrahedron,
    TargetsOutOfRange,
    WrongForm,
)
from sepdisc.states import PureState, QUBIT_PAIR, concurrence, ket, magic_basis
from sepdisc.tensor_rank import is_product
from tests.conftest import decide_with_phi, ghz_theta


class TestFamily:
    def test_params_validation(self):
        with pytest.raises(ParamsOutOfRange):
            FamilyParams(0.0, 0.4, 0.8)
        with pytest.raises(ParamsOutOfRange):
            FamilyParams(0.5, 0.4, 0.8)
        with pytest.raises(ParamsOutOfRange):
            FamilyParams(0.3, 0.4, 0.5)  # below the gamma window

    def test_collapsed_range_all_or_nothing(self):
        # alpha = beta = pi/4 collapses the window to gamma = pi/4 and the
        # concurrences to (1, 0, 0) up to ordering
        p = FamilyParams(math.pi / 4, math.pi / 4, math.pi / 4)
        phi, basis = family_sep_not_locc(p)
        cs = sorted(concurrence(s) for s in basis)
        assert np.allclose(cs, [0.0, 0.0, 1.0], atol=1e-9)

    def test_orthonormal_and_perpendicular(self):
        phi, basis = family_sep_not_locc(FamilyParams(0.2, 0.5, 0.8))
        full = basis + [phi]
        gram = np.array([[a.inner(b) for b in full] for a in full])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_closed_form_concurrences_match_states(self):
        for a, b, frac in [(0.1, 0.3, 0.2), (0.3, 0.4, 0.5), (0.6, 0.7, 0.9)]:
            lo, hi = gamma_range(a, b)
            p = FamilyParams(a, b, lo + frac * (hi - lo))
            phi, basis = family_sep_not_locc(p)
            expected = family_concurrences(p)
            for s, c in zip(basis, expected):
                assert abs(concurrence(s) - c) < 1e-12

    def test_concurrence_sum_identity_box(self):
        # sampled corner of the full grid; the verify suite runs 20^3
        for a in np.linspace(0.05, math.pi / 4, 6):
            for b in np.linspace(a, math.pi / 4, 6):
                lo, hi = gamma_range(a, b)
                for g in np.linspace(lo, hi, 6):
                    phi, basis = family_sep_not_locc(FamilyParams(a, b, g))
                    total = sum(concurrence(s) for s in basis)
                    assert abs(total - concurrence(phi)) < 1e-9

    def test_endpoint_products(self):
        lo, hi = gamma_range(0.3, 0.4)
        _, basis_lo = family_sep_not_locc(FamilyParams(0.3, 0.4, lo))
        assert concurrence(basis_lo[1]) < 1e-9
        assert concurrence(basis_lo[2]) > 1e-9
        _, basis_hi = family_sep_not_locc(FamilyParams(0.3, 0.4, hi))
        assert concurrence(basis_hi[2]) < 1e-9
        assert concurrence(basis_hi[1]) > 1e-9

    def test_decider_accepts_family(self):
        phi, basis = family_sep_not_locc(FamilyParams(0.3, 0.4, 0.78))
        assert decide_with_phi(phi, basis).status is VerdictStatus.DISTINGUISHABLE


class TestTargets:
    def test_validation(self):
        with pytest.raises(TargetsOutOfRange):
            basis_for_targets(0.5, 0.4, 0.3)
        with pytest.raises(TargetsOutOfRange):
            basis_for_targets(-0.1, 0.0, 0.0)
        for slot in range(3):
            targets = [0.5, 0.25, 0.25]
            targets[slot] = math.nan
            with pytest.raises(TargetsOutOfRange):
                basis_for_targets(*targets)

    def test_zero_targets_product_basis(self):
        phi, basis = basis_for_targets(0.0, 0.0, 0.0)
        assert is_product(phi)
        assert all(is_product(s) for s in basis)
        # product phi: the basis is trivially distinguishable through decide()
        from sepdisc.discrimination import DiscriminationInstance, decide

        inst = DiscriminationInstance.from_pure(QUBIT_PAIR, basis, phi)
        assert decide(inst).status is VerdictStatus.DISTINGUISHABLE

    def test_one_zero_zero(self):
        phi, basis = basis_for_targets(1.0, 0.0, 0.0)
        assert abs(concurrence(phi) - 1.0) < 1e-12
        cs = [concurrence(s) for s in basis]
        assert np.allclose(cs, [1.0, 0.0, 0.0], atol=1e-9)

    def test_round_trip(self):
        phi, basis = basis_for_targets(0.3, 0.2, 0.1)
        cs = [concurrence(s) for s in basis]
        assert np.allclose(cs, [0.3, 0.2, 0.1], atol=1e-8)
        assert decide_with_phi(phi, basis).status is VerdictStatus.DISTINGUISHABLE

    def test_random_round_trips(self, rng):
        for _ in range(200):
            c = rng.uniform(0, 1, 3)
            c *= rng.uniform(0, 1) / max(c.sum(), 1e-12)
            phi, basis = basis_for_targets(*c)
            cs = np.array([concurrence(s) for s in basis])
            assert np.max(np.abs(cs - c)) < 1e-8


class TestTetra:
    def test_point_validation(self):
        with pytest.raises(PointOutsideTetrahedron):
            TetraPoint(0.2, 0.2, 0.2)  # sum < 1
        with pytest.raises(PointOutsideTetrahedron):
            TetraPoint(1.0, 1.0, 0.5)  # pairwise excess
        with pytest.raises(PointOutsideTetrahedron):
            TetraPoint(0.5, math.nan, 0.5)
        TetraPoint(0.2, 0.2, 0.9)  # valid: sum 1.3, all pairwise fine

    def test_corner_identity(self):
        assert np.allclose(tetra_unitary(TetraPoint(1, 1, 1)), np.eye(3))

    def test_one_zero_zero_rows(self):
        u = tetra_unitary(TetraPoint(1, 0, 0))
        achieved = concurrence_triple_of_unitary(u)
        assert np.allclose(achieved, [1.0, 0.0, 0.0], atol=1e-10)

    def test_equal_thirds(self):
        u = tetra_unitary(TetraPoint(1 / 3, 1 / 3, 1 / 3))
        achieved = concurrence_triple_of_unitary(u)
        assert np.max(np.abs(achieved - 1 / 3)) < 1e-8

    def test_unsorted_targets_preserved(self):
        u = tetra_unitary(TetraPoint(0.2, 0.9, 0.2))
        achieved = concurrence_triple_of_unitary(u)
        assert np.allclose(achieved, [0.2, 0.9, 0.2], atol=1e-8)

    def test_grid_round_trip_small(self):
        # the closed form's branches: c* wins at (0.2, 0.9, 0.2) and
        # (0.6, 0.6, 0.6); the c = 0 end on a face or an edge at
        # (0.5, 0.25, 0.25) and (0, 0.3, 0.7); c* has a zero denominator on
        # the K = 0 line through (1, 0.5, 0.5) and (1, 0.3, 0.3); the
        # point's 1e-12 slack admits a coordinate just above 1
        pts = [
            (0.5, 0.25, 0.25), (0.6, 0.6, 0.6), (1.0, 0.95, 0.95), (0.2, 0.9, 0.2),
            (0.0, 0.3, 0.7), (1.0, 0.5, 0.5), (1.0, 0.3, 0.3), (1.0 + 5e-13, 0.5, 0.5),
        ]
        # uniform points of the tetrahedron, and uniform points of its faces
        vertices = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
        rng = np.random.default_rng(7)
        pts += list(rng.dirichlet(np.ones(4), 2000) @ vertices)
        faces = [np.delete(vertices, k, axis=0) for k in rng.integers(0, 4, 500)]
        pts += [w @ f for w, f in zip(rng.dirichlet(np.ones(3), 500), faces)]
        for pt in pts:
            u = tetra_unitary(TetraPoint(*map(float, pt)))
            achieved = concurrence_triple_of_unitary(u)
            assert np.max(np.abs(achieved - np.array(pt))) <= 1e-11, pt
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-11, pt


class TestBasisFromUnitary:
    def test_identity_gives_magic_states(self):
        basis = basis_from_unitary(np.eye(3))
        magic = magic_basis()
        for b, m in zip(basis, magic[:3]):
            assert abs(abs(b.inner(m)) - 1.0) < 1e-12
        assert all(abs(concurrence(b) - 1.0) < 1e-12 for b in basis)

    def test_permutation_permutes(self):
        perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        basis = basis_from_unitary(perm)
        magic = magic_basis()
        assert abs(abs(basis[0].inner(magic[1])) - 1.0) < 1e-12
        assert abs(abs(basis[1].inner(magic[2])) - 1.0) < 1e-12
        assert abs(abs(basis[2].inner(magic[0])) - 1.0) < 1e-12

    def test_concurrences_match_row_sums(self, rng):
        from sepdisc.sampling import random_unitary

        for _ in range(20):
            u = random_unitary(rng, 3)
            basis = basis_from_unitary(u)
            target = concurrence_triple_of_unitary(u)
            for b, t in zip(basis, target):
                assert abs(concurrence(b) - t) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            basis_from_unitary(np.ones((3, 3)))

    def test_face_and_interior_decisions(self):
        face = basis_from_unitary(tetra_unitary(TetraPoint(0.5, 0.25, 0.25)))
        assert decide_with_phi(magic_basis()[3], face).status is VerdictStatus.DISTINGUISHABLE
        interior = basis_from_unitary(tetra_unitary(TetraPoint(1, 1, 1)))
        assert decide_with_phi(magic_basis()[3], interior).status is VerdictStatus.INDISTINGUISHABLE

    def test_sampled_triples_stay_inside(self, rng):
        xs = sample_unitary_triples(rng, 200)
        assert all(in_tetrahedron(x) for x in xs)


class TestSubspaces:
    def test_dim7_spec(self):
        spec = indistinguishable_subspace(SubspaceFamily.BIPARTITE_3X3_DIM7)
        assert len(spec.complement) == 7
        full = [spec.phi1, spec.phi2] + list(spec.complement)
        gram = np.array([[a.inner(b) for b in full] for a in full])
        assert np.max(np.abs(gram - np.eye(9))) < 1e-10

    def test_dim6_spec(self):
        spec = indistinguishable_subspace(SubspaceFamily.TRIPARTITE_222_DIM6)
        assert len(spec.complement) == 6
        full = [spec.phi1, spec.phi2] + list(spec.complement)
        gram = np.array([[a.inner(b) for b in full] for a in full])
        assert np.max(np.abs(gram - np.eye(8))) < 1e-10

    def test_dim7_properties(self):
        spec = indistinguishable_subspace(SubspaceFamily.BIPARTITE_3X3_DIM7)
        report = verify_subspace_properties(spec)
        assert report.all_passed
        assert report.p0.detail["product_overlap_phi2"] > 1 - 1e-9

    def test_dim6_properties(self):
        spec = indistinguishable_subspace(SubspaceFamily.TRIPARTITE_222_DIM6)
        report = verify_subspace_properties(spec)
        assert report.all_passed

    def test_perturbed_pair_reported(self, rng):
        # negative control: noise on the spanning state changes the span's
        # product structure and the report reflects whatever holds
        spec = indistinguishable_subspace(SubspaceFamily.BIPARTITE_3X3_DIM7)
        noise = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        noise -= spec.phi2.amplitudes * np.vdot(spec.phi2.amplitudes, noise)
        vec = spec.phi1.amplitudes + 1e-2 * noise
        phi1p = PureState.normalized(spec.space, vec)
        report = verify_subspace_properties(subspace_spec_from_pair(phi1p, spec.phi2))
        assert isinstance(report.p0.passed, bool)
        assert report.p0.detail["count"] in (0, 1, 2)


class TestLoccBasis:
    def test_ghz_construction(self):
        from sepdisc.states import StateSpace

        phi = ghz_theta(StateSpace((2, 2, 2)), math.pi / 6)
        basis = locc_basis_sch2(phi)
        assert len(basis) == 7
        ent = [s for s in basis if not is_product(s)]
        assert len(ent) == 1
        expected = PureState.normalized(
            phi.space,
            math.sin(math.pi / 6) * ket(phi.space, "000").amplitudes
            - math.cos(math.pi / 6) * ket(phi.space, "111").amplitudes,
        )
        assert abs(abs(ent[0].inner(expected)) - 1.0) < 1e-9
        gram = np.array([[a.inner(b) for b in basis] for a in basis])
        assert np.max(np.abs(gram - np.eye(7))) < 1e-9
        assert max(abs(phi.inner(s)) for s in basis) < 1e-9
        assert decide_with_phi(phi, basis).status is VerdictStatus.DISTINGUISHABLE

    def test_2x2_concurrence_bookkeeping(self):
        beta = 0.55
        phi = PureState(
            QUBIT_PAIR, np.array([math.cos(beta), 0, 0, math.sin(beta)], dtype=complex)
        )
        basis = locc_basis_sch2(phi)
        total = sum(concurrence(s) for s in basis)
        assert abs(total - concurrence(phi)) < 1e-10
        ent = [s for s in basis if concurrence(s) > 1e-9]
        assert len(ent) == 1
        assert decide_with_phi(phi, basis).status is VerdictStatus.DISTINGUISHABLE

    def test_wrong_form_rejected(self):
        from tests.conftest import w_state
        from sepdisc.states import StateSpace

        with pytest.raises(WrongForm):
            locc_basis_sch2(w_state(StateSpace((2, 2, 2))))
