import dataclasses
import itertools
import math

import numpy as np
import pytest

from sepdisc.config import DEFAULT
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
    subspace_spec_from_pair,
    tetra_grid,
    tetra_unitary,
    verify_subspace_properties,
)
from sepdisc.discrimination import DiscriminationInstance, VerdictStatus, decide, validate_certificate
from sepdisc.errors import (
    NotUnitary,
    ParamsOutOfRange,
    PointOutsideTetrahedron,
    TargetsOutOfRange,
    WrongForm,
)
from sepdisc.linalg import kron_all
from sepdisc.sampling import (
    random_local_vector,
    random_product_state,
    random_pure_state,
    random_unitary,
    sample_unitary_triples,
)
from sepdisc.states import PureState, QUBIT_PAIR, StateSpace, concurrence, ket, magic_basis
from sepdisc import tensor_rank
from sepdisc.tensor_rank import AtLeast3Reason, Schmidt2Kind, cut_rank, schmidt2_classify
from tests.conftest import decide_with_phi, ghz_theta, w_state


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
        assert phi.product is not None
        assert all(s.product is not None for s in basis)
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


def _reference_tetra_unitary(xs):
    """tetra_unitary's closed form in its earlier array form: the candidate
    and sign-pattern search on numpy arrays, np.linalg.norm, and U built as
    H @ diag(1, e^{it}, e^{it}).  Without the final check."""
    xs = np.array(xs, dtype=float)
    order = np.argsort(-xs, kind="stable")
    x = xs[order]
    if x[2] >= 1.0 - 1e-12:
        return np.eye(3, dtype=complex)
    x1, x2, x3 = x * x
    k = 1.0 + x3 - x1 - x2
    m = 4.0 * (x1 * x2 - x3) - k * k
    den = 8.0 * k * (m + 2.0 * k * (1.0 + x3))
    c_star = (16.0 * k * k * x3 - m * m) / den if den != 0.0 else math.nan
    cands = np.array([0.0, c_star] if 0.0 <= c_star <= x3 else [0.0])
    sin_t = np.sqrt(1.0 - cands)
    signs = np.array([[-1.0, -1.0, -1.0], [-1.0, -1.0, 1.0]])
    s = signs * np.sqrt(x * x - cands[:, None])[:, None, :]
    miss = np.abs(sin_t[:, None] + s.sum(axis=-1))
    i, j = np.unravel_index(np.argmin(miss), miss.shape)
    col = np.sqrt(np.clip((sin_t[i] + s[i, j]) / (2.0 * sin_t[i]), 0.0, 1.0))
    col = col / np.linalg.norm(col)
    w = col.copy()
    w[0] += 1.0
    h = np.eye(3) - 2.0 * np.outer(w, w) / float(w @ w)
    h[:, 0] = -h[:, 0]
    phase = np.exp(1j * math.acos(math.sqrt(cands[i])))
    u = np.empty((3, 3), dtype=complex)
    u[order] = h @ np.diag([1.0, phase, phase])
    return u


def _reference_basis_from_unitary(u):
    """basis_from_unitary's rotation in its earlier form, one row at a time
    with Python's sum and np.linalg.norm."""
    magic = [m.amplitudes for m in magic_basis()[:3]]
    rows = [sum(u[k, l] * magic[l] for l in range(3)) for k in range(3)]
    return [row / np.linalg.norm(row) for row in rows]


def _bit_identity_points():
    """The 0.05 grid, 2,000 uniform points of the faces and 2,000 of the
    interior, and the CI points: the edge x1 = 0, the K = 0 line and the
    corner (1, 1, 1)."""
    vertices = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
    rng = np.random.default_rng(31)
    grid = list(tetra_grid(0.05))
    assert len(grid) == 3101
    faces = [np.delete(vertices, k, axis=0) for k in rng.integers(0, 4, 2000)]
    face = [w @ f for w, f in zip(rng.dirichlet(np.ones(3), 2000), faces)]
    interior = list(rng.dirichlet(np.ones(4), 2000) @ vertices)
    ci = [(0.5, 0.25, 0.25), (0.0, 0.3, 0.7), (0.2, 0.2, 0.9), (1.0, 0.5, 0.5), (1.0, 1.0, 1.0)]
    ci += [(0.0, t, 1.0 - t) for t in np.linspace(0.0, 1.0, 21)] + [(1.0, t, t) for t in np.linspace(0.0, 1.0, 21)]
    return [tuple(map(float, pt)) for pt in grid + face + interior + ci]


def test_closed_form_is_bitwise_the_array_form():
    for pt in _bit_identity_points():
        u = tetra_unitary(TetraPoint(*pt))
        assert u.tobytes() == _reference_tetra_unitary(pt).tobytes(), pt
        got = [s.amplitudes.tobytes() for s in basis_from_unitary(u)]
        assert got == [v.tobytes() for v in _reference_basis_from_unitary(u)], pt


def test_basis_rotation_is_bitwise_the_row_sums(rng):
    # Haar unitaries, and signed permutations, whose zero products are
    # written as +0.0 by the sum from 0
    us = [random_unitary(rng, 3) for _ in range(200)]
    us += [np.diag(signs) @ np.eye(3)[list(p)] for p in itertools.permutations(range(3)) for signs in itertools.product([1, -1, 1j], repeat=3)]
    for u in us:
        got = [s.amplitudes.tobytes() for s in basis_from_unitary(u)]
        assert got == [v.tobytes() for v in _reference_basis_from_unitary(np.asarray(u, dtype=complex))]


def _unchecked_point(x1, x2, x3) -> TetraPoint:
    point = object.__new__(TetraPoint)
    for name, value in zip(("x1", "x2", "x3"), (x1, x2, x3)):
        object.__setattr__(point, name, value)
    return point


@pytest.mark.parametrize("xs", [(0.2, 0.2, 0.2), (1.0, 1.0, 0.5), (0.1, 0.0, 0.0), (1.5, 0.0, 0.5)])
def test_a_point_outside_fails_the_construction_check(xs):
    # the TetraPoint check and the unitary's own round-trip check both hold
    with pytest.raises(PointOutsideTetrahedron):
        TetraPoint(*xs)
    with pytest.raises(PointOutsideTetrahedron, match="construction failed numerically"):
        tetra_unitary(_unchecked_point(*xs))


def test_not_unitary_where_it_was():
    with pytest.raises(NotUnitary):
        basis_from_unitary(np.eye(2))
    with pytest.raises(NotUnitary):
        basis_from_unitary(np.eye(3) * (1.0 + 1e-9))
    basis_from_unitary(np.eye(3) * (1.0 + 1e-10))


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


def _needs_three_alone(row, space, tol):
    """One row alone, as a one-row stack: cut rank >= 3 on two parties, a
    CUT_RANK or PRODUCT_SHORTAGE classification otherwise."""
    if space.nparties == 2:
        return cut_rank(row[None], space.dims, (0,), tol)[0] >= 3
    reason = schmidt2_classify(row[None], space.dims, tol)[0].reason
    return reason in (AtLeast3Reason.CUT_RANK, AtLeast3Reason.PRODUCT_SHORTAGE)


def _two_terms(rng, dims, orthogonal):
    """cos(t) a + sin(t) b for products a, b whose factors are orthogonal on
    every party, or on none (Haar factors)."""
    us = [random_unitary(rng, d) for d in dims]
    a = kron_all([u[:, 0] for u in us])
    b = kron_all([u[:, 1] for u in us]) if orthogonal else random_product_state(rng, StateSpace(dims)).amplitudes
    t = rng.uniform(0.2, 1.3)
    return math.cos(t) * a + math.sin(t) * b


def _mixed_stack(rng, dims, kind=None):
    """Unit rows of one space: members of locally rotated spans of a
    subspace pair, Haar states, products, products of one party's vector
    with a Haar (or, on 2x2x2, a locally rotated W) rest, products plus
    relative noise 1e-11 to 1e-6, and two-term rows: orthogonal (SCHMIDT2)
    and, on three or more parties, nonorthogonal, alone and beside a
    product factor on the last party (and on four parties, on two parties),
    so that a stack is peeled on more than one set of parties."""
    space, rows = StateSpace(dims), []
    for _ in range(4 if kind else 0):
        spec = indistinguishable_subspace(kind)
        u = kron_all([random_unitary(rng, d) for d in dims])
        phi1, phi2 = u @ spec.phi1.amplitudes, u @ spec.phi2.amplitudes
        for t in np.linspace(0.08, math.pi / 2 - 0.08, 5):
            for ph in np.linspace(0.0, 2 * math.pi, 4, endpoint=False):
                rows.append(math.cos(t) * phi1 + math.sin(t) * np.exp(1j * ph) * phi2)
                rows.append(phi1 - 4 * math.sin(t) * np.exp(1j * ph) * phi2)
    rows += [random_pure_state(rng, space).amplitudes for _ in range(20)]
    rows += [random_product_state(rng, space).amplitudes for _ in range(10)]
    if len(dims) > 2:
        rest = StateSpace(dims[1:])
        cores = [random_pure_state(rng, rest).amplitudes for _ in range(10)]
        if rest.dims == (2, 2, 2):
            cores += [kron_all([random_unitary(rng, 2) for _ in range(3)]) @ w_state(rest).amplitudes for _ in range(10)]
        rows += [np.kron(random_local_vector(rng, dims[0]), core) for core in cores]
    for eps in np.logspace(-11, -6, 16):
        noise = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        rows.append(random_product_state(rng, space).amplitudes + eps * noise / np.linalg.norm(noise))
    for orthogonal in (True, False) if len(dims) > 2 else (True,):
        rows += [_two_terms(rng, dims, orthogonal) for _ in range(5)]
    if len(dims) > 2:
        head, last = dims[:-1], dims[-1]
        rows += [np.kron(_two_terms(rng, head, True), random_local_vector(rng, last)) for _ in range(5)]
        rows += [np.kron(random_pure_state(rng, StateSpace(head)).amplitudes, random_local_vector(rng, last)) for _ in range(5)]
    if len(dims) == 4:
        for _ in range(5):
            x, y = random_local_vector(rng, dims[0]), random_local_vector(rng, dims[3])
            rows.append(kron_all([x, random_local_vector(rng, dims[1]), _two_terms(rng, dims[2:], True)]))
            rows.append(kron_all([x, _two_terms(rng, dims[1:3], True), y]))
    rows = np.array(rows)
    return space, rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestSubspaceGridStack:
    @pytest.mark.parametrize(
        "dims, kind",
        [((3, 3), SubspaceFamily.BIPARTITE_3X3_DIM7), ((2, 2, 2), SubspaceFamily.TRIPARTITE_222_DIM6), ((2, 2, 3), None), ((2, 2, 2, 2), None)],
    )
    @pytest.mark.parametrize("rank", [None, 1e-7, 1e-11])
    def test_stack_matches_each_row_alone(self, monkeypatch, dims, kind, rank):
        tol = DEFAULT if rank is None else dataclasses.replace(DEFAULT, rank=rank)
        space, rows = _mixed_stack(np.random.default_rng(11), dims, kind)
        lift, peeled = tensor_rank._lift, set()

        def recording(core, weight, positions, fixed, j):
            peeled.add(tuple(sorted(fixed)))
            return lift(core, weight, positions, fixed, j)

        monkeypatch.setattr(tensor_rank, "_lift", recording)
        got = schmidt2_classify(rows, space.dims, tol)
        # on three or more parties the stack is peeled on more than one set
        # of parties: party 0 or the last, and on four parties 0-1 or 0-3
        assert (len(peeled - {()}) >= 2) is (len(dims) > 2)
        for row, cls in zip(rows, got):
            alone = schmidt2_classify(row[None], space.dims, tol)[0]
            assert (cls.kind, cls.reason, cls.detail) == (alone.kind, alone.reason, alone.detail)
            assert (cls.decomposition is None) is (alone.decomposition is None)
            if cls.decomposition is not None:
                assert cls.decomposition.split == alone.decomposition.split
                for x, y in ((cls.decomposition.a, alone.decomposition.a), (cls.decomposition.b, alone.decomposition.b)):
                    assert abs(x.weight - y.weight) <= 1e-12
                    assert all(np.max(np.abs(f - g)) <= 1e-12 for f, g in zip(x.factors, y.factors))
        # the later branches run in the stack: two-term splits, orthogonal
        # and (on three or more parties) not
        reasons = {cls.reason for cls in got}
        assert Schmidt2Kind.SCHMIDT2 in {cls.kind for cls in got}
        assert (AtLeast3Reason.NONORTHOGONAL_UNIQUE in reasons) is (len(dims) > 2)
        # the mix holds rows on both sides of the rule
        want = [_needs_three_alone(row, space, tol) for row in rows]
        assert 0 < sum(want) < len(want)

    @pytest.mark.parametrize("kind", list(SubspaceFamily))
    def test_svd_calls_do_not_grow_with_the_grid(self, monkeypatch, kind):
        svd, calls = np.linalg.svd, []

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert verify_subspace_properties(indistinguishable_subspace(kind)).all_passed
        assert len(calls) < 20

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2)])
    def test_cat_state_spans_fail_every_member(self, dims):
        space = StateSpace(dims)
        zeros, ones = ket(space, "0" * len(dims)).amplitudes, ket(space, "1" * len(dims)).amplitudes
        report = verify_subspace_properties(
            subspace_spec_from_pair(
                PureState.normalized(space, zeros + ones), PureState.normalized(space, zeros - ones)
            )
        )
        assert report.p0.detail["count"] == 2 and not report.p0.passed
        assert report.p1.detail == {"checked": 100, "failed": 100}
        assert report.p2.detail == {"checked": 100, "failed": 100}


class TestLoccBasis:
    def test_ghz_construction(self):
        from sepdisc.states import StateSpace

        phi = ghz_theta(StateSpace((2, 2, 2)), math.pi / 6)
        basis = locc_basis_sch2(phi)
        assert len(basis) == 7
        ent = [s for s in basis if s.product is None]
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

    @pytest.mark.parametrize("dims", [(3, 3), (2, 3, 3), (3, 3, 2), (2, 3, 3, 2)])
    def test_qutrit_splitting_party(self, dims):
        # 0.6|00> + 0.8|11> on two qutrits, with a |+> prefix, suffix or
        # both (peeled on parties 0 and 3): the splitting party's local
        # basis needs a completion vector
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        pair = 0.6 * ket(StateSpace((3, 3)), "00").amplitudes + 0.8 * ket(StateSpace((3, 3)), "11").amplitudes
        vec = {
            (3, 3): pair,
            (2, 3, 3): np.kron(plus, pair),
            (3, 3, 2): np.kron(pair, plus),
            (2, 3, 3, 2): kron_all([plus, pair, plus]),
        }[dims]
        phi = PureState.normalized(StateSpace(dims), vec)
        basis = locc_basis_sch2(phi)
        d = phi.space.dim
        assert len(basis) == d - 1
        cols = np.column_stack([s.amplitudes for s in basis + [phi]])
        assert np.max(np.abs(cols.conj().T @ cols - np.eye(d))) < 1e-9
        assert sum(s.product is None for s in basis) == 1
        instance = DiscriminationInstance.from_pure(phi.space, basis, phi)
        verdict = decide(instance)
        assert (verdict.status, verdict.theorem) == (VerdictStatus.DISTINGUISHABLE, "T4")
        assert validate_certificate(verdict.certificate, instance)["valid"]

    def test_wrong_form_rejected(self):
        from tests.conftest import w_state
        from sepdisc.states import StateSpace

        with pytest.raises(WrongForm):
            locc_basis_sch2(w_state(StateSpace((2, 2, 2))))
