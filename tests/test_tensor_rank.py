import math

import numpy as np
import pytest

from sepdisc.constructions import SubspaceKind, locc_basis_sch2, subspace_verdict
from sepdisc.discrimination import VerdictStatus, decide
from sepdisc.errors import NotIndependent, WrongForm
from sepdisc.sampling import (
    random_basis_of_complement,
    random_entangled_2x2,
    random_local_vector,
    random_product_state,
    random_pure_state,
    random_unitary,
)
from sepdisc.linalg import kron_all
from sepdisc.states import DiscriminationInstance, PureState, QUBIT_PAIR, StateSpace, basis_state, ket, phi_plus
from sepdisc.tensor_rank import (
    AtLeast3Reason,
    ProductVector,
    Schmidt2Kind,
    cut_matrix,
    entry_distance,
    product_vectors_in_span,
    schmidt2_classify,
    span_roots,
    try_factor,
)
from sepdisc.verify import check_lemma3_uniqueness
from tests.conftest import ghz_theta, w_state

S3 = StateSpace((2, 2, 2))


def _pv(space, label_a):
    return try_factor(ket(space, label_a).amplitudes[None], space.dims)[0]


def test_entry_distance_examples():
    a = _pv(S3, "000")
    assert entry_distance(a, a) == 0
    assert entry_distance(a, _pv(S3, "111")) == 3
    sp = StateSpace((2, 2, 2))
    assert entry_distance(_pv(sp, "000"), _pv(sp, "001")) == 1


def test_span_products_two_point_case():
    res = product_vectors_in_span(ket(QUBIT_PAIR, "00"), ket(QUBIT_PAIR, "11"))
    assert not res.infinitely_many
    assert len(res.vectors) == 2
    dirs = sorted(
        tuple(np.round(np.abs(pv.assemble()) / np.linalg.norm(pv.assemble()), 6)) for pv in res.vectors
    )
    assert dirs == [(0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0)]


def test_span_products_infinite_case():
    res = product_vectors_in_span(ket(QUBIT_PAIR, "00"), ket(QUBIT_PAIR, "01"))
    assert res.infinitely_many


def test_span_products_unique_case_two_qutrits():
    s33 = StateSpace((3, 3))
    phi1 = PureState.normalized(s33, np.eye(3, dtype=complex).reshape(9))
    phi2 = ket(s33, "01")
    res = product_vectors_in_span(phi1, phi2)
    assert not res.infinitely_many
    assert len(res.vectors) == 1
    v = res.vectors[0].assemble()
    assert abs(abs(np.vdot(v / np.linalg.norm(v), phi2.amplitudes)) - 1.0) < 1e-9


def _assert_span_products(psi, phi, planted, count=None):
    """Every planted product direction is found, and every returned vector
    is a product (by try_factor) lying in span{psi, phi}."""
    res = product_vectors_in_span(psi, phi)
    assert not res.infinitely_many and len(res.vectors) <= 2
    if count is not None:
        assert len(res.vectors) == count
    basis = np.linalg.qr(np.column_stack([psi.amplitudes, phi.amplitudes]))[0]
    units = [pv.unit() for pv in res.vectors]
    for u in units:
        assert try_factor(u[None], psi.space.dims)[0] is not None
        assert np.linalg.norm(u - basis @ (basis.conj().T @ u)) < 1e-8
    for p in planted:
        p = p / np.linalg.norm(p)
        assert max((abs(np.vdot(u, p)) for u in units), default=0.0) > 1 - 1e-7


def test_span_products_completeness_against_roots(rng):
    # oracle: roots of the determinant quadratic of the amplitude pencil
    for _ in range(200):
        psi = random_entangled_2x2(rng, 0.05)
        phi = random_entangled_2x2(rng, 0.05)
        if abs(psi.inner(phi)) > 0.999:
            continue
        a = psi.amplitudes.reshape(2, 2)
        b = phi.amplitudes.reshape(2, 2)
        coeffs = [
            b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0],
            a[0, 0] * b[1, 1] + b[0, 0] * a[1, 1] - a[0, 1] * b[1, 0] - b[0, 1] * a[1, 0],
            a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0],
        ]
        _assert_span_products(psi, phi, [psi.amplitudes + z * phi.amplitudes for z in np.roots(coeffs)])


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3)])
def test_span_products_on_every_shape(rng, dims):
    # oracle: directions planted in the span, and try_factor on every answer
    space = StateSpace(dims)
    for _ in range(20):
        a, b = (random_product_state(rng, space).amplitudes for _ in range(2))
        entangled = random_pure_state(rng, space)
        _assert_span_products(PureState(space, a), PureState(space, b), [a, b], count=2)
        _assert_span_products(PureState(space, a), entangled, [a])
        _assert_span_products(entangled, PureState(space, a), [a])
        _assert_span_products(PureState.normalized(space, a + b), PureState.normalized(space, a - 2 * b), [a, b], count=2)
        _assert_span_products(entangled, random_pure_state(rng, space), [])
    # an all-product span: the factors differ on one party only
    zero, one = (basis_state(space, (0,) * (len(dims) - 1) + (j,)) for j in (0, 1))
    assert product_vectors_in_span(zero, one).infinitely_many
    u = kron_all([random_unitary(rng, d) for d in dims])
    assert product_vectors_in_span(PureState(space, u @ zero.amplitudes), PureState(space, u @ one.amplitudes)).infinitely_many
    # a tangent span, |0...0> with the W-type sum of one-party flips: its one
    # product direction is a double root, rounded apart by the rotation
    flips = sum(basis_state(space, tuple(int(q == p) for q in range(len(dims)))).amplitudes for p in range(len(dims)))
    for _ in range(10):
        u = kron_all([random_unitary(rng, d) for d in dims])
        p0, w = PureState(space, u @ zero.amplitudes), PureState.normalized(space, u @ flips)
        _assert_span_products(p0, w, [p0.amplitudes], count=1)
        _assert_span_products(w, p0, [p0.amplitudes], count=1)


def _span_bytes(span, i):
    return (
        span.roots[i].tobytes(),
        span.vectors[i].tobytes(),
        span.product[i].tobytes(),
        span.all_product[i],
        tuple(f[i].tobytes() for f in span.factors),
    )


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2), (2, 2, 3)])
def test_span_roots_phi_per_row_is_the_shared_phi_kernel(rng, dims):
    """One phi per row gives, row for row and bit for bit, what the
    shared-phi call gives for that row's pair: generic pairs, pairs of two
    products, tangent spans (a double root) and all-product spans."""
    space = StateSpace(dims)
    flips = sum(basis_state(space, tuple(int(q == p) for q in range(len(dims)))).amplitudes for p in range(len(dims)))
    zero, one = (basis_state(space, (0,) * (len(dims) - 1) + (j,)).amplitudes for j in (0, 1))
    pairs = []
    for _ in range(6):
        a, b = (random_product_state(rng, space).amplitudes for _ in range(2))
        u = kron_all([random_unitary(rng, d) for d in dims])
        pairs += [
            (random_pure_state(rng, space).amplitudes, random_pure_state(rng, space).amplitudes),
            (a + b, a - 2 * b),
            (u @ flips, u @ zero),
            (u @ zero, u @ one),
        ]
    psis, phis = [], []
    for x, y in pairs:
        y = y / np.linalg.norm(y)
        x = x - np.vdot(y, x) * y
        psis.append(x / np.linalg.norm(x))
        phis.append(y)
    psis, phis = np.array(psis), np.array(phis)
    stacked = span_roots(psis, phis, dims)
    for i in range(len(psis)):
        assert _span_bytes(stacked, i) == _span_bytes(span_roots(psis[i : i + 1], phis[i], dims), 0)
    # and a shared phi repeated on every row is the shared-phi call
    shared, repeated = span_roots(psis, phis[0], dims), span_roots(psis, np.tile(phis[0], (len(psis), 1)), dims)
    assert all(_span_bytes(shared, i) == _span_bytes(repeated, i) for i in range(len(psis)))


def test_span_products_requires_independence():
    with pytest.raises(NotIndependent):
        product_vectors_in_span(phi_plus(), phi_plus())


def test_classify_product(rng):
    for _ in range(10):
        st = random_product_state(rng, S3)
        cls = schmidt2_classify(st.amplitudes[None], S3.dims)[0]
        assert cls.kind is Schmidt2Kind.PRODUCT
        assert st.product is not None


def test_classify_ghz_type():
    for theta in np.linspace(0.15, math.pi / 2 - 0.15, 7):
        cls = schmidt2_classify(ghz_theta(S3, theta).amplitudes[None], S3.dims)[0]
        assert cls.kind is Schmidt2Kind.SCHMIDT2
        assert cls.decomposition.split == (0, 1, 2)
        assert cls.detail["entry_distance"] == 3
        total = cls.decomposition.a.assemble() + cls.decomposition.b.assemble()
        assert np.linalg.norm(total - ghz_theta(S3, theta).amplitudes) < 1e-9


def test_classify_w_state():
    cls = schmidt2_classify(w_state(S3).amplitudes[None], S3.dims)[0]
    assert cls.kind is Schmidt2Kind.AT_LEAST_3
    assert cls.reason in (AtLeast3Reason.PRODUCT_SHORTAGE, AtLeast3Reason.CUT_RANK)


def test_classify_nonorthogonal_unique():
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    ppp = np.kron(plus, np.kron(plus, plus))
    for alpha in (0.3, 0.5, 0.8):
        beta = math.sqrt(1 - alpha**2)
        vec = alpha * ket(S3, "000").amplitudes + beta * ppp
        cls = schmidt2_classify(PureState.normalized(S3, vec).amplitudes[None], S3.dims)[0]
        assert cls.kind is Schmidt2Kind.AT_LEAST_3
        assert cls.reason is AtLeast3Reason.NONORTHOGONAL_UNIQUE


def _near_orthogonal_phi(eps: float) -> PureState:
    """cos 0.7 |000> + sin 0.7 (eps|0> + |1>)^(x)3, normalized: a unique
    two-term split whose terms overlap by eps^3 but whose factors overlap by
    about eps on every party."""
    v = np.array([eps, 1.0], dtype=complex)
    vec = math.cos(0.7) * ket(S3, "000").amplitudes + math.sin(0.7) * np.kron(v, np.kron(v, v))
    return PureState.normalized(S3, vec)


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
def test_classify_near_orthogonal_terms_split_on_no_party(eps):
    # orthogonality is decided per party, within 1e-9, so the assembled
    # overlap eps^3 <= 1e-9 does not make the terms orthogonal
    phi = _near_orthogonal_phi(eps)
    cls = schmidt2_classify(phi.amplitudes[None], S3.dims)[0]
    assert cls.kind is Schmidt2Kind.AT_LEAST_3
    assert cls.reason is AtLeast3Reason.NONORTHOGONAL_UNIQUE
    assert cls.decomposition.split == ()
    assert subspace_verdict(phi).kind is SubspaceKind.NO_DISTINGUISHABLE_BASIS
    with pytest.raises(WrongForm):
        locc_basis_sch2(phi)
    basis = random_basis_of_complement(np.random.default_rng(7), phi)
    verdict = decide(DiscriminationInstance.from_pure(S3, basis, phi))
    assert verdict.status is VerdictStatus.INDISTINGUISHABLE
    assert verdict.theorem == "T6"
    assert verdict.reason.code == "orthogonal_schmidt_number"


def test_classify_2x2_never_at_least_3(rng):
    for _ in range(50):
        psi = random_pure_state(rng, QUBIT_PAIR)
        cls = schmidt2_classify(psi.amplitudes[None], QUBIT_PAIR.dims)[0]
        assert cls.kind in (Schmidt2Kind.PRODUCT, Schmidt2Kind.SCHMIDT2)
        from sepdisc.states import concurrence

        if cls.kind is Schmidt2Kind.PRODUCT:
            assert concurrence(psi) < 1e-8


def test_classify_bell_times_bell_rank_witness():
    s4 = StateSpace((2, 2, 2, 2))
    vec = np.kron(phi_plus().amplitudes, phi_plus().amplitudes)
    cls = schmidt2_classify(PureState(s4, vec).amplitudes[None], s4.dims)[0]
    assert cls.kind is Schmidt2Kind.AT_LEAST_3
    assert cls.reason is AtLeast3Reason.CUT_RANK


def test_lemma3_uniqueness_property(rng):
    # a two-term split differing in three parties admits no rival split: a
    # companion drawn from span{a, b} spans it with the GHZ-type state, and
    # the span's two product vectors rebuild that state as a and b
    ghz = ghz_theta(S3, 0.5)
    cls = schmidt2_classify(ghz.amplitudes[None], S3.dims)[0]
    a, b = cls.decomposition.a, cls.decomposition.b
    assert entry_distance(a, b) == 3
    checked = 0
    for _ in range(10):
        x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        companion = PureState.normalized(S3, x * a.assemble() + y * b.assemble())
        if abs(companion.inner(ghz)) > 0.99:
            continue
        span = product_vectors_in_span(ghz, companion)
        assert not span.infinitely_many and len(span.vectors) == 2
        c, d = (pv.assemble() for pv in span.vectors)
        gram = np.array([[np.vdot(c, c), np.vdot(c, d)], [np.vdot(d, c), np.vdot(d, d)]])
        rhs = np.array([np.vdot(c, ghz.amplitudes), np.vdot(d, ghz.amplitudes)])
        coeff = np.linalg.solve(gram, rhs)
        assert np.linalg.norm(coeff[0] * c + coeff[1] * d - ghz.amplitudes) < 1e-8
        terms = sorted([coeff[0] * c, coeff[1] * d], key=lambda t: -np.linalg.norm(t))
        refs = sorted([a.assemble(), b.assemble()], key=lambda t: -np.linalg.norm(t))
        assert all(np.linalg.norm(t - r) < 1e-7 for t, r in zip(terms, refs))
        checked += 1
    assert checked > 0


def test_lemma3_check_measures_the_splits_it_checks():
    # the verify suite's check counts only the splits it checked and reports
    # their worst reconstruction error, not a fixed 0
    result = check_lemma3_uniqueness(43, 20)
    assert result.passed
    assert result.count > 0
    assert 0.0 < result.worst < 1e-7


def test_is_product_and_try_factor(rng):
    st = random_product_state(rng, S3)
    assert st.product is not None
    pv = try_factor(st.amplitudes[None], S3.dims)[0]
    assert np.linalg.norm(pv.assemble() - st.amplitudes) < 1e-10
    assert w_state(S3).product is None
    # a stack: one answer per row, in order, and none for an empty stack
    stack = np.stack([w_state(S3).amplitudes, st.amplitudes, np.zeros(8)])
    assert [f is None for f in try_factor(stack, S3.dims)] == [True, False, True]
    assert try_factor(np.empty((0, 8)), S3.dims) == []


def test_classify_prefix_times_pair():
    # party 0 factors out: x (x) pair is two orthogonal products, each with
    # x as its party-0 factor
    rng = np.random.default_rng(5)
    x = random_local_vector(rng, 3)
    pair = random_entangled_2x2(rng, 0.05).amplitudes
    vec = np.kron(x, pair)
    cls = schmidt2_classify(vec[None], (3, 2, 2))[0]
    assert cls.kind is Schmidt2Kind.SCHMIDT2
    a, b = cls.decomposition.a, cls.decomposition.b
    f = a.factors[0]
    assert abs(abs(np.vdot(f, x)) - np.linalg.norm(f) * np.linalg.norm(x)) < 1e-12
    assert np.linalg.norm(a.assemble() + b.assemble() - vec) < 1e-12


def _reference_try_factor(vec, dims):
    """try_factor before its early reject, with np.kron assembly: factors
    from every cut's SVD, then the residual test alone decides.  Returns
    (product vector or None, residual / ||vec||)."""
    vec = np.asarray(vec, dtype=complex)
    n = np.linalg.norm(vec)
    factors = []
    for p in range(len(dims)):
        u, _, _ = np.linalg.svd(cut_matrix(vec, dims, (p,)), full_matrices=False)
        factors.append(u[:, 0])
    assembled = factors[0]
    for f in factors[1:]:
        assembled = np.kron(assembled, f)
    w = complex(np.vdot(assembled, vec))
    resid = np.linalg.norm(vec - w * assembled)
    return (None if resid > 1e-9 * n else ProductVector(tuple(factors), w)), resid / n


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_early_reject_matches_the_residual_rule(dims):
    """Near-product vectors, relative perturbations 1e-12 to 1e-6: the same
    accept/reject as the residual rule, and bitwise the same factors and
    weight, except within 1e-12 (relative) of the 1e-9 bound."""
    rng = np.random.default_rng(len(dims) * 10 + sum(dims))
    space = StateSpace(dims)
    outcomes = set()
    for eps in np.logspace(-12, -6, 31):
        for _ in range(4):
            base = random_product_state(rng, space).amplitudes * rng.uniform(0.5, 2.0)
            noise = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
            vec = base + eps * np.linalg.norm(base) * noise / np.linalg.norm(noise)
            want, resid = _reference_try_factor(vec, dims)
            got = try_factor(vec[None], dims)[0]
            if abs(resid - 1e-9) <= 1e-12 * 1e-9:
                continue
            outcomes.add(want is None)
            assert (got is None) == (want is None), (eps, resid)
            if want is not None:
                assert got.weight == want.weight
                assert all(g.tobytes() == r.tobytes() for g, r in zip(got.factors, want.factors))
    # the perturbations straddle the bound
    assert outcomes == {True, False}
