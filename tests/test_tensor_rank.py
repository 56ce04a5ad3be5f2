import math

import numpy as np
import pytest

from sepdisc.config import DEFAULT
from sepdisc.errors import BadBipartition, NotIndependent
from sepdisc.sampling import random_entangled_2x2, random_local_vector, random_product_state, random_pure_state
from sepdisc.states import PureState, QUBIT_PAIR, StateSpace, ket, phi_plus
from sepdisc.tensor_rank import (
    AtLeast3Reason,
    ProductVector,
    Schmidt2Kind,
    cut_matrix,
    entry_distance,
    is_product,
    peel_parties,
    product_vectors_in_span,
    schmidt2_classify,
    schmidt_decompose,
    try_factor,
)
from tests.conftest import ghz_theta, w_state

S3 = StateSpace((2, 2, 2))


def test_schmidt_product_rank1():
    info = schmidt_decompose(ket(QUBIT_PAIR, "00"), (0,))
    assert info.rank == 1
    assert np.allclose(info.coefficients, [1.0])


def test_schmidt_bell():
    info = schmidt_decompose(phi_plus(), (0,))
    assert info.rank == 2
    assert np.allclose(info.coefficients, [1 / math.sqrt(2)] * 2)


def test_schmidt_w_state_1_vs_23():
    # oracle: direct SVD of the 2x4 amplitude matrix
    w = w_state(S3)
    mat = cut_matrix(w.amplitudes, (2, 2, 2), (0,))
    s_oracle = np.linalg.svd(mat, compute_uv=False)
    info = schmidt_decompose(w, (0,))
    assert info.rank == 2
    assert np.allclose(info.coefficients, s_oracle[:2])
    assert np.allclose(sorted(info.coefficients**2), sorted([2 / 3, 1 / 3]))


def test_schmidt_reassembly(rng):
    for _ in range(20):
        psi = random_pure_state(rng, S3)
        info = schmidt_decompose(psi, (0,))
        rebuilt = sum(
            c * np.kron(info.left_vectors[:, i], info.right_vectors[:, i])
            for i, c in enumerate(info.coefficients)
        )
        assert np.linalg.norm(rebuilt - psi.amplitudes) < 1e-9


def test_schmidt_bad_bipartition():
    with pytest.raises(BadBipartition):
        schmidt_decompose(phi_plus(), ())
    with pytest.raises(BadBipartition):
        schmidt_decompose(phi_plus(), (0, 1))


def _pv(space, label_a):
    return try_factor(ket(space, label_a).amplitudes, space.dims)


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
        roots = np.roots(coeffs)
        res = product_vectors_in_span(psi, phi)
        assert len(res.vectors) <= 2
        for pv in res.vectors:
            v = pv.assemble()
            s = np.linalg.svd(v.reshape(2, 2), compute_uv=False)
            assert s[1] <= 1e-9 * s[0]
        for z in roots:
            vec = psi.amplitudes + z * phi.amplitudes
            vec /= np.linalg.norm(vec)
            hits = [
                abs(np.vdot(vec, pv.assemble() / np.linalg.norm(pv.assemble())))
                for pv in res.vectors
            ]
            assert max(hits, default=0.0) > 1 - 1e-7


def test_span_products_requires_independence():
    with pytest.raises(NotIndependent):
        product_vectors_in_span(phi_plus(), phi_plus())


def test_classify_product(rng):
    for _ in range(10):
        st = random_product_state(rng, S3)
        cls = schmidt2_classify(st)
        assert cls.kind is Schmidt2Kind.PRODUCT
        assert st.product is not None


def test_classify_ghz_type():
    for theta in np.linspace(0.15, math.pi / 2 - 0.15, 7):
        cls = schmidt2_classify(ghz_theta(S3, theta))
        assert cls.kind is Schmidt2Kind.SCHMIDT2
        assert cls.decomposition.orthogonal
        assert cls.decomposition.unique
        total = cls.decomposition.a.assemble() + cls.decomposition.b.assemble()
        assert np.linalg.norm(total - ghz_theta(S3, theta).amplitudes) < 1e-9


def test_classify_w_state():
    cls = schmidt2_classify(w_state(S3))
    assert cls.kind is Schmidt2Kind.AT_LEAST_3
    assert cls.reason in (AtLeast3Reason.PRODUCT_SHORTAGE, AtLeast3Reason.CUT_RANK)


def test_classify_nonorthogonal_unique():
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    ppp = np.kron(plus, np.kron(plus, plus))
    for alpha in (0.3, 0.5, 0.8):
        beta = math.sqrt(1 - alpha**2)
        vec = alpha * ket(S3, "000").amplitudes + beta * ppp
        cls = schmidt2_classify(PureState.normalized(S3, vec))
        assert cls.kind is Schmidt2Kind.AT_LEAST_3
        assert cls.reason is AtLeast3Reason.NONORTHOGONAL_UNIQUE


def test_classify_2x2_never_at_least_3(rng):
    for _ in range(50):
        psi = random_pure_state(rng, QUBIT_PAIR)
        cls = schmidt2_classify(psi)
        assert cls.kind in (Schmidt2Kind.PRODUCT, Schmidt2Kind.SCHMIDT2)
        from sepdisc.states import concurrence

        if cls.kind is Schmidt2Kind.PRODUCT:
            assert concurrence(psi) < 1e-8


def test_classify_bell_times_bell_rank_witness():
    s4 = StateSpace((2, 2, 2, 2))
    vec = np.kron(phi_plus().amplitudes, phi_plus().amplitudes)
    cls = schmidt2_classify(PureState(s4, vec))
    assert cls.kind is Schmidt2Kind.AT_LEAST_3
    assert cls.reason is AtLeast3Reason.CUT_RANK


def test_lemma3_uniqueness_property(rng):
    # a two-term split differing in three parties admits no rival split
    ghz = ghz_theta(S3, 0.5)
    cls = schmidt2_classify(ghz)
    a, b = cls.decomposition.a, cls.decomposition.b
    assert entry_distance(a, b) == 3
    for _ in range(10):
        companion = random_pure_state(rng, S3)
        span = product_vectors_in_span(ghz, companion)
        if span.infinitely_many or len(span.vectors) < 2:
            continue
        c, d = (pv.assemble() for pv in span.vectors)
        gram = np.array([[np.vdot(c, c), np.vdot(c, d)], [np.vdot(d, c), np.vdot(d, d)]])
        rhs = np.array([np.vdot(c, ghz.amplitudes), np.vdot(d, ghz.amplitudes)])
        coeff = np.linalg.solve(gram, rhs)
        if np.linalg.norm(coeff[0] * c + coeff[1] * d - ghz.amplitudes) > 1e-8:
            continue
        terms = sorted([coeff[0] * c, coeff[1] * d], key=lambda t: -np.linalg.norm(t))
        refs = sorted([a.assemble(), b.assemble()], key=lambda t: -np.linalg.norm(t))
        assert all(np.linalg.norm(t - r) < 1e-7 for t, r in zip(terms, refs))


def test_is_product_and_try_factor(rng):
    st = random_product_state(rng, S3)
    assert is_product(st)
    pv = try_factor(st.amplitudes, S3.dims)
    assert np.linalg.norm(pv.assemble() - st.amplitudes) < 1e-10
    assert not is_product(w_state(S3))


def test_peel_parties_prefix_times_pair():
    rng = np.random.default_rng(5)
    x = random_local_vector(rng, 3)
    pair = random_entangled_2x2(rng, 0.05).amplitudes
    vec = np.kron(x, pair)
    factors, core, core_dims = peel_parties(vec, (3, 2, 2), [0], DEFAULT)
    assert core_dims == (2, 2)
    assert abs(abs(np.vdot(factors[0], x)) - 1.0) < 1e-12
    assert abs(abs(np.vdot(np.kron(factors[0], core), vec)) - 1.0) < 1e-12
    # party 1 is entangled with party 2
    assert peel_parties(vec, (3, 2, 2), [1], DEFAULT) is None
    assert peel_parties(vec, (3, 2, 2), [0, 2], DEFAULT) is None


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
            got = try_factor(vec, dims)
            if abs(resid - 1e-9) <= 1e-12 * 1e-9:
                continue
            outcomes.add(want is None)
            assert (got is None) == (want is None), (eps, resid)
            if want is not None:
                assert got.weight == want.weight
                assert all(g.tobytes() == r.tobytes() for g, r in zip(got.factors, want.factors))
    # the perturbations straddle the bound
    assert outcomes == {True, False}
