import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdisc.constructions import FamilyParams, family_sep_not_locc
from sepdisc.discrimination import decide
from sepdisc.errors import DimensionMismatch, InvalidInstance, NotHermitian, WrongSpace
from sepdisc.sampling import random_pure_state, random_unitary
from sepdisc.states import (
    DiscriminationInstance,
    PureState,
    QUBIT_PAIR,
    StateSpace,
    basis_state,
    coeff_matrix,
    concurrence,
    ket,
    magic_basis,
    magic_coords,
    orthonormal_completion,
    phi_plus,
    state_from_coeff_matrix,
)
from tests.conftest import ghz_theta, w_state


def test_state_space_validation():
    with pytest.raises(DimensionMismatch):
        StateSpace((2,))
    with pytest.raises(DimensionMismatch):
        StateSpace((2, 1))
    assert StateSpace((2, 3, 2)).dim == 12


def test_pure_state_normalization_enforced():
    with pytest.raises(DimensionMismatch):
        PureState(QUBIT_PAIR, np.array([1.0, 1.0, 0.0, 0.0]))
    st_ = PureState.normalized(QUBIT_PAIR, np.array([1.0, 1.0, 0.0, 0.0]))
    assert abs(np.linalg.norm(st_.amplitudes) - 1.0) < 1e-12


def test_states_instances_and_product_vectors_compare_by_identity():
    # their ndarray fields have no truth value, so field-wise == and hash()
    # would raise; equal amplitudes do not make two objects the same
    a, b = ket(QUBIT_PAIR, "01"), ket(QUBIT_PAIR, "01")
    pairs = [
        (a, b),
        (DiscriminationInstance.from_pure(QUBIT_PAIR, [a]), DiscriminationInstance.from_pure(QUBIT_PAIR, [b])),
        (a.product, b.product),
    ]
    for x, twin in pairs:
        assert x == x and x != twin
        assert x in [twin, x] and twin not in [x]
        assert x in {x} and twin not in {x} and len({x, twin}) == 2
        assert hash(x) == hash(x)


def test_instance_projectors_are_built_once_and_read_only():
    p = ket(QUBIT_PAIR, "00").density()
    inst = DiscriminationInstance.from_projectors(QUBIT_PAIR, [p])
    pure = DiscriminationInstance.from_pure(QUBIT_PAIR, [ket(QUBIT_PAIR, "00")])
    for instance in (inst, pure):
        assert instance.projectors is instance.projectors and instance.projectors.shape == (1, 4, 4)
        assert instance.residual_projector is instance.residual_projector
        for built in (instance.projectors[0], instance.residual_projector):
            with pytest.raises(ValueError):
                built[0, 0] = 2.0
    # the instance holds its own copy: the caller's array stays writeable
    assert p.flags.writeable
    p[3, 3] = 0.0


def test_instance_ignores_later_writes_to_the_callers_projectors():
    projectors = [ket(QUBIT_PAIR, label).density() for label in ("00", "01", "10")]
    inst = DiscriminationInstance.from_projectors(QUBIT_PAIR, projectors)
    projectors[0][0, 0] = 0.3
    projectors[2][2, 2] = 5.0
    assert inst.projectors[0, 0, 0] == 1.0 and inst.projectors[2, 2, 2] == 1.0
    assert np.array_equal(inst.residual_projector, ket(QUBIT_PAIR, "11").density())


def test_pure_members_are_stacked_only_when_read():
    # the lambda rule reads the states themselves, never their projectors
    phi, basis = family_sep_not_locc(FamilyParams(0.3, 0.4, 0.78))
    inst = DiscriminationInstance.from_pure(QUBIT_PAIR, basis, phi)
    assert decide(inst).theorem == "T2" and "projectors" not in vars(inst)
    assert np.array_equal(inst.projectors, [s.density() for s in basis])


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_non_finite_projector_entries_rejected(entry):
    # before any eigen call: NaN stopped LAPACK, and an infinite diagonal
    # entry passed as a projector
    p = ket(QUBIT_PAIR, "00").density()
    p[1, 1] = entry
    with pytest.raises(InvalidInstance, match="finite"):
        DiscriminationInstance.from_projectors(QUBIT_PAIR, [ket(QUBIT_PAIR, "11").density(), p])


def test_non_hermitian_projector_after_the_first_rejected():
    members = [ket(QUBIT_PAIR, label).density() for label in ("00", "01", "10")]
    members[2][2, 3] = 1e-3
    with pytest.raises(NotHermitian, match="asymmetry 1.000e-03 exceeds 1.0e-08"):
        DiscriminationInstance.from_projectors(QUBIT_PAIR, members)


def test_pure_state_copies_the_callers_buffer():
    m = np.eye(4, dtype=complex)
    s = PureState(QUBIT_PAIR, m[1])
    m[1] = 0.5
    assert np.array_equal(s.amplitudes, [0, 1, 0, 0])
    assert np.array_equal(s.product.unit(), [0, 1, 0, 0])


def test_coeff_matrix_defining_case():
    assert np.allclose(coeff_matrix(phi_plus()), np.eye(2))


def test_coeff_matrix_00():
    m = coeff_matrix(ket(QUBIT_PAIR, "00"))
    assert np.allclose(m, math.sqrt(2) * np.array([[1, 0], [0, 0]]))


def test_coeff_matrix_psi_theta_convention():
    theta = 0.37
    psi = PureState(
        QUBIT_PAIR,
        np.array([0, math.cos(theta), math.sin(theta), 0], dtype=complex),
    )
    expected = math.sqrt(2) * np.array([[0, math.cos(theta)], [math.sin(theta), 0]]).T
    assert np.allclose(coeff_matrix(psi), expected)


def test_coeff_matrix_round_trip(rng):
    # the sqrt(2) scaling forth and back can cost one final rounding, so
    # "exact" means within a single ulp per amplitude
    for _ in range(25):
        psi = random_pure_state(rng, QUBIT_PAIR)
        again = state_from_coeff_matrix(coeff_matrix(psi))
        diff = np.abs(again.amplitudes - psi.amplitudes)
        assert np.all(diff <= 2 * np.spacing(np.abs(psi.amplitudes)))


def test_coeff_matrix_wrong_space():
    with pytest.raises(WrongSpace):
        coeff_matrix(ket(StateSpace((2, 2, 2)), "000"))


def test_concurrence_examples():
    assert concurrence(ket(QUBIT_PAIR, "01")) == 0.0
    assert abs(concurrence(phi_plus()) - 1.0) < 1e-12


@given(st.floats(0.0, math.pi / 2))
@settings(max_examples=60, deadline=None)
def test_concurrence_phi_theta(theta):
    phi = PureState(
        QUBIT_PAIR, np.array([math.cos(theta), 0, 0, math.sin(theta)], dtype=complex)
    )
    assert abs(concurrence(phi) - abs(math.sin(2 * theta))) < 1e-12


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_concurrence_local_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(rng, QUBIT_PAIR)
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    rotated = PureState(QUBIT_PAIR, u @ psi.amplitudes)
    assert abs(concurrence(rotated) - concurrence(psi)) < 1e-10
    assert 0.0 <= concurrence(psi) <= 1.0


def test_magic_basis_elements():
    mb = magic_basis()
    gram = np.array([[a.inner(b) for b in mb] for a in mb])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12
    coords = magic_coords(mb[0])
    assert np.allclose(coords.lambdas, [1, 0, 0, 0])
    assert abs(coords.concurrence - 1.0) < 1e-12


def test_magic_coords_product_state_is_null_quadric():
    coords = magic_coords(ket(QUBIT_PAIR, "01"))
    assert abs(np.sum(coords.lambdas**2)) < 1e-12


def test_magic_concurrence_matches_determinant(rng):
    for _ in range(50):
        psi = random_pure_state(rng, QUBIT_PAIR)
        assert abs(magic_coords(psi).concurrence - concurrence(psi)) < 1e-10


def test_orthocomplement_counts_and_gram():
    comp = orthonormal_completion([ket(QUBIT_PAIR, "00")])
    assert len(comp) == 3
    full = [ket(QUBIT_PAIR, "00")] + comp
    gram = np.array([[a.inner(b) for b in full] for a in full])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10


def test_orthocomplement_w_state(qubit3):
    comp = orthonormal_completion([w_state(qubit3)])
    assert len(comp) == 7
    assert max(abs(w_state(qubit3).inner(s)) for s in comp) < 1e-10


def test_orthocomplement_deterministic(rng):
    phi = random_pure_state(rng, QUBIT_PAIR)
    first = orthonormal_completion([phi])
    second = orthonormal_completion([phi])
    for a, b in zip(first, second):
        assert np.array_equal(a.amplitudes, b.amplitudes)


@pytest.mark.parametrize("overlap, accepted", [(5e-10, True), (5e-9, False)])
def test_instances_and_completions_share_one_orthonormality_test(overlap, accepted):
    # a set that an instance accepts must complete, and one it rejects must
    # not: both test the same Gram matrix at 1e-9
    first = ket(QUBIT_PAIR, "00")
    second = PureState.normalized(QUBIT_PAIR, np.array([overlap, 1.0, 0.0, 0.0]))
    if accepted:
        DiscriminationInstance.from_pure(QUBIT_PAIR, [first, second])
        assert len(orthonormal_completion([first, second])) == 2
    else:
        with pytest.raises(InvalidInstance):
            DiscriminationInstance.from_pure(QUBIT_PAIR, [first, second])
        with pytest.raises(DimensionMismatch):
            orthonormal_completion([first, second])


def test_ghz_helper(qubit3):
    g = ghz_theta(qubit3, 0.6)
    assert abs(np.linalg.norm(g.amplitudes) - 1) < 1e-12


_S23 = StateSpace((2, 3))
_KETS = [ket(QUBIT_PAIR, label) for label in ("00", "01", "10")]


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PureState(QUBIT_PAIR, np.ones(3) / math.sqrt(3.0)), DimensionMismatch, "does not match D=4"),
        (lambda: PureState(QUBIT_PAIR, [np.nan, 1.0, 0.0, 0.0]), DimensionMismatch, "amplitudes must be finite"),
        (lambda: PureState.normalized(QUBIT_PAIR, np.zeros(4)), DimensionMismatch, "cannot normalize the zero vector"),
        (lambda: basis_state(QUBIT_PAIR, (0,)), DimensionMismatch, "one index per party required"),
        (lambda: DiscriminationInstance.from_pure(QUBIT_PAIR, []), InvalidInstance, "need at least one state"),
        (lambda: DiscriminationInstance.from_pure(QUBIT_PAIR, _KETS, _KETS[0]), InvalidInstance, "declared phi must be orthogonal"),
        (lambda: state_from_coeff_matrix(np.eye(3)), WrongSpace, "expected a 2x2 coefficient matrix"),
        (lambda: magic_coords(ket(_S23, "00")), WrongSpace, "magic coordinates are defined on 2x2 spaces only"),
        (lambda: orthonormal_completion([]), DimensionMismatch, "need at least one state to complete"),
    ],
    ids=[
        "wrong_length",
        "non_finite",
        "normalize_zero",
        "index_count",
        "no_states",
        "phi_overlaps_a_state",
        "coeff_matrix_not_2x2",
        "magic_coords_not_2x2",
        "complete_nothing",
    ],
)
def test_public_input_checks_reject(build, error, message):
    with pytest.raises(error, match=message):
        build()
