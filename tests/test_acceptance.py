"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines and worst residuals.  Sample sizes and tolerances are fixed here;
nothing is deferred to later calibration.
"""

import math

import numpy as np

from sepdisc.constructions import SubspaceFamily, SubspaceKind, indistinguishable_subspace, subspace_verdict
from sepdisc.discrimination import DiscriminationInstance, VerdictStatus, decide
from sepdisc.linalg import kron_all
from sepdisc.sampling import random_product_basis, random_unitary
from sepdisc.states import PureState, QUBIT_PAIR, StateSpace, concurrence, ket
from sepdisc.verify import (
    agreement_experiment,
    check_concurrence_sum_grid,
    check_gamma_endpoints,
    check_lemma1,
    check_lemma4_cases,
    check_lemma5,
    check_sep_not_locc,
    check_subspace_duals,
    check_subspace_properties,
    check_tetra,
)
from tests.conftest import decide_with_phi, ghz_theta, w_state

SEED = 42
S3 = StateSpace((2, 2, 2))


def _report(index: int, result) -> None:
    mark = "PASS" if result.passed else "FAIL"
    print(f"[{mark}] criterion {index}: {result.name} count={result.count} worst={result.worst:.3e} {result.detail}")
    assert result.passed, f"criterion {index} failed: {result.name} ({result.detail})"


def test_criterion_1_oracle_equivalence():
    result = agreement_experiment(SEED, n_bases=1000)
    _report(1, result)


def test_criterion_2_concurrence_sum_identity():
    grid = check_concurrence_sum_grid(20)
    _report(2, grid)
    endpoints = check_gamma_endpoints(20)
    _report(2, endpoints)


def test_criterion_3_sep_not_locc_witness():
    result = check_sep_not_locc(SEED, 100)
    _report(3, result)


def test_criterion_4_tetra_round_trip():
    round_trip, decisions = check_tetra(0.05)
    _report(4, round_trip)
    _report(4, decisions)


def test_criterion_5_subspace_trichotomy():
    failures = []
    sv = subspace_verdict(w_state(S3))
    if sv.kind is not SubspaceKind.NO_DISTINGUISHABLE_BASIS:
        failures.append("W")
    for theta in np.linspace(0.15, math.pi / 2 - 0.15, 5):
        sv = subspace_verdict(ghz_theta(S3, theta))
        if sv.kind is not SubspaceKind.HAS_LOCC_BASIS:
            failures.append(f"GHZ({theta:.2f})")
            continue
        v = decide_with_phi(ghz_theta(S3, theta), list(sv.basis))
        if v.status is not VerdictStatus.DISTINGUISHABLE:
            failures.append(f"GHZ({theta:.2f}) basis")
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    ppp = kron_all([plus] * 3)
    for ratio in (0.25, 0.5, 1.0, 2.0, 4.0):
        alpha = 1.0 / math.sqrt(1.0 + ratio**2)
        beta = ratio * alpha
        state = PureState.normalized(S3, alpha * ket(S3, "000").amplitudes + beta * ppp)
        sv = subspace_verdict(state)
        if sv.kind is not SubspaceKind.NO_DISTINGUISHABLE_BASIS:
            failures.append(f"000+plus({ratio})")
    mark = "PASS" if not failures else "FAIL"
    print(f"[{mark}] criterion 5: theorem6_trichotomy count=11 failures={failures}")
    assert not failures


def test_criterion_6_indistinguishable_subspaces():
    for kind in (SubspaceFamily.BIPARTITE_3X3_DIM7, SubspaceFamily.TRIPARTITE_222_DIM6):
        props = check_subspace_properties(kind)
        _report(6, props)
        spec = indistinguishable_subspace(kind)
        from sepdisc.tensor_rank import product_vectors_in_span

        span = product_vectors_in_span(spec.phi1, spec.phi2)
        v = span.vectors[0].assemble()
        v = v / np.linalg.norm(v)
        overlap = abs(np.vdot(v, spec.phi2.amplitudes))
        print(f"       criterion 6: unique product vector overlap with the product member: {overlap:.12f}")
        assert overlap > 1 - 1e-9
        duals = check_subspace_duals(kind, SEED, 20)
        _report(6, duals)


def test_criterion_7_lemma_suites():
    _report(7, check_lemma1(SEED, 200))
    _report(7, check_lemma4_cases(SEED + 1, 50))
    _report(7, check_lemma5(SEED + 2, 100))


def test_criterion_8_full_basis_criterion():
    rng = np.random.default_rng(SEED)
    bad = []
    for i in range(50):
        space = QUBIT_PAIR if i % 2 == 0 else S3
        basis = random_product_basis(rng, space)
        v = decide(DiscriminationInstance.from_pure(space, basis))
        if v.status is not VerdictStatus.DISTINGUISHABLE:
            bad.append(("product", i))
    bell_like = 0
    for i in range(50):
        d = 4
        u = random_unitary(rng, d)
        basis = [PureState(QUBIT_PAIR, u[:, j]) for j in range(d)]
        if all(concurrence(s) < 1e-9 for s in basis):
            continue  # astronomically unlikely; a product draw would not count
        bell_like += 1
        v = decide(DiscriminationInstance.from_pure(QUBIT_PAIR, basis))
        if v.status is not VerdictStatus.INDISTINGUISHABLE:
            bad.append(("entangled", i))
    mark = "PASS" if not bad and bell_like >= 49 else "FAIL"
    print(f"[{mark}] criterion 8: full_basis_criterion count=100 failures={bad}")
    assert not bad and bell_like >= 49
