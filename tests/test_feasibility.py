import dataclasses
import warnings

import numpy as np
import pytest

import sepdisc.separability as separability
from sepdisc.config import DEFAULT
from sepdisc.constructions import (
    FamilyParams,
    SubspaceFamily,
    TetraPoint,
    basis_from_unitary,
    family_sep_not_locc,
    gamma_range,
    indistinguishable_subspace,
    tetra_unitary,
)
from sepdisc.discrimination import DiscriminationInstance, VerdictStatus, decide, validate_certificate
from sepdisc.errors import PreconditionViolated
from sepdisc.linalg import partial_transpose
from sepdisc.sampling import random_basis_of_complement, random_product_basis, random_pure_state, random_unitary
from sepdisc.separability import (
    _GRAZING,
    _PEAK_BRACKET,
    _PEAK_WIDTH,
    _intervals,
    _peaks,
    _PencilBlock,
    _slopes,
    _solve_dykstra,
    SepStatus,
    constraint_residual,
    element_separability,
    feasibility_solve,
)
from sepdisc.states import PureState, QUBIT_PAIR, StateSpace, ket, orthocomplement_basis, phi_plus
from tests.conftest import bell, census_cell


def _instance(states):
    return DiscriminationInstance.from_pure(states[0].space, states)


def test_single_block_product_projector():
    # all but one product state: the residual goes entirely to that block
    space = QUBIT_PAIR
    p1 = np.eye(4, dtype=complex) - ket(space, "11").density()
    out = feasibility_solve(DiscriminationInstance.from_projectors(space, [p1]))
    assert out.feasible
    assert np.max(np.abs(out.e_ops[0] - ket(space, "11").density())) < 1e-7


@pytest.mark.parametrize("cap", [0, -3])
def test_iteration_cap_below_one_rejected(cap):
    spec = indistinguishable_subspace(SubspaceFamily.BIPARTITE_3X3_DIM7)
    with pytest.raises(PreconditionViolated):
        feasibility_solve(DiscriminationInstance.from_pure(spec.space, spec.complement), max_iterations=cap)


def test_bell_triple_infeasible():
    instance = _instance([bell("phi-"), bell("psi+"), bell("psi-")])
    out = feasibility_solve(instance)
    assert not out.feasible and not out.stalled
    assert validate_certificate(out.dual, instance)["valid"]


def test_concurrence_one_zero_zero_feasible():
    out = feasibility_solve(_instance([bell("phi-"), ket(QUBIT_PAIR, "01"), ket(QUBIT_PAIR, "10")]))
    assert out.feasible
    assert out.residual < 1e-7
    assert np.max(np.abs(out.e_ops[0] - phi_plus().density())) < 1e-6
    assert np.linalg.norm(out.e_ops[1]) < 1e-6
    assert np.linalg.norm(out.e_ops[2]) < 1e-6


def test_dykstra_path_matches_exact_path():
    instance = _instance([bell("phi-"), ket(QUBIT_PAIR, "01"), ket(QUBIT_PAIR, "10")])
    exact = feasibility_solve(instance)
    iterative = _solve_dykstra(instance)
    assert exact.feasible and iterative.feasible
    assert iterative.residual < 1e-7
    assert np.max(np.abs(iterative.e_ops[0] - phi_plus().density())) < 1e-6

    bells = _instance([bell("phi-"), bell("psi+"), bell("psi-")])
    exact = feasibility_solve(bells)
    iterative = _solve_dykstra(bells)
    assert not exact.feasible and not iterative.feasible
    for out in (exact, iterative):
        assert validate_certificate(out.dual, bells)["valid"]


def test_rank2_residual_projector_uses_dykstra():
    # spanning pair of a 7-dimensional complement: the iterative path runs
    # and ends with a dual certificate that the relaxation is infeasible
    space = StateSpace((3, 3))
    phi1 = PureState.normalized(space, np.eye(3, dtype=complex).reshape(9))
    phi2 = ket(space, "01")
    from sepdisc.states import orthonormal_completion

    instance = _instance(orthonormal_completion([phi1, phi2]))
    out = feasibility_solve(instance, max_iterations=2500)
    assert not out.feasible and out.iterations > 0  # the Dykstra path ran
    assert validate_certificate(out.dual, instance)["valid"]


# -- dual certificates: soundness on feasible inputs, agreement, tampering ----

@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_no_dual_on_feasible_two_state_instances(dims):
    # two orthogonal pure states are always distinguishable, so the
    # relaxation is feasible and no dual may fire on the way to it
    space = StateSpace(dims)
    for seed in range(12):
        u = random_unitary(np.random.default_rng(seed), space.dim)[:, :2]
        projectors = [np.outer(c, c.conj()) for c in u.T]
        out = feasibility_solve(DiscriminationInstance.from_projectors(space, projectors))
        assert out.feasible and out.dual is None, seed


def test_dykstra_check_schedule(monkeypatch):
    # census 2x2x3, n = 3, s = 2 stalls at 2,000 iterations; capped at 40 it
    # checks the residual at iteration 1, every 5 iterations and the cap
    # (1, 5, 10, ..., 40), and tries the dual at 1, 5, 10, 20 and 40
    space = StateSpace((2, 2, 3))
    u = random_unitary(np.random.default_rng(102), space.dim)[:, :3]
    instance = _instance([PureState(space, c) for c in u.T])
    calls = {"check_dual": 0, "constraint_residual": 0}
    for name in calls:
        original = getattr(separability, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(separability, name, counted)
    out = _solve_dykstra(instance, max_iterations=40)
    assert not out.feasible and out.dual is None and out.iterations == 40
    assert calls == {"check_dual": 5, "constraint_residual": 9}


@pytest.mark.parametrize("kind", list(SubspaceFamily))
def test_subspace_rotations_get_their_dual_at_iteration_1(kind):
    # Haar rotations of the dim7 and dim6 complements, built as the
    # benchmark builds them: the first dual attempt already proves them
    spec = indistinguishable_subspace(kind)
    cols = np.column_stack([s.amplitudes for s in spec.complement])
    rng = np.random.default_rng(21)
    for trial in range(12):
        mixed = cols @ random_unitary(rng, cols.shape[1])
        instance = _instance([PureState(spec.space, c) for c in mixed.T])
        verdict = decide(instance)
        assert verdict.status is VerdictStatus.INDISTINGUISHABLE and verdict.theorem == "PPT-dual", trial
        assert verdict.diagnostics["iterations"] == 1, trial
        check = validate_certificate(verdict.certificate, instance)
        assert check["valid"] and check["objective"] / check["scale"] <= -0.1, trial


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_dykstra_dual_agrees_with_rank1_path(dims):
    for seed in range(6):
        instance = _haar_rank1(dims, seed)
        assert not feasibility_solve(instance).feasible
        out = _solve_dykstra(instance)
        assert validate_certificate(out.dual, instance)["valid"], seed


@pytest.mark.parametrize("kind", list(SubspaceFamily))
def test_tampered_dual_certificates_rejected(kind):
    spec = indistinguishable_subspace(kind)
    instance = DiscriminationInstance.from_pure(spec.space, spec.complement)
    verdict = decide(instance)
    assert verdict.status is VerdictStatus.INDISTINGUISHABLE and verdict.theorem == "PPT-dual"
    cert = verdict.certificate
    assert validate_certificate(cert, instance)["valid"]
    # a negated Y alone is repaired by the absorption step (Y is near a
    # multiple of Pi here), so the tampering negates the whole record; the
    # recorded objective and scale are never read
    negated = dataclasses.replace(cert, y=-cert.y, z=-cert.z)
    zeroed = dataclasses.replace(cert, z=np.zeros_like(cert.z), objective=-1.0, scale=1.0)
    # non-finite matrices fail before any eigen-decomposition
    nan_y = dataclasses.replace(cert, y=np.full_like(cert.y, np.nan))
    with np.errstate(invalid="ignore"):
        inf_z = dataclasses.replace(cert, z=cert.z * np.inf)
    # fields of the wrong type fail without raising
    malformed = [dataclasses.replace(cert, y="Y"), dataclasses.replace(cert, z=[[1.0], [1.0, 2.0]])]
    malformed += [dataclasses.replace(cert, cuts=None), dataclasses.replace(cert, cuts=(("a",),))]
    # an empty cut list sums no partial transpose and proves nothing
    malformed += [dataclasses.replace(cert, cuts=(), z=np.zeros(cert.z.shape[:1] + (0,) + cert.z.shape[2:]))]
    for bad in [negated, zeroed, nan_y, inf_z] + malformed:
        assert not validate_certificate(bad, instance)["valid"]
    # the same certificate against a feasible instance of the same shape
    product = random_product_basis(np.random.default_rng(3), spec.space)[: len(spec.complement)]
    feasible = DiscriminationInstance.from_pure(spec.space, product)
    assert decide(feasible).status is VerdictStatus.DISTINGUISHABLE
    assert not validate_certificate(cert, feasible)["valid"]


def _dim7_rotation():
    spec = indistinguishable_subspace(SubspaceFamily.BIPARTITE_3X3_DIM7)
    cols = np.column_stack([s.amplitudes for s in spec.complement])
    mixed = cols @ random_unitary(np.random.default_rng(21), cols.shape[1])
    return _instance([PureState(spec.space, c) for c in mixed.T])


def _rotated_family_projectors():
    _, basis = family_sep_not_locc(FamilyParams(0.3, 0.4, sum(gamma_range(0.3, 0.4)) / 2))
    rng = np.random.default_rng(4)
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    return DiscriminationInstance.from_projectors(QUBIT_PAIR, [u @ s.density() @ u.conj().T for s in basis])


def _haar_projectors():
    return DiscriminationInstance.from_projectors(QUBIT_PAIR, _haar_rank1((2, 2), 0).projectors)


_PARTS = ["affine", "psd", "ppt"]


# ending: instance, cap, (feasible, has dual, stalled, iterations, e_ops is None), diagnostics keys
@pytest.mark.parametrize(
    "build, cap, flags, keys",
    [
        (lambda: census_cell((2, 3), 2, 0), None, (True, False, False, 1, False), _PARTS),
        (_dim7_rotation, None, (False, True, False, 1, False), _PARTS),
        (lambda: census_cell((3, 3), 3, 1), 1, (False, False, True, 1, False), _PARTS + ["iteration_cap"]),
        (_rotated_family_projectors, None, (True, False, False, 0, False), ["path", "lambdas"] + _PARTS),
        (_haar_projectors, None, (False, True, False, 0, True), ["path"]),
    ],
    ids=["dykstra_feasible", "dykstra_dual", "dykstra_cap", "rank1_feasible", "rank1_dual"],
)
def test_each_solver_ending_pins_its_outcome(build, cap, flags, keys):
    instance = build()
    out = feasibility_solve(instance, max_iterations=cap)
    assert (out.feasible, out.dual is not None, out.stalled, out.iterations, out.e_ops is None) == flags
    assert list(out.diagnostics) == keys
    assert out.residual <= DEFAULT.feasibility if out.feasible else out.residual > DEFAULT.feasibility
    if cap is not None:
        assert out.diagnostics["iteration_cap"] == cap
    if out.dual is not None:
        assert validate_certificate(out.dual, instance)["valid"]


# -- rank-1 path: exact pencil endpoints and the dual certificate -------------

def _haar_rank1(dims, seed):
    rng = np.random.default_rng(seed)
    phi = random_pure_state(rng, StateSpace(dims))
    return _instance(random_basis_of_complement(rng, phi))


def _rotated_family():
    """The family basis at alpha, beta = 0.3, 0.4 and the midpoint of its
    gamma range, rotated by a fixed local unitary."""
    _, basis = family_sep_not_locc(FamilyParams(0.3, 0.4, sum(gamma_range(0.3, 0.4)) / 2))
    rng = np.random.default_rng(5)
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    return _instance([PureState(QUBIT_PAIR, u @ s.amplitudes) for s in basis])


def _as_projectors(instance, scale=1.0):
    """The instance as projectors, the first scaled by ``scale``: at 1 - 3e-9
    from_projectors accepts it, and P0 gains an eigenvalue of 3e-9."""
    first, *rest = instance.projectors
    return DiscriminationInstance.from_projectors(instance.space, [first * scale, *rest])


@pytest.mark.parametrize("r", [None, 1e-7, 1e-11])
@pytest.mark.parametrize(
    "build, status",
    [(_rotated_family, VerdictStatus.DISTINGUISHABLE), (lambda: _haar_rank1((2, 3), 1), VerdictStatus.INDISTINGUISHABLE)],
    ids=["family_2x2", "haar_2x3"],
)
def test_perturbed_projector_keeps_the_rank1_verdict(build, status, r):
    # P0's rank is D less the members' ranks, so a near-zero eigenvalue of P0
    # moves neither the path nor the verdict, at any rank tolerance
    tol = DEFAULT if r is None else dataclasses.replace(DEFAULT, rank=r, psd=r)
    for scale in (1.0, 1.0 - 3e-9):
        instance = _as_projectors(build(), scale)
        verdict = decide(instance, tol)
        assert verdict.status is status and verdict.diagnostics["path"] == "rank1-exact", scale
        assert verdict.theorem == ("T1" if status is VerdictStatus.DISTINGUISHABLE else "PPT-dual")
        assert validate_certificate(verdict.certificate, instance, tol)["valid"], scale


def test_residual_rank_and_support():
    spec = indistinguishable_subspace(SubspaceFamily.BIPARTITE_3X3_DIM7)
    cases = [
        (_instance(orthocomplement_basis(phi_plus())), 1),
        (_instance(spec.complement), 2),
        (_as_projectors(_rotated_family(), 1.0 - 3e-9), 1),
        (_instance([bell(b) for b in ("phi+", "phi-", "psi+", "psi-")]), 0),
    ]
    for instance, rank in cases:
        pi, p0 = instance.residual_support, instance.residual_projector
        assert instance.residual_rank == rank
        assert np.abs(pi - pi.conj().T).max() <= 1e-12 and np.abs(pi @ pi - pi).max() <= 1e-12
        assert abs(np.trace(pi) - rank) <= 1e-12
        # Pi spans P0's support: P0 lives on it within the 1e-8 input pinning
        assert np.abs(pi @ p0 @ pi - p0).max() <= 1e-8
        assert instance.residual_support is pi
    assert not cases[-1][0].residual_support.any()


def _stacks(instance):
    """The (n, C, d, d) block stack A, the one (C, d, d) stack B and every
    block's exact peak."""
    p0, dims, cuts = instance.residual_projector, instance.space.dims, instance.space.cuts
    a = np.stack([_PencilBlock(pk, dims, cuts).a for pk in instance.projectors])
    b = np.stack([partial_transpose(p0, dims, cut) for cut in cuts])
    return (a, b, *_peaks(a, b, np.inf))


def _v(a, b, lams):
    """v_k(lams[k]) of every block, as :func:`_slopes` reads it."""
    return np.array([v for v, _, _, _ in _slopes(a, b, np.asarray(lams))])


def _assert_exact_endpoints(a, b, peaks, vmins, level):
    lows, highs = _intervals(a, b, peaks, vmins, level)
    step = 1e-6
    for k in range(len(peaks)):
        if lows[k] == highs[k]:  # grazing block: its peak alone
            assert lows[k] == peaks[k]
            continue
        for end, outward in ((lows[k], -step), (highs[k], step)):
            inside = _v(a[k : k + 1], b, np.array([end]))[0]
            assert inside <= level + 1e-10
            if end in (-1.5, 2.5):  # clipped by the window
                continue
            outside = _v(a[k : k + 1], b, np.array([end + outward]))[0]
            assert outside > level


def _assert_rank1_dual(projectors, space):
    """The exact path proves the projectors indistinguishable by a PPT dual
    that validates, through the solver and through decide alike."""
    instance = DiscriminationInstance.from_projectors(space, projectors)
    out = feasibility_solve(instance)
    assert out.diagnostics["path"] == "rank1-exact"
    assert not out.feasible and not out.stalled
    checked = validate_certificate(out.dual, instance)
    assert checked["valid"] and checked["objective"] < 0.0
    verdict = decide(instance)
    assert verdict.status is VerdictStatus.INDISTINGUISHABLE and verdict.theorem == "PPT-dual"
    assert verdict.diagnostics["path"] == "rank1-exact"
    assert validate_certificate(verdict.certificate, instance)["valid"]
    return out.dual


# the margin is the dual's relative objective; the endpoints are those of
# the level-0 intervals the dual bounds
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
@pytest.mark.parametrize("seed", range(6))
def test_rank1_haar_margin_and_endpoints(dims, seed):
    instance = _haar_rank1(dims, seed)
    _assert_rank1_dual(instance.projectors, instance.space)
    _assert_exact_endpoints(*_stacks(instance), 0.0)


def _tetra_interior_projectors(count=12):
    """Projector triples of bases at seeded points strictly inside the
    tetrahedron."""
    rng = np.random.default_rng(7)
    while count:
        x = rng.uniform(0.05, 0.95, 3)
        if x.sum() > 1.05 and np.all(x.sum() - 2 * x < 0.95):
            count -= 1
            yield [s.density() for s in basis_from_unitary(tetra_unitary(TetraPoint(*x)))]


def test_rank1_tetrahedron_interior_projectors_get_duals():
    # strictly inside the tetrahedron every block grazes the boundary at its
    # peak lambda* and the lambda* do not sum to 1
    for projectors in _tetra_interior_projectors():
        _assert_rank1_dual(projectors, QUBIT_PAIR)


def test_rank1_dual_rejected_on_a_feasible_instance():
    instance = _haar_rank1((2, 2), 0)
    dual = _assert_rank1_dual(instance.projectors, instance.space)
    phi, basis = family_sep_not_locc(FamilyParams(0.3, 0.4, sum(gamma_range(0.3, 0.4)) / 2))
    feasible = DiscriminationInstance.from_projectors(QUBIT_PAIR, [s.density() for s in basis])
    assert decide(feasible).status is VerdictStatus.DISTINGUISHABLE
    assert not validate_certificate(dual, feasible)["valid"]


@pytest.mark.parametrize("alpha, beta, frac", [(0.2, 0.5, 0.0), (0.3, 0.4, 0.3), (0.1, 0.7, 0.7), (0.3, 0.4, 1.0)])
def test_rank1_family_feasible_with_valid_certificate(alpha, beta, frac):
    lo, hi = gamma_range(alpha, beta)
    phi, basis = family_sep_not_locc(FamilyParams(alpha, beta, lo + frac * (hi - lo)))
    instance = _instance(basis)
    out = feasibility_solve(instance)
    assert out.feasible
    lam = np.array(out.diagnostics["lambdas"])
    assert abs(lam.sum() - 1.0) < 1e-12
    a, b, peaks, vmins = _stacks(instance)
    _assert_exact_endpoints(a, b, peaks, vmins, 0.0)
    forced = _solve_dykstra(instance)
    assert forced.feasible and forced.dual is None

    inst = DiscriminationInstance.from_projectors(QUBIT_PAIR, [s.density() for s in basis])
    verdict = decide(inst)
    assert verdict.status is VerdictStatus.DISTINGUISHABLE
    assert verdict.diagnostics["path"] == "rank1-exact"
    assert validate_certificate(verdict.certificate, inst)["valid"]


def test_rank1_feasible_point_carries_the_constraint_residual_parts():
    # the water-filled point E_k = lam_k P0 is measured as Dykstra's are
    _, basis = family_sep_not_locc(FamilyParams(0.3, 0.4, sum(gamma_range(0.3, 0.4)) / 2))
    out = feasibility_solve(DiscriminationInstance.from_projectors(QUBIT_PAIR, [s.density() for s in basis]))
    assert out.feasible and out.diagnostics["path"] == "rank1-exact"
    parts = {key: out.diagnostics[key] for key in ("affine", "psd", "ppt")}
    assert out.residual == out.best_residual == max(parts.values())


# -- the peak search: bracket ends, kinks, smooth minima, grazing, budget -----

def _grid_vmin(a, b):
    """The least v of one (C, d, d) block on a 201-point grid over
    _PEAK_BRACKET, refined eight times around its best point: for a convex v
    the two neighbours of the best grid point bracket the peak."""
    lo, hi = _PEAK_BRACKET
    for _ in range(8):
        lams = np.linspace(lo, hi, 201)
        v = _v(a[None], b, lams)
        i = int(v.argmin())
        lo, hi = lams[max(i - 1, 0)], lams[min(i + 1, 200)]
    return v[i]


def _assert_peak_matches_grid(a, b):
    """The search on a one-block stack, with RuntimeWarnings raised, against
    the grid; returns the peak."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        peaks, vmins = _peaks(a[None], b, np.inf)
    assert abs(vmins[0] - _grid_vmin(a, b)) <= 1e-12
    assert abs(vmins[0] - _v(a[None], b, peaks)[0]) <= 1e-14  # v at the peak
    return peaks[0]


def _worst_cut(a, b, lam):
    return int(np.linalg.eigvalsh(a + lam * b)[:, 0].argmin())


@pytest.mark.parametrize("sign, end", [(-1.0, _PEAK_BRACKET[0]), (1.0, _PEAK_BRACKET[1])])
def test_peak_at_each_bracket_end(sign, end):
    # A = -I/2: with B = -I, v = 1/2 + lam rises across the bracket; with
    # B = +I, v = 1/2 - lam falls across it
    a, b = -0.5 * np.eye(2)[None], sign * np.eye(2)[None]
    assert _assert_peak_matches_grid(a, b) == end


def test_peak_at_a_kink_of_minus_lam_and_one_cut():
    # one curved cut rising through the falling -lam piece
    a = np.array([[[0.3, 0.2], [0.2, 0.7]]], dtype=complex)
    b = -np.diag([1.0, 0.5]).astype(complex)[None]
    peak = _assert_peak_matches_grid(a, b)
    assert 0.0 < peak < 0.3
    low = np.linalg.eigvalsh(a + peak * b)[:, 0].min()
    assert abs(peak - low) <= 1e-12  # -lam and the cut meet at the peak


def test_peak_at_a_kink_of_two_cuts():
    # a 2x2x2 Haar block whose worst cut changes at its peak
    a, b, peaks, _ = _stacks(_haar_rank1((2, 2, 2), 2))
    k = 2
    assert _worst_cut(a[k], b, peaks[k] - 1e-7) != _worst_cut(a[k], b, peaks[k] + 1e-7)
    assert _assert_peak_matches_grid(a[k], b) == peaks[k]


def test_peak_at_a_smooth_minimum():
    # a 2x3 Haar block whose one cut has a simple lowest eigenvalue at its
    # interior peak, where -lam is not active
    a, b, peaks, vmins = _stacks(_haar_rank1((2, 3), 0))
    k = 1
    w = np.linalg.eigvalsh(a[k, 0] + peaks[k] * b[0])
    assert w[1] - w[0] > 0.1 and vmins[k] > -peaks[k]
    assert _PEAK_BRACKET[0] < _assert_peak_matches_grid(a[k], b) < _PEAK_BRACKET[1]


def _grazing_cases():
    for alpha, beta, frac in [(0.2, 0.5, 0.0), (0.3, 0.4, 0.3), (0.1, 0.7, 0.7), (0.3, 0.4, 1.0), (0.25, 0.45, 0.5)]:
        lo, hi = gamma_range(alpha, beta)
        _, basis = family_sep_not_locc(FamilyParams(alpha, beta, lo + frac * (hi - lo)))
        yield [s.density() for s in basis]
    yield from _tetra_interior_projectors()


@pytest.mark.parametrize("projectors", list(_grazing_cases()))
def test_grazing_blocks_keep_their_peak_alone(projectors):
    # rank-1 family and tetrahedron-interior blocks touch v = 0 at their peak
    # only; the peak must sit within _PEAK_WIDTH of that kink, or the dual
    # built at lows - _PEAK_WIDTH lands on the wrong side of it
    a, b, peaks, vmins = _stacks(DiscriminationInstance.from_projectors(QUBIT_PAIR, projectors))
    assert np.all(vmins <= _GRAZING)
    lows, highs = _intervals(a, b, peaks, vmins, 0.0)
    assert np.array_equal(lows, peaks) and np.array_equal(highs, peaks)
    for side in (-_PEAK_WIDTH, _PEAK_WIDTH):
        assert np.all(_v(a, b, peaks + side) > vmins)


@pytest.mark.parametrize("seed, drop", [(1, 0), (7, 1), (9, 3), (15, 2)])
def test_rank1_plateau_blocks_take_an_interval(seed, drop):
    # a product basis minus one member: every block's violation is 0 along a
    # plateau, which the solver must meet with a feasible point, not a stall
    # at a zero-slope dual
    space = StateSpace((2, 2, 2))
    basis = random_product_basis(np.random.default_rng(seed), space)
    inst = DiscriminationInstance.from_projectors(space, [s.density() for k, s in enumerate(basis) if k != drop])
    out = feasibility_solve(inst)
    assert out.diagnostics["path"] == "rank1-exact" and out.feasible
    for pk, e in zip(inst.projectors, out.e_ops):
        assert element_separability(pk + e, space).status is SepStatus.SEPARABLE


# -- branch and bound: once one block proves infeasibility, only it is refined -

_HAAR_DIMS = [(2, 2), (2, 3), (3, 3), (2, 2, 2)]


@pytest.mark.parametrize("dims", _HAAR_DIMS)
@pytest.mark.parametrize("seed", range(6))
def test_pruned_search_keeps_the_worst_block_exact(dims, seed):
    a, b, peaks, vmins = _stacks(_haar_rank1(dims, seed))
    k = int(vmins.argmax())
    assert vmins[k] > DEFAULT.feasibility  # the block alone is infeasible
    pruned_peaks, pruned_vmins = _peaks(a, b, DEFAULT.feasibility)
    assert int(pruned_vmins.argmax()) == k
    assert pruned_peaks[k] == peaks[k] and pruned_vmins[k] == vmins[k]
    # a block stopped early keeps an upper bound on its least violation
    assert np.all(pruned_vmins >= vmins)


def test_pruned_search_keeps_the_first_of_two_worst_blocks():
    a, b, _, vmins = _stacks(_haar_rank1((2, 2, 2), 1))
    k = int(vmins.argmax())
    order = [k, k] + [j for j in range(len(a)) if j != k]
    peaks, twice = _peaks(a[order], b, DEFAULT.feasibility)
    assert int(twice.argmax()) == 0
    assert twice[0] == twice[1] == vmins[k] and peaks[0] == peaks[1]


@pytest.mark.parametrize("dims", _HAAR_DIMS)
def test_block_proved_residual_is_the_worst_least_violation(dims):
    instance = _haar_rank1(dims, 2)
    out = feasibility_solve(instance)
    assert out.dual is not None
    assert out.residual == out.best_residual == _stacks(instance)[3].max()


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3)])
def test_pruned_search_rows(dims, monkeypatch):
    # every block refined to its peak hands 405 (2x2x2) and 424 (3x3) rows to
    # _slopes over these seeds; only the worst block's bracket needs them
    rows = []
    slopes = separability._slopes

    def counted(a, b, lams):
        rows.append(len(lams))
        return slopes(a, b, lams)

    monkeypatch.setattr(separability, "_slopes", counted)
    for seed in range(6):
        assert feasibility_solve(_haar_rank1(dims, seed)).dual is not None
    assert sum(rows) <= 200


def test_rank1_solve_eigen_budget(monkeypatch):
    # a fixed-step search over the stack would take dozens of calls
    instance = _haar_rank1((2, 2, 2), 3)
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    out = feasibility_solve(instance)
    assert out.diagnostics["path"] == "rank1-exact" and out.dual is not None
    assert 0 < len(calls) <= 30


def test_constraint_residual_vanishes_at_completability_point():
    space = StateSpace((2, 2, 2))
    basis = random_product_basis(np.random.default_rng(8), space)
    projectors = [s.density() for s in basis[1:]]
    instance = DiscriminationInstance.from_projectors(space, projectors)
    v = decide(instance)
    assert v.diagnostics["path"] == "completability"
    e = np.stack([el - p for el, p in zip(v.certificate.elements, projectors)])
    res, parts = constraint_residual(e, instance)
    assert res <= 1e-12
    assert set(parts) == {"affine", "psd", "ppt"}
