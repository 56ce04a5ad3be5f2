"""The four workloads: seeded input generation, the timed request, and the
correctness check run on each output outside the timed window.

Every request calls sepdisc through module attributes looked up at call
time (``sepdisc.decide``, ``sepdisc.statefile.parse_statefile``), so that
the tracer's wrappers are seen.  Class weights are chosen so that neither
the median nor the p90 falls in the gap between two instance classes of
very different cost.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

import sepdisc
import sepdisc.statefile as sf
from sepdisc.constructions import gamma_range
from sepdisc.linalg import kron_all
from sepdisc.sampling import (
    random_basis_of_complement,
    random_entangled_2x2,
    random_local_vector,
    random_product_basis,
    random_pure_state,
    random_unitary,
)
from sepdisc.states import QUBIT_PAIR, PureState, StateSpace

DIST = "distinguishable"
INDIST = "indistinguishable"
UNDECIDED = "undecided"
# Dykstra iteration cap of the `dykstra` workload.  Uncapped, Haar-rotated
# dim7 bases can run to the 20,000-iteration default (about 12 s each); the
# cap is below the 500-iteration stall window, so every rotation does the
# same number of iterations.
DYKSTRA_CAP = 200


@dataclass(frozen=True)
class Case:
    """One input: its class, what the request consumes, the verdicts the
    checker accepts (decisions only) and canonical bytes for the digest."""

    cls: str
    payload: tuple
    expect: frozenset
    key: bytes


# -- generation helpers -------------------------------------------------------


def _local_unitary(rng, dims) -> np.ndarray:
    return kron_all([random_unitary(rng, d) for d in dims])


def _rotate(u, states):
    return [PureState(s.space, u @ s.amplitudes) for s in states]


def _family_params(rng) -> sepdisc.FamilyParams:
    a = float(rng.uniform(0.05, math.pi / 4 - 0.05))
    b = float(rng.uniform(a + 0.01, math.pi / 4))
    lo, hi = gamma_range(a, b)
    g = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
    return sepdisc.FamilyParams(a, b, g)


def _rotated_family(rng):
    phi, basis = sepdisc.family_sep_not_locc(_family_params(rng))
    u = _local_unitary(rng, (2, 2))
    return _rotate(u, [phi])[0], _rotate(u, basis)


def _targets(rng) -> tuple[float, float, float]:
    c = rng.dirichlet([1.0, 1.0, 1.0, 1.0])[:3]
    return tuple(float(x) for x in c)


def _face_point(rng) -> tuple[float, float, float]:
    return tuple(float(x) for x in rng.dirichlet([1.0, 1.0, 1.0]))


def _interior_point(rng) -> tuple[float, float, float]:
    while True:
        x = rng.uniform(0.05, 0.95, 3)
        s = float(x.sum())
        if s > 1.05 and all(s - 2 * xi < 0.95 for xi in x):
            return tuple(float(v) for v in x)


def _ghz_phi(rng) -> PureState:
    """cos(t) a + sin(t) b with product a, b orthogonal on all three qubits."""
    space = StateSpace((2, 2, 2))
    us = [random_unitary(rng, 2) for _ in range(3)]
    a = kron_all([u[:, 0] for u in us])
    b = kron_all([u[:, 1] for u in us])
    t = float(rng.uniform(0.2, math.pi / 2 - 0.2))
    return PureState.normalized(space, math.cos(t) * a + math.sin(t) * b)


def _haar_rotation(rng, spec) -> list[PureState]:
    cols = np.column_stack([s.amplitudes for s in spec.complement])
    mixed = cols @ random_unitary(rng, cols.shape[1])
    return [PureState(spec.space, mixed[:, j]) for j in range(mixed.shape[1])]


def _product_control(rng) -> list[PureState]:
    """Product basis of 2x2x2 minus two members that differ only on the last
    qubit: every vector of the residual span is a product, so Dykstra
    converges at its first check to a product-decomposable POVM."""
    basis = random_product_basis(rng, StateSpace((2, 2, 2)))
    d = int(rng.integers(0, 4))
    return [s for k, s in enumerate(basis) if k not in (2 * d, 2 * d + 1)]


def _names(n: int) -> list[str]:
    return [f"psi{k + 1}" for k in range(n)]


def _statefile(space, states, phi=None) -> str:
    return sf.serialize_statefile(space, list(zip(_names(len(states)), states)), ("phi", phi) if phi else None)


def _array_key(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=complex).tobytes() for a in arrays)


# -- analytic: the CLI decide path, parse -> decide -> report ---------------------


def _gen_analytic(cls: str, rng) -> tuple[str, str]:
    q3 = StateSpace((2, 2, 2))
    if cls == "haar_2x2":
        phi = random_entangled_2x2(rng, 0.05)
        return _statefile(QUBIT_PAIR, random_basis_of_complement(rng, phi), phi), INDIST
    if cls == "family_2x2":
        phi, basis = _rotated_family(rng)
        return _statefile(QUBIT_PAIR, basis, phi), DIST
    if cls == "targets_2x2":
        phi, basis = sepdisc.basis_for_targets(*_targets(rng))
        u = _local_unitary(rng, (2, 2))
        return _statefile(QUBIT_PAIR, _rotate(u, basis), _rotate(u, [phi])[0]), DIST
    if cls in ("tetra_face", "tetra_interior"):
        x = _face_point(rng) if cls == "tetra_face" else _interior_point(rng)
        basis = sepdisc.basis_from_unitary(sepdisc.tetra_unitary(sepdisc.TetraPoint(*x)))
        return _statefile(QUBIT_PAIR, basis, sepdisc.magic_basis()[3]), DIST if cls == "tetra_face" else INDIST
    if cls == "product_3q":
        return _statefile(q3, random_product_basis(rng, q3)), DIST
    if cls == "ghz_t5":
        phi = _ghz_phi(rng)
        return _statefile(q3, sepdisc.locc_basis_sch2(phi), phi), DIST
    if cls == "prefix_pair_t4":
        pair = random_entangled_2x2(rng, 0.05)
        phi = PureState(q3, np.kron(random_local_vector(rng, 2), pair.amplitudes))
        return _statefile(q3, random_basis_of_complement(rng, phi), phi), INDIST
    if cls == "random_phi_t6":
        phi = random_pure_state(rng, q3)
        return _statefile(q3, random_basis_of_complement(rng, phi), phi), INDIST
    raise ValueError(cls)


def _request_analytic(text: str):
    data = sf.parse_statefile(text)
    instance = sepdisc.DiscriminationInstance.from_pure(
        data.space, [st for _, st in data.states], data.phi[1] if data.phi else None
    )
    verdict = sepdisc.decide(instance)
    report = sf.verdict_report(verdict, text, [name for name, _ in data.states])
    return instance, verdict, report


# -- rank1: projector instances whose residual projector has rank 1 ---------------


def _gen_rank1(cls: str, rng):
    if cls == "fullspan_3x3":
        # a Haar rank-3 projector and its complement span the space: the
        # full-span decider sends the rank-3 member, which has no product
        # decomposition and a negative partial transpose, to the PPT oracle
        space = StateSpace((3, 3))
        u = random_unitary(rng, space.dim)
        p = u[:, :3] @ u[:, :3].conj().T
        return (space, [p, np.eye(space.dim) - p]), INDIST
    if cls == "completable_2x2x2":
        # a product basis minus one member: the rank-1 residual joins the
        # member that differs from it on one party, which the completability
        # path settles before the solver starts
        space = StateSpace((2, 2, 2))
        basis = random_product_basis(rng, space)
        drop = int(rng.integers(0, len(basis)))
        return (space, [s.density() for k, s in enumerate(basis) if k != drop]), DIST
    if cls == "family_2x2":
        _, basis = _rotated_family(rng)
        space, expect = QUBIT_PAIR, DIST
    else:
        dims = tuple(int(c) for c in cls.removeprefix("haar_").split("x"))
        space = StateSpace(dims)
        basis = random_basis_of_complement(rng, random_pure_state(rng, space))
        expect = (INDIST, UNDECIDED)
    return (space, [s.density() for s in basis]), expect


def _request_rank1(space, projectors):
    instance = sepdisc.DiscriminationInstance.from_projectors(space, projectors)
    return instance, sepdisc.decide(instance), None


# -- dykstra: capped PSD+PPT solves on codimension-2 instances ----------------------


def _gen_dykstra(cls: str, rng):
    if cls == "control_2x2x2":
        states, expect = _product_control(rng), DIST
    else:
        kind = sepdisc.SubspaceFamily(cls.removesuffix("_haar"))
        states, expect = _haar_rotation(rng, sepdisc.indistinguishable_subspace(kind)), (INDIST, UNDECIDED)
    return (states[0].space, states), expect


def _request_dykstra(space, states):
    instance = sepdisc.DiscriminationInstance.from_pure(space, states)
    return instance, sepdisc.decide(instance, max_iterations=DYKSTRA_CAP), None


# -- construct: the constructions as `construct`, `sweep` and `verify` run them ---


def _gen_construct(cls: str, rng):
    if cls == "tetra_face":
        return ("tetra", _face_point(rng)), ()
    if cls == "tetra_interior":
        return ("tetra", _interior_point(rng)), ()
    if cls == "family":
        p = _family_params(rng)
        return ("family", (p.alpha, p.beta, p.gamma)), ()
    if cls == "targets":
        return ("targets", _targets(rng)), ()
    if cls == "locc_ghz":
        return ("locc", _ghz_phi(rng)), ()
    kind = sepdisc.SubspaceFamily(cls.removeprefix("subspace_"))
    spec = sepdisc.indistinguishable_subspace(kind)
    u = _local_unitary(rng, spec.space.dims)
    return ("subspace", tuple(_rotate(u, [spec.phi1, spec.phi2]))), ()


def _request_construct(what: str, arg):
    """The construction, then its state file as `sepdisc construct` writes it."""
    if what == "tetra":
        u = sepdisc.tetra_unitary(sepdisc.TetraPoint(*arg))
        basis = sepdisc.basis_from_unitary(u)
        phi = sepdisc.magic_basis()[3]
        return {"u": u, "basis": basis, "phi": phi, "text": _statefile(QUBIT_PAIR, basis, phi)}
    if what == "family":
        phi, basis = sepdisc.family_sep_not_locc(sepdisc.FamilyParams(*arg))
    elif what == "targets":
        phi, basis = sepdisc.basis_for_targets(*arg)
    elif what == "locc":
        phi, basis = arg, sepdisc.locc_basis_sch2(arg)
    else:
        spec = sepdisc.constructions.subspace_spec_from_pair(*arg)
        report = sepdisc.verify_subspace_properties(spec)
        basis = list(spec.complement)
        return {"report": report, "basis": basis, "phi": None, "text": _statefile(spec.space, basis)}
    return {"basis": basis, "phi": phi, "text": _statefile(phi.space, basis, phi)}


# -- checks ---------------------------------------------------------------------


def check_decision(case: Case, output) -> str | None:
    """None when the verdict is allowed for the case's class and every
    DISTINGUISHABLE verdict carries a certificate that re-validates."""
    instance, verdict, report = output
    status = verdict.status.value
    if status not in case.expect:
        return f"{case.cls}: verdict {status}, expected one of {sorted(case.expect)}"
    if status == DIST:
        if verdict.certificate is None:
            return f"{case.cls}: distinguishable without a certificate"
        checked = sepdisc.validate_certificate(verdict.certificate, instance)
        if not checked["valid"]:
            return f"{case.cls}: certificate rejected {checked}"
    if report is not None and json.loads(report)["status"] != status:
        return f"{case.cls}: report status differs from the verdict"
    return None


def _amplitudes_match(text: str, basis, phi) -> bool:
    data = sf.parse_statefile(text)
    got = [st.amplitudes for _, st in data.states] + ([data.phi[1].amplitudes] if data.phi else [])
    want = [s.amplitudes for s in basis] + ([phi.amplitudes] if phi is not None else [])
    return len(got) == len(want) and all(np.max(np.abs(g - w)) <= 1e-12 for g, w in zip(got, want))


def check_construct(case: Case, out) -> str | None:
    """Round trips of the tetrahedron and concurrence targets, the
    structural subspace report, orthonormality, and a lossless state file."""
    what, arg = case.payload
    basis = out["basis"]
    if what == "tetra":
        u = out["u"]
        err = float(np.max(np.abs(np.abs(np.sum(u**2, axis=1)) - np.array(arg))))
        defect = float(np.max(np.abs(u.conj().T @ u - np.eye(3))))
        if err > 1e-8 or defect > 1e-10:
            return f"{case.cls}: round-trip error {err:.2e}, unitarity defect {defect:.2e}"
    if what == "targets":
        got = sorted(sepdisc.concurrence(s) for s in basis)
        if max(abs(g - w) for g, w in zip(got, sorted(arg))) > 1e-8:
            return f"{case.cls}: concurrences {got} miss targets {arg}"
    if what == "subspace" and not out["report"].all_passed:
        return f"{case.cls}: structural properties failed"
    vecs = np.column_stack([s.amplitudes for s in basis] + ([out["phi"].amplitudes] if out["phi"] is not None else []))
    if np.max(np.abs(vecs.conj().T @ vecs - np.eye(vecs.shape[1]))) > 1e-9:
        return f"{case.cls}: output states are not orthonormal"
    if not _amplitudes_match(out["text"], basis, out["phi"]):
        return f"{case.cls}: state file does not parse back to the same amplitudes"
    return None


# -- workload table ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    classes: dict  # class -> distinct inputs of that class in one schedule cycle
    generate: object
    request: object
    check: object


WORKLOADS = {
    # The class counts set the mix.  Costs are each class's median over its
    # inputs of the fastest request (the figures the percentiles are taken
    # over; `class_p50_ms` in the provenance record), seed 1 on a 2-vCPU Xeon
    # host at 2.0 GHz; cumulative shares of the mix are in brackets.
    # haar/interior 0.9 ms [0-24%], T4/T6 1.9/2.3 ms [-43%], T1 2.6 ms [-62%],
    # family/targets/face 4.4 ms [-81%], T5 8.9 ms [-100%]: the median falls
    # inside T1 and the p90 inside T5.
    "analytic": Workload(
        classes={
            "haar_2x2": 36,
            "tetra_interior": 24,
            "prefix_pair_t4": 24,
            "random_phi_t6": 24,
            "product_3q": 48,
            "family_2x2": 24,
            "targets_2x2": 12,
            "tetra_face": 12,
            "ghz_t5": 48,
        },
        generate=_gen_analytic,
        request=_request_analytic,
        check=check_decision,
    ),
    # full-span 1.7 ms [0-6%], completable 5.5 ms [-12%], family 9.7 ms
    # [-24%]; Haar 2x2 / 2x3 / 3x3 / 2x2x2 19 / 44 / 128 / 258 ms [-40%, -68%,
    # -80%, -100%]: the median falls inside 2x3 and the p90 inside 2x2x2.
    "rank1": Workload(
        classes={
            "fullspan_3x3": 3,
            "completable_2x2x2": 3,
            "family_2x2": 6,
            "haar_2x2": 8,
            "haar_2x3": 14,
            "haar_3x3": 6,
            "haar_2x2x2": 10,
        },
        generate=_gen_rank1,
        request=_request_rank1,
        check=check_decision,
    ),
    # controls 21 ms [0-30%]; capped dim7 95 ms [-70%], dim6 149 ms [-100%]:
    # the median falls inside dim7 and the p90 inside dim6.
    "dykstra": Workload(
        classes={"control_2x2x2": 9, "dim7_haar": 12, "dim6_haar": 9},
        generate=_gen_dykstra,
        request=_request_dykstra,
        check=check_decision,
    ),
    # family/targets 0.26 ms [0-26%], tetrahedron face 0.53 ms [-42%],
    # interior 0.86 ms [-82%], LOCC bases 3.1 ms [-98%], dim7 13 ms, dim6
    # 300 ms: the median falls inside the interior points and the p90 inside
    # the LOCC bases.  Few subspace reports per cycle
    # keep their `tensor_rank`-bound cost a minor share.
    "construct": Workload(
        classes={
            "family": 80,
            "targets": 80,
            "tetra_face": 100,
            "tetra_interior": 250,
            "locc_ghz": 100,
            "subspace_dim7": 10,
            "subspace_dim6": 1,
        },
        generate=_gen_construct,
        request=_request_construct,
        check=check_construct,
    ),
}


def _key(payload) -> bytes:
    if isinstance(payload, str):
        return payload.encode()
    parts = []
    for item in payload:
        if isinstance(item, (list, tuple)):
            parts.append(_key(item))
        elif isinstance(item, PureState):
            parts.append(_array_key(item.amplitudes))
        elif isinstance(item, np.ndarray):
            parts.append(_array_key(item))
        else:
            parts.append(repr(item).encode())
    return b"|".join(parts)


def build_cases(name: str, seed: int) -> list[Case]:
    """Inputs of one workload in request order: classes interleaved so that
    every prefix of the schedule holds them in their weight proportions."""
    wl = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    slots = []
    for ci, (cls, n) in enumerate(wl.classes.items()):
        for j in range(n):
            payload, expect = wl.generate(cls, rng)
            if isinstance(payload, str):
                payload = (payload,)
            expect = frozenset((expect,) if isinstance(expect, str) else expect)
            slots.append(((j + 0.5) / n, ci, Case(cls, payload, expect, _key(payload))))
    slots.sort(key=lambda s: (s[0], s[1]))
    return [case for _, _, case in slots]


def digest(cases: list[Case]) -> str:
    h = hashlib.sha256()
    for case in cases:
        h.update(case.cls.encode() + b"\0" + case.key + b"\0")
    return "sha256:" + h.hexdigest()


def run_request(name: str, case: Case):
    return WORKLOADS[name].request(*case.payload)


def check(name: str, case: Case, output) -> str | None:
    return WORKLOADS[name].check(case, output)
