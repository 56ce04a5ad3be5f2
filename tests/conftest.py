import math

import numpy as np
import pytest

from sepdisc.discrimination import DiscriminationInstance, decide
from sepdisc.linalg import kron_all
from sepdisc.sampling import random_unitary
from sepdisc.states import PureState, QUBIT_PAIR, StateSpace, ket


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def qubit3():
    return StateSpace((2, 2, 2))


def bell(which: str) -> PureState:
    inv = 1 / np.sqrt(2)
    vecs = {
        "phi+": [inv, 0, 0, inv],
        "phi-": [inv, 0, 0, -inv],
        "psi+": [0, inv, inv, 0],
        "psi-": [0, inv, -inv, 0],
    }
    return PureState(QUBIT_PAIR, np.array(vecs[which], dtype=complex))


def ghz_theta(space: StateSpace, theta: float) -> PureState:
    vec = np.cos(theta) * ket(space, "0" * space.nparties).amplitudes + np.sin(theta) * ket(
        space, "1" * space.nparties
    ).amplitudes
    return PureState(space, vec)


def w_state(space: StateSpace) -> PureState:
    k = space.nparties
    vec = sum(ket(space, "0" * i + "1" + "0" * (k - i - 1)).amplitudes for i in range(k))
    return PureState.normalized(space, vec)


def decide_with_phi(phi: PureState, basis):
    """decide() on the D-1 states of a basis of {phi}^perp, phi declared."""
    return decide(DiscriminationInstance.from_pure(phi.space, basis, phi))


def census_cell(dims, n, seed) -> DiscriminationInstance:
    """The first n columns of a Haar unitary, census seed 100 + s."""
    space = StateSpace(dims)
    u = random_unitary(np.random.default_rng(100 + seed), space.dim)
    return DiscriminationInstance.from_pure(space, [PureState(space, c) for c in u[:, :n].T])


# -- unextendible product bases (Bennett et al., PRL 82, 5385 (1999)) ----------


def _upb(dims, vectors) -> DiscriminationInstance:
    space = StateSpace(dims)
    return DiscriminationInstance.from_pure(space, [PureState(space, kron_all(factors)) for factors in vectors])


def upb_tiles() -> DiscriminationInstance:
    e0, e1, e2 = np.eye(3)
    return _upb(
        (3, 3),
        [
            (e0, (e0 - e1) / math.sqrt(2)),
            ((e0 - e1) / math.sqrt(2), e2),
            (e2, (e1 - e2) / math.sqrt(2)),
            ((e1 - e2) / math.sqrt(2), e0),
            (np.ones(3) / math.sqrt(3), np.ones(3) / math.sqrt(3)),
        ],
    )


def upb_shifts() -> DiscriminationInstance:
    zero, one = np.eye(2)
    plus, minus = (zero + one) / math.sqrt(2), (zero - one) / math.sqrt(2)
    return _upb((2, 2, 2), [(zero, one, plus), (one, plus, zero), (plus, zero, one), (minus, minus, minus)])


def upb_pyramid() -> DiscriminationInstance:
    # the apex vectors v_i, with v_i orthogonal to v_{i +- 2}; member i is
    # v_i (x) v_{2i mod 5}
    h, norm = math.sqrt(1.0 + math.sqrt(5.0)) / 2.0, 2.0 / math.sqrt(5.0 + math.sqrt(5.0))
    v = [norm * np.array([math.cos(2 * math.pi * i / 5), math.sin(2 * math.pi * i / 5), h]) for i in range(5)]
    return _upb((3, 3), [(v[i], v[2 * i % 5]) for i in range(5)])


def upb_with_complement(build) -> DiscriminationInstance:
    """The members of a UPB and the projector onto their orthocomplement, a
    bound entangled (PPT) state: projectors that fill the space."""
    inst = build()
    return DiscriminationInstance.from_projectors(inst.space, [*inst.projectors, inst.residual_projector])
