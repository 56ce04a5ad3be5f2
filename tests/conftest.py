import numpy as np
import pytest

from sepdisc.discrimination import DiscriminationInstance, decide
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
