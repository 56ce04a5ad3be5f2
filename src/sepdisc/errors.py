"""Exception types shared across the package."""


class SepdiscError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SepdiscError):
    pass


class NotHermitian(SepdiscError):
    pass


class NotPsd(SepdiscError):
    pass


class WrongSpace(SepdiscError):
    pass


class BadBipartition(SepdiscError):
    pass


class NotIndependent(SepdiscError):
    pass


class PreconditionViolated(SepdiscError):
    pass


class PhiProduct(SepdiscError):
    """Raised when a reference state required to be entangled is a product state."""


class WrongForm(SepdiscError):
    """Input state does not have the structural form the routine requires."""


class InvalidInstance(SepdiscError):
    pass


class ParamsOutOfRange(SepdiscError):
    pass


class TargetsOutOfRange(SepdiscError):
    pass


class PointOutsideTetrahedron(SepdiscError):
    pass


class NotUnitary(SepdiscError):
    pass


class StateFileError(SepdiscError):
    """Malformed or inconsistent state file."""
