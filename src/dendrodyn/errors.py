"""Exception types shared across the library."""


class DendrodynError(Exception):
    """Base class for all dendrodyn errors."""


class InvalidDendrite(DendrodynError):
    """The vertex/edge data does not describe a weighted tree."""


class PointOffDendrite(DendrodynError):
    """A point references an unknown vertex or edge, or an out-of-range parameter."""


class EmptySet(DendrodynError):
    pass


class EmptySubdendrite(DendrodynError):
    pass


class EmptyCover(DendrodynError):
    pass


class ChainingViolation(DendrodynError):
    """Edge enumeration breaks the one-new-attachment-point rule.

    The offending 1-based index is stored on ``index``.
    """

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"chaining violated at edge index {index}")


class DendriteMismatch(DendrodynError):
    """Two objects live on different dendrites."""


class DomainMismatch(DendrodynError):
    """A function or measure is evaluated against the wrong dendrite."""


class InvalidHomeo(DendrodynError):
    """Construction data does not describe a representable homeomorphism."""


class UnknownSymbol(DendrodynError):
    pass


class NotReduced(DendrodynError):
    pass


class NotProbability(DendrodynError):
    pass


class NotCertifiedOrbit(DendrodynError):
    pass


class FrontierEmpty(DendrodynError):
    pass


class CoverageGap(DendrodynError):
    """Some minimal-set point does not attach to the frontier of the sub-tree."""


class NoFiniteOrbitFound(DendrodynError):
    """No finite orbit was certified among the scanned branch points."""


class BudgetExceeded(DendrodynError):
    """An orbit scan hit its radius budget without certifying closure."""


class ConfigInvalid(DendrodynError):
    pass


class ReportMissing(DendrodynError):
    pass
