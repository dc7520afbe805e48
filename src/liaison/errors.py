"""Exception hierarchy shared by the whole package."""


class LiaisonError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(LiaisonError, ValueError):
    """Arguments that do not describe a valid construction; also a
    ValueError, for callers that catch that."""


class NonPrimeCharacteristic(LiaisonError):
    pass


class InhomogeneousInput(LiaisonError):
    pass


class RingMismatch(LiaisonError):
    pass


class DegreeOverflow(LiaisonError):
    """A monomial's weighted degree reached the limit of the packed
    monomial encoding (``2**20``); raised instead of wrapping."""


class LengthMismatch(LiaisonError):
    pass


class IllDefinedMap(LiaisonError):
    pass


class ZeroModule(LiaisonError):
    pass


class GradeMismatch(LiaisonError):
    pass


class NotCohenMacaulay(LiaisonError):
    pass


class NotRegularSequence(LiaisonError):
    pass


class EqualIdeals(LiaisonError):
    pass


class InjectivePhi(LiaisonError):
    pass


class NuNotIso(LiaisonError):
    pass


class ClassMembershipUndecided(LiaisonError):
    pass


class RegularSequenceNotFound(LiaisonError):
    """Deterministic search exhausted its coefficient budget."""


class BrokenChain(LiaisonError):
    def __init__(self, message, step=None):
        super().__init__(message if step is None else f"step {step}: {message}")
        self.step = step


class LiftFailed(LiaisonError):
    pass


class UnknownGallery(LiaisonError):
    pass


class SpecSyntaxError(LiaisonError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")


class UnknownName(LiaisonError):
    pass


class NonCMForCanonical(LiaisonError):
    pass


class ZeroDimensional(LiaisonError):
    pass


class InternalConsistencyError(LiaisonError):
    """A theorem-backed invariant failed; this is a build-stopping bug."""
