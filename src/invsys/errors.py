"""Exception hierarchy shared by all invsys modules."""


class InvsysError(Exception):
    """Base class for all structured invsys failures."""


class CycleDetected(InvsysError):
    """Cover relation induces a cycle, so the closure is not antisymmetric."""


class UnknownElement(InvsysError):
    """A declaration references an element that was never declared."""


class MissingBond(InvsysError):
    """A cover pair has no bonding map attached."""


class NotFunction(InvsysError):
    """A bonding map is not a total function into the declared target carrier."""


class FunctorialityViolation(InvsysError):
    """Two cover paths between the same elements compose to different bonds."""


class BudgetExceeded(InvsysError):
    """A flag enumeration or a thread elimination grew past its budget."""


class NoMaximum(InvsysError):
    """The base poset has no maximum element."""


class EmptyFiber(InvsysError):
    """A fiber over a thread value is empty; the level map is not onto."""


class SigmaNotInjective(InvsysError):
    """A bonding map of the target system is not injective."""


class OddLength(InvsysError):
    """An even-tuple has odd length."""


class NotMember(InvsysError):
    """A tuple is not a member of the even-tuple set at the stated level."""


class NotComparable(InvsysError):
    """Two elements are not comparable where the operation requires it."""


class NoStrictUpper(InvsysError):
    """No element lies strictly above the given one inside the truncation."""


class NotCompatible(InvsysError):
    """A family of tuples is not compatible with the connecting maps."""


class SupportExceedsBound(InvsysError):
    """A free-abelian element involves generators outside the truncation."""


class LevelMismatch(InvsysError):
    """Two coset elements live at different levels."""


class NotLevelwiseExact(InvsysError):
    """A short sequence of systems fails exactness at some level."""


class SquaresDoNotCommute(InvsysError):
    """A ladder of level maps does not commute with the bonds."""


class BadOption(InvsysError):
    """A command-line option has a value the command cannot use."""


class ParseError(InvsysError):
    def __init__(self, line, message):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")
