"""Exception types shared across the library."""


class CdlabError(Exception):
    """Base class for all library errors."""


class InvariantBroken(RuntimeError):
    """A guaranteed identity failed: a bug in cdlab, so not a CdlabError."""


class MalformedDescription(CdlabError):
    """An ambient description does not parse or is internally inconsistent."""


class NonAssociativeTable(CdlabError):
    """A Cayley table fails associativity; carries one violating triple."""

    def __init__(self, triple):
        self.triple = triple
        i, j, k = triple
        super().__init__(
            f"table is not associative: ({i}+{j})+{k} != {i}+({j}+{k})"
        )


class ElementAmbientMismatch(CdlabError):
    """An element payload is not valid for the ambient interpreting it."""


class NonCancellativeAmbiguity(CdlabError):
    """Division in a non-cancellative table ambient found two solutions."""


class AmbientMismatch(CdlabError):
    """An operation received sets or elements from different ambients."""


class BudgetExceeded(CdlabError):
    """A closure or order computation could not finish within its budget."""


class EmptySet(CdlabError):
    """An operation that needs a nonempty set received an empty one."""


class NotAUnit(CdlabError):
    """The designated shift element is not an invertible member of the set."""


class NoWitness(CdlabError):
    """No unit of the set meets the requested order threshold."""


class PreconditionViolated(CdlabError):
    """A checker was called outside its stated hypotheses."""


class WrongAmbient(CdlabError):
    """A checker restricted to one ambient kind received another."""


class SpecInvalid(CdlabError):
    """A search specification fails validation."""


class CeilingExceeded(CdlabError):
    """An exhaustive search space is larger than the configured ceiling."""


class MalformedInstance(CdlabError):
    """A replay encoding does not decode to a checkable instance."""
