"""Exception hierarchy shared by all regulus modules."""


class RegulusError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RegulusError):
    """Malformed or inconsistent input (bad ids, non-total maps, wrong shapes)."""


class PreconditionError(DomainError):
    """A documented operation precondition was violated.

    The message names the violated clause so callers can report it verbatim.
    """


class BudgetError(RegulusError):
    """A computation stopped at its configured budget without an answer."""
