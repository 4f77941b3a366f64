"""Exception types shared across the package, and the Fock dimension budget
that ``BudgetError`` enforces."""

# defined here so that the suite's config and the command line read it
# without loading the Fock layer
DEFAULT_DIM_CAP = 200_000


class QglabError(Exception):
    pass


class StructuralError(QglabError):
    """Tensor shapes or file schema are inconsistent (distinct from axiom failure)."""


class InvalidInstanceError(QglabError):
    """The structure tensors do not describe a valid instance (e.g. state not faithful)."""


class OwnerMismatchError(QglabError):
    """Two operands belong to different quantum group instances."""


class DegeneracyError(QglabError):
    """A numerical separation step failed; carries the offending gap."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class NotInvertibleError(QglabError):
    """An operator expected to be invertible is numerically singular."""


class BudgetError(QglabError):
    """A configured size or time budget would be exceeded."""


class ConvergenceError(QglabError):
    """An iterative solver failed to converge; carries iterate diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
