"""Exception hierarchy shared across the package."""


class TranslabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TranslabError, ValueError):
    """An atom fell outside a translator's domain, or a language is unknown."""


class BudgetError(TranslabError, RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


class GraphError(TranslabError, ValueError):
    """The translation graph violates a structural requirement (e.g. connectivity)."""


class InsufficientDataError(TranslabError, ValueError):
    """Too few aligned pairs to solve the requested regression."""


class ConditioningError(TranslabError, RuntimeError):
    """A linear system stayed numerically singular even after regularization."""


class SchemaError(TranslabError, ValueError):
    """A file did not match its declared schema."""
