"""Exception types shared across the package.

Each error class corresponds to one failure mode that callers are expected
to handle (or that the CLI maps to a dedicated exit code); everything else
is a plain ValueError and means the caller violated an API contract.
"""

from __future__ import annotations


class SchemaError(ValueError):
    """Raised when serialized input fails structural or invariant validation.

    The message always names the first violated invariant (e.g. which
    associativity triple failed, or which differential has d*d != 0).
    """


class NotSubmoduleError(ValueError):
    """The given subspace is not stable under the algebra action."""


class MiddleMismatchError(ValueError):
    """Inputs that do not compose: the middle modules of two classes,
    sequences or roofs differ, or two modules live over different algebras.

    Exactness failures of an extension sequence raise SchemaError instead.
    """


class DegenerateFiltrationError(ValueError):
    """A filtration step is an equality, so a subquotient vanishes; also
    raised by a random sampler (filtration, module or extension chain) that
    gives up after its tries."""


class UnsupportedEndpointsError(ValueError):
    """A roof's endpoints are not shifted single modules."""


class TruncationError(ValueError):
    """An Ext degree beyond the resolution truncation was requested."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, never bad input.

    Raised explicitly rather than by `assert`, so the checks also run under
    `python -O`.  Deliberately not a ValueError, so it is never mistaken for
    a schema error.
    """


class AmbiguousChaseError(ArithmeticError):
    """A long-exact-sequence chase produced an inconsistent dimension.

    Never expected on the supported grid; raising it means an internal
    consistency check (negative dimension or Euler mismatch) fired.
    """
