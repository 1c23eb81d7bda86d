"""Exception types raised by the library.

Every validation failure carries a short machine-readable reason plus the
offending index or pair, so callers (and tests) can pin down exactly which
invariant broke instead of fishing through a generic message.
"""

from __future__ import annotations


class CentautError(Exception):
    """Base class for all library errors."""


class InvalidPermutation(CentautError):
    """Image array is not a bijection on range(degree), or degrees mismatch."""


class NotLatinSquare(CentautError):
    """A row or column of a Cayley table is not a permutation of indices."""


class NoIdentityAtZero(CentautError):
    """Index 0 does not act as a two-sided identity."""


class NotAssociative(CentautError):
    """A triple (a, b, c) violates (a*b)*c == a*(b*c)."""


class ClosureExceedsCap(CentautError):
    """Generated group would exceed the configured order cap."""


class IndexOutOfRange(CentautError):
    """An element index is outside range(order)."""


class NotClosed(CentautError, ValueError):
    """A set of elements is not closed under the product; names a product."""


class NotNilpotent(CentautError):
    """Upper central series stabilized below the whole group."""


class NotPrimePower(CentautError):
    """Operation requires |G| to be a power of a single prime."""


class NotNormal(CentautError):
    """A subgroup is not closed under conjugation; names a violating pair."""


class PrimeMismatch(CentautError):
    """Two invariant lists belong to different primes."""


class InvalidInvariants(CentautError, ValueError):
    """An invariant list, its prime or an exponent is malformed."""


class EmptyAlpha(CentautError):
    """Abelianization invariants are empty (trivial abelianization)."""


class AbelianGroup(CentautError):
    """Operation is posed for nonabelian groups only."""


class EnumerationCapExceeded(CentautError):
    """Homomorphism candidate count exceeds the enumeration cap."""


class UnknownBuiltin(CentautError):
    """No builder registered under the requested name."""


class BadParameters(CentautError):
    """Builder parameters are malformed or out of range."""


class ParseError(CentautError):
    """A group or manifest file is malformed."""

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
