"""Exact scalar fields: rationals, Gaussian rationals, and prime fields.

This is the one module that knows which fields exist and how they are
named: ``field_named`` reads a ring id (``q``, ``qi``, ``gf:<p>``) or a
matrix-file header (``Q``, ``QI``, ``GF <p>``).  A field is data, its
names, size, unit elements and the parsing, formatting and coercion of
its scalars; the arithmetic runs in ``starinv.kernels`` on whole
matrices.

Every value is kept in a canonical form so equality is structural:
``Fraction`` is always reduced with a positive denominator,
``GaussianRational`` holds two canonical fractions, and prime-field
values are residues in ``[0, p)``.  Nothing here touches floating point.
"""
from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction

# Numbers are ASCII decimal: \d and int() would also read other scripts' digits.
_RATIONAL_TOKEN = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_RESIDUE_TOKEN = re.compile(r"[0-9]+")
_MODULUS_TOKEN = re.compile(r"[1-9][0-9]*")

# Largest accepted GF(p) modulus.  Primality is decided by trial
# division, which stays desk-sized below this.
MODULUS_CAP = 1 << 20


class TooLargeError(ValueError):
    """An input is beyond a desk-scale cap: a GF(p) modulus, an
    exhaustive matrix enumeration, or a brute-force algebra scan."""


def is_prime(n: int) -> bool:
    """Trial-division primality check; moduli used here are small."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def parse_rational(token: str) -> Fraction:
    """Parse ``a`` or ``a/b`` (ASCII decimal integers, optional leading ``-``)."""
    if not _RATIONAL_TOKEN.fullmatch(token):
        raise ValueError(f"not a rational literal: {token!r}")
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {token!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(token))


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex scalar ``re + im*i`` with rational parts.

    A validated value only: arithmetic on Gaussian rationals runs on
    whole matrices in ``starinv.kernels``.
    """

    re: Fraction
    im: Fraction

    def __post_init__(self):
        if isinstance(self.re, float) or isinstance(self.im, float):
            raise TypeError("floats are not exact; use Fraction")
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))


def _gaussian(re: Fraction, im: Fraction) -> GaussianRational:
    """Trusted internal constructor: both parts must already be Fractions.

    Skips the public constructor's float check and re-wrapping, for
    ``kernels.unpack``, whose parts are Fractions by construction.
    """
    z = object.__new__(GaussianRational)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", im)
    return z


class Field(ABC):
    """A field of exact scalars, as data.

    ``label`` names the field in the matrix text format header and
    ``ring_id`` on the command line and in reports.  A field parses,
    formats and coerces its scalars; the arithmetic on them runs in
    ``starinv.kernels``, on whole matrices.
    """

    label: str
    ring_id: str

    @abstractmethod
    def zero(self): ...

    @abstractmethod
    def one(self): ...

    @abstractmethod
    def parse(self, token: str):
        """Parse one entry token; raises ValueError on malformed input."""

    @abstractmethod
    def format(self, a) -> str: ...

    @abstractmethod
    def coerce(self, value):
        """Canonicalize a user-supplied value; floats are rejected."""

    @property
    def size(self) -> int | None:
        """Number of elements, or None for an infinite field."""
        return None


@dataclass(frozen=True)
class RationalField(Field):
    label: str = "Q"
    ring_id: str = "q"

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def parse(self, token: str) -> Fraction:
        return parse_rational(token)

    def format(self, a) -> str:
        return str(a)

    def coerce(self, value) -> Fraction:
        if isinstance(value, float):
            raise TypeError("floats are not exact; use Fraction")
        return Fraction(value)


@dataclass(frozen=True)
class GaussianRationalField(Field):
    label: str = "QI"
    ring_id: str = "qi"

    def zero(self) -> GaussianRational:
        return _gaussian(Fraction(0), Fraction(0))

    def one(self) -> GaussianRational:
        return _gaussian(Fraction(1), Fraction(0))

    def parse(self, token: str) -> GaussianRational:
        parts = token.split(",")
        if len(parts) == 1:
            return GaussianRational(parse_rational(parts[0]), Fraction(0))
        if len(parts) == 2:
            return GaussianRational(parse_rational(parts[0]), parse_rational(parts[1]))
        raise ValueError(f"not a Gaussian rational literal: {token!r}")

    def format(self, a) -> str:
        return f"{a.re},{a.im}"

    def coerce(self, value) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, float):
            raise TypeError("floats are not exact; use Fraction")
        return GaussianRational(Fraction(value), Fraction(0))


@dataclass(frozen=True)
class PrimeField(Field):
    """GF(p) with values stored as canonical residues in [0, p)."""

    p: int

    def __post_init__(self):
        if self.p > MODULUS_CAP:
            raise TooLargeError(f"modulus {self.p} exceeds the {MODULUS_CAP} cap")
        if not is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")
        object.__setattr__(self, "label", f"GF {self.p}")
        object.__setattr__(self, "ring_id", f"gf:{self.p}")

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1 % self.p

    def parse(self, token: str) -> int:
        if not _RESIDUE_TOKEN.fullmatch(token):
            raise ValueError(f"not a GF({self.p}) literal: {token!r}")
        value = int(token)
        if value >= self.p:
            raise ValueError(f"value {value} out of range for GF({self.p})")
        return value

    def format(self, a) -> str:
        return str(a)

    def coerce(self, value) -> int:
        if not isinstance(value, int):
            raise TypeError(f"GF({self.p}) values are ints, got {type(value).__name__}")
        if not 0 <= value < self.p:
            raise ValueError(f"value {value} out of range for GF({self.p})")
        return value

    def elements(self) -> range:
        return range(self.p)

    @property
    def size(self) -> int:
        return self.p


QQ = RationalField()
QI = GaussianRationalField()


def field_named(name: str, *, header: bool = False) -> Field:
    """The field a ring id (q, qi, gf:<p>) names, or with ``header`` the
    field a matrix-file header (Q, QI, GF <p>) names.

    Neither spelling is accepted for the other.  The modulus must be
    written canonically (ASCII digits, no sign, no leading zero), so a
    field has one name of each kind.  Raises ValueError for any other
    name or a composite modulus, and TooLargeError for a modulus beyond
    the cap, which is checked before primality.
    """
    for field in (QQ, QI):
        if name == (field.label if header else field.ring_id):
            return field
    prefix = "GF " if header else "gf:"
    modulus = name[len(prefix) :]
    if name.startswith(prefix) and _MODULUS_TOKEN.fullmatch(modulus):
        return PrimeField(int(modulus))
    raise ValueError(f"unknown {'ring header' if header else 'ring id'} {name!r}")
