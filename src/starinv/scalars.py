"""Exact scalar fields: rationals, Gaussian rationals, and prime fields.

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

_RATIONAL_TOKEN = re.compile(r"^-?\d+(?:/\d+)?$")

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
    """Parse ``a`` or ``a/b`` (decimal integers, optional leading ``-``)."""
    if not _RATIONAL_TOKEN.match(token):
        raise ValueError(f"not a rational literal: {token!r}")
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {token!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(token))


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex scalar ``re + im*i`` with rational parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        if isinstance(self.re, float) or isinstance(self.im, float):
            raise TypeError("floats are not exact; use Fraction")
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def conjugate(self) -> "GaussianRational":
        return _gaussian(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _gaussian(self.re / norm, -self.im / norm)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return _gaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return _gaussian(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return _gaussian(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return _gaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        return f"{self.re},{self.im}"


def _gaussian(re: Fraction, im: Fraction) -> GaussianRational:
    """Trusted internal constructor: both parts must already be Fractions.

    Skips the public constructor's float check and re-wrapping, for
    arithmetic whose results are canonical by construction.
    """
    z = object.__new__(GaussianRational)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", im)
    return z


class Field(ABC):
    """A field of exact scalars together with its conjugation.

    ``label`` is the token used in the matrix text format header.
    """

    label: str

    @abstractmethod
    def zero(self): ...

    @abstractmethod
    def one(self): ...

    @abstractmethod
    def add(self, a, b): ...

    @abstractmethod
    def sub(self, a, b): ...

    @abstractmethod
    def neg(self, a): ...

    @abstractmethod
    def mul(self, a, b): ...

    @abstractmethod
    def inv(self, a):
        """Multiplicative inverse; raises ZeroDivisionError on zero."""

    @abstractmethod
    def conj(self, a): ...

    @abstractmethod
    def parse(self, token: str):
        """Parse one entry token; raises ValueError on malformed input."""

    @abstractmethod
    def format(self, a) -> str: ...

    @abstractmethod
    def coerce(self, value):
        """Canonicalize a user-supplied value; floats are rejected."""

    def is_zero(self, a) -> bool:
        return not a

    @property
    def size(self) -> int | None:
        """Number of elements, or None for an infinite field."""
        return None


@dataclass(frozen=True)
class RationalField(Field):
    label: str = "Q"

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def conj(self, a):
        return a

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

    def zero(self) -> GaussianRational:
        return _gaussian(Fraction(0), Fraction(0))

    def one(self) -> GaussianRational:
        return _gaussian(Fraction(1), Fraction(0))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inverse()

    def conj(self, a):
        return a.conjugate()

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

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def conj(self, a):
        return a

    def parse(self, token: str) -> int:
        if not re.match(r"^\d+$", token):
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
