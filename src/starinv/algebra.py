"""Finite structure-constant *-algebras over GF(2), with exhaustive search.

Elements are coefficient vectors over GF(2) packed into ints, one bit
per basis element, so addition is XOR and scanning all 2^dim elements
is a plain range loop.  Construction validates the tables: associativity
on every basis triple, unit laws, and that the involution is an
anti-automorphism of order two.  A bad table would silently poison every
downstream check, so violations abort construction.

The built-in instance is a six-dimensional algebra on the words
{1, X, Y, XY, YX, YXY} where X and Y are idempotent generators whose
alternating products die at XYX; it is the standard small example of a
ring whose involution is not *-reducing.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .ring import is_projection, verify_mp
from .scalars import TooLargeError

BRUTE_FORCE_DIM_CAP = 16


class AlgebraConstructionError(ValueError):
    """The supplied tables violate the ring or involution axioms."""


class AlgebraElement:
    """A coefficient bit-vector in a fixed structure-constant algebra."""

    __slots__ = ("algebra", "bits")

    def __init__(self, algebra: "StructureConstantAlgebra", bits: int):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    def _check(self, other: "AlgebraElement"):
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.algebra, self.bits ^ other.bits)

    # Subtraction and negation coincide with addition in characteristic 2.
    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self.__add__(other)

    def __neg__(self) -> "AlgebraElement":
        return self

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.algebra, self.algebra.mul_bits(self.bits, other.bits))

    def star(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.algebra.star_bits(self.bits))

    def one_like(self) -> "AlgebraElement":
        return self.algebra.one_element()

    def coefficients(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.algebra.dim))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.algebra is other.algebra
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.bits))

    def __repr__(self) -> str:
        return self.algebra.format_element(self)


class StructureConstantAlgebra:
    """A finite-dimensional unital *-algebra over GF(2) given by tables.

    ``mul_table[i][j]`` and ``star_table[i]`` are coefficient bitmasks.
    Tables are immutable after construction; for small dimensions the
    full element-by-element product table is precomputed so exhaustive
    scans stay cheap.
    """

    _FULL_TABLE_MAX_DIM = 8

    def __init__(
        self,
        labels: tuple[str, ...],
        mul_table: list[list[int]],
        star_table: list[int],
        one_bits: int,
        name: str = "algebra",
    ):
        dim = len(labels)
        if dim < 1:
            raise AlgebraConstructionError("need at least one basis element")
        if len(mul_table) != dim or any(len(row) != dim for row in mul_table):
            raise AlgebraConstructionError("multiplication table has wrong shape")
        if len(star_table) != dim:
            raise AlgebraConstructionError("involution table has wrong shape")
        limit = 1 << dim
        entries = [b for row in mul_table for b in row] + list(star_table) + [one_bits]
        if any(b < 0 or b >= limit for b in entries):
            raise AlgebraConstructionError("table entry out of range")
        self.dim = dim
        self.labels = tuple(labels)
        self.name = name
        self._mul = tuple(tuple(row) for row in mul_table)
        self._star = tuple(star_table)
        self._one = one_bits
        self._full_mul: tuple | None = None
        self._full_star: tuple | None = None
        self._self_check()
        if dim <= self._FULL_TABLE_MAX_DIM:
            self._full_mul = tuple(
                tuple(self._mul_bits_slow(u, v) for v in range(limit)) for u in range(limit)
            )
            self._full_star = tuple(self._star_bits_slow(u) for u in range(limit))

    def _mul_bits_slow(self, u: int, v: int) -> int:
        acc = 0
        ub = u
        while ub:
            i = (ub & -ub).bit_length() - 1
            ub &= ub - 1
            row = self._mul[i]
            vb = v
            while vb:
                j = (vb & -vb).bit_length() - 1
                vb &= vb - 1
                acc ^= row[j]
        return acc

    def _star_bits_slow(self, u: int) -> int:
        acc = 0
        while u:
            i = (u & -u).bit_length() - 1
            u &= u - 1
            acc ^= self._star[i]
        return acc

    def mul_bits(self, u: int, v: int) -> int:
        if self._full_mul is not None:
            return self._full_mul[u][v]
        return self._mul_bits_slow(u, v)

    def star_bits(self, u: int) -> int:
        if self._full_star is not None:
            return self._full_star[u]
        return self._star_bits_slow(u)

    def _self_check(self):
        dim = self.dim
        basis = [1 << i for i in range(dim)]
        for i, ei in enumerate(basis):
            if self._mul_bits_slow(self._one, ei) != ei or self._mul_bits_slow(ei, self._one) != ei:
                raise AlgebraConstructionError(f"unit law fails on basis element {i}")
            if self._star_bits_slow(self._star[i]) != ei:
                raise AlgebraConstructionError(f"involution is not of order two on basis element {i}")
        for i, ei in enumerate(basis):
            for j, ej in enumerate(basis):
                prod = self._mul_bits_slow(ei, ej)
                anti = self._mul_bits_slow(self._star[j], self._star[i])
                if self._star_bits_slow(prod) != anti:
                    raise AlgebraConstructionError(
                        f"involution is not anti-multiplicative on basis pair ({i}, {j})"
                    )
                for k, ek in enumerate(basis):
                    left = self._mul_bits_slow(prod, ek)
                    right = self._mul_bits_slow(ei, self._mul_bits_slow(ej, ek))
                    if left != right:
                        raise AlgebraConstructionError(
                            f"associativity fails on basis triple ({i}, {j}, {k})"
                        )

    def element(self, bits: int) -> AlgebraElement:
        if bits < 0 or bits >= (1 << self.dim):
            raise ValueError("coefficient vector out of range")
        return AlgebraElement(self, bits)

    def zero_element(self) -> AlgebraElement:
        return AlgebraElement(self, 0)

    def one_element(self) -> AlgebraElement:
        return AlgebraElement(self, self._one)

    def element_from_labels(self, *names: str) -> AlgebraElement:
        """Sum of the named basis elements, e.g. ("1", "Y") for 1 + Y."""
        bits = 0
        for name in names:
            bits ^= 1 << self.labels.index(name)
        return AlgebraElement(self, bits)

    @property
    def size(self) -> int:
        return 1 << self.dim

    def elements(self) -> Iterator[AlgebraElement]:
        for bits in range(1 << self.dim):
            yield AlgebraElement(self, bits)

    def format_element(self, element: AlgebraElement) -> str:
        if element.bits == 0:
            return "0"
        parts = [self.labels[i] for i in range(self.dim) if (element.bits >> i) & 1]
        return " + ".join(parts)

    def non_star_reducing_witness(self) -> AlgebraElement | None:
        """A nonzero a with a* a = 0, if the involution admits one."""
        _require_desk_scale(self)
        for a in self.elements():
            if a.bits and (a.star() * a).bits == 0:
                return a
        return None


def _reduce_word(word: str) -> str | None:
    """Normal form of a word over the idempotent generators x and y.

    Squares collapse and any occurrence of xyx kills the word; the
    rewriting is confluent on alternating words, so the normal forms
    are exactly the six basis words.  None encodes zero.
    """
    while True:
        if "xyx" in word:
            return None
        if "xx" in word:
            word = word.replace("xx", "x", 1)
            continue
        if "yy" in word:
            word = word.replace("yy", "y", 1)
            continue
        return word


@lru_cache(maxsize=1)
def example26_algebra() -> StructureConstantAlgebra:
    """The six-dimensional GF(2) *-algebra on {1, X, Y, XY, YX, YXY}.

    Multiplication comes from X^2 = X, Y^2 = Y and XYX = 0; the
    involution fixes the generators and reverses words, so it swaps
    XY with YX and fixes YXY.  Construction re-runs the full table
    self-checks, guarding the derivation of the tables themselves.
    """
    words = ("", "x", "y", "xy", "yx", "yxy")
    labels = ("1", "X", "Y", "XY", "YX", "YXY")
    index = {w: i for i, w in enumerate(words)}

    def mask(word: str | None) -> int:
        if word is None:
            return 0
        if word not in index:
            raise AlgebraConstructionError(f"word {word!r} did not reduce to a basis word")
        return 1 << index[word]

    mul_table = [[mask(_reduce_word(u + v)) for v in words] for u in words]
    star_table = [mask(_reduce_word(w[::-1])) for w in words]
    one_bits = 1 << index[""]
    return StructureConstantAlgebra(labels, mul_table, star_table, one_bits, name="example26")


def _require_desk_scale(algebra: StructureConstantAlgebra):
    if algebra.dim > BRUTE_FORCE_DIM_CAP:
        raise TooLargeError(
            f"exhaustive search over 2^{algebra.dim} elements exceeds the "
            f"2^{BRUTE_FORCE_DIM_CAP} cap"
        )


def brute_force_mp(algebra: StructureConstantAlgebra, a: AlgebraElement) -> AlgebraElement | None:
    """Scan all elements for the MP inverse of a; None if there is none.

    The witness, when it exists, is unique, so the first hit is the
    answer.  Candidates failing aba = a are rejected before the full
    four-equation check.
    """
    _require_desk_scale(algebra)
    for bits in range(algebra.size):
        cand = AlgebraElement(algebra, bits)
        if a * cand * a != a:
            continue
        if verify_mp(a, cand).all:
            return cand
    return None


def brute_force_drazin(
    algebra: StructureConstantAlgebra, a: AlgebraElement
) -> tuple[AlgebraElement, int] | None:
    """Scan for a Drazin witness at the smallest index up to dim + 1.

    Returns (witness, index) or None when no candidate passes within
    the index cap.
    """
    _require_desk_scale(algebra)
    powers = [algebra.one_element()]
    for _ in range(algebra.dim + 2):
        powers.append(powers[-1] * a)
    for k in range(algebra.dim + 2):
        target, step = powers[k], powers[k + 1]
        for bits in range(algebra.size):
            cand = AlgebraElement(algebra, bits)
            if step * cand != target:
                continue
            if a * cand == cand * a and cand * a * cand == cand:
                return cand, k
    return None


def enumerate_projections(algebra: StructureConstantAlgebra) -> list[AlgebraElement]:
    """All self-adjoint idempotents, in lexicographic coefficient order."""
    _require_desk_scale(algebra)
    found = [e for e in algebra.elements() if is_projection(e)]
    found.sort(key=lambda e: e.coefficients())
    return found


class ExhaustiveEngine:
    """Brute-force inverse engine for one finite algebra.

    Every call scans the algebra afresh; wrap it in ``ring.CachingEngine``
    to answer repeated elements from a memo, as campaigns do.
    """

    def __init__(self, algebra: StructureConstantAlgebra):
        self.algebra = algebra

    @property
    def star_reducing(self) -> bool:
        return self.algebra.non_star_reducing_witness() is None

    def mp(self, x: AlgebraElement) -> AlgebraElement | None:
        return brute_force_mp(self.algebra, x)

    def drazin(self, x: AlgebraElement) -> tuple[AlgebraElement, int] | None:
        return brute_force_drazin(self.algebra, x)

