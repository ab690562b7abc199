"""Definitional predicates for rings with involution.

Everything here certifies witnesses; nothing constructs an inverse.
Any value with ``+``, ``-``, ``*``, unary ``-``, ``star()``,
``one_like()`` and exact equality can be checked, so dense exact
matrices and table-algebra elements both qualify.  Solvers live with
the concrete instances and hand their candidates to these checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable


class InvalidWitnessError(ValueError):
    """A claimed inverse witness fails its definitional equations."""


class NotAProjectionError(ValueError):
    """A value supplied as a projection is not self-adjoint idempotent."""


@runtime_checkable
class InverseEngine(Protocol):
    """Decides inverse existence for one concrete ring instance.

    ``mp`` returns the unique witness or None; ``drazin`` returns
    ``(witness, index)`` or None.  Engines never guess: a returned
    witness always passes the corresponding verifier.
    """

    @property
    def star_reducing(self) -> bool: ...

    def mp(self, x): ...

    def drazin(self, x): ...


_MISSING = object()


class CachingEngine:
    """An InverseEngine that answers each repeated element from a memo.

    Answers of the wrapped engine are kept per kind ("mp", "drazin"),
    keyed on the element itself, which is immutable and hashes by
    value; None ("no inverse") is kept like any other answer.
    ``hits`` and ``misses`` count lookups per kind, and every miss is
    one solve by the wrapped engine.  ``clear`` empties the memo and
    keeps the counters, so a caller can bound it to a scope in which
    elements recur.  ``star_reducing`` is read once.
    """

    def __init__(self, engine: InverseEngine):
        self.engine = engine
        self.star_reducing = engine.star_reducing
        self._memo: dict[str, dict] = {"mp": {}, "drazin": {}}
        self.hits = {"mp": 0, "drazin": 0}
        self.misses = {"mp": 0, "drazin": 0}

    def _answer(self, kind: str, solve, x):
        memo = self._memo[kind]
        result = memo.get(x, _MISSING)
        if result is _MISSING:
            self.misses[kind] += 1
            result = memo[x] = solve(x)
        else:
            self.hits[kind] += 1
        return result

    def mp(self, x):
        return self._answer("mp", self.engine.mp, x)

    def drazin(self, x):
        return self._answer("drazin", self.engine.drazin, x)

    def clear(self) -> None:
        for memo in self._memo.values():
            memo.clear()


@dataclass(frozen=True)
class PenroseReport:
    """Outcome of the four defining equations for a candidate b of a:
    aba = a, bab = b, (ab)* = ab, (ba)* = ba."""

    eq1: bool
    eq2: bool
    eq3: bool
    eq4: bool

    @property
    def all(self) -> bool:
        return self.eq1 and self.eq2 and self.eq3 and self.eq4


@dataclass(frozen=True)
class DrazinReport:
    """Outcome of the three defining equations at index k:
    ab = ba, bab = b, a^(k+1) b = a^k."""

    commutes: bool
    inner: bool
    index_eq: bool
    k: int

    @property
    def valid(self) -> bool:
        return self.commutes and self.inner and self.index_eq


def element_power(a, k: int):
    """a**k by repeated multiplication; a**0 is the unit of a's ring."""
    if k < 0:
        raise ValueError("negative power")
    if k == 0:
        return a.one_like()
    acc = a
    for _ in range(k - 1):
        acc = acc * a
    return acc


def verify_mp(a, cand) -> PenroseReport:
    """Check whether cand is the Moore-Penrose inverse of a.

    All four equations are evaluated with exact equality; ``report.all``
    is True exactly when cand certifies a as MP invertible.
    """
    ab = a * cand
    ba = cand * a
    return PenroseReport(
        eq1=ab * a == a,
        eq2=ba * cand == cand,
        eq3=ab.star() == ab,
        eq4=ba.star() == ba,
    )


def verify_drazin(a, cand, k: int) -> DrazinReport:
    """Check whether cand witnesses Drazin invertibility of a at index k."""
    if k < 0:
        raise ValueError("Drazin index must be nonnegative")
    ab = a * cand
    return DrazinReport(
        commutes=ab == cand * a,
        inner=cand * ab == cand,
        index_eq=element_power(a, k + 1) * cand == element_power(a, k),
        k=k,
    )


def is_projection(e) -> bool:
    """True iff e is idempotent and self-adjoint."""
    return e * e == e and e.star() == e


class ProjectionPairContext:
    """A projection pair (p, q) with its derived elements cached.

    Caches a = pqp, b = pq(1-p), d = (1-p)q(1-p) and the complements
    1-p, 1-q, all computed once at construction.  Values are never
    mutated afterwards.
    """

    __slots__ = ("p", "q", "one", "p_bar", "q_bar", "a", "b", "d")

    def __init__(self, p, q):
        if not is_projection(p):
            raise NotAProjectionError("p is not a projection")
        if not is_projection(q):
            raise NotAProjectionError("q is not a projection")
        one = p.one_like()
        pq = p * q
        self.p = p
        self.q = q
        self.one = one
        self.p_bar = one - p
        self.q_bar = one - q
        self.a = pq * p
        self.b = pq - self.a
        self.d = self.p_bar * q * self.p_bar

    def complemented(self) -> "ProjectionPairContext":
        """The context for the complementary pair (1-p, 1-q)."""
        return ProjectionPairContext(self.p_bar, self.q_bar)
