"""Exact integer kernels for matrix products and Gauss-Jordan elimination.

One kernel per field type, on row-major entry sequences.  Over Q and
Q(i) the work is done in integers, after the idea of Bareiss's
integer-preserving elimination (Math. Comp. 22, 1968): clear
denominators once, compute on integer numerators, and build one
canonical ``Fraction`` per output part at the end.  Over GF(p) a
product entry is one integer dot product reduced mod p.  Outputs are
the same canonical scalars the field arithmetic would give, so
equality and hashing stay structural.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .scalars import Field, GaussianRationalField, PrimeField, RationalField, _gaussian

_Q_ZERO = Fraction(0)
_QI_ZERO = _gaussian(_Q_ZERO, _Q_ZERO)


def _integers(parts: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of the parts over their least common denominator."""
    dens = [x.denominator for x in parts]
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in parts], 1
    return [x.numerator * (den // d) for x, d in zip(parts, dens)], den


def _gaussian_integers(entries: Sequence) -> tuple[list[int], list[int], int]:
    """Real and imaginary integer parts over one common denominator."""
    parts, den = _integers([x.re for x in entries] + [x.im for x in entries])
    half = len(entries)
    return parts[:half], parts[half:], den


def _gaussian_entry(re: int, im: int, den: int):
    if not (re or im):
        return _QI_ZERO
    return _gaussian(Fraction(re, den) if re else _Q_ZERO, Fraction(im, den) if im else _Q_ZERO)


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (zero rows unchanged)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _primitive_pair(re: list[int], im: list[int]) -> tuple[list[int], list[int]]:
    """A Gaussian integer row divided by the gcd of all its parts."""
    g = gcd(*re, *im)
    return ([x // g for x in re], [x // g for x in im]) if g > 1 else (re, im)


# ------------------------------------------------------------------ products
# Each takes a (k columns) and b (m columns) and returns the entries of a b.


def _product_q(field: Field, a: Sequence, k: int, b: Sequence, m: int) -> list:
    an, da = _integers(a)
    bn, db = _integers(b)
    den = da * db
    rows = [an[i : i + k] for i in range(0, len(an), k)]
    cols = [bn[j::m] for j in range(m)]
    return [
        Fraction(x, den) if (x := sum(map(mul, row, col))) else _Q_ZERO
        for row in rows
        for col in cols
    ]


def _product_qi(field: Field, a: Sequence, k: int, b: Sequence, m: int) -> list:
    a_re, a_im, da = _gaussian_integers(a)
    b_re, b_im, db = _gaussian_integers(b)
    den = da * db
    rows = [(a_re[i : i + k], a_im[i : i + k]) for i in range(0, len(a_re), k)]
    cols = [(b_re[j::m], b_im[j::m]) for j in range(m)]
    return [
        _gaussian_entry(
            sum(map(mul, ar, br)) - sum(map(mul, ai, bi)),
            sum(map(mul, ar, bi)) + sum(map(mul, ai, br)),
            den,
        )
        for ar, ai in rows
        for br, bi in cols
    ]


def _product_gf(field: PrimeField, a: Sequence, k: int, b: Sequence, m: int) -> list:
    p = field.p
    rows = [a[i : i + k] for i in range(0, len(a), k)]
    cols = [b[j::m] for j in range(m)]
    return [sum(map(mul, row, col)) % p for row in rows for col in cols]


# ---------------------------------------------------------------- elimination
# Each takes an m x n matrix and returns (RREF entries, rank, pivot columns).


def _rref_q(field: Field, entries: Sequence, m: int, n: int) -> tuple[list, int, list[int]]:
    """Integer-row Gauss-Jordan: each row is scaled to integers once,
    elimination cross-multiplies by the pivot, and each pivot row is
    divided by its pivot last."""
    rows = [_primitive(_integers(entries[i * n : (i + 1) * n])[0]) for i in range(m)]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        lead = top[col]
        for i in range(m):
            x = rows[i][col]
            if i != r and x:
                rows[i] = _primitive([lead * e - x * t for e, t in zip(rows[i], top)])
        pivots.append(col)
        r += 1
    out = []
    for i in range(r):
        lead = rows[i][pivots[i]]
        out.extend(Fraction(e, lead) if e else _Q_ZERO for e in rows[i])
    out.extend([_Q_ZERO] * ((m - r) * n))
    return out, r, pivots


def _rref_qi(field: Field, entries: Sequence, m: int, n: int) -> tuple[list, int, list[int]]:
    """Integer-row Gauss-Jordan over the Gaussian integers.

    A row is a pair (real parts, imaginary parts).  Elimination
    cross-multiplies by the pivot; at the end each pivot row is
    multiplied by the conjugate of its pivot and divided by its norm.
    """
    rows = [
        _primitive_pair(*_gaussian_integers(entries[i * n : (i + 1) * n])[:2]) for i in range(m)
    ]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][0][col] or rows[i][1][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top_re, top_im = rows[r]
        a, b = top_re[col], top_im[col]
        for i in range(m):
            x_re, x_im = rows[i]
            c, d = x_re[col], x_im[col]
            if i != r and (c or d):
                # (a + bi) * row - (c + di) * top
                quads = list(zip(x_re, x_im, top_re, top_im))
                rows[i] = _primitive_pair(
                    [a * u - b * v - c * s + d * t for u, v, s, t in quads],
                    [a * v + b * u - c * t - d * s for u, v, s, t in quads],
                )
        pivots.append(col)
        r += 1
    out = []
    for i in range(r):
        x_re, x_im = rows[i]
        a, b = x_re[pivots[i]], x_im[pivots[i]]
        norm = a * a + b * b
        out.extend(_gaussian_entry(u * a + v * b, v * a - u * b, norm) for u, v in zip(x_re, x_im))
    out.extend([_QI_ZERO] * ((m - r) * n))
    return out, r, pivots


def _rref_gf(field: PrimeField, entries: Sequence, m: int, n: int) -> tuple[list, int, list[int]]:
    p = field.p
    rows = [list(entries[i * n : (i + 1) * n]) for i in range(m)]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        scale = pow(rows[r][col], -1, p)
        top = rows[r] = [scale * e % p for e in rows[r]]
        for i in range(m):
            x = rows[i][col]
            if i != r and x:
                rows[i] = [(e - x * t) % p for e, t in zip(rows[i], top)]
        pivots.append(col)
        r += 1
    return [e for row in rows for e in row], r, pivots


_PRODUCTS = {RationalField: _product_q, GaussianRationalField: _product_qi, PrimeField: _product_gf}
_RREFS = {RationalField: _rref_q, GaussianRationalField: _rref_qi, PrimeField: _rref_gf}


def _kernel(table: dict, field: Field):
    try:
        return table[type(field)]
    except KeyError:
        raise TypeError(f"no exact kernel for {type(field).__name__}") from None


def multiply(field: Field, a: Sequence, k: int, b: Sequence, m: int) -> list:
    """Row-major entries of a b, for a with k columns and b with m columns."""
    return _kernel(_PRODUCTS, field)(field, a, k, b, m)


def row_reduce(field: Field, entries: Sequence, m: int, n: int) -> tuple[list, int, list[int]]:
    """(RREF entries, rank, pivot columns) of an m x n row-major matrix."""
    return _kernel(_RREFS, field)(field, entries, m, n)
