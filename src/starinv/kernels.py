"""Exact integer kernels on the packed form of a matrix.

Every ``ExactMatrix`` stores its entries packed: a tuple ``num`` of
integers over one positive denominator ``den``, kept canonical by
gcd(*num, den) == 1, so equal matrices store equal tuples.  Over Q
``num`` holds the numerators in row-major order; over Q(i) the real
block, then the imaginary block; over GF(p) the residues in [0, p),
with ``den`` 1.  The kernels compute on that form, after the idea of
Bareiss's integer-preserving elimination (Math. Comp. 22, 1968):
elimination cross-multiplies integer rows, and each result is divided
once, by its common denominator.  ``unpack`` is the only place a
``Fraction`` or a ``GaussianRational`` is built.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import add, mul, sub
from types import SimpleNamespace
from typing import Sequence

from .scalars import Field, GaussianRationalField, PrimeField, RationalField, _gaussian

def canonical(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """(num, den) divided by gcd(*num, den); a den of 1 is already canonical."""
    if den != 1:
        g = gcd(*num, den)
        if g != 1:
            return tuple([x // g for x in num]), den // g
    return tuple(num), den


def _pack_q(field: Field, parts: Sequence) -> tuple[tuple[int, ...], int]:
    """Numerators of reduced rationals over their least common denominator.

    Canonical as it stands: a prime dividing the lcm divides some part's
    denominator to the full power, and that part's numerator is coprime to it.
    """
    dens = [x.denominator for x in parts]
    den = lcm(*dens)
    if den == 1:
        return tuple([x.numerator for x in parts]), 1
    return tuple([x.numerator * (den // d) for x, d in zip(parts, dens)]), den


def _primitive(row: Sequence[int]) -> Sequence[int]:
    """The row divided by the gcd of its entries (zero rows unchanged)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _primitive_pair(re: Sequence[int], im: Sequence[int]) -> tuple:
    """A Gaussian integer row divided by the gcd of all its parts."""
    g = gcd(*re, *im)
    return ([x // g for x in re], [x // g for x in im]) if g > 1 else (re, im)


def _star_transpose(field: Field, num: Sequence[int], rows: int, cols: int) -> tuple[int, ...]:
    """The involution over Q and GF(p): the plain transpose."""
    return tuple([x for j in range(cols) for x in num[j::cols]])


# ------------------------------------------------------------- Q and Q(i)
# Sums and differences act on every block alike.


def _combine_q(op, field: Field, a: Sequence[int], da: int, b: Sequence[int], db: int):
    """a op b for op in (add, sub)."""
    if da == db:
        return canonical(list(map(op, a, b)), da)
    den = lcm(da, db)
    sa, sb = den // da, den // db
    return canonical([op(x * sa, y * sb) for x, y in zip(a, b)], den)


def _unpack_q(field: Field, num: Sequence[int], den: int) -> tuple:
    return tuple([Fraction(x, den) for x in num])


def _product_q(field: Field, a: Sequence[int], da: int, k: int, b: Sequence[int], db: int, m: int):
    """a b for a with k columns and b with m columns."""
    rows = [a[i : i + k] for i in range(0, len(a), k)]
    cols = [b[j::m] for j in range(m)]
    return canonical([sum(map(mul, row, col)) for row in rows for col in cols], da * db)


def _rref_q(field: Field, num: Sequence[int], m: int, n: int):
    """Integer-row Gauss-Jordan: rows are made primitive, elimination
    cross-multiplies by the pivot, and each pivot row is divided by its
    pivot last, over the lcm of the pivots."""
    rows = [_primitive(num[i * n : (i + 1) * n]) for i in range(m)]
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
    leads = [rows[i][c] for i, c in enumerate(pivots)]
    den = lcm(*leads)
    out = [e * (den // lead) for row, lead in zip(rows, leads) for e in row]
    out += [0] * ((m - r) * n)
    return (*canonical(out, den), r, pivots)


def _pack_qi(field: Field, entries: Sequence):
    return _pack_q(field, [x.re for x in entries] + [x.im for x in entries])


def _unpack_qi(field: Field, num: Sequence[int], den: int) -> tuple:
    half = len(num) // 2
    parts = zip(num[:half], num[half:])
    return tuple([_gaussian(Fraction(re, den), Fraction(im, den)) for re, im in parts])


def _star_qi(field: Field, num: Sequence[int], rows: int, cols: int) -> tuple[int, ...]:
    """Transpose both blocks and negate the imaginary one."""
    half = len(num) // 2
    im = _star_transpose(field, num[half:], rows, cols)
    return _star_transpose(field, num[:half], rows, cols) + tuple([-x for x in im])


def _product_qi(field: Field, a: Sequence[int], da: int, k: int, b: Sequence[int], db: int, m: int):
    # a row (ar, ai) dots (br, -bi) for the real part and (bi, br) for the imaginary one
    ha, hb = len(a) // 2, len(b) // 2
    rows = [a[i : i + k] + a[ha + i : ha + i + k] for i in range(0, ha, k)]
    cols = [(b[j:hb:m], b[hb + j :: m]) for j in range(m)]
    re_cols = [br + tuple([-x for x in bi]) for br, bi in cols]
    im_cols = [bi + br for br, bi in cols]
    re = [sum(map(mul, row, col)) for row in rows for col in re_cols]
    return canonical(re + [sum(map(mul, row, col)) for row in rows for col in im_cols], da * db)


def _rref_qi(field: Field, num: Sequence[int], m: int, n: int):
    """Integer-row Gauss-Jordan over the Gaussian integers.

    A row is a pair (real parts, imaginary parts).  Elimination
    cross-multiplies by the pivot; at the end each pivot row is
    multiplied by the conjugate of its pivot and divided by its norm,
    over the lcm of the norms.
    """
    half = m * n
    rows = [
        _primitive_pair(num[i * n : (i + 1) * n], num[half + i * n : half + (i + 1) * n])
        for i in range(m)
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
    leads = [(rows[i][0][c], rows[i][1][c]) for i, c in enumerate(pivots)]
    norms = [a * a + b * b for a, b in leads]
    den = lcm(*norms)
    out_re, out_im = [], []
    for (x_re, x_im), (a, b), norm in zip(rows, leads, norms):
        s = den // norm
        out_re += [(u * a + v * b) * s for u, v in zip(x_re, x_im)]
        out_im += [(v * a - u * b) * s for u, v in zip(x_re, x_im)]
    pad = [0] * ((m - r) * n)
    return (*canonical(out_re + pad + out_im + pad, den), r, pivots)


# ---------------------------------------------------------------- GF(p)
# Residues in [0, p) are canonical over den 1, so no gcd step is needed.


def _combine_gf(op, field: PrimeField, a: Sequence[int], da: int, b: Sequence[int], db: int):
    p = field.p
    return tuple([x % p for x in map(op, a, b)]), 1


def _product_gf(
    field: PrimeField, a: Sequence[int], da: int, k: int, b: Sequence[int], db: int, m: int
):
    p = field.p
    rows = [a[i : i + k] for i in range(0, len(a), k)]
    cols = [b[j::m] for j in range(m)]
    return tuple([sum(map(mul, row, col)) % p for row in rows for col in cols]), 1


def _rref_gf(field: PrimeField, num: Sequence[int], m: int, n: int):
    p = field.p
    rows = [num[i * n : (i + 1) * n] for i in range(m)]
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
    return tuple([e for row in rows for e in row]), 1, r, pivots


_Q_SUMS = dict(add=partial(_combine_q, add), sub=partial(_combine_q, sub))
KERNELS = {
    RationalField: SimpleNamespace(
        parts=1, pack=_pack_q, unpack=_unpack_q, **_Q_SUMS,
        multiply=_product_q, star=_star_transpose, rref=_rref_q,
    ),
    GaussianRationalField: SimpleNamespace(
        parts=2, pack=_pack_qi, unpack=_unpack_qi, **_Q_SUMS,
        multiply=_product_qi, star=_star_qi, rref=_rref_qi,
    ),
    PrimeField: SimpleNamespace(
        parts=1, pack=lambda field, residues: (tuple(residues), 1),
        unpack=lambda field, num, den: num,
        add=partial(_combine_gf, add), sub=partial(_combine_gf, sub),
        multiply=_product_gf, star=_star_transpose, rref=_rref_gf,
    ),
}


def kernel(field: Field) -> SimpleNamespace:
    """The kernels for the field's type; TypeError when it has none.

    Each kernel takes the field first.  ``pack``, ``add``, ``sub`` and
    ``multiply`` return (num, den); ``unpack`` the field scalars;
    ``star`` num over the same den; ``rref`` (num, den, rank, pivot
    columns).  ``parts`` is the number of integer blocks: 2 over Q(i).
    """
    try:
        return KERNELS[type(field)]
    except KeyError:
        raise TypeError(f"no exact kernel for {type(field).__name__}") from None
