"""Exact integer kernels on the packed form of a matrix.

Every ``ExactMatrix`` stores its entries packed: a tuple ``num`` of
integers over one positive denominator ``den``, kept canonical by
gcd(*num, den) == 1, so equal matrices store equal tuples.  Over Q
``num`` holds the numerators in row-major order; over Q(i) the real
block, then the imaginary block; over GF(p) the residues in [0, p),
with ``den`` 1.  The kernels compute on that form.  Elimination keeps
integer rows small per field: over Q by row gcds and the lcm of the
pivots, over Q(i) by exact division by the previous pivot (Bareiss,
Math. Comp. 22, 1968), over GF(p) by unit pivots.  ``unpack`` is the
only place a ``Fraction`` or a ``GaussianRational`` is built.
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
    pivot last, over the lcm of the pivots.  Exact division as over Q(i)
    was slower here: 3 q trials took 1.6 s, not 0.56 s, at n = 16 and
    14.5 s, not 1.8 s, at n = 24 (Python 3.11, 2-core Xeon VM)."""
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
    """Fraction-free Gauss-Jordan over the Gaussian integers.

    A row is a pair (real parts, imaginary parts).  Each step sets every
    other row to (p * row - x * top) / p0 for pivot p, the row's entry x
    in the pivot column and the previous pivot p0 (1 at the start).  The
    division is exact and keeps each entry a minor of the input (Bareiss;
    Nakos, Turner and Williams, ACM SIGSAM Bull. 31(3), 1997), and every
    pivot ends equal to the last, so the result is the rows over it.
    """
    half = m * n
    rows = [(num[i * n : (i + 1) * n], num[half + i * n : half + (i + 1) * n]) for i in range(m)]
    pivots: list[int] = []
    r = 0
    pa, pb = 1, 0
    for col in range(n):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][0][col] or rows[i][1][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top_re, top_im = rows[r]
        a, b = top_re[col], top_im[col]
        same = a == pa and b == pb
        norm = pa * pa + pb * pb
        for i in range(m):
            x_re, x_im = rows[i]
            c, d = x_re[col], x_im[col]
            if i == r or (same and not (c or d)):
                continue  # such a row is unchanged by the update
            # (a + bi) * row - (c + di) * top
            quads = list(zip(x_re, x_im, top_re, top_im))
            re = [a * u - b * v - c * s + d * t for u, v, s, t in quads]
            im = [a * v + b * u - c * t - d * s for u, v, s, t in quads]
            if pb or pa != 1:  # times the conjugate of pa + pb i, exactly over its norm
                re, im = ([(u * pa + v * pb) // norm for u, v in zip(re, im)],
                          [(v * pa - u * pb) // norm for u, v in zip(re, im)])
            rows[i] = (re, im)
        pivots.append(col)
        r += 1
        pa, pb = a, b
    out = [(u * pa + v * pb, v * pa - u * pb) for x_re, x_im in rows for u, v in zip(x_re, x_im)]
    return (*canonical([x for x, _ in out] + [y for _, y in out], pa * pa + pb * pb), r, pivots)


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
