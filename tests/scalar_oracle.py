"""Per-scalar field arithmetic, the reference the matrix kernels are checked against.

The package computes only on whole packed matrices (``starinv.kernels``);
these loops compute one scalar at a time, by independent means: the
Fraction operators over Q, residues mod p over GF(p), and (re, im)
pairs of Fractions over Q(i).
"""
from fractions import Fraction

from starinv.scalars import GaussianRational, GaussianRationalField, PrimeField


def _gaussian(field):
    return isinstance(field, GaussianRationalField)


def _reduce(field, x):
    return x % field.p if isinstance(field, PrimeField) else x


def add(field, a, b):
    if _gaussian(field):
        return GaussianRational(a.re + b.re, a.im + b.im)
    return _reduce(field, a + b)


def sub(field, a, b):
    if _gaussian(field):
        return GaussianRational(a.re - b.re, a.im - b.im)
    return _reduce(field, a - b)


def neg(field, a):
    return sub(field, field.zero(), a)


def mul(field, a, b):
    if _gaussian(field):
        return GaussianRational(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)
    return _reduce(field, a * b)


def inv(field, a):
    """Multiplicative inverse; raises ZeroDivisionError on zero."""
    if _gaussian(field):
        norm = a.re * a.re + a.im * a.im
        return GaussianRational(a.re / norm, -a.im / norm)
    if isinstance(field, PrimeField):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, field.p)
    return 1 / Fraction(a)


def conj(field, a):
    return GaussianRational(a.re, -a.im) if _gaussian(field) else a


def is_zero(field, a):
    return a == field.zero()
