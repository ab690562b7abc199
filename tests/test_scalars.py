from fractions import Fraction

import pytest
import scalar_oracle as oracle
from hypothesis import given
from hypothesis import strategies as st

from starinv.generators import SplitMix64
from starinv.scalars import (
    ENTRY_HI,
    ENTRY_LO,
    QI,
    QQ,
    GaussianRational,
    PrimeField,
    TooLargeError,
    is_prime,
    parse_rational,
)

fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
gaussians = st.builds(GaussianRational, fractions, fractions)


def test_is_prime_small_values():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(91)  # 7 * 13


def test_parse_rational_forms():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-4/6") == Fraction(-2, 3)


@pytest.mark.parametrize("bad", ["1.5", "1/0", "a", "--1", "1/-2", "", "1/2/3", "+1"])
def test_parse_rational_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(fractions)
def test_rational_format_parse_round_trip(x):
    assert parse_rational(QQ.format(x)) == x


@given(gaussians)
def test_gaussian_format_parse_round_trip(z):
    assert QI.parse(QI.format(z)) == z


def test_gaussian_parse_accepts_bare_real_part():
    assert QI.parse("3/4") == GaussianRational(Fraction(3, 4), Fraction(0))
    with pytest.raises(ValueError):
        QI.parse("1,2,3")


# The field-axiom tests below check the per-scalar oracle the matrix
# kernels are tested against (tests/scalar_oracle.py).


@given(gaussians, gaussians)
def test_gaussian_conjugation_is_anti_multiplicative(a, b):
    def conj(x):
        return oracle.conj(QI, x)

    assert conj(oracle.mul(QI, a, b)) == oracle.mul(QI, conj(b), conj(a))
    assert conj(conj(a)) == a
    assert conj(oracle.add(QI, a, b)) == oracle.add(QI, conj(a), conj(b))


@given(gaussians)
def test_gaussian_inverse(z):
    if oracle.is_zero(QI, z):
        with pytest.raises(ZeroDivisionError):
            oracle.inv(QI, z)
    else:
        assert oracle.mul(QI, z, oracle.inv(QI, z)) == QI.one()


def test_gaussian_norm_is_conjugate_product():
    z = GaussianRational(Fraction(3), Fraction(-4))
    assert oracle.mul(QI, z, oracle.conj(QI, z)) == GaussianRational(Fraction(25), Fraction(0))


def test_prime_field_requires_prime_modulus():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    # Primes beyond the modulus cap are refused before any primality test.
    for huge in (1000000007, 1000000000000000003):
        with pytest.raises(TooLargeError):
            PrimeField(huge)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_prime_field_inverses(p):
    f = PrimeField(p)
    for a in range(1, p):
        assert oracle.mul(f, a, oracle.inv(f, a)) == 1
    with pytest.raises(ZeroDivisionError):
        oracle.inv(f, 0)


def test_prime_field_parse_range():
    f = PrimeField(5)
    assert f.parse("4") == 4
    with pytest.raises(ValueError):
        f.parse("5")
    with pytest.raises(ValueError):
        f.parse("-1")


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_prime_field_ring_axioms(a, b, c):
    f = PrimeField(5)
    assert oracle.add(f, a, b) == oracle.add(f, b, a)
    assert oracle.mul(f, a, oracle.add(f, b, c)) == oracle.add(
        f, oracle.mul(f, a, b), oracle.mul(f, a, c)
    )
    assert oracle.add(f, a, oracle.neg(f, a)) == 0


def test_field_labels():
    assert QQ.label == "Q"
    assert QI.label == "QI"
    assert PrimeField(7).label == "GF 7"
    assert (QQ.ring_id, QI.ring_id, PrimeField(7).ring_id) == ("q", "qi", "gf:7")
    assert PrimeField(7).size == 7
    assert QQ.size is None


def test_field_units_and_formats():
    assert (QQ.zero(), QQ.one()) == (Fraction(0), Fraction(1))
    assert (QI.zero(), QI.one()) == (GaussianRational(0, 0), GaussianRational(1, 0))
    for p in (2, 3, 7):
        assert (PrimeField(p).zero(), PrimeField(p).one()) == (0, 1)
    assert (QQ.format(Fraction(-2, 3)), PrimeField(7).format(5)) == ("-2/3", "5")
    assert QI.format(GaussianRational(Fraction(1, 2), -3)) == "1/2,-3"


def test_field_samples_draw_from_the_stream():
    draws = SplitMix64(5)
    parts = [Fraction(draws.int_between(ENTRY_LO, ENTRY_HI)) for _ in range(2)]
    assert QQ.sample(SplitMix64(5)) == parts[0]
    assert QI.sample(SplitMix64(5)) == GaussianRational(*parts)  # real part first
    assert PrimeField(7).sample(SplitMix64(5)) == SplitMix64(5).below(7)


def test_coercion_canonicalizes_and_rejects_floats():
    assert QQ.coerce(3) == Fraction(3)
    assert QI.coerce(2) == GaussianRational(Fraction(2), Fraction(0))
    assert QI.coerce(QI.one()) == QI.one()
    assert PrimeField(5).coerce(4) == 4
    with pytest.raises(TypeError):
        QQ.coerce(0.5)
    with pytest.raises(TypeError):
        QI.coerce(0.5)
    with pytest.raises(TypeError):
        GaussianRational(0.5, 0)
    with pytest.raises(TypeError):
        PrimeField(5).coerce(Fraction(1))
    with pytest.raises(ValueError):
        PrimeField(5).coerce(5)


def test_gaussian_constructor_coerces_ints_and_rejects_floats():
    z = GaussianRational(2, -3)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert z == GaussianRational(Fraction(2), Fraction(-3))
    for re, im in [(0.5, 0), (0, 0.5), (1.0, 2.0)]:
        with pytest.raises(TypeError):
            GaussianRational(re, im)


def test_gaussian_arithmetic_keeps_fraction_parts():
    for x in [QI.zero(), QI.one()]:
        assert type(x) is GaussianRational
        assert type(x.re) is Fraction and type(x.im) is Fraction
