"""Checks for the definitional predicates, universal across instances."""
from fractions import Fraction as F

import pytest

from starinv.algebra import example26_algebra
from starinv.generators import SplitMix64, random_projection
from starinv.matrices import ExactMatrix, MatrixRing, mp_inverse
from starinv.ring import (
    NotAProjectionError,
    ProjectionPairContext,
    element_power,
    is_projection,
    verify_drazin,
    verify_mp,
)
from starinv.scalars import QQ, PrimeField

RING2 = MatrixRing(QQ, 2)


def mat(rows):
    return ExactMatrix.from_rows(QQ, [[F(e) for e in row] for row in rows])


@pytest.fixture
def canonical_pair():
    p = mat([[1, 0], [0, 0]])
    q = mat([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    return p, q


def test_verify_mp_zero_is_its_own_inverse():
    zero = RING2.zero()
    assert verify_mp(zero, zero).all


def test_verify_mp_certifies_direct_inverse(canonical_pair):
    p, q = canonical_pair
    a = RING2.one() - p * q
    cand = mat([[2, 1], [0, 1]])
    report = verify_mp(a, cand)
    assert (report.eq1, report.eq2, report.eq3, report.eq4) == (True,) * 4
    assert report.all


def test_verify_mp_rejects_wrong_candidate(canonical_pair):
    p, q = canonical_pair
    a = RING2.one() - p * q
    assert not verify_mp(a, RING2.one()).all


def test_verify_mp_example26_product_has_no_witness():
    algebra = example26_algebra()
    xy = algebra.element_from_labels("XY")
    # aba = a fails for every candidate: XY c XY = 0 for all 64 elements.
    for cand in algebra.elements():
        report = verify_mp(xy, cand)
        assert not report.eq1
        assert (xy * cand * xy).bits == 0


def test_verify_drazin_invertible_at_index_zero():
    a = mat([[2, 1], [1, 1]])
    inv = mat([[1, -1], [-1, 2]])
    assert verify_drazin(a, inv, 0).valid


def test_verify_drazin_nilpotent():
    a = mat([[0, 1], [0, 0]])
    zero = RING2.zero()
    report = verify_drazin(a, zero, 2)
    assert report.valid
    # at index 1 the power equation fails: a^2 * 0 = 0 but a^1 != 0
    assert not verify_drazin(a, zero, 1).index_eq


def test_verify_drazin_idempotent_is_its_own_group_inverse():
    a = mat([[1, 0], [0, 0]])
    assert verify_drazin(a, a, 1).valid


def test_verify_drazin_rejects_negative_index():
    a = RING2.one()
    with pytest.raises(ValueError):
        verify_drazin(a, a, -1)


def test_element_power():
    a = mat([[0, 1], [0, 0]])
    assert element_power(a, 0) == RING2.one()
    assert element_power(a, 1) == a
    assert element_power(a, 2) == RING2.zero()


def test_is_projection_examples():
    assert is_projection(RING2.one())
    assert is_projection(RING2.zero())
    assert is_projection(mat([[1, 0], [0, 0]]))
    assert not is_projection(mat([[0, 1], [0, 0]]))
    algebra = example26_algebra()
    assert is_projection(algebra.element_from_labels("X"))
    assert not is_projection(algebra.element_from_labels("XY"))


def test_context_rejects_non_projections(canonical_pair):
    p, q = canonical_pair
    with pytest.raises(NotAProjectionError):
        ProjectionPairContext(mat([[0, 1], [0, 0]]), q)
    with pytest.raises(NotAProjectionError):
        ProjectionPairContext(p, mat([[2, 0], [0, 0]]))


def test_context_derived_elements(canonical_pair):
    p, q = canonical_pair
    ctx = ProjectionPairContext(p, q)
    assert ctx.a == p * q * p
    assert ctx.b == p * q * (ctx.one - p)
    assert ctx.d == (ctx.one - p) * q * (ctx.one - p)
    assert ctx.a + ctx.b == p * q
    assert ctx.p_bar == ctx.one - p
    flipped = ctx.complemented()
    assert flipped.p == ctx.p_bar and flipped.q == ctx.q_bar


def _random_pairs(ring_id, ring, count, seed):
    rng = SplitMix64(seed)
    for _ in range(count):
        n = ring.n
        a = random_projection(ring, rng.int_between(0, n), rng)
        b = random_projection(ring, rng.int_between(0, n), rng)
        yield a, b


def test_star_dagger_exchange_and_double_dagger():
    ring = MatrixRing(QQ, 3)
    rng = SplitMix64(11)
    for _ in range(25):
        a = ExactMatrix(QQ, 3, 3, [F(rng.int_between(-3, 3)) for _ in range(9)])
        b = mp_inverse(a)
        assert b is not None  # rationals always admit MP inverses
        assert verify_mp(a.star(), b.star()).all
        assert verify_mp(b, a).all


def test_self_adjoint_implies_ep():
    rng = SplitMix64(13)
    for _ in range(25):
        m = ExactMatrix(QQ, 3, 3, [F(rng.int_between(-2, 2)) for _ in range(9)])
        a = m + m.star()
        b = mp_inverse(a)
        assert b is not None and verify_mp(a, b).all
        assert a * b == b * a


def test_commuting_elements_commute_with_dagger():
    # For self-adjoint MP-invertible a and any x with ax = xa, the
    # dagger of a commutes with x.  Polynomials in a commute with a.
    rng = SplitMix64(17)

    def scalar(c):  # c times the identity
        return ExactMatrix.from_rows(QQ, [[c if i == j else 0 for j in range(3)] for i in range(3)])

    for _ in range(25):
        m = ExactMatrix(QQ, 3, 3, [F(rng.int_between(-2, 2)) for _ in range(9)])
        a = m + m.star()
        a_dag = mp_inverse(a)
        assert a_dag is not None
        c0, c1, c2 = (F(rng.int_between(-3, 3)) for _ in range(3))
        x = scalar(c0) + scalar(c1) * a + scalar(c2) * a * a
        assert a * x == x * a
        assert x * a_dag == a_dag * x


def test_mp_uniqueness_exhaustive_gf2():
    field = PrimeField(2)
    matrices = [
        ExactMatrix(field, 2, 2, [(m >> k) & 1 for k in range(4)]) for m in range(16)
    ]
    for a in matrices:
        witnesses = [b for b in matrices if verify_mp(a, b).all]
        assert len(witnesses) <= 1


def test_mp_uniqueness_exhaustive_example26():
    algebra = example26_algebra()
    for a in algebra.elements():
        witnesses = [b for b in algebra.elements() if verify_mp(a, b).all]
        assert len(witnesses) <= 1
