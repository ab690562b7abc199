"""Solver checks, cross-checked against independent oracles.

The oracles: 2x2 inverses by the adjugate formula, MP existence over
GF(2) by scanning all 16 candidates, Drazin inverses over GF(2) and
GF(3) by scanning all candidates at the index the ranks of the powers
give, hand-reduced echelon forms, and per-scalar loops over
``scalar_oracle`` for the integer product, elimination, sum, negation
and star kernels.
"""
import itertools
import math
import tracemalloc
from fractions import Fraction as F

import pytest
import scalar_oracle as oracle

from starinv import matrices, scalars
from starinv.campaign import ring_instance
from starinv.generators import SplitMix64, random_matrix
from starinv.matrices import (
    ExactMatrix,
    MatrixInverseEngine,
    MatrixParseError,
    MatrixRing,
    ZeroMatrixError,
    drazin_inverse,
    format_matrix,
    format_matrix_inline,
    full_rank_factorization,
    group_inverse,
    inverse,
    mp_inverse,
    parse_matrix,
    rank,
    rref,
)
from starinv.ring import element_power, verify_drazin, verify_mp
from starinv.scalars import QI, QQ, GaussianRational, PrimeField

GF2 = PrimeField(2)
GF3 = PrimeField(3)


def qmat(rows):
    return ExactMatrix.from_rows(QQ, [[F(e) for e in row] for row in rows])


def gf2mat(rows):
    return ExactMatrix.from_rows(GF2, rows)


def all_matrices(field, rows, cols):
    entries = itertools.product(field.elements(), repeat=rows * cols)
    return [ExactMatrix(field, rows, cols, e) for e in entries]


def random_qmat(rng, n, lo=-3, hi=3):
    return ExactMatrix(QQ, n, n, [F(rng.int_between(lo, hi)) for _ in range(n * n)])


# ---------------------------------------------------------------- arithmetic


def test_matrix_equality_is_exact_and_field_aware():
    a = qmat([[1, 0], [0, 1]])
    b = ExactMatrix.identity(QQ, 2)
    assert a == b and hash(a) == hash(b)
    assert a != ExactMatrix.identity(GF2, 2)


def test_star_axioms_rational():
    rng = SplitMix64(3)
    for _ in range(20):
        a = random_qmat(rng, 3)
        b = random_qmat(rng, 3)
        assert a.star().star() == a
        assert (a * b).star() == b.star() * a.star()
        assert (a + b).star() == a.star() + b.star()


def test_star_is_conjugate_transpose_over_gaussians():
    i = GaussianRational(F(0), F(1))
    one = GaussianRational(F(1), F(0))
    a = ExactMatrix.from_rows(QI, [[one, i], [QI.zero(), one]])
    s = a.star()
    assert s.entry(1, 0) == GaussianRational(F(0), F(-1))
    assert s.entry(0, 1) == QI.zero()
    assert (a * a.star()).star() == a * a.star()


def test_matrix_immutable():
    a = qmat([[1, 0], [0, 1]])
    with pytest.raises(AttributeError):
        a.rows = 3


def test_matrix_dimensions_must_be_positive():
    builders = [lambda: ExactMatrix(QQ, 0, 1, []), lambda: ExactMatrix.zeros(GF2, 1, 0),
                lambda: ExactMatrix.identity(QI, 0)]
    for build in builders:
        with pytest.raises(ValueError, match="positive"):
            build()


def test_constructor_coerces_every_entry():
    # the rule of Field.coerce, shared with from_rows and parse_matrix
    for residue in (3, 5, -1):
        with pytest.raises(ValueError, match="out of range"):
            ExactMatrix(GF3, 1, 1, [residue])
    for field in (QQ, QI, GF3):
        with pytest.raises(TypeError):
            ExactMatrix(field, 1, 1, [0.5])
    half = ExactMatrix(QI, 1, 1, [F(1, 2)])
    assert half.entries == (GaussianRational(F(1, 2), F(0)),)


# ----------------------------------------------------------------------- rref


def test_rref_zero_matrix():
    _, r, pivots = rref(ExactMatrix.zeros(QQ, 2, 2))
    assert r == 0 and pivots == ()


def test_rref_identity():
    reduced, r, pivots = rref(ExactMatrix.identity(QQ, 3))
    assert reduced == ExactMatrix.identity(QQ, 3)
    assert r == 3 and pivots == (0, 1, 2)


def test_rref_gf2_hand_elimination():
    reduced, r, pivots = rref(gf2mat([[1, 1], [1, 1]]))
    assert reduced == gf2mat([[1, 1], [0, 0]])
    assert r == 1 and pivots == (0,)


def test_rank_equals_star_rank():
    rng = SplitMix64(5)
    for _ in range(20):
        a = random_qmat(rng, 3)
        assert rank(a) == rank(a.star())
        assert rank(a.star() * a) == rank(a)
    for a in all_matrices(GF2, 2, 2):
        assert rank(a) == rank(a.star())


def test_gram_rank_matches_over_gaussians():
    rng = SplitMix64(7)
    for _ in range(15):
        a = ExactMatrix(
            QI,
            3,
            3,
            [
                GaussianRational(F(rng.int_between(-2, 2)), F(rng.int_between(-2, 2)))
                for _ in range(9)
            ],
        )
        assert rank(a) == rank(a.star())
        assert rank(a.star() * a) == rank(a)


# ------------------------------------------------------------ exact kernels


def _oracle_product(a, b):
    # the per-scalar loop: one oracle call per multiply and per add
    f = a.field
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = f.zero()
            for t in range(a.cols):
                acc = oracle.add(f, acc, oracle.mul(f, a.entry(i, t), b.entry(t, j)))
            out.append(acc)
    return ExactMatrix(f, a.rows, b.cols, out)


def _oracle_rref(matrix):
    # Gauss-Jordan on field scalars: Fractions over Q and Q(i)
    f = matrix.field
    m, n = matrix.rows, matrix.cols
    data = matrix.to_rows()
    pivots = []
    r = 0
    for col in range(n):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if not oracle.is_zero(f, data[i][col])), None)
        if pivot_row is None:
            continue
        data[r], data[pivot_row] = data[pivot_row], data[r]
        scale = oracle.inv(f, data[r][col])
        data[r] = [oracle.mul(f, scale, e) for e in data[r]]
        for i in range(m):
            if i != r and not oracle.is_zero(f, data[i][col]):
                factor = data[i][col]
                data[i] = [
                    oracle.sub(f, e, oracle.mul(f, factor, piv)) for e, piv in zip(data[i], data[r])
                ]
        pivots.append(col)
        r += 1
    return ExactMatrix.from_rows(f, data), r, tuple(pivots)


KERNEL_FIELDS = [QQ, QI, GF2, PrimeField(7), PrimeField(31)]


def random_scalar(field, rng, large):
    if isinstance(field, PrimeField):
        return rng.int_between(0, field.p - 1)
    if rng.below(3) == 0:
        return field.zero()
    bound = 10**15 if large else 6

    def part():
        num = rng.int_between(-bound, bound) * (rng.int_between(1, bound) if large else 1)
        return F(num, rng.int_between(1, bound))

    return part() if field is QQ else GaussianRational(part(), part())


def kernel_matrix(field, rng, rows, cols):
    """Random rows, then some replaced by zero, duplicate or combined rows."""
    large = rng.below(4) == 0
    data = [[random_scalar(field, rng, large) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        kind = rng.below(5)
        if kind == 0:
            data[i] = [field.zero()] * cols
        elif kind == 1:
            data[i] = list(data[rng.below(i)])
        elif kind == 2:
            c = random_scalar(field, rng, False)
            src = data[rng.below(i)]
            other = data[rng.below(i)]
            data[i] = [oracle.add(field, oracle.mul(field, c, x), y) for x, y in zip(src, other)]
    return ExactMatrix(field, rows, cols, [e for row in data for e in row])


def assert_canonical(matrix):
    f = matrix.field
    for e in matrix.entries:
        parts = [e] if f is QQ else [e.re, e.im] if f is QI else None
        if parts is None:
            assert type(e) is int and 0 <= e < f.p
            continue
        if f is QI:
            assert type(e) is GaussianRational
        for x in parts:
            assert type(x) is F
            assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.label)
def test_product_kernel_matches_scalar_loop(field):
    rng = SplitMix64(404)
    for _ in range(300):
        n, k, m = (1 + rng.below(5) for _ in range(3))
        a = kernel_matrix(field, rng, n, k)
        b = kernel_matrix(field, rng, k, m)
        got = a * b
        assert got == _oracle_product(a, b)
        assert (got.rows, got.cols) == (n, m)
        assert_canonical(got)


def _wide_case(rows, cols, seed):
    """A rows x cols Gaussian integer matrix; rows 2 and 5 are (1 + i) and
    -1 times rows 0 and 3, and column 2 is zero."""
    rng = SplitMix64(seed)
    data = [[complex(rng.int_between(-4, 4), rng.int_between(-4, 4)) for _ in range(cols)]
            for _ in range(rows)]
    data[2] = [(1 + 1j) * x for x in data[0]]
    data[5] = [-x for x in data[3]]
    return [[0 if j == 2 else x for j, x in enumerate(row)] for row in data]


# Gaussian integer cases for the exact division by the previous pivot (the
# leading minor of the pivot columns so far): pivots of -1, i, -i and -2 with
# a step after them, a last pivot of -1, i or -i, a zero column between
# pivots, rows that are multiples of earlier rows, and shapes up to 7 x 8.
RREF_CASES = [
    [[1, 1, 2], [1, 0, 3], [2, 1, 4]],
    [[1, 1, 2], [1, 1 + 1j, 0], [3, 1, 1j]],
    [[1, 1, 0], [1, 1 - 1j, 2], [1j, 2, 1]],
    [[-2, 1, 0, 3], [4, 3, 1, 0], [0, 1, 5, -1]],
    [[1, 1], [1, 0]],
    [[1, 0], [0, 1j]],
    [[1, 1], [1, 1 - 1j]],
    [[0, 1j, 2], [-1j, 0, 1], [1, 1, 0]],
    [[1, 0, 2, 3], [2, 0, 5, 1], [0, 0, 1, 1]],
    [[1, 0, 0, 2], [1, 0, 0, 1], [2, 0, 1, 0]],
    [[1, 2, 3], [2, 4, 6], [1j, 2j, 3j], [0, 1, 1], [-1, -1, -2]],
    [[1, 2, 3], [-2, -4, -6], [0, 1, 1], [3, 7, 10]],
    [[2, 1, 1], [1, 1, 0], [1, 0, 1], [3, 1, 2]],
    _wide_case(7, 8, 1),
    _wide_case(7, 8, 2),
    [row[:6] for row in _wide_case(7, 8, 3)],
    [[x.real for x in row] for row in _wide_case(7, 8, 4)],
    [[x.imag for x in row] for row in _wide_case(6, 7, 5)],
]


def fixed_rref_cases(field):
    """The RREF_CASES over Q(i), and those with only real entries over Q."""
    out = []
    for rows in RREF_CASES:
        values = [complex(x) for row in rows for x in row]
        if field is QI:
            entries = [GaussianRational(F(int(x.real)), F(int(x.imag))) for x in values]
        elif field is QQ and not any(x.imag for x in values):
            entries = [F(int(x.real)) for x in values]
        else:
            continue
        out.append(ExactMatrix(field, len(rows), len(rows[0]), entries))
    return out


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.label)
def test_rref_kernel_matches_scalar_elimination(field):
    rng = SplitMix64(505)
    cases = [kernel_matrix(field, rng, 1 + rng.below(5), 1 + rng.below(5)) for _ in range(300)]
    for a in cases + fixed_rref_cases(field):
        reduced, r, pivots = rref(a)
        assert (reduced, r, pivots) == _oracle_rref(a)
        assert_canonical(reduced)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.label)
def test_kernels_on_one_by_one_and_zero_matrices(field):
    one = ExactMatrix.identity(field, 1)
    x = ExactMatrix(field, 1, 1, [oracle.neg(field, field.one())])
    assert x * x == one and x * one == x
    assert rref(x) == (one, 1, (0,))
    for rows, cols in [(1, 1), (2, 3), (4, 1)]:
        z = ExactMatrix.zeros(field, rows, cols)
        assert rref(z) == (z, 0, ())
        assert z * ExactMatrix.zeros(field, cols, 2) == ExactMatrix.zeros(field, rows, 2)
        assert_canonical(rref(z)[0])


def test_kernels_keep_large_numerators_exact():
    big = F(3**80, 7**40)
    a = qmat([[big, 1], [2 * big, 2]])
    reduced, r, pivots = rref(a)
    assert reduced == qmat([[1, 1 / big], [0, 0]]) and r == 1 and pivots == (0,)
    assert (a * a).entry(0, 0) == big * big + 2 * big
    z = GaussianRational(big, -big)
    assert rref(ExactMatrix(QI, 1, 2, [z, QI.one()])) == (
        ExactMatrix(QI, 1, 2, [QI.one(), oracle.inv(QI, z)]), 1, (0,))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.label)
def test_sum_negation_and_star_kernels_match_field_methods(field):
    # the per-scalar oracles: one oracle call per entry
    f = field
    rng = SplitMix64(606)
    for _ in range(300):
        rows, cols = 1 + rng.below(5), 1 + rng.below(5)
        a = kernel_matrix(f, rng, rows, cols)
        b = kernel_matrix(f, rng, rows, cols)
        pairs = list(zip(a.entries, b.entries))
        assert a + b == ExactMatrix(f, rows, cols, [oracle.add(f, x, y) for x, y in pairs])
        assert a - b == ExactMatrix(f, rows, cols, [oracle.sub(f, x, y) for x, y in pairs])
        assert -a == ExactMatrix(f, rows, cols, [oracle.neg(f, x) for x in a.entries])
        conj = [oracle.conj(f, a.entry(i, j)) for j in range(cols) for i in range(rows)]
        assert a.star() == ExactMatrix(f, cols, rows, conj)
        for got in (a + b, a - b, -a, a.star()):
            assert_canonical(got)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.label)
def test_packed_form_is_canonical(field):
    # equal matrices must store equal (num, den), or equality and hashing break
    rng = SplitMix64(707)
    for _ in range(200):
        n, k, m = (1 + rng.below(5) for _ in range(3))
        a = kernel_matrix(field, rng, n, k)
        b = kernel_matrix(field, rng, k, m)
        c = kernel_matrix(field, rng, n, k)
        for x in (a * b, a - c, rref(a)[0]):
            rebuilt = ExactMatrix(field, x.rows, x.cols, x.entries)
            assert x == rebuilt and hash(x) == hash(rebuilt)
            assert (x.num, x.den) == (rebuilt.num, rebuilt.den)
            assert x.den > 0 and math.gcd(*x.num, x.den) == 1


def test_kernels_reject_unknown_field():
    class Other(type(QQ)):
        pass

    # a matrix is packed at construction, so the refusal comes there
    with pytest.raises(TypeError):
        ExactMatrix(Other(), 1, 1, [F(1)])
    with pytest.raises(TypeError):
        ExactMatrix.identity(Other(), 1)


# ------------------------------------------------------- rank factorization


def test_full_rank_factorization_rank_one():
    f, g = full_rank_factorization(qmat([[1, 0], [0, 0]]))
    assert f == qmat([[1], [0]])
    assert g == qmat([[1, 0]])
    assert f.cols == 1


def test_full_rank_factorization_scaled_row():
    a = qmat([[F(1, 2), F(1, 2)], [0, 0]])
    f, g = full_rank_factorization(a)
    assert f == qmat([[F(1, 2)], [0]])
    assert g == qmat([[1, 1]])
    assert f * g == a


def test_full_rank_factorization_identity():
    f, g = full_rank_factorization(ExactMatrix.identity(QQ, 3))
    assert f == g == ExactMatrix.identity(QQ, 3)


def test_full_rank_factorization_rejects_zero():
    with pytest.raises(ZeroMatrixError):
        full_rank_factorization(ExactMatrix.zeros(QQ, 2, 3))


def test_full_rank_factorization_reconstructs():
    rng = SplitMix64(9)
    for _ in range(20):
        a = random_qmat(rng, 4)
        if a.is_zero():
            continue
        f, g = full_rank_factorization(a)
        assert f * g == a
        assert rank(f) == rank(g) == f.cols == g.rows == rank(a)


# ------------------------------------------------------------------ inverses


def test_inverse_against_adjugate_oracle():
    rng = SplitMix64(21)
    for _ in range(30):
        a = random_qmat(rng, 2)
        det = a.entry(0, 0) * a.entry(1, 1) - a.entry(0, 1) * a.entry(1, 0)
        got = inverse(a)
        if det == 0:
            assert got is None
        else:
            adjugate = qmat(
                [
                    [a.entry(1, 1) / det, -a.entry(0, 1) / det],
                    [-a.entry(1, 0) / det, a.entry(0, 0) / det],
                ]
            )
            assert got == adjugate


def test_mp_inverse_zero():
    got = mp_inverse(ExactMatrix.zeros(QQ, 2, 3))
    assert got == ExactMatrix.zeros(QQ, 3, 2)


def test_mp_inverse_diagonal_projection_slice():
    assert mp_inverse(qmat([[F(1, 2), 0], [0, 0]])) == qmat([[2, 0], [0, 0]])


def test_mp_inverse_gf2_singular_gram():
    assert mp_inverse(gf2mat([[1, 1], [1, 1]])) is None
    # independent oracle: no candidate among all 16 passes
    a = gf2mat([[1, 1], [1, 1]])
    assert all(not verify_mp(a, b).all for b in all_matrices(GF2, 2, 2))


@pytest.mark.parametrize(
    "field, rows, cols",
    [
        pytest.param(GF2, 2, 2, id="gf2-2x2"),
        pytest.param(GF3, 2, 2, id="gf3-2x2"),
        pytest.param(GF2, 2, 3, id="gf2-2x3"),
        pytest.param(GF2, 3, 2, id="gf2-3x2"),
    ],
)
def test_mp_inverse_gf2_matches_exhaustive_oracle(field, rows, cols):
    candidates = all_matrices(field, cols, rows)
    for a in all_matrices(field, rows, cols):
        witnesses = [b for b in candidates if verify_mp(a, b).all]
        got = mp_inverse(a)
        if witnesses:
            assert got == witnesses[0]
        else:
            assert got is None


def two_gram_mp(a):
    """The two-Gram formula G* (G G*)^-1 (F* F)^-1 F* on A = FG, or None
    when either Gram matrix is singular."""
    if a.is_zero():
        return ExactMatrix.zeros(a.field, a.cols, a.rows)
    f, g = full_rank_factorization(a)
    gram_g = inverse(g * g.star())
    gram_f = inverse(f.star() * f)
    if gram_g is None or gram_f is None:
        return None
    return g.star() * gram_g * gram_f * f.star()


def seeded_matrices(field, rows, cols, seed, count=20):
    """Small random matrices; every second one repeats its first row last."""
    rng = SplitMix64(seed)

    def draw():
        re = F(rng.int_between(-3, 3))
        return re if field is QQ else GaussianRational(re, F(rng.int_between(-3, 3)))

    out = []
    for t in range(count):
        entries = [draw() for _ in range(rows * cols)]
        if t % 2:
            entries[-cols:] = entries[:cols]
        out.append(ExactMatrix(field, rows, cols, entries))
    return out


def test_mp_inverse_matches_two_gram_formula():
    # MacDuffee's core F* A G* = (F* F)(G G*) is invertible exactly when
    # both Gram matrices are, so the witness and the None must agree.
    cases = [all_matrices(GF2, m, n) for m, n in [(2, 2), (3, 3), (2, 3), (3, 2)]]
    cases += [all_matrices(GF3, 2, 2), all_matrices(GF3, 2, 3), all_matrices(PrimeField(5), 2, 2)]
    for seed, (field, (m, n)) in enumerate(
        itertools.product((QQ, QI), [(3, 3), (2, 4), (4, 2)]), start=71
    ):
        cases.append(seeded_matrices(field, m, n, seed))
    nones = 0
    for matrices in cases:
        for a in matrices:
            got = mp_inverse(a)
            assert got == two_gram_mp(a)
            nones += got is None
    assert nones == 602


def test_mp_inverse_rectangular_certified():
    rng = SplitMix64(33)
    for _ in range(20):
        a = ExactMatrix(QQ, 2, 3, [F(rng.int_between(-3, 3)) for _ in range(6)])
        b = mp_inverse(a)
        assert b is not None
        assert verify_mp(a, b).all


def test_mp_inverse_of_seeded_qi_20x20():
    # past any size the random and fixed elimination cases reach
    a = random_matrix(QI, 20, 20, SplitMix64(1))
    b = mp_inverse(a)
    assert b is not None and b == inverse(a)
    assert verify_mp(a, b).all


def test_mp_dagger_interplay_identities():
    # Whenever the MP inverse exists: (A*A)+ = A+ (A*)+ and
    # A+ = (A*A)+ A* = A* (AA*)+, all exactly.
    rng = SplitMix64(41)
    for _ in range(15):
        a = random_qmat(rng, 3)
        a_dag = mp_inverse(a)
        assert a_dag is not None
        gram = a.star() * a
        gram_dag = mp_inverse(gram)
        assert gram_dag is not None
        assert gram_dag == a_dag * a_dag.star()
        assert a_dag == gram_dag * a.star()
        assert a_dag == a.star() * mp_inverse(a * a.star())


def test_mp_existence_matches_gram_existence_over_reducing_fields():
    rng = SplitMix64(43)
    for _ in range(15):
        a = random_qmat(rng, 3)
        assert mp_inverse(a) is not None
        assert mp_inverse(a.star() * a) is not None


def test_drazin_invertible():
    a = qmat([[2, 1], [1, 1]])
    witness, k = drazin_inverse(a)
    assert k == 0
    assert witness == inverse(a)


def test_drazin_nilpotent():
    witness, k = drazin_inverse(qmat([[0, 1], [0, 0]]))
    assert witness == ExactMatrix.zeros(QQ, 2, 2)
    assert k == 2


def test_drazin_idempotent():
    a = qmat([[1, 0], [0, 0]])
    witness, k = drazin_inverse(a)
    assert witness == a and k == 1


def test_drazin_zero_matrix():
    witness, k = drazin_inverse(ExactMatrix.zeros(QQ, 2, 2))
    assert witness == ExactMatrix.zeros(QQ, 2, 2) and k == 1


def test_drazin_certified_and_commutes():
    rng = SplitMix64(55)
    for _ in range(25):
        a = random_qmat(rng, 4, -2, 2)
        witness, k = drazin_inverse(a)
        assert verify_drazin(a, witness, k).valid
        assert a * witness == witness * a
        if k > 0:
            # the index is minimal: the power equation fails at k - 1
            assert not verify_drazin(a, witness, k - 1).index_eq


def rank_sequence_index(a):
    k = 0
    while rank(element_power(a, k)) != rank(element_power(a, k + 1)):
        k += 1
    return k


def test_drazin_over_gf2():
    # Oracles: the index is where the ranks of the powers stop falling,
    # and on 2x2 matrices the witness is the only one of all p^4
    # candidates that passes verify_drazin at that index.
    for field in (GF2, GF3):
        candidates = all_matrices(field, 2, 2)
        for a in candidates:
            k = rank_sequence_index(a)
            witness, got = drazin_inverse(a)
            assert got == k
            assert [c for c in candidates if verify_drazin(a, c, k).valid] == [witness]
            assert group_inverse(a) == (witness if k <= 1 else None)
    for a in all_matrices(GF2, 3, 3):
        witness, k = drazin_inverse(a)
        assert k == rank_sequence_index(a)
        assert verify_drazin(a, witness, k).valid


def test_group_inverse():
    a = qmat([[1, 0], [0, 0]])
    assert group_inverse(a) == a
    assert group_inverse(qmat([[0, 1], [0, 0]])) is None
    assert group_inverse(qmat([[F(1, 2), 0], [0, 0]])) == qmat([[2, 0], [0, 0]])


def test_group_inverse_agrees_with_mp_for_ep_matrices():
    # When A has an MP inverse that commutes with it (A is EP), the
    # group inverse exists and the two coincide.
    for a in all_matrices(GF2, 2, 2):
        a_dag = mp_inverse(a)
        if a_dag is not None and a * a_dag == a_dag * a:
            assert group_inverse(a) == a_dag
    rng = SplitMix64(59)
    for _ in range(15):
        m = random_qmat(rng, 3, -2, 2)
        a = m + m.star()  # self-adjoint, hence EP
        a_dag = mp_inverse(a)
        assert a_dag is not None
        assert group_inverse(a) == a_dag


# ------------------------------------------------------------- star-reducing


def test_all_ones_gf2_kills_gram():
    a = gf2mat([[1, 1], [1, 1]])
    assert not a.is_zero()
    assert (a.star() * a).is_zero()


def isotropic_vector(p, n):
    return PrimeField(p).isotropic_vector(n)


def test_isotropic_vectors():
    assert isotropic_vector(2, 1) is None
    assert isotropic_vector(2, 2) == (1, 1)
    assert isotropic_vector(3, 2) is None  # -1 is not a square mod 3
    vec5 = isotropic_vector(5, 2)
    assert vec5 is not None and (vec5[0] ** 2 + vec5[1] ** 2) % 5 == 0
    vec33 = isotropic_vector(3, 3)
    assert vec33 is not None and sum(x * x for x in vec33) % 3 == 0


def tabulated_isotropic_vector(p, n):
    """Reference: look roots up in a table of all p squares (larger root kept)."""
    if p == 2:
        return (1, 1) + (0,) * (n - 2) if n >= 2 else None
    if n == 1:
        return None
    squares = {(x * x) % p: x for x in range(p)}
    if n == 2:
        root = squares.get((-1) % p)
        return None if root is None else (1, root)
    for y in range(p):
        x = squares.get((-1 - y * y) % p)
        if x is not None:
            return (x, y, 1) + (0,) * (n - 3)


def test_isotropic_vector_matches_square_table():
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    for p in primes:
        for n in range(1, 5):
            assert isotropic_vector(p, n) == tabulated_isotropic_vector(p, n), (p, n)


def _larger_sqrt(a, p):
    """Reference: max(r, p - r) for the square roots r of a mod an odd
    prime p, or None, by Euler's criterion and Tonelli-Shanks."""
    a %= p
    if a == 0:
        return 0
    half = (p - 1) // 2
    if pow(a, half, p) != 1:
        return None
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    z = 2
    while pow(z, half, p) != p - 1:
        z += 1
    c, t, r = pow(z, odd, p), pow(a, odd, p), pow(a, (odd + 1) // 2, p)
    while t != 1:
        i, t_power = 0, t
        while t_power != 1:
            t_power = t_power * t_power % p
            i += 1
        b = pow(c, 1 << (twos - i - 1), p)
        twos, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return max(r, p - r)


def tonelli_shanks_isotropic_vector(p, n):
    """Reference: the first isotropic vector, roots by Tonelli-Shanks."""
    if p == 2:
        return (1, 1) + (0,) * (n - 2) if n >= 2 else None
    if n == 1:
        return None
    if n == 2:
        root = _larger_sqrt(-1, p)
        return None if root is None else (1, root)
    for y in range(p):
        x = _larger_sqrt(-1 - y * y, p)
        if x is not None:
            return (x, y, 1) + (0,) * (n - 3)


def test_isotropic_vector_matches_tonelli_shanks():
    # 1048573 = 1 (mod 4) and 1048571 = 3 (mod 4), the two largest primes below the cap
    primes = [p for p in range(2, 2000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for p in primes + [1048573, 1048571]:
        for n in range(1, 6):
            assert isotropic_vector(p, n) == tonelli_shanks_isotropic_vector(p, n), (p, n)


def test_isotropic_vector_needs_no_square_table():
    p = 1048573  # largest prime below scalars.MODULUS_CAP; -1 is a square mod p
    tracemalloc.start()
    try:
        vectors = [isotropic_vector(p, n) for n in (2, 3)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for vec in vectors:
        assert vec is not None and sum(x * x for x in vec) % p == 0


def star_reducing(field, n):
    return MatrixInverseEngine(MatrixRing(field, n)).star_reducing


def test_matrix_ring_star_reducing_flags():
    assert star_reducing(QQ, 3)
    assert star_reducing(QI, 3)
    assert not star_reducing(GF2, 2)
    assert star_reducing(GF3, 2)
    assert not star_reducing(GF3, 3)
    assert not star_reducing(PrimeField(5), 2)


def test_non_star_reducing_witness_matrix():
    ring = MatrixRing(GF2, 2)
    witness = ring.non_star_reducing_witness()
    assert witness is not None
    assert not witness.is_zero()
    assert (witness.star() * witness).is_zero()
    assert MatrixRing(QQ, 2).non_star_reducing_witness() is None


def scan_for_isotropic_matrix(p, n):
    """Oracle: a nonzero n x n residue matrix A with A^T A = 0 mod p, or None,
    by scanning every matrix; (A^T A)_ij is column i dotted with column j."""
    for entries in itertools.product(range(p), repeat=n * n):
        columns = [entries[j::n] for j in range(n)]
        if any(entries) and all(
            sum(x * y for x, y in zip(columns[i], columns[j])) % p == 0
            for i in range(n)
            for j in range(i, n)
        ):
            return entries
    return None


def test_star_reducing_flag_matches_a_scan():
    # every gf:p ring with p^(n^2) <= 2^15 at n >= 2, and n = 1 for p <= 13
    cases = [(2, 2), (2, 3), (3, 2), (3, 3)] + [(p, 2) for p in (5, 7, 11, 13)]
    cases += [(p, 1) for p in (2, 3, 5, 7, 11, 13)]
    for p, n in cases:
        ring = MatrixRing(PrimeField(p), n)
        flag = MatrixInverseEngine(ring).star_reducing
        assert flag == (scan_for_isotropic_matrix(p, n) is None), (p, n)
        witness = ring.non_star_reducing_witness()
        if witness is not None:
            assert not witness.is_zero() and (witness.star() * witness).is_zero(), (p, n)


def test_matrix_ring_ids():
    assert MatrixRing(QQ, 2).ring_id == "q"
    assert MatrixRing(QI, 2).ring_id == "qi"
    assert MatrixRing(PrimeField(7), 2).ring_id == "gf:7"


def test_matrix_engine_surface():
    engine = MatrixInverseEngine(MatrixRing(QQ, 2))
    assert engine.star_reducing
    a = qmat([[F(1, 2), 0], [0, 0]])
    assert engine.mp(a) == qmat([[2, 0], [0, 0]])
    witness, k = engine.drazin(a)
    assert k == 1 and witness == qmat([[2, 0], [0, 0]])
    assert "ring Q" in ring_instance("q", 2).serialize(a)


# ------------------------------------------------------------- text format


@pytest.mark.parametrize(
    "matrix",
    [
        qmat([[F(1, 2), -2], [0, 7]]),
        ExactMatrix.from_rows(
            QI,
            [
                [GaussianRational(F(1, 2), F(-3)), QI.one()],
                [QI.zero(), GaussianRational(F(0), F(2, 5))],
            ],
        ),
        ExactMatrix.from_rows(PrimeField(5), [[0, 4, 2]]),
    ],
)
def test_text_format_round_trip(matrix):
    assert parse_matrix(format_matrix(matrix)) == matrix


def test_parse_matrix_example():
    text = "ring Q\nrows 2\ncols 2\n1/2 -1/2\n0 1\n"
    assert parse_matrix(text) == qmat([[F(1, 2), F(-1, 2)], [0, 1]])


def test_parse_matrix_bad_header():
    # a modulus is ASCII digits with no sign or leading zero; int() reads all these as 3
    for header in ("Z", "GF 4", "GF 03", "GF +3", "GF 0_3", "GF \uff13", "gf:3", "q"):
        with pytest.raises(MatrixParseError) as info:
            parse_matrix(f"ring {header}\nrows 1\ncols 1\n1\n")
        assert info.value.line == 1
    for rows in ("+1", "0_1", "\uff11"):
        with pytest.raises(MatrixParseError) as info:
            parse_matrix(f"ring Q\nrows {rows}\ncols 1\n1\n")
        assert info.value.line == 2


def test_parse_matrix_caps_the_declared_size():
    cap = matrices.MATRIX_FILE_CAP
    assert cap == 64
    square = "\n".join(" ".join(["1"] * cap) for _ in range(cap))
    assert parse_matrix(f"ring Q\nrows {cap}\ncols {cap}\n{square}\n").rows == cap
    # refused at the header, before any entry (here unparseable) is read
    for rows, cols, line in (("65", "1", 2), ("1", "65", 3), ("9" * 5000, "1", 2)):
        with pytest.raises(MatrixParseError, match="exceeds the 64 cap") as info:
            parse_matrix(f"ring QI\nrows {rows}\ncols {cols}\nx\n")
        assert info.value.line == line


def test_parse_matrix_caps_the_text_length():
    cap = matrices.MATRIX_FILE_BYTES
    assert cap == 1 << 15
    head = "ring Q\nrows 1\ncols 1\n1\n"
    assert parse_matrix(head + "\n" * (cap - len(head))).entries == (1,)
    # refused before any line is read, so no line is named
    with pytest.raises(MatrixParseError, match=f"exceeds the {cap}-byte cap") as info:
        parse_matrix(head + "\n" * (cap - len(head) + 1))
    assert info.value.line is None


def test_parse_matrix_checks_modulus_cap_before_primality(monkeypatch):
    def bounded_is_prime(n):
        assert n <= scalars.MODULUS_CAP, "trial division of an uncapped modulus"
        return real_is_prime(n)

    real_is_prime = scalars.is_prime
    for module in (scalars, matrices):  # wherever parsing might look it up
        monkeypatch.setattr(module, "is_prime", bounded_is_prime, raising=False)
    with pytest.raises(MatrixParseError) as info:
        parse_matrix("ring GF 1000000000000000003\nrows 1\ncols 1\n1\n")
    assert info.value.line == 1
    assert parse_matrix("ring GF 1048573\nrows 1\ncols 1\n5\n").field == PrimeField(1048573)


def test_parse_matrix_wrong_entry_count():
    with pytest.raises(MatrixParseError) as info:
        parse_matrix("ring Q\nrows 2\ncols 2\n1 2 3\n4 5\n")
    assert info.value.line == 4


def test_parse_matrix_bad_entry_has_position():
    with pytest.raises(MatrixParseError) as info:
        parse_matrix("ring Q\nrows 1\ncols 3\n1 x 3\n")
    assert info.value.line == 4
    assert info.value.column == 2
    # entries are ASCII decimal too: \d and int() also read fullwidth digits
    for ring, entry in [("Q", "\uff13"), ("Q", "1/\uff12"), ("QI", "1,\uff12"), ("GF 5", "\uff13")]:
        with pytest.raises(MatrixParseError) as info:
            parse_matrix(f"ring {ring}\nrows 1\ncols 2\n1 {entry}\n")
        assert (info.value.line, info.value.column) == (4, 2)


def test_parse_matrix_gf_range_check():
    with pytest.raises(MatrixParseError):
        parse_matrix("ring GF 3\nrows 1\ncols 1\n3\n")


def test_inline_format():
    assert format_matrix_inline(qmat([[1, 0], [0, 1]])) == "1 0; 0 1"
