"""Determinism and correctness of the projection-pair generators."""
import pytest

from starinv import algebra, generators
from starinv.generators import (
    EXHAUSTIVE_CELL_CAP,
    GenerationFailedError,
    SplitMix64,
    TooLargeError,
    all_projections_matrix,
    pair_from_spec,
    random_projection,
    subspace_count,
    trial_pair,
    trial_stream_seed,
)
from starinv.matrices import ExactMatrix, MatrixRing, rank
from starinv.ring import is_projection
from starinv.scalars import QI, QQ, PrimeField

GF2 = PrimeField(2)
GF3 = PrimeField(3)


def test_splitmix64_reference_value():
    # canonical first output of the seed-0 stream
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_splitmix64_streams_are_deterministic():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    c = SplitMix64(12346)
    assert a.next_u64() != c.next_u64()


def test_trial_streams_are_independent():
    seeds = {trial_stream_seed(0, t) for t in range(1000)}
    assert len(seeds) == 1000


def test_int_between_covers_range():
    rng = SplitMix64(1)
    seen = {rng.int_between(-3, 3) for _ in range(500)}
    assert seen == {-3, -2, -1, 0, 1, 2, 3}
    with pytest.raises(ValueError):
        rng.int_between(3, 2)
    with pytest.raises(ValueError):
        rng.below(0)


def test_below_rejects_bounds_past_one_draw():
    rng = SplitMix64(5)
    for draw in (lambda: rng.below(2**64 + 1), lambda: rng.int_between(-10**30, 10**30)):
        with pytest.raises(ValueError, match=r"2\*\*64"):
            draw()
    assert rng.state == SplitMix64(5).state  # raised before drawing anything
    reference = SplitMix64(5)
    assert rng.below(2**64) == reference.next_u64()  # the largest bound one draw covers
    assert rng.int_between(-(2**63), 2**63 - 1) == reference.next_u64() - 2**63


@pytest.mark.parametrize("field,n", [(QQ, 4), (QI, 3), (GF3, 3)])
def test_random_projection_rank_and_idempotence(field, n):
    ring = MatrixRing(field, n)
    rng = SplitMix64(42)
    for requested in range(n + 1):
        e = random_projection(ring, n, requested, rng)
        assert is_projection(e)
        assert rank(e) == requested


def test_random_projection_shortcuts():
    ring = MatrixRing(QQ, 3)
    rng = SplitMix64(0)
    assert random_projection(ring, 3, 0, rng) == ExactMatrix.zeros(QQ, 3, 3)
    assert random_projection(ring, 3, 3, rng) == ExactMatrix.identity(QQ, 3)
    with pytest.raises(ValueError):
        random_projection(ring, 3, 4, rng)


def test_random_projection_retry_budget():
    class AlwaysOnes:
        # duck-typed stream whose samples give a singular Gram over GF(2)
        def int_between(self, lo, hi):
            return 1

        def below(self, bound):
            return 1 % bound

    ring = MatrixRing(GF2, 2)
    with pytest.raises(GenerationFailedError):
        random_projection(ring, 2, 1, AlwaysOnes(), max_tries=5)


def test_trial_pair_determinism():
    ring = MatrixRing(QQ, 4)
    spec1, p1, q1 = trial_pair(ring, seed=9, trial=3)
    spec2, p2, q2 = trial_pair(ring, seed=9, trial=3)
    assert spec1 == spec2
    assert p1 == p2 and q1 == q2
    p3, q3 = pair_from_spec(ring, spec1)
    assert (p3, q3) == (p1, q1)
    _, other_p, _ = trial_pair(ring, seed=9, trial=4)
    assert spec1.rank_p != 4 or other_p != p1  # different trial, different stream


def test_pair_from_spec_validates_ring():
    ring = MatrixRing(QQ, 4)
    spec, _, _ = trial_pair(ring, seed=9, trial=3)
    with pytest.raises(ValueError):
        pair_from_spec(MatrixRing(QQ, 3), spec)


def test_all_projections_gf2_1x1():
    got = all_projections_matrix(1, GF2)
    assert got == [ExactMatrix.zeros(GF2, 1, 1), ExactMatrix.identity(GF2, 1)]


def _oracle_projections(n, field):
    # independent full scan, nested loops instead of the library's counter
    values = list(field.elements())
    total = n * n
    found = []
    stack = [0] * total
    while True:
        m = ExactMatrix(field, n, n, [values[i] for i in stack])
        if m * m == m and m.star() == m:
            found.append(m)
        i = total - 1
        while i >= 0 and stack[i] == len(values) - 1:
            stack[i] = 0
            i -= 1
        if i < 0:
            return found
        stack[i] += 1


@pytest.mark.parametrize(
    "field,n",
    [(GF2, 2), (GF3, 2), (GF2, 3), (GF2, 1), (GF3, 3), (PrimeField(5), 2), (PrimeField(7), 2)],
)
def test_all_projections_matches_oracle(field, n):
    got = all_projections_matrix(n, field)
    assert got == _oracle_projections(n, field)
    assert all(is_projection(e) for e in got)


def test_all_projections_gf2_2x2_members():
    got = all_projections_matrix(2, GF2)
    for rows in ([[0, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, 0], [0, 1]]):
        assert ExactMatrix.from_rows(GF2, rows) in got


@pytest.mark.parametrize("field,n,count", [(GF2, 5, 194), (GF3, 4, 140), (PrimeField(7), 3, 100)])
def test_all_projections_beyond_the_matrix_cap(field, n, count):
    # |F|^(n^2) is past the old cell cap here, so no scan checks these lists
    got = all_projections_matrix(n, field)
    assert len(got) == count
    assert all(is_projection(e) for e in got)
    assert [e.entries for e in got] == sorted({e.entries for e in got})
    one = ExactMatrix.identity(field, n)
    members = set(got)
    assert all(one - e in members for e in got)


def test_all_projections_replays_every_result(monkeypatch):
    # a wrong Gram inverse must be caught, not listed
    monkeypatch.setattr(generators, "inverse", lambda m: ExactMatrix.identity(m.field, m.rows))
    with pytest.raises(AssertionError):
        all_projections_matrix(2, GF3)


def test_subspace_count_is_the_galois_number():
    # [2, 1]_p = p + 1 lines in the plane, plus 0 and the whole plane
    assert [subspace_count(2, p, 10**9) for p in (2, 3, 7)] == [5, 6, 10]
    assert subspace_count(3, 7, 10**9) == 116
    assert subspace_count(4, 7, 10**9) == 3652
    assert subspace_count(9, 2, 10**9) == 8283458
    assert subspace_count(1000, 2, EXHAUSTIVE_CELL_CAP) > EXHAUSTIVE_CELL_CAP


def test_all_projections_rejects_nonpositive_size():
    for n in (0, -1):
        with pytest.raises(ValueError):
            all_projections_matrix(n, GF2)


def test_all_projections_too_large(monkeypatch):
    with pytest.raises(TooLargeError):
        all_projections_matrix(2, QQ)  # infinite field

    def must_not_run(*args):
        raise AssertionError("built a matrix past the cap")

    monkeypatch.setattr(generators, "ExactMatrix", must_not_run)
    monkeypatch.setattr(generators, "inverse", must_not_run)
    for n in (9, 1000):  # GF(2)^9 has 8,283,458 subspaces
        with pytest.raises(TooLargeError):
            all_projections_matrix(n, GF2)
    # One class serves every cap: the algebra scan cap raises it too.
    assert TooLargeError is algebra.TooLargeError
