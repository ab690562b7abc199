"""Battery checks on worked pairs, exhaustive instances, and seeded trials."""
from fractions import Fraction as F

import pytest

from starinv import theorems
from starinv.algebra import ExhaustiveEngine, enumerate_projections, example26_algebra
from starinv.generators import SplitMix64, all_projections_matrix, random_projection, trial_pair
from starinv.matrices import (
    ExactMatrix,
    MatrixInverseEngine,
    MatrixRing,
    mp_inverse,
)
from starinv.ring import CachingEngine, InvalidWitnessError, ProjectionPairContext, verify_mp
from starinv.scalars import QI, QQ, PrimeField
from starinv.theorems import (
    anticommutator_mp_formula,
    cor25_battery,
    cor26_battery,
    cor28_battery,
    cor29_chains,
    diff_mp_formula,
    eq215_formula,
    lemma21_checks,
    lemma22_identities,
    lemma23_identities,
    lemma210_battery,
    lemma211_check,
    lemma212_check,
    pxp_extraction,
    run_battery,
    thm24_battery,
    thm27_check,
    thm213_check,
    thm214_check,
)

RING2 = MatrixRing(QQ, 2)
ENGINE2 = MatrixInverseEngine(RING2)


class NotStarReducingEngine(MatrixInverseEngine):
    """ENGINE2's solves on an engine that reports no *-reducing ring."""

    star_reducing = False


UNREDUCED2 = NotStarReducingEngine(RING2)


def qmat(rows):
    return ExactMatrix.from_rows(QQ, [[F(e) for e in row] for row in rows])


@pytest.fixture(scope="module")
def canonical():
    p = qmat([[1, 0], [0, 0]])
    q = qmat([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    return ProjectionPairContext(p, q)


@pytest.fixture(scope="module")
def alg():
    return example26_algebra()


@pytest.fixture(scope="module")
def alg_engine(alg):
    return ExhaustiveEngine(alg)


@pytest.fixture(scope="module")
def alg_pair(alg):
    p = alg.element_from_labels("X")
    q = alg.element_from_labels("1", "Y")
    return ProjectionPairContext(p, q)


def equal_pair_ctx(ring):
    p = ring.element([[1, 0], [0, 0]])
    return ProjectionPairContext(p, p)


def random_pairs(ring, count, seed):
    rng = SplitMix64(seed)
    for _ in range(count):
        p = random_projection(ring, rng.int_between(0, ring.n), rng)
        q = random_projection(ring, rng.int_between(0, ring.n), rng)
        yield ProjectionPairContext(p, q)


def assert_passed(verdict):
    assert verdict.applicable
    assert verdict.passed, verdict.failing_checks()


# ------------------------------------------------------------------- lemma21


def test_lemma21_zero_element():
    verdict = lemma21_checks(RING2.zero(), ENGINE2)
    assert_passed(verdict)


def test_lemma21_canonical_product(canonical):
    verdict = lemma21_checks(canonical.p * canonical.q, ENGINE2)
    assert_passed(verdict)
    assert verdict.checks["dagger_from_star_product"] == "pass"


def test_lemma21_example26_records_gram_anomaly(alg, alg_engine):
    xy = alg.element_from_labels("XY")
    verdict = lemma21_checks(xy, alg_engine)
    # xy has no MP inverse, so the main identities are all vacuous,
    # and the reducing-only recovery is not applicable here.
    assert verdict.applicable
    assert verdict.passed
    assert verdict.observations["gram_invertible_without_r"] is True
    assert verdict.checks["gram_membership_recovers_mp"] == "na"


# ------------------------------------------------------------------- lemma22


def test_lemma22_equal_pair():
    assert_passed(lemma22_identities(equal_pair_ctx(RING2)))


def test_lemma22_canonical_values(canonical):
    ctx = canonical
    p_minus_a = ctx.p - ctx.a
    assert p_minus_a == qmat([[F(1, 2), 0], [0, 0]])
    assert ctx.b * ctx.b.star() == qmat([[F(1, 4), 0], [0, 0]])
    assert ctx.b * ctx.b.star() == p_minus_a - p_minus_a * p_minus_a
    assert_passed(lemma22_identities(ctx))


def test_lemma22_example26_pair(alg_pair):
    assert_passed(lemma22_identities(alg_pair))


# ------------------------------------------------------------------- lemma23


def test_lemma23_equal_pair():
    assert_passed(lemma23_identities(equal_pair_ctx(RING2), ENGINE2))


def test_lemma23_canonical(canonical):
    ctx = canonical
    pa_dag = ENGINE2.mp(ctx.p - ctx.a)
    assert pa_dag == qmat([[2, 0], [0, 0]])
    assert (ctx.p - ctx.a) * pa_dag * ctx.b == ctx.b
    assert_passed(lemma23_identities(ctx, ENGINE2))


def test_lemma23_complemented_pair(canonical):
    assert_passed(lemma23_identities(canonical.complemented(), ENGINE2))


def test_lemma23_example26(alg_pair, alg_engine):
    verdict = lemma23_identities(alg_pair, alg_engine)
    # p(1-q) = XY has no MP inverse there, so the gated checks are
    # skipped, never failed.
    assert not verdict.failing_checks()


# ------------------------------------------------------- difference formula


def test_diff_formula_equal_pair():
    ctx = equal_pair_ctx(RING2)
    w = diff_mp_formula(ctx, ENGINE2)
    assert w == RING2.zero()


def test_diff_formula_canonical(canonical):
    w = diff_mp_formula(canonical, ENGINE2)
    assert w == qmat([[1, -1], [-1, -1]])
    diff = canonical.p - canonical.q
    assert verify_mp(diff, w).all
    assert diff * w * diff == diff
    assert w == mp_inverse(diff)


def test_diff_formula_example26_gated(alg_pair, alg_engine):
    # preconditions fail for this pair (XY is not MP invertible)
    assert diff_mp_formula(alg_pair, alg_engine) is None


def test_diff_formula_example26_where_applicable(alg, alg_engine):
    projections = enumerate_projections(alg)
    applied = 0
    for p in projections:
        for q in projections:
            ctx = ProjectionPairContext(p, q)
            w = diff_mp_formula(ctx, alg_engine)
            if w is not None:
                assert verify_mp(ctx.p - ctx.q, w).all
                applied += 1
    assert applied > 0


# --------------------------------------------------------- explicit formula


def test_eq215_trivial_zero_pair():
    ring = RING2
    zero = ring.zero()
    ctx = ProjectionPairContext(zero, zero)
    x = eq215_formula(ctx, zero)  # (p - pqp) = 0 has dagger 0
    assert x == ring.one()
    assert verify_mp(ring.one(), x).all


def test_eq215_canonical_matches_direct_inversion(canonical):
    ctx = canonical
    dag = ENGINE2.mp(ctx.p - ctx.a)
    x = eq215_formula(ctx, dag)
    one_minus_pq = ctx.one - ctx.p * ctx.q
    # independent 2x2 adjugate inversion
    a, b = one_minus_pq.entry(0, 0), one_minus_pq.entry(0, 1)
    c, d = one_minus_pq.entry(1, 0), one_minus_pq.entry(1, 1)
    det = a * d - b * c
    direct = qmat([[d / det, -b / det], [-c / det, a / det]])
    assert x == direct == qmat([[2, 1], [0, 1]])
    assert verify_mp(one_minus_pq, x).all


def test_eq215_rejects_bad_witness(canonical):
    with pytest.raises(InvalidWitnessError):
        eq215_formula(canonical, RING2.one())


def test_eq215_example26_where_applicable(alg, alg_engine):
    projections = enumerate_projections(alg)
    applied = 0
    for p in projections:
        for q in projections:
            ctx = ProjectionPairContext(p, q)
            dag = alg_engine.mp(ctx.p - ctx.a)
            if dag is None:
                continue
            x = eq215_formula(ctx, dag)
            assert verify_mp(ctx.one - ctx.p * ctx.q, x).all
            applied += 1
    assert applied > 0


# -------------------------------------------------------- corner extraction


def test_pxp_full_pair():
    one = RING2.one()
    ctx = ProjectionPairContext(one, one)
    got = pxp_extraction(ctx, ENGINE2.mp(ctx.one - ctx.p * ctx.q))
    assert got == RING2.zero()  # p - pqp = 0 here, and 0 is its dagger


def test_pxp_canonical(canonical):
    dag = ENGINE2.mp(canonical.one - canonical.p * canonical.q)
    got = pxp_extraction(canonical, dag)
    assert got == qmat([[2, 0], [0, 0]])
    assert got == mp_inverse(canonical.p - canonical.a)


def test_pxp_rejects_bad_witness(canonical):
    with pytest.raises(InvalidWitnessError):
        pxp_extraction(canonical, RING2.zero())


def test_pxp_random_rational_pairs():
    ring = MatrixRing(QQ, 4)
    engine = MatrixInverseEngine(ring)
    for ctx in random_pairs(ring, 20, seed=101):
        dag = engine.mp(ctx.one - ctx.p * ctx.q)
        assert dag is not None
        got = pxp_extraction(ctx, dag)
        assert verify_mp(ctx.p - ctx.a, got).all


# ----------------------------------------------------------------- thm24


def test_thm24_equal_pair():
    assert_passed(thm24_battery(equal_pair_ctx(RING2), ENGINE2))


def test_thm24_canonical_all_exist(canonical):
    verdict = thm24_battery(canonical, ENGINE2)
    assert_passed(verdict)
    assert verdict.checks["explicit_formula_certified"] == "pass"
    assert verdict.checks["corner_extraction_unique"] == "pass"


def test_thm24_exhaustive_example26(alg, alg_engine):
    projections = enumerate_projections(alg)
    for p in projections:
        for q in projections:
            verdict = thm24_battery(ProjectionPairContext(p, q), alg_engine)
            assert verdict.passed, (p, q, verdict.failing_checks())


# ----------------------------------------------------------------- cor25/26


def test_cor25_canonical(canonical):
    verdict = cor25_battery(canonical, ENGINE2)
    assert_passed(verdict)


def test_cor25_equal_pair():
    assert_passed(cor25_battery(equal_pair_ctx(RING2), ENGINE2))


def test_cor25_not_applicable_without_reducing(alg_pair, alg_engine):
    verdict = run_battery("cor25", alg_pair, alg_engine)
    assert not verdict.applicable


def test_cor25_existence_asymmetry_witness(alg, alg_engine, alg_pair):
    # The gate matters: for p = X, q = 1 + Y the corner p(1-q)p = 0 is
    # MP invertible while p(1-q) = XY is not, so the ten flags would
    # disagree if the battery were forced on this non-reducing instance.
    ctx = alg_pair
    assert alg_engine.mp(ctx.p - ctx.a) is not None
    assert alg_engine.mp(ctx.p * ctx.q_bar) is None


def test_existence_families_disagree_on_example26(alg, alg_engine, alg_pair):
    # Forced past the gate, cor25 and cor26 see families whose members
    # do not stand or fall together; thm24 (valid in any instance) and
    # the three-element families of cor28 and lemma210 still agree.
    assert cor25_battery(alg_pair, alg_engine).failing_checks() == ("existence_flags_agree",)
    engine = CachingEngine(alg_engine)
    projections = enumerate_projections(alg)
    pairs = [ProjectionPairContext(p, q) for p in projections for q in projections]
    assert len(pairs) == 144
    for battery in (cor25_battery, cor26_battery):
        failing = [battery(ctx, engine).failing_checks() for ctx in pairs]
        assert [f for f in failing if f] == [("existence_flags_agree",)] * 8, battery.__name__
    for battery in (thm24_battery, cor28_battery, lemma210_battery):
        assert all(battery(ctx, engine).passed for ctx in pairs), battery.__name__


def test_cor26_canonical(canonical):
    assert_passed(cor26_battery(canonical, ENGINE2))


def test_cor26_zero_pair():
    zero = RING2.zero()
    assert_passed(cor26_battery(ProjectionPairContext(zero, zero), ENGINE2))


def test_cor26_random_gaussian_pairs():
    ring = MatrixRing(QI, 3)
    engine = MatrixInverseEngine(ring)
    for ctx in random_pairs(ring, 20, seed=202):
        assert_passed(cor26_battery(ctx, engine))


# ------------------------------------------------------------------- thm27


def test_thm27_equal_pair():
    assert_passed(thm27_check(equal_pair_ctx(RING2), ENGINE2))


def test_thm27_canonical_formula_value(canonical):
    verdict = thm27_check(canonical, ENGINE2)
    assert_passed(verdict)
    dag_diff = ENGINE2.mp(canonical.p - canonical.q)
    assert dag_diff * canonical.p == qmat([[1, 0], [-1, 0]])
    assert ENGINE2.mp(canonical.p * canonical.q_bar) == qmat([[1, 0], [-1, 0]])


def test_thm27_exhaustive_example26(alg, alg_engine):
    projections = enumerate_projections(alg)
    for p in projections:
        for q in projections:
            verdict = thm27_check(ProjectionPairContext(p, q), alg_engine)
            assert verdict.passed, (p, q, verdict.failing_checks())


# ------------------------------------------------------------- cor28, cor29


def test_cor28(canonical):
    assert_passed(cor28_battery(canonical, ENGINE2))
    assert_passed(cor28_battery(equal_pair_ctx(RING2), ENGINE2))
    assert not run_battery("cor28", canonical, UNREDUCED2).applicable


def test_cor29_canonical(canonical):
    verdict = cor29_chains(canonical, ENGINE2)
    assert_passed(verdict)
    assert verdict.checks["chain1_all_equal"] == "pass"
    assert verdict.checks["chain2_all_equal"] == "pass"


def test_cor29_equal_pair():
    assert_passed(cor29_chains(equal_pair_ctx(RING2), ENGINE2))


def test_cor29_random_rational_pairs():
    ring = MatrixRing(QQ, 4)
    engine = MatrixInverseEngine(ring)
    for ctx in random_pairs(ring, 20, seed=303):
        assert_passed(cor29_chains(ctx, engine))


# ------------------------------------------------------- lemma210, lemma211


def test_lemma210(canonical):
    assert_passed(lemma210_battery(canonical, ENGINE2))
    one = RING2.one()
    assert_passed(lemma210_battery(ProjectionPairContext(one, one), ENGINE2))
    zero = RING2.zero()
    assert_passed(lemma210_battery(ProjectionPairContext(zero, zero), ENGINE2))
    assert not run_battery("lemma210", canonical, UNREDUCED2).applicable


def test_lemma211_equal_pair():
    assert_passed(lemma211_check(equal_pair_ctx(RING2), ENGINE2))


def test_lemma211_canonical_boundary(canonical):
    # (b - b*)^2 is invertible (index 0) while bb* has index 1, the
    # boundary where only the guarded bound survives.
    verdict = lemma211_check(canonical, ENGINE2)
    assert_passed(verdict)
    assert verdict.observations["literal_index_bound"] is False
    b = canonical.b
    assert ENGINE2.drazin(b * b.star())[1] == 1
    skew = b - b.star()
    assert ENGINE2.drazin(skew * skew)[1] == 0


def test_lemma211_random_rational_pairs():
    ring = MatrixRing(QQ, 4)
    engine = MatrixInverseEngine(ring)
    for ctx in random_pairs(ring, 20, seed=404):
        assert_passed(lemma211_check(ctx, engine))


# ---------------------------------------------------------------- lemma212


def test_lemma212_examples():
    one = RING2.one()
    verdict = lemma212_check(one, ENGINE2)
    assert_passed(verdict)

    shift = qmat([[0, 1], [0, 0]])  # r + r^2 = r, index 2 on both sides
    assert_passed(lemma212_check(shift, ENGINE2))
    assert ENGINE2.drazin(shift)[1] == 2

    proj = qmat([[1, 0], [0, 0]])  # r + r^2 = diag(2, 0), both index 1
    assert_passed(lemma212_check(proj, ENGINE2))
    assert ENGINE2.drazin(proj + proj * proj)[1] == 1


def test_lemma212_random_matrices():
    rng = SplitMix64(77)
    for _ in range(20):
        r = ExactMatrix(QQ, 3, 3, [F(rng.int_between(-2, 2)) for _ in range(9)])
        assert_passed(lemma212_check(r, ENGINE2))


def test_lemma212_example26_elements(alg, alg_engine):
    for r in alg.elements():
        verdict = lemma212_check(r, alg_engine)
        assert not verdict.failing_checks(), alg.format_element(r)


# ------------------------------------------------------------ thm213, thm214


def test_thm213_equal_pair():
    assert_passed(thm213_check(equal_pair_ctx(RING2), ENGINE2))


def test_thm213_canonical(canonical):
    commutator = canonical.p * canonical.q - canonical.q * canonical.p
    assert commutator == qmat([[0, F(1, 2)], [F(-1, 2), 0]])
    assert ENGINE2.mp(commutator) is not None
    assert_passed(thm213_check(canonical, ENGINE2))


def test_thm213_gated(canonical):
    assert not run_battery("thm213", canonical, UNREDUCED2).applicable


def test_thm214_equal_pair_formula_via_solver():
    p = RING2.element([[1, 0], [0, 0]])
    ctx = ProjectionPairContext(p, p)
    verdict = thm214_check(ctx, ENGINE2)
    assert_passed(verdict)
    w = anticommutator_mp_formula(ctx, ENGINE2)
    anti = p * p + p * p  # 2p
    assert w == mp_inverse(anti)


def test_thm214_canonical(canonical):
    verdict = thm214_check(canonical, ENGINE2)
    assert_passed(verdict)
    w = anticommutator_mp_formula(canonical, ENGINE2)
    anti = canonical.p * canonical.q + canonical.q * canonical.p
    assert w is not None
    assert verify_mp(anti, w).all
    assert w == mp_inverse(anti)


def test_thm214_checks_the_public_formula(canonical, monkeypatch):
    # the battery certifies exactly what anticommutator_mp_formula returns
    monkeypatch.setattr(theorems, "anticommutator_mp_formula", lambda ctx, engine: None)
    assert thm214_check(canonical, ENGINE2).failing_checks() == ("shifted_sum_mp_exists",)


def test_thm214_zero_pair():
    zero = RING2.zero()
    ctx = ProjectionPairContext(zero, zero)
    assert_passed(thm214_check(ctx, ENGINE2))
    assert anticommutator_mp_formula(ctx, ENGINE2) == zero


def test_thm213_thm214_random_gaussian_pairs():
    ring = MatrixRing(QI, 3)
    engine = MatrixInverseEngine(ring)
    for ctx in random_pairs(ring, 20, seed=505):
        assert_passed(thm213_check(ctx, engine))
        assert_passed(thm214_check(ctx, engine))


# -------------------------------------------------- verdict plumbing


class _LyingEngine:
    """Claims nothing is MP invertible; for exercising failure paths."""

    def __init__(self, inner):
        self.inner = inner

    star_reducing = True

    def mp(self, x):
        return None

    def drazin(self, x):
        return self.inner.drazin(x)


def test_failed_verdict_names_its_failing_checks(canonical):
    liar = _LyingEngine(ENGINE2)
    verdict = thm27_check(canonical, liar)
    # p - q is invertible but the engine denies p(1-q), so the
    # biconditional it reports is internally consistent; force a failure
    # through thm24 instead, where existence flags must agree with the
    # formula sub-checks computed from real witnesses.
    assert verdict.passed  # consistent lies pass the pure biconditional

    class HalfLiar(_LyingEngine):
        def mp(self, x):
            # denies only the difference p - q
            if x == canonical.p - canonical.q:
                return None
            return self.inner.mp(x)

    verdict = thm27_check(canonical, HalfLiar(ENGINE2))
    assert verdict.applicable and not verdict.passed
    assert verdict.failing_checks() == ("biconditional",)


# ------------------------------------------------------- declared sub-checks


@pytest.fixture(scope="module")
def verdicts_on_sweeps(alg, alg_engine):
    """Every battery, called directly and ungated, on the example26 sweep,
    the gf:2 n=3 and gf:3 n=2 sweeps and 30 seeded q n=3 pairs."""
    sources = [(enumerate_projections(alg), alg_engine)]
    for p, n in ((2, 3), (3, 2)):
        field = PrimeField(p)
        ring = MatrixRing(field, n)
        sources.append((all_projections_matrix(n, field), MatrixInverseEngine(ring)))
    verdicts = []
    for projections, engine in sources:
        pairs = [ProjectionPairContext(p, q) for p in projections for q in projections]
        verdicts += _all_batteries(pairs, CachingEngine(engine))
    ring = MatrixRing(QQ, 3)
    pairs = [ProjectionPairContext(*trial_pair(ring, 1, t)[1:]) for t in range(30)]
    return verdicts + _all_batteries(pairs, CachingEngine(MatrixInverseEngine(ring)))


def _all_batteries(pairs, engine):
    return [
        battery.fn(ctx, engine)
        for ctx in pairs
        for battery in theorems.BATTERIES.values()
    ]


def test_verdicts_list_declared_checks_in_order(verdicts_on_sweeps):
    for verdict in verdicts_on_sweeps:
        assert tuple(verdict.checks) == theorems.BATTERIES[verdict.theorem].checks, verdict.theorem


def test_every_declared_check_is_reached(verdicts_on_sweeps):
    reached = {
        (verdict.theorem, name)
        for verdict in verdicts_on_sweeps
        for name, status in verdict.checks.items()
        if status != theorems.NA
    }
    declared = {(t, name) for t, b in theorems.BATTERIES.items() for name in b.checks}
    assert declared - reached == set()


def test_gated_verdict_lists_every_check_not_applicable(canonical):
    for theorem, battery in theorems.BATTERIES.items():
        if battery.needs_star_reducing:
            verdict = run_battery(theorem, canonical, UNREDUCED2)
            assert not verdict.applicable and not verdict.passed
            assert verdict.checks == dict.fromkeys(battery.checks, theorems.NA)


def test_undeclared_check_is_refused():
    v = theorems._Verdict("cor28")
    v.check("existence_flags_agree", True)
    v.check("not_declared", True)
    with pytest.raises(AssertionError, match="not_declared"):
        v.build()
