"""Acceptance suite: one test per criterion, exact equality throughout.

Every criterion prints one PASS/FAIL line.  Trial sets are seeded and
deterministic; tolerances are exact equality everywhere, with the
stated wall-clock budgets asserted where given.
"""
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from starinv.algebra import ExhaustiveEngine, enumerate_projections, example26_algebra
from starinv.cli import counterexample_evidence, main
from starinv.generators import SplitMix64, all_projections_matrix, trial_pair
from starinv.matrices import (
    ExactMatrix,
    MatrixInverseEngine,
    MatrixRing,
    drazin_inverse,
    mp_inverse,
)
from starinv.ring import ProjectionPairContext, verify_drazin, verify_mp
from starinv.scalars import QI, QQ, PrimeField
from starinv.theorems import (
    cor29_chains,
    diff_mp_formula,
    eq215_formula,
    lemma22_identities,
    pxp_extraction,
    thm213_check,
    thm214_check,
)

Q_TRIALS = 200
QI_TRIALS = 100


@contextmanager
def criterion(number, description, budget_seconds=None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] C{number} {description}: FAIL")
        raise
    elapsed = time.monotonic() - started
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"
    print(f"[ACCEPTANCE] C{number} {description}: PASS ({elapsed:.2f}s)")


def generate_matrix_pairs(ring, count, seed=0):
    return [trial_pair(ring, seed, t)[1:] for t in range(count)]


@pytest.fixture(scope="module")
def q_setup():
    ring = MatrixRing(QQ, 4)
    return ring, MatrixInverseEngine(ring), generate_matrix_pairs(ring, Q_TRIALS)


@pytest.fixture(scope="module")
def qi_setup():
    ring = MatrixRing(QI, 3)
    return ring, MatrixInverseEngine(ring), generate_matrix_pairs(ring, QI_TRIALS)


def both_trial_sets(q_setup, qi_setup):
    for _, engine, pairs in (q_setup, qi_setup):
        for p, q in pairs:
            yield engine, ProjectionPairContext(p, q)


def six_elements(ctx):
    p, q, one = ctx.p, ctx.q, ctx.one
    pq, qp = p * q, q * p
    return (one - pq, one - pq * p, p - pq * p, one - qp, one - qp * q, q - qp * q)


def test_c01_counterexample_reproduction(capsys):
    with criterion(1, "existence asymmetry reproduced in the 64-element algebra", 1.0):
        evidence = counterexample_evidence()
        assert evidence["reproduced"] is True
        assert evidence["corner"]["element"] == "0"
        assert evidence["corner"]["mp_exists"] and evidence["corner"]["mp"] == "0"
        assert evidence["product"]["element"] == "XY"
        assert evidence["product"]["mp_exists"] is False
        assert evidence["product"]["candidates_scanned"] == 64
        assert evidence["product"]["rejections"]["eq1"] == 64
        assert main(["counterexample"]) == 0
        capsys.readouterr()


def test_c02_six_flag_agreement_exhaustive():
    with criterion(2, "six existence flags agree on every exhaustive pair", 10.0):
        checked = 0
        algebra = example26_algebra()
        engine = ExhaustiveEngine(algebra)
        projections = enumerate_projections(algebra)
        for p in projections:
            for q in projections:
                flags = [engine.mp(e) is not None for e in six_elements(ProjectionPairContext(p, q))]
                assert all(flags) or not any(flags), (p, q, flags)
                checked += 1
        for field in (PrimeField(2), PrimeField(3)):
            ring = MatrixRing(field, 2)
            engine = MatrixInverseEngine(ring)
            projections = all_projections_matrix(2, field)
            for p in projections:
                for q in projections:
                    flags = [engine.mp(e) is not None for e in six_elements(ProjectionPairContext(p, q))]
                    assert all(flags) or not any(flags), (p, q, flags)
                    checked += 1
        assert checked >= 144 + 16 + 36


def test_c03_explicit_formula_round_trip():
    with criterion(3, "explicit inverse formula and corner extraction round-trip", 60.0):
        for ring, count in ((MatrixRing(QQ, 4), Q_TRIALS), (MatrixRing(QI, 3), QI_TRIALS)):
            engine = MatrixInverseEngine(ring)
            for _, p, q in (trial_pair(ring, 0, t) for t in range(count)):
                ctx = ProjectionPairContext(p, q)
                one_minus_pq = ctx.one - ctx.p * ctx.q
                p_minus_pqp = ctx.p - ctx.a
                dag_corner = engine.mp(p_minus_pqp)
                assert dag_corner is not None
                x = eq215_formula(ctx, dag_corner)
                assert verify_mp(one_minus_pq, x).all
                dag_shifted = engine.mp(one_minus_pq)
                assert dag_shifted is not None
                y = pxp_extraction(ctx, dag_shifted)
                assert verify_mp(p_minus_pqp, y).all
                assert dag_corner == dag_shifted * ctx.p


def test_c04_difference_formula(q_setup, qi_setup):
    with criterion(4, "difference formula is the exact MP inverse of p - q"):
        for engine, ctx in both_trial_sets(q_setup, qi_setup):
            w = diff_mp_formula(ctx, engine)
            assert w is not None
            diff = ctx.p - ctx.q
            assert verify_mp(diff, w).all
            assert w == engine.mp(diff)


def test_c05_difference_dagger_projection(q_setup, qi_setup):
    with criterion(5, "(p(1-q))^dag = (p-q)^dag p on every trial"):
        for engine, ctx in both_trial_sets(q_setup, qi_setup):
            dag_diff = engine.mp(ctx.p - ctx.q)
            assert dag_diff is not None
            assert engine.mp(ctx.p * ctx.q_bar) == dag_diff * ctx.p


def test_c06_chain_equalities(q_setup, qi_setup):
    with criterion(6, "all chain expressions pairwise equal on applicable trials"):
        applied = 0
        for engine, ctx in both_trial_sets(q_setup, qi_setup):
            verdict = cor29_chains(ctx, engine)
            assert verdict.applicable
            assert verdict.passed, verdict.failing_checks()
            statuses = {c.name: c.status for c in verdict.checks}
            assert statuses["chain1_all_equal"] == "pass"
            assert statuses["chain2_all_equal"] == "pass"
            applied += 1
        assert applied == Q_TRIALS + QI_TRIALS


def test_c07_commutator_anticommutator(q_setup, qi_setup):
    with criterion(7, "commutator and anticommutator characterizations"):
        for engine, ctx in both_trial_sets(q_setup, qi_setup):
            v213 = thm213_check(ctx, engine)
            assert v213.passed, v213.failing_checks()
            v214 = thm214_check(ctx, engine)
            assert v214.passed, v214.failing_checks()

        # The reducing hypothesis holds for 2x2 matrices over GF(3), so
        # the full biconditionals can also be swept exhaustively there.
        gf3ring = MatrixRing(PrimeField(3), 2)
        assert gf3ring.is_star_reducing
        gf3engine = MatrixInverseEngine(gf3ring)
        gf3projections = all_projections_matrix(2, gf3ring.field)
        for p in gf3projections:
            for q in gf3projections:
                ctx = ProjectionPairContext(p, q)
                assert thm213_check(ctx, gf3engine).passed
                assert thm214_check(ctx, gf3engine).passed

        # The product formula and the square-dagger identity do not
        # need the reducing hypothesis: exercise them exhaustively on
        # the finite instances.
        finite = []
        algebra = example26_algebra()
        finite.append((ExhaustiveEngine(algebra), enumerate_projections(algebra)))
        gf2ring = MatrixRing(PrimeField(2), 2)
        finite.append((MatrixInverseEngine(gf2ring), all_projections_matrix(2, gf2ring.field)))
        formula_cases = square_cases = 0
        for engine, projections in finite:
            for p in projections:
                for q in projections:
                    ctx = ProjectionPairContext(p, q)
                    sum_dag = engine.mp(ctx.p + ctx.q)
                    shift_dag = engine.mp(ctx.p + ctx.q - ctx.one)
                    if sum_dag is not None and shift_dag is not None:
                        anti = ctx.p * ctx.q + ctx.q * ctx.p
                        assert verify_mp(anti, sum_dag * shift_dag).all
                        formula_cases += 1
                    diff = ctx.p - ctx.q
                    diff_dag = engine.mp(diff)
                    if diff_dag is not None:
                        assert engine.mp(diff * diff) == diff_dag * diff_dag
                        square_cases += 1
        assert formula_cases > 0 and square_cases > 0


def test_c08_quadratic_identities_everywhere(q_setup, qi_setup):
    with criterion(8, "quadratic identities hold for every pair in every instance"):
        count = 0
        for _, ctx in both_trial_sets(q_setup, qi_setup):
            assert lemma22_identities(ctx).passed
            count += 1
        algebra = example26_algebra()
        projections = enumerate_projections(algebra)
        for p in projections:
            for q in projections:
                assert lemma22_identities(ProjectionPairContext(p, q)).passed
                count += 1
        for field in (PrimeField(2), PrimeField(3)):
            projections = all_projections_matrix(2, field)
            for p in projections:
                for q in projections:
                    assert lemma22_identities(ProjectionPairContext(p, q)).passed
                    count += 1
        assert count >= Q_TRIALS + QI_TRIALS + 144 + 16 + 36


def test_c09_solver_vs_oracle():
    with criterion(9, "solvers agree with exhaustive search and verify their output"):
        field = PrimeField(2)
        matrices = [ExactMatrix(field, 2, 2, [(m >> k) & 1 for k in range(4)]) for m in range(16)]
        for a in matrices:
            witnesses = [b for b in matrices if verify_mp(a, b).all]
            got = mp_inverse(a)
            assert (got is None) == (not witnesses)
            if witnesses:
                assert got == witnesses[0]
        rng = SplitMix64(2024)
        for _ in range(200):
            a = ExactMatrix(QQ, 4, 4, [F(rng.int_between(-3, 3)) for _ in range(16)])
            witness, index = drazin_inverse(a)
            assert verify_drazin(a, witness, index).valid


def test_c10_desk_scale_worked_example():
    with criterion(10, "canonical 2x2 pair reproduces the worked values"):
        p = ExactMatrix.from_rows(QQ, [[F(1), F(0)], [F(0), F(0)]])
        q = ExactMatrix.from_rows(QQ, [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        ctx = ProjectionPairContext(p, q)

        def adjugate_inverse(m):
            a, b = m.entry(0, 0), m.entry(0, 1)
            c, d = m.entry(1, 0), m.entry(1, 1)
            det = a * d - b * c
            assert det != 0
            return ExactMatrix.from_rows(
                QQ, [[d / det, -b / det], [-c / det, a / det]]
            )

        one_minus_pq = ctx.one - p * q
        direct1 = adjugate_inverse(one_minus_pq)
        assert direct1 == ExactMatrix.from_rows(QQ, [[F(2), F(1)], [F(0), F(1)]])
        assert mp_inverse(one_minus_pq) == direct1

        diff = p - q
        direct2 = adjugate_inverse(diff)
        assert direct2 == ExactMatrix.from_rows(QQ, [[F(1), F(-1)], [F(-1), F(-1)]])
        assert mp_inverse(diff) == direct2

        corner = p - ctx.a  # diag(1/2, 0), singular: invert its support
        assert corner.entry(0, 1) == corner.entry(1, 0) == corner.entry(1, 1) == F(0)
        support_inverse = ExactMatrix.from_rows(
            QQ, [[1 / corner.entry(0, 0), F(0)], [F(0), F(0)]]
        )
        assert verify_mp(corner, support_inverse).all
        assert support_inverse == ExactMatrix.from_rows(QQ, [[F(2), F(0)], [F(0), F(0)]])
        assert mp_inverse(corner) == support_inverse
