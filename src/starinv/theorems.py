"""Identity checkers, formula constructors, and existence batteries.

Each battery takes a projection-pair context plus an inverse engine for
the concrete ring instance and returns a structured verdict (lemma21
and lemma212 check one element, registered on r = pq).  Existence
decisions always come from the engine, never from the statement being
checked, and every constructed formula is certified against the
defining equations before a verdict says it passed.

BATTERIES is the one table of battery ids, in paper order, and of each
battery's sub-check names.  ``run_battery`` dispatches through it and
applies the *-reducing gate of ``engine.star_reducing``: batteries only
claimed for *-reducing instances return an inapplicable verdict
elsewhere instead of guessing.  ``BATTERIES[id].fn`` runs ungated.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .ring import (
    InvalidWitnessError,
    InverseEngine,
    ProjectionPairContext,
    verify_mp,
)

PASS = "pass"
FAIL = "fail"
NA = "na"


@dataclass
class TheoremVerdict:
    """Outcome of one battery on one input.

    ``checks`` maps every declared sub-check name of the battery, in
    declared order, to "pass", "fail" or "na".  ``passed`` means
    applicable with no failing sub-check; sub-checks marked
    not-applicable never count against it.  ``observations`` are
    informational booleans recorded without being asserted.  A verdict
    does not carry its inputs: a campaign record serializes the failing
    pair itself, so a failing trial can be replayed.
    """

    theorem: str
    applicable: bool
    passed: bool
    checks: dict[str, str]
    observations: dict = field(default_factory=dict)

    def failing_checks(self) -> tuple[str, ...]:
        return tuple([name for name, status in self.checks.items() if status == FAIL])


def _stand_together(daggers: dict) -> bool:
    """Whether the members of a family of MP answers, None where there
    is no inverse, all have MP inverses or all lack them."""
    exists = [dagger is not None for dagger in daggers.values()]
    return all(exists) or not any(exists)


class _Verdict:
    """Records sub-check outcomes and builds the final TheoremVerdict,
    whose checks map ``BATTERIES[theorem].checks`` in order, the ones
    never reached to not applicable; by default it applies if any was
    reached."""

    def __init__(self, theorem: str):
        self.theorem = theorem
        self._status: dict[str, str] = {}
        self._observations: dict = {}

    def check(self, name: str, ok: bool) -> bool:
        self._status[name] = PASS if ok else FAIL
        return ok

    def observe(self, name: str, value):
        self._observations[name] = value

    def build(self, applicable: bool | None = None) -> TheoremVerdict:
        declared = BATTERIES[self.theorem].checks
        undeclared = self._status.keys() - declared
        if undeclared:
            raise AssertionError(
                f"{self.theorem} recorded undeclared sub-checks {sorted(undeclared)}")
        if applicable is None:
            applicable = bool(self._status)
        checks = dict.fromkeys(declared, NA)
        checks.update(self._status)
        return TheoremVerdict(
            theorem=self.theorem,
            applicable=applicable,
            passed=applicable and FAIL not in self._status.values(),
            checks=checks,
            observations=self._observations,
        )


def lemma21_checks(r, engine: InverseEngine) -> TheoremVerdict:
    """Dagger interplay of r with r*r and rr*.

    When r has an MP inverse: both Gram-like products do too, their
    daggers factor through r's, and r's dagger is recovered from either
    side.  On a *-reducing instance, MP invertibility of either product
    conversely recovers that of r.
    """
    v = _Verdict("lemma21")
    r_star = r.star()
    rsr = r_star * r
    rrs = r * r_star
    r_dag = engine.mp(r)
    if r_dag is not None:
        rsr_dag = engine.mp(rsr)
        rrs_dag = engine.mp(rrs)
        r_dag_star = r_dag.star()
        if v.check("star_product_mp_exists", rsr_dag is not None):
            v.check("star_product_dagger_factors", rsr_dag == r_dag * r_dag_star)
            v.check("dagger_from_star_product", r_dag == rsr_dag * r_star)
        if v.check("product_star_mp_exists", rrs_dag is not None):
            v.check("product_star_dagger_factors", rrs_dag == r_dag_star * r_dag)
            v.check("dagger_from_product_star", r_dag == r_star * rrs_dag)
        v.check("star_dagger_exchange", engine.mp(r_star) == r_dag_star)
    either_gram = engine.mp(rsr) is not None or engine.mp(rrs) is not None
    if engine.star_reducing:
        v.check("gram_membership_recovers_mp", (not either_gram) or r_dag is not None)
    else:
        v.observe("gram_invertible_without_r", either_gram and r_dag is None)
    return v.build(applicable=True)


def lemma22_identities(
    ctx: ProjectionPairContext, engine: InverseEngine | None = None
) -> TheoremVerdict:
    """Unconditional quadratic identities of the derived elements:
    bb* = (p-a)-(p-a)^2, b*b = d-d^2, db* = b*(p-a).

    No inverse is needed; the engine is accepted only so that every
    battery in BATTERIES is called the same way."""
    v = _Verdict("lemma22")
    p_minus_a = ctx.p - ctx.a
    b, b_star, d = ctx.b, ctx.b.star(), ctx.d
    v.check("bb_star_quadratic", b * b_star == p_minus_a - p_minus_a * p_minus_a)
    v.check("b_star_b_quadratic", b_star * b == d - d * d)
    v.check("d_b_star_exchange", d * b_star == b_star * p_minus_a)
    return v.build(applicable=True)


def lemma23_identities(ctx: ProjectionPairContext, engine: InverseEngine) -> TheoremVerdict:
    """Projection and exchange identities gated on MP existence of
    p(1-q) and (1-p)q, plus the certified difference formula."""
    v = _Verdict("lemma23")
    p_minus_a = ctx.p - ctx.a
    b, d = ctx.b, ctx.d
    pa_dag = engine.mp(p_minus_a) if engine.mp(ctx.p * ctx.q_bar) is not None else None
    d_dag = engine.mp(d) if engine.mp(ctx.p_bar * ctx.q) is not None else None
    if pa_dag is not None:
        v.check("range_projection_fixes_b", p_minus_a * pa_dag * b == b)
    if d_dag is not None:
        v.check("b_fixed_by_d_projection", b * d * d_dag == b)
    if pa_dag is not None and d_dag is not None:
        v.check("b_dagger_exchange", b * d_dag == pa_dag * b)
        v.check("dagger_b_star_exchange", d_dag * b.star() == b.star() * pa_dag)
        w = diff_mp_formula(ctx, engine)
        if v.check("difference_formula_constructible", w is not None):
            v.check("difference_formula_certified", verify_mp(ctx.p - ctx.q, w).all)
    return v.build()


def diff_mp_formula(ctx: ProjectionPairContext, engine: InverseEngine):
    """Candidate MP inverse of p - q, namely
    (1-q) (p(1-q)p)^dag - q ((1-p)q(1-p))^dag.

    Requires p(1-q) and (1-p)q to be MP invertible (engine-decided);
    returns None when the preconditions fail.
    """
    if engine.mp(ctx.p * ctx.q_bar) is None or engine.mp(ctx.p_bar * ctx.q) is None:
        return None
    pa_dag = engine.mp(ctx.p - ctx.a)
    d_dag = engine.mp(ctx.d)
    if pa_dag is None or d_dag is None:
        return None
    return ctx.q_bar * pa_dag - ctx.q * d_dag


def eq215_formula(ctx: ProjectionPairContext, dag_p_minus_a):
    """Assemble the explicit MP inverse of 1 - pq from (p - pqp)^dag:
    [1 + b*(p-a)] (p-a)^dag (1+b) - b* - b*b + 1 - p.

    The supplied dagger is verified before use.
    """
    p_minus_a = ctx.p - ctx.a
    if not verify_mp(p_minus_a, dag_p_minus_a).all:
        raise InvalidWitnessError("dag_p_minus_a is not the MP inverse of p - pqp")
    one, b = ctx.one, ctx.b
    b_star = b.star()
    return (
        (one + b_star * p_minus_a) * dag_p_minus_a * (one + b)
        - b_star
        - b_star * b
        + one
        - ctx.p
    )


def pxp_extraction(ctx: ProjectionPairContext, dag_one_minus_pq):
    """Extract (p - pqp)^dag as the p-corner of (1 - pq)^dag.

    The supplied dagger is verified before use.
    """
    one_minus_pq = ctx.one - ctx.p * ctx.q
    if not verify_mp(one_minus_pq, dag_one_minus_pq).all:
        raise InvalidWitnessError("dag_one_minus_pq is not the MP inverse of 1 - pq")
    return ctx.p * dag_one_minus_pq * ctx.p


def anticommutator_mp_formula(ctx: ProjectionPairContext, engine: InverseEngine):
    """Candidate MP inverse of pq + qp, namely (p+q)^dag (p+q-1)^dag.

    Returns None unless both factors are MP invertible (engine-decided).
    """
    sum_dag = engine.mp(ctx.p + ctx.q)
    shift_dag = engine.mp(ctx.p + ctx.q - ctx.one)
    if sum_dag is None or shift_dag is None:
        return None
    return sum_dag * shift_dag


def thm24_battery(ctx: ProjectionPairContext, engine: InverseEngine) -> TheoremVerdict:
    """Six derived elements stand or fall together, in any instance.

    The elements are 1-pq, 1-pqp, p-pqp and their (q,p) counterparts.
    When they exist, the daggers convert into each other: the p-corner
    of (1-pqp)^dag gives (p-pqp)^dag, adding 1-p goes back, and the
    explicit formula and corner extraction round-trip through 1-pq.
    """
    p = ctx.p
    elements = _pair_elements(ctx)
    daggers = {name: engine.mp(elements[name]) for name in _THM24_NAMES}
    v = _Verdict("thm24")
    if v.check("existence_flags_agree", _stand_together(daggers)) and daggers["1-pq"] is not None:
        dag_1pqp = daggers["1-pqp"]
        dag_ppqp = daggers["p-pqp"]
        dag_1pq = daggers["1-pq"]
        v.check("corner_of_shifted_dagger", dag_ppqp == p * dag_1pqp)
        v.check("dagger_shift_identity", dag_1pqp == dag_ppqp + ctx.one - p)
        x = eq215_formula(ctx, dag_ppqp)
        v.check("explicit_formula_certified", verify_mp(elements["1-pq"], x).all)
        v.check("explicit_formula_unique", x == dag_1pq)
        y = pxp_extraction(ctx, dag_1pq)
        v.check("corner_extraction_certified", verify_mp(elements["p-pqp"], y).all)
        v.check("corner_extraction_unique", y == dag_ppqp)
    return v.build(applicable=True)


_THM24_NAMES = ("1-pq", "1-pqp", "p-pqp", "1-qp", "1-qpq", "q-qpq")


def _pair_elements(ctx: ProjectionPairContext) -> dict:
    """The ten elements of cor25; thm24 uses the six in _THM24_NAMES."""
    p, q, one = ctx.p, ctx.q, ctx.one
    pq, qp = p * q, q * p
    return {
        "1-pq": one - pq,
        "1-pqp": one - pq * p,
        "p-pqp": p - pq * p,
        "p-pq": p - pq,
        "p-qp": p - qp,
        "1-qp": one - qp,
        "1-qpq": one - qp * q,
        "q-qpq": q - qp * q,
        "q-qp": q - qp,
        "q-pq": q - pq,
    }


def cor25_battery(ctx: ProjectionPairContext, engine: InverseEngine) -> TheoremVerdict:
    """Ten equivalent existence conditions on a *-reducing instance,
    with (p-pqp)^dag = (1-pq)^dag p when they hold."""
    daggers = {name: engine.mp(x) for name, x in _pair_elements(ctx).items()}
    v = _Verdict("cor25")
    if v.check("existence_flags_agree", _stand_together(daggers)) and daggers["1-pq"] is not None:
        v.check("dagger_projection_formula", daggers["p-pqp"] == daggers["1-pq"] * ctx.p)
    return v.build(applicable=True)


def cor26_battery(ctx: ProjectionPairContext, engine: InverseEngine) -> TheoremVerdict:
    """The complementary-pair version of the ten conditions.

    Realized twice: by direct evaluation of the listed elements and by
    substituting (1-p, 1-q) into the cor25 machinery; the two routes
    must agree element by element and flag by flag.
    """
    p, q = ctx.p, ctx.q
    p_bar, q_bar = ctx.p_bar, ctx.q_bar
    pq, qp = p * q, q * p
    # Listed in the order matching _pair_elements under (p,q) -> (1-p, 1-q).
    direct = {
        "p+q-pq": p + q - pq,
        "p+(1-p)q(1-p)": p + p_bar * q * p_bar,
        "(1-p)q(1-p)": p_bar * q * p_bar,
        "q-pq": q - pq,
        "q-qp": q - qp,
        "p+q-qp": p + q - qp,
        "q+(1-q)p(1-q)": q + q_bar * p * q_bar,
        "(1-q)p(1-q)": q_bar * p * q_bar,
        "p-qp": p - qp,
        "p-pq": p - pq,
    }
    sub = _pair_elements(ctx.complemented())
    v = _Verdict("cor26")
    v.check("substitution_route_matches_elements",
            all(d == s for d, s in zip(direct.values(), sub.values())))
    daggers = {name: engine.mp(x) for name, x in direct.items()}
    sub_daggers = {name: engine.mp(x) for name, x in sub.items()}
    v.check("substitution_route_matches_flags",
            [d is None for d in daggers.values()] == [d is None for d in sub_daggers.values()])
    v.check("existence_flags_agree", _stand_together(daggers))
    return v.build(applicable=True)


def thm27_check(ctx: ProjectionPairContext, engine: InverseEngine) -> TheoremVerdict:
    """p(1-q) and (1-p)q are both MP invertible exactly when p - q is;
    and then (p(1-q))^dag = (p-q)^dag p.  Valid in any instance."""
    v = _Verdict("thm27")
    pq_bar = ctx.p * ctx.q_bar
    pbar_q = ctx.p_bar * ctx.q
    diff = ctx.p - ctx.q
    dag_pq_bar = engine.mp(pq_bar)
    dag_pbar_q = engine.mp(pbar_q)
    dag_diff = engine.mp(diff)
    v.check("biconditional",
            ((dag_pq_bar is not None) and (dag_pbar_q is not None)) == (dag_diff is not None))
    if dag_diff is not None and dag_pq_bar is not None:
        v.check("difference_dagger_projection_formula", dag_pq_bar == dag_diff * ctx.p)
    return v.build(applicable=True)


def cor28_battery(ctx: ProjectionPairContext, engine: InverseEngine) -> TheoremVerdict:
    """On *-reducing instances, p(1-q), p-q and (1-p)q stand together."""
    daggers = {
        "p(1-q)": engine.mp(ctx.p * ctx.q_bar),
        "p-q": engine.mp(ctx.p - ctx.q),
        "(1-p)q": engine.mp(ctx.p_bar * ctx.q),
    }
    v = _Verdict("cor28")
    v.check("existence_flags_agree", _stand_together(daggers))
    return v.build(applicable=True)


def _all_equal(values: list) -> bool:
    return all(value == values[0] for value in values[1:])


def cor29_chains(ctx: ProjectionPairContext, engine: InverseEngine) -> TheoremVerdict:
    """Six expressions collapse to p (p-q)^dag p, and eight to the
    complementary form, once any of the equivalent conditions holds."""
    v = _Verdict("cor29")
    if engine.mp(ctx.p * ctx.q_bar) is None:
        return v.build(applicable=False)
    p, q, one = ctx.p, ctx.q, ctx.one
    p_bar, q_bar = ctx.p_bar, ctx.q_bar

    pq_bar_p = p * q_bar * p
    needed1 = {
        "1-pq": one - p * q,
        "pq_bar_p": pq_bar_p,
        "1-qp": one - q * p,
        "pq_bar": p * q_bar,
        "q_bar_p": q_bar * p,
        "p-q": p - q,
    }
    dags1 = {name: engine.mp(elem) for name, elem in needed1.items()}
    if v.check("chain1_daggers_exist", all(d is not None for d in dags1.values())):
        chain1 = [
            dags1["1-pq"] * pq_bar_p,
            p * q_bar * dags1["pq_bar_p"],
            pq_bar_p * dags1["1-qp"],
            p * dags1["pq_bar"],
            dags1["q_bar_p"] * p,
            p * dags1["p-q"] * p,
        ]
        v.check("chain1_all_equal", _all_equal(chain1))

    pbar_q_pbar = p_bar * q * p_bar
    needed2 = {
        "p+(1-p)q": p + p_bar * q,
        "q+p(1-q)": q + p * q_bar,
        "pbar_q_pbar": pbar_q_pbar,
        "p+q(1-p)": p + q * p_bar,
        "q+(1-q)p": q + q_bar * p,
        "pbar_q": p_bar * q,
        "q_pbar": q * p_bar,
        "q-p": q - p,
    }
    dags2 = {name: engine.mp(elem) for name, elem in needed2.items()}
    if v.check("chain2_daggers_exist", all(d is not None for d in dags2.values())):
        chain2 = [
            dags2["p+(1-p)q"] * pbar_q_pbar,
            dags2["q+p(1-q)"] * pbar_q_pbar,
            p_bar * q * dags2["pbar_q_pbar"],
            pbar_q_pbar * dags2["p+q(1-p)"],
            pbar_q_pbar * dags2["q+(1-q)p"],
            p_bar * dags2["pbar_q"],
            dags2["q_pbar"] * p_bar,
            p_bar * dags2["q-p"] * p_bar,
        ]
        v.check("chain2_all_equal", _all_equal(chain2))
    return v.build(applicable=True)


def lemma210_battery(ctx: ProjectionPairContext, engine: InverseEngine) -> TheoremVerdict:
    """On *-reducing instances, (1-p)(1-q), 1-p-q and pq stand together."""
    daggers = {
        "(1-p)(1-q)": engine.mp(ctx.p_bar * ctx.q_bar),
        "1-p-q": engine.mp(ctx.one - ctx.p - ctx.q),
        "pq": engine.mp(ctx.p * ctx.q),
    }
    v = _Verdict("lemma210")
    v.check("existence_flags_agree", _stand_together(daggers))
    return v.build(applicable=True)


def lemma211_check(ctx: ProjectionPairContext, engine: InverseEngine) -> TheoremVerdict:
    """b - b* is Drazin invertible exactly when bb* is; the index of
    bb* is then bounded by max(1, index of (b-b*)^2).

    The unguarded bound fails at the boundary where (b-b*)^2 is
    invertible while bb* has index 1, so its truth value is recorded as
    an observation without being asserted.
    """
    v = _Verdict("lemma211")
    b = ctx.b
    skew = b - b.star()
    gram = b * b.star()
    skew_result = engine.drazin(skew)
    gram_result = engine.drazin(gram)
    v.check("drazin_biconditional", (skew_result is not None) == (gram_result is not None))
    if skew_result is not None and gram_result is not None:
        square_result = engine.drazin(skew * skew)
        if v.check("skew_square_drazin_exists", square_result is not None):
            gram_index = gram_result[1]
            square_index = square_result[1]
            v.check("guarded_index_bound", gram_index <= max(1, square_index))
            v.observe("literal_index_bound", gram_index <= square_index)
    return v.build(applicable=True)


def lemma212_check(r, engine: InverseEngine) -> TheoremVerdict:
    """Drazin invertibility passes from r + r^2 (or r - r^2) down to r,
    without increasing the index."""
    v = _Verdict("lemma212")
    r_sq = r * r
    r_result = engine.drazin(r)
    for label, shifted in (("sum", r + r_sq), ("difference", r - r_sq)):
        shifted_result = engine.drazin(shifted)
        if shifted_result is None:
            continue
        if v.check(f"{label}_route_membership", r_result is not None):
            v.check(f"{label}_route_index_bound", r_result[1] <= shifted_result[1])
    return v.build()


def thm213_check(ctx: ProjectionPairContext, engine: InverseEngine) -> TheoremVerdict:
    """The commutator pq - qp is MP invertible exactly when pq and
    p - q both are (on *-reducing instances).  No closed form for the
    commutator's dagger is constructed; existence on both sides comes
    from the engine."""
    v = _Verdict("thm213")
    pq, qp = ctx.p * ctx.q, ctx.q * ctx.p
    commutator_dag = engine.mp(pq - qp)
    pq_dag = engine.mp(pq)
    diff_dag = engine.mp(ctx.p - ctx.q)
    v.check("biconditional",
            (commutator_dag is not None) == (pq_dag is not None and diff_dag is not None))
    if diff_dag is not None:
        diff = ctx.p - ctx.q
        v.check("square_dagger_identity", engine.mp(diff * diff) == diff_dag * diff_dag)
    return v.build(applicable=True)


def thm214_check(ctx: ProjectionPairContext, engine: InverseEngine) -> TheoremVerdict:
    """The anti-commutator pq + qp is MP invertible exactly when p + q
    and pq both are (on *-reducing instances); its dagger is then the
    certified product (p+q)^dag (p+q-1)^dag."""
    v = _Verdict("thm214")
    p, q = ctx.p, ctx.q
    anti = p * q + q * p
    anti_dag = engine.mp(anti)
    sum_dag = engine.mp(p + q)
    pq_dag = engine.mp(p * q)
    v.check("biconditional",
            (anti_dag is not None) == (sum_dag is not None and pq_dag is not None))
    if sum_dag is not None and pq_dag is not None:
        # (p+q)^dag exists here, so the formula is None just when (p+q-1)^dag is
        w = anticommutator_mp_formula(ctx, engine)
        if v.check("shifted_sum_mp_exists", w is not None):
            v.check("anticommutator_formula_certified", verify_mp(anti, w).all)
            v.check("anticommutator_formula_unique", w == anti_dag)
    return v.build(applicable=True)


class Battery(NamedTuple):
    fn: Callable[[ProjectionPairContext, InverseEngine], TheoremVerdict]
    needs_star_reducing: bool
    checks: tuple[str, ...]  # every sub-check name, in verdict order


def _on_pq(check: Callable) -> Callable:
    """The pair battery that runs an element-level check on r = pq."""
    return lambda ctx, engine: check(ctx.p * ctx.q, engine)


# The paper's checks, in paper order; README's check-id table holds the
# same ids and *-reducing flags, and a test keeps the two in step.
BATTERIES = {
    "lemma21": Battery(_on_pq(lemma21_checks), False, (
        "star_product_mp_exists", "star_product_dagger_factors", "dagger_from_star_product",
        "product_star_mp_exists", "product_star_dagger_factors", "dagger_from_product_star",
        "star_dagger_exchange", "gram_membership_recovers_mp")),
    "lemma22": Battery(lemma22_identities, False, (
        "bb_star_quadratic", "b_star_b_quadratic", "d_b_star_exchange")),
    "lemma23": Battery(lemma23_identities, False, (
        "range_projection_fixes_b", "b_fixed_by_d_projection", "b_dagger_exchange",
        "dagger_b_star_exchange", "difference_formula_constructible",
        "difference_formula_certified")),
    "thm24": Battery(thm24_battery, False, (
        "existence_flags_agree", "corner_of_shifted_dagger", "dagger_shift_identity",
        "explicit_formula_certified", "explicit_formula_unique",
        "corner_extraction_certified", "corner_extraction_unique")),
    "cor25": Battery(cor25_battery, True, (
        "existence_flags_agree", "dagger_projection_formula")),
    "cor26": Battery(cor26_battery, True, (
        "substitution_route_matches_elements", "substitution_route_matches_flags",
        "existence_flags_agree")),
    "thm27": Battery(thm27_check, False, (
        "biconditional", "difference_dagger_projection_formula")),
    "cor28": Battery(cor28_battery, True, ("existence_flags_agree",)),
    "cor29": Battery(cor29_chains, True, (
        "chain1_daggers_exist", "chain1_all_equal", "chain2_daggers_exist",
        "chain2_all_equal")),
    "lemma210": Battery(lemma210_battery, True, ("existence_flags_agree",)),
    "lemma211": Battery(lemma211_check, False, (
        "drazin_biconditional", "skew_square_drazin_exists", "guarded_index_bound")),
    "lemma212": Battery(_on_pq(lemma212_check), False, (
        "sum_route_membership", "sum_route_index_bound",
        "difference_route_membership", "difference_route_index_bound")),
    "thm213": Battery(thm213_check, True, (
        "biconditional", "square_dagger_identity")),
    "thm214": Battery(thm214_check, True, (
        "biconditional", "shifted_sum_mp_exists", "anticommutator_formula_certified",
        "anticommutator_formula_unique")),
}

THEOREM_IDS = tuple(BATTERIES)


def run_battery(theorem: str, ctx: ProjectionPairContext, engine: InverseEngine) -> TheoremVerdict:
    """Run one battery id on one pair.

    Batteries that need a *-reducing instance are not applicable when
    ``engine.star_reducing`` is false, the flag lemma21 reads too.
    """
    if theorem not in BATTERIES:
        raise ValueError(f"unknown theorem id {theorem!r}")
    battery = BATTERIES[theorem]
    if battery.needs_star_reducing and not engine.star_reducing:
        return _Verdict(theorem).build(applicable=False)
    return battery.fn(ctx, engine)
