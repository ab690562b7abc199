"""Orbit-reduced GF(p) sweeps against the per-pair oracle.

A sweep runs the batteries once per orbit of ordered projection pairs
under simultaneous conjugation x -> u x u* by orthogonal u.  The
per-pair sweep is the same code with no generators (the trivial
group), and serves as the oracle here.  The full orthogonal group is
built by scanning every matrix, independently of the generators.
"""
import itertools
import json
import random

import pytest

from starinv import campaign
from starinv.campaign import CampaignConfig, run_campaign
from starinv.generators import all_projections_matrix, orthogonal_generators, pair_orbits
from starinv.matrices import ExactMatrix, MatrixInverseEngine, MatrixRing, rank
from starinv.ring import CachingEngine, ProjectionPairContext
from starinv.scalars import PrimeField
from starinv.theorems import BATTERIES, FAIL, THEOREM_IDS, TheoremVerdict

SWEEPS = [(2, 3), (3, 2), (3, 3), (5, 2)]


def full_orthogonal_group(n: int, p: int) -> list[ExactMatrix]:
    """Every u with u u^T = I, found by scanning all p^(n*n) matrices."""
    field = PrimeField(p)
    group = []
    for entries in itertools.product(range(p), repeat=n * n):
        rows = [entries[i * n:(i + 1) * n] for i in range(n)]
        if all(
            sum(a * b for a, b in zip(rows[i], rows[j])) % p == (i == j)
            for i in range(n)
            for j in range(i, n)
        ):
            group.append(ExactMatrix(field, n, n, entries))
    return group


def conjugate(u: ExactMatrix, x: ExactMatrix) -> ExactMatrix:
    return u * x * u.star()


def without_duration(report) -> dict:
    payload = json.loads(report.to_json())
    del payload["duration_seconds"]
    return payload


@pytest.mark.parametrize("p, n", SWEEPS, ids=[f"gf:{p}-n{n}" for p, n in SWEEPS])
def test_orbit_sweep_equals_per_pair_oracle(monkeypatch, p, n):
    config = CampaignConfig(ring=f"gf:{p}", n=n)
    calls = []
    original = campaign.run_battery

    def counted(theorem, *args):
        calls.append(theorem)
        return original(theorem, *args)

    monkeypatch.setattr(campaign, "run_battery", counted)
    reduced = without_duration(run_campaign(config))
    reduced_calls = len(calls)
    monkeypatch.setattr(campaign, "orthogonal_generators", lambda n, field: [])
    calls.clear()
    oracle = without_duration(run_campaign(config))

    assert reduced == oracle
    pairs = len(all_projections_matrix(n, PrimeField(p))) ** 2
    assert len(calls) == pairs * len(THEOREM_IDS)
    assert reduced_calls < len(calls)
    assert reduced_calls % len(THEOREM_IDS) == 0


def test_failing_orbit_members_carry_their_own_pair(monkeypatch):
    # No battery fails on these sweeps, so plant a failure that depends
    # only on the orbit: lemma22 "fails" whenever rank p = 1.
    field = PrimeField(3)
    config = CampaignConfig(ring="gf:3", n=3, theorems=("lemma22", "thm24"))
    original = campaign.run_battery

    def planted(theorem, ctx, engine):
        verdict = original(theorem, ctx, engine)
        if theorem == "lemma22" and rank(ctx.p) == 1:
            return TheoremVerdict(theorem, True, False, {"planted": FAIL})
        return verdict

    monkeypatch.setattr(campaign, "run_battery", planted)
    reduced = run_campaign(config)
    monkeypatch.setattr(campaign, "orthogonal_generators", lambda n, field: [])
    oracle = run_campaign(config)
    assert without_duration(reduced) == without_duration(oracle)

    projections = all_projections_matrix(3, field)
    m = len(projections)
    serialize = campaign.ring_instance(config.ring, 3).serialize
    failures = reduced.failures()
    assert len(failures) == m * sum(rank(e) == 1 for e in projections) > 0
    for record in failures:
        assert record.failing_checks == ("planted",)
        assert record.spec.trial == record.trial
        assert record.p == serialize(projections[record.trial // m])
        assert record.q == serialize(projections[record.trial % m])
    assert reduced.exit_code == 1


@pytest.mark.parametrize(
    "p, n, expected",
    [(2, 3, 40), (2, 4, 94), (3, 2, 18), (3, 3, 56), (5, 2, 18), (7, 2, 22)],
)
def test_orbit_counts_match_the_full_group(p, n, expected):
    field = PrimeField(p)
    projections = all_projections_matrix(n, field)
    orbits = set(pair_orbits(projections, orthogonal_generators(n, field)))
    # Burnside: a group element fixes a pair iff it fixes both projections.
    group = full_orthogonal_group(n, p)
    fixed = [sum(conjugate(u, e) == e for e in projections) for u in group]
    full_count, remainder = divmod(sum(f * f for f in fixed), len(group))
    assert remainder == 0
    assert len(orbits) == full_count == expected


def test_representative_is_the_first_pair_of_its_orbit():
    field = PrimeField(3)
    projections = all_projections_matrix(3, field)
    orbits = pair_orbits(projections, orthogonal_generators(3, field))
    m = len(projections)
    position = {e: i for i, e in enumerate(projections)}
    images = [
        [position[conjugate(u, e)] for e in projections] for u in full_orthogonal_group(3, 3)
    ]
    for index, representative in enumerate(orbits):
        i, j = divmod(index, m)
        assert representative == min(image[i] * m + image[j] for image in images)


def test_trivial_group_leaves_every_pair_alone():
    projections = all_projections_matrix(2, PrimeField(5))
    assert pair_orbits(projections, []) == list(range(len(projections) ** 2))


@pytest.mark.parametrize("p, n", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (31, 2)])
def test_generators_are_orthogonal(p, n):
    field = PrimeField(p)
    generators = orthogonal_generators(n, field)
    assert generators
    identity = ExactMatrix.identity(field, n)
    for u in generators:
        assert u * u.star() == identity
        assert u != identity


@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_batteries_are_invariant_under_a_random_conjugation(p, n):
    field = PrimeField(p)
    engine = CachingEngine(MatrixInverseEngine(MatrixRing(field, n)))
    projections = all_projections_matrix(n, field)
    group = full_orthogonal_group(n, p)
    rng = random.Random(p * 100 + n)
    pairs = list(itertools.product(projections, repeat=2))
    for p_, q_ in rng.sample(pairs, min(len(pairs), 60)):
        u = rng.choice(group)
        original = ProjectionPairContext(p_, q_)
        moved = ProjectionPairContext(conjugate(u, p_), conjugate(u, q_))
        # ungated, so the *-reducing batteries run on every ring
        for theorem in THEOREM_IDS:
            a = BATTERIES[theorem].fn(original, engine)
            b = BATTERIES[theorem].fn(moved, engine)
            assert (a.applicable, a.passed, a.failing_checks(), a.observations) == (
                b.applicable, b.passed, b.failing_checks(), b.observations
            ), (theorem, p_, q_, u)


def test_non_orthogonal_generator_is_rejected(monkeypatch):
    field = PrimeField(3)
    u = orthogonal_generators(3, field)[0]
    mutated = ExactMatrix(field, 3, 3, ((u.entries[0] + 1) % 3,) + u.entries[1:])
    projections = all_projections_matrix(3, field)
    with pytest.raises(AssertionError, match="not orthogonal"):
        pair_orbits(projections, [mutated])
    monkeypatch.setattr(campaign, "orthogonal_generators", lambda n, f: [mutated])
    with pytest.raises(AssertionError, match="not orthogonal"):
        run_campaign(CampaignConfig(ring="gf:3", n=3, theorems=("lemma22",)))


def test_conjugate_missing_from_the_list_is_rejected():
    field = PrimeField(2)
    projections = all_projections_matrix(3, field)
    generators = orthogonal_generators(3, field)
    # Drop a projection that some generator moves: the generators are
    # involutions, so conjugating its image gives it back, and it is missing.
    dropped = next(e for e in projections if any(conjugate(u, e) != e for u in generators))
    with pytest.raises(AssertionError, match="not an enumerated projection"):
        pair_orbits([e for e in projections if e != dropped], generators)
