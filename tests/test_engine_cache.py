"""The memoizing engine wrapper and the scope campaigns give it.

Cached answers are checked against fresh calls of the wrapped engine;
miss counts are checked against distinct elements asked, for the whole
of a sweep and for each pair of a seeded random campaign.
"""
from starinv import campaign, matrices
from starinv.campaign import CampaignConfig, run_campaign
from starinv.matrices import MatrixInverseEngine, MatrixRing
from starinv.ring import CachingEngine, InverseEngine, ProjectionPairContext
from starinv.scalars import PrimeField

GF2 = PrimeField(2)


def run_logged(monkeypatch, config):
    """Run a campaign; return its caching engine and every answer it gave,
    as (pair index, kind, element, answer)."""
    engines, log = [], []
    pair = [-1]

    def new_pair(p, q):
        pair[0] += 1
        return ProjectionPairContext(p, q)

    class LoggingEngine(CachingEngine):
        def __init__(self, engine):
            super().__init__(engine)
            engines.append(self)

        def mp(self, x):
            answer = super().mp(x)
            log.append((pair[0], "mp", x, answer))
            return answer

        def drazin(self, x):
            answer = super().drazin(x)
            log.append((pair[0], "drazin", x, answer))
            return answer

    monkeypatch.setattr(campaign, "CachingEngine", LoggingEngine)
    monkeypatch.setattr(campaign, "ProjectionPairContext", new_pair)
    run_campaign(config)
    [engine] = engines
    return engine, log


def assert_answers_fresh(engine, log):
    fresh = {}
    for _, kind, x, answer in log:
        if (kind, x) not in fresh:
            fresh[kind, x] = getattr(engine.engine, kind)(x)
        assert answer == fresh[kind, x], (kind, x)
    for kind in ("mp", "drazin"):
        assert engine.hits[kind] + engine.misses[kind] == sum(1 for e in log if e[1] == kind)


def distinct(log, kind):
    return {x for _, k, x, _ in log if k == kind}


def test_caching_engine_is_an_inverse_engine():
    engine = CachingEngine(MatrixInverseEngine(MatrixRing(GF2, 2)))
    assert isinstance(engine, InverseEngine)
    assert engine.ring_id == "gf:2"
    assert not engine.star_reducing


def test_sweep_memo_spans_the_campaign(monkeypatch):
    engine, log = run_logged(monkeypatch, CampaignConfig(ring="gf:2", n=3))
    assert_answers_fresh(engine, log)
    assert any(answer is None for _, kind, _, answer in log if kind == "mp")
    assert any(answer[1] > 1 for _, kind, _, answer in log if kind == "drazin")
    for kind in ("mp", "drazin"):
        assert engine.misses[kind] == len(distinct(log, kind))
        assert engine.hits[kind] > engine.misses[kind]


def test_random_campaign_memo_is_cleared_per_pair(monkeypatch):
    config = CampaignConfig(ring="q", n=3, trials=4, seed=7)
    engine, log = run_logged(monkeypatch, config)
    assert_answers_fresh(engine, log)
    for kind in ("mp", "drazin"):
        per_pair = [{x for i, k, x, _ in log if k == kind and i == t} for t in range(4)]
        assert engine.misses[kind] == sum(len(elements) for elements in per_pair)
    # Some elements recur across pairs, so a campaign-wide memo would miss less.
    assert engine.misses["mp"] > len(distinct(log, "mp"))


def test_missing_inverse_is_served_from_the_memo():
    ring = MatrixRing(GF2, 2)
    solves = []

    class CountingEngine(MatrixInverseEngine):
        def mp(self, x):
            solves.append(x)
            return super().mp(x)

    engine = CachingEngine(CountingEngine(ring))
    gram_killer = ring.element([[1, 1], [1, 1]])  # A* A = 0, so no MP inverse
    assert engine.mp(gram_killer) is None
    assert engine.mp(gram_killer) is None
    assert solves == [gram_killer]
    assert engine.hits["mp"] == 1 and engine.misses["mp"] == 1


def test_star_reducing_is_decided_once_per_campaign(monkeypatch):
    calls = []
    original = matrices.isotropic_vector

    def counted(p, n):
        calls.append((p, n))
        return original(p, n)

    monkeypatch.setattr(matrices, "isotropic_vector", counted)
    config = CampaignConfig(ring="gf:1048573", n=2, trials=3, theorems=("lemma21",))
    report = run_campaign(config)
    assert report.counts["lemma21"].checked == 3
    assert calls == [(1048573, 2)]
