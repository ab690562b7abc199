"""Verification campaigns: run batteries over projection pairs, aggregate.

A campaign fixes a ring instance, a pair source (seeded random trials
for the infinite matrix rings, exhaustive enumeration for the finite
ones), and a list of battery ids.  Every trial is keyed by a TrialSpec
so any recorded failure can be replayed exactly.  Records come out by
trial index, and within a trial in the paper's order of battery ids.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import time
from dataclasses import dataclass, fields, replace

from ._version import __version__
from .algebra import ExhaustiveEngine, enumerate_projections, example26_algebra
from .generators import (
    EXHAUSTIVE_CELL_CAP,
    TrialSpec,
    all_projections_matrix,
    orthogonal_generators,
    pair_orbits,
    trial_pair,
)
from .matrices import MatrixInverseEngine, MatrixRing
from .ring import CachingEngine, ProjectionPairContext
from .scalars import field_named
from .theorems import THEOREM_IDS, run_battery

SCHEMA_VERSION = 1

STATUS_PASSED = "passed"
STATUS_FAILED = "failed"
STATUS_NOT_APPLICABLE = "not_applicable"


# Reports are written from these dataclasses' fields in declaration
# order (CampaignReport.to_json), so field order is part of the report
# format and a new field appears in every object of its kind.
@dataclass(frozen=True)
class CampaignConfig:
    ring: str
    n: int = 2
    trials: int = 100
    seed: int = 0
    theorems: tuple[str, ...] = THEOREM_IDS


@dataclass(frozen=True)
class TheoremCounts:
    checked: int = 0
    passed: int = 0
    failed: int = 0
    not_applicable: int = 0


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one battery on one trial.

    The replay data (spec and serialized pair) is attached to failures.
    """

    theorem: str
    trial: int
    status: str
    failing_checks: tuple[str, ...] = ()
    spec: TrialSpec | None = None
    p: str | None = None
    q: str | None = None


# The JSON values a field annotated as an integer accepts (annotations
# are strings here and in generators); bool is excluded, as JSON true
# and false are not integers.
_INTEGER_TYPES = {"int": (int,), "int | None": (int, type(None))}


@functools.cache
def _plan(cls, json_keys: tuple) -> tuple[dict, tuple]:
    """How to read ``cls`` from JSON, worked out once per class: its
    field name by JSON key, and the (field, accepted types) checks of
    the fields annotated as integers."""
    renamed = dict(json_keys)
    declared = fields(cls)
    names = {renamed.get(f.name, f.name): f.name for f in declared}
    integers = tuple((f.name, _INTEGER_TYPES[f.type]) for f in declared if f.type in _INTEGER_TYPES)
    return names, integers


def _rebuild(cls, data, json_keys: tuple = (), **convert):
    """A report dataclass from a JSON object holding exactly its fields,
    each under its name or the key ``json_keys`` pairs it with.  A field
    annotated ``int`` must hold a JSON integer.  ``convert`` maps a
    field to the function that turns its JSON value into the field's
    value; it runs only once the keys and integers have been checked."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} is not a JSON object")
    names, integers = _plan(cls, json_keys)
    if data.keys() != names.keys():
        unmatched = sorted(data.keys() ^ names.keys())
        raise ValueError(f"{cls.__name__} keys missing or unknown: {unmatched}")
    values = {names[key]: value for key, value in data.items()} if json_keys else dict(data)
    for name, allowed in integers:
        if type(values[name]) not in allowed:
            raise ValueError(f"{cls.__name__} {name} is not an integer: {values[name]!r:.40}")
    for name, fn in convert.items():
        values[name] = fn(values[name])
    return cls(**values)


def _json_array(data, of: type = object) -> tuple:
    """A JSON array whose elements are all instances of ``of``, as a tuple."""
    if not isinstance(data, list) or not all(isinstance(x, of) for x in data):
        raise ValueError(f"not a JSON array of {of.__name__}: {data!r:.40}")
    return tuple(data)


@dataclass
class CampaignReport:
    schema: int
    tool: str
    config: CampaignConfig
    counts: dict
    records: tuple[TrialRecord, ...]
    duration_seconds: float

    def failures(self) -> tuple[TrialRecord, ...]:
        return tuple(r for r in self.records if r.status == STATUS_FAILED)

    @property
    def exit_code(self) -> int:
        return 0 if all(c.failed == 0 for c in self.counts.values()) else 1

    def to_json(self) -> str:
        """The report as ``json.dumps(..., indent=2, default=vars)`` would
        write it with the records as ``vars(r)`` dicts, byte for byte.

        Every fragment comes from ``json.dumps`` itself.  A record
        without a spec is written from one shared encoding per distinct
        record minus its trial, split around the trial number; a record
        with a spec is dumped whole.  Records sit two levels deep, so
        their layout newlines gain four spaces (a newline inside a JSON
        string is escaped, so every raw one is layout).  The pieces are
        joined once.
        """
        head = json.dumps(
            {
                "schema": self.schema,
                "tool": self.tool,
                "config": self.config,
                "theorems": self.counts,
                "records": [],
                "duration_seconds": self.duration_seconds,
            },
            indent=2,
            default=vars,
        )
        before, _, after = head.rpartition('"records": []')
        pieces = [before, '"records": [']
        shared: dict[tuple, tuple[str, str]] = {}
        for r in self.records:
            if r.spec is None:
                key = (r.theorem, r.status, r.failing_checks, r.p, r.q)
                fragment = shared.get(key)
                if fragment is None:
                    text = json.dumps(vars(replace(r, trial=0)), indent=2)
                    start, _, end = text.replace("\n", "\n    ").partition('"trial": 0')
                    fragment = shared[key] = (start + '"trial": ', end)
                pieces += (",\n    ", fragment[0], str(r.trial), fragment[1])
            else:
                text = json.dumps(vars(r), indent=2, default=vars)
                pieces += (",\n    ", text.replace("\n", "\n    "))
        if self.records:
            pieces[2] = "\n    "  # no comma before the first record
            pieces.append("\n  ")
        pieces += ("]", after, "\n")
        return "".join(pieces)

    @classmethod
    def from_json(cls, text: str) -> "CampaignReport":
        def spec(data):
            return None if data is None else _rebuild(TrialSpec, data)

        def strings(data):
            return _json_array(data, str)

        def record(data):
            return _rebuild(TrialRecord, data, failing_checks=strings, spec=spec)

        def counts(data):
            if not isinstance(data, dict):
                raise ValueError(f"theorems is not a JSON object: {data!r:.40}")
            return {name: _rebuild(TheoremCounts, c) for name, c in data.items()}

        return _rebuild(
            cls, json.loads(text), (("counts", "theorems"),),
            config=lambda data: _rebuild(CampaignConfig, data, theorems=strings),
            counts=counts,
            records=lambda data: tuple(map(record, _json_array(data))),
        )

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["theorem", "trial", "status", "failing_checks"])
        for record in self.records:
            writer.writerow(
                [record.theorem, record.trial, record.status, ";".join(record.failing_checks)]
            )
        return out.getvalue()


def parse_ring_id(ring_id: str) -> str:
    """Validate a ring id, returning it unchanged.

    Accepted: q, qi, gf:<prime> (``scalars.field_named``), example26.
    """
    if ring_id != "example26":
        field_named(ring_id)
    return ring_id


def check_theorem_ids(theorems) -> None:
    """Raise ValueError unless every id is a known battery, listed once."""
    for theorem in theorems:
        if theorem not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {theorem!r}")
    duplicates = sorted({t for t in theorems if theorems.count(t) > 1})
    if duplicates:
        raise ValueError(f"duplicate theorem ids: {', '.join(duplicates)}")


def _sweep(config: CampaignConfig, n: int, projections, representatives=None):
    """Every ordered pair of projections, with its trial spec and the
    trial index of its orbit representative (its own index when no
    orbits are given)."""
    for index, (p, q) in enumerate(itertools.product(projections, repeat=2)):
        representative = index if representatives is None else representatives[index]
        yield TrialSpec(config.ring, n, None, None, config.seed, index), p, q, representative


def _pair_stream(config: CampaignConfig):
    """The engine, the (spec, p, q, representative) trials, and whether
    the pairs are a sweep.

    A sweep draws every pair from one fixed projection list, so derived
    elements recur across pairs; seeded random pairs share little.  A
    GF(p) matrix sweep also groups its pairs into orbits under
    simultaneous conjugation by orthogonal matrices, a *-automorphism:
    MP and Drazin inverses are unique, so every battery gives the same
    verdict on each pair of an orbit.  Example26 and random trials are
    their own representatives.
    """
    if config.ring == "example26":
        algebra = example26_algebra()
        pairs = _sweep(config, algebra.dim, enumerate_projections(algebra))
        return ExhaustiveEngine(algebra), pairs, True

    ring = MatrixRing(field_named(config.ring), config.n)
    engine = MatrixInverseEngine(ring)
    size = ring.field.size
    if size is not None and size ** (config.n * config.n) <= EXHAUSTIVE_CELL_CAP:
        projections = all_projections_matrix(config.n, ring.field)
        orbits = pair_orbits(projections, orthogonal_generators(config.n, ring.field))
        return engine, _sweep(config, config.n, projections, orbits), True
    trials = ((*trial_pair(ring, config.seed, t), t) for t in range(config.trials))
    return engine, trials, False


def _outcome(verdict) -> tuple[str, tuple[str, ...]]:
    """A verdict's record status and failing sub-checks."""
    if not verdict.applicable:
        return STATUS_NOT_APPLICABLE, ()
    if verdict.passed:
        return STATUS_PASSED, ()
    return STATUS_FAILED, verdict.failing_checks()


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run the configured batteries and aggregate a report.

    Exhaustive instances (example26, small prime-field rings) ignore the
    trial count and sweep every projection pair; the batteries run once
    per orbit, on its first pair, and every pair still gets its own
    records, failures carrying that pair's spec and serialization.
    Engine answers are memoized for the whole of a sweep and for one
    pair at a time otherwise, where a campaign-wide memo would only grow.
    """
    check_theorem_ids(config.theorems)
    started = time.monotonic()
    inner, pairs, sweep = _pair_stream(config)
    engine = CachingEngine(inner)
    records: list[TrialRecord] = []
    tallies = {theorem: [0, 0, 0] for theorem in config.theorems}  # passed, failed, na
    theorems = [theorem for theorem in THEOREM_IDS if theorem in tallies]  # record order
    column = {STATUS_PASSED: 0, STATUS_FAILED: 1, STATUS_NOT_APPLICABLE: 2}
    orbit_outcomes: dict[int, list] = {}
    for spec, p, q, representative in pairs:
        if representative == spec.trial:
            if not sweep:
                engine.clear()
            ctx = ProjectionPairContext(p, q)
            outcomes = [
                _outcome(run_battery(theorem, ctx, engine, engine.star_reducing))
                for theorem in theorems
            ]
            if sweep:
                orbit_outcomes[spec.trial] = outcomes
        else:
            outcomes = orbit_outcomes[representative]
        for theorem, (status, failing_checks) in zip(theorems, outcomes):
            tallies[theorem][column[status]] += 1
            if status == STATUS_FAILED:
                record = TrialRecord(
                    theorem,
                    spec.trial,
                    status,
                    failing_checks=failing_checks,
                    spec=spec,
                    p=engine.serialize(p),
                    q=engine.serialize(q),
                )
            else:
                record = TrialRecord(theorem, spec.trial, status)
            records.append(record)
    counts = {
        theorem: TheoremCounts(
            checked=sum(tally), passed=tally[0], failed=tally[1], not_applicable=tally[2]
        )
        for theorem, tally in tallies.items()
    }
    return CampaignReport(
        schema=SCHEMA_VERSION,
        tool=f"starinv {__version__}",
        config=config,
        counts=counts,
        records=tuple(records),
        duration_seconds=time.monotonic() - started,
    )
