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
from typing import Callable, Iterable

from ._version import __version__
from .algebra import ExhaustiveEngine, enumerate_projections, example26_algebra
from .generators import (
    TrialSpec,
    all_matrices,
    all_projections_matrix,
    orthogonal_generators,
    pair_orbits,
    sweepable,
    trial_pair,
)
from .matrices import MatrixInverseEngine, MatrixRing, format_matrix, format_matrix_inline
from .ring import CachingEngine, InverseEngine, ProjectionPairContext
from .scalars import field_named
from .theorems import THEOREM_IDS, run_battery

SCHEMA_VERSION = 1

# Exact elimination over Q(i) grows fast with n: 3 qi trials took up to
# 1.6 s at n = 12 and 15.8 s at n = 16 (Python 3.11, 2-core Xeon VM).
MATRIX_SIZE_CAP = 12

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


def check_theorem_ids(theorems) -> None:
    """Raise ValueError unless every id is a known battery, listed once."""
    for theorem in theorems:
        if theorem not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {theorem!r}")
    duplicates = sorted({t for t in theorems if theorems.count(t) > 1})
    if duplicates:
        raise ValueError(f"duplicate theorem ids: {', '.join(duplicates)}")


def check_size(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MATRIX_SIZE_CAP."""
    if n < 1:
        raise ValueError(f"matrix size {n} must be positive")
    if n > MATRIX_SIZE_CAP:
        raise ValueError(f"matrix size {n} is too large: the cap is {MATRIX_SIZE_CAP}")


# The ring-id forms ring_instance reads, each with whether its ring is finite.
RING_FORMS = {"q": False, "qi": False, "gf:<p>": True, "example26": True}


@dataclass(frozen=True)
class RingInstance:
    """What the commands need of one ring.  Lists are built only when
    called, through the module's names as bound at that time."""

    engine: InverseEngine
    n: int  # a trial spec's n: the matrix size, or the algebra's dimension
    projections: Callable[[], list]  # every projection, in sweep order
    generators: Callable[[], list]  # orbit generators of a sweep
    sample: Callable[[int, int], tuple] | None  # (seed, trial) -> (spec, p, q); None: swept
    elements: Callable[[], Iterable] | None  # every element; None for an infinite ring
    format: Callable[[object], str]  # one line per element
    serialize: Callable[[object], str]  # an element as a failure record writes it


def ring_instance(ring_id: str, n: int = 2) -> RingInstance:
    """The ring an id of ``RING_FORMS`` names (ValueError for any other id);
    n sizes a matrix ring, swept when ``generators.sweepable`` allows it."""
    if ring_id == "example26":
        algebra = example26_algebra()
        return RingInstance(
            ExhaustiveEngine(algebra), algebra.dim, lambda: enumerate_projections(algebra),
            generators=lambda: [], sample=None, elements=algebra.elements,
            format=algebra.format_element, serialize=algebra.format_element,
        )
    field = field_named(ring_id)
    ring = MatrixRing(field, n)
    return RingInstance(
        MatrixInverseEngine(ring), n, lambda: all_projections_matrix(n, field),
        generators=lambda: orthogonal_generators(n, field),
        sample=None if sweepable(field, n) else lambda seed, t: trial_pair(ring, seed, t),
        elements=None if field.size is None else lambda: all_matrices(n, field),
        format=format_matrix_inline, serialize=format_matrix,
    )


def _pairs(config: CampaignConfig, instance: RingInstance):
    """The (spec, p, q, representative) trials: seeded random pairs, or
    every ordered pair of projections, with its orbit's first pair."""
    if instance.sample is not None:
        return ((*instance.sample(config.seed, t), t) for t in range(config.trials))
    projections, generators = instance.projections(), instance.generators()
    orbits = pair_orbits(projections, generators) if generators else range(len(projections) ** 2)
    return (
        (TrialSpec(config.ring, instance.n, None, None, config.seed, k), p, q, orbits[k])
        for k, (p, q) in enumerate(itertools.product(projections, repeat=2))
    )


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
    per orbit of orthogonal conjugation (a *-automorphism, so verdicts
    agree on an orbit), on its first pair, and every pair still gets its
    own records, failures carrying that pair's spec and serialization.
    Engine answers are memoized for the whole of a sweep and for one
    pair at a time otherwise, where a campaign-wide memo would only grow.
    """
    check_size(config.n)
    check_theorem_ids(config.theorems)
    started = time.monotonic()
    instance = ring_instance(config.ring, config.n)
    engine = CachingEngine(instance.engine)
    records: list[TrialRecord] = []
    tallies = {theorem: [0, 0, 0] for theorem in config.theorems}  # passed, failed, na
    theorems = [theorem for theorem in THEOREM_IDS if theorem in tallies]  # record order
    column = {STATUS_PASSED: 0, STATUS_FAILED: 1, STATUS_NOT_APPLICABLE: 2}
    orbit_outcomes: dict[int, list] = {}
    for spec, p, q, representative in _pairs(config, instance):
        if representative == spec.trial:
            if instance.sample is not None:
                engine.clear()
            ctx = ProjectionPairContext(p, q)
            outcomes = orbit_outcomes[spec.trial] = [
                _outcome(run_battery(theorem, ctx, engine)) for theorem in theorems
            ]
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
                    p=instance.serialize(p),
                    q=instance.serialize(q),
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
