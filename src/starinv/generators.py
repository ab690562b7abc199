"""Deterministic projection-pair generation for verification campaigns.

The stream generator is SplitMix64, chosen because it is a small,
well-known 64-bit mixing generator whose per-trial streams can be
derived independently from (campaign seed, trial index); replaying a
recorded trial never depends on how many trials ran before it.
Bounded integer draws use rejection, so no modulo bias.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrices import ExactMatrix, MatrixRing, inverse
from .ring import is_projection
from .scalars import (
    Field,
    GaussianRational,
    GaussianRationalField,
    PrimeField,
    RationalField,
    TooLargeError,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

EXHAUSTIVE_CELL_CAP = 1 << 20

# Random rational and Gaussian-rational entries are small integers so
# the Gram inversions keep intermediate fractions desk-sized.
ENTRY_LO = -3
ENTRY_HI = 3


class GenerationFailedError(RuntimeError):
    """Projection sampling exhausted its retry budget."""


def mix64(value: int) -> int:
    """The SplitMix64 output mixing function."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream: state advances by the golden-gamma constant."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return mix64(self.state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def int_between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)


def trial_stream_seed(seed: int, trial: int) -> int:
    """Seed for trial's private stream; independent across trial indices."""
    return mix64((seed & _MASK64) ^ mix64((trial + 1) * _GOLDEN))


@dataclass(frozen=True)
class TrialSpec:
    """Everything needed to regenerate one trial's projection pair.

    For exhaustively enumerated instances the ranks are None and the
    trial index selects the pair directly.
    """

    ring: str
    n: int
    rank_p: int | None
    rank_q: int | None
    seed: int
    trial: int

    def to_dict(self) -> dict:
        return {
            "ring": self.ring,
            "n": self.n,
            "rank_p": self.rank_p,
            "rank_q": self.rank_q,
            "seed": self.seed,
            "trial": self.trial,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrialSpec":
        return cls(
            ring=data["ring"],
            n=data["n"],
            rank_p=data["rank_p"],
            rank_q=data["rank_q"],
            seed=data["seed"],
            trial=data["trial"],
        )


def sample_entry(field: Field, rng: SplitMix64):
    if isinstance(field, RationalField):
        return Fraction(rng.int_between(ENTRY_LO, ENTRY_HI))
    if isinstance(field, GaussianRationalField):
        return GaussianRational(
            Fraction(rng.int_between(ENTRY_LO, ENTRY_HI)),
            Fraction(rng.int_between(ENTRY_LO, ENTRY_HI)),
        )
    if isinstance(field, PrimeField):
        return rng.below(field.p)
    raise TypeError("unknown field")


def random_matrix(field: Field, rows: int, cols: int, rng: SplitMix64) -> ExactMatrix:
    return ExactMatrix(field, rows, cols, [sample_entry(field, rng) for _ in range(rows * cols)])


def random_projection(
    ring: MatrixRing, n: int, rank: int, rng: SplitMix64, max_tries: int = 100
) -> ExactMatrix:
    """A projection of the requested rank: e = v (v* v)^-1 v*.

    Samples an n x rank matrix v until its Gram matrix is invertible;
    then e is self-adjoint, idempotent, and of rank exactly ``rank``.
    Rank 0 and rank n short-circuit to the zero and identity matrices.

    Raises:
        GenerationFailedError: after max_tries singular Grams, which
            can happen over small prime fields.
    """
    if not 0 <= rank <= n:
        raise ValueError("rank out of range")
    if rank == 0:
        return ExactMatrix.zeros(ring.field, n, n)
    if rank == n:
        return ExactMatrix.identity(ring.field, n)
    for _ in range(max_tries):
        v = random_matrix(ring.field, n, rank, rng)
        gram = inverse(v.star() * v)
        if gram is None:
            continue
        return v * gram * v.star()
    raise GenerationFailedError(
        f"no invertible Gram matrix in {max_tries} tries (ring {ring.ring_id}, rank {rank})"
    )


def trial_pair(ring: MatrixRing, seed: int, trial: int) -> tuple[TrialSpec, ExactMatrix, ExactMatrix]:
    """Generate trial's pair; ranks are drawn first from the same stream.

    The returned TrialSpec fully determines the pair: replaying it with
    pair_from_spec yields bitwise-identical matrices.
    """
    rng = SplitMix64(trial_stream_seed(seed, trial))
    n = ring.n
    rank_p = rng.int_between(0, n)
    rank_q = rng.int_between(0, n)
    p = random_projection(ring, n, rank_p, rng)
    q = random_projection(ring, n, rank_q, rng)
    spec = TrialSpec(ring.ring_id, n, rank_p, rank_q, seed, trial)
    return spec, p, q


def pair_from_spec(ring: MatrixRing, spec: TrialSpec) -> tuple[ExactMatrix, ExactMatrix]:
    """Replay a recorded random trial exactly."""
    if spec.ring != ring.ring_id or spec.n != ring.n:
        raise ValueError("spec does not match ring")
    replay, p, q = trial_pair(ring, spec.seed, spec.trial)
    if (replay.rank_p, replay.rank_q) != (spec.rank_p, spec.rank_q):
        raise ValueError("spec ranks do not match the deterministic stream")
    return p, q


def all_projections_matrix(n: int, field: Field) -> list[ExactMatrix]:
    """Every projection among the n x n matrices over a finite field.

    Enumerates all |field|^(n^2) matrices in row-major lexicographic
    order of their entries and keeps the self-adjoint idempotents.

    Raises:
        TooLargeError: for infinite fields or when the enumeration
            would exceed the cap.
    """
    size = field.size
    if size is None:
        raise TooLargeError(f"cannot enumerate projections over infinite field {field.label}")
    if size ** (n * n) > EXHAUSTIVE_CELL_CAP:
        raise TooLargeError(
            f"{size}^{n * n} matrices exceed the {EXHAUSTIVE_CELL_CAP} enumeration cap"
        )
    values = list(field.elements())
    total = n * n
    found = []
    counters = [0] * total
    while True:
        mat = ExactMatrix(field, n, n, [values[c] for c in counters])
        if is_projection(mat):
            found.append(mat)
        pos = total - 1
        while pos >= 0:
            counters[pos] += 1
            if counters[pos] < len(values):
                break
            counters[pos] = 0
            pos -= 1
        if pos < 0:
            return found
