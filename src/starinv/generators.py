"""Deterministic projection-pair generation for verification campaigns.

The stream generator is SplitMix64, chosen because it is a small,
well-known 64-bit mixing generator whose per-trial streams can be
derived independently from (campaign seed, trial index); replaying a
recorded trial never depends on how many trials ran before it.
Bounded integer draws use rejection, so no modulo bias.  ``sweepable``
is the one rule for when a matrix ring is swept instead of sampled.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .matrices import ExactMatrix, MatrixRing, inverse
from .ring import is_projection
from .scalars import Field, PrimeField, TooLargeError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

EXHAUSTIVE_CELL_CAP = 1 << 20

GRAM_TRIES = 100  # singular Gram matrices random_projection redraws


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
        """Uniform integer in [0, bound) by rejection, for 0 < bound <= 2**64.

        One 64-bit draw cannot cover a larger bound (every draw would be
        rejected), so that raises ValueError instead of spinning.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > 1 << 64:
            raise ValueError(f"bound {bound} exceeds 2**64")
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
    trial index selects the pair directly.  Failure records carry it, so
    its fields, in declaration order, are part of the report format.
    """

    ring: str
    n: int
    rank_p: int | None
    rank_q: int | None
    seed: int
    trial: int


def random_matrix(field: Field, rows: int, cols: int, rng: SplitMix64) -> ExactMatrix:
    return ExactMatrix(field, rows, cols, [field.sample(rng) for _ in range(rows * cols)])


def random_projection(ring: MatrixRing, rank: int, rng: SplitMix64) -> ExactMatrix:
    """A ring.n x ring.n projection of the requested rank: e = v (v* v)^-1 v*.

    Samples an n x rank matrix v until its Gram matrix is invertible;
    then e is self-adjoint, idempotent, and of rank exactly ``rank``.
    Rank 0 and rank n short-circuit to the zero and identity matrices.

    Raises:
        GenerationFailedError: after GRAM_TRIES singular Grams, which
            can happen over small prime fields.
    """
    n = ring.n
    if not 0 <= rank <= n:
        raise ValueError("rank out of range")
    if rank == 0:
        return ring.zero()
    if rank == n:
        return ring.one()
    for _ in range(GRAM_TRIES):
        v = random_matrix(ring.field, n, rank, rng)
        gram = inverse(v.star() * v)
        if gram is None:
            continue
        return v * gram * v.star()
    raise GenerationFailedError(
        f"no invertible Gram matrix in {GRAM_TRIES} tries (ring {ring.ring_id}, rank {rank})"
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
    p = random_projection(ring, rank_p, rng)
    q = random_projection(ring, rank_q, rng)
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


def sweepable(field: Field, n: int) -> bool:
    """Whether |F|^(n^2) <= EXHAUSTIVE_CELL_CAP; never for an infinite F.

    The exponent is clamped: with |F| >= 2 a count past the cap stays
    past it, so a huge n answers at once.
    """
    size = field.size
    if size is None:
        return False
    return size ** min(n * n, EXHAUSTIVE_CELL_CAP.bit_length()) <= EXHAUSTIVE_CELL_CAP


def all_matrices(n: int, field: Field):
    """Every n x n matrix over a finite field, in row-major order of the
    entries.  Past ``sweepable`` it raises TooLargeError before any is built."""
    if not sweepable(field, n):
        count = f"{field.size}^{n * n} matrices"
        raise TooLargeError(f"{count} exceed the {EXHAUSTIVE_CELL_CAP} enumeration cap")
    return (ExactMatrix(field, n, n, e) for e in itertools.product(field.elements(), repeat=n * n))


def subspace_count(n: int, size: int, cap: int) -> int:
    """How many subspaces F^n has for |F| = size, or a count past cap.

    The count is the sum of the Gaussian binomials [n, k] over k = 0..n,
    built row by row with [m, k] = [m-1, k-1] + size^k [m-1, k].  The
    row sums grow with m, so the first row whose sum passes cap is
    returned at once; a huge n costs a few rows, not n.
    """
    row = [1]
    for _ in range(n):
        row = [1] + [row[k - 1] + size**k * row[k] for k in range(1, len(row))] + [1]
        if sum(row) > cap:
            break
    return sum(row)


def all_projections_matrix(n: int, field: Field) -> list[ExactMatrix]:
    """Every projection among the n x n matrices over a finite field.

    A projection is fixed by its range U, which must be nondegenerate
    (U meets its orthogonal complement only in 0); then P = V (V*V)^-1 V*
    for any basis V of U.  Each subspace has exactly one reduced row
    echelon basis G, so walking every RREF k x n matrix (every pivot
    set, every value of the free entries) and keeping those whose Gram
    matrix G G* is invertible yields each projection once.  Every
    result is replayed through ``is_projection``, and the list is
    sorted by entries: row-major lexicographic order of the residues,
    the order of a scan over all matrices.

    Raises:
        ValueError: for n < 1.
        TooLargeError: for infinite fields or when the subspaces to
            walk exceed the cap.
    """
    if n < 1:
        raise ValueError("matrix size must be positive")
    size = field.size
    if size is None:
        raise TooLargeError(f"cannot enumerate projections over infinite field {field.label}")
    if subspace_count(n, size, EXHAUSTIVE_CELL_CAP) > EXHAUSTIVE_CELL_CAP:
        raise TooLargeError(
            f"({field.label})^{n} has more than {EXHAUSTIVE_CELL_CAP} subspaces,"
            " past the enumeration cap"
        )
    zero, one = field.zero(), field.one()
    found = [ExactMatrix.zeros(field, n, n)]
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [
                i * n + j
                for i, c in enumerate(pivots)
                for j in range(c + 1, n)
                if j not in pivots
            ]
            basis = [zero] * (k * n)
            for i, c in enumerate(pivots):
                basis[i * n + c] = one
            for combo in itertools.product(field.elements(), repeat=len(free)):
                for pos, value in zip(free, combo):
                    basis[pos] = value
                g = ExactMatrix(field, k, n, basis)
                g_star = g.star()
                gram = inverse(g * g_star)
                if gram is not None:
                    found.append(g_star * gram * g)
    for e in found:
        if not is_projection(e):
            raise AssertionError(f"enumerated a non-projection {e!r}")
    found.sort(key=lambda e: e.entries)
    return found


def orthogonal_generators(n: int, field: PrimeField) -> list[ExactMatrix]:
    """A few orthogonal n x n matrices (u u* = 1) over GF(p); O_n(p) is not built.

    Each is u = I + c v v* for one vector v per line of GF(p)^n (first
    nonzero entry 1).  Over GF(2), v has even weight (v.v = 0) and c = 1,
    so u u* = I + (2 + v.v) v v* = I.  Over odd p, v is anisotropic
    (v.v != 0) and c = -2 / v.v: the reflection in v.  The matrices
    generate a subgroup of O_n(p); a subgroup is enough for orbit
    reduction, since it only makes the orbits finer.
    """
    p = field.p
    found = []
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            v = (0,) * lead + (1,) + tail
            norm = sum(x * x for x in v) % p
            if (norm == 0) != (p == 2):  # keep v.v = 0 over GF(2), v.v != 0 over odd p
                continue
            c = 1 if p == 2 else -2 * pow(norm, -1, p) % p
            entries = [
                (int(i == j) + c * a * b) % p for i, a in enumerate(v) for j, b in enumerate(v)
            ]
            found.append(ExactMatrix(field, n, n, entries))
    return found


def pair_orbits(projections: list[ExactMatrix], generators: list[ExactMatrix]) -> list[int]:
    """Orbit representatives of the ordered pairs of ``projections``.

    Pair (projections[i], projections[j]) has index i * m + j, the order
    of a sweep over m projections.  Two pairs share an orbit when one is
    carried to the other by simultaneous conjugation x -> u x u* with u
    in the group the generators generate.  Entry k of the result is the
    smallest pair index in pair k's orbit.

    Each generator is replayed through u u* == 1 before use, and every
    conjugate u e u* must be in the list (a *-automorphism maps
    projections to projections); either failure raises AssertionError.
    """
    m = len(projections)
    position = {e.entries: i for i, e in enumerate(projections)}
    parent = list(range(m * m))

    def root(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for u in generators:
        u_star = u.star()
        if u * u_star != u.one_like():
            raise AssertionError(f"generator {u!r} is not orthogonal")
        image = []
        for e in projections:
            index = position.get((u * e * u_star).entries)
            if index is None:
                raise AssertionError(f"conjugate of {e!r} by {u!r} is not an enumerated projection")
            image.append(index)
        for i, ui in enumerate(image):
            for j, uj in enumerate(image):
                a, b = root(i * m + j), root(ui * m + uj)
                if a != b:  # the smaller root stays, so each root is its orbit's minimum
                    parent[max(a, b)] = min(a, b)
    return [root(k) for k in range(m * m)]
