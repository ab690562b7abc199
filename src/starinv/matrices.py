"""Dense exact matrices over the scalar fields, with inverse engines.

Square matrices of a fixed size over one field form a ring with
involution; the involution is the entrywise-conjugate transpose, which
degenerates to the plain transpose over the rationals and prime fields.
Solvers are constructive and field-generic: MP inverses come from a
full-rank factorization A = FG and one inversion of the r x r core
F* A G*, which is invertible exactly when A has an MP inverse, and
Drazin inverses (group inverses at index at most 1) from Cline's
formula on the same factorization, so no complex-field shortcut is
ever assumed.
Existence failures are reported as None, not exceptions; over a prime
field "no MP inverse" is ordinary data.  Nothing here branches on the
type of a field: entries go through ``starinv.kernels``, and a field's
names and size are data on the field (``starinv.scalars``).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

from .kernels import canonical, kernel
from .scalars import Field, field_named


class ZeroMatrixError(ValueError):
    """Raised where a nonzero matrix is required (rank factorization)."""


class MatrixParseError(ValueError):
    """Malformed matrix text; carries 1-based line and entry position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", entry {column}"
            where += ": "
        super().__init__(where + message)


class ExactMatrix:
    """Immutable dense matrix with entries in one exact field.

    The constructor takes ``entries`` in row-major order and runs each
    through ``field.coerce``, so it refuses floats (TypeError) and
    out-of-range GF(p) residues (ValueError).  Entries are stored packed
    (``starinv.kernels``): integers ``num`` over one positive ``den``
    with gcd(*num, den) == 1, so equality and hashing compare the packed
    form.  ``entries`` builds the field's scalars on first use and
    keeps them.
    """

    __slots__ = ("field", "rows", "cols", "num", "den", "_entries")

    def __new__(cls, field: Field, rows: int, cols: int, entries: Sequence):
        _check_shape(rows, cols)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        pack, coerce = kernel(field).pack, field.coerce
        return _packed(field, rows, cols, *pack(field, [coerce(e) for e in entries]))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Iterable]) -> "ExactMatrix":
        """Build a matrix from nested rows of entries."""
        data = [list(r) for r in rows]
        if not data:
            raise ValueError("no rows")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        return cls(field, len(data), width, [e for r in data for e in r])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "ExactMatrix":
        _check_shape(rows, cols)
        return _packed(field, rows, cols, (0,) * (rows * cols * kernel(field).parts), 1)

    @classmethod
    def identity(cls, field: Field, n: int) -> "ExactMatrix":
        _check_shape(n, n)
        num = [0] * (n * n * kernel(field).parts)
        num[: n * n : n + 1] = [1] * n
        return _packed(field, n, n, tuple(num), 1)

    @property
    def entries(self) -> tuple:
        """Row-major field scalars (the residues themselves over GF(p))."""
        try:
            return self._entries
        except AttributeError:
            f = self.field
            entries = kernel(f).unpack(f, self.num, self.den)
            _set_entries(self, entries)
            return entries

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def _same_shape(self, other: "ExactMatrix"):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("field mismatch")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        f = self.field
        packed = kernel(f).add(f, self.num, self.den, other.num, other.den)
        return _packed(f, self.rows, self.cols, *packed)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        f = self.field
        packed = kernel(f).sub(f, self.num, self.den, other.num, other.den)
        return _packed(f, self.rows, self.cols, *packed)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix.zeros(self.field, self.rows, self.cols) - self

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        f = self.field
        if f is not other.field and f != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        packed = kernel(f).multiply(
            f, self.num, self.den, self.cols, other.num, other.den, other.cols
        )
        return _packed(f, self.rows, other.cols, *packed)

    def star(self) -> "ExactMatrix":
        """Entrywise-conjugate transpose."""
        f = self.field
        num = kernel(f).star(f, self.num, self.rows, self.cols)
        return _packed(f, self.cols, self.rows, num, self.den)

    def one_like(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("unit requires a square matrix")
        return ExactMatrix.identity(self.field, self.rows)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.num == other.num
            and self.den == other.den
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.num, self.den))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.field.label}: {format_matrix_inline(self)})"


def _check_shape(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")


_new = object.__new__
_set_field, _set_rows, _set_cols, _set_num, _set_den, _set_entries = (
    vars(ExactMatrix)[name].__set__ for name in ExactMatrix.__slots__
)


def _packed(field: Field, rows: int, cols: int, num: tuple, den: int) -> ExactMatrix:
    """A matrix from a canonical packed form, unchecked."""
    m = _new(ExactMatrix)
    _set_field(m, field)
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_num(m, num)
    _set_den(m, den)
    return m


def _blocks(a: ExactMatrix) -> range:
    """Offsets of a's integer blocks in a.num (two over Q(i), else one)."""
    size = a.rows * a.cols
    return range(0, len(a.num), size)


def _pick(a: ExactMatrix, rows: int, cols: int, indices: list[int]) -> ExactMatrix:
    """The rows x cols matrix of a's entries at the given row-major indices."""
    src = a.num
    num = [src[off + k] for off in _blocks(a) for k in indices]
    return _packed(a.field, rows, cols, *canonical(num, a.den))


def _hstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """[a b]; canonical as it stands, since a and b are."""
    if a.rows != b.rows:
        raise ValueError("row mismatch")
    an, bn, den = a.num, b.num, a.den
    if b.den != den:
        den = lcm(a.den, b.den)
        an = [x * (den // a.den) for x in an]
        bn = [x * (den // b.den) for x in bn]
    m, ac, bc = a.rows, a.cols, b.cols
    num: list[int] = []
    for oa, ob in zip(_blocks(a), _blocks(b)):
        for i in range(m):
            num += an[oa + i * ac : oa + (i + 1) * ac]
            num += bn[ob + i * bc : ob + (i + 1) * bc]
    return _packed(a.field, m, ac + bc, tuple(num), den)


def _submatrix(a: ExactMatrix, rows: range, cols: range) -> ExactMatrix:
    return _pick(a, len(rows), len(cols), [i * a.cols + j for i in rows for j in cols])


def _columns(a: ExactMatrix, indices: Sequence[int]) -> ExactMatrix:
    return _pick(a, a.rows, len(indices), [i * a.cols + j for i in range(a.rows) for j in indices])


def rref(matrix: ExactMatrix) -> tuple[ExactMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form by Gauss-Jordan elimination.

    Over Q and Q(i) the elimination runs on integer rows; the RREF is
    unique, so the result is the same as elimination in Fractions.

    Returns:
        (R, rank, pivots) where R has unit pivots with zeroed pivot
        columns and pivots lists the pivot column indices in order.
    """
    f, m, n = matrix.field, matrix.rows, matrix.cols
    num, den, r, pivots = kernel(f).rref(f, matrix.num, m, n)
    return _packed(f, m, n, num, den), r, tuple(pivots)


def rank(matrix: ExactMatrix) -> int:
    return rref(matrix)[1]


def inverse(matrix: ExactMatrix) -> ExactMatrix | None:
    """Two-sided inverse of a square matrix, or None if singular."""
    if matrix.rows != matrix.cols:
        raise ValueError("inverse requires a square matrix")
    n = matrix.rows
    aug = _hstack(matrix, ExactMatrix.identity(matrix.field, n))
    reduced, _, pivots = rref(aug)
    if pivots[-1] >= n:  # [A | I] has rank n, so a pivot past A means A is singular
        return None
    return _submatrix(reduced, range(n), range(n, 2 * n))


def full_rank_factorization(matrix: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Split a nonzero matrix as A = F G: F its pivot columns (full column
    rank) and G the nonzero rows of its rref (full row rank).  The rank
    is ``F.cols``.

    Raises:
        ZeroMatrixError: for the zero matrix, which has no such split;
            callers treat its MP inverse as zero directly.
    """
    if matrix.is_zero():
        raise ZeroMatrixError("zero matrix has no full-rank factorization")
    reduced, r, pivots = rref(matrix)
    return _columns(matrix, pivots), _submatrix(reduced, range(r), range(matrix.cols))


def mp_inverse(matrix: ExactMatrix) -> ExactMatrix | None:
    """Moore-Penrose inverse over the matrix's field, or None.

    Uses A = FG and MacDuffee's formula B = G* (F* A G*)^-1 F*
    (Ben-Israel and Greville, Generalized Inverses, 2003, ch. 1).  The
    r x r core F* A G* = (F* F)(G G*) is invertible exactly when both
    Gram matrices are, which is when B exists.  Over the rationals and
    Gaussian rationals it always is; over a prime field a singular core
    means the matrix has no MP inverse at all, which is meaningful data
    for the equivalence batteries.
    """
    if matrix.is_zero():
        return ExactMatrix.zeros(matrix.field, matrix.cols, matrix.rows)
    f, g = full_rank_factorization(matrix)
    f_star, g_star = f.star(), g.star()
    core = inverse(f_star * matrix * g_star)
    if core is None:
        return None
    return g_star * core * f_star


def group_inverse(matrix: ExactMatrix) -> ExactMatrix | None:
    """Group inverse: the Drazin inverse when the index is at most 1,
    else None."""
    witness, k = drazin_inverse(matrix)
    return witness if k <= 1 else None


def drazin_inverse(matrix: ExactMatrix) -> tuple[ExactMatrix, int]:
    """Drazin inverse and index, by Cline's formula.

    With A = FG, (FG)^D = F ((GF)^D)^2 G (R. E. Cline, 1965).  Since
    A^(k+1) = F (GF)^k G, a singular A has index one more than GF; an
    invertible A has index 0, and the zero matrix index 1.  Valid over
    any field, every square matrix has one.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("Drazin inverse requires a square matrix")
    return _drazin(matrix)


def _drazin(matrix: ExactMatrix) -> tuple[ExactMatrix, int]:
    if matrix.is_zero():
        return matrix, 1
    f, g = full_rank_factorization(matrix)
    if f.cols == matrix.rows:
        # inverse() eliminates A again; one [A | I] elimination per level
        # measured slower, as the singular levels then pay its extra width
        return inverse(matrix), 0
    core, k = _drazin(g * f)
    return f * core * core * g, k + 1


@dataclass(frozen=True)
class MatrixRing:
    """The *-ring of n x n matrices over one exact field."""

    field: Field
    n: int

    def zero(self) -> ExactMatrix:
        return ExactMatrix.zeros(self.field, self.n, self.n)

    def one(self) -> ExactMatrix:
        return ExactMatrix.identity(self.field, self.n)

    def element(self, rows: Iterable[Iterable]) -> ExactMatrix:
        mat = ExactMatrix.from_rows(self.field, rows)
        if mat.rows != self.n or mat.cols != self.n:
            raise ValueError(f"expected a {self.n}x{self.n} matrix")
        return mat

    @property
    def ring_id(self) -> str:
        return self.field.ring_id

    def non_star_reducing_witness(self) -> ExactMatrix | None:
        """A nonzero matrix with A* A = 0, when the ring admits one: one
        column holding a nonzero isotropic vector (``Field.isotropic_vector``)."""
        vec = self.field.isotropic_vector(self.n)
        if vec is None:
            return None
        z = self.field.zero()
        rows = [[vec[i] if j == 0 else z for j in range(self.n)] for i in range(self.n)]
        return self.element(rows)


class MatrixInverseEngine:
    """Constructive inverse engine for one MatrixRing."""

    def __init__(self, ring: MatrixRing):
        self.ring = ring

    @property
    def star_reducing(self) -> bool:
        return self.ring.non_star_reducing_witness() is None

    def mp(self, x: ExactMatrix) -> ExactMatrix | None:
        return mp_inverse(x)

    def drazin(self, x: ExactMatrix) -> tuple[ExactMatrix, int]:
        return drazin_inverse(x)


def format_matrix(matrix: ExactMatrix) -> str:
    """Render a matrix in the text exchange format."""
    f = matrix.field
    lines = [f"ring {f.label}", f"rows {matrix.rows}", f"cols {matrix.cols}"]
    for i in range(matrix.rows):
        lines.append(" ".join(f.format(e) for e in matrix.row(i)))
    return "\n".join(lines) + "\n"


def format_matrix_inline(matrix: ExactMatrix) -> str:
    """One-line rendering: rows joined by ';', entries by spaces."""
    f = matrix.field
    return "; ".join(" ".join(f.format(e) for e in matrix.row(i)) for i in range(matrix.rows))


# Largest rows or cols a matrix file may declare.  On seeded random
# 64x64 files `starinv inverse` took 2.1 s (QI mp), 1.5 s (QI drazin)
# and 0.9 s (Q mp) on a 2-core Xeon VM; an 80x80 QI mp took 4.0 s.
MATRIX_FILE_CAP = 64

# Longest matrix text parse_matrix reads, in characters (bytes, as a
# well-formed file is ASCII): entry length bounds the work as much as the
# size does.  parse_matrix plus mp_inverse on seeded random Q files took
# 11.3 s at 16x16 with 400-digit entries (103 kB), 34.7 s at 64x64 with
# 20-digit ones (88 kB) and 4.6 s with 6-digit ones (31 kB); a 64x64 QI
# file of 1-digit entries (20 kB) took 2.0 s (2-core Xeon VM).
MATRIX_FILE_BYTES = 1 << 15


def parse_matrix(text: str) -> ExactMatrix:
    """Parse the text exchange format.

    Expected layout: a ``ring`` header (Q, QI, or GF <p>), then
    ``rows <m>`` and ``cols <n>``, each at most ``MATRIX_FILE_CAP`` and
    checked before any entry is read, then m lines of n whitespace
    separated entries.  Numbers are ASCII decimal, and a modulus has no
    sign or leading zero.  Blank lines are ignored.  Malformed input,
    or text longer than ``MATRIX_FILE_BYTES`` (refused before any line
    is read), raises MatrixParseError with the offending line and entry.
    """
    if len(text) > MATRIX_FILE_BYTES:
        raise MatrixParseError(f"matrix text exceeds the {MATRIX_FILE_BYTES}-byte cap")
    numbered = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
    lines = [(no, line) for no, line in numbered if line]
    if len(lines) < 3:
        raise MatrixParseError("expected ring/rows/cols headers")

    no, header = lines[0]
    tokens = header.split()
    if not tokens or tokens[0] != "ring":
        raise MatrixParseError("first line must be a 'ring' header", no)
    try:
        field = field_named(" ".join(tokens[1:]), header=True)
    except ValueError as exc:
        raise MatrixParseError(str(exc), no) from None

    def read_dim(index: int, name: str) -> int:
        line_no, line = lines[index]
        parts = line.split()
        if len(parts) != 2 or parts[0] != name:
            raise MatrixParseError(f"expected '{name} <count>'", line_no)
        if not (parts[1].isascii() and parts[1].isdigit()):
            raise MatrixParseError(f"bad {name} count {parts[1]!r}", line_no)
        if len(parts[1]) > 9 or int(parts[1]) > MATRIX_FILE_CAP:  # int() refuses 4,301 digits
            raise MatrixParseError(f"{name} {parts[1]:.9} exceeds the {MATRIX_FILE_CAP} cap", line_no)
        value = int(parts[1])
        if value < 1:
            raise MatrixParseError(f"{name} must be positive", line_no)
        return value

    m = read_dim(1, "rows")
    n = read_dim(2, "cols")
    body = lines[3:]
    if len(body) != m:
        raise MatrixParseError(f"expected {m} entry rows, found {len(body)}")
    entries = []
    for line_no, line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixParseError(f"expected {n} entries, found {len(tokens)}", line_no)
        for col, token in enumerate(tokens, start=1):
            try:
                entries.append(field.parse(token))
            except ValueError as exc:
                raise MatrixParseError(str(exc), line_no, col) from None
    return ExactMatrix(field, m, n, entries)
