"""Finite pregeometry backends: exact rational-linear rank and the free closure.

The linear backend realizes dimension as matrix rank over the rationals.  All
of the library's linear algebra runs through one kernel here: `SpanReducer`,
fraction-free row echelon form on integer rows with denominators cleared, and
`walk`, the one depth-first subset walk, whose step `eliminate` keeps the
*pending rows*, the residuals of the rows still to come; every exhaustive
subset question reads its ranks off it.  Rank counts its adds;
`canonical_rows` turns its echelon rows into canonical integer rows (reduced
echelon form, each row primitive), a key equal for equal spans.
`Coordinates` runs a `SpanReducer` on rows augmented by an identity block, so
one reduction of a vector also names the combination of the inserted vectors
it equals: exact coordinates, fundamental circuits and kernel vectors come
from one pass over a fixed vector list, and `solve` and `payload_kernel`
read them.  It takes each vector as its integer payload (m, row),
`int_payload`'s bijection with the rational vector row / m, so a caller
holding the cleared rows (a `ColoredStructure` caches them) hands them in
as they are, and gives coordinates back in integers over one common
denominator; `solve`, `dependency_kernel` and `payload_kernel` convert
between `Fraction`s and integers once, at their boundary.  Pivoting is
first-nonzero by row then column, so every computation is deterministic.
The free backend is the degenerate control: acl(A) = A and dim(A) = |A|.

Lemma.  Let W have echelon rows with pivot set L and let v lie outside W.
The vectors of span(W, v) vanishing on L form a line.  Proof: W projects
isomorphically onto the coordinates L (its rows are triangular there), so
span(W, v) maps onto them with a one-dimensional kernel.  So one primitive
integer vector with positive lead lies on the line.  v's residual against W
and its pending row (each step of `eliminate` keeps it a nonzero multiple of
v modulo W, clear of L) lie on it, primitive with positive lead: each is the
row `SpanReducer.add` stores for v.  For v inside W both are zero.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, InputError, InvariantError, SchemaError

LINEAR = "linear"
FREE = "free"
_ZERO = Fraction(0)


@dataclass(frozen=True)
class Backend:
    kind: str
    ambient_dim: int = 0

    def __post_init__(self):
        if self.kind not in (LINEAR, FREE):
            raise SchemaError(f"unknown backend kind {self.kind!r}")
        if self.kind == LINEAR and self.ambient_dim < 0:
            raise SchemaError("ambient dimension must be >= 0")


@dataclass(frozen=True)
class GroundElement:
    """A named point; the linear backend attaches an exact rational vector."""

    id: str
    vec: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if not self.id or not self.id.isascii():
            raise SchemaError(f"element id must be a nonempty ASCII string, got {self.id!r}")


def int_row(vec: tuple[Fraction, ...]) -> list[int]:
    """Clear denominators of one vector in integers; row scaling keeps spans."""
    return int_payload(vec)[1]


def int_payload(vec) -> tuple[int, list[int]]:
    """(m, m * vec) for m the least common multiple of vec's denominators:
    the least positive m making m * vec integral, so the pair determines vec
    and vec the pair."""
    mult = lcm(*(x.denominator for x in vec))
    return mult, [x.numerator * (mult // x.denominator) for x in vec]


def payload_key(den: int, nums) -> tuple[int, tuple[int, ...]]:
    """(m, tuple(row)) of int_payload(nums / den) for an integer den != 0,
    in integers: with g = gcd(den, nums...) signed as den, (den / g, nums /
    g), since the least m clearing nums / den is the lcm of the den /
    gcd(den, n_i), which is |den| / gcd(den, nums...)."""
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    return den // g, tuple(x // g for x in nums)


def _primitive(row: list[int]) -> list[int]:
    """The row divided by its content, its lead made positive."""
    g = lead = 0
    for x in row:
        if x:
            lead, g = lead or x, gcd(g, x)
            if g == 1:
                break
    g = -g if lead < 0 else g
    return row if g in (0, 1) else [x // g for x in row]


class SpanReducer:
    """Incremental fraction-free row reduction tracking a rational span.

    Rows are integer vectors kept in echelon form (increasing leading column),
    primitive with positive leads.  residual() reduces a vector against the
    basis without mutating it; add() grows the basis when the residual is
    nonzero.
    """

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[tuple[int, list[int]]] = []

    def clone(self) -> "SpanReducer":
        c = SpanReducer(self.ncols)
        c.rows = list(self.rows)
        return c

    @property
    def rank(self) -> int:
        return len(self.rows)

    def residual(self, row: list[int]) -> list[int]:
        if len(row) != self.ncols:
            raise DimensionMismatch(f"vector length {len(row)} != ambient {self.ncols}")
        cur = list(row)
        for lead, base in self.rows:
            piv = cur[lead]
            if piv:
                scale = base[lead]
                cur = [x * scale - y * piv for x, y in zip(cur, base)]
        return _primitive(cur)

    def contains(self, row: list[int]) -> bool:
        return not any(self.residual(row))

    def add(self, row: list[int]) -> bool:
        res = self.residual(row)
        if not any(res):
            return False
        insort(self.rows, (_lead(res), res), key=lambda t: t[0])
        return True


def _lead(row) -> int:
    return next(i for i, x in enumerate(row) if x)


def eliminate(pending: list[list[int]], i: int) -> list[list[int]]:
    """Pending rows once the nonzero pending[i] joins the span: each later row
    reduced by it at its lead and made primitive, the earlier ones kept."""
    row = pending[i]
    lead = _lead(row)
    scale = row[lead]
    out = pending[: i + 1]
    for cur in pending[i + 1:]:
        piv = cur[lead]
        out.append(_primitive([x * scale - y * piv for x, y in zip(cur, row)]) if piv else cur)
    return out


def walk(rows, root, take, prune=None):
    """Depth-first fold over the subsets of `rows`, each row taken before it
    is skipped, so new subsets come in lex order of their sorted indices.

    Yields (i, state, new) per node: its subset is decided on rows[:i],
    `state` folds take(state, j, row) from `root` over its rows j, `row`
    being j's pending row (zero iff j adds nothing to the rows taken before
    it), and `new` is False for a node skipping rows[i - 1], its parent's
    subset again.  A node is expanded after it is yielded unless i =
    len(rows) or prune(i, state).  The rows are made primitive with positive
    leads, and a taken row that grew the span is eliminated only when its
    node is expanded: each pending row is a `SpanReducer` residual (lemma).
    """
    n = len(rows)
    stack = [(0, [_primitive(list(r)) for r in rows], None, root, True)]
    while stack:
        i, pending, grown, state, new = stack.pop()
        yield i, state, new
        if i == n or (prune is not None and prune(i, state)):
            continue
        if grown is not None:
            pending = eliminate(pending, grown)
        row = pending[i]
        stack.append((i + 1, pending, None, state, False))
        stack.append((i + 1, pending, i if any(row) else None, take(state, i, row), True))


def suffix_rank_bound(rows, ncols: int):
    """(rank(rows), red, null) for the suffix-rank bound of the `colored`
    module's lemma.  With R_i = rank(rows[:i]) from one forward and S_i =
    rank(rows[i:]) from one reverse `SpanReducer` pass, red[i] = (n - i) -
    (R_n - R_i) and null[i] = (n - i) - S_i, so a subset of rows[:i] of
    rank d has rho = (n - i) - max(R_n - R_i, S_i - d) = min(red[i],
    null[i] + d)."""
    n = len(rows)
    fwd, bwd = SpanReducer(ncols), SpanReducer(ncols)
    prefix, suffix = [0], [0]
    for row, back in zip(rows, reversed(rows)):
        prefix.append(prefix[-1] + fwd.add(row))
        suffix.append(suffix[-1] + bwd.add(back))
    red = [(n - i) - (prefix[n] - r) for i, r in enumerate(prefix)]
    null = [(n - i) - s for i, s in enumerate(reversed(suffix))]
    return prefix[n], red, null


def canonical_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical integer rows of the span of echelon integer rows.

    The rows must have increasing leading columns and positive leads, as
    `SpanReducer.rows` keeps them.  Back-substitution clears every lead's
    column in the other rows, and each row is divided by its content: the
    result is the reduced echelon form up to a positive scale per row, so
    equal spans give equal tuples.
    """
    done: list[tuple[int, list[int]]] = []
    for row in reversed(rows):
        cur = list(row)
        for lead, base in done:
            piv = cur[lead]
            if piv:
                scale = base[lead]
                cur = [x * scale - y * piv for x, y in zip(cur, base)]
        done.append((_lead(cur), _primitive(cur)))
    return tuple(tuple(r) for _, r in reversed(done))


def span_key(rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Canonical integer rows of the span of any integer rows."""
    red = SpanReducer(ncols)
    for row in rows:
        red.add(row)
    return canonical_rows([r for _, r in red.rows])


class Coordinates:
    """Exact coordinates over a growing list of vectors, from one reduction.

    Each vector v comes in as its integer payload (m, r), r = m * v for a
    positive integer m (`int_payload` gives the least one).  Vector j
    enters as the integer row (r_j | e_j | 0) of width ncols + size + 1, a
    target t as (r_t | 0 | 1), and each is reduced by the echelon rows of
    the vectors that grew the span.  `insert(p)` keeps the row of p's
    vector when its head (the first ncols entries) stays nonzero, and
    otherwise returns its coordinates over the vectors inserted before it;
    `coords(p)` returns the target's coordinates over every inserted
    vector, or None.  Coordinates c come in integers over one common
    denominator, as (den, nums) with c_j = nums_j / den, den > 0 and
    gcd(den, nums...) = 1: the integer payload of the vector c
    (`payload_key`), so a caller placing c in a wider space has its
    payload without a `Fraction`.

    Lemma.  Every row's head equals the integer combination its tail names:
    sum_j tail_j * r_j + mark * r_t.  Proof: it holds for each row as
    it enters (its tail is a unit vector), and reduction and `_primitive`
    form integer linear combinations and quotients of rows, which keep it.
    The stored heads are echelon rows spanning the inserted vectors, so a
    head reduces to zero iff its vector lies in that span.  The stored rows
    are thus those of the vectors outside the span of the earlier ones, the
    pivot columns of the column matrix [v_0, ...], and their tails name only
    those vectors.  No stored row has an entry in a new row's own column
    (tail_k of v_k, or the mark of t), so that entry s stays nonzero.  A row
    whose head reduces to zero then gives sum_j tail_j * m_j * v_j + s * m *
    v = 0 with tail_j nonzero only on pivot vectors: v's coordinates over
    them are c_j = -tail_j * m_j / (s * m), unique since the pivot vectors
    are independent, and zero elsewhere.  That is the solution of the column
    system with free unknowns zero.

    The answer is checked exactly in integers, sum_j tail_j * r_j + s * r =
    0 over the rows as inserted; a target failing it has no coordinates.
    The c_j are tail_j * m_j over the one denominator -s * m, reduced by
    their common gcd.
    """

    __slots__ = ("ncols", "size", "red", "payloads")

    def __init__(self, ncols: int, size: int):
        self.ncols = ncols
        self.size = size
        self.red = SpanReducer(ncols + size + 1)
        self.payloads: list[tuple[int, list[int]]] = []

    def _reduce(self, row, own: int):
        """The reduced augmented row of `row` with a 1 in column ncols + own."""
        if len(row) != self.ncols:
            raise DimensionMismatch(f"vector length {len(row)} != ambient {self.ncols}")
        aug = row + [0] * (self.size + 1)
        aug[self.ncols + own] = 1
        return self.red.residual(aug)

    def _read(self, payload, res, own: int):
        """Coordinates named by the reduced row `res` of `payload`, or None
        when the integer check fails."""
        mult, row = payload
        n = self.ncols
        scale = res[n + own]
        acc = [scale * x for x in row]
        for t, (_, r) in zip(res[n:], self.payloads):
            if t:
                acc = [a + t * y for a, y in zip(acc, r)]
        if any(acc):
            return None
        return payload_key(-scale * mult, [t * m for t, (m, _) in zip(res[n:], self.payloads)])

    def insert(self, payload):
        """Add the vector of `payload`; None when it grows the span, else its
        coordinates over the vectors inserted before it."""
        k = len(self.payloads)
        if k == self.size:
            raise DimensionMismatch(f"more than {self.size} vectors inserted")
        res = self._reduce(payload[1], k)
        coeffs = None
        if any(res[: self.ncols]):
            insort(self.red.rows, (_lead(res), res), key=lambda t: t[0])
        else:
            coeffs = self._read(payload, res, k)
            if coeffs is None:
                raise InvariantError("a dependent vector failed its integer check")
        self.payloads.append(payload)
        return coeffs

    def coords(self, payload):
        """c with sum_j c_j * v_j = the target vector of `payload` over the
        inserted vectors, zero off the pivot vectors, as (den, nums), or None
        when the target is outside their span."""
        return self._read(payload, self._reduce(payload[1], self.size), self.size)


def solve(vectors, target) -> list[Fraction] | None:
    """One exact c with sum c_i * vectors_i = target, free unknowns zero, or
    None when there is none."""
    co = Coordinates(len(target), len(vectors))
    for v in vectors:
        co.insert(int_payload(v))
    c = co.coords(int_payload(target))
    return c and [Fraction(x, c[0]) for x in c[1]]


def dependency_kernel(vectors) -> tuple[tuple[Fraction, ...], ...]:
    """`payload_kernel` of rational vectors."""
    return payload_kernel([int_payload(v) for v in vectors], len(vectors[0]) if vectors else 0)


def payload_kernel(payloads, ncols: int) -> tuple[tuple[Fraction, ...], ...]:
    """Canonical basis of {c : sum_i c_i v_i = 0} for the vectors v_i of
    length ncols given by their integer payloads (m_i, m_i * v_i), one
    vector e_i - c per v_i = sum_j c_j v_j in the span of the earlier ones
    (c zero off the pivot vectors); equality of kernels is equality of
    quantifier-free linear structure."""
    n = len(payloads)
    co = Coordinates(ncols, n)
    basis = []
    for i, p in enumerate(payloads):
        coeffs = co.insert(p)
        if coeffs is not None:
            vec = [Fraction(-x, coeffs[0]) if x else _ZERO for x in coeffs[1]] + [_ZERO] * (n - i)
            vec[i] = Fraction(1)
            basis.append(tuple(vec))
    return tuple(basis)


def _payload_rows(elements, backend: Backend) -> list[list[int]]:
    rows = []
    for e in elements:
        if e.vec is None:
            raise DimensionMismatch(f"element {e.id!r} has no vector payload")
        if len(e.vec) != backend.ambient_dim:
            raise DimensionMismatch(
                f"element {e.id!r} payload length {len(e.vec)} != ambient {backend.ambient_dim}"
            )
        rows.append(int_row(e.vec))
    return rows


def rank(elements, backend: Backend) -> int:
    """dim of a finite set: matrix rank (linear) or cardinality (free)."""
    elements = list(elements)
    if backend.kind == FREE:
        return len({e.id for e in elements})
    red = SpanReducer(backend.ambient_dim)
    return sum(red.add(row) for row in _payload_rows(elements, backend))


def rel_rank(a_elements, x_elements, backend: Backend) -> int:
    """dim(A/X) = rank(A u X) - rank(X)."""
    x_elements = list(x_elements)
    return rank([*a_elements, *x_elements], backend) - rank(x_elements, backend)


def acl_in(a_elements, m_elements, backend: Backend):
    """Trace of the algebraic closure of A inside the finite ambient M."""
    a_elements = list(a_elements)
    m_elements = list(m_elements)
    a_ids = {e.id for e in a_elements}
    m_ids = {e.id for e in m_elements}
    if not a_ids <= m_ids:
        raise InputError(f"acl_in needs A within the ambient, extra ids {sorted(a_ids - m_ids)}")
    if backend.kind == FREE:
        return [e for e in m_elements if e.id in a_ids]
    red = SpanReducer(backend.ambient_dim)
    for row in _payload_rows(a_elements, backend):
        red.add(row)
    return [e for e in m_elements if red.contains(int_row(e.vec))]


def dim_independent(y_elements, z_elements, x_elements, backend: Backend) -> bool:
    """True iff dim(Y/X) = dim(Y/XZ)."""
    y_elements, x_elements = list(y_elements), list(x_elements)
    return rel_rank(y_elements, x_elements, backend) == rel_rank(
        y_elements, [*x_elements, *z_elements], backend
    )
