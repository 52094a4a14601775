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
holding the cleared rows hands them in as they are, and gives coordinates
back in integers over one common denominator; `solve`, `dependency_kernel`
and `payload_kernel` convert between `Fraction`s and integers once, at
their boundary.  A `GroundElement` stores its point as that payload alone:
the `Fraction` vector is cleared once when it is given and made again only
when `vec` is read, and `rank`, `rel_rank`, `acl_in` and `dim_independent`
read the payloads.
`coordinate_rows` gives rows' coordinates over their greedy basis by one
Gauss-Jordan pass on their transpose: rows of the same ranks, mostly unit
rows, on which `eliminate` touches one entry per row.  Pivoting is
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
from itertools import accumulate
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


@dataclass(frozen=True, init=False, slots=True)
class GroundElement:
    """A named point.  The linear backend attaches an exact rational vector,
    stored once as its integer payload (m, row) (`int_payload`): a vector
    `vec` given to the constructor is cleared once, a `payload` is taken as
    it is, and the `vec` property makes the `Fraction` vector row / m each
    time it is read.  Equality and hashing go by (id, payload), which is
    (id, vec) as the pair determines the vector."""

    id: str
    payload: tuple[int, list[int]] | None

    def __init__(self, id: str, vec=None, *, payload=None):
        if not id or not id.isascii():
            raise SchemaError(f"element id must be a nonempty ASCII string, got {id!r}")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "payload", payload if vec is None else int_payload(vec))

    def __hash__(self):
        return hash((self.id, self.payload and (self.payload[0], tuple(self.payload[1]))))

    @property
    def vec(self) -> tuple[Fraction, ...] | None:
        if self.payload is not None:
            m, row = self.payload
            return tuple(Fraction(x, m) if x else _ZERO for x in row)


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
    g = gcd(*row)
    if g:
        for lead in row:
            if lead:
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
    reduced by it at its lead and made primitive, the earlier ones kept.  A
    reduced row is scaled by the lead and then loses piv times pending[i] on
    that row's nonzero entries only: one entry for a unit row, as most rows
    of `coordinate_rows` are."""
    support = [(c, x) for c, x in enumerate(pending[i]) if x]
    lead, scale = support[0]
    out = pending[: i + 1]
    for cur in pending[i + 1:]:
        piv = cur[lead]
        if piv:
            cur = [x * scale for x in cur] if scale != 1 else cur[:]
            for c, x in support:
                cur[c] -= x * piv
            cur = _primitive(cur)
        out.append(cur)
    return out


def walk(rows, prune=None):
    """Depth-first walk over the subsets of `rows`, each row taken before it
    is skipped, so new subsets come in lex order of their sorted indices.

    Yields (i, dim, mask, pending) once per subset, at the node that took
    its last row (the root for the empty set): its subset C of rows[:i] is
    the bitmask `mask`, dim = rank(C), and pending[i - 1] the row it took,
    rows[i - 1]'s residual against the rest of C, zero iff that row adds
    nothing to their span.  A node skipping rows[i - 1] holds its parent's
    subset again and is not yielded.  Every node, yielded or not, is
    expanded (after its yield) unless i = len(rows) or prune(i, dim, mask),
    asked of every node short of the last row.  An expanded node has two
    children, one yielded, so a walk that yields m nodes has 2m - 1 nodes
    in all.  The rows are made primitive with positive leads, and a taken
    row that grew the span is eliminated only when its node is expanded:
    each pending row is a `SpanReducer` residual (lemma).
    """
    n, skipped = len(rows), []
    i, pending, grown, dim, mask = 0, [_primitive(list(r)) for r in rows], None, 0, 0
    while True:
        yield i, dim, mask, pending
        while i == n or (prune is not None and prune(i, dim, mask)):
            if not skipped:
                return
            i, pending, grown, dim, mask = skipped.pop()
        if grown is not None:
            pending = eliminate(pending, grown)
        skipped.append((i + 1, pending, None, dim, mask))
        grown = i if any(pending[i]) else None
        i, dim, mask = i + 1, dim + (grown is not None), mask | 1 << i


def suffix_rank_bound(rows, ncols: int, grew=None):
    """(rank(rows), red, null) for the suffix-rank bound of the `colored`
    module's lemma.  With R_i = rank(rows[:i]) and S_i = rank(rows[i:]),
    red[i] = (n - i) - (R_n - R_i) and null[i] = (n - i) - S_i, so a subset
    of rows[:i] of rank d has rho = (n - i) - max(R_n - R_i, S_i - d) =
    min(red[i], null[i] + d).  The S_i come from one reverse `SpanReducer`
    pass, which also gives the rank S_0.  R_i counts the rows before i
    that grew the span of the rows before them: `grew` lists those flags
    when the caller has them from a pass of its own, and a forward
    `SpanReducer` pass works them out otherwise."""
    n = len(rows)
    if grew is None:
        fwd = SpanReducer(ncols)
        grew = [fwd.add(row) for row in rows]
    bwd = SpanReducer(ncols)
    prefix, suffix = list(accumulate(grew, initial=0)), [0]
    for back in reversed(rows):
        suffix.append(suffix[-1] + bwd.add(back))
    red = [(n - i) - (prefix[n] - r) for i, r in enumerate(prefix)]
    null = [(n - i) - s for i, s in enumerate(reversed(suffix))]
    return suffix[n], red, null


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


def coordinate_rows(rows):
    """(grew, coords) for integer rows: grew[j] tells whether rows[j] grows
    the span of the rows before it, and coords[j] is d > 0 times its
    coordinate row over the rows that grew, a unit row for one of them.
    Taking coordinates is linear and injective on the span, and scaling a
    row keeps every span, so each subset of coords has the rank of the same
    subset of rows, on rows of length rank(rows) whose grown rows are unit
    vectors (an `eliminate` step by one changes one entry per row).

    One fraction-free Gauss-Jordan pass over the transpose T (column j is
    rows[j]), columns in order.  Lemma: row operations keep every linear
    relation among the columns.  Before column j each earlier pivot column
    j_q has one nonzero, in its own row q, so column j pivots iff it has a
    nonzero off those rows, iff rows[j] is outside the span of the rows
    before it; otherwise it is the sum of T[q][j] / T[q][j_q] times column
    j_q, and d is the least common multiple of the denominators."""
    cols, pivots, coords = [list(c) for c in zip(*rows) if any(c)], [], []
    free = list(range(len(cols)))
    for j in range(len(rows)):
        p = next((p for p in free if cols[p][j]), None)
        if p is None:
            d = lcm(*(cols[q][jq] for q, jq in pivots if cols[q][j]))
            coords.append([cols[q][j] * d // cols[q][jq] for q, jq in pivots])
            continue
        free.remove(p)
        top, scale = cols[p], cols[p][j]
        for r, cur in enumerate(cols):
            piv = cur[j]
            if piv and r != p:
                cols[r] = _primitive([x * scale - y * piv for x, y in zip(cur, top)])
        pivots.append((p, j))
        coords.append(None)
    basis = [j for _, j in pivots]
    return [c is None for c in coords], [
        [int(b == j) for b in basis] if c is None else c + [0] * (len(basis) - len(c))
        for j, c in enumerate(coords)
    ]


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
        if e.payload is None:
            raise DimensionMismatch(f"element {e.id!r} has no vector payload")
        row = e.payload[1]
        if len(row) != backend.ambient_dim:
            raise DimensionMismatch(f"element {e.id!r} payload length {len(row)} != ambient {backend.ambient_dim}")
        rows.append(row)
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
    return [e for e in m_elements if red.contains(e.payload[1])]


def dim_independent(y_elements, z_elements, x_elements, backend: Backend) -> bool:
    """True iff dim(Y/X) = dim(Y/XZ)."""
    y_elements, x_elements = list(y_elements), list(x_elements)
    return rel_rank(y_elements, x_elements, backend) == rel_rank(
        y_elements, [*x_elements, *z_elements], backend
    )
