"""Independent exact oracle for the benchmark's answer checks.

Nothing here imports `bicolor`.  Structures are read from their canonical
JSON objects; ranks come from this file's own exact elimination (rational
payloads scaled to integer rows, then fraction-free reduction); the sign
of `dim - alpha*col` is decided in integers (rational alpha by
cross-multiplication, quadratic alpha by comparing squares); subset questions
run over bitmask tables.  Plain points never lower delta (they add dimension
and no color), so every minimisation ranges over subsets of colored points
only, which keeps the tables small.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, isqrt


# -- exact signs in Q(alpha) ----------------------------------------------------


def sign_surd(x: int, y: int, d: int) -> int:
    """Sign of x + y*sqrt(d) for integers x, y and a non-square d > 1."""
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0)
    if sy == 0:
        return sx
    if sx == 0:
        return sy
    if sx == sy:
        return sx
    return sx if x * x > y * y * d else sy


class Coef:
    """The coefficient alpha, read from a structure file's alpha object."""

    def __init__(self, obj: dict):
        self.kind = obj["kind"]
        if self.kind == "rational":
            self.num, self.den = int(obj["num"]), int(obj["den"])
        elif self.kind == "quadratic":
            self.a, self.b, self.c, self.d = (int(obj[k]) for k in "abcd")
            if self.c <= 0 or self.b == 0 or isqrt(self.d) ** 2 == self.d:
                raise ValueError(f"malformed quadratic alpha {obj}")
        else:
            raise ValueError(f"unknown alpha kind {self.kind!r}")

    @property
    def rational(self) -> bool:
        return self.kind == "rational"

    def sign(self, dim: int, col: int) -> int:
        """Sign of dim - alpha*col."""
        if self.rational:
            v = self.den * dim - self.num * col
            return (v > 0) - (v < 0)
        # c*dim - a*col - b*col*sqrt(d)
        return sign_surd(self.c * dim - self.a * col, -self.b * col, self.d)

    def cmp(self, p: tuple, q: tuple) -> int:
        """Order of the values p[0] - alpha*p[1] and q[0] - alpha*q[1]."""
        return self.sign(p[0] - q[0], p[1] - q[1])

    def floor_times(self, k: int) -> int:
        """floor(k*alpha) for k >= 1."""
        if self.rational:
            return (k * self.num) // self.den
        t = k * self.b
        root = isqrt(t * t * self.d)  # floor(|t|*sqrt(d)); never exact
        irr = root if t > 0 else -root - 1
        return (k * self.a + irr) // self.c


def chain_window_pair(alpha: Coef, level: int, limit: int = 10**6) -> tuple:
    """Least-k (s, k) with s = floor(k*alpha) >= 1 and
    0 < k*alpha - s < (1 - alpha) / 2^level, by a plain integer scan."""
    two = 1 << level
    for k in range(2, limit):
        s = alpha.floor_times(k)
        if s < 1:
            continue
        # k*alpha - s > 0  <=>  s - alpha*k < 0
        if alpha.sign(s, k) >= 0:
            continue
        # 2^L (k*alpha - s) < 1 - alpha  <=>  (1 + 2^L s) - alpha (2^L k + 1) > 0
        if alpha.sign(1 + two * s, two * k + 1) > 0:
            return s, k
    raise ValueError("no window pair below the scan limit")


def rational_pair_brute(num: int, den: int, t: int) -> tuple:
    """(s, k) = (s' n^t, k' m^t) for the least k' with m^(t+1) k' = 1 + s' n^(t+1),
    found by trying every (k', s') in turn."""
    mt, nt = num ** (t + 1), den ** (t + 1)
    for kp in range(1, 4 * nt + 2):
        for sp in range(1, kp * mt // nt + 2):
            if mt * kp == 1 + sp * nt:
                return sp * den**t, kp * num**t
    raise ValueError("no rational pair found")


# -- exact linear algebra -------------------------------------------------------


def _primitive(vec) -> list:
    """Integer row spanning the same line as a rational vector, content 1."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    row = [int(x * den) for x in vec]
    g = 0
    for x in row:
        g = gcd(g, x)
    return [x // g for x in row] if g > 1 else row


def _reduce(basis: list, row: list) -> list:
    """Fraction-free residual of an integer row against an echelon basis of
    (pivot, row) pairs, each row reduced against the ones before it.  The
    result is a nonzero multiple of the true residual, so it is zero exactly
    when row lies in the span."""
    for piv, b in basis:
        c = row[piv]
        if c:
            bp = b[piv]
            row = [x * bp - y * c for x, y in zip(row, b)]
    return row


def _grow(basis: list, row: list) -> bool:
    """Add row to the echelon basis; False when it is already in the span."""
    res = _reduce(basis, row)
    for piv, x in enumerate(res):
        if x:
            basis.append((piv, _primitive(res)))
            return True
    return False


def rank(vecs) -> int:
    """Exact rank of rational vectors."""
    basis: list = []
    return sum(1 for v in vecs if _grow(basis, _primitive(v)))


# -- structures -----------------------------------------------------------------


class Struct:
    """A structure parsed from its canonical JSON object."""

    def __init__(self, obj: dict):
        self.obj = obj
        self.alpha = Coef(obj["alpha"])
        self.linear = obj["backend"]["kind"] == "linear"
        self.ids = [e["id"] for e in obj["elements"]]
        self.colored = frozenset(e["id"] for e in obj["elements"] if e["colored"])
        self.vec = {}
        self.row = {}
        if self.linear:
            dim = obj["backend"]["ambientDim"]
            for e in obj["elements"]:
                v = [Fraction(x) for x in e["vec"]]
                if len(v) != dim or not any(v):
                    raise ValueError(f"bad payload for {e['id']!r}")
                self.vec[e["id"]] = v
                self.row[e["id"]] = _primitive(v)
        self._tables: dict = {}

    @staticmethod
    def from_text(text: str) -> "Struct":
        return Struct(json.loads(text))

    def restrict(self, ids) -> "Struct":
        keep = set(ids)
        obj = dict(self.obj)
        obj["elements"] = [e for e in self.obj["elements"] if e["id"] in keep]
        return Struct(obj)

    def rank_of(self, ids) -> int:
        ids = list(ids)
        if not self.linear:
            return len(set(ids))
        basis: list = []
        return sum(1 for i in ids if _grow(basis, self.row[i]))

    def delta(self, a_ids, x_ids=()) -> tuple:
        """(dim(A/X), colored count of A minus X)."""
        a, x = set(a_ids), set(x_ids)
        return (self.rank_of(a | x) - self.rank_of(x), len((a - x) & self.colored))

    def table(self, x_ids, cand) -> "RelTable":
        key = (frozenset(x_ids), tuple(cand))
        t = self._tables.get(key)
        if t is None:
            t = self._tables[key] = RelTable(self, x_ids, cand)
        return t

    def min_rel(self, x_ids) -> tuple:
        """(min of delta(A/X) over A, a smallest attaining colored set)."""
        x = frozenset(x_ids)
        cand = sorted(self.colored - x)
        return self.table(x, cand).minimum()

    def is_closed(self, x_ids) -> bool:
        return self.alpha.cmp(self.min_rel(x_ids)[0], (0, 0)) >= 0

    def in_k_plus(self) -> bool:
        return self.is_closed(())

    def closure(self, a_ids) -> frozenset:
        """Least closed superset by adjoining size-minimal violating sets.

        Soundness: a size-minimal Y with delta(Y/M) < 0 lies inside every
        closed D containing M (submodularity), so the fixpoint is contained
        in every closed superset and is itself closed.
        """
        cur = frozenset(a_ids)
        while True:
            cand = sorted(self.colored - cur)
            y = self.table(cur, cand).smallest_negative()
            if y is None:
                return cur
            cur = cur | y

    def d_value(self, a_ids) -> tuple:
        a = frozenset(a_ids)
        base = self.delta(a)
        rel = self.min_rel(a)[0]
        return (base[0] + rel[0], base[1] + rel[1])

    def is_minimal_pair(self, a_ids, b_ids) -> bool:
        a, b = frozenset(a_ids), frozenset(b_ids)
        if not a <= b or a == b:
            return False
        extra = sorted(b - a)
        t = self.table(a, extra)
        full = (1 << len(extra)) - 1
        if self.alpha.sign(*t.pair(full)) >= 0:
            return False
        return all(self.alpha.sign(*t.pair(m)) >= 0 for m in range(1, full))


class RelTable:
    """dim(C/X) for every subset C of a candidate list, over span(X).

    Candidates are reduced modulo span(X) once and scaled to primitive
    integer rows; a depth-first walk over include/exclude choices then keeps
    an integer echelon basis per branch, so each subset costs one reduction
    of one row.
    """

    def __init__(self, S: Struct, x_ids, cand):
        self.S = S
        self.cand = list(cand)
        n = len(self.cand)
        if n > 22:
            raise ValueError(f"subset table over {n} candidates is too large")
        self.n = n
        cols = [0] * (1 << n)
        for mask in range(1, 1 << n):
            i = mask.bit_length() - 1
            cols[mask] = cols[mask ^ (1 << i)] + (self.cand[i] in S.colored)
        self.cols = cols
        if not S.linear:
            self.dims = [bin(m).count("1") for m in range(1 << n)]
            return
        xb: list = []
        for i in sorted(x_ids):
            _grow(xb, S.row[i])
        rows = [_reduce(xb, S.row[c]) for c in self.cand]
        dims = [0] * (1 << n)

        def walk(i, basis, mask, d):
            if i == n:
                dims[mask] = d
                return
            walk(i + 1, basis, mask, d)
            res = _reduce(basis, rows[i])
            bit = mask | (1 << i)
            if any(res):
                piv = next(j for j, x in enumerate(res) if x)
                walk(i + 1, basis + [(piv, _primitive(res))], bit, d + 1)
            else:
                walk(i + 1, basis, bit, d)

        walk(0, [], 0, 0)
        self.dims = dims

    def pair(self, mask: int) -> tuple:
        return (self.dims[mask], self.cols[mask])

    def ids(self, mask: int) -> frozenset:
        return frozenset(self.cand[j] for j in range(self.n) if mask >> j & 1)

    def minimum(self) -> tuple:
        """(least value, smallest attaining set by size then mask order)."""
        alpha = self.S.alpha
        best, best_mask = (0, 0), 0
        for mask in sorted(range(1 << self.n), key=lambda m: bin(m).count("1")):
            p = self.pair(mask)
            if alpha.cmp(p, best) < 0:
                best, best_mask = p, mask
        return best, self.ids(best_mask)

    def smallest_negative(self):
        alpha = self.S.alpha
        for mask in sorted(range(1, 1 << self.n), key=lambda m: bin(m).count("1")):
            if alpha.sign(*self.pair(mask)) < 0:
                return self.ids(mask)
        return None


# -- canonical files ------------------------------------------------------------


def canonical(obj) -> str:
    """Sorted keys, no whitespace, one trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def structure_obj(alpha: dict, ambient: int, elements) -> dict:
    """Canonical structure object from (id, vector, colored) triples."""
    out = []
    for eid, vec, colored in sorted(elements, key=lambda t: t[0]):
        out.append({"colored": bool(colored), "id": eid, "vec": [str(Fraction(x)) for x in vec]})
    return {"alpha": alpha, "backend": {"ambientDim": ambient, "kind": "linear"}, "elements": out}
