"""Exact arithmetic for the coloring coefficient and pre-dimension values.

The coefficient alpha lives in (0, 1] and is either an exact rational p/q or
an exact quadratic irrational (a + b*sqrt(d))/c with d > 1 squarefree.  Every
downstream quantity we ever compare is an element of the field Q(alpha), so a
single value type `QuadRat` (p + q*sqrt(d) with rational p, q) carries all of
it: window widths, gap thresholds, epsilon bounds and floors.

Sign determination.  Every pre-dimension question (closedness, K+, minimal
pairs, chains) reduces to the sign of an integer pair dim - alpha*col, which
`pre_dim_sign` decides in integers alone, without building a `QuadRat`;
`PreDimValue.sign`, `compare` and the subset searches call it.  For
rational alpha = num/den the sign is that of den*dim - num*col.  For quadratic alpha = (a + b*sqrt(d))/c, multiplying by
c > 0 gives u + w*sqrt(d) with u = c*dim - a*col and w = -b*col.  When u and
w agree in sign, or one of them is zero, that is the answer; otherwise the
term of larger magnitude decides, found by comparing u^2 with w^2*d (equality
still yields 0): `surd_sign`, which `dirichlet_window` also decides its scan
by.  `QuadRat.sign` applies the same rule to rational p, q and remains the
reference the integer routines are tested against.

No floating point participates in any comparison; floats appear only as
display approximations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from math import gcd

from .errors import (
    AlphaOne,
    BadEpsilon,
    EpsilonUndefined,
    InputError,
    InvariantError,
    IrrationalAlpha,
    RationalAlpha,
    SchemaError,
)

ORDER_WORDS = {-1: "less", 0: "equal", 1: "greater"}


def is_squarefree(d: int) -> bool:
    if d < 1:
        return False
    if d % 4 == 0:
        return False
    f = 3
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class QuadRat:
    """p + q*sqrt(d) with p, q rational; d == 0 encodes a plain rational."""

    p: Fraction
    q: Fraction
    d: int

    def __post_init__(self):
        if self.d == 0 and self.q != 0:
            raise InputError("QuadRat with d=0 must have q=0")

    @staticmethod
    def of(x) -> "QuadRat":
        if isinstance(x, QuadRat):
            return x
        return QuadRat(Fraction(x), Fraction(0), 0)

    def _coerce(self, other) -> "QuadRat":
        if isinstance(other, QuadRat):
            return other
        return QuadRat(Fraction(other), Fraction(0), 0)

    def __add__(self, other) -> "QuadRat":
        o = self._coerce(other)
        d = self.d if self.q != 0 else o.d
        if self.q != 0 and o.q != 0 and self.d != o.d:
            raise InputError(f"mixing sqrt({self.d}) with sqrt({o.d})")
        q = self.q + o.q
        return QuadRat(self.p + o.p, q, d if q != 0 else 0)

    def __neg__(self) -> "QuadRat":
        return QuadRat(-self.p, -self.q, self.d if self.q != 0 else 0)

    def __sub__(self, other) -> "QuadRat":
        return self.__add__(self._coerce(other).__neg__())

    def __mul__(self, other) -> "QuadRat":
        o = self._coerce(other)
        if self.q != 0 and o.q != 0:
            if self.d != o.d:
                raise InputError(f"mixing sqrt({self.d}) with sqrt({o.d})")
            p = self.p * o.p + self.q * o.q * self.d
            q = self.p * o.q + self.q * o.p
            return QuadRat(p, q, self.d if q != 0 else 0)
        d = self.d if self.q != 0 else o.d
        p = self.p * o.p
        q = self.p * o.q + self.q * o.p
        return QuadRat(p, q, d if q != 0 else 0)

    def inverse(self) -> "QuadRat":
        if self.q == 0:
            if self.p == 0:
                raise ZeroDivisionError("QuadRat inverse of zero")
            return QuadRat(1 / self.p, Fraction(0), 0)
        # 1/(p + q*sqrt(d)) = (p - q*sqrt(d)) / (p^2 - q^2 d)
        den = self.p * self.p - self.q * self.q * self.d
        if den == 0:
            raise ZeroDivisionError("QuadRat inverse of zero")
        return QuadRat(self.p / den, -self.q / den, self.d)

    def __truediv__(self, other) -> "QuadRat":
        return self.__mul__(self._coerce(other).inverse())

    def sign(self) -> int:
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        if self.p == 0:
            return 1 if self.q > 0 else -1
        sp = 1 if self.p > 0 else -1
        sq = 1 if self.q > 0 else -1
        if sp == sq:
            return sp
        lhs = self.p * self.p
        rhs = self.q * self.q * self.d
        if lhs == rhs:
            return 0
        return sp if lhs > rhs else sq

    def __lt__(self, other) -> bool:
        return (self - other).sign() < 0

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(self.d) if self.q != 0 else float(self.p)

    def floor(self) -> int:
        """Exact floor: the value is (a + b*sqrt(d))/c over integers with c > 0
        (`floor_surd`)."""
        c = math.lcm(self.p.denominator, self.q.denominator)
        a, b = (x.numerator * (c // x.denominator) for x in (self.p, self.q))
        return floor_surd(a, b, self.d, c)

    def render(self) -> str:
        """Canonical exact string: 'a/c' or '(a+b*sqrt(d))/c'."""
        if self.q == 0:
            return str(self.p)
        c = self.p.denominator * self.q.denominator // gcd(self.p.denominator, self.q.denominator)
        a = self.p.numerator * (c // self.p.denominator)
        b = self.q.numerator * (c // self.q.denominator)
        sb = f"+{b}" if b >= 0 else str(b)
        return f"({a}{sb}*sqrt({self.d}))/{c}"


@dataclass(frozen=True)
class Alpha:
    """The coefficient alpha in (0, 1]: exact rational or quadratic irrational.

    Rational kind stores num/den in lowest terms; quadratic kind stores
    (a + b*sqrt(d))/c with d > 1 squarefree, b != 0, c > 0, gcd(a, b, c) = 1.
    The quadratic form is provably irrational, which downstream code relies on
    for the injectivity of pre-dimension values.
    """

    kind: str
    num: int = 0
    den: int = 1
    a: int = 0
    b: int = 0
    c: int = 1
    d: int = 0

    def __post_init__(self):
        if self.kind == "rational":
            if self.num < 1 or self.den < 1:
                raise SchemaError("rational alpha needs num >= 1 and den >= 1")
            if gcd(self.num, self.den) != 1:
                raise SchemaError("rational alpha must be in lowest terms")
            if self.num > self.den:
                raise SchemaError("alpha must lie in (0, 1]")
        elif self.kind == "quadratic":
            if self.d <= 1 or not is_squarefree(self.d):
                raise SchemaError("quadratic alpha needs squarefree d > 1")
            if self.b == 0:
                raise SchemaError("quadratic alpha needs b != 0")
            if self.c <= 0:
                raise SchemaError("quadratic alpha needs c > 0")
            if gcd(gcd(abs(self.a), abs(self.b)), self.c) != 1:
                raise SchemaError("quadratic alpha needs gcd(a, b, c) = 1")
            if surd_sign(self.a, self.b, self.d) <= 0 or surd_sign(self.a - self.c, self.b, self.d) > 0:
                raise SchemaError("alpha must lie in (0, 1]")
        else:
            raise SchemaError(f"unknown alpha kind {self.kind!r}")

    @staticmethod
    def rational(num: int, den: int) -> "Alpha":
        if den == 0:
            raise SchemaError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(abs(num), den)
        if g:
            num, den = num // g, den // g
        return Alpha(kind="rational", num=num, den=den)

    @staticmethod
    def quadratic(a: int, b: int, c: int, d: int) -> "Alpha":
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(gcd(abs(a), abs(b)), abs(c))
        if g > 1:
            a, b, c = a // g, b // g, c // g
        return Alpha(kind="quadratic", a=a, b=b, c=c, d=d)

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

    def value(self) -> QuadRat:
        if self.is_rational:
            return QuadRat(Fraction(self.num, self.den), Fraction(0), 0)
        return QuadRat(Fraction(self.a, self.c), Fraction(self.b, self.c), self.d)

    def to_json(self) -> dict:
        if self.is_rational:
            return {"kind": "rational", "num": self.num, "den": self.den}
        return {"kind": "quadratic", "a": self.a, "b": self.b, "c": self.c, "d": self.d}

    @staticmethod
    def from_json(obj) -> "Alpha":
        """Alpha from its `to_json` object; every field must be a JSON integer
        (no float, string or boolean), named in the SchemaError otherwise."""
        if not isinstance(obj, dict) or "kind" not in obj:
            raise SchemaError("alpha must be an object with a 'kind' field")
        kind = obj["kind"]
        if kind == "rational":
            names = ("num", "den")
        elif kind == "quadratic":
            names = ("a", "b", "c", "d")
        else:
            raise SchemaError(f"unknown alpha kind {kind!r}")
        for name in names:
            if name not in obj:
                raise SchemaError(f"alpha missing field {name!r}")
            if type(obj[name]) is not int:
                raise SchemaError(f"alpha.{name}: must be an integer, got {obj[name]!r}")
        return Alpha(kind=kind, **{name: obj[name] for name in names})

    @staticmethod
    def parse(text: str) -> "Alpha":
        """Parse inline 'p/q' / 'p' shorthand or a JSON object string."""
        text = text.strip()
        if text.startswith("{"):
            try:
                return Alpha.from_json(json.loads(text))
            except json.JSONDecodeError as e:
                raise SchemaError(f"bad alpha JSON: {e.msg}") from None
        try:
            frac = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"cannot parse alpha {text!r}") from None
        return Alpha.rational(frac.numerator, frac.denominator)

    def render(self) -> str:
        return self.value().render()


@dataclass(frozen=True)
class PreDimValue:
    """An exact value dim_part - alpha * color_part, stored as the integer pair."""

    dim_part: int
    color_part: int

    def __add__(self, other: "PreDimValue") -> "PreDimValue":
        return PreDimValue(self.dim_part + other.dim_part, self.color_part + other.color_part)

    def __sub__(self, other: "PreDimValue") -> "PreDimValue":
        return PreDimValue(self.dim_part - other.dim_part, self.color_part - other.color_part)

    def __neg__(self) -> "PreDimValue":
        return PreDimValue(-self.dim_part, -self.color_part)

    def value(self, alpha: Alpha) -> QuadRat:
        return QuadRat.of(self.dim_part) - alpha.value() * self.color_part

    def sign(self, alpha: Alpha) -> int:
        return pre_dim_sign(self.dim_part, self.color_part, alpha)


ZERO = PreDimValue(0, 0)


def pre_dim_sign(dim: int, col: int, alpha: Alpha) -> int:
    """Exact sign of dim - alpha*col, in integers only (see the module docstring)."""
    if alpha.is_rational:
        lhs = alpha.den * dim - alpha.num * col
        return (lhs > 0) - (lhs < 0)
    return surd_sign(alpha.c * dim - alpha.a * col, -alpha.b * col, alpha.d)


@lru_cache(maxsize=64)
def sign_memo(alpha: Alpha):
    """`pre_dim_sign` at one alpha, memoized on (dim, col): the subset
    searches ask a few hundred such pairs, bounded by the sizes of the
    structures searched, tens of thousands of times.  One memo per alpha
    serves every search, as making one costs more than a small search."""
    return cache(partial(pre_dim_sign, alpha=alpha))


def floor_surd(a: int, b: int, d: int, c: int) -> int:
    """floor((a + b*sqrt(d))/c) for integers with d >= 0 and c > 0: (a +
    floor(b*sqrt(d))) // c, the inner floor by isqrt, as floor(-sqrt(n)) =
    -1 - isqrt(n - 1) for n >= 1."""
    root = math.isqrt(b * b * d) if b >= 0 else -1 - math.isqrt(b * b * d - 1)
    return (a + root) // c


def surd_sign(u: int, w: int, d: int) -> int:
    """Exact sign of u + w*sqrt(d) for integers u, w and d >= 0: the sign of
    u and w where they agree or one is zero, else that of the term of larger
    magnitude, found by comparing u^2 with w^2*d (equal: 0)."""
    su = (u > 0) - (u < 0)
    sw = (w > 0) - (w < 0)
    if su * sw >= 0:
        return su or sw
    diff = u * u - w * w * d
    return su * ((diff > 0) - (diff < 0))


def compare(x: PreDimValue, y: PreDimValue, alpha: Alpha) -> int:
    """Exact order of the two real values: -1 (less), 0 (equal), +1 (greater)."""
    return pre_dim_sign(x.dim_part - y.dim_part, x.color_part - y.color_part, alpha)


def compare_word(x: PreDimValue, y: PreDimValue, alpha: Alpha) -> str:
    return ORDER_WORDS[compare(x, y, alpha)]


@dataclass(frozen=True)
class ApproximationPair:
    """A rational-approximation pair (s, k) with 1 <= s < k."""

    s: int
    k: int

    def __post_init__(self):
        if not (1 <= self.s < self.k):
            raise InputError(f"approximation pair needs 1 <= s < k, got ({self.s}, {self.k})")


def epsilon_bound(n: int, alpha: Alpha) -> PreDimValue:
    """Least magnitude among negative values d - alpha*c with 0 <= d, c <= n-1.

    Returned as the PreDimValue (-d, -c) for the attaining pair, whose value is
    alpha*c - d > 0.  Ties (possible for rational alpha) keep the first pair in
    (d, c) row-major order; the value itself is unique.
    """
    if n < 1:
        raise InputError("epsilon_bound needs n >= 1")
    best: PreDimValue | None = None
    for d in range(n):
        for c in range(n):
            v = PreDimValue(d, c)
            if v.sign(alpha) < 0:
                mag = -v
                if best is None or compare(mag, best, alpha) < 0:
                    best = mag
    if best is None:
        raise EpsilonUndefined(f"no negative value d - alpha*c exists for n = {n}")
    return best


def dirichlet_window(alpha: Alpha, epsilon) -> ApproximationPair:
    """Least-k pair (s, k) with s = floor(k*alpha) and 0 < k*alpha - s < epsilon.

    Normative search is the linear scan over k >= 2; termination is guaranteed
    by the density of {k*alpha mod 1} for irrational alpha.  epsilon may be an
    exact rational or any exact element of Q(alpha) (the internal callers pass
    irrational thresholds); it must satisfy 0 < epsilon < alpha.

    Everything is decided in integers.  With alpha = (a + b*sqrt(d))/c and
    epsilon = (e1 + e2*sqrt(d))/e3, c, e3 > 0, epsilon < alpha iff (a*e3 -
    c*e1) + (b*e3 - c*e2)*sqrt(d) > 0 (`surd_sign`).  At each k, s =
    `floor_surd`(k*a, k*b, d, c); k*alpha - s > 0, as k*alpha is
    irrational; and k*alpha - s < epsilon iff U + W*sqrt(d) > 0 for U =
    c*e1 - e3*(k*a - c*s) and W = c*e2 - e3*k*b.
    """
    if alpha.is_rational:
        raise RationalAlpha("dirichlet_window needs an irrational alpha")
    eps = QuadRat.of(epsilon)
    a, b, c, d = alpha.a, alpha.b, alpha.c, alpha.d
    e3 = math.lcm(eps.p.denominator, eps.q.denominator)
    e1, e2 = (x.numerator * (e3 // x.denominator) for x in (eps.p, eps.q))
    if eps.q and eps.d != d or surd_sign(e1, e2, d) <= 0 or surd_sign(a * e3 - c * e1, b * e3 - c * e2, d) <= 0:
        raise BadEpsilon("epsilon must lie in Q(alpha) and satisfy 0 < epsilon < alpha")
    for k in range(2, 10**6 + 1):
        s = floor_surd(k * a, k * b, d, c)
        if s >= 1 and surd_sign(c * e1 - e3 * (k * a - c * s), c * e2 - e3 * k * b, d) > 0:
            return ApproximationPair(s=s, k=k)
    raise InvariantError("dirichlet scan failed to terminate within bound")


def rational_pair(alpha: Alpha, t: int) -> ApproximationPair:
    """Pair (s, k) = (s'*n^t, k'*m^t) from the least k' with m^(t+1)*k' = 1 + s'*n^(t+1).

    Requires alpha = m/n rational with m < n coprime.  The solution satisfies
    n*s - m*k = -1 exactly, hence s - alpha*k = -1/n, and k > t.
    """
    if not alpha.is_rational:
        raise IrrationalAlpha("rational_pair needs a rational alpha")
    m, n = alpha.num, alpha.den
    if m == n:
        raise AlphaOne("alpha = 1 admits no such pair")
    if t < 0:
        raise InputError("t must be a natural number")
    mt = m ** (t + 1)
    nt = n ** (t + 1)
    kp = None
    sp = None
    for cand in range(1, 2 * nt + 1):
        num = mt * cand - 1
        if num > 0 and num % nt == 0:
            kp, sp = cand, num // nt
            break
    if kp is None:
        raise InvariantError("no modular solution found; m, n not coprime?")
    s = sp * n**t
    k = kp * m**t
    if n * s - m * k != -1:
        raise InvariantError("rational_pair identity n*s - m*k = -1 failed")
    if k <= t:
        raise InvariantError("rational_pair produced k <= t")
    return ApproximationPair(s=s, k=k)
