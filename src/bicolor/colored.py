"""Bi-colored finite structures and the pre-dimension delta.

delta(A/X) = dim(A/X) - alpha * |colored points of A minus X|.  The class of
structures all of whose subsets have nonnegative delta is the hereditary
positive class; membership and every closedness question reduce to exact
minimization of delta over subsets.

Minimization strategy: plain points never lower delta, so minimizers live
among colored points.  Those split into connected components of the linear
matroid contracted by the conditioning set (computed from fundamental
circuits of a greedy basis), delta is additive across components, and each
component is searched exhaustively by `_component_walk`, one `pregeom.walk`
over the residual rows `colored_components` reduced against span(X).
`_component_min` reads the least delta off it, with the first minimizer in
lex order (`min_relative_delta`) or the least minimizer (`least_minimiser`),
and `min_violating_witness` the (size, lex)-least violator; all prune by
the suffix-rank bound below.

Lemma (least minimizer).  f(C) = delta(C/X) on the subsets C of S - X has
one minimizer L of least size, and it lies within every minimizer; X u L
is the closure of X.  Proof: dim is submodular and the colored count
modular, so f(C u D) + f(C n D) <= f(C) + f(D).  For minimizers C and D,
f(C u D) and f(C n D) are at least the minimum m and add up to at most
2m, so both are minimizers: the minimizers are closed under n, and their
intersection L is one, of least size, and the only one of that size.  X
u L is closed: delta(Y / X u L) = f(L u (Y - X)) - f(L) >= 0.  A closed Z
containing X holds L: with D = Z - X, f(L u D) >= f(D) (Z closed), so
f(L n D) <= f(L) + f(D) - f(L u D) <= f(L) = m, L n D is a minimizer and
L lies within it.  Zero-residual colored points lie in every minimizer
(each lowers f by alpha), plain points in none of least size (one
raises f or keeps it), and f adds up over components, so L is those
points with each component's least minimizer.

Lemma (suffix-rank bound).  Let a component's points be c_0 < ... < c_{n-1},
R_i = dim(c_0 .. c_{i-1} / X) and S_i = dim(c_i .. c_{n-1} / X).  For C
within comp[:i] put rho = (n - i) - max(R_n - R_i, S_i - dim(C / X)).  Then
for every T within comp[i:] and alpha <= 1,
delta(C u T / X) >= delta(C / X) - alpha * rho.  Proof: let U = comp[i:].  By submodularity, dim(C u U / X) +
R_i >= R_n + dim(C / X), and by monotonicity dim(C u U / X) >= S_i, so the
suffix raises dim(C / X) by at least max(R_n - R_i, S_i - dim(C / X)) = (n -
i) - rho.  Dropping each of its n - i - |T| points outside T loses at most
one, so T raises it by at least |T| - rho, and by at least 0.  Hence
delta(C u T / X) - delta(C / X) >= max(0, |T| - rho) - alpha * |T|, which
is >= -alpha * rho: for |T| <= rho since rho >= 0, and for |T| > rho since
(1 - alpha) * |T| >= (1 - alpha) * rho.  So a node holding C on comp[:i]
whose bound delta(C / X) - alpha * rho is no less than the best value so far
(0 for the witness search) has no better subset below it.  rho is at most
the static red_i = (n - i) - (R_n - R_i), so the bound prunes every node
that bound did; a pruned node's subtree holds nothing strictly better than
the best so far, so the first minimizer in lex order and the (size,
lex)-least violator are met as before.

Prune rule of the least minimizer.  That search keeps a bar (v, w), the
least pair (delta, size) met so far, pairs ordered by delta and then by
size, and a subset beats it when its pair is less.  A node holding C is
not expanded when its bound is above v, or equal to v with |C| >= w.
Proof: every subset below has delta >= the bound, so in the first case
none reaches v, and in the second none is below v and each tie has size
>= |C| >= w, so none beats the bar.  With v = 0 and w = 0 at the start
this is the strict rule, and the walk meets each subset beating the
final bar, L, unpruned.

`colored_components` runs one circuit pass over the residuals,
`pregeom.coordinate_rows`, which gives each point's coordinates over the
points that grew the span before it: a point and the grown points of its
fundamental circuit share a component, and each component's R_i are read
off the pass (rank adds up over components, so a point grows the span of
the points before it in the pass iff it grows that of its component's
points before it).  The walks step through the component's coordinate
rows over its own grown points, of length its rank and unit rows for the
grown points, which keep the rank of every subset.  The S_i come from one
reverse pass per component over its residuals
(`pregeom.suffix_rank_bound`), whose ranks S_0 feed the direct-sum check
against the circuit pass.  The walk folds (dim(C / X), bitmask of C) in
integers, |C| being the mask's bit count, and each node is decided by
`pre_dim_sign`, building the witness's ids once.

The witness search also prunes by size.  The walk meets subsets of equal
size in lex order, so the first violator of each size is that size's
lex-least; once a violator of size w is met, no subset grows to size w
again, so the last violator met in a component is its (size, lex)-least.

Everything is exact; searches that outgrow their node budget raise, naming
the search and the size of the component, instead of degrading.

Lemma (inherited witnesses).  Let P and S fix the same alpha and share the
ids of P, with the identity an lp-embedding of P into S (same colors, same
ranks on every subset), and P closed in S.  Then for every X within P the least violator of
X in S is its least violator in P.  Proof: let V violate X in S, V1 = V n P
and V2 = V - P.  By submodularity and P closed in S, delta(V2 / X u V1) >=
delta(V2 / P) >= 0, so delta(V1 / X) <= delta(V / X) < 0: V1 is a violator
no larger than V, and the least violator in S lies in P.  Deltas of subsets
of P agree in P and S, so the violators within P are the same in both, and
the least one is P's.  A free amalgam meets these hypotheses for its first
side by the amalgamation lemma (see `amalgam`), and only there S inherits
P's answers (`certify_free_amalgam`).

Lemma (carried closed sets).  Let N lie within S with the identity an
lp-embedding of N into S, N closed in S, and X within N closed in N.  Then
X is closed in S.  Proof: for Y within S let Y1 = Y n N and Y2 = Y - N.
Then delta(Y / X) = delta(Y1 / X) + delta(Y2 / X u Y1) >= delta(Y1 / X) +
delta(Y2 / N) >= 0: the middle step is submodularity (X u Y1 lies in N),
and the last uses X closed in N (deltas of subsets of N agree in N and S)
and N closed in S.  The amalgamation lemma makes the second side of a free
amalgam such an N, so the amalgam takes over the sets its memo holds
closed, under their new names; its violators need not keep their (size,
lex) order under the renaming, and are not carried.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    BackendMismatch,
    InputError,
    InvariantError,
    NotInKPlus,
    SchemaError,
    SearchBudgetExceeded,
    UnknownElement,
)
from .exactnum import Alpha, PreDimValue, ZERO, sign_memo
from .pregeom import FREE, LINEAR, Backend, Coordinates, GroundElement, SpanReducer
from .pregeom import coordinate_rows, dependency_kernel, payload_kernel, suffix_rank_bound, walk  # dependency_kernel: re-exported

DEFAULT_NODE_BUDGET = 2_000_000


@dataclass
class ColoredStructure:
    """A finite ground set with a pregeometry backend and a color predicate.

    Treated as immutable after construction; element order is canonical
    (sorted by id) so equality is structural.  The hereditary-positivity
    verdict is cached per instance, a positive one is inherited by
    restrictions, and neither is trusted across file round-trips.

    `_witnesses` memoizes `min_violating_witness`: each set X asked maps to
    its (size, lex)-least violator, or None when X is closed.  The answers
    are exact, so a hit ignores the node budget; a search that overran its
    budget stores nothing.  A certified free amalgam inherits its first
    side's memo and its second side's closed sets (`certify_free_amalgam`),
    and `renamed` carries the closed sets; restrictions and file
    round-trips start empty.

    A linear point is stored once, as its element's integer payload (m,
    row), m the least positive integer clearing its denominators and row =
    m * vec (`pregeom.int_payload`, a bijection with the vector):
    `payload` and `introw` read it, restrictions, renamings and unwidened
    extensions hand on the elements they keep, and widening pads the rows
    with zeros; none of them makes a `Fraction`.  `_by_vec` indexes the
    points by the key (m, tuple(row)), built on first use (`ids_with_vec`):
    integer tuples, whose hashes are cheap where those of `Fraction`s are
    not.
    """

    backend: Backend
    elements: tuple[GroundElement, ...]
    colored: frozenset[str]
    alpha: Alpha
    _by_id: dict = field(default=None, repr=False, compare=False)
    _k_plus: object = field(default=None, repr=False, compare=False)
    _witnesses: dict = field(default_factory=dict, repr=False, compare=False)
    _by_vec: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        elts = tuple(sorted(self.elements, key=lambda e: e.id))
        object.__setattr__(self, "elements", elts)
        self.colored = frozenset(self.colored)
        ids = [e.id for e in elts]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise SchemaError(f"duplicate element ids {dup}")
        if not self.colored <= set(ids):
            raise SchemaError(f"colored ids not in structure: {sorted(self.colored - set(ids))}")
        if self.backend.kind == LINEAR:
            for e in elts:
                if e.payload is None:
                    raise SchemaError(f"element {e.id!r} lacks a vector payload")
                row = e.payload[1]
                if len(row) != self.backend.ambient_dim:
                    raise SchemaError(f"element {e.id!r} payload length {len(row)} != "
                                      f"ambient {self.backend.ambient_dim}")
                if not any(row):
                    raise SchemaError(f"element {e.id!r} has the forbidden zero payload")
        else:
            for e in elts:
                if e.payload is not None:
                    raise SchemaError(f"free-backend element {e.id!r} must not carry a payload")
        self._by_id = {e.id: e for e in elts}

    # -- basic access -------------------------------------------------------

    @property
    def ids_sorted(self) -> tuple[str, ...]:
        return tuple(self._by_id)

    @property
    def id_set(self) -> frozenset[str]:
        return frozenset(self._by_id)

    def __len__(self) -> int:
        return len(self.elements)

    def element(self, eid: str) -> GroundElement:
        try:
            return self._by_id[eid]
        except KeyError:
            raise UnknownElement(f"no element {eid!r}") from None

    def check_ids(self, ids) -> frozenset[str]:
        s = frozenset(ids)
        missing = s - self.id_set
        if missing:
            raise UnknownElement(f"unknown ids {sorted(missing)}")
        return s

    def is_colored(self, eid: str) -> bool:
        return eid in self.colored

    def introw(self, eid: str) -> list[int]:
        return self._by_id[eid].payload[1]

    def payload(self, eid: str) -> tuple[int, list[int]]:
        """The integer payload (m, row) of a point, row / m being its vector."""
        return self._by_id[eid].payload

    def ids_with_vec(self, key) -> list[str]:
        """Ids of the points whose integer payload is `key` = (m,
        tuple(row)), i.e. whose payload is exactly row / m, in id order."""
        if self._by_vec is None:
            index: dict = {}
            for e in self.elements:
                index.setdefault((e.payload[0], tuple(e.payload[1])), []).append(e.id)
            self._by_vec = index
        return self._by_vec.get(key, [])

    def reducer_for(self, ids) -> SpanReducer:
        red = SpanReducer(self.backend.ambient_dim)
        for eid in sorted(ids):
            red.add(self.introw(eid))
        return red

    # -- derived structures -------------------------------------------------

    @classmethod
    def from_payloads(cls, ambient: int, payloads: dict, colored, alpha: Alpha) -> "ColoredStructure":
        """The linear structure whose points are the ids of `payloads`, each
        mapped to its integer payload (m, row) as `int_payload` gives it (the
        empty structure `extended` by them); no `Fraction` is made."""
        return empty_structure(alpha, ambient).extended(payloads=payloads, new_colored=colored)

    def renamed(self, mapping: dict) -> "ColoredStructure":
        """The structure with each id i renamed to mapping.get(i, i).  Renaming
        changes no payload, color or delta, so the integer payloads, the K+
        verdict and the memo's closed sets (X maps to None iff its image does)
        are carried; violators are not, since renaming can change which one
        is (size, lex)-least."""
        name = lambda i: mapping.get(i, i)
        rename = lambda ids: frozenset(map(name, ids))
        return ColoredStructure(
            self.backend,
            tuple(GroundElement(name(e.id), payload=e.payload) for e in self.elements),
            rename(self.colored),
            self.alpha,
            _k_plus=self._k_plus,
            _witnesses={rename(x): None for x, v in self._witnesses.items() if v is None},
        )

    def restrict(self, ids) -> "ColoredStructure":
        """Induced substructure; it inherits a K+ certificate (every subset of
        it is a subset of self), never a negative verdict."""
        keep = self.check_ids(ids)
        return ColoredStructure(
            backend=self.backend,
            elements=tuple(e for e in self.elements if e.id in keep),
            colored=self.colored & keep,
            alpha=self.alpha,
            _k_plus=True if self._k_plus is True else None,
        )

    def extended(self, new_elements=(), new_colored=(), widen_by: int = 0, payloads=None) -> "ColoredStructure":
        """New structure with widened ambient (zero-padding preserves ranks).
        A kept point's integer row gains zero columns: zeros add no
        denominator, so its multiplier m stays the same.  `payloads` maps
        further points to their integer payloads (m, row) of the widened
        length, as `int_payload` gives them, which become their elements'
        payloads as they are."""
        if self.backend.kind == FREE:
            if widen_by:
                raise InputError("free backend has no ambient to widen")
            return ColoredStructure(
                backend=self.backend,
                elements=self.elements + tuple(new_elements),
                colored=self.colored | frozenset(new_colored),
                alpha=self.alpha,
            )
        old = self.elements
        if widen_by:
            pad = [0] * widen_by
            old = tuple(GroundElement(e.id, payload=(e.payload[0], e.payload[1] + pad)) for e in old)
        if payloads:
            new_elements = (*new_elements, *(GroundElement(i, payload=p) for i, p in payloads.items()))
        backend = Backend(LINEAR, self.backend.ambient_dim + widen_by)
        return ColoredStructure(
            backend=backend,
            elements=old + tuple(new_elements),
            colored=self.colored | frozenset(new_colored),
            alpha=self.alpha,
        )

    def fresh_ids(self, prefix: str, count: int) -> list[str]:
        names = (f"{prefix}{i}" for i in itertools.count(1))
        return list(itertools.islice((c for c in names if c not in self._by_id), count))


def empty_structure(alpha: Alpha, ambient: int = 0, kind: str = LINEAR) -> ColoredStructure:
    return ColoredStructure(
        backend=Backend(kind, ambient if kind == LINEAR else 0),
        elements=(),
        colored=frozenset(),
        alpha=alpha,
    )


# -- the pre-dimension ------------------------------------------------------


def delta(S: ColoredStructure, a_ids, x_ids=()) -> PreDimValue:
    """delta(A/X) as the exact pair (dim(A/X), |colored of A minus X|)."""
    a = S.check_ids(a_ids)
    x = S.check_ids(x_ids)
    fresh = a - x
    ncol = len([i for i in fresh if i in S.colored])
    if S.backend.kind == FREE:
        return PreDimValue(len(fresh), ncol)
    red = S.reducer_for(x)
    return PreDimValue(sum(red.add(S.introw(eid)) for eid in sorted(fresh)), ncol)


# -- colored component decomposition ---------------------------------------


class _Component(list):
    """A component's ids in order, with `rows`, their integer coordinate rows
    over its points that grew the circuit pass, which the walks step
    through, and, from a reverse pass over their residuals over span(X),
    their `rank` and the `red` and `null` lists of their suffix-rank bound
    (`pregeom.suffix_rank_bound`)."""

    def __init__(self, ids, rows, residuals, ncols, grew):
        super().__init__(ids)
        self.rows = rows
        self.rank, self.red, self.null = suffix_rank_bound(residuals, ncols, grew)

    def ids_of(self, mask) -> tuple[str, ...]:
        return tuple(eid for j, eid in enumerate(self) if mask >> j & 1)


def colored_components(S: ColoredStructure, x_ids):
    """Split colored candidates over span(X) into (zero-residual, components).

    Zero-residual colored points always lower delta; the rest decompose into
    connected components of the contracted matroid, read off the fundamental
    circuits of the greedy basis (`pregeom.coordinate_rows`).  delta
    minimization is additive across components.  Each component carries its
    coordinate rows and the lists of its suffix-rank bound (`_Component`)
    for the searches.  In the free backend each candidate is a component of
    its own, a plain list of its id: no subset lowers delta there, so the
    searches return before walking.
    """
    x = S.check_ids(x_ids)
    cands = sorted(i for i in S.colored - x)
    if S.backend.kind == FREE:
        return [], [[c] for c in cands]
    base_red, ncols = S.reducer_for(x), S.backend.ambient_dim
    residuals = {eid: base_red.residual(S.introw(eid)) for eid in cands}
    drops = [eid for eid, res in residuals.items() if not any(res)]
    residuals = {eid: res for eid, res in residuals.items() if any(res)}
    grew, coords = coordinate_rows(list(residuals.values()))
    grew, coords = dict(zip(residuals, grew)), dict(zip(residuals, coords))
    basis = {eid: k for k, eid in enumerate(eid for eid in residuals if grew[eid])}
    comp_of = {eid: [eid] for eid in residuals}  # a point and a basis point of its circuit share one
    for eid in (eid for eid in residuals if not grew[eid]):
        for b, c in zip(basis, coords[eid]):
            if c and comp_of[b] is not comp_of[eid]:
                merged = comp_of[eid] + comp_of[b]
                comp_of.update(dict.fromkeys(merged, merged))
    out = []
    for ids in sorted(sorted(comp) for comp in {id(comp): comp for comp in comp_of.values()}.values()):
        cols = [basis[eid] for eid in ids if grew[eid]]
        rows = [[coords[eid][k] for k in cols] for eid in ids]
        out.append(_Component(ids, rows, [residuals[eid] for eid in ids], ncols, [grew[eid] for eid in ids]))
    # Direct-sum sanity: the components' ranks, each from its own reverse
    # pass, must add up to the rank of the circuit pass.  The residuals are
    # clear of span(X), so each component's rank is theirs.
    if sum(comp.rank for comp in out) != sum(grew.values()):
        raise InvariantError("component decomposition lost rank")
    return drops, out


class _BudgetCounter:
    """Nodes left to one search; running out names the search and the size
    of the component it was in."""

    __slots__ = ("budget", "left", "where", "size")

    def __init__(self, budget, where="_component_min"):
        self.budget = self.left = budget
        self.where, self.size = where, 0

    def spend(self, nodes):
        self.left -= nodes
        if self.left < 0:
            raise SearchBudgetExceeded(
                f"exact search node budget of {self.budget} exhausted in {self.where} "
                f"over a {self.size}-point component"
            )


def _component_walk(comp, counter, alpha, bar):
    """One `walk` over the subsets C of comp, yielding (dim(C/X), |C|,
    bitmask of C) for each new one that beats the bar; every node spends
    one from `counter`, a yielded one but the root two: itself and the
    sibling skipping its last row, which the walk does not yield.

    `bar` is [dim, col, cap, tie]: the value dim - alpha * col to beat, a
    size cap and a tie size, which the caller moves as it goes.  C beats
    the bar when delta(C/X) is below its value, or equal to it with |C| <
    tie.  A node on comp[:i] holding C is not expanded when |C| >= cap, or
    when its bound delta(C/X) - alpha * rho is above the bar's value, or
    equal to it with |C| >= tie, rho = min(red[i], null[i] + dim(C/X))
    being the module lemma's (n - i) - max(R_n - R_i, S_i - dim(C/X)).
    """
    counter.size = len(comp)
    red, null, sign_of = comp.red, comp.null, sign_memo(alpha)

    def prune(i, dim, mask):
        size = mask.bit_count()
        if size >= bar[2]:
            return True
        sign = sign_of(dim - bar[0], size + min(red[i], null[i] + dim) - bar[1])
        return sign > 0 or (sign == 0 and size >= bar[3])

    for _, dim, mask, _ in walk(comp.rows, prune):
        counter.spend(2 if mask else 1)
        size = mask.bit_count()
        sign = sign_of(dim - bar[0], size - bar[1])
        if sign < 0 or (sign == 0 and size < bar[3]):
            yield dim, size, mask


def _component_min(comp, alpha, counter, least=False):
    """Exact min of delta(C/X) over C within one component of
    `colored_components`, with witness: each subset met that beats the bar
    becomes it, and no node is expanded whose bound cannot beat it.  The
    witness is the first minimiser in lex order, or with `least`, where a
    tie of smaller size beats the bar too, the least minimiser (module
    lemma)."""
    bar, mask = [0, 0, len(comp) + 1, 0], 0
    for dim, size, mask in _component_walk(comp, counter, alpha, bar):
        bar[:2] = dim, size
        bar[3] = size if least else 0
    return PreDimValue(bar[0], bar[1]), frozenset(comp.ids_of(mask))


def min_relative_delta(S: ColoredStructure, x_ids, node_budget: int = DEFAULT_NODE_BUDGET, least=False):
    """Exact minimum of delta(A/X) over all A within S, with an attaining set:
    per component the first minimiser in lex order, or with `least` the
    least minimiser (`least_minimiser`).

    The minimum is at most zero (A may be empty).  An empty X over a structure
    with a recorded K+ verdict needs no search: every delta(A) is >= 0 there.
    """
    x = S.check_ids(x_ids)
    if S.backend.kind == FREE or (not x and S._k_plus is True):
        return ZERO, frozenset()
    drops, comps = colored_components(S, x)
    counter = _BudgetCounter(node_budget, "least_minimiser" if least else "min_relative_delta")
    total = PreDimValue(0, len(drops))
    witness = set(drops)
    for comp in comps:
        v, w = _component_min(comp, S.alpha, counter, least)
        total = total + v
        witness |= w
    return total, frozenset(witness)


def least_minimiser(S: ColoredStructure, x_ids, node_budget: int = DEFAULT_NODE_BUDGET):
    """(min delta(A/X) over A within S, L) for L the least minimiser, the
    minimiser of least size (module lemma): the zero-residual colored
    points over span(X) and each component's least minimiser, from one
    search whose bar is ordered by (delta, size)."""
    return min_relative_delta(S, x_ids, node_budget, least=True)


def min_violating_witness(S: ColoredStructure, x_ids, node_budget: int = DEFAULT_NODE_BUDGET):
    """Smallest violating set (size, then lex by sorted ids), or None if closed.

    A zero-residual colored point over span(X) is a violator of size one,
    and no other point is (alpha <= 1).  Otherwise a least violator lies in
    one component, delta being additive across them, and each component is
    searched by one `_component_walk` pruned two ways.  By bound: no node is
    expanded whose bound delta(C/X) - alpha * rho is >= 0, for then no
    subset below it violates (the module's lemma).  By size: once a
    violator of size w is met, no subset grows to size w.  The walk meets
    equal-size subsets in lex order, so the first violator of each size is
    that size's lex-least, and the last one met in a component is its
    (size, lex)-least.  A later component may reach the best size so far,
    so each component's least violator is compared by (size, sorted ids).
    A closed component is walked node for node as `_component_min` walks
    it.  The empty set is closed in a structure with a recorded K+ verdict,
    so that case is answered without a search.  Answers are memoized on S
    (see `ColoredStructure`): a set is searched at most once per structure.
    """
    x = S.check_ids(x_ids)
    if x not in S._witnesses:
        S._witnesses[x] = _least_violator(S, x, node_budget)
    return S._witnesses[x]


def _least_violator(S, x, node_budget):
    """The search behind `min_violating_witness`, over checked ids x."""
    if S.backend.kind == FREE or (not x and S._k_plus is True):
        return None
    drops, comps = colored_components(S, x)
    if drops:
        return frozenset({min(drops)})
    counter = _BudgetCounter(node_budget, "min_violating_witness")
    best = (len(S) + 1, ())
    for comp in comps:
        bar, last = [0, 0, best[0], 0], 0
        for _, size, last in _component_walk(comp, counter, S.alpha, bar):
            bar[2] = size - 1
        if last:
            best = min(best, (bar[2] + 1, comp.ids_of(last)))
    return frozenset(best[1]) or None


# -- hereditary positivity --------------------------------------------------


def in_k_plus(S: ColoredStructure, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff every subset has nonnegative pre-dimension (exact)."""
    if S._k_plus is None:
        v, _ = min_relative_delta(S, (), node_budget)
        S._k_plus = v.sign(S.alpha) >= 0
    return S._k_plus


def certify_k_plus(S: ColoredStructure):
    """Record a proof of S's hereditary positivity made by an exact verifier;
    in_k_plus then answers for S and its restrictions without a search."""
    if S._k_plus is False:
        raise InvariantError("certifying a structure known to be outside K+")
    S._k_plus = True


def certify_free_amalgam(M: ColoredStructure, first: ColoredStructure, second: ColoredStructure):
    """Record the amalgamation lemma's conclusions for a free amalgam M of
    `first` and `second`, the second side under its names in M (`renamed`),
    proved by the exact verifier that built it (`amalgam.free_amalgam`): M
    is in K+ and both sides are closed in M along the identity on their
    ids.  By the module's lemma on inherited witnesses, M then takes over
    `first`'s memoized least violators; both parts are memoized closed, and
    so is every set `second` has memoized closed, by the module's lemma on
    carried closed sets.  The second side's violators are not carried.
    """
    if first.alpha != M.alpha or not first.id_set <= M.id_set:
        raise InvariantError("the first side of an amalgam must keep its ids and alpha")
    certify_k_plus(M)
    M._witnesses.update(first._witnesses)
    M._witnesses[first.id_set] = None
    for x, v in [*second._witnesses.items(), (second.id_set, None)]:
        if v is None:
            M._witnesses[M.check_ids(x)] = None


def k_plus_violation(S: ColoredStructure) -> frozenset | None:
    """Minimal violating subset (size, then lex), or None when hereditarily positive."""
    return None if in_k_plus(S) else min_violating_witness(S, ())


def ensure_k_plus(S: ColoredStructure, node_budget: int = DEFAULT_NODE_BUDGET):
    if not in_k_plus(S, node_budget):
        raise NotInKPlus(f"structure has a negative subset {sorted(k_plus_violation(S))}")


# -- structure-preserving maps ----------------------------------------------


@dataclass(frozen=True)
class EmbeddingMap:
    """A partial injection between ground sets, given as (source, target) pairs."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))
        srcs = [a for a, _ in self.pairs]
        tgts = [b for _, b in self.pairs]
        if len(set(srcs)) != len(srcs) or len(set(tgts)) != len(tgts):
            raise InputError("embedding map must be injective")

    @staticmethod
    def of(mapping: dict) -> "EmbeddingMap":
        return EmbeddingMap(tuple(mapping.items()))

    @staticmethod
    def identity(ids) -> "EmbeddingMap":
        return EmbeddingMap(tuple((i, i) for i in ids))

    @property
    def mapping(self) -> dict:
        return dict(self.pairs)

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.pairs)

    @property
    def image(self) -> frozenset[str]:
        return frozenset(b for _, b in self.pairs)

    def to_json(self):
        return {a: b for a, b in self.pairs}


def is_lp_embedding(f: EmbeddingMap, S: ColoredStructure, T: ColoredStructure) -> bool:
    """Total structure-and-color preserving embedding test.

    Linear backend: the rational dependency kernel of the source payloads must
    equal that of the image payloads (both directions come for free from
    kernel equality); colors must match on the whole domain.
    """
    if S.backend.kind != T.backend.kind:
        raise BackendMismatch(f"{S.backend.kind} vs {T.backend.kind}")
    if f.domain != S.id_set:
        raise InputError("embedding must be total on the source structure")
    T.check_ids(f.image)
    for a, b in f.pairs:
        if S.is_colored(a) != T.is_colored(b):
            return False
    return S.backend.kind == FREE or _same_dependencies(S, T, f.pairs)


def _same_dependencies(S: ColoredStructure, T: ColoredStructure, pairs) -> bool:
    """Whether the sources of `pairs` in S and their targets in T have the
    same dependency kernel, read off their cached integer payloads."""
    ker = payload_kernel([S.payload(a) for a, _ in pairs], S.backend.ambient_dim)
    return ker == payload_kernel([T.payload(b) for _, b in pairs], T.backend.ambient_dim)


def _trace_coords(S: ColoredStructure, x_ids) -> list:
    """The sorted integer coordinates (`Coordinates`) over x_ids of each
    point of acl_in(x_ids, S), the points with coordinates over them."""
    co = Coordinates(S.backend.ambient_dim, len(x_ids))
    for i in x_ids:
        co.insert(S.payload(i))
    return sorted(c for c in (co.coords(e.payload) for e in S.elements) if c is not None)


def is_weak_iso(f: EmbeddingMap, S: ColoredStructure, T: ColoredStructure) -> bool:
    """Weak isomorphism of f's domain X onto its image Y.

    True iff f preserves colors on X and extends to a quantifier-free
    isomorphism of the generated traces acl_in(X, S) -> acl_in(Y, T); colors
    off X are unconstrained.  With equal dependency kernels the linear map
    x -> f(x) on span(X) is well defined and injective, and X and Y have the
    same pivot points in `Coordinates`, so it sends the point with
    coordinates c over X to the point with coordinates c over Y: the traces
    correspond iff their sorted coordinate lists are equal.
    """
    if S.backend.kind != T.backend.kind:
        raise BackendMismatch(f"{S.backend.kind} vs {T.backend.kind}")
    x_ids = sorted(S.check_ids(f.domain))
    T.check_ids(f.image)
    mapping = f.mapping
    for a in x_ids:
        if S.is_colored(a) != T.is_colored(mapping[a]):
            return False
    if S.backend.kind == FREE:
        return True
    return _same_dependencies(S, T, f.pairs) and _trace_coords(S, x_ids) == _trace_coords(
        T, [mapping[i] for i in x_ids]
    )
