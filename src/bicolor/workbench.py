"""File formats, the extension-task catalog, richness audits, and the builder.

The structure file is canonical JSON (sorted keys, no whitespace, trailing
newline): saving what was loaded reproduces the bytes.  Audits are the finite
stand-in for richness: for every catalog task A <= B and every strong
embedding of A into the structure (capped, deterministically enumerated) they
search for a strong extension of B and report per-task outcomes.  The builder
round-robins over audit failures and repairs each one by a free amalgamation
over the (closed) embedded image.

Every embedding search (the strong embeddings of A, the extensions to B, the
semi-generic audit's witnesses) consumes one generator, `_extensions`, which
enumerates extensions in lex order and tests each point, the given base's
first, against its already embedded prefix exactly, without rebuilding a
substructure or a dependency kernel per candidate.  What a search needs of
its source side is fixed per task (`_SearchPlan`, made once per
`ExtensionTask`).  Closedness is asked of `is_closed` directly: the least
violators it reads are memoized on the structure and carried across each
amalgam (see `colored.certify_free_amalgam`), and the builder's renamed copy
of a task's big side keeps its K+ verdict and closed sets
(`ColoredStructure.renamed`), so a build and an audit of its result search
each set once.  When the builder stops on a clean audit,
that report is recorded for the structure it returns, and `audit_richness`
answers the same question from it.
"""

from __future__ import annotations

import json
import random
import re
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .amalgam import free_amalgam, verify_free
from .closure import closure_n, is_closed
from .colored import ColoredStructure, EmbeddingMap, ensure_k_plus, in_k_plus, is_lp_embedding
from .construct import grow_patch
from .errors import (
    BackendMismatch,
    BudgetExceeded,
    InputError,
    InvariantError,
    NotClosed,
    NotTranscendental,
    SchemaError,
)
from .exactnum import Alpha, dirichlet_window, rational_pair
from .pregeom import FREE, LINEAR, Backend, Coordinates, GroundElement, payload_key
from .report import canonical_dumps

CATALOG_VERSION = "catalog-v1"
EMBEDDING_CAP = 200


# -- canonical structure files ------------------------------------------------


_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def _parse_rational(text, where: str) -> tuple[int, int]:
    """(p, q) with p / q = Fraction(text), q > 0 and gcd(p, q) = 1, in
    integers; SchemaError naming `where` for anything but a string of the
    schema's pattern (whose denominator is nonzero)."""
    if not isinstance(text, str):
        raise SchemaError(f"{where}: rational must be a string, got {type(text).__name__}")
    if not _RATIONAL_RE.match(text):
        raise SchemaError(f"{where}: cannot parse rational {text!r}")
    num, _, den = text.partition("/")
    p, q = int(num), int(den or 1)
    g = gcd(p, q)
    return p // g, q // g


def _entry(q: int, m: int) -> str:
    """str(Fraction(q, m)) for integers q and m > 0, in integers."""
    g = gcd(q, m)
    return str(q // g) if g == m else f"{q // g}/{m // g}"


def structure_to_obj(S: ColoredStructure) -> dict:
    """The file object of S; each vector entry is written from the point's
    integer payload (m, row) as `_entry`, the bytes of its `Fraction`, and
    every zero entry is one shared "0"."""
    backend: dict = {"kind": S.backend.kind}
    if S.backend.kind == LINEAR:
        backend["ambientDim"] = S.backend.ambient_dim
    elements = []
    for e in S.elements:
        item: dict = {"id": e.id, "colored": e.id in S.colored}
        if S.backend.kind == LINEAR:
            m, row = e.payload
            item["vec"] = [_entry(q, m) if q else "0" for q in row]
        elements.append(item)
    return {"alpha": S.alpha.to_json(), "backend": backend, "elements": elements}


def structure_from_obj(obj) -> ColoredStructure:
    """The structure of a file object; each point's integer payload (m, row)
    is built from its entries' reduced pairs (`_parse_rational`)."""
    if not isinstance(obj, dict):
        raise SchemaError("structure file must be a JSON object")
    for key in ("alpha", "backend", "elements"):
        if key not in obj:
            raise SchemaError(f"missing field {key!r}")
    alpha = Alpha.from_json(obj["alpha"])
    backend_obj = obj["backend"]
    if not isinstance(backend_obj, dict) or "kind" not in backend_obj:
        raise SchemaError("backend: must be an object with a 'kind'")
    kind = backend_obj["kind"]
    if kind == LINEAR:
        dim = backend_obj.get("ambientDim")
        if type(dim) is not int or dim < 0:
            raise SchemaError("backend.ambientDim: must be a natural number")
        backend = Backend(LINEAR, dim)
    elif kind == FREE:
        backend = Backend(FREE)
    else:
        raise SchemaError(f"backend.kind: unknown {kind!r}")
    if not isinstance(obj["elements"], list):
        raise SchemaError("elements: must be a list")
    elements = []
    colored = set()
    for i, item in enumerate(obj["elements"]):
        where = f"elements[{i}]"
        if not isinstance(item, dict) or "id" not in item:
            raise SchemaError(f"{where}: must be an object with an 'id'")
        eid = item["id"]
        if not isinstance(eid, str):
            raise SchemaError(f"{where}.id: must be a string")
        if kind == LINEAR:
            vec = item.get("vec")
            if not isinstance(vec, list):
                raise SchemaError(f"{where}.vec: required for the linear backend")
            pairs = [_parse_rational(x, f"{where}.vec[{j}]") for j, x in enumerate(vec)]
            m = lcm(*(q for _, q in pairs))
            payload = m, [p * (m // q) for p, q in pairs]
        else:
            if "vec" in item:
                raise SchemaError(f"{where}.vec: forbidden for the free backend")
            payload = None
        is_colored = item.get("colored", False)
        if type(is_colored) is not bool:
            raise SchemaError(f"{where}.colored: must be true or false, got {is_colored!r}")
        if is_colored:
            colored.add(eid)
        elements.append(GroundElement(eid, payload=payload))
    return ColoredStructure(backend, tuple(elements), frozenset(colored), alpha)


def dumps(S: ColoredStructure) -> str:
    return canonical_dumps(structure_to_obj(S))


def loads(text: str) -> ColoredStructure:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    return structure_from_obj(obj)


def save(S: ColoredStructure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(S))


def load(path) -> ColoredStructure:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# -- extension tasks ------------------------------------------------------------


class _SearchPlan:
    """The source side of an extension search, fixed per (big, base order):
    big's points in search order (the base's sources as given, then the
    other points by id), the color of each, and each point's coordinates
    over the points before it as (den, [(index, numerator), ...]), integers
    over one common denominator (`Coordinates`) listing the nonzero
    coefficients, or None where it is independent of them (always, on the
    free backend)."""

    __slots__ = ("base", "order", "colors", "coeffs")

    def __init__(self, big: ColoredStructure, base: tuple[str, ...]):
        self.base = base
        self.order = [*base, *(i for i in big.ids_sorted if i not in base)]
        self.colors = [big.is_colored(i) for i in self.order]
        self.coeffs = [None] * len(self.order)
        if big.backend.kind == LINEAR:
            co = Coordinates(big.backend.ambient_dim, len(self.order))
            for k, eid in enumerate(self.order):
                c = co.insert(big.payload(eid))
                if c is not None:
                    self.coeffs[k] = c[0], [(j, x) for j, x in enumerate(c[1]) if x]


@dataclass
class ExtensionTask:
    """A closed pair small <= big: the unit of every richness question."""

    task_id: str
    small: ColoredStructure
    big: ColoredStructure
    kind: str
    algebraic_split: frozenset[str]
    catalog: str = CATALOG_VERSION
    _plan: _SearchPlan = field(default=None, repr=False, compare=False)

    def search_plan(self) -> _SearchPlan:
        """The plan of every search extending an embedding of the small side
        (given by pairs in source order) to the big side, made on first use."""
        if self._plan is None:
            self._plan = _SearchPlan(self.big, self.small.ids_sorted)
        return self._plan


def _classify(big: ColoredStructure, small_ids) -> tuple[str, frozenset]:
    red = big.reducer_for(small_ids)
    algebraic = set()
    transcendental = set()
    for eid in big.id_set - set(small_ids):
        if any(red.residual(big.introw(eid))):
            transcendental.add(eid)
        else:
            algebraic.add(eid)
    split = frozenset(set(small_ids) | algebraic)
    if not transcendental:
        return "algebraic", split
    if not algebraic:
        return "transcendental", split
    return "mixed", split


def make_task(task_id: str, big: ColoredStructure, small_ids, catalog=CATALOG_VERSION) -> ExtensionTask:
    small_ids = big.check_ids(small_ids)
    ensure_k_plus(big)
    if not is_closed(small_ids, big):
        raise InvariantError(f"task {task_id!r}: small side is not closed in the big side")
    kind, split = _classify(big, small_ids)
    return ExtensionTask(
        task_id=task_id,
        small=big.restrict(small_ids),
        big=big,
        kind=kind,
        algebraic_split=split,
        catalog=catalog,
    )


def _point_structure(alpha: Alpha, colored: bool) -> ColoredStructure:
    return ColoredStructure.from_payloads(1, {"x1": (1, [1])}, ("x1",) if colored else (), alpha)


def _parallel_structure(alpha: Alpha, colors: tuple[bool, bool], scale=2) -> ColoredStructure:
    payloads = {"x1": (1, [1]), "x2": (1, [scale])}
    return ColoredStructure.from_payloads(1, payloads, [n for n, c in zip(payloads, colors) if c], alpha)


def task_catalog(alpha: Alpha, size_budget: int) -> list[ExtensionTask]:
    """Deterministic catalog of extension tasks within the size budget.

    Point additions, parallel pairs, and one patch task: the rational-pair
    patch at t = 0 for rational alpha, the Dirichlet patch at epsilon = 1/4
    for irrational alpha.  Budget caps both |B| and the ambient dimension.
    """
    if size_budget < 0:
        raise InputError("size budget must be a natural number")
    if size_budget > 5:
        raise BudgetExceeded("task catalog is capped at size budget 5")
    tasks: list[ExtensionTask] = []
    if size_budget >= 1:
        tasks.append(make_task("plain-point", _point_structure(alpha, False), ()))
        tasks.append(make_task("colored-point", _point_structure(alpha, True), ()))
    if size_budget >= 2:
        tasks.append(
            make_task("parallel-plain-plain", _parallel_structure(alpha, (False, False)), ())
        )
        tasks.append(
            make_task("parallel-plain-colored", _parallel_structure(alpha, (False, True)), ())
        )
        two_colored = _parallel_structure(alpha, (True, True))
        if in_k_plus(two_colored):
            tasks.append(make_task("parallel-colored-colored", two_colored, ()))
        # The algebraic extension task duplicates the payload exactly: a
        # scaled partner would demand an unbounded doubling chain from the
        # builder, whereas each duplicate is its own partner's witness.
        tasks.append(
            make_task(
                "parallel-ext-plain",
                _parallel_structure(alpha, (False, False), scale=1),
                ("x1",),
            )
        )
    pair = None
    patch_name = None
    if alpha.is_rational:
        if alpha.num < alpha.den:
            pair = rational_pair(alpha, 0)
            patch_name = "patch-ratmin-t0"
    else:
        pair = dirichlet_window(alpha, Fraction(1, 4))
        patch_name = "patch-dirichlet-q4"
    if pair is not None and 1 + pair.k <= size_budget and 1 + pair.s <= size_budget:
        anchor = ColoredStructure.from_payloads(1, {"a1": (1, [1])}, (), alpha)
        big, _ = grow_patch(anchor, {"a1"}, pair.s, pair.k, colored=True)
        tasks.append(make_task(patch_name, big, ()))
    return tasks


# -- audits ----------------------------------------------------------------------


@dataclass
class EmbeddingOutcome:
    image: tuple[str, ...]
    extended: bool
    extension: dict | None

    def to_json(self) -> dict:
        return {
            "image": list(self.image),
            "extended": self.extended,
            "extension": self.extension,
        }


@dataclass
class TaskAudit:
    task_id: str
    tried: int
    outcomes: list[EmbeddingOutcome]

    @property
    def all_extended(self) -> bool:
        return all(o.extended for o in self.outcomes)

    def to_json(self) -> dict:
        return {
            "task": self.task_id,
            "tried": self.tried,
            "outcomes": [o.to_json() for o in self.outcomes],
            "extended": self.all_extended,
        }


@dataclass
class AuditReport:
    passed: bool
    tasks: list[TaskAudit]
    catalog: str = CATALOG_VERSION
    cap: int = EMBEDDING_CAP
    alpha_kind: str = "rational"

    def copy(self) -> "AuditReport":
        """A copy sharing no mutable part with this report."""
        ext = lambda o: None if o.extension is None else dict(o.extension)
        outcomes = lambda t: [EmbeddingOutcome(o.image, o.extended, ext(o)) for o in t.outcomes]
        tasks = [TaskAudit(t.task_id, t.tried, outcomes(t)) for t in self.tasks]
        return AuditReport(self.passed, tasks, self.catalog, self.cap, self.alpha_kind)

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "catalog": self.catalog,
            "cap": self.cap,
            "alphaKind": self.alpha_kind,
            "tasks": [t.to_json() for t in self.tasks],
        }


def _image_of(coeffs, img, ncols: int):
    """The integer payload key of z = Q.c (`pregeom.payload_key`), for c
    given as (d, its nonzero (index, numerator) pairs) and Q by the
    `_nonzero` integer payload (m_j, row_j) of each image; None for c None.
    With L the lcm of the m_j, z = N / (d * L) for the integer vector N =
    sum_j n_j * (L / m_j) * row_j."""
    if coeffs is None:
        return None
    den, terms = coeffs
    mult = lcm(*(img[j][0] for j, _ in terms))
    z = [0] * ncols
    for j, n in terms:
        scale = n * (mult // img[j][0])
        for col, q in img[j][1]:
            z[col] += scale * q
    return payload_key(den * mult, z)


def _nonzero(payload):
    """(m, the nonzero (column, entry) pairs of row) of an integer payload (m, row)."""
    return payload[0], [(col, q) for col, q in enumerate(payload[1]) if q]


def _candidates(S: ColoredStructure, pool, used, colored: bool, red):
    """The ids of `pool` that extend an embedded prefix by one point (see
    `_extensions`), in order: unused, of the wanted color, and outside the
    span tracked by `red` unless it is None."""
    for c in pool:
        if c in used or S.is_colored(c) != colored:
            continue
        if red is None or any(red.residual(S.introw(c))):
            yield c


def _extensions(
    small: ColoredStructure, big: ColoredStructure, base_pairs, S: ColoredStructure, plan=None
):
    """Every extension of the embedding `base_pairs` of `small` into S to an
    embedding of `big`, in lex order of the images of big's other points
    (sorted by id) over S.ids_sorted.  A base that is not an embedding
    yields nothing: each point, the base's in the order given (each with its
    one candidate) and then the others, is tested against its prefix by the
    lemma below, starting from the empty prefix, whose kernels agree.

    Lemma.  Let P be the source vectors of a prefix and Q their images, with
    ker[P] = ker[Q] (the prefix is an embedding).  Then ker[P, x] = ker[Q, y]
    iff either x is not in span P and y is not in span Q, or x = P.c and
    y = Q.c for some c.

    Proof.  If x is not in span P, every (d, t) in ker[P, x] has t = 0, so
    ker[P, x] = ker[P] x {0}; likewise for y, Q, and the kernels are equal.
    If x = P.c and y = Q.c, then (d, t) is in ker[P, x] iff d + t.c is in
    ker[P], and in ker[Q, y] iff d + t.c is in ker[Q] = ker[P].  Conversely,
    let the kernels be equal.  If x = P.c, then (c, -1) is in ker[P, x], so
    in ker[Q, y], and y = Q.c; symmetrically y in span Q puts x in span P.
    So either both are outside their spans or x = P.c and y = Q.c, where
    Q.c does not depend on the choice of c: two choices differ by an element
    of ker[P] = ker[Q].

    The source prefix at each depth is the same whatever the images, so
    each x's coordinates over P come from the plan (`_SearchPlan`; pass the
    task's to reuse it).  Where x = P.c, z = Q.c is formed once per search
    step, in integers over the nonzero entries of the images' integer
    payloads, as its integer payload key (`_image_of`), and the candidates
    are the points with that key (`ids_with_vec`); otherwise a candidate's
    residual against a reducer of the image prefix must be nonzero, and the
    reducer is cloned only when a point is accepted.  Colors must match
    point by point.
    """
    base = tuple(a for a, _ in base_pairs)
    if plan is None or plan.base != base:
        plan = _SearchPlan(big, base)
    if big.backend.kind != S.backend.kind:
        raise BackendMismatch(f"{big.backend.kind} vs {S.backend.kind}")
    if set(base) != small.id_set:
        raise InputError("embedding must be total on the source structure")
    images = [b for _, b in base_pairs]
    S.check_ids(images)
    red = S.reducer_for(()) if S.backend.kind == LINEAR else None
    img = []  # per embedded point: its image's `_nonzero` payload (None: free backend)
    used: set[str] = set()
    assigned: list[str] = []
    levels = []  # per open depth: (candidate iterator, independent?, image reducer)
    while True:
        k = len(assigned)
        if k == len(plan.order):
            yield EmbeddingMap(tuple(zip(plan.order, assigned)))
        else:
            z = _image_of(plan.coeffs[k], img, S.backend.ambient_dim)
            pool = S.ids_sorted if z is None else S.ids_with_vec(z)
            if k < len(images):
                pool = [b for b in images[k:k + 1] if z is None or b in pool]
            cands = _candidates(S, pool, used, plan.colors[k], red if z is None else None)
            levels.append((cands, z is None, red))
        while levels:
            cands, independent, red = levels[-1]
            if len(assigned) == len(levels):
                used.discard(assigned.pop())
                img.pop()
            cand = next(cands, None)
            if cand is None:
                levels.pop()
                continue
            assigned.append(cand)
            used.add(cand)
            img.append(None if red is None else _nonzero(S.payload(cand)))
            if red is not None and independent:
                red = red.clone()
                red.add(S.introw(cand))
            break
        else:
            return


def _strong_embeddings(small: ColoredStructure, S: ColoredStructure, cap: int):
    """Strong embeddings of `small` into S, by sorted image-id tuples."""
    found = []
    for f in _extensions(small.restrict(()), small, (), S):
        if is_closed(f.image, S):
            found.append(f)
            if len(found) >= cap:
                break
    return found


def _extend_embedding(task: ExtensionTask, f: EmbeddingMap, S: ColoredStructure):
    """Least (lex over assignment tuples) strong extension of f to the big
    side, or None."""
    for g in _extensions(task.small, task.big, f.pairs, S, task.search_plan()):
        if is_closed(g.image, S):
            return g
    return None


# id(S) -> {(size_budget, cap): clean AuditReport of S}; an entry goes with
# its structure (weakref.finalize), so ids are never reused while recorded.
_CLEAN_AUDITS: dict[int, dict] = {}


def _record_clean_audit(S: ColoredStructure, size_budget: int, report: AuditReport):
    records = _CLEAN_AUDITS.get(id(S))
    if records is None:
        records = _CLEAN_AUDITS[id(S)] = {}
        weakref.finalize(S, _CLEAN_AUDITS.pop, id(S), None)
    records[size_budget, report.cap] = report


def audit_richness(S: ColoredStructure, size_budget: int, cap: int = EMBEDDING_CAP) -> AuditReport:
    """For every catalog task and strong embedding of its small side, search
    for a strong extension of the big side; pass iff every one extends.

    A structure returned by `build_generic` carries the builder's clean
    report for its budget and cap, the answer to the same question on the
    same object; it is handed out as a fresh copy (`AuditReport.copy`).  Any
    other budget or cap, and a reloaded structure, is audited afresh.
    """
    ensure_k_plus(S)
    clean = _CLEAN_AUDITS.get(id(S), {}).get((size_budget, cap))
    if clean is not None:
        return clean.copy()
    return _audit(S, task_catalog(S.alpha, size_budget), cap)


def _audit(S: ColoredStructure, catalog, cap: int) -> AuditReport:
    """audit_richness of the K+ structure S over a built catalog."""
    audits = []
    for task in catalog:
        outcomes = []
        embeddings = _strong_embeddings(task.small, S, cap)
        for f in embeddings:
            g = _extend_embedding(task, f, S)
            outcomes.append(
                EmbeddingOutcome(
                    image=tuple(b for _, b in f.pairs),
                    extended=g is not None,
                    extension=g.to_json() if g is not None else None,
                )
            )
        audits.append(TaskAudit(task_id=task.task_id, tried=len(embeddings), outcomes=outcomes))
    passed = all(t.all_extended for t in audits)
    return AuditReport(
        passed=passed, tasks=audits, cap=cap, alpha_kind=S.alpha.kind
    )


@dataclass
class SemiGenericReport:
    passed: bool
    tried: int
    witness: dict | None

    def to_json(self) -> dict:
        return {"pass": self.passed, "tried": self.tried, "witness": self.witness}


def audit_semi_generic(
    S: ColoredStructure, f: EmbeddingMap, B: ColoredStructure, n: int, cap: int = EMBEDDING_CAP
) -> SemiGenericReport:
    """Search for an extension fhat of f with
    cl^n(fhat(B)) = fhat(B) u cl^n(f(A)), free over f(A)."""
    a_ids = B.check_ids(f.domain)
    ensure_k_plus(B)
    ensure_k_plus(S)
    if not is_closed(a_ids, B):
        raise NotClosed("the embedded side is not closed in its extension")
    red = B.reducer_for(a_ids)
    if not all(any(red.residual(B.introw(i))) for i in B.id_set - a_ids):
        raise NotTranscendental("extension must be transcendental over the base")
    small = B.restrict(a_ids)
    if not (is_lp_embedding(f, small, S) and is_closed(f.image, S)):
        raise NotClosed("the given embedding is not strong into the structure")
    cl_a = closure_n(f.image, S, n)
    tried = 0
    for g in _extensions(small, B, f.pairs, S):
        tried += 1
        if tried > cap:
            break
        image = set(g.image)
        cl_b = closure_n(image, S, n)
        if cl_b == image | cl_a and verify_free(S, image, cl_a, f.image):
            return SemiGenericReport(passed=True, tried=tried, witness=g.to_json())
    return SemiGenericReport(passed=False, tried=min(tried, cap), witness=None)


# -- the bounded generic builder ---------------------------------------------------


def build_generic(
    seed: ColoredStructure,
    steps: int,
    size_budget: int,
    rng_seed: int,
    max_ambient: int = 256,
) -> ColoredStructure:
    """Iterated free amalgamation repairing audit failures round-robin.

    Fully deterministic given rng_seed (used only to shuffle the repair
    order); stops early if the audit comes back clean, and then records that
    report for the structure returned (see `audit_richness`).
    """
    ensure_k_plus(seed)
    S = seed
    rng = random.Random(rng_seed)
    catalog = task_catalog(seed.alpha, size_budget)
    tasks = {t.task_id: t for t in catalog}
    queue: list[tuple[str, tuple[str, ...]]] = []
    performed = 0
    while performed < steps:
        if not queue:
            report = _audit(S, catalog, EMBEDDING_CAP)
            queue = [
                (t.task_id, o.image)
                for t in report.tasks
                for o in t.outcomes
                if not o.extended
            ]
            if not queue:
                _record_clean_audit(S, size_budget, report)
                break
            rng.shuffle(queue)
        task_id, image = queue.pop(0)
        task = tasks[task_id]
        f = EmbeddingMap(tuple(zip(task.small.ids_sorted, image)))
        if _extend_embedding(task, f, S) is not None:
            continue  # repaired incidentally by an earlier amalgam
        complement = [i for i in task.big.ids_sorted if i not in task.small.id_set]
        renamed = task.big.renamed({i: f"s{performed}_{i}" for i in complement})
        match = EmbeddingMap(tuple(zip(image, task.small.ids_sorted)))
        result = free_amalgam(S, renamed, frozenset(image), task.small.id_set, match)
        S = result.structure
        performed += 1
        if S.backend.kind == LINEAR and S.backend.ambient_dim > max_ambient:
            raise BudgetExceeded(
                f"ambient dimension {S.backend.ambient_dim} exceeds budget {max_ambient}"
            )
    return S
