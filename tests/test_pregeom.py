import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bicolor.errors import DimensionMismatch, InputError
from bicolor.pregeom import (
    Backend,
    Coordinates,
    FREE,
    GroundElement,
    LINEAR,
    SpanReducer,
    acl_in,
    canonical_rows,
    coordinate_rows,
    dependency_kernel,
    dim_independent,
    eliminate,
    int_payload,
    int_row,
    payload_key,
    payload_kernel,
    rank,
    rel_rank,
    solve,
    span_key,
    suffix_rank_bound,
    walk,
)

from conftest import fraction_rref, rank_int_matrix

LIN2 = Backend(LINEAR, 2)
LIN3 = Backend(LINEAR, 3)
FREEB = Backend(FREE)


def ge(eid, *coords):
    return GroundElement(eid, tuple(F(x) for x in coords))


def test_rank_examples():
    assert rank([], LIN2) == 0
    assert rank([ge("a", 1, 0), ge("b", 0, 1), ge("c", 1, 1)], LIN2) == 2
    assert rank([GroundElement(x) for x in "xyz"], FREEB) == 3


def test_rel_rank_examples():
    assert rel_rank([], [ge("x", 1, 0)], LIN2) == 0
    assert rel_rank([ge("c", 1, 1)], [ge("a", 1, 0), ge("b", 0, 1)], LIN2) == 0
    assert rel_rank([ge("z", 0, 0, 1)], [ge("x", 1, 0, 0)], LIN3) == 1


def test_acl_in_examples():
    a = [ge("a", 1, 0)]
    m = a + [ge("b", 2, 0), ge("c", 0, 1)]
    assert {e.id for e in acl_in(a, m, LIN2)} == {"a", "b"}
    assert {e.id for e in acl_in(m, m, LIN2)} == {"a", "b", "c"}
    free_elts = [GroundElement("x"), GroundElement("y")]
    assert {e.id for e in acl_in(free_elts[:1], free_elts, FREEB)} == {"x"}


def test_acl_requires_subset():
    with pytest.raises(InputError):
        acl_in([ge("q", 1, 1)], [ge("a", 1, 0)], LIN2)


def test_dim_independent_examples():
    y, z = [ge("y", 0, 1)], [ge("z", 0, 2)]
    assert not dim_independent(y, z, [], LIN2)
    assert dim_independent([ge("y", 1, 0)], [ge("z", 0, 1)], [], LIN2)
    x = [ge("x", 1, 1)]
    assert dim_independent(y, x + z, x + z, LIN2)  # Z within X is monotone-trivial


def test_payload_validation():
    with pytest.raises(DimensionMismatch):
        rank([ge("a", 1, 0, 0)], LIN2)
    with pytest.raises(DimensionMismatch):
        rank([GroundElement("a")], LIN2)


def test_int_row_clears_denominators():
    assert int_row((F(1, 2), F(-3, 4))) == [2, -3]
    assert int_row((F(2), F(0))) == [2, 0]


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=0,
        max_size=6,
    )
)
@settings(max_examples=200)
def test_bareiss_matches_reducer(rows):
    reducer = SpanReducer(3)
    grow = sum(1 for r in rows if reducer.add(list(r)))
    assert rank_int_matrix([list(r) for r in rows], 3) == grow == reducer.rank



def _walk_rows(rng, ncols):
    """Up to 7 integer rows: random ones (negative leads included), zero rows,
    and repeats of earlier rows, some negated."""
    rows = []
    for _ in range(rng.randint(1, 7)):
        pick = rng.random()
        if pick < 0.15:
            rows.append([0] * ncols)
        elif pick < 0.35 and rows:
            rows.append([x * rng.choice([1, -2]) for x in rng.choice(rows)])
        else:
            rows.append([rng.randint(-3, 3) for _ in range(ncols)])
    return rows


def test_eliminate_walk_matches_reducer_and_bareiss(rng):
    """A depth-first walk carrying pending rows over a base span X: at every
    frame the kept rows are SpanReducer's echelon rows for X plus the chosen
    rows, their number is the Bareiss rank, and the pending rows are the
    reducer's residuals of the rows still to come."""
    leaves = 0
    for trial in range(60):
        ncols = rng.randint(1, 5)
        xrows = _walk_rows(rng, ncols)[: trial % 3]
        rows = _walk_rows(rng, ncols)
        base = SpanReducer(ncols)
        for r in xrows:
            base.add(r)
        stack = [(0, [base.residual(r) for r in rows], list(base.rows), ())]
        while stack:
            i, pending, kept, chosen = stack.pop()
            subset = [*xrows, *(rows[j] for j in chosen)]
            red = SpanReducer(ncols)
            for r in subset:
                red.add(r)
            assert sorted(kept) == red.rows
            assert len(kept) == rank_int_matrix(subset, ncols)
            assert pending[i:] == [red.residual(r) for r in rows[i:]]
            if i == len(rows):
                leaves += 1
                continue
            stack.append((i + 1, pending, kept, chosen))
            row = pending[i]
            if any(row):
                lead = next(c for c, x in enumerate(row) if x)
                stack.append((i + 1, eliminate(pending, i), kept + [(lead, row)], chosen + (i,)))
            else:
                stack.append((i + 1, pending, kept, chosen + (i,)))
    assert leaves > 1000


def test_suffix_rank_bound_matches_bareiss(rng):
    """red[i] = (n - i) - (R_n - R_i) and null[i] = (n - i) - S_i for the
    Bareiss ranks R_i of rows[:i] and S_i of rows[i:], and the rank is R_n."""
    for _ in range(60):
        ncols = rng.randint(1, 5)
        rows = _walk_rows(rng, ncols)
        n = len(rows)
        big_r = [rank_int_matrix(rows[:i], ncols) for i in range(n + 1)]
        big_s = [rank_int_matrix(rows[i:], ncols) for i in range(n + 1)]
        assert suffix_rank_bound(rows, ncols) == (
            big_r[n],
            [(n - i) - (big_r[n] - big_r[i]) for i in range(n + 1)],
            [(n - i) - big_s[i] for i in range(n + 1)],
        )


def test_coordinate_rows_keep_every_rank(rng):
    """coordinate_rows on integer rows (zero, repeated, negated and
    negative-lead rows included): grew is the forward pass's, a grown row
    becomes its unit row, every other row a positive multiple of its
    coordinates over the grown rows before it, and every subset keeps its
    Bareiss rank."""
    for _ in range(80):
        ncols = rng.randint(1, 5)
        rows = _walk_rows(rng, ncols)
        grew, coords = coordinate_rows(rows)
        red = SpanReducer(ncols)
        assert grew == [red.add(row) for row in rows]
        basis = [j for j, g in enumerate(grew) if g]
        for j, (row, c) in enumerate(zip(rows, coords)):
            assert len(c) == len(basis) and all(x == 0 for x, b in zip(c, basis) if b > j)
            if grew[j]:
                assert c == [int(b == j) for b in basis]
                continue
            combo = [sum(x * rows[b][col] for x, b in zip(c, basis)) for col in range(ncols)]
            d = next((F(y, x) for x, y in zip(row, combo) if x), F(1))
            assert d > 0 and combo == [d * x for x in row]
        for size in range(len(rows) + 1):
            for chosen in itertools.combinations(range(len(rows)), size):
                want = rank_int_matrix([rows[j] for j in chosen], ncols)
                assert rank_int_matrix([coords[j] for j in chosen], len(basis)) == want


def test_walk_yields_each_subset_once_with_its_bareiss_rank(rng):
    """`walk` on integer rows (zero, repeated, negated and negative-lead rows
    included): every subset is yielded exactly once, in include-first
    depth-first order (lex order of the sorted indices), with its Bareiss
    rank and the row it took last, zero iff that row adds nothing; prune is
    asked of every node short of the last row, skipping nodes included, a
    pruned node is not expanded, and a walk yielding m nodes has 2m - 1."""
    for trial in range(80):
        ncols = rng.randint(1, 5)
        rows = _walk_rows(rng, ncols)
        n = len(rows)
        subsets = []
        for i, dim, mask, pending in walk(rows):
            chosen = tuple(j for j in range(n) if mask >> j & 1)
            assert dim == rank_int_matrix([rows[j] for j in chosen], ncols)
            assert i == (chosen[-1] + 1 if chosen else 0)
            if chosen:
                before = rank_int_matrix([rows[j] for j in chosen[:-1]], ncols)
                assert any(pending[i - 1]) == (dim > before)
            subsets.append(chosen)
        all_subsets = [c for r in range(n + 1) for c in itertools.combinations(range(n), r)]
        assert subsets == sorted(all_subsets)
        cap, asked = trial % 3, []

        def prune(i, dim, mask):
            assert dim == rank_int_matrix([rows[j] for j in range(i) if mask >> j & 1], ncols)
            asked.append((i, mask))
            return mask.bit_count() >= cap

        capped = [mask for _, _, mask, _ in walk(rows, prune)]
        assert capped == [m for m in map(sum, ([1 << j for j in c] for c in sorted(all_subsets)))
                          if m.bit_count() <= cap]
        # node (i, C) exists iff its parent (i - 1, C minus row i - 1) was
        # expanded, i.e. holds fewer than cap rows
        nodes = [(i, m) for i in range(n + 1) for m in range(1 << i)
                 if i == 0 or (m & ~(1 << (i - 1))).bit_count() < cap]
        assert sorted(asked) == [(i, m) for i, m in nodes if i < n]
        assert len(nodes) == 2 * len(capped) - 1


# -- the elimination kernel against Fraction Gauss-Jordan and Bareiss oracles --

SMALL_FRACTIONS = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


def oracle_solve(vectors, target):
    n = len(vectors)
    aug = [[v[r] for v in vectors] + [target[r]] for r in range(len(target))]
    rref, pivots = fraction_rref(aug)
    if n in pivots:
        return None
    coeffs = [F(0)] * n
    for row, p in zip(rref, pivots):
        coeffs[p] = row[n]
    return coeffs


def oracle_kernel(vectors):
    n = len(vectors)
    if n == 0:
        return ()
    mat = [[v[r] for v in vectors] for r in range(len(vectors[0]))]
    rref, pivots = fraction_rref(mat)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [F(0)] * n
        vec[free] = F(1)
        for row, p in zip(rref, pivots):
            vec[p] = -row[free]
        basis.append(tuple(vec))
    return tuple(basis)


@st.composite
def column_systems(draw):
    """(vectors, target): columns drawn with repeats from a small pool, some
    coordinate rows zeroed in every column, the target in their span or not."""
    d = draw(st.integers(0, 4))
    vec = st.lists(SMALL_FRACTIONS, min_size=d, max_size=d).map(tuple)
    pool = draw(st.lists(vec, min_size=1, max_size=4))
    zero_rows = draw(st.sets(st.integers(0, d - 1), max_size=2)) if d else set()
    vectors = [
        tuple(F(0) if r in zero_rows else x for r, x in enumerate(v))
        for v in draw(st.lists(st.sampled_from(pool), max_size=5))
    ]
    if vectors and draw(st.booleans()):
        coeffs = draw(st.lists(SMALL_FRACTIONS, min_size=len(vectors), max_size=len(vectors)))
        target = tuple(sum((c * v[r] for c, v in zip(coeffs, vectors)), F(0)) for r in range(d))
    else:
        target = draw(vec)
    return vectors, target


@given(column_systems())
@settings(max_examples=200)
def test_solve_matches_fraction_gauss_jordan(system):
    vectors, target = system
    got = solve(vectors, target)
    assert got == oracle_solve(vectors, target)
    if got is not None:
        for r, t in enumerate(target):
            assert sum((c * v[r] for c, v in zip(got, vectors)), F(0)) == t


def test_solve_edge_cases():
    e1, e2 = (F(1), F(0)), (F(0), F(1))
    assert solve([], (F(0), F(0))) == []
    assert solve([], (F(1), F(0))) is None
    assert solve([e1, e1], (F(3), F(0))) == [F(3), F(0)]  # repeated column
    assert solve([e1, (F(2), F(0))], (F(0), F(1))) is None  # outside the span
    assert solve([e1, e2], (F(1, 2), F(-3, 4))) == [F(1, 2), F(-3, 4)]


@given(column_systems())
@settings(max_examples=200)
def test_dependency_kernel_matches_fraction_gauss_jordan(system):
    vectors, _ = system
    assert dependency_kernel(vectors) == oracle_kernel(vectors)


@st.composite
def vector_lists(draw):
    """(d, vectors, targets): up to 6 vectors of length d with non-integer
    entries, zero vectors, repeats and negated or halved repeats of earlier
    ones, and combinations of two earlier ones; targets are combinations of
    the vectors (consistent) or free draws (usually not)."""
    d = draw(st.integers(0, 4))
    vec = st.lists(SMALL_FRACTIONS, min_size=d, max_size=d).map(tuple)
    vectors = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combine"]))
        if kind == "zero":
            vectors.append((F(0),) * d)
        elif kind == "repeat" and vectors:
            scale = draw(st.sampled_from([F(1), F(-1), F(1, 2)]))
            vectors.append(tuple(scale * x for x in draw(st.sampled_from(vectors))))
        elif kind == "combine" and len(vectors) > 1:
            a, b = draw(st.lists(st.sampled_from(vectors), min_size=2, max_size=2))
            c = draw(SMALL_FRACTIONS)
            vectors.append(tuple(x + c * y for x, y in zip(a, b)))
        else:
            vectors.append(draw(vec))
    targets = draw(st.lists(vec, max_size=2))
    for _ in range(2):
        coeffs = draw(st.lists(SMALL_FRACTIONS, min_size=len(vectors), max_size=len(vectors)))
        targets.append(
            tuple(sum((c * v[r] for c, v in zip(coeffs, vectors)), F(0)) for r in range(d))
        )
    return d, vectors, targets


def _as_fractions(coords):
    """Integer coordinates (den, nums) as Fractions, after checking their
    form: den > 0 and no common factor, so equal vectors give equal pairs."""
    if coords is None:
        return None
    den, nums = coords
    assert den > 0 and math.gcd(den, *nums) == 1
    return [F(x, den) for x in nums]


@given(vector_lists())
@settings(max_examples=300)
def test_coordinates_match_fraction_gauss_jordan(case):
    """insert answers each vector over its prefix and coords each target over
    all the vectors, in integers over one denominator, as the Fraction
    Gauss-Jordan solve does; the kernel vectors e_i - c of the dependent
    inserts are the Fraction kernel's."""
    d, vectors, targets = case
    co = Coordinates(d, len(vectors))
    kernel = []
    for i, v in enumerate(vectors):
        coeffs = _as_fractions(co.insert(int_payload(v)))
        assert coeffs == oracle_solve(vectors[:i], v)
        if coeffs is not None:
            kernel.append(tuple([-c for c in coeffs] + [F(int(j == i)) for j in range(i, len(vectors))]))
    assert tuple(kernel) == oracle_kernel(vectors)
    for t in targets:
        assert _as_fractions(co.coords(int_payload(t))) == oracle_solve(vectors, t)
    for t in targets[-2:]:  # combinations of the vectors
        assert co.coords(int_payload(t)) is not None


@given(vector_lists())
@settings(max_examples=200)
def test_dependency_kernel_of_vector_lists(case):
    _, vectors, _ = case
    assert dependency_kernel(vectors) == oracle_kernel(vectors)


def test_coordinates_edge_cases():
    pair = lambda *v: int_payload(tuple(F(x) for x in v))
    co = Coordinates(2, 0)
    assert co.coords(pair(0, 0)) == (1, ())
    assert co.coords(pair(1, 0)) is None
    with pytest.raises(DimensionMismatch):
        co.insert(pair(1, 0))
    co = Coordinates(2, 3)
    with pytest.raises(DimensionMismatch):
        co.coords(pair(1))
    assert co.insert(pair(F(1, 2), 0)) is None  # independent
    assert co.insert(pair(-3, 0)) == (1, (-6,))  # dependent: -6 * (1/2, 0)
    assert co.insert(pair(0, F(2, 3))) is None
    assert co.coords(pair(1, 1)) == (2, (4, 0, 3))  # (2, 0, 3/2) over one denominator
    assert co.coords(pair(F(-1, 3), F(1, 9))) == (6, (-4, 0, 1))
    assert co.coords(pair(0, 0)) == (1, (0, 0, 0))


@given(vector_lists())
@settings(max_examples=100)
def test_payload_kernel_of_cleared_vectors(case):
    d, vectors, _ = case
    assert payload_kernel([int_payload(v) for v in vectors], d) == oracle_kernel(vectors)


def _primes_of(m: int) -> set[int]:
    out, p = set(), 2
    while p * p <= m:
        while m % p == 0:
            out.add(p)
            m //= p
        p += 1
    return out | ({m} if m > 1 else set())


@given(st.lists(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=60), max_size=6))
@settings(max_examples=200)
def test_int_payload_is_the_least_clearing_bijection(vec):
    """row / m is vec, m * vec is integral, and no proper divisor m / p of m
    clears vec: the integers clearing vec are the multiples of the least."""
    vec = tuple(vec)
    m, row = int_payload(vec)
    assert m >= 1 and all(type(x) is int for x in row)
    assert tuple(F(x, m) for x in row) == vec
    for p in _primes_of(m):
        assert any((x * (m // p)).denominator != 1 for x in vec)


@given(
    st.integers(-10**4, 10**4).filter(bool),
    st.lists(st.integers(-10**4, 10**4) | st.just(0), max_size=6),
)
@settings(max_examples=300)
def test_payload_key_matches_fraction_clearing(den, nums):
    """The gcd-reduced key of nums / den is the least-multiplier clearing
    of the Fraction vector, for either sign of den and zero entries."""
    vec = [F(x, den) for x in nums]
    m = math.lcm(*(x.denominator for x in vec))
    assert payload_key(den, nums) == (m, tuple(int(x * m) for x in vec))
    assert payload_key(den, [0] * len(nums)) == (1, (0,) * len(nums))


INT_ROWS = st.integers(0, 4).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=4),
        st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=5),
        st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=4),
        st.booleans(),
    )
)


@given(INT_ROWS)
@settings(max_examples=300)
def test_span_key_equal_iff_spans_equal(case):
    ncols, a, combos, other, combine = case
    # B is either integer combinations of A's rows (often the same span) or
    # unrelated rows
    if combine:
        b = [[sum(c * r[j] for c, r in zip(co, a)) for j in range(ncols)] for co in combos]
    else:
        b = other
    same = rank_int_matrix(a, ncols) == rank_int_matrix(b, ncols) == rank_int_matrix(a + b, ncols)
    assert (span_key(a, ncols) == span_key(b, ncols)) == same


@given(INT_ROWS)
@settings(max_examples=150)
def test_canonical_rows_are_scaled_rref(case):
    ncols, a, _, _, _ = case
    reducer = SpanReducer(ncols)
    for r in a:
        reducer.add(r)
    key = canonical_rows([r for _, r in reducer.rows])
    rref, pivots = fraction_rref([[F(x) for x in r] for r in a])
    assert len(key) == len(rref) == rank_int_matrix(a, ncols)
    for row, ref, p in zip(key, rref, pivots):
        assert next(j for j, x in enumerate(row) if x) == p and row[p] > 0
        assert math.gcd(*row) == 1
        assert [F(x, row[p]) for x in row] == ref


@given(
    st.lists(
        st.fractions(min_value=-10**30, max_value=10**30, max_denominator=10**15),
        max_size=6,
    )
)
@settings(max_examples=150)
def test_int_row_matches_fraction_scaling(vec):
    mult = math.lcm(*(x.denominator for x in vec))
    assert int_row(tuple(vec)) == [int(x * mult) for x in vec]


@given(
    st.lists(st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**6), max_size=5),
    st.text(alphabet="abz0", min_size=1, max_size=3),
)
@settings(max_examples=150)
def test_ground_element_from_vector_is_the_point_from_its_payload(vec, eid):
    # the payload is cleared here in Fractions: m the lcm of the denominators
    vec = tuple(vec)
    m = math.lcm(*(x.denominator for x in vec))
    payload = (m, [int(x * m) for x in vec])
    given_vec, given_payload = GroundElement(eid, vec), GroundElement(eid, payload=payload)
    assert given_vec == given_payload and hash(given_vec) == hash(given_payload)
    assert given_vec.payload == payload
    assert given_vec.vec == vec == given_payload.vec and all(type(x) is F for x in given_payload.vec)
    assert GroundElement(eid + "x", vec) != given_vec
    if any(vec):
        doubled = tuple(2 * x for x in vec)
        assert GroundElement(eid, doubled) != given_vec and GroundElement(eid, doubled).vec == doubled
    assert GroundElement(eid) == GroundElement(eid, payload=None) and GroundElement(eid).vec is None
    assert hash(GroundElement(eid)) == hash(GroundElement(eid, payload=None))


def _random_elements(rng, n, dim):
    out = []
    for i in range(n):
        while True:
            v = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            if any(v):
                break
        out.append(GroundElement(f"e{i}", v))
    return out


def test_exchange_property(rng):
    backend = Backend(LINEAR, 3)
    fails = 0
    for _ in range(1000):
        elts = _random_elements(rng, 6, 3)
        a = elts[: rng.randint(0, 4)]
        x, y = rng.sample(elts, 2)
        closure_a = {e.id for e in acl_in(a, elts, backend)}
        closure_ay = {e.id for e in acl_in(a + [y], elts, backend)}
        if x.id in closure_ay - closure_a:
            closure_ax = {e.id for e in acl_in(a + [x], elts, backend)}
            if y.id not in closure_ax:
                fails += 1
    assert fails == 0


def test_dim_facts(rng):
    backend = Backend(LINEAR, 4)
    for _ in range(200):
        elts = _random_elements(rng, 7, 4)
        k = rng.randint(0, 3)
        a = elts[:k]
        b = elts[k : k + rng.randint(0, 3)]
        z = elts[k + 3 :]
        # additivity dim(ab/Z) = dim(a/Z) + dim(b/aZ)
        assert rel_rank(a + b, z, backend) == rel_rank(a, z, backend) + rel_rank(
            b, a + z, backend
        )
        # monotonicity: conditioning on more never raises dim
        assert rel_rank(a, z, backend) >= rel_rank(a, z + b, backend)
        # submodularity of rank
        inter = [e for e in a if e in b]
        assert rank(a + b, backend) + rank(inter, backend) <= rank(a, backend) + rank(
            b, backend
        )


def test_dim_independence_symmetry_transitivity(rng):
    backend = Backend(LINEAR, 3)
    for _ in range(200):
        elts = _random_elements(rng, 6, 3)
        rng.shuffle(elts)
        y, z1, z2, x = elts[:2], elts[2:3], elts[3:4], elts[4:]
        assert dim_independent(y, z1, x, backend) == dim_independent(z1, y, x, backend)
        both = dim_independent(y, z1, x, backend) and dim_independent(
            y, z2, x + z1, backend
        )
        assert both == dim_independent(y, z1 + z2, x, backend)


def test_free_backend_degeneracy():
    elts = [GroundElement(c) for c in "abcd"]
    assert rank(elts, FREEB) == 4
    assert rel_rank(elts[:2], elts[2:], FREEB) == 2
    assert dim_independent(elts[:1], elts[1:2], [], FREEB)
