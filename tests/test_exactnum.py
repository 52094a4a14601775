from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from bicolor.errors import (
    AlphaOne,
    BadEpsilon,
    EpsilonUndefined,
    IrrationalAlpha,
    RationalAlpha,
    SchemaError,
)
from bicolor import exactnum
from bicolor.exactnum import (
    Alpha,
    ApproximationPair,
    PreDimValue,
    QuadRat,
    compare,
    compare_word,
    dirichlet_window,
    epsilon_bound,
    rational_pair,
)

from conftest import ALL_ALPHAS, ALPHA_INV_SQRT2, ALPHA_TWO_THIRDS

pdv = PreDimValue


class TestAlpha:
    def test_rational_normalized(self):
        a = Alpha.rational(4, 6)
        assert (a.num, a.den) == (2, 3)

    def test_bounds(self):
        with pytest.raises(SchemaError):
            Alpha(kind="rational", num=3, den=2)
        with pytest.raises(SchemaError):
            Alpha(kind="rational", num=0, den=1)

    def test_quadratic_invariants(self):
        a = ALPHA_INV_SQRT2
        assert (a.a, a.b, a.c, a.d) == (0, 1, 2, 2)
        with pytest.raises(SchemaError):
            Alpha(kind="quadratic", a=0, b=1, c=1, d=4)  # d a perfect square
        with pytest.raises(SchemaError):
            Alpha(kind="quadratic", a=0, b=1, c=1, d=8)  # not squarefree
        with pytest.raises(SchemaError):
            Alpha(kind="quadratic", a=0, b=0, c=1, d=2)
        with pytest.raises(SchemaError):
            Alpha(kind="quadratic", a=0, b=1, c=1, d=2)  # sqrt(2) > 1

    def test_json_round_trip(self):
        for a in ALL_ALPHAS:
            assert Alpha.from_json(a.to_json()) == a

    def test_parse_inline(self):
        assert Alpha.parse("2/3") == ALPHA_TWO_THIRDS
        assert Alpha.parse('{"kind":"quadratic","a":0,"b":1,"c":2,"d":2}') == ALPHA_INV_SQRT2
        with pytest.raises(SchemaError):
            Alpha.parse("nope")


class TestCompare:
    def test_zero_case(self):
        for a in ALL_ALPHAS:
            assert compare(pdv(0, 0), pdv(0, 0), a) == 0

    def test_cross_multiplication(self):
        assert compare(pdv(2, 3), pdv(0, 0), ALPHA_TWO_THIRDS) == 0
        assert compare_word(pdv(2, 3), pdv(0, 0), ALPHA_TWO_THIRDS) == "equal"

    def test_quadratic_sign(self):
        assert compare(pdv(1, 1), pdv(0, 0), ALPHA_INV_SQRT2) == 1
        assert compare_word(pdv(1, 1), pdv(0, 0), ALPHA_INV_SQRT2) == "greater"

    @given(
        st.integers(-50, 50), st.integers(-50, 50),
        st.integers(-50, 50), st.integers(-50, 50),
        st.integers(-50, 50), st.integers(-50, 50),
    )
    def test_total_order(self, d1, c1, d2, c2, d3, c3):
        for a in ALL_ALPHAS:
            x, y, z = pdv(d1, c1), pdv(d2, c2), pdv(d3, c3)
            assert compare(x, y, a) == -compare(y, x, a)
            if compare(x, y, a) <= 0 and compare(y, z, a) <= 0:
                assert compare(x, z, a) <= 0

    def test_irrational_injectivity(self):
        # equal values force equal pairs; equivalently no nonzero (d, c) with
        # d = alpha * c, checked over all differences up to 200 in magnitude
        a = ALPHA_INV_SQRT2
        for dd in range(-200, 201):
            for cc in (-7, -1, 1, 3, 200):
                if (dd, cc) != (0, 0):
                    assert pdv(dd, cc).sign(a) != 0
        for cc in range(-200, 201):
            if cc != 0:
                assert pdv(0, cc).sign(a) != 0

    def test_float_never_used(self):
        # huge parts stay exact
        assert pdv(10**50 + 1, 10**50).sign(Alpha.rational(1, 1)) == 1
        assert pdv(10**50, 10**50).sign(Alpha.rational(1, 1)) == 0


# Quadratic alphas (a + b*sqrt(d))/c with a < 0, with b < 0, and both positive.
QUADRATIC_ALPHAS = [
    Alpha.quadratic(-1, 1, 2, 5),  # (sqrt(5) - 1)/2
    Alpha.quadratic(2, -1, 2, 2),  # 1 - 1/sqrt(2)
    ALPHA_INV_SQRT2,
    Alpha.quadratic(1, 1, 6, 3),  # (1 + sqrt(3))/6
]


def _floor_times(alpha: Alpha, col: int) -> int:
    """floor(alpha*col) by isqrt, so that dim - alpha*col lands next to zero."""
    m = alpha.b * col
    r = isqrt(m * m * alpha.d)
    root_floor = r if m >= 0 else -r - 1  # sqrt(d) is irrational
    return (alpha.a * col + root_floor) // alpha.c


_magnitudes = st.one_of(
    st.integers(-60, 60),
    st.integers(-(10**50), 10**50),
    st.integers(10**50 - 10**6, 10**50 + 10**6),
    st.integers(-(10**50) - 10**6, -(10**50) + 10**6),
)


@st.composite
def _pairs(draw, alpha):
    """(dim, col) pairs, a third of them within 2 of the line dim = alpha*col."""
    col = draw(_magnitudes)
    if draw(st.integers(0, 2)) == 0:
        return pdv(_floor_times(alpha, col) + draw(st.integers(-1, 2)), col)
    return pdv(draw(_magnitudes), col)


class TestIntegerSign:
    """The integer sign kernel against the QuadRat reference."""

    @given(st.data())
    @settings(max_examples=300)
    def test_sign_matches_quadrat(self, data):
        for a in QUADRATIC_ALPHAS:
            x = data.draw(_pairs(a))
            assert x.sign(a) == x.value(a).sign()

    @given(st.data())
    @settings(max_examples=300)
    def test_compare_matches_quadrat(self, data):
        for a in QUADRATIC_ALPHAS:
            x = data.draw(_pairs(a))
            y = data.draw(_pairs(a))
            assert compare(x, y, a) == (x.value(a) - y.value(a)).sign()

    def test_near_zero_uses_squares(self):
        # mixed signs of u and w with |u| close to |w|*sqrt(d): convergents of alpha
        gold = QUADRATIC_ALPHAS[0]
        assert pdv(8, 13).sign(gold) == -1 and pdv(13, 21).sign(gold) == 1
        assert compare(pdv(8, 13), pdv(13, 21), gold) == -1

    def test_no_quadrat_on_the_hot_path(self, monkeypatch):
        created = [0]
        original = QuadRat.__post_init__

        def counting(obj):
            created[0] += 1
            original(obj)

        monkeypatch.setattr(exactnum.QuadRat, "__post_init__", counting)
        pdv(1, 1).value(ALPHA_INV_SQRT2)
        assert created[0] > 0  # the counter sees QuadRat values
        created[0] = 0
        for a in QUADRATIC_ALPHAS:
            for dim in range(-6, 7):
                for col in range(-6, 7):
                    pdv(dim, col).sign(a)
                    compare(pdv(dim, col), pdv(col, dim), a)
        assert created[0] == 0


class TestQuadRat:
    def test_field_identities(self):
        x = QuadRat(Fraction(3, 2), Fraction(-1, 3), 2)
        y = QuadRat(Fraction(-1), Fraction(2, 5), 2)
        assert ((x + y) - y).eq(x)
        assert (x * y / y).eq(x)
        assert (x * x.inverse()).eq(QuadRat.of(1))

    def test_sign_squaring(self):
        # 1 - 1/sqrt(2) > 0 via sign of u^2 - v^2 d
        v = QuadRat.of(1) - ALPHA_INV_SQRT2.value()
        assert v.sign() == 1
        assert (-v).sign() == -1

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 9))
    @settings(max_examples=150)
    def test_floor_matches_float(self, p, q, den):
        x = QuadRat(Fraction(p, den), Fraction(q, den), 2)
        n = x.floor()
        assert (x - n).sign() >= 0
        assert (x - (n + 1)).sign() < 0


class TestEpsilonBound:
    def test_examples(self):
        assert epsilon_bound(2, ALPHA_TWO_THIRDS) == pdv(0, -1)
        assert epsilon_bound(3, ALPHA_TWO_THIRDS) == pdv(-1, -2)
        assert epsilon_bound(2, ALPHA_INV_SQRT2) == pdv(0, -1)

    def test_undefined_at_one(self):
        with pytest.raises(EpsilonUndefined):
            epsilon_bound(1, ALPHA_TWO_THIRDS)

    def test_minimality_oracle(self):
        # every negative value in the candidate grid has magnitude >= eps_n
        for a in ALL_ALPHAS:
            for n in range(2, 9):
                eps = epsilon_bound(n, a)
                assert eps.sign(a) > 0
                for d in range(n):
                    for c in range(n):
                        v = pdv(d, c)
                        if v.sign(a) < 0:
                            assert compare(-v, eps, a) >= 0


class TestDirichletWindow:
    def test_examples(self):
        assert dirichlet_window(ALPHA_INV_SQRT2, Fraction(1, 3)) == ApproximationPair(2, 3)
        assert dirichlet_window(ALPHA_INV_SQRT2, Fraction(1, 10)) == ApproximationPair(7, 10)

    def test_rational_rejected(self):
        with pytest.raises(RationalAlpha):
            dirichlet_window(ALPHA_TWO_THIRDS, Fraction(1, 10))

    def test_bad_epsilon(self):
        with pytest.raises(BadEpsilon):
            dirichlet_window(ALPHA_INV_SQRT2, Fraction(0))
        with pytest.raises(BadEpsilon):
            dirichlet_window(ALPHA_INV_SQRT2, Fraction(9, 10))

    @pytest.mark.parametrize("den", [3, 7, 10, 23, 57])
    def test_window_postcondition_and_minimality(self, den):
        alpha = ALPHA_INV_SQRT2
        eps = Fraction(1, den)
        pair = dirichlet_window(alpha, eps)
        av = alpha.value()
        # 0 < k*alpha - s < eps, re-verified exactly
        frac = av * pair.k - pair.s
        assert frac.sign() > 0 and (frac - QuadRat.of(eps)).sign() < 0
        # linear-scan minimality oracle
        for k in range(2, pair.k):
            s = (av * k).floor()
            if s >= 1:
                f = av * k - s
                assert not (f.sign() > 0 and (f - QuadRat.of(eps)).sign() < 0)

    def test_other_quadratic_alphas(self):
        for a in [Alpha.quadratic(0, 1, 2, 3), Alpha.quadratic(-1, 1, 1, 3), Alpha.quadratic(1, 1, 4, 5)]:
            pair = dirichlet_window(a, Fraction(1, 9))
            frac = a.value() * pair.k - pair.s
            assert frac.sign() > 0
            assert (frac - QuadRat.of(Fraction(1, 9))).sign() < 0


class TestRationalPair:
    def test_examples(self):
        assert rational_pair(ALPHA_TWO_THIRDS, 1) == ApproximationPair(9, 14)
        assert rational_pair(ALPHA_TWO_THIRDS, 0) == ApproximationPair(1, 2)
        assert rational_pair(Alpha.rational(1, 2), 0) == ApproximationPair(1, 3)

    def test_errors(self):
        with pytest.raises(IrrationalAlpha):
            rational_pair(ALPHA_INV_SQRT2, 0)
        with pytest.raises(AlphaOne):
            rational_pair(Alpha.rational(1, 1), 0)

    @given(st.integers(1, 9), st.integers(2, 10), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_identity(self, m, n, t):
        if m >= n:
            return
        from math import gcd

        if gcd(m, n) != 1:
            return
        pair = rational_pair(Alpha.rational(m, n), t)
        assert n * pair.s - m * pair.k == -1
        assert pair.k > t


class TestApproximationPair:
    def test_invariant(self):
        with pytest.raises(Exception):
            ApproximationPair(3, 3)
        with pytest.raises(Exception):
            ApproximationPair(0, 2)


class TestPreDimAlgebra:
    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
    def test_componentwise(self, d1, c1, d2, c2):
        x, y = pdv(d1, c1), pdv(d2, c2)
        assert x + y == pdv(d1 + d2, c1 + c2)
        assert x - y == pdv(d1 - d2, c1 - c2)
        assert -(x - y) == y - x
