from fractions import Fraction
from functools import reduce
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicelink import laurent
from splicelink.errors import ComputationError
from splicelink.invariants import alexander_polynomial
from splicelink.laurent import (FactoredDelta, LaurentPoly, NotDivisible,
                                OddSpan, TooLarge, ZeroPolynomial, _center,
                                convex_hull)
from splicelink.splice import build_k2n
from oracles import evaluate
from test_splice import random_diagram


def trinomial(a, b):
    """x + 1 + 1/x for the monomial x = t1^a t2^b."""
    return LaurentPoly({(a, b): 1, (0, 0): 1, (-a, -b): 1})


# The expanded product of the two factors of the smallest chain link,
# written out by hand: every pairwise product of monomials from
# (t1 t2^3 + 1 + t1^-1 t2^-3) and (t1^3 t2 + 1 + t1^-3 t2^-1).
DELTA_K2_TERMS = {
    (4, 4): 1, (1, 3): 1, (-2, 2): 1,
    (3, 1): 1, (0, 0): 1, (-3, -1): 1,
    (2, -2): 1, (-1, -3): 1, (-4, -4): 1,
}


exponents = st.integers(min_value=-6, max_value=6)
coefficients = st.integers(min_value=-9, max_value=9)
polys = st.dictionaries(st.tuples(exponents, exponents), coefficients,
                        max_size=6).map(LaurentPoly)
nonzero_polys = polys.filter(bool)
# a polynomial in one monomial u = t^w, times a monomial, as each of Δ's
# factors is one in u = t^(-p2, p1) for its kernel line p
line_polys = st.builds(
    lambda offset, w, terms: LaurentPoly(
        [((offset[0] + k * w[0], offset[1] + k * w[1]), c)
         for k, c in terms.items()]),
    st.tuples(exponents, exponents),
    st.tuples(st.integers(min_value=-3, max_value=3),
              st.integers(min_value=-3, max_value=3)),
    st.dictionaries(st.integers(min_value=-3, max_value=3), coefficients,
                    max_size=4)).filter(bool)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = LaurentPoly({(1, 2): 0, (0, 0): 3})
        assert len(p) == 1
        assert p.coefficient(0, 0) == 3

    def test_merging_terms(self):
        p = LaurentPoly([((1, 1), 2), ((1, 1), -2), ((0, 0), 1)])
        assert p == 1

    def test_zero_is_empty(self):
        assert not LaurentPoly.zero()
        assert LaurentPoly.zero() == 0

    def test_negative_exponents(self):
        p = LaurentPoly.monomial(-3, -1)
        assert p.coefficient(-3, -1) == 1

    @pytest.mark.parametrize("terms", [{(0.5, 1): 1}, {("2", 1): 1},
                                       {(1, 1): 0.5}])
    def test_non_integers_refused(self, terms):
        # exponents and coefficients are exact integers, never rounded
        with pytest.raises(TypeError):
            LaurentPoly(terms)


class TestMultiply:
    def test_two_trinomials_give_nine_terms(self):
        assert trinomial(1, 3) * trinomial(3, 1) == LaurentPoly(DELTA_K2_TERMS)

    def test_identity(self):
        p = trinomial(2, 5)
        assert p * LaurentPoly.one() == p

    def test_annihilator(self):
        p = trinomial(2, 5)
        assert p * LaurentPoly.zero() == 0

    def test_scalar(self):
        assert 3 * LaurentPoly.monomial(1, -1) == LaurentPoly({(1, -1): 3})


class TestExactDivide:
    def test_cube_by_factor(self):
        # (x^3 - 1) / (x - 1) for x = t1 t2^3
        p = LaurentPoly({(3, 9): 1, (0, 0): -1})
        q = LaurentPoly({(1, 3): 1, (0, 0): -1})
        r = p.exact_divide(q)
        assert r == LaurentPoly({(2, 6): 1, (1, 3): 1, (0, 0): 1})
        assert r * q == p

    def test_self_division(self):
        p = trinomial(1, 3) * trinomial(3, 1)
        assert p.exact_divide(p) == 1

    def test_not_divisible(self):
        # any multiple of t2 + 1 vanishes at t2 = -1, but t1 + 1 does not
        p = LaurentPoly({(1, 0): 1, (0, 0): 1})
        q = LaurentPoly({(0, 1): 1, (0, 0): 1})
        assert evaluate(p, 2, -1) != 0
        with pytest.raises(NotDivisible):
            p.exact_divide(q)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroPolynomial):
            trinomial(1, 1).exact_divide(LaurentPoly.zero())

    def test_zero_dividend(self):
        assert LaurentPoly.zero().exact_divide(trinomial(1, 1)) == 0

    def test_integer_coefficient_obstruction(self):
        p = LaurentPoly({(1, 0): 1, (0, 0): 1})
        q = LaurentPoly({(1, 0): 2, (0, 0): 2})
        with pytest.raises(NotDivisible):
            p.exact_divide(q)


class TestSubstitutePower:
    def test_identity_power(self):
        p = trinomial(2, 3)
        assert p.substitute_power(1) == p

    def test_monomial(self):
        assert LaurentPoly.monomial(1, -1).substitute_power(3) == \
            LaurentPoly.monomial(3, -3)

    def test_support_scaling(self):
        p = LaurentPoly(DELTA_K2_TERMS).substitute_power(2)
        assert set(p.support()) == {(2 * a, 2 * b) for a, b in DELTA_K2_TERMS}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            trinomial(1, 1).substitute_power(0)


class TestSymmetrize:
    def test_shifted_trinomial(self):
        p = LaurentPoly({(2, 6): 1, (1, 3): 1, (0, 0): 1})
        centered, shift = p.symmetrize()
        assert centered == trinomial(1, 3)
        assert shift == (1, 3)

    def test_already_symmetric(self):
        p = trinomial(2, 1)
        assert p.symmetrize() == (p, (0, 0))

    def test_odd_span(self):
        p = LaurentPoly({(1, 0): 1, (0, 0): 1})
        with pytest.raises(OddSpan) as info:
            p.symmetrize()
        assert reduce(mul, info.value.factors) == p
        assert info.value.shift == (Fraction(1, 2), Fraction(0))
        assert str(info.value) == \
            "cannot center: required shift (1/2, 0) is not integral"

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            LaurentPoly.zero().symmetrize()


class TestEvaluate:
    def test_product_of_trinomials_at_one(self):
        # each factor contributes 3 at (1, 1)
        p = trinomial(1, 3) * trinomial(3, 1)
        assert evaluate(p, 1, 1) == 9

    def test_zero_polynomial(self):
        assert evaluate(LaurentPoly.zero(), 2, 3) == 0

    def test_rational_point(self):
        p = LaurentPoly({(1, 0): 1, (-1, 0): 1})
        assert evaluate(p, Fraction(1, 2), 5) == Fraction(5, 2)

    def test_rejects_zero_coordinate(self):
        with pytest.raises(ValueError):
            evaluate(trinomial(1, 1), 0, 1)


class TestNewtonPolygon:
    def test_single_monomial(self):
        assert LaurentPoly.monomial(3, -2).newton_polygon() == [(3, -2)]

    def test_nine_term_product(self):
        # counterclockwise from the lexicographically smallest vertex;
        # (3, 1) and friends sit on edges, not at vertices
        p = LaurentPoly(DELTA_K2_TERMS)
        assert p.newton_polygon() == [(-4, -4), (2, -2), (4, 4), (-2, 2)]

    def test_collinear_support(self):
        p = LaurentPoly({(0, 0): 1, (1, 1): 5, (2, 2): 1})
        assert p.newton_polygon() == [(0, 0), (2, 2)]

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            LaurentPoly.zero().newton_polygon()

    def test_convex_hull_square(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0)]
        assert convex_hull(pts) == [(0, 0), (2, 0), (2, 2), (0, 2)]


class TestSerialization:
    def test_sorted_graded_lex(self):
        # grade first, then e1: (1,1) precedes (2,0)
        p = LaurentPoly({(2, 0): 1, (0, 1): 1, (1, 1): 1})
        assert p._sorted_keys() == [(0, 1), (1, 1), (2, 0)]


class TestStr:
    def test_readable(self):
        p = LaurentPoly({(1, 3): 1, (0, 0): -2, (-1, 0): 3})
        assert str(p) == "t1 t2^3 - 2 + 3 t1^-1"

    def test_zero(self):
        assert str(LaurentPoly.zero()) == "0"


@given(polys, polys)
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@settings(max_examples=60)
@given(polys, polys, polys)
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, nonzero_polys)
def test_divide_inverts_multiply(p, q):
    assert (p * q).exact_divide(q) == p


@given(polys, polys)
def test_evaluate_is_multiplicative(p, q):
    a, b = Fraction(3, 2), Fraction(-2, 5)
    assert evaluate(p * q, a, b) == evaluate(p, a, b) * evaluate(q, a, b)


@given(nonzero_polys, st.integers(min_value=1, max_value=3))
def test_polygon_scales_with_power(p, k):
    scaled = p.substitute_power(k).newton_polygon()
    assert scaled == [(k * x, k * y) for x, y in p.newton_polygon()]


@given(polys, st.tuples(exponents, exponents))
def test_symmetrize_centers_mirrored_supports(p, shift):
    # a polynomial whose support and coefficients mirror through the
    # origin stays inversion invariant after centering any translate
    q = LaurentPoly(list(p.items())
                    + [((-e1, -e2), c) for (e1, e2), c in p.items()])
    if not q:
        return
    moved = q.shift(shift[0], shift[1])
    centered, used = moved.symmetrize()
    for (e1, e2), c in centered.items():
        assert centered.coefficient(-e1, -e2) == c
    assert centered.shift(used[0], used[1]) == moved


def minkowski_polygon(factors):
    """Oracle: the centered product's polygon as the Minkowski sum of the
    factors' polygons (Ostrowski), re-hulled once per factor."""
    hull = [(0, 0)]
    for factor in factors:
        hull = convex_hull([(a1 + b1, a2 + b2) for a1, a2 in hull
                            for b1, b2 in factor.newton_polygon()])
    s1, s2 = _center(factors)
    return [(e1 - s1, e2 - s2) for e1, e2 in hull]


def _centered_product_polygon(factors):
    """Oracle: expand the product, center it, take its polygon."""
    return reduce(mul, factors, LaurentPoly.one()).symmetrize()[0] \
        .newton_polygon()


def zonotope_polygon(factors):
    return FactoredDelta(factors).newton_polygon()


@given(st.lists(line_polys, max_size=4))
def test_product_polygon_is_the_expanded_one(factors):
    got = centering_outcome(zonotope_polygon, factors)
    assert got == centering_outcome(_centered_product_polygon, factors)
    assert got == centering_outcome(minkowski_polygon, factors)


@given(st.lists(line_polys, max_size=4))
def test_expansion_carries_its_polygon(factors):
    try:
        delta = FactoredDelta(factors).expand()
    except OddSpan:
        return
    assert delta._hull is not None
    assert delta.newton_polygon() == convex_hull(delta.support())


def cyclotomic_line(shift, w, gs):
    """t^shift · Π (t^(g·w) − 1) over g in gs: a polynomial on the line
    through t^shift along w, as each Alexander factor is one on its
    kernel line."""
    poly = LaurentPoly.monomial(*shift)
    for g in gs:
        poly = poly * LaurentPoly({(g * w[0], g * w[1]): 1, (0, 0): -1})
    return poly


small = st.integers(min_value=-3, max_value=3)
cyclotomic_lines = st.builds(
    cyclotomic_line, st.tuples(exponents, exponents),
    st.tuples(small, small).filter(lambda w: gcd(*w) == 1),
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3))


@given(st.lists(cyclotomic_lines, min_size=1, max_size=4))
def test_cyclotomic_factors_give_the_expanded_polygon_and_count(factors):
    # t^w - 1, w the parities of the spans, makes both spans even, so the
    # product centers
    parities = [sum(max(e[k] for e in f.support())
                    - min(e[k] for e in f.support()) for f in factors) % 2
                for k in (0, 1)]
    if any(parities):
        factors.append(cyclotomic_line((0, 0), parities, [1]))
    delta = FactoredDelta(factors)
    product = delta.expand()
    assert product.newton_polygon() == convex_hull(product.support())
    assert delta.term_count() == len(product)


def symmetrized_product(factors):
    """Oracle: expand the product, center it with symmetrize, and negate
    it when its leading coefficient is negative."""
    centered = reduce(mul, factors).symmetrize()[0]
    return -centered if centered.leading_term()[1] < 0 else centered


def expanded(factors):
    return FactoredDelta(factors).expand()


def centering_outcome(route, factors):
    """route(factors), or the OddSpan's message, polynomial and shift."""
    try:
        return route(factors)
    except OddSpan as exc:
        return ("OddSpan", str(exc), reduce(mul, exc.factors), exc.shift)


@given(st.lists(nonzero_polys, min_size=1, max_size=4))
def test_centered_product_is_the_expanded_one(factors):
    # the coefficient and exponent ranges give negative leading
    # coefficients and odd spans, which no parsed diagram's factors have.
    # Only the centering and sign are checked: these factors need not lie
    # on lines, so the polygon FactoredDelta gives them is unspecified
    assert centering_outcome(expanded, factors) == \
        centering_outcome(symmetrized_product, factors)


def test_centered_product_refuses_more_than_max_terms(monkeypatch):
    # Π len(factor) = 9 bounds the product's terms; here it is exact.
    trinomial = LaurentPoly({(1, 1): 1, (0, 0): 1, (-1, -1): 1})
    factors = [trinomial, trinomial.substitute_power(3)]
    monkeypatch.setattr(laurent, "MAX_TERMS", 9)
    assert len(expanded(factors)) == 9
    monkeypatch.setattr(laurent, "MAX_TERMS", 8)
    with pytest.raises(TooLarge, match="could have 9 terms, more than 8"):
        expanded(factors)



# ------------------------------------------------ the cached graded-lex order
# The term order used to be sorted anew by every reader; these oracles are
# those readers as they were, each with its own full sort.

def oracle_grlex_key(e):
    return (e[0] + e[1], e[0], e[1])


def oracle_sorted_terms(p):
    return sorted(p.items(), key=lambda t: oracle_grlex_key(t[0]))


def oracle_str(p):
    if not p:
        return "0"

    def mono(e1, e2):
        bits = []
        if e1:
            bits.append("t1" if e1 == 1 else "t1^%d" % e1)
        if e2:
            bits.append("t2" if e2 == 1 else "t2^%d" % e2)
        return " ".join(bits)

    pieces = []
    ordered = sorted(p.items(), key=lambda t: oracle_grlex_key(t[0]),
                     reverse=True)
    for (e1, e2), c in ordered:
        m = mono(e1, e2)
        if not m:
            body = str(abs(c))
        elif abs(c) == 1:
            body = m
        else:
            body = "%d %s" % (abs(c), m)
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += " %s %s" % (sign, body)
    return text


def assert_order_matches_oracles(p):
    """Every reader of the cached order, read twice, against the oracles,
    and the leading term against the oracle's last term."""
    terms = oracle_sorted_terms(p)
    text = oracle_str(p)
    if p:
        assert p.leading_term() == terms[-1]
    for _ in range(2):
        assert [(e, p.coefficient(*e)) for e in p._sorted_keys()] == terms
        assert str(p) == text


order_coefficients = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-10 ** 40, max_value=10 ** 40))
order_polys = st.one_of(
    st.dictionaries(st.tuples(exponents, exponents), order_coefficients,
                    max_size=12),
    st.dictionaries(st.just((0, 0)), order_coefficients, max_size=1),
    st.dictionaries(st.tuples(exponents, exponents), order_coefficients,
                    min_size=1, max_size=1)).map(LaurentPoly)


@given(order_polys)
def test_cached_order_matches_the_full_sorts(p):
    assert_order_matches_oracles(p)


@given(order_polys, order_polys, st.tuples(exponents, exponents),
       st.integers(min_value=1, max_value=3))
def test_derived_polynomials_get_their_own_order(p, q, shift, k):
    # p's order is cached first; nothing derived from p may reuse it
    p._sorted_keys()
    q._sorted_keys()
    for derived in (-p, p.shift(*shift), p * q, q * p,
                    p.substitute_power(k)):
        assert derived is p or derived._order is None
        assert_order_matches_oracles(derived)
    assert_order_matches_oracles(p)


@given(order_polys.filter(bool), st.tuples(exponents, exponents),
       st.integers(min_value=1, max_value=3))
def test_maps_of_the_support_carry_the_polygon(p, shift, k):
    def derived():
        q = -p
        return [q, p.shift(*shift), p.substitute_power(k),
                (-q).shift(*shift).substitute_power(k)]

    # nothing is hulled for a polynomial that has no polygon yet
    assert all(q is p or q._hull is None for q in derived())
    p.newton_polygon()
    for q in derived():
        assert q._hull is not None
        assert q.newton_polygon() == convex_hull(q.support())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cached_order_on_the_chain(n):
    assert_order_matches_oracles(alexander_polynomial(build_k2n(n)))


def test_cached_order_on_random_diagrams():
    built = 0
    for seed in range(400):
        try:
            delta = alexander_polynomial(random_diagram(seed))
        except ComputationError:
            continue
        assert_order_matches_oracles(delta)
        built += 1
    assert built == 194
