import io
import random
from contextlib import redirect_stdout
from functools import reduce
from operator import mul
from pathlib import Path

import pytest

from splicelink.cli import main
from splicelink.errors import ComputationError
from splicelink.invariants import (ZeroSlope, alexander_factors,
                                   alexander_polynomial, boundary_slope,
                                   is_fibered, nonfibered_rays, thurston_norm)
from splicelink.laurent import (FactoredDelta, LaurentPoly, NotDivisible,
                                OddSpan, convex_hull)
from splicelink.splice import build_k2n, parse_diagram, render_diagram
from splicelink.swtheory import sw_polynomial
from oracles import IndexOutOfRange, closed_form_ray_norm, evaluate
from test_laurent import (centering_outcome, expanded, minkowski_polygon,
                          symmetrized_product)
from test_splice import random_diagram


def trinomial(a, b):
    return LaurentPoly({(a, b): 1, (0, 0): 1, (-a, -b): 1})


def family_product(n):
    """Direct expansion of the factored Alexander polynomial of the
    2n-node chain, used as an independent oracle."""
    out = LaurentPoly.one()
    for i in range(1, 2 * n + 1):
        out = out * trinomial(3 ** (i - 1), 3 ** (2 * n - i))
    return out


class TestIsFibered:
    def test_diagonal_class(self, k4):
        assert is_fibered(k4, (1, 1))

    def test_ray_class_is_not(self, k4):
        assert not is_fibered(k4, (27, -1))

    def test_zero_class(self, k4):
        assert not is_fibered(k4, (0, 0))

    def test_matches_ray_membership(self, k4):
        rays = [r.primitive for r in nonfibered_rays(k4)]
        for m1 in range(-12, 13):
            for m2 in range(-12, 13):
                on_ray = (m1, m2) == (0, 0) or any(
                    p[0] * m2 - p[1] * m1 == 0 for p in rays)
                assert is_fibered(k4, (m1, m2)) == (not on_ray)


class TestThurstonNorm:
    def test_golden_values(self, k4):
        assert thurston_norm(k4, (27, -1)) == 2080
        assert thurston_norm(k4, (3, -1)) == 256

    def test_zero_class(self, k4):
        assert thurston_norm(k4, (0, 0)) == 0

    def test_diagonal_against_support_width(self, k4, delta_k4):
        # independent route: twice the maximal pairing with a vertex of
        # the expanded support's hull (delta_k4 carries the factors' walk)
        hull = convex_hull(delta_k4.support())
        expected = 2 * max(x + y for x, y in hull)
        assert expected == 160
        assert thurston_norm(k4, (1, 1)) == expected

    def test_homogeneity(self, k4):
        for m in [(1, 1), (27, -1), (2, 5), (-3, 7)]:
            base = thurston_norm(k4, m)
            for k in (-3, -1, 2, 4):
                assert thurston_norm(k4, (k * m[0], k * m[1])) == \
                    abs(k) * base

    def test_swap_symmetry(self, k4):
        for m in [(1, 2), (5, -3), (10, 1), (4, 4)]:
            assert thurston_norm(k4, m) == thurston_norm(k4, (m[1], m[0]))
            assert thurston_norm(k4, m) == \
                thurston_norm(k4, (-m[1], -m[0]))


class TestNonfiberedRays:
    def test_k4_rays(self, k4):
        rays = nonfibered_rays(k4)
        assert [r.primitive for r in rays] == \
            [(27, -1), (3, -1), (1, -3), (1, -27)]
        assert [r.norm for r in rays] == [2080, 256, 256, 2080]

    def test_k2_rays(self, k2):
        # closed form at n=1: 3^3 + 3 + 3^2 - 2*3 - 2*3^2 + 1 = 16
        rays = nonfibered_rays(k2)
        assert [(r.primitive, r.norm) for r in rays] == \
            [((3, -1), 16), ((1, -3), 16)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ray_count_is_2n(self, n):
        assert len(nonfibered_rays(build_k2n(n))) == 2 * n


class TestAlexanderPolynomial:
    def test_k2_is_the_two_factor_product(self, delta_k2):
        assert delta_k2 == trinomial(1, 3) * trinomial(3, 1)

    def test_family_symmetries(self, delta_k4):
        for (e1, e2), c in delta_k4.items():
            assert delta_k4.coefficient(e2, e1) == c
            assert delta_k4.coefficient(-e1, -e2) == c

    def test_value_at_one_equals_linking_number(self, delta_k4):
        assert evaluate(delta_k4, 1, 1) == 81

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_direct_expansion(self, n):
        assert alexander_polynomial(build_k2n(n)) == family_product(n)


def dense_alexander(d):
    """Oracle: multiply every node binomial into one dense product, then
    divide every boundary binomial out of the whole of it."""
    numerator = LaurentPoly.one()
    denominators = []
    for _v, a, b, deg in d.virtual_forms():
        factor = LaurentPoly({(a, b): 1, (0, 0): -1})
        if deg >= 3:
            for _ in range(deg - 2):
                numerator = numerator * factor
        elif deg == 1:
            denominators.append(factor)
    for factor in denominators:
        numerator = numerator.exact_divide(factor)
    centered, _shift = numerator.symmetrize()
    if centered.leading_term()[1] < 0:
        centered = -centered
    return centered


def outcome(f, d):
    """The value of f(d), or the name of the error type it raises."""
    try:
        return f(d)
    except ComputationError as exc:
        return type(exc).__name__


class TestAlexanderFactors:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chain_equals_dense_product(self, n):
        d = build_k2n(n)
        assert alexander_polynomial(d) == dense_alexander(d)

    def test_random_diagrams_equal_dense_product(self):
        tally = {}
        for seed in range(400):
            d = random_diagram(seed)
            got = outcome(alexander_polynomial, d)
            assert got == outcome(dense_alexander, d), seed
            kind = got if isinstance(got, str) else "value"
            tally[kind] = tally.get(kind, 0) + 1
        assert tally == {"value": 194, "NotDivisible": 74, "OddSpan": 132}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chain_factors_are_trinomials_in_index_order(self, n):
        centered = [f.symmetrize()[0]
                    for f in alexander_factors(build_k2n(n))]
        assert centered == [trinomial(3 ** (i - 1), 3 ** (2 * n - i))
                            for i in range(1, 2 * n + 1)]

    def test_one_factor_per_ray_on_its_kernel_line(self):
        diagrams = [build_k2n(3)] + [random_diagram(s) for s in range(100)]
        checked = 0
        for d in diagrams:
            factors = outcome(alexander_factors, d)
            if isinstance(factors, str):
                continue
            rays = nonfibered_rays(d)
            assert len(factors) == len(rays)
            for f, ray in zip(factors, rays):
                p = ray.primitive
                assert all(e1 * p[0] + e2 * p[1] == 0
                           for e1, e2 in f.support())
            checked += 1
        assert checked > 50


class TestLineQuotientCheck:
    """NotDivisible from the cyclotomic exponents, before any product."""

    def test_not_divisible_before_any_product(self, monkeypatch):
        # the dense product of found20.sd's node binomials does not fit in
        # memory; the golden CLI rows pin its NotDivisible
        found20 = Path(__file__).parent / "data" / "found20.sd"
        diagrams = [parse_diagram(found20.read_text())]
        diagrams += [d for d in map(random_diagram, range(400))
                     if outcome(dense_alexander, d) == "NotDivisible"]
        products = []
        real_mul = LaurentPoly.__mul__

        def counting_mul(self, other):
            products.append(1)
            return real_mul(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
        for d in diagrams:
            with pytest.raises(NotDivisible,
                               match="^no exact Laurent quotient$"):
                alexander_factors(d)
        assert len(diagrams) == 75
        assert products == []


class Uncertified(Exception):
    pass


def certified_count(factors):
    """FactoredDelta(factors).term_count() read off the factors' supports,
    or None when it would fall back on expanding the product."""
    def refuse(_self):
        raise Uncertified

    delta = FactoredDelta(factors)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FactoredDelta, "expand", refuse)
        try:
            return delta.term_count()
        except Uncertified:
            return None


class TestMixedRadixCount:
    """len(Δ) = Π len(factor), certified from the factors' supports."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_chain(self, n):
        factors = alexander_factors(build_k2n(n))
        count = certified_count(factors)
        assert count == len(expanded(factors)) == 3 ** (2 * n)

    def test_random_diagrams(self):
        with_delta = certified = 0
        for seed in range(400):
            factors = outcome(alexander_factors, random_diagram(seed))
            delta = outcome(expanded, factors) \
                if not isinstance(factors, str) else factors
            if isinstance(delta, str):
                continue
            with_delta += 1
            assert FactoredDelta(factors).term_count() == len(delta), seed
            if certified_count(factors) is not None:
                certified += 1
        assert (with_delta, certified) == (194, 182)

    def test_uncertified_supports(self):
        # (1 + x)^2 has 3 terms, not 4; so does every projection of it
        x = LaurentPoly({(1, 1): 1, (0, 0): 1})
        assert certified_count([x, x]) is None
        assert FactoredDelta([x, x]).term_count() == len(x * x) == 3
        # a collision on e1 alone, resolved on e2
        z = LaurentPoly({(1, 3): 1, (0, 0): 1})
        assert certified_count([x, z]) == len(x * z) == 4

    def test_certified_on_e2_alone(self):
        # 1 + t2 + t2^2 collapses onto e1 = 0, so only e2 certifies
        y = LaurentPoly({(0, 0): 1, (0, 1): 1, (0, 2): 1})
        w = LaurentPoly({(0, 0): 1, (2, 4): 1})
        assert certified_count([y, w]) == len(y * w) == 6


def factored_hull(d):
    return FactoredDelta(alexander_factors(d)).newton_polygon()


def minkowski_hull(d):
    return minkowski_polygon(alexander_factors(d))


def hull_outcome(route, d):
    """route(d), or the type and message of the error it raises, with the
    polynomial and shift an OddSpan carries."""
    try:
        return route(d)
    except ComputationError as exc:
        carried = (reduce(mul, exc.factors), exc.shift) \
            if isinstance(exc, OddSpan) else None
        return (type(exc).__name__, str(exc), carried)


class TestFactoredHull:
    """The zonotope walk against two oracles: the Minkowski sum of the
    factors' polygons, re-hulled once per factor, and the hull of the
    expanded Δ's support wherever Δ has at most MAX_TERMS terms.  Δ and
    its SW polynomial carry the walk as their polygon, so the oracle
    hulls their supports directly."""

    def assert_routes_agree(self, d):
        got = hull_outcome(factored_hull, d)
        assert got == hull_outcome(minkowski_hull, d)
        delta = hull_outcome(alexander_polynomial, d)
        if isinstance(delta, LaurentPoly):
            assert got == convex_hull(delta.support())
            # one more hull of 3^12 points would add 2.5 s at chain n = 6
            if len(delta) < 3 ** 12:
                assert [(2 * e1, 2 * e2) for e1, e2 in got] == \
                    convex_hull(sw_polynomial(delta).support())
        elif delta[0] != "TooLarge":
            assert got == delta
        return got

    @pytest.mark.parametrize("n", range(1, 13))
    def test_chain(self, n):
        hull = self.assert_routes_agree(build_k2n(n))
        assert len(hull) == 4 * n  # a zonotope of 2n distinct segments

    def test_random_diagrams(self):
        tally = {}
        for seed in range(2000):
            got = self.assert_routes_agree(random_diagram(seed))
            kind = "value" if isinstance(got, list) else got[0]
            tally[kind] = tally.get(kind, 0) + 1
        assert tally == {"value": 1072, "NotDivisible": 307, "OddSpan": 621}


class TestCenteredProduct:
    """Δ centered and signed from its factors against expanding the
    product, symmetrizing it and fixing its sign."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_chain(self, n):
        factors = alexander_factors(build_k2n(n))
        assert expanded(factors) == symmetrized_product(factors)

    def test_random_diagrams(self):
        tally = {}
        for seed in range(400):
            factors = outcome(alexander_factors, random_diagram(seed))
            if isinstance(factors, str):
                tally[factors] = tally.get(factors, 0) + 1
                continue
            got = centering_outcome(expanded, factors)
            assert got == centering_outcome(symmetrized_product, factors), \
                seed
            kind = got[0] if isinstance(got, tuple) else "value"
            tally[kind] = tally.get(kind, 0) + 1
        assert tally == {"value": 194, "NotDivisible": 74, "OddSpan": 132}


def shuffled_family_text(n, seed):
    """The DSL of the 2n-node chain with its declarations and edges
    shuffled and edges flipped at random; K1 stays declared before K2,
    which is how the family is recognised."""
    rng = random.Random(seed)
    lines = render_diagram(build_k2n(n)).splitlines()
    decls = [x for x in lines[1:] if not x.startswith("edge ")]
    edges = [x for x in lines[1:] if x.startswith("edge ")]
    rng.shuffle(decls)
    i, j = decls.index("arrow K1"), decls.index("arrow K2")
    decls[min(i, j)], decls[max(i, j)] = "arrow K1", "arrow K2"
    flipped = []
    for line in edges:
        _edge, a, b, wa, wb = line.split()
        flipped.append(line if rng.random() < 0.5
                       else "edge %s %s %s %s" % (b, a, wb, wa))
    rng.shuffle(flipped)
    return "\n".join([lines[0]] + decls + flipped) + "\n"


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("command", ["alex", "sw", "report"])
def test_shuffled_family_file_prints_family_text(n, command, tmp_path):
    path = tmp_path / "family.sd"
    path.write_text(shuffled_family_text(n, seed=n), encoding="utf-8")

    def stdout(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        return out.getvalue()

    assert render_diagram(build_k2n(n)) != path.read_text(encoding="utf-8")
    assert stdout([command, str(path)]) == \
        stdout([command, "--family", str(n)])


class TestClosedFormRayNorm:
    def test_outer_ray(self):
        ray, norm = closed_form_ray_norm(2, 1)
        assert ray.primitive == (27, -1)
        assert norm == 2080

    def test_mirror_ray(self):
        ray, norm = closed_form_ray_norm(2, 4)
        assert ray.primitive == (1, -27)
        assert norm == 2080

    def test_smallest_family(self):
        ray, norm = closed_form_ray_norm(1, 1)
        assert ray.primitive == (3, -1)
        assert norm == 16

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_agrees_with_tree_formula(self, n):
        d = build_k2n(n)
        for i in range(1, 2 * n + 1):
            ray, norm = closed_form_ray_norm(n, i)
            assert thurston_norm(d, ray.primitive) == norm

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_monotone_and_mirror(self, n):
        values = [closed_form_ray_norm(n, i)[1] for i in range(1, n + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))
        for i in range(1, n + 1):
            assert closed_form_ray_norm(n, i)[1] == \
                closed_form_ray_norm(n, 2 * n + 1 - i)[1]

    def test_index_range(self):
        with pytest.raises(IndexOutOfRange):
            closed_form_ray_norm(2, 5)
        with pytest.raises(IndexOutOfRange):
            closed_form_ray_norm(2, 0)


class TestBoundarySlope:
    def test_diagonal_class(self, k4):
        s = boundary_slope(k4, (1, 1), 1)
        assert (s.meridian_coeff, s.longitude_coeff) == (-81, 1)
        assert s.divisibility == 1
        assert s.beta_primitive == (-81, 1)

    def test_divisible_slope(self, k2):
        s = boundary_slope(k2, (2, 0), 1)
        assert (s.meridian_coeff, s.longitude_coeff) == (0, 2)
        assert s.divisibility == 2
        assert s.beta_primitive == (0, 1)

    def test_meridian_only(self, k2):
        s = boundary_slope(k2, (0, 1), 1)
        assert (s.meridian_coeff, s.longitude_coeff) == (-9, 0)
        assert s.divisibility == 9
        assert s.beta_primitive == (-1, 0)

    def test_second_component(self, k2):
        s = boundary_slope(k2, (1, 1), 2)
        assert (s.meridian_coeff, s.longitude_coeff) == (-9, 1)

    def test_zero_slope(self, k2):
        with pytest.raises(ZeroSlope):
            boundary_slope(k2, (0, 0), 1)

    def test_factorization_invariant(self, k4):
        for m in [(1, 1), (2, 0), (0, 3), (4, -6)]:
            for i in (1, 2):
                s = boundary_slope(k4, m, i)
                assert (s.meridian_coeff, s.longitude_coeff) == \
                    (s.divisibility * s.beta_primitive[0],
                     s.divisibility * s.beta_primitive[1])
                assert s.divisibility > 0
