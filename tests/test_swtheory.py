import os
import resource
import subprocess
import sys
from itertools import combinations
from math import gcd, prod
from pathlib import Path

import pytest
from test_splice import random_diagram

import splicelink
from splicelink import laurent, swtheory
from splicelink.cli import build_report
from splicelink.errors import ComputationError
from splicelink.invariants import (alexander_factors, alexander_polynomial,
                                   thurston_norm)
from splicelink.laurent import (MAX_TERMS, FactoredDelta, LaurentPoly,
                                OddSpan, TooLarge, ZeroPolynomial,
                                convex_hull)
from splicelink.orbits import (face_orbits, lattice_symmetries,
                               min_structure_count)
from splicelink.polytope import alexander_norm, unit_ball
from splicelink.splice import build_k2n, linking_number
from splicelink.swtheory import (BasicClassSet, basic_classes,
                                 canonical_classes, is_homotopy_k3, sw_norm,
                                 sw_polynomial)


class TestSwPolynomial:
    def test_support_extrema(self, delta_k2):
        sw = sw_polynomial(delta_k2)
        assert (8, 8) in sw.support()
        assert (4, -4) in sw.support()

    def test_constant(self):
        assert sw_polynomial(LaurentPoly.one()) == 1

    def test_polygon_doubles(self, delta_k8):
        # both polygons are carried from the factors; the hull of the SW
        # polynomial's support is the independent side
        sw = sw_polynomial(delta_k8)
        assert convex_hull(sw.support()) == sw.newton_polygon() == \
            [(2 * x, 2 * y) for x, y in delta_k8.newton_polygon()]

    def test_positive_leading_coefficient(self, delta_k2):
        sw = sw_polynomial(-delta_k2)
        assert sw.leading_term()[1] > 0


class TestBasicClasses:
    def test_k2_classes(self, delta_k2):
        bcs = basic_classes(sw_polynomial(delta_k2))
        assert len(bcs) == 9
        for v in [(8, 8), (-8, -8), (4, -4), (-4, 4)]:
            assert v in bcs.classes

    def test_monomial(self):
        bcs = basic_classes(LaurentPoly.monomial(2, -4, 5))
        assert bcs.classes == [(2, -4)]
        assert bcs.coefficients == [5]

    def test_k4_hull(self, delta_k4):
        bcs = basic_classes(sw_polynomial(delta_k4))
        assert set(bcs.hull()) == {
            (80, 80), (76, -28), (64, -64), (28, -76),
            (-80, -80), (-76, 28), (-64, 64), (-28, 76)}

    def test_negation_closed(self, delta_k8):
        bcs = basic_classes(sw_polynomial(delta_k8))
        table = dict(zip(bcs.classes, bcs.coefficients))
        for (e1, e2), c in table.items():
            assert table[(-e1, -e2)] == c

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            basic_classes(LaurentPoly.zero())


class TestSwNorm:
    def test_k4_ray(self, delta_k4):
        bcs = basic_classes(sw_polynomial(delta_k4))
        assert sw_norm(bcs, (27, -1)) == 2080

    def test_zero_class(self, delta_k8):
        bcs = basic_classes(sw_polynomial(delta_k8))
        assert sw_norm(bcs, (0, 0)) == 0

    def test_k2_diagonal(self, k2, delta_k2):
        # maximal pairing is with (8, 8); agrees with the tree norm
        bcs = basic_classes(sw_polynomial(delta_k2))
        assert sw_norm(bcs, (1, 1)) == 16
        assert thurston_norm(k2, (1, 1)) == 16

    def test_three_norms_sampled(self, k8, delta_k8):
        bcs = basic_classes(sw_polynomial(delta_k8))
        for m in [(1, 1), (5, -2), (-9, 4), (27, -1), (0, 7)]:
            tn = thurston_norm(k8, m)
            assert tn == alexander_norm(delta_k8, m)
            assert tn == sw_norm(bcs, m)

    def test_three_norms_sampled_n5(self):
        d = build_k2n(5)
        delta = alexander_polynomial(d)
        bcs = basic_classes(sw_polynomial(delta))
        for m1 in range(-100, 101, 23):
            for m2 in range(-100, 101, 31):
                tn = thurston_norm(d, (m1, m2))
                assert tn == alexander_norm(delta, (m1, m2))
                assert tn == sw_norm(bcs, (m1, m2))


def coprime_at_every_node(d):
    """True iff the edge weights at each node are pairwise coprime."""
    for node in d.nodes:
        weights = [e.weight_a if e.a == node.id else e.weight_b
                   for e in d.edges if node.id in (e.a, e.b)]
        if any(gcd(a, b) != 1 for a, b in combinations(weights, 2)):
            return False
    return True


def lk12(d):
    k1, k2 = d.arrowheads
    return linking_number(d, k1.id, k2.id)


class TestHomotopyK3:
    """A homotopy K3: Δ exists (its factors and centering raise no error)
    and lk(K1, K2) is odd."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_family(self, n):
        d = build_k2n(n)
        FactoredDelta(alexander_factors(d))
        assert is_homotopy_k3(lk12(d))

    def test_even_linking_number_fails(self):
        from splicelink.splice import Edge, SpliceDiagram, Vertex, VertexKind
        d = SpliceDiagram("even", [
            Vertex("H1", VertexKind.NODE),
            Vertex("S1", VertexKind.BOUNDARY),
            Vertex("K1", VertexKind.ARROW),
            Vertex("K2", VertexKind.ARROW),
        ], [
            Edge("H1", "S1", 2, 1),
            Edge("H1", "K1", 1, 1),
            Edge("H1", "K2", 1, 1),
        ])
        assert not is_homotopy_k3(lk12(d))

    def test_checked_from_the_factors_in_bounded_memory(self):
        # Δ of the 16-node chain has 3^16 terms, beyond 1 GiB expanded;
        # existence is read off its 16 trinomial factors.
        def limit_address_space():  # runs in the child only
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        code = ("from splicelink.invariants import alexander_factors\n"
                "from splicelink.laurent import FactoredDelta\n"
                "from splicelink.splice import build_k2n, linking_number\n"
                "from splicelink.swtheory import is_homotopy_k3\n"
                "d = build_k2n(8)\n"
                "FactoredDelta(alexander_factors(d))\n"
                "assert is_homotopy_k3(linking_number(d, 'K1', 'K2'))\n")
        src = str(Path(splicelink.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              preexec_fn=limit_address_space,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_torres_parity_on_coprime_diagrams(self):
        # Torres: Δ's span in each t_i has the parity of lk + 1, so on
        # diagrams with pairwise coprime weights at every node, as graph
        # links in homology spheres have, OddSpan means an even lk and
        # NotDivisible never happens.
        tally = {}
        for seed in range(2000):
            d = random_diagram(seed)
            if not coprime_at_every_node(d):
                continue
            odd = is_homotopy_k3(lk12(d))
            try:
                FactoredDelta(alexander_factors(d))
                outcome = "delta"
            except OddSpan:
                outcome = "OddSpan"
            assert outcome == ("delta" if odd else "OddSpan")
            tally[outcome] = tally.get(outcome, 0) + 1
        assert tally == {"delta": 98, "OddSpan": 29}

    def test_all_classes_even(self, delta_k2):
        sw = sw_polynomial(delta_k2)
        assert all(e1 % 2 == 0 and e2 % 2 == 0 for e1, e2 in sw.support())

    def test_report_agrees_with_the_check(self):
        # the report is built only once Δ exists; its homotopy_k3 does not
        # read Δ, so None stands for it and the chain past MAX_TERMS counts
        tally = {}
        for d in ([build_k2n(n) for n in range(1, 13)]
                  + [random_diagram(seed) for seed in range(400)]):
            try:
                FactoredDelta(alexander_factors(d))
                report = build_report(d, None, None)
            except ComputationError:
                continue
            assert report.homotopy_k3 == is_homotopy_k3(lk12(d)), d.name
            tally[report.homotopy_k3] = tally.get(report.homotopy_k3, 0) + 1
        assert tally == {True: 21, False: 50}


class TestTheChainOverItsFullRange:
    """The paper's count and two identities read off Δ's factors, on the
    2n-node chain for n = 1..200.  The identities partly follow from the
    Eisenbud-Neumann product itself, so these check the implementation
    (quotients, centering, sweep, orbits), not the theory."""

    def test_papers_count(self):
        for n in range(1, 201):
            d = build_k2n(n)
            FactoredDelta(alexander_factors(d))
            assert is_homotopy_k3(lk12(d)), n
            assert min_structure_count(d) == n + 1, n

    def test_torres_coefficient_sums(self):
        # Δ(1, 1) = ±lk(K1, K2) (Torres), read as the product of the
        # factors' coefficient sums, so it holds where centering fails
        diagrams = ([build_k2n(n) for n in range(1, 201)]
                    + [random_diagram(seed) for seed in range(2000)])
        checked = 0
        for d in diagrams:
            try:
                factors = alexander_factors(d)
            except ComputationError:
                continue
            k1, k2 = d.arrowheads
            value = prod(sum(c for _e, c in f.items()) for f in factors)
            assert abs(value) == abs(linking_number(d, k1.id, k2.id)), d.name
            checked += 1
        assert checked == 200 + 1693

    def test_chain_factors_end_in_units(self):
        for n in range(1, 201):
            for f in alexander_factors(build_k2n(n)):
                order = f._sorted_keys()
                assert abs(f.coefficient(*order[0])) == \
                    abs(f.coefficient(*order[-1])) == 1, n

    def test_coprime_random_factors_end_in_units(self):
        """Fibred faces are monic: on the random diagrams with pairwise
        coprime weights at every node whose factors exist, each factor's
        lowest and highest graded-lex coefficients are units.  This
        checks the implementation (the quotients), not the theory."""
        checked = 0
        for seed in range(2000):
            d = random_diagram(seed)
            if not coprime_at_every_node(d):
                continue
            try:
                factors = alexander_factors(d)
            except ComputationError:
                continue
            for f in factors:
                order = f._sorted_keys()
                assert abs(f.coefficient(*order[0])) == \
                    abs(f.coefficient(*order[-1])) == 1, seed
            checked += 1
        assert checked == 127


class TestCanonicalClasses:
    def test_k4_divisibilities(self, k4):
        canon = canonical_classes(unit_ball(k4))
        assert len(canon) == 8
        table = {c.klass: c.divisibility for c in canon}
        assert table[(80, 80)] == 80
        assert table[(76, -28)] == 4
        assert table[(64, -64)] == 64
        assert table[(-76, 28)] == 4

    def test_k2_classes(self, k2):
        canon = canonical_classes(unit_ball(k2))
        table = {c.klass: c.divisibility for c in canon}
        assert table == {(8, 8): 8, (4, -4): 4, (-8, -8): 8, (-4, 4): 4}

    def test_k8_divisibility_collision(self):
        # the doubled second and fourth outer duals share divisibility 4,
        # so divisibility separates at most 4 of the n+1 = 5 orbit classes
        canon = canonical_classes(unit_ball(build_k2n(4)))
        table = {c.klass: c.divisibility for c in canon}
        five = [table[(2 * x, 2 * y)] for x, y in
                [(3280, 3280), (3278, -1094), (3272, -2552),
                 (3254, -3038), (3200, -3200)]]
        assert five == [6560, 4, 16, 4, 6400]
        assert len(set(five)) == 4

    def test_classes_are_hull_vertices(self, k8, delta_k8):
        canon = canonical_classes(unit_ball(k8))
        hull = set(basic_classes(sw_polynomial(delta_k8)).hull())
        assert {c.klass for c in canon} == hull

    def test_positive_pairing_with_cone(self, k8):
        for c in canonical_classes(unit_ball(k8)):
            mid = (c.face.ray_lo.primitive[0] + c.face.ray_hi.primitive[0],
                   c.face.ray_lo.primitive[1] + c.face.ray_hi.primitive[1])
            assert c.klass[0] * mid[0] + c.klass[1] * mid[1] > 0


    @staticmethod
    def divisibility_count(ball):
        return len({c.divisibility for c in canonical_classes(ball)})

    def test_divisibilities_bound_the_chain_orbits(self):
        # divisibility is constant on face orbits, so the number of
        # distinct divisibilities is a second, weaker lower bound
        counts = [(self.divisibility_count(unit_ball(build_k2n(n))),
                   min_structure_count(build_k2n(n))) for n in range(1, 6)]
        assert counts == [(2, 2), (3, 3), (4, 4), (4, 5), (4, 6)]

    def test_divisibilities_bound_the_random_orbits(self):
        balls = strict = 0
        for seed in range(2000):
            try:
                ball = unit_ball(random_diagram(seed))
            except ComputationError:
                continue
            bound = self.divisibility_count(ball)
            orbits = face_orbits(ball, lattice_symmetries(ball)).orbit_count
            assert bound <= orbits
            balls += 1
            strict += bound < orbits
        assert (balls, strict) == (741, 656)


def delta_or_none(d):
    try:
        return alexander_polynomial(d)
    except ComputationError:
        return None


class TestPolygonsFromTheFactors:
    """Δ carries its factors' zonotope as its polygon, the SW polynomial
    carries it doubled and the basic classes take it as their hull: each
    against a fresh hull of the expanded support."""

    @staticmethod
    def assert_fresh(delta):
        # the basic classes are Δ's exponents doubled and hull(2S) =
        # 2 hull(S), vertex order included, so the support is hulled once
        fresh = convex_hull(delta.support())
        assert delta.newton_polygon() == fresh
        bcs = basic_classes(sw_polynomial(delta))
        assert bcs.classes == [(2 * x, 2 * y)
                               for x, y in delta._sorted_keys()]
        assert bcs.hull() == [(2 * x, 2 * y) for x, y in fresh]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_chain(self, n):
        if 3 ** (2 * n) > MAX_TERMS:
            with pytest.raises(TooLarge):
                alexander_polynomial(build_k2n(n))
        else:
            self.assert_fresh(alexander_polynomial(build_k2n(n)))

    def test_random_diagrams(self):
        deltas = [delta for delta in map(delta_or_none,
                                         map(random_diagram, range(400)))
                  if delta is not None]
        for delta in deltas:
            self.assert_fresh(delta)
        assert len(deltas) == 194

    def test_no_support_is_hulled(self, monkeypatch):
        def refuse(points):
            raise AssertionError("convex_hull called")

        monkeypatch.setattr(laurent, "convex_hull", refuse)
        monkeypatch.setattr(swtheory, "convex_hull", refuse)
        d = build_k2n(5)
        delta = alexander_polynomial(d)
        assert len(delta.newton_polygon()) == 20
        sw = sw_polynomial(delta)
        bcs = basic_classes(sw)
        assert bcs.hull() == sw.newton_polygon()
        for m in [(1, 1), (3 ** 9, -1), (2, -7)]:
            assert thurston_norm(d, m) == alexander_norm(delta, m) \
                == sw_norm(bcs, m)


class TestMcMullenOnRandomDiagrams:
    """thurston_norm equals the Alexander width max - min of m.e over Δ's
    support (McMullen), on an 11 x 11 class grid, for every random
    diagram whose factors exist, read as the sum of the factors' widths
    (widths add under Minkowski sums), so nothing is expanded or
    centered.  Both sides come from the Eisenbud-Neumann data of the same
    diagram, so this checks the implementation (quotients, forms, norm),
    not the theory."""

    def test_grid(self):
        grid = [(m1, m2) for m1 in range(-5, 6) for m2 in range(-5, 6)]
        checked = 0
        for seed in range(2000):
            d = random_diagram(seed)
            try:
                factors = alexander_factors(d)
            except ComputationError:
                continue
            supports = [list(f.support()) for f in factors]
            for m1, m2 in grid:
                width = 0
                for support in supports:
                    values = [m1 * e1 + m2 * e2 for e1, e2 in support]
                    width += max(values) - min(values)
                assert thurston_norm(d, (m1, m2)) == width, (seed, m1, m2)
            checked += 1
        assert checked == 1693


class TestBasicClassSetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BasicClassSet([(0, 0)], [1, 2])

    def test_zero_coefficient(self):
        with pytest.raises(ValueError):
            BasicClassSet([(0, 0)], [0])
