"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact, so every comparison is equality; the stated
runtime budgets are asserted where given.  Run with ``pytest -v`` (or
``-s`` to see the PASS lines while running).
"""

import json
import random
import time

from splicelink.cli import main
from splicelink.invariants import (alexander_polynomial, boundary_slope,
                                   thurston_norm)
from splicelink.laurent import LaurentPoly, convex_hull
from splicelink.orbits import (face_orbits, lattice_symmetries,
                               min_structure_count)
from splicelink.polytope import alexander_norm, divisibility, unit_ball
from splicelink.splice import (build_k2n, linking_number, parse_diagram,
                               render_diagram)
from splicelink.swtheory import basic_classes, sw_norm, sw_polynomial
from oracles import check_duality, closed_form_ray_norm, evaluate


def _passed(number, label, elapsed, limit=None):
    if limit is not None:
        assert elapsed < limit, \
            "criterion %d exceeded %.0fs (took %.2fs)" % (number, limit,
                                                          elapsed)
        print("criterion %d PASS (%.2fs < %.0fs): %s"
              % (number, elapsed, limit, label))
    else:
        print("criterion %d PASS (%.2fs): %s" % (number, elapsed, label))


def trinomial(a, b):
    return LaurentPoly({(a, b): 1, (0, 0): 1, (-a, -b): 1})


def test_criterion_01_linking_matrix():
    start = time.monotonic()
    for n in range(1, 6):
        d = build_k2n(n)
        assert linking_number(d, "K1", "K2") == 3 ** (2 * n)
        for i in range(1, 2 * n + 1):
            assert linking_number(d, "K1", "H%d" % i) == 3 ** i
            assert linking_number(d, "K2", "H%d" % i) == 3 ** (2 * n - i + 1)
            assert linking_number(d, "K1", "S%d" % i) == 3 ** (i - 1)
            assert linking_number(d, "K2", "S%d" % i) == 3 ** (2 * n - i)
    _passed(1, "linking matrices for n = 1..5", time.monotonic() - start, 1.0)


def test_criterion_02_n2_golden_values():
    start = time.monotonic()
    d = build_k2n(2)
    assert thurston_norm(d, (27, -1)) == 2080
    assert thurston_norm(d, (3, -1)) == 256
    assert thurston_norm(d, (1, -3)) == 256
    assert thurston_norm(d, (1, -27)) == 2080
    ball = unit_ball(d)
    duals = {(int(f.dual[0]), int(f.dual[1])) for f in ball.faces}
    expected = set()
    for v in [(40, 40), (38, -14), (32, -32), (14, -38)]:
        expected.add(v)
        expected.add((-v[0], -v[1]))
    assert duals == expected
    assert check_duality(ball, convex_hull(alexander_polynomial(d).support()))
    _passed(2, "n = 2 norms, dual vertices, ball/hull duality",
            time.monotonic() - start, 1.0)


def test_criterion_03_n4_golden_values():
    start = time.monotonic()
    d = build_k2n(4)
    ball = unit_ball(d)
    duals = [(int(f.dual[0]), int(f.dual[1])) for f in ball.faces]
    listed = [(3280, 3280), (3278, -1094), (3272, -2552), (3254, -3038),
              (3200, -3200)]
    for v in listed:
        assert v in duals
    divs = [divisibility(v) for v in listed]
    assert divs[1] == divs[3] == 2
    assert len(set(divs)) == 4
    _passed(3, "n = 4 dual vertices and divisibility counts",
            time.monotonic() - start, 10.0)


def test_criterion_04_norm_coincidence_exhaustive():
    start = time.monotonic()
    for n in range(1, 5):
        d = build_k2n(n)
        delta = alexander_polynomial(d)
        bcs = basic_classes(sw_polynomial(delta))
        for m1 in range(-100, 101):
            for m2 in range(-100, 101):
                m = (m1, m2)
                tn = thurston_norm(d, m)
                assert tn == alexander_norm(delta, m)
                assert tn == sw_norm(bcs, m)
    _passed(4, "three norms coincide for n <= 4, |m_i| <= 100",
            time.monotonic() - start, 60.0)


def test_criterion_05_closed_forms():
    start = time.monotonic()
    for n in range(1, 7):
        d = build_k2n(n)
        for i in range(1, 2 * n + 1):
            ray, norm = closed_form_ray_norm(n, i)
            assert thurston_norm(d, ray.primitive) == norm
        outer = [closed_form_ray_norm(n, i)[1] for i in range(1, n + 1)]
        assert all(a > b for a, b in zip(outer, outer[1:]))
        for i in range(1, n + 1):
            assert closed_form_ray_norm(n, i)[1] == \
                closed_form_ray_norm(n, 2 * n + 1 - i)[1]
    _passed(5, "closed-form ray norms for n <= 6, monotone and mirrored",
            time.monotonic() - start)


def test_criterion_06_alexander_structure():
    start = time.monotonic()
    for n in range(1, 6):
        delta = alexander_polynomial(build_k2n(n))
        product = LaurentPoly.one()
        for i in range(1, 2 * n + 1):
            product = product * trinomial(3 ** (i - 1), 3 ** (2 * n - i))
        assert delta == product
        for (e1, e2), c in delta.items():
            assert delta.coefficient(e2, e1) == c
            assert delta.coefficient(-e1, -e2) == c
        assert evaluate(delta, 1, 1) == 3 ** (2 * n)
    _passed(6, "Alexander polynomial structure for n <= 5",
            time.monotonic() - start)


def test_criterion_07_evenness():
    start = time.monotonic()
    for n in range(1, 6):
        sw = sw_polynomial(alexander_polynomial(build_k2n(n)))
        assert all(e1 % 2 == 0 and e2 % 2 == 0 for e1, e2 in sw.support())
    _passed(7, "all SW basic classes even for n <= 5",
            time.monotonic() - start)


def test_criterion_08_orbit_bound():
    start = time.monotonic()
    sample = [(m1, m2) for m1 in range(-50, 51, 13)
              for m2 in range(-50, 51, 17)]
    for n in range(1, 6):
        d = build_k2n(n)
        ball = unit_ball(d)
        maps = lattice_symmetries(ball)
        assert len(maps) == 4
        for m in maps:
            for point in sample:
                assert thurston_norm(d, m.apply(point)) == \
                    thurston_norm(d, point)
        assert face_orbits(ball, maps).orbit_count == n + 1
        assert min_structure_count(d) == n + 1
    _passed(8, "orbit count n + 1 and order-4 norm-preserving group, n <= 5",
            time.monotonic() - start, 30.0)


def test_criterion_09_boundary_slopes():
    start = time.monotonic()
    for n in range(1, 5):
        d = build_k2n(n)
        for i in (1, 2):
            s = boundary_slope(d, (1, 1), i)
            assert (s.meridian_coeff, s.longitude_coeff) == \
                (-3 ** (2 * n), 1)
            assert s.divisibility == 1
    d = build_k2n(2)
    for m in [(1, 1), (2, 3), (0, 5), (-4, 6)]:
        for i in (1, 2):
            base = boundary_slope(d, m, i).divisibility
            for k in (-3, -2, 2, 5):
                scaled = boundary_slope(d, (k * m[0], k * m[1]), i)
                assert scaled.divisibility == abs(k) * base
    _passed(9, "boundary slopes of (1,1) and divisibility homogeneity",
            time.monotonic() - start)


def test_criterion_10_infrastructure(tmp_path, capsys):
    start = time.monotonic()

    # DSL round trip over the generated family
    for n in range(1, 5):
        d = build_k2n(n)
        text = render_diagram(d)
        again = parse_diagram(text)
        assert again.vertices == d.vertices
        assert again.edges == d.edges
        assert render_diagram(again) == text

    # multiply / exact_divide inverse on seeded random inputs
    rng = random.Random(20260809)

    def random_poly(allow_zero=True):
        terms = {}
        for _ in range(rng.randint(0 if allow_zero else 1, 6)):
            terms[(rng.randint(-6, 6), rng.randint(-6, 6))] = \
                rng.randint(-9, 9)
        return LaurentPoly(terms)

    for _ in range(50):
        p = random_poly()
        q = random_poly(allow_zero=False)
        while not q:
            q = random_poly(allow_zero=False)
        assert (p * q).exact_divide(q) == p

    # Newton polygon of the squared-variable substitution doubles; the
    # substituted support is hulled directly, since substitute_power
    # carries a polygon p already has
    for _ in range(25):
        p = random_poly()
        if not p:
            continue
        assert convex_hull(p.substitute_power(2).support()) == \
            [(2 * x, 2 * y) for x, y in p.newton_polygon()]

    # byte-identical JSON and SVG across repeated runs
    json_a, json_b = tmp_path / "a.json", tmp_path / "b.json"
    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["report", "--family", "2", "--json", str(json_a)]) == 0
    assert main(["report", "--family", "2", "--json", str(json_b)]) == 0
    assert main(["ball", "--family", "2", "--svg", str(svg_a)]) == 0
    assert main(["ball", "--family", "2", "--svg", str(svg_b)]) == 0
    capsys.readouterr()
    assert json_a.read_bytes() == json_b.read_bytes()
    assert svg_a.read_bytes() == svg_b.read_bytes()
    json.loads(json_a.read_text())

    _passed(10, "round trips, division inverse, polygon doubling, "
                "deterministic output", time.monotonic() - start)
