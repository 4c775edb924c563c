from fractions import Fraction
from pathlib import Path

import pytest
from test_splice import random_diagram

from oracles import (NonIntegerDual, SingularSystem, check_duality,
                     dual_vertex)
from splicelink import invariants, polytope
from splicelink.errors import ComputationError
from splicelink.invariants import DegenerateForm, Ray, nonfibered_rays
from splicelink.laurent import LaurentPoly, ZeroPolynomial
from splicelink.polytope import (FibredFace, NormBall, ZeroVector,
                                 alexander_norm, divisibility, unit_ball)
from splicelink.orbits import face_orbits, lattice_symmetries
from splicelink.splice import build_k2n, parse_diagram
from splicelink.swtheory import canonical_classes

DATA = Path(__file__).parent / "data"

K4_DUALS = [(14, -38), (32, -32), (38, -14), (40, 40),
            (-14, 38), (-32, 32), (-38, 14), (-40, -40)]


class TestDualVertex:
    def test_outer_face(self):
        assert dual_vertex((27, -1), 2080, (3, -1), 256) == (38, -14)

    def test_middle_face(self):
        assert dual_vertex((3, -1), 256, (1, -3), 256) == (32, -32)

    def test_diagonal_face(self):
        assert dual_vertex((-1, 27), 2080, (27, -1), 2080) == (40, 40)

    def test_singular(self):
        with pytest.raises(SingularSystem):
            dual_vertex((2, 4), 10, (1, 2), 5)

    def test_rational_output(self):
        x, y = dual_vertex((1, 0), 1, (0, 1), 1)
        assert (x, y) == (Fraction(1, 2), Fraction(1, 2))


class TestUnitBall:
    def test_k4_structure(self, k4):
        ball = unit_ball(k4)
        assert len(ball.rays) == 8
        assert len(ball.faces) == 8
        assert [r.primitive for r in ball.rays] == [
            (1, -27), (1, -3), (3, -1), (27, -1),
            (-1, 27), (-1, 3), (-3, 1), (-27, 1)]
        assert [(int(f.dual[0]), int(f.dual[1])) for f in ball.faces] == \
            K4_DUALS

    def test_k2_ball(self, k2):
        ball = unit_ball(k2)
        duals = {(int(f.dual[0]), int(f.dual[1])) for f in ball.faces}
        assert duals == {(4, 4), (2, -2), (-4, -4), (-2, 2)}

    def test_k8_outer_duals(self):
        from splicelink.splice import build_k2n
        ball = unit_ball(build_k2n(4))
        duals = {(int(f.dual[0]), int(f.dual[1])) for f in ball.faces}
        for v in [(3280, 3280), (3278, -1094), (3272, -2552),
                  (3254, -3038), (3200, -3200)]:
            assert v in duals

    def test_central_symmetry(self, k8):
        ball = unit_ball(k8)
        prims = {r.primitive for r in ball.rays}
        assert prims == {(-x, -y) for x, y in prims}
        duals = {f.dual for f in ball.faces}
        assert duals == {(-x, -y) for x, y in duals}

    def test_support_function_on_cones(self, k8):
        # inside each open cone the norm is linear with slope the dual
        from splicelink.invariants import thurston_norm
        ball = unit_ball(k8)
        for f in ball.faces:
            for a, b in [(1, 1), (1, 2), (3, 1)]:
                p = (a * f.ray_lo.primitive[0] + b * f.ray_hi.primitive[0],
                     a * f.ray_lo.primitive[1] + b * f.ray_hi.primitive[1])
                pairing = 2 * (p[0] * f.dual[0] + p[1] * f.dual[1])
                assert pairing == thurston_norm(k8, p)

    def test_boundary_consistency(self, k8):
        # a ray shared by two faces pairs to half its norm with both duals
        ball = unit_ball(k8)
        count = len(ball.faces)
        for i, face in enumerate(ball.faces):
            nxt = ball.faces[(i + 1) % count]
            r = face.ray_hi
            assert nxt.ray_lo == r
            for dual in (face.dual, nxt.dual):
                assert 2 * (r.primitive[0] * dual[0]
                            + r.primitive[1] * dual[1]) == r.norm


def ray_by_ray_ball(d):
    """Oracle: the ball built ray by ray, each norm a full thurston_norm
    (nonfibered_rays), each face class twice the dual vertex solved from
    its face's two rays (dual_vertex), the signed rays ordered from
    nonfibered_rays' order."""
    base = nonfibered_rays(d)
    if not base:
        raise DegenerateForm("diagram has no non-fibered rays")
    for r in base:
        if r.norm == 0:
            raise DegenerateForm("ray %s has zero norm, the unit ball is "
                                 "unbounded" % (r.primitive,))
    up = base[::-1]
    down = [Ray((-r.primitive[0], -r.primitive[1]), r.norm) for r in up]
    signed = ([r for r in down if r.primitive[1] < 0] + up
              + [r for r in down if r.primitive[1] >= 0])
    faces = []
    for i, lo in enumerate(signed):
        hi = signed[(i + 1) % len(signed)]
        x, y = dual_vertex(lo.primitive, lo.norm, hi.primitive, hi.norm)
        faces.append(FibredFace(lo, hi, (2 * x, 2 * y)))
    return NormBall(tuple(signed), tuple(faces))


def ball_outcome(route, d):
    """route(d), or the type and message of the error it raises."""
    try:
        return route(d)
    except ComputationError as exc:
        return (type(exc).__name__, str(exc))


SWEEP_CASES = ([("chain", n) for n in range(1, 51)]
               + [("random", seed) for seed in range(400)])


class TestSweepAgainstRayByRay:
    """unit_ball's angular sweep against the ray-by-ray construction."""

    @pytest.mark.parametrize("kind,arg", SWEEP_CASES,
                             ids=["%s %d" % case for case in SWEEP_CASES])
    def test_same_ball_or_same_error(self, kind, arg):
        d = build_k2n(arg) if kind == "chain" else random_diagram(arg)
        assert ball_outcome(unit_ball, d) == ball_outcome(ray_by_ray_ball, d)

    def test_random_cases_cover_balls_and_errors(self):
        tally = {}
        for seed in range(400):
            got = ball_outcome(unit_ball, random_diagram(seed))
            kind = "ball" if isinstance(got, NormBall) else got[1].split()[0]
            tally[kind] = tally.get(kind, 0) + 1
        assert tally == {"ball": 154, "ray": 246}  # "ray ... has zero norm"

    def test_sweep_needs_no_norm_and_no_dual_solve(self, monkeypatch):
        expected = ray_by_ray_ball(build_k2n(200))

        def forbidden(*_args):
            raise AssertionError("the sweep called a ray-by-ray route")

        for module, name in [(invariants, "thurston_norm"),
                             (invariants, "nonfibered_rays")]:
            monkeypatch.setattr(module, name, forbidden)
        assert unit_ball(build_k2n(200)) == expected


class TestIntegerClasses:
    """Each face stores S_F as two ints; only `dual` builds Fractions."""

    @pytest.mark.parametrize("name,orbits", [("chain50", 51), ("tree56", 4)])
    def test_class_path_builds_no_fraction(self, name, orbits, monkeypatch):
        d = build_k2n(50) if name == "chain50" else \
            parse_diagram((DATA / "tree56.sd").read_text())
        hull = [f.dual for f in ray_by_ray_ball(d).faces]

        def forbidden(*_args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(polytope, "Fraction", forbidden)
        ball = unit_ball(d)
        assert [c.klass for c in canonical_classes(ball)] == \
            [f.klass for f in ball.faces]
        assert face_orbits(ball, lattice_symmetries(ball)).orbit_count == \
            orbits
        assert check_duality(ball, hull)

    def test_half_integral_duals(self):
        faces = unit_ball(parse_diagram((DATA / "tree5.sd").read_text())).faces
        assert all(x % 2 and y % 2 for x, y in (f.klass for f in faces))
        for f in faces:
            x, y = f.klass
            assert f.dual == (Fraction(x, 2), Fraction(y, 2))


class TestAlexanderNorm:
    def test_ray_value(self, delta_k4):
        assert alexander_norm(delta_k4, (27, -1)) == 2080

    def test_zero_class(self, delta_k4):
        assert alexander_norm(delta_k4, (0, 0)) == 0

    def test_diagonal(self, delta_k4):
        assert alexander_norm(delta_k4, (1, 1)) == 160

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            alexander_norm(LaurentPoly.zero(), (1, 1))

    def test_matches_full_support_scan(self, delta_k4):
        for m in [(1, 1), (5, -2), (-7, 3), (2, 9)]:
            values = [m[0] * x + m[1] * y for x, y in delta_k4.support()]
            assert alexander_norm(delta_k4, m) == max(values) - min(values)


class TestDivisibility:
    def test_paper_pair(self):
        assert divisibility((3278, -1094)) == 2

    def test_euclid(self):
        assert divisibility((3272, -2552)) == 8

    def test_diagonal(self):
        assert divisibility((40, 40)) == 40

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            divisibility((0, 0))


class TestCheckDuality:
    def test_k4(self, k4, delta_k4):
        assert check_duality(unit_ball(k4), delta_k4.newton_polygon())

    def test_k8(self, k8, delta_k8):
        assert check_duality(unit_ball(k8), delta_k8.newton_polygon())

    def test_k2(self, k2, delta_k2):
        assert check_duality(unit_ball(k2), delta_k2.newton_polygon())

    def test_mismatch(self, k4, delta_k2):
        assert not check_duality(unit_ball(k4), delta_k2.newton_polygon())

    @pytest.mark.parametrize("n", [3, 5])
    def test_remaining_family_members(self, n):
        from splicelink.invariants import alexander_polynomial
        from splicelink.splice import build_k2n
        d = build_k2n(n)
        assert check_duality(unit_ball(d),
                             alexander_polynomial(d).newton_polygon())

    def test_non_integer_dual(self):
        lo = Ray((1, 0), 1)
        hi = Ray((0, 1), 1)
        face = FibredFace(lo, hi, (1, 1))
        ball = NormBall((lo, hi), (face,))
        with pytest.raises(NonIntegerDual, match=r"\(1/2, 1/2\)"):
            check_duality(ball, [(0, 0)])

    def test_empty_rejected(self, k2, delta_k2):
        with pytest.raises(ValueError):
            check_duality(NormBall((), ()), delta_k2.newton_polygon())
