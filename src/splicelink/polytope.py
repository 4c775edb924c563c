"""Exact planar geometry of the norm unit ball and of support hulls.

All geometric predicates use integer cross products and exact rationals;
no floating point enters any decision.  Dual vertices are kept as exact
Fractions even though they are integral in the cases of interest, and
integrality is checked where it matters rather than assumed.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ComputationError
from .invariants import DegenerateForm, Ray, nonfibered_rays
from .laurent import ZeroPolynomial


class SingularSystem(ComputationError):
    """The two rays bounding a face are proportional."""


class ZeroVector(ComputationError):
    """Divisibility of the zero vector is undefined."""


class NonIntegerDual(ComputationError):
    """A dual vertex is not a lattice point."""


@dataclass(frozen=True)
class FibredFace:
    """A top-dimensional face of the unit ball, between two adjacent rays,
    together with the dual vertex supporting it."""
    ray_lo: Ray
    ray_hi: Ray
    dual: tuple


@dataclass(frozen=True)
class NormBall:
    """The unit ball of the norm: all signed rays in cyclic order and one
    fibered face per adjacent pair.  Centrally symmetric by construction."""
    rays: tuple
    faces: tuple

    def nonfibered_rays(self):
        """The rays `unit_ball` was built from, as `nonfibered_rays` gives
        them: the ones with positive first nonzero coordinate, by
        decreasing angle."""
        return [r for r in reversed(self.rays) if r.primitive > (0, 0)]


def dual_vertex(a, na, b, nb):
    """The point (x, y) pairing to half the norm with both given rays:

        a1*x + a2*y = na / 2
        b1*x + b2*y = nb / 2

    solved exactly over the rationals.  Raises SingularSystem when a and b
    are proportional.
    """
    det = a[0] * b[1] - a[1] * b[0]
    if det == 0:
        raise SingularSystem("rays %s and %s are proportional" % (a, b))
    x = Fraction(na * b[1] - a[1] * nb, 2 * det)
    y = Fraction(a[0] * nb - na * b[0], 2 * det)
    return (x, y)


def unit_ball(d):
    """The norm unit ball of a diagram.

    Takes the non-fibered rays and adjoins their negatives, in cyclic
    order by ascending angle in (-pi, pi], and attaches to each adjacent
    pair the face they bound with its dual vertex.  `nonfibered_rays`
    already orders the rays, by decreasing angle in (-pi/2, pi/2]; their
    negatives keep that order shifted by pi, so the ones below the m1-axis
    come first and the rest last.
    """
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
        faces.append(FibredFace(lo, hi,
                                dual_vertex(lo.primitive, lo.norm,
                                            hi.primitive, hi.norm)))
    return NormBall(tuple(signed), tuple(faces))


def alexander_norm(delta, m):
    """Support width of the polynomial paired with the class (m1, m2):
    max - min of m1*e1 + m2*e2 over the support.  The extremes of a linear
    functional are attained on Newton polygon vertices, so only those are
    scanned (the polygon is cached on the polynomial)."""
    if not delta:
        raise ZeroPolynomial("the zero polynomial has no norm")
    m1, m2 = m
    values = [m1 * e1 + m2 * e2 for e1, e2 in delta.newton_polygon()]
    return max(values) - min(values)


def divisibility(v):
    """gcd of the absolute coordinates of a nonzero integer vector."""
    x, y = v
    if x == 0 and y == 0:
        raise ZeroVector("divisibility of (0, 0) is undefined")
    return gcd(x, y)


def check_duality(ball, hull):
    """True iff the dual vertices of the ball and the given hull vertices
    coincide as sets of lattice points, one face per vertex.

    Raises NonIntegerDual when some dual vertex is not integral.
    """
    if not ball.faces or not hull:
        raise ValueError("need a nonempty ball and a nonempty hull")
    duals = set()
    for f in ball.faces:
        x, y = f.dual
        if x.denominator != 1 or y.denominator != 1:
            raise NonIntegerDual("dual vertex (%s, %s) is not a lattice point"
                                 % (x, y))
        duals.add((int(x), int(y)))
    if len(duals) != len(ball.faces):
        return False
    return duals == {(int(p[0]), int(p[1])) for p in hull}
