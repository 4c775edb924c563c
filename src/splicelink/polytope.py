"""Exact planar geometry of the norm unit ball and of support hulls.

All geometric predicates use integer cross products and exact rationals;
no floating point enters any decision.

On the open cone between two adjacent signed rays no kernel line of a
virtual component's form (lk(K1, v), lk(K2, v)) passes, so every sign in
the weighted-tree norm is constant there and the norm is the linear map
m -> <S_F, m> of the integer face class

    S_F = sum over v of (degree(v) - 2) * sign_F(form_v) * form_v.

`unit_ball` reads the whole ball off these classes in one angular sweep:
each ray's norm is <S_F, r> for a face F containing r.  S_F is what a
face stores, as two ints; its dual vertex, the point pairing to half the
norm with both of its rays, is S_F / 2.  `FibredFace.dual` gives it as two
Fractions; the command line prints it straight from the integers.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import ComputationError
from .invariants import DegenerateForm, Ray, _forms_by_line
from .laurent import ZeroPolynomial


class ZeroVector(ComputationError):
    """Divisibility of the zero vector is undefined."""


class FibredFace(namedtuple("FibredFace", "ray_lo ray_hi klass")):
    """A top-dimensional face of the unit ball, between two adjacent rays,
    with its integer class S_F (``klass``), twice the dual vertex."""
    __slots__ = ()

    @property
    def dual(self):
        """The dual vertex S_F / 2, as a pair of Fractions."""
        x, y = self.klass
        return (Fraction(x, 2), Fraction(y, 2))


class NormBall(namedtuple("NormBall", "rays faces")):
    """The unit ball of the norm: all signed rays in cyclic order and one
    fibered face per adjacent pair.  Centrally symmetric by construction."""
    __slots__ = ()

    def nonfibered_rays(self):
        """The rays `unit_ball` was built from, as `nonfibered_rays` gives
        them: the ones with positive first nonzero coordinate, by
        decreasing angle."""
        return [r for r in reversed(self.rays) if r.primitive > (0, 0)]


def unit_ball(d):
    """The norm unit ball of a diagram, in one angular sweep.

    The signed rays are the kernel lines of the virtual components' forms
    (the primitives `nonfibered_rays` gives, by decreasing angle in
    (-pi/2, pi/2]) and their negatives, in cyclic order by ascending angle
    in (-pi, pi]: the negatives below the m1-axis, the primitives in
    reverse, the other negatives.  Face i lies between signed rays i and
    i + 1.  The face class S_F of the first face is summed over every form
    once, at the sum of its two rays, an interior point; crossing ray r
    flips the sign of the forms on r's kernel line only, so S_F moves by
    -2 * (degree - 2) * s * form for each of them, s the form's sign on
    the ray before r.  Each ray's norm is <S_F, r> and each face keeps
    S_F, so the sweep costs O(vertices + rays).

    Raises DegenerateForm when there is no ray, or when a ray has zero
    norm (the ball is unbounded), naming the first such ray in
    `nonfibered_rays` order.
    """
    lines = _forms_by_line(d)
    if not lines:
        raise DegenerateForm("diagram has no non-fibered rays")
    up = list(lines)[::-1]
    down = [(-x, -y) for x, y in up]
    signed = ([p for p in down if p[1] < 0] + up
              + [p for p in down if p[1] >= 0])
    forms_on = dict(lines)
    forms_on.update(((-x, -y), forms) for (x, y), forms in lines.items())

    (x0, y0), (x1, y1) = signed[0], signed[1]
    mx, my = x0 + x1, y0 + y1
    sx = sy = 0
    for _v, a, b, deg in d.virtual_forms():
        pairing = a * mx + b * my
        if pairing:
            w = deg - 2 if pairing > 0 else 2 - deg
            sx += w * a
            sy += w * b
    classes = [(sx, sy)]
    norms = {signed[0]: sx * x0 + sy * y0}
    for i in range(1, len(signed)):
        px, py = signed[i - 1]
        r = signed[i]
        for _v, a, b, deg in forms_on[r]:
            w = 2 * (deg - 2) if a * px + b * py > 0 else 2 * (2 - deg)
            sx -= w * a
            sy -= w * b
        classes.append((sx, sy))
        norms[r] = sx * r[0] + sy * r[1]

    for p in lines:
        if norms[p] == 0:
            raise DegenerateForm("ray %s has zero norm, the unit ball is "
                                 "unbounded" % (p,))
    rays = [Ray(p, norms[p]) for p in signed]
    faces = tuple(FibredFace(lo, rays[(i + 1) % len(rays)], klass)
                  for i, (lo, klass) in enumerate(zip(rays, classes)))
    return NormBall(tuple(rays), faces)


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
