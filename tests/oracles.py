"""Independent oracles the tests check the library against.

None of these is on a path the command line or the benchmark runs: each
re-derives, by another route, a value the library computes its own way.
"""

from fractions import Fraction

from splicelink.errors import ComputationError
from splicelink.invariants import Ray


class IndexOutOfRange(ComputationError):
    """Ray index outside 1..2n."""


class SingularSystem(ComputationError):
    """The two rays bounding a face are proportional."""


class NonIntegerDual(ComputationError):
    """A dual vertex is not a lattice point."""


def evaluate(p, a, b):
    """Exact value of the Laurent polynomial p at nonzero rationals (a, b),
    as a Fraction."""
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("evaluation point must have nonzero coordinates")
    total = Fraction(0)
    for (e1, e2), c in p.items():
        total += c * a ** e1 * b ** e2
    return total


def closed_form_ray_norm(n, i):
    """Closed-form norm of the i-th non-fibered ray of the 2n-node chain.

    For i <= n the ray is (3^(2n+1-2i), -1); for i >= n+1 it is
    (1, -3^(2i-1-2n)).  Returns (Ray, norm).
    """
    if n < 1 or not 1 <= i <= 2 * n:
        raise IndexOutOfRange("need 1 <= i <= 2n, got i=%d, n=%d" % (i, n))
    if i <= n:
        primitive = (3 ** (2 * n + 1 - 2 * i), -1)
        norm = (3 ** (4 * n - 2 * i + 1) + 3 ** (2 * n - 2 * i + 1)
                + 3 ** (2 * n) - 2 * 3 ** (2 * n - i) - 2 * 3 ** (2 * n - i + 1)
                + 1)
    else:
        primitive = (1, -3 ** (2 * i - 1 - 2 * n))
        norm = (3 ** (2 * i - 1) + 3 ** (2 * i - 2 * n - 1) + 3 ** (2 * n)
                - 2 * 3 ** i - 2 * 3 ** (i - 1) + 1)
    return Ray(primitive, norm), norm


def dual_vertex(a, na, b, nb):
    """The point (x, y) pairing to half the norm with both given rays:

        a1*x + a2*y = na / 2
        b1*x + b2*y = nb / 2

    solved exactly over the rationals.  Raises SingularSystem when a and b
    are proportional.  unit_ball reads its dual vertices off the sweep; the
    ray-by-ray oracle ball (test_polytope.py) solves them with this.
    """
    det = a[0] * b[1] - a[1] * b[0]
    if det == 0:
        raise SingularSystem("rays %s and %s are proportional" % (a, b))
    x = Fraction(na * b[1] - a[1] * nb, 2 * det)
    y = Fraction(a[0] * nb - na * b[0], 2 * det)
    return (x, y)


def check_duality(ball, hull):
    """True iff the dual vertices S_F / 2 of the ball and the given hull
    vertices coincide as sets of lattice points, one face per vertex.

    Raises NonIntegerDual when some dual vertex is not integral, that is
    when a coordinate of some S_F is odd.
    """
    if not ball.faces or not hull:
        raise ValueError("need a nonempty ball and a nonempty hull")
    duals = set()
    for f in ball.faces:
        x, y = f.klass
        if x % 2 or y % 2:
            raise NonIntegerDual("dual vertex (%s, %s) is not a lattice point"
                                 % f.dual)
        duals.add((x // 2, y // 2))
    if len(duals) != len(ball.faces):
        return False
    return duals == {(int(p[0]), int(p[1])) for p in hull}
