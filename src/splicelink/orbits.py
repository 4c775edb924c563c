"""Lattice-linear symmetries of the norm ball and orbits of its faces.

Any self-diffeomorphism of the link exterior acts on rank-2 cohomology as
a linear map that preserves the norm ball and the integer lattice.  The
full group of such maps is found by exhaustive search in integers: a
linear ball-preserving map must send an adjacent pair of ball vertices to
an adjacent pair, so fixing one base pair and solving a 2x2 integer
system for every candidate image pair enumerates all possibilities.  A
unimodular map sends the primitive p of the vertex p/norm to a primitive,
so the image vertex has the same norm: only image pairs with the base
pair's norms are tried.  Counting orbits of fibered faces under this
group gives a lower bound on the number of inequivalent fibrations, hence
of inequivalent symplectic structures on the associated link-surgery
4-manifold (the geometric symmetry group can only over-approximate the
realizable actions).
"""

from collections import namedtuple

from .errors import ComputationError
from .polytope import unit_ball


class NotAGroup(ComputationError):
    """The supplied maps are not closed under composition and inverse."""


class LatticeMap(namedtuple("LatticeMap", "a b c d")):
    """A 2x2 integer matrix (a, b; c, d) of determinant +-1."""
    __slots__ = ()

    @property
    def entries(self):
        return ((self.a, self.b), (self.c, self.d))

    def det(self):
        return self.a * self.d - self.b * self.c

    def apply(self, v):
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def compose(self, other):
        """self after other, as matrices: self @ other."""
        return LatticeMap(self.a * other.a + self.b * other.c,
                          self.a * other.b + self.b * other.d,
                          self.c * other.a + self.d * other.c,
                          self.c * other.b + self.d * other.d)

    def inverse(self):
        det = self.det()
        if det not in (1, -1):
            raise ValueError("not invertible over the integers")
        return LatticeMap(self.d * det, -self.b * det,
                          -self.c * det, self.a * det)


class OrbitPartition(namedtuple("OrbitPartition", "face_labels orbit_count")):
    """Face index -> orbit label (the dict ``face_labels``), labels numbered
    in face order, and the number of orbits."""
    __slots__ = ()


def lattice_symmetries(ball):
    """All determinant +-1 integer matrices permuting the ball vertices.

    The vertex primitive / norm is kept as the integer pair (primitive,
    norm); norms must be positive, as `unit_ball` gives them.  The base
    adjacent pair (first two rays in cyclic order) is matched against
    every ordered adjacent pair of the same norms; each match determines
    one candidate map, [u w] [p0 p1]^-1 from the integer adjugate, which
    is kept when it is integral, unimodular and maps the set of
    (primitive, norm) pairs onto itself.  Results are deduplicated and
    sorted by matrix entries; the identity and minus identity are always
    present.
    """
    rays = ball.rays
    if len(rays) < 2:
        raise ValueError("need at least two rays")
    if any(r.norm <= 0 for r in rays):
        raise ValueError("ball vertices need positive norms")
    keys = [(r.primitive, r.norm) for r in rays]
    count = len(keys)
    (p0, n0), (p1, n1) = keys[0], keys[1]
    base_det = p0[0] * p1[1] - p0[1] * p1[0]
    key_set = set(keys)
    found = set()
    for j in range(count):
        u, norm_u = keys[j]
        if norm_u != n0:
            continue
        for step in (1, count - 1):
            w, norm_w = keys[(j + step) % count]
            if norm_w != n1:
                continue
            scaled = (u[0] * p1[1] - w[0] * p0[1], w[0] * p0[0] - u[0] * p1[0],
                      u[1] * p1[1] - w[1] * p0[1], w[1] * p0[0] - u[1] * p1[0])
            if any(x % base_det for x in scaled):
                continue
            m = LatticeMap(*(x // base_det for x in scaled))
            if m.det() not in (1, -1):
                continue
            if {(m.apply(p), n) for p, n in keys} != key_set:
                continue
            found.add(m)
    return sorted(found, key=lambda m: m.entries)


def _require_group(maps):
    group = set(maps)
    if LatticeMap(1, 0, 0, 1) not in group:
        raise NotAGroup("identity is missing")
    for m in maps:
        if m.inverse() not in group:
            raise NotAGroup("inverse of %s is missing" % (m.entries,))
        for g in maps:
            if m.compose(g) not in group:
                raise NotAGroup("composite of %s and %s is missing"
                                % (m.entries, g.entries))


def face_orbits(ball, maps):
    """Partition of the fibered faces under the given group of maps.

    Face i of the ball lies between rays i and i + 1 (cyclically), as
    `unit_ball` builds it.  Each map is applied once per ray, giving the
    index of each ray's image; the image of face (i, i + 1) is the face
    between the two image indices, which must be adjacent.  The maps form
    a group, so a face's orbit is the set of its images.  Raises NotAGroup
    when the maps are not a group, ValueError when a map does not permute
    the faces.
    """
    _require_group(maps)
    rays = ball.rays
    count = len(rays)
    index_of = {r.primitive: i for i, r in enumerate(rays)}
    faces = range(len(ball.faces))
    images = []  # images[k][i]: the face maps[k] sends face i to
    for m in maps:
        image = [index_of.get(m.apply(r.primitive)) for r in rays]
        images.append([])
        for i in faces:
            lo, hi = image[i], image[(i + 1) % count]
            if lo is not None and hi is not None:
                if (hi - lo) % count == 1:
                    images[-1].append(lo)
                    continue
                if (lo - hi) % count == 1:
                    images[-1].append(hi)
                    continue
            raise ValueError("map %s does not permute the faces"
                             % (m.entries,))

    labels = [None] * len(faces)
    orbit_count = 0
    for i in faces:
        if labels[i] is None:
            for face_image in images:
                labels[face_image[i]] = orbit_count
            orbit_count += 1
    return OrbitPartition(dict(enumerate(labels)), orbit_count)


def min_structure_count(d):
    """Number of face orbits under the full lattice symmetry group of the
    diagram's norm ball: a lower bound on the number of inequivalent
    fibration classes, hence of inequivalent symplectic structures on the
    link-surgery manifold."""
    ball = unit_ball(d)
    return face_orbits(ball, lattice_symmetries(ball)).orbit_count
