import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from test_splice import random_diagram

from splicelink.errors import ComputationError
from splicelink.invariants import (DegenerateForm, Ray, nonfibered_rays,
                                   thurston_norm)
from splicelink.orbits import (LatticeMap, NotAGroup, OrbitPartition,
                               _require_group, face_orbits,
                               lattice_symmetries, min_structure_count)
from splicelink.polytope import NormBall, unit_ball
from splicelink.splice import Edge, SpliceDiagram, Vertex, build_k2n
from splicelink.swtheory import canonical_classes

IDENTITY = LatticeMap(1, 0, 0, 1)
MINUS = LatticeMap(-1, 0, 0, -1)
SWAP = LatticeMap(0, 1, 1, 0)
MINUS_SWAP = LatticeMap(0, -1, -1, 0)


class TestLatticeMap:
    def test_apply(self):
        assert SWAP.apply((3, -1)) == (-1, 3)

    def test_compose(self):
        assert SWAP.compose(SWAP) == IDENTITY
        assert MINUS.compose(SWAP) == MINUS_SWAP

    def test_inverse(self):
        m = LatticeMap(2, 1, 1, 1)
        assert m.compose(m.inverse()) == IDENTITY
        with pytest.raises(ValueError):
            LatticeMap(2, 0, 0, 2).inverse()


class TestLatticeSymmetries:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_group_of_order_four(self, n):
        maps = lattice_symmetries(unit_ball(build_k2n(n)))
        assert sorted((m.a, m.b, m.c, m.d) for m in maps) == sorted([
            (1, 0, 0, 1), (-1, 0, 0, -1), (0, 1, 1, 0), (0, -1, -1, 0)])

    def test_always_contains_plus_minus_identity(self, k4):
        maps = lattice_symmetries(unit_ball(k4))
        assert IDENTITY in maps
        assert MINUS in maps

    def test_maps_preserve_norms(self, k4):
        maps = lattice_symmetries(unit_ball(k4))
        for m in maps:
            for m1 in range(-50, 51, 7):
                for m2 in range(-50, 51, 9):
                    assert thurston_norm(k4, m.apply((m1, m2))) == \
                        thurston_norm(k4, (m1, m2))

    def test_maps_permute_rays_with_norms(self, k8):
        ball = unit_ball(k8)
        norms = {r.primitive: r.norm for r in ball.rays}
        for m in lattice_symmetries(ball):
            for prim, norm in norms.items():
                assert norms[m.apply(prim)] == norm


def oracle_lattice_symmetries(ball):
    """The search over exact rational vertices primitive / norm: solve the
    2x2 system sending the base adjacent pair to every ordered adjacent
    pair, keep the integral, unimodular maps that permute the vertex set."""
    verts = [(Fraction(r.primitive[0], r.norm),
              Fraction(r.primitive[1], r.norm)) for r in ball.rays]
    count = len(verts)
    v0, v1 = verts[0], verts[1]
    base_det = v0[0] * v1[1] - v0[1] * v1[0]
    vert_set = set(verts)
    found = set()
    for j in range(count):
        for step in (1, count - 1):
            u = verts[j]
            w = verts[(j + step) % count]
            a = (u[0] * v1[1] - v0[1] * w[0]) / base_det
            b = (v0[0] * w[0] - u[0] * v1[0]) / base_det
            c = (u[1] * v1[1] - v0[1] * w[1]) / base_det
            d = (v0[0] * w[1] - u[1] * v1[0]) / base_det
            if any(f.denominator != 1 for f in (a, b, c, d)):
                continue
            m = LatticeMap(int(a), int(b), int(c), int(d))
            if m.det() not in (1, -1):
                continue
            if {m.apply(v) for v in verts} != vert_set:
                continue
            found.add((m.a, m.b, m.c, m.d))
    return [LatticeMap(*entries) for entries in sorted(found)]


def _angle_class(v):
    x, y = v
    if y < 0:
        return 0
    if y == 0 and x > 0:
        return 1
    if y > 0:
        return 2
    return 3  # y == 0, x < 0


def _cmp_ascending(p, q):
    cp, cq = _angle_class(p), _angle_class(q)
    if cp != cq:
        return -1 if cp < cq else 1
    c = p[0] * q[1] - p[1] * q[0]
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def oracle_signed_rays(rays, seed):
    """The rays and their negatives, shuffled, then sorted by ascending
    angle in (-pi, pi] with a comparator of their own."""
    signed = list(rays) + [Ray((-r.primitive[0], -r.primitive[1]), r.norm)
                           for r in rays]
    random.Random(seed).shuffle(signed)
    return sorted(signed, key=cmp_to_key(
        lambda r, s: _cmp_ascending(r.primitive, s.primitive)))


def _bounded_balls():
    cases = [("chain %d" % n, build_k2n(n)) for n in list(range(1, 13)) + [50]]
    cases += [("random %d" % seed, random_diagram(seed))
              for seed in range(200)]
    balls = []
    for name, d in cases:
        try:
            balls.append((name, d, unit_ball(d)))
        except DegenerateForm:  # a ray of norm zero: the ball is unbounded
            pass
    return balls


BOUNDED_BALLS = _bounded_balls()


class TestAgainstOracles:
    def test_enough_random_balls(self):
        assert sum(name.startswith("random")
                   for name, _d, _ball in BOUNDED_BALLS) >= 80

    @pytest.mark.parametrize("name,d,ball", BOUNDED_BALLS,
                             ids=[case[0] for case in BOUNDED_BALLS])
    def test_integer_search_and_angular_order(self, name, d, ball):
        assert lattice_symmetries(ball) == oracle_lattice_symmetries(ball)
        assert list(ball.rays) == oracle_signed_rays(nonfibered_rays(d),
                                                     seed=name)

    def test_long_chain_has_the_group_of_order_four(self):
        maps = lattice_symmetries(unit_ball(build_k2n(200)))
        assert maps == sorted([IDENTITY, MINUS, SWAP, MINUS_SWAP],
                              key=lambda m: (m.a, m.b, m.c, m.d))

    def test_a_local_match_alone_is_not_a_symmetry(self):
        # (x, y) -> (y - x, y) swaps the first two rays, both of norm 1,
        # but sends (1, -1) to (-2, -1), which is no ray.
        half = [Ray((-1, -1), 1), Ray((0, -1), 1), Ray((1, -1), 3),
                Ray((1, 0), 2)]
        rays = tuple(half) + tuple(Ray((-x, -y), r.norm)
                                   for r in half for x, y in [r.primitive])
        ball = NormBall(rays, ())
        assert lattice_symmetries(ball) == oracle_lattice_symmetries(ball) \
            == [MINUS, IDENTITY]

    @pytest.mark.parametrize("norm", [0, -1])
    def test_nonpositive_norm_rejected(self, norm):
        rays = (Ray((1, 0), 1), Ray((0, 1), norm), Ray((-1, 0), 1),
                Ray((0, -1), norm))
        with pytest.raises(ValueError):
            lattice_symmetries(NormBall(rays, ()))


class TestFaceOrbits:
    def test_identity_only_gives_singletons(self, k4):
        ball = unit_ball(k4)
        part = face_orbits(ball, [IDENTITY])
        assert part.orbit_count == len(ball.faces) == 8

    def test_k4_orbit_structure(self, k4):
        ball = unit_ball(k4)
        part = face_orbits(ball, lattice_symmetries(ball))
        assert part.orbit_count == 3
        sizes = {}
        for label in part.face_labels.values():
            sizes[label] = sizes.get(label, 0) + 1
        # the diagonal face and its negative; the two P-P / Q-Q pairs;
        # the middle face and its negative
        assert sorted(sizes.values()) == [2, 2, 4]

    def test_k2_orbits(self, k2):
        ball = unit_ball(k2)
        assert face_orbits(ball, lattice_symmetries(ball)).orbit_count == 2

    def test_orbit_sizes_divide_group_order(self, k8):
        ball = unit_ball(k8)
        maps = lattice_symmetries(ball)
        part = face_orbits(ball, maps)
        sizes = {}
        for label in part.face_labels.values():
            sizes[label] = sizes.get(label, 0) + 1
        assert all(len(maps) % size == 0 for size in sizes.values())

    def test_not_a_group(self, k4):
        ball = unit_ball(k4)
        with pytest.raises(NotAGroup):
            face_orbits(ball, [IDENTITY, MINUS, SWAP])
        with pytest.raises(NotAGroup):
            face_orbits(ball, [SWAP, MINUS_SWAP])

    def test_missing_inverse(self, k4):
        # closed under composition with the identity, but the shear's
        # inverse [[1, -1], [0, 1]] is not among the maps
        with pytest.raises(NotAGroup, match=r"^inverse of .* is missing$"):
            face_orbits(unit_ball(k4), [IDENTITY, LatticeMap(1, 1, 0, 1)])

    def test_divisibility_constant_on_orbits(self, k8):
        ball = unit_ball(k8)
        part = face_orbits(ball, lattice_symmetries(ball))
        canon = canonical_classes(ball)
        by_orbit = {}
        for i, c in enumerate(canon):
            by_orbit.setdefault(part.face_labels[i], set()).add(c.divisibility)
        assert all(len(values) == 1 for values in by_orbit.values())


def pair_keyed_face_orbits(ball, maps):
    """Oracle: each face keyed by the unordered pair of its ray
    primitives, each face's image looked up by the pair of its images."""
    _require_group(maps)
    faces = ball.faces
    index_of = {frozenset((f.ray_lo.primitive, f.ray_hi.primitive)): i
                for i, f in enumerate(faces)}
    parent = list(range(len(faces)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for m in maps:
        for i, f in enumerate(faces):
            key = frozenset((m.apply(f.ray_lo.primitive),
                             m.apply(f.ray_hi.primitive)))
            if key not in index_of:
                raise ValueError("map %s does not permute the faces"
                                 % (m.entries,))
            ri, rj = find(i), find(index_of[key])
            if ri != rj:
                parent[rj] = ri
    labels = {}
    face_labels = {}
    for i in range(len(faces)):
        face_labels[i] = labels.setdefault(find(i), len(labels))
    return OrbitPartition(face_labels, len(labels))


def orbit_outcome(route, ball, maps):
    """route(ball, maps), or the type and message of the error it raises."""
    try:
        return route(ball, maps)
    except (ComputationError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _all_balls():
    cases = [("chain %d" % n, build_k2n(n)) for n in range(1, 51)]
    cases += [("random %d" % seed, random_diagram(seed))
              for seed in range(400)]
    balls = []
    for name, d in cases:
        try:
            balls.append((name, unit_ball(d)))
        except DegenerateForm:
            pass
    return balls


ALL_BALLS = _all_balls()
ORDER_FOUR = [IDENTITY, MINUS, SWAP, MINUS_SWAP]


class TestFaceOrbitsAgainstPairKeys:
    """face_orbits by ray index against faces keyed by primitive pairs."""

    @pytest.mark.parametrize("name,ball", ALL_BALLS,
                             ids=[case[0] for case in ALL_BALLS])
    def test_same_partition_or_same_error(self, name, ball):
        groups = [ORDER_FOUR, [IDENTITY, MINUS], [SWAP, IDENTITY]]
        if all(r.norm > 0 for r in ball.rays):
            groups.append(lattice_symmetries(ball))
        for maps in groups:
            assert orbit_outcome(face_orbits, ball, maps) == \
                orbit_outcome(pair_keyed_face_orbits, ball, maps)

    def test_cases_cover_partitions_and_errors(self):
        tally = {}
        for _name, ball in ALL_BALLS:
            got = orbit_outcome(face_orbits, ball, ORDER_FOUR)
            # a partition is a tuple too, so test for it by its own type
            kind = "partition" if isinstance(got, OrbitPartition) else got[0]
            tally[kind] = tally.get(kind, 0) + 1
        assert tally == {"partition": 53, "ValueError": 151}


class TestMinStructureCount:
    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 3), (4, 5)])
    def test_family_bound(self, n, expected):
        assert min_structure_count(build_k2n(n)) == expected

    def test_invariant_under_relabeling(self):
        """The count, or the error type, of each diagram equals that of the
        diagram with its arrowheads' declaration order swapped and that of
        the diagram with its ids permuted."""
        cases = ([build_k2n(n) for n in range(1, 13)]
                 + [random_diagram(seed) for seed in range(400)])
        tally = {"count": 0, "error": 0}
        for seed, d in enumerate(cases):
            swapped = _swap_arrowheads(d)
            assert swapped.arrowheads == d.arrowheads[::-1]
            outcomes = [_count_or_error(x)
                        for x in (d, swapped, _rename_ids(d, seed))]
            assert outcomes[1] == outcomes[0], d.name
            assert outcomes[2] == outcomes[0], d.name
            tally["error" if isinstance(outcomes[0], type) else "count"] += 1
        assert tally == {"count": 166, "error": 246}


def _count_or_error(d):
    try:
        return min_structure_count(d)
    except ComputationError as exc:
        return type(exc)


def _swap_arrowheads(d):
    """d with its two arrowheads' places in the vertex list exchanged, so
    that K1 and K2 trade roles."""
    i, j = [k for k, v in enumerate(d.vertices) if v in d.arrowheads]
    vertices = list(d.vertices)
    vertices[i], vertices[j] = vertices[j], vertices[i]
    return SpliceDiagram(d.name, vertices, d.edges)


def _rename_ids(d, seed):
    """d with its vertex ids permuted at random among themselves."""
    ids = [v.id for v in d.vertices]
    shuffled = list(ids)
    random.Random(seed).shuffle(shuffled)
    new = dict(zip(ids, shuffled))
    return SpliceDiagram(
        d.name, [Vertex(new[v.id], v.kind) for v in d.vertices],
        [Edge(new[e.a], new[e.b], e.weight_a, e.weight_b) for e in d.edges])
