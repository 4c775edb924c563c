import random
from collections import deque

import pytest

from splicelink.errors import ComputationError
from splicelink.invariants import DegenerateForm, nonfibered_rays
from splicelink.polytope import unit_ball
from splicelink.splice import (DiagramSyntaxError, Edge, SpliceDiagram,
                               UnknownVertex, ValidationError, Vertex,
                               VertexKind, build_k2n, linking_number,
                               parse_diagram, render_diagram, validate)

K2_TEXT = """\
diagram K2
node H1
node H2
bvertex S1
bvertex S2
arrow K1
arrow K2
edge H1 K1 1 1
edge H1 S1 3 1
edge H1 H2 1 1
edge H2 S2 3 1
edge H2 K2 1 1
"""


class TestParse:
    def test_k2_example(self):
        d = parse_diagram(K2_TEXT)
        assert d.name == "K2"
        assert len(d.nodes) == 2
        assert sum(v.kind is VertexKind.BOUNDARY for v in d.vertices) == 2
        assert len(d.arrowheads) == 2
        assert d.arrowheads[0].id == "K1"
        assert linking_number(d, "K1", "K2") == 9

    def test_comments_and_blank_lines(self):
        text = "# a chain\n\ndiagram X # name\n" + K2_TEXT.split("\n", 1)[1]
        d = parse_diagram(text)
        assert d.name == "X"

    def test_empty_input(self):
        with pytest.raises(DiagramSyntaxError):
            parse_diagram("")

    def test_unknown_directive(self):
        with pytest.raises(DiagramSyntaxError) as info:
            parse_diagram("diagram X\nsplice H1 H2\n")
        assert info.value.line == 2

    def test_bad_weight_token(self):
        with pytest.raises(DiagramSyntaxError):
            parse_diagram("diagram X\nnode A\nnode B\nedge A B one 1\n")

    def test_double_edge_is_a_cycle(self):
        text = K2_TEXT + "edge H1 H2 1 1\n"
        with pytest.raises(ValidationError) as info:
            parse_diagram(text)
        assert any(v.startswith("NotATree") for v in info.value.violations)

    def test_header_must_come_first(self):
        with pytest.raises(DiagramSyntaxError):
            parse_diagram("node H1\ndiagram X\n")

    def test_edge_ends_share_the_vertex_id_strings(self):
        d = parse_diagram(K2_TEXT)
        ids = {v.id: v.id for v in d.vertices}
        for e in d.edges:
            assert e.a is ids[e.a] and e.b is ids[e.b]

    def test_undeclared_edge_end_is_still_reported(self):
        with pytest.raises(ValidationError) as info:
            parse_diagram(K2_TEXT + "edge H2 KX 1 1\n")
        assert any(v.startswith("UnknownVertex") and "KX" in v
                   for v in info.value.violations)


class TestRender:
    def test_round_trip_text(self):
        d = parse_diagram(K2_TEXT)
        assert render_diagram(d) == K2_TEXT

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_family_round_trips(self, n):
        d = build_k2n(n)
        again = parse_diagram(render_diagram(d))
        assert again.name == d.name
        assert again.vertices == d.vertices
        assert again.edges == d.edges

    def test_single_vertex_block(self):
        d = SpliceDiagram("X", [
            Vertex("H1", VertexKind.NODE),
            Vertex("K1", VertexKind.ARROW),
            Vertex("K2", VertexKind.ARROW),
        ], [
            Edge("H1", "K1", 1, 1),
            Edge("H1", "K2", 1, 1),
        ])
        assert render_diagram(d) == ("diagram X\nnode H1\narrow K1\narrow K2\n"
                                     "edge H1 K1 1 1\nedge H1 K2 1 1\n")


class TestBuildFamily:
    def test_smallest_member(self):
        d = build_k2n(1)
        assert len(d.nodes) == 2
        assert linking_number(d, "K1", "K2") == 9

    def test_counts_for_n3(self):
        d = build_k2n(3)
        assert len(d.nodes) == 6
        assert sum(v.kind is VertexKind.BOUNDARY for v in d.vertices) == 6
        assert len(d.arrowheads) == 2
        assert len(d.edges) == 13

    def test_linking_number_grows(self):
        assert linking_number(build_k2n(2), "K1", "K2") == 81

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_k2n(0)


class TestLinkingNumber:
    def test_k4_samples(self, k4):
        assert linking_number(k4, "K1", "H1") == 3
        assert linking_number(k4, "K1", "S1") == 1
        assert linking_number(k4, "K2", "H1") == 3 ** 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_matrix(self, n):
        d = build_k2n(n)
        for i in range(1, 2 * n + 1):
            assert linking_number(d, "K1", "H%d" % i) == 3 ** i
            assert linking_number(d, "K2", "H%d" % i) == 3 ** (2 * n - i + 1)
            assert linking_number(d, "K1", "S%d" % i) == 3 ** (i - 1)
            assert linking_number(d, "K2", "S%d" % i) == 3 ** (2 * n - i)

    def test_symmetric(self, k4):
        ids = [v.id for v in k4.vertices]
        for v in ids[:4]:
            for w in ids[4:]:
                if v != w:
                    assert linking_number(k4, v, w) == \
                        linking_number(k4, w, v)

    def test_unknown_vertex(self, k2):
        with pytest.raises(UnknownVertex):
            linking_number(k2, "K1", "H9")

    def test_same_vertex_rejected(self, k2):
        with pytest.raises(ValueError):
            linking_number(k2, "K1", "K1")


class TestValidate:
    def test_family_is_valid(self):
        d = build_k2n(2)
        assert validate(d.vertices, d.edges) == []

    def test_three_arrowheads(self):
        diagram = ([
            Vertex("H1", VertexKind.NODE),
            Vertex("K1", VertexKind.ARROW),
            Vertex("K2", VertexKind.ARROW),
            Vertex("K3", VertexKind.ARROW),
        ], [
            Edge("H1", "K1", 1, 1),
            Edge("H1", "K2", 1, 1),
            Edge("H1", "K3", 1, 1),
        ])
        assert any(v.startswith("ArrowheadCount") for v in validate(*diagram))

    def test_disconnected(self):
        diagram = ([
            Vertex("H1", VertexKind.NODE),
            Vertex("H2", VertexKind.NODE),
            Vertex("K1", VertexKind.ARROW),
            Vertex("K2", VertexKind.ARROW),
        ], [
            Edge("H1", "K1", 1, 1),
            Edge("H1", "K2", 1, 1),
            Edge("H2", "H2", 1, 1),
        ])
        assert any(v.startswith("NotATree") for v in validate(*diagram))

    def test_empty(self):
        assert "NotATree: empty diagram" in validate([], [])

    def test_disconnected_with_enough_edges(self):
        # V - 1 edges, but a 3-cycle of nodes apart from K1 - K2
        diagram = ([
            Vertex("H1", VertexKind.NODE),
            Vertex("H2", VertexKind.NODE),
            Vertex("H3", VertexKind.NODE),
            Vertex("K1", VertexKind.ARROW),
            Vertex("K2", VertexKind.ARROW),
        ], [
            Edge("H1", "H2", 1, 1),
            Edge("H2", "H3", 1, 1),
            Edge("H3", "H1", 1, 1),
            Edge("K1", "K2", 1, 1),
        ])
        assert validate(*diagram) == ["NotATree: diagram is disconnected"]

    def test_nonpositive_weight(self):
        diagram = ([
            Vertex("H1", VertexKind.NODE),
            Vertex("K1", VertexKind.ARROW),
            Vertex("K2", VertexKind.ARROW),
        ], [
            Edge("H1", "K1", 0, 1),
            Edge("H1", "K2", 1, 1),
        ])
        assert any(v.startswith("NonpositiveWeight")
                   for v in validate(*diagram))

    def test_duplicate_id(self):
        diagram = ([
            Vertex("H1", VertexKind.NODE),
            Vertex("H1", VertexKind.NODE),
            Vertex("K1", VertexKind.ARROW),
            Vertex("K2", VertexKind.ARROW),
        ], [
            Edge("H1", "K1", 1, 1),
            Edge("H1", "K2", 1, 1),
        ])
        assert any(v.startswith("DuplicateId") for v in validate(*diagram))

    def test_leaf_degree(self):
        diagram = ([
            Vertex("K1", VertexKind.ARROW),
            Vertex("K2", VertexKind.ARROW),
        ], [
            Edge("K1", "K2", 1, 1),
        ])
        # valid leaves here; now wire an arrowhead with degree 2
        bad = ([
            Vertex("H1", VertexKind.NODE),
            Vertex("K1", VertexKind.ARROW),
            Vertex("K2", VertexKind.ARROW),
            Vertex("S1", VertexKind.BOUNDARY),
        ], [
            Edge("H1", "K1", 1, 1),
            Edge("K1", "K2", 1, 1),
            Edge("H1", "S1", 3, 1),
        ])
        assert validate(*diagram) == []
        assert any(v.startswith("LeafDegree") for v in validate(*bad))

    def test_unknown_edge_endpoint(self):
        diagram = ([
            Vertex("H1", VertexKind.NODE),
            Vertex("K1", VertexKind.ARROW),
            Vertex("K2", VertexKind.ARROW),
        ], [
            Edge("H1", "K1", 1, 1),
            Edge("H1", "KX", 1, 1),
        ])
        assert any(v.startswith("UnknownVertex") for v in validate(*diagram))

    def test_disconnected_path_names_the_cause(self):
        with pytest.raises(ValidationError) as info:
            SpliceDiagram("X", [
                Vertex("H1", VertexKind.NODE),
                Vertex("H2", VertexKind.NODE),
                Vertex("K1", VertexKind.ARROW),
                Vertex("K2", VertexKind.ARROW),
            ], [
                Edge("H1", "K1", 1, 1),
                Edge("H2", "K2", 1, 1),
            ])
        assert isinstance(info.value, ComputationError)
        assert info.value.violations == [
            "NotATree: 4 vertices need 3 edges, found 2"]

    def test_undeclared_id_is_named_at_construction(self):
        with pytest.raises(ValidationError) as info:
            SpliceDiagram("X", [
                Vertex("H1", VertexKind.NODE),
                Vertex("H2", VertexKind.NODE),
                Vertex("K1", VertexKind.ARROW),
                Vertex("K2", VertexKind.ARROW),
            ], [
                Edge("H1", "K1", 1, 1),
                Edge("H1", "K2", 2, 1),
                Edge("H1", "KX", 3, 1),
                Edge("KX", "H2", 1, 5),
            ])
        assert [v for v in info.value.violations
                if v.startswith("UnknownVertex")] == [
            "UnknownVertex: edge H1-KX references undeclared 'KX'",
            "UnknownVertex: edge KX-H2 references undeclared 'KX'"]


def _vertices(nodes=(), arrows=(), bvertices=()):
    return ([Vertex(v, VertexKind.NODE) for v in nodes]
            + [Vertex(v, VertexKind.ARROW) for v in arrows]
            + [Vertex(v, VertexKind.BOUNDARY) for v in bvertices])


def _edges(*pairs, weight=1):
    return [Edge(a, b, weight, weight) for a, b in pairs]


# code -> (vertices, edges): each violates the code's rule and is accepted
# by a constructor that does not validate
INVALID_DIAGRAMS = {
    "DuplicateId": (_vertices(["H1", "H1"], ["K1", "K2"]),
                    _edges(("H1", "K1"), ("H1", "K2"))),
    "UnknownVertex": (_vertices(["H1"], ["K1", "K2"]),
                      _edges(("H1", "K1"), ("H1", "K2"), ("H1", "KX"))),
    "NonpositiveWeight": (_vertices(["H1"], ["K1", "K2"]),
                          _edges(("H1", "K1"), ("H1", "K2"), weight=0)),
    "LeafDegree": (_vertices(["H1"], ["K1", "K2"], ["S1"]),
                   _edges(("H1", "K1"), ("K1", "K2"), ("H1", "S1"))),
    "ArrowheadCount-1": (_vertices(["H1"], ["K1"], ["S1"]),
                         _edges(("H1", "K1"), ("H1", "S1"))),
    "ArrowheadCount-3": (_vertices(["H1"], ["K1", "K2", "K3"]),
                         _edges(("H1", "K1"), ("H1", "K2"), ("H1", "K3"))),
    "NotATree-empty": ([], []),
    "NotATree-disconnected": (_vertices(["H1", "H2"], ["K1", "K2"]),
                              _edges(("H1", "K1"), ("H2", "K2"))),
    "NotATree-cycle": (_vertices(["H1", "H2", "H3"], ["K1", "K2"]),
                       _edges(("H1", "H2"), ("H2", "H3"), ("H3", "H1"),
                              ("K1", "K2"))),
}


@pytest.mark.parametrize("case", sorted(INVALID_DIAGRAMS))
def test_construction_raises_the_violations_validate_lists(case):
    vertices, edges = INVALID_DIAGRAMS[case]
    with pytest.raises(ValidationError) as info:
        SpliceDiagram("X", vertices, edges)
    assert info.value.violations == validate(vertices, edges)
    code = case.split("-")[0]
    assert any(v.startswith(code + ":") for v in info.value.violations)


# ------------------------------------------------- edge-list path-rule oracle

def oracle_path(d, start, goal):
    """Breadth-first search that scans the whole edge list at every vertex."""
    parents = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for e in d.edges:
            if cur in (e.a, e.b):
                nxt = e.b if cur == e.a else e.a
                if nxt not in parents:
                    parents[nxt] = cur
                    queue.append(nxt)
    out = [goal]
    while parents[out[-1]] is not None:
        out.append(parents[out[-1]])
    return out[::-1]


def oracle_linking_number(d, v, w):
    """Path rule with the path's edges excluded as unordered pairs."""
    path = oracle_path(d, v, w)
    on_path = {frozenset(pair) for pair in zip(path, path[1:])}
    result = 1
    for vid in path:
        if d.vertex(vid).kind is not VertexKind.NODE:
            continue
        for e in d.edges:
            if vid in (e.a, e.b) and frozenset((e.a, e.b)) not in on_path:
                result *= e.weight_a if vid == e.a else e.weight_b
    return result


def oracle_degree(d, vid):
    return sum(1 for e in d.edges for end in (e.a, e.b) if end == vid)


def random_diagram(seed):
    """A valid diagram: a random tree of 1..6 nodes of degree at most 5,
    two arrowheads and 0..6 boundary vertices hung on nodes with room,
    weights 1..6 at both ends, declaration and edge order shuffled and edge
    ends swapped at random."""
    rng = random.Random(seed)
    nodes = ["H%d" % i for i in range(1, rng.randint(1, 6) + 1)]
    degree = dict.fromkeys(nodes, 0)
    pairs = []

    def attach(vid, candidates):
        node = rng.choice([h for h in candidates if degree[h] < 5])
        degree[node] += 1
        pairs.append((node, vid))

    for i, node in enumerate(nodes[1:], 1):
        attach(node, nodes[:i])
        degree[node] += 1
    vertices = [Vertex(h, VertexKind.NODE) for h in nodes]
    leaves = [Vertex("K1", VertexKind.ARROW), Vertex("K2", VertexKind.ARROW)]
    leaves += [Vertex("S%d" % i, VertexKind.BOUNDARY)
               for i in range(1, rng.randint(0, 6) + 1)]
    for leaf in leaves:  # the nodes have room for at least five leaves
        if all(degree[h] == 5 for h in nodes):
            break
        attach(leaf.id, nodes)
        vertices.append(leaf)
    rng.shuffle(vertices)
    edges = []
    for a, b in pairs:
        if rng.random() < 0.5:
            a, b = b, a
        edges.append(Edge(a, b, rng.randint(1, 6), rng.randint(1, 6)))
    rng.shuffle(edges)
    return SpliceDiagram("R%d" % seed, vertices, edges)


DIFFERENTIAL_CASES = ([("chain", n) for n in (1, 2, 3)]
                      + [("random", seed) for seed in range(40)])


@pytest.mark.parametrize("kind,arg", DIFFERENTIAL_CASES)
def test_adjacency_map_matches_edge_list_oracle(kind, arg):
    d = build_k2n(arg) if kind == "chain" else random_diagram(arg)
    ids = [v.id for v in d.vertices]
    for v in ids:
        for w in ids:
            if v != w:
                assert linking_number(d, v, w) == \
                    oracle_linking_number(d, v, w)


@pytest.mark.parametrize("kind,arg", DIFFERENTIAL_CASES)
def test_virtual_forms_match_edge_list_oracle(kind, arg):
    d = build_k2n(arg) if kind == "chain" else random_diagram(arg)
    k1, k2 = (v.id for v in d.arrowheads)
    assert d.virtual_forms() == [
        (v, oracle_linking_number(d, k1, v.id),
         oracle_linking_number(d, k2, v.id), oracle_degree(d, v.id))
        for v in d.vertices if v.kind is not VertexKind.ARROW]
    # positive weights make every form nonzero: each has a kernel line
    assert all(a >= 1 and b >= 1 for _v, a, b, _deg in d.virtual_forms())


def test_virtual_forms_closed_form_on_a_long_chain():
    n = 300
    forms = {v.id: (a, b, deg) for v, a, b, deg in build_k2n(n).virtual_forms()}
    assert len(forms) == 4 * n
    for i in range(1, 2 * n + 1):
        assert forms["H%d" % i] == (3 ** i, 3 ** (2 * n - i + 1), 3)
        assert forms["S%d" % i] == (3 ** (i - 1), 3 ** (2 * n - i), 1)


def test_ball_gives_back_the_nonfibered_rays():
    diagrams = [build_k2n(n) for n in (1, 2, 3, 4)]
    # About two in five random diagrams have a bounded ball; the others
    # have a ray of norm zero, and unit_ball rejects them.
    diagrams += [random_diagram(seed) for seed in range(200)]
    checked = 0
    for d in diagrams:
        try:
            ball = unit_ball(d)
        except DegenerateForm:
            continue
        assert ball.nonfibered_rays() == nonfibered_rays(d)
        checked += 1
    assert checked >= 80
