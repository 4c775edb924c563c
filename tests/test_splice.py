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


EDGE_USAGE = "usage: edge <idA> <idB> <weightA> <weightB>"
HEADER_FIRST = "first directive must be 'diagram'"
BODY = "diagram X\nnode A\nnode B\n"

# (text, line, message): one row per DiagramSyntaxError branch of the parser
SYNTAX_ERRORS = [
    ("", 1, "missing 'diagram' header"),
    ("\n", 2, "missing 'diagram' header"),
    ("# only\n  # comments\n", 3, "missing 'diagram' header"),
    ("# only a comment", 2, "missing 'diagram' header"),
    ("node H1\ndiagram X\n", 1, HEADER_FIRST),
    ("\n# c\n  edge A B 1 1\ndiagram X\n", 3, HEADER_FIRST),
    ("arrow K1\n", 1, HEADER_FIRST),
    ("splice A B\n", 1, HEADER_FIRST),
    ("diagram X\ndiagram Y\n", 2, "duplicate 'diagram' header"),
    ("diagram X\nnode A\n  diagram X\n", 3, "duplicate 'diagram' header"),
    ("diagram X\ndiagram\n", 2, "duplicate 'diagram' header"),
    ("diagram\n", 1, "usage: diagram <name>"),
    ("diagram X Y\n", 1, "usage: diagram <name>"),
    ("diagram # X\n", 1, "usage: diagram <name>"),
    ("diagram X\nnode\n", 2, "usage: node <id>"),
    ("diagram X\nnode A B\n", 2, "usage: node <id>"),
    ("diagram X\nbvertex\n", 2, "usage: bvertex <id>"),
    ("diagram X\nbvertex S1 S2\n", 2, "usage: bvertex <id>"),
    ("diagram X\narrow\n", 2, "usage: arrow <id>"),
    ("diagram X\narrow K1 K2\n", 2, "usage: arrow <id>"),
    ("diagram X\nnode#A\n", 2, "usage: node <id>"),
    (BODY + "edge A B 1\n", 4, EDGE_USAGE),
    (BODY + "edge A B 1 1 1\n", 4, EDGE_USAGE),
    (BODY + "edge\n", 4, EDGE_USAGE),
    (BODY + "edge A B 1 # 1\n", 4, EDGE_USAGE),
    (BODY + "edge A B one 1\n", 4, "edge weights must be integers"),
    (BODY + "edge A B 1 1.5\n", 4, "edge weights must be integers"),
    (BODY + "edge A B 1 0x2\n", 4, "edge weights must be integers"),
    ("diagram X\nsplice H1 H2\n", 2, "unknown directive 'splice'"),
    ("diagram X\nNode A\n", 2, "unknown directive 'Node'"),
    ("diagram X\nnodes A\n", 2, "unknown directive 'nodes'"),
    ("diagram X\nno#de A\n", 2, "unknown directive 'no'"),
    ("diagram X\r\nnode A\r\nedges A B 1 1\r\n", 3,
     "unknown directive 'edges'"),
]


@pytest.mark.parametrize("text,line,message", SYNTAX_ERRORS)
def test_syntax_error_line_and_message(text, line, message):
    with pytest.raises(DiagramSyntaxError) as info:
        parse_diagram(text)
    assert (info.value.line, info.value.message) == (line, message)
    assert str(info.value) == "line %d: %s" % (line, message)


def test_mid_line_comments_are_dropped():
    d = parse_diagram("diagram X#name\nnode H1 # the node\narrow K1#\n"
                      "arrow\tK2\n#edge H1 K1 9 9\nedge H1 K1 2 1 # w\n"
                      "  edge H1 K2 3 1\n")
    assert d.name == "X"
    assert [v.id for v in d.vertices] == ["H1", "K1", "K2"]
    assert list(d.edges) == [Edge("H1", "K1", 2, 1), Edge("H1", "K2", 3, 1)]


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

    def test_vertices_and_edges_cannot_be_changed(self):
        d = build_k2n(1)
        with pytest.raises(AttributeError):
            d.edges.append(Edge("H1", "K1", 0, 0))
        with pytest.raises(AttributeError):
            d.vertices.append(Vertex("H9", VertexKind.NODE))
        assert linking_number(d, "K1", "K2") == 9
        assert parse_diagram(render_diagram(d)).edges == d.edges


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


# A repeated edge is one adjacency entry but two edge ends: the degrees
# and edge counts below, recorded before the adjacency map became a dict of
# dicts, count every end.
REPEATED_EDGES = {
    "node-node": (K2_TEXT + "edge H1 H2 1 1\n", [
        "NotATree: 6 vertices need 5 edges, found 6"]),
    "node-leaf": (K2_TEXT + "edge H1 S1 3 1\n", [
        "LeafDegree: bvertex 'S1' has degree 2, leaves must have degree 1",
        "NotATree: 6 vertices need 5 edges, found 6"]),
    "reversed": (K2_TEXT + "edge S1 H1 1 3\n", [
        "LeafDegree: bvertex 'S1' has degree 2, leaves must have degree 1",
        "NotATree: 6 vertices need 5 edges, found 6"]),
    "replacing": (K2_TEXT.replace("edge H2 K2 1 1\n", "")
                  + "edge H1 S1 2 2\n", [
        "LeafDegree: bvertex 'S1' has degree 2, leaves must have degree 1",
        "LeafDegree: arrow 'K2' has degree 0, leaves must have degree 1",
        "NotATree: diagram is disconnected"]),
    "tripled": (K2_TEXT + "edge H2 S2 3 1\nedge S2 H2 0 1\n", [
        "NonpositiveWeight: edge S2-H2 carries weights (0, 1)",
        "LeafDegree: bvertex 'S2' has degree 3, leaves must have degree 1",
        "NotATree: 6 vertices need 5 edges, found 7"]),
    "arrows": ("diagram X\narrow K1\narrow K2\nedge K1 K2 1 1\n"
               "edge K2 K1 1 1\n", [
        "LeafDegree: arrow 'K1' has degree 2, leaves must have degree 1",
        "LeafDegree: arrow 'K2' has degree 2, leaves must have degree 1",
        "NotATree: 2 vertices need 1 edges, found 2"]),
}


@pytest.mark.parametrize("case", sorted(REPEATED_EDGES))
def test_repeated_edges_count_every_end(case):
    text, violations = REPEATED_EDGES[case]
    with pytest.raises(ValidationError) as info:
        parse_diagram(text)
    assert info.value.violations == violations


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


def branching_diagram(seed):
    """A valid diagram larger than random_diagram's: a random tree of 8..14
    nodes, most of them filled to degree 5 with leaves (the two
    arrowheads, then boundary vertices), and each weight 1 with
    probability one half, else 2..7, at both ends, leaf ends included;
    declaration and edge order shuffled and edge ends swapped at random."""
    rng = random.Random("branching:%d" % seed)
    nodes = ["H%d" % i for i in range(1, rng.randint(8, 14) + 1)]
    degree = dict.fromkeys(nodes, 0)
    pairs = []
    for i, node in enumerate(nodes[1:], 1):
        parent = rng.choice([h for h in nodes[:i] if degree[h] < 4])
        pairs.append((parent, node))
        degree[parent] += 1
        degree[node] += 1
    leaves = ["K1", "K2"]
    for node in nodes:
        room = 5 - degree[node] - (rng.random() < 0.25)
        leaves += ["S%d" % (len(leaves) + i) for i in range(room)]
    hosts = [h for h in nodes for _ in range(5 - degree[h])]
    rng.shuffle(hosts)
    vertices = [Vertex(h, VertexKind.NODE) for h in nodes]
    for leaf, host in zip(leaves, hosts):
        pairs.append((host, leaf))
        vertices.append(Vertex(leaf, VertexKind.ARROW if leaf[0] == "K"
                               else VertexKind.BOUNDARY))
    rng.shuffle(vertices)

    def weight():
        return 1 if rng.random() < 0.5 else rng.randint(2, 7)

    edges = [Edge(*((a, b) if rng.random() < 0.5 else (b, a)),
                  weight(), weight()) for a, b in pairs]
    rng.shuffle(edges)
    return SpliceDiagram("B%d" % seed, vertices, edges)


DIAGRAMS = {"chain": build_k2n, "random": random_diagram,
            "branching": branching_diagram}

# chain n = 12 is the benchmark's 24-node chain
DIFFERENTIAL_CASES = ([("chain", n) for n in (1, 2, 3, 12)]
                      + [("random", seed) for seed in range(40)]
                      + [("branching", seed) for seed in range(6)])


def test_branching_diagrams_have_what_they_promise():
    for seed in range(6):
        d = branching_diagram(seed)
        degrees = [deg for v, _a, _b, deg in d.virtual_forms()
                   if v.kind is VertexKind.NODE]
        assert len(degrees) >= 8 and degrees.count(5) >= len(degrees) // 2
        ends = [w for e in d.edges for w in (e.weight_a, e.weight_b)]
        assert ends.count(1) >= len(ends) // 4
        assert any(w > 1 for e in d.edges for w in (e.weight_a, e.weight_b)
                   if e.a[0] != "H" or e.b[0] != "H")


@pytest.mark.parametrize("kind,arg", DIFFERENTIAL_CASES)
def test_adjacency_map_matches_edge_list_oracle(kind, arg):
    d = DIAGRAMS[kind](arg)
    ids = [v.id for v in d.vertices]
    for v in ids:
        for w in ids:
            if v != w:
                assert linking_number(d, v, w) == \
                    oracle_linking_number(d, v, w)


@pytest.mark.parametrize("kind,arg", DIFFERENTIAL_CASES)
def test_virtual_forms_match_edge_list_oracle(kind, arg):
    d = DIAGRAMS[kind](arg)
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
