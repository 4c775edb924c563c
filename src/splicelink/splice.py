"""Splice diagrams of 2-component graph links: data model, DSL, generators.

A splice diagram is a weighted tree.  Nodes stand for the Seifert-fibered
pieces of the link exterior, boundary vertices for tubular neighborhoods of
singular fibers, and arrowheads for the actual link components.  Each edge
end carries a positive integer weight (the order of the corresponding
fiber); only the weights written at node ends enter linking-number
computations, leaf-end weights are conventionally 1.

Diagrams are written in a line-oriented DSL (UTF-8, ``#`` starts a comment):

    diagram <name>
    node <id>
    bvertex <id>
    arrow <id>
    edge <idA> <idB> <weight_at_A> <weight_at_B>

Arrowheads are numbered K1, K2 in declaration order.  A valid diagram is a
tree with exactly two arrowheads, arrowheads and boundary vertices are
leaves, and every weight is positive.  Constructing a SpliceDiagram checks
this and raises ValidationError otherwise, so every function here and in
the later stages works on valid diagrams only.

Linking numbers follow the classical splice-calculus path rule: the linking
number of two (possibly virtual) components is the product, over all nodes
on the tree path joining them, of the node-end weights of the edges incident
to that node but not lying on the path.
"""

from collections import namedtuple
from enum import Enum
from math import prod

from .errors import ComputationError


class DiagramSyntaxError(ComputationError):
    """Malformed DSL text.  Carries the 1-based line number."""

    def __init__(self, line, message):
        super().__init__("line %d: %s" % (line, message))
        self.line = line
        self.message = message


class ValidationError(ComputationError):
    """A structurally invalid diagram.  Carries the violation list."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class UnknownVertex(ComputationError):
    """A vertex id that does not occur in the diagram."""


class VertexKind(Enum):
    NODE = "node"
    BOUNDARY = "bvertex"
    ARROW = "arrow"


_KINDS = {kind.value: kind for kind in VertexKind}
# reading a member off the Enum class is a descriptor call; the per-vertex
# loops read these names instead
_NODE, _ARROW = VertexKind.NODE, VertexKind.ARROW

# builds a Vertex or Edge from its field tuple in C, without the
# namedtuple's Python-level __new__; the parser's hot loop uses it
_new = tuple.__new__


class Vertex(namedtuple("Vertex", "id kind")):
    """A vertex id (str) with its VertexKind."""
    __slots__ = ()


class Edge(namedtuple("Edge", "a b weight_a weight_b")):
    """An edge between vertex ids a and b, with the integer weight at each
    end."""
    __slots__ = ()


def _bfs(adj, start):
    """Parent map of a breadth-first search of `adj` from `start`, in the
    order reached: each vertex maps to its parent, `start` to None.  The
    constructor reads the number of reached ids, the linking rows the
    map."""
    parents = {start: None}
    queue = [start]
    for cur in queue:       # the loop also visits what it appends
        for nxt in adj[cur]:
            if nxt not in parents:
                parents[nxt] = cur
                queue.append(nxt)
    return parents


class SpliceDiagram:
    """A named weighted tree of nodes, boundary vertices and arrowheads.

    The constructor runs the structural checks and raises ValidationError,
    carrying every violation, unless the vertices and edges form a valid
    diagram.  Codes: DuplicateId, UnknownVertex, NonpositiveWeight,
    ArrowheadCount, LeafDegree, NotATree.  The same pass builds the
    adjacency map (vertex id to a dict from each neighbour id to the
    weight at this end), so it is built once.  `vertices` and `edges` are
    tuples, so the map cannot go stale; the linking numbers lk(src, x) of
    every x, one row per source vertex src that has been asked for, and
    the linking forms of the virtual components are computed on first use
    and cached.
    """

    def __init__(self, name, vertices, edges):
        self.name = name
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        problems = []
        by_id = {}
        adj = {}
        for v in self.vertices:
            vid = v.id
            if vid in by_id:
                problems.append("DuplicateId: vertex id %r declared more "
                                "than once" % vid)
            by_id[vid] = v
            adj[vid] = {}

        usable = 0
        repeated = {}   # vertex -> ends of repeated edges there, which the
                        # map holds once but the degree counts
        for a, b, weight_a, weight_b in self.edges:
            at_a, at_b = adj.get(a), adj.get(b)
            if at_a is None or at_b is None:
                missing = [x for x in (a, b) if x not in by_id]
                problems.append("UnknownVertex: edge %s-%s references "
                                "undeclared %s" % (a, b, ", ".join(
                                    repr(x) for x in missing)))
            elif a == b:
                problems.append("NotATree: self-loop at %r" % a)
            else:
                if b in at_a:
                    repeated[a] = repeated.get(a, 0) + 1
                    repeated[b] = repeated.get(b, 0) + 1
                at_a[b] = weight_a
                at_b[a] = weight_b
                usable += 1
            if weight_a < 1 or weight_b < 1:
                problems.append("NonpositiveWeight: edge %s-%s carries "
                                "weights (%d, %d)"
                                % (a, b, weight_a, weight_b))

        arrowheads = []
        leaf_problems = []
        for v in self.vertices:
            kind = v.kind
            if kind is not _NODE:
                if kind is _ARROW:
                    arrowheads.append(v)
                degree = len(adj[v.id]) + repeated.get(v.id, 0)
                if degree != 1:
                    leaf_problems.append("LeafDegree: %s %r has degree %d, "
                                         "leaves must have degree 1"
                                         % (kind.value, v.id, degree))
        self.arrowheads = tuple(arrowheads)
        if len(arrowheads) != 2:
            problems.append("ArrowheadCount: expected 2 arrowheads, found %d"
                            % len(arrowheads))
        problems += leaf_problems

        # the connectivity search starts at the first arrowhead, so that
        # arrowhead's linking row reuses its parent map
        searches = {}
        if not self.vertices:
            problems.append("NotATree: empty diagram")
        elif usable != len(by_id) - 1:
            problems.append("NotATree: %d vertices need %d edges, found %d"
                            % (len(by_id), len(by_id) - 1, usable))
        else:
            start = (arrowheads or self.vertices)[0].id
            searches[start] = _bfs(adj, start)
            if len(searches[start]) != len(by_id):
                problems.append("NotATree: diagram is disconnected")

        if problems:
            raise ValidationError(problems)
        self._by_id = by_id
        self._adj = adj
        self._searches = searches   # parent maps not yet read by a row
        self._totals = None
        self._lk_rows = {}
        self._forms = None

    def vertex(self, vid):
        try:
            return self._by_id[vid]
        except KeyError:
            raise UnknownVertex("no vertex %r in diagram %r"
                                % (vid, self.name)) from None

    @property
    def nodes(self):
        return [v for v in self.vertices if v.kind is _NODE]

    def _lk_from(self, src):
        """Map from vertex id x to lk(src, x), for every x other than src.

        The row is filled in the order of `_bfs`'s parent map, so each
        vertex x comes after its parent p on the tree path from `src`.
        With total[v] the product of all of v's weights, the product of
        the weights off the path at the nodes before x is row[p] divided
        by p's weight toward x, and x adds its own weights off the path,
        total[x] divided by its weight toward p (1 for a leaf, whose only
        neighbour is p).  Seeding row[src] with total[src] makes the same
        rule hold for src's neighbours, node or leaf src alike; that entry
        is no linking number.  Each division is exact, since every weight
        is at least 1, so each vertex costs O(1).
        """
        row = self._lk_rows.get(src)
        if row is None:
            adj, totals = self._adj, self._totals
            if totals is None:
                totals = self._totals = {v: prod(nbrs.values())
                                         for v, nbrs in adj.items()}
            parents = self._searches.pop(src, None) or _bfs(adj, src)
            pairs = iter(parents.items())
            next(pairs)
            row = {src: totals[src]}
            for cur, prev in pairs:
                row[cur] = (row[prev] // adj[prev][cur]
                            * (totals[cur] // adj[cur][prev]))
            self._lk_rows[src] = row
        return row

    def virtual_forms(self):
        """(vertex, lk(K1, v), lk(K2, v), degree) for every node and
        boundary vertex, in declaration order.  Cached on first use."""
        if self._forms is None:
            k1, k2 = (k.id for k in self.arrowheads)
            adj = self._adj
            self._forms = [(v, linking_number(self, k1, v.id),
                            linking_number(self, k2, v.id), len(adj[v.id]))
                           for v in self.vertices if v.kind is not _ARROW]
        return self._forms


def linking_number(d, v, w):
    """Linking number of the (real or virtual) components at vertices v, w.

    Product over all nodes on the tree path from v to w (endpoints count
    when they are nodes) of the node-end weights of every incident edge
    not on the path, that is, of every edge to a neighbour other than the
    node's path neighbours.  The whole row lk(v, .) is computed by one
    pass on the first call from v and cached on the diagram, so later
    calls from v are lookups.  The vertex checks run only on a miss;
    they raise UnknownVertex for an undeclared id, the only id a row
    lacks.
    """
    if v == w:
        raise ValueError("linking number needs two distinct vertices")
    try:
        return d._lk_rows[v][w]
    except KeyError:
        pass
    d.vertex(v)
    d.vertex(w)
    return d._lk_from(v)[w]


def validate(vertices, edges):
    """The violation strings that SpliceDiagram(name, vertices, edges)
    raises in its ValidationError, in that order; empty when the vertices
    and edges form a valid diagram."""
    try:
        SpliceDiagram(None, vertices, edges)
    except ValidationError as error:
        return error.violations
    return []


def parse_diagram(text):
    """Parse DSL text into a SpliceDiagram.

    Raises DiagramSyntaxError on malformed lines and, from the
    constructor, ValidationError when the described graph is not a valid
    diagram.
    """
    name = None
    vertices = []
    edges = []
    ids = {}    # declared id -> its string, shared by the edges that end there
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        kw = parts[0]
        # the body's edge and vertex lines are tested first; any other
        # line is an error unless it is the first 'diagram' header
        if kw == "edge" and name is not None:
            try:
                _kw, a, b, wa, wb = parts
            except ValueError:
                raise DiagramSyntaxError(
                    lineno, "usage: edge <idA> <idB> <weightA> <weightB>"
                ) from None
            try:
                wa, wb = int(wa), int(wb)
            except ValueError:
                raise DiagramSyntaxError(
                    lineno, "edge weights must be integers") from None
            edges.append(_new(Edge, (ids.get(a, a), ids.get(b, b), wa, wb)))
        elif kw in _KINDS and name is not None:
            try:
                _kw, vid = parts
            except ValueError:
                raise DiagramSyntaxError(lineno,
                                         "usage: %s <id>" % kw) from None
            vertices.append(_new(Vertex, (ids.setdefault(vid, vid),
                                          _KINDS[kw])))
        elif kw != "diagram":
            raise DiagramSyntaxError(
                lineno, "first directive must be 'diagram'" if name is None
                else "unknown directive %r" % kw)
        elif name is not None:
            raise DiagramSyntaxError(lineno, "duplicate 'diagram' header")
        elif len(parts) != 2:
            raise DiagramSyntaxError(lineno, "usage: diagram <name>")
        else:
            name = parts[1]
    if name is None:
        raise DiagramSyntaxError(lineno + 1, "missing 'diagram' header")
    return SpliceDiagram(name, vertices, edges)


def render_diagram(d):
    """Canonical DSL text for a diagram; inverse of parse_diagram."""
    lines = ["diagram %s" % d.name]
    for v in d.vertices:
        lines.append("%s %s" % (v.kind.value, v.id))
    for e in d.edges:
        lines.append("edge %s %s %d %d" % (e.a, e.b, e.weight_a, e.weight_b))
    return "\n".join(lines) + "\n"


def build_k2n(n):
    """The 2n-node chain link obtained from the unknot by iterating the
    (3,1)-cable-and-splice construction 2n times.

    Nodes H1..H{2n} form a chain; node Hi carries a boundary vertex Si on
    an edge of weight 3 at the node end; the two link components K1, K2
    hang off the end nodes on weight-1 edges.  With these weights the
    linking numbers come out as lk(K1, Hi) = 3^i, lk(K2, Hi) = 3^(2n-i+1),
    lk(K1, Si) = 3^(i-1), lk(K2, Si) = 3^(2n-i) and lk(K1, K2) = 3^(2n).
    """
    if n < 1:
        raise ValueError("the family is defined for n >= 1")
    count = 2 * n
    vertices = [Vertex("H%d" % i, VertexKind.NODE) for i in range(1, count + 1)]
    vertices += [Vertex("S%d" % i, VertexKind.BOUNDARY)
                 for i in range(1, count + 1)]
    vertices += [Vertex("K1", VertexKind.ARROW), Vertex("K2", VertexKind.ARROW)]
    edges = [Edge("H1", "K1", 1, 1)]
    for i in range(1, count + 1):
        edges.append(Edge("H%d" % i, "S%d" % i, 3, 1))
        if i < count:
            edges.append(Edge("H%d" % i, "H%d" % (i + 1), 1, 1))
    edges.append(Edge("H%d" % count, "K2", 1, 1))
    return SpliceDiagram("K%d" % count, vertices, edges)
