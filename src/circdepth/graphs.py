"""Labeled simple graphs and every graph family this package computes with.

Vertices are 0-based indices internally; display labels keep the 1-based
x/y naming (``x1``, ``y3``, ...) so reports and fixtures stay readable.
Adjacency is one bitset per vertex, which keeps induced subgraphs,
component splits and subset enumeration cheap.
"""

from __future__ import annotations

import re
from math import gcd
from operator import attrgetter
from typing import ClassVar, Iterator, Sequence, Union, get_args

MAX_ISO_VERTICES = 24


class GraphSpecError(ValueError):
    """Invalid family parameters or an unparsable graph-spec string."""


class IsomorphismSizeError(ValueError):
    """Graph too large for exact isomorphism search."""


class DecompositionError(RuntimeError):
    """A structural decomposition failed to validate against the edge rule.

    Raised when the closed-form maps, one per copy, are not exactly the
    components of C_2n(a, n), whose edges join vertices a or n apart mod 2n;
    this is a finding, not a user error.
    """


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Record:
    """Base of the package's immutable value classes.

    A subclass's fields are its annotated names that are not ClassVar, its
    base's fields first; they are read once, when the class is made.  Each
    subclass writes its own ``__init__``: it checks its arguments and sets
    each field once with ``object.__setattr__``.  The base compares and
    hashes the fields (objects of different classes are never equal), shows
    them as ``Name(field=value, ...)``, and refuses assignment and deletion.
    No code is generated, so defining a subclass costs no more than any class.
    """

    _fields: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        notes = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(
            name for name, note in notes.items()
            if not str(note).startswith(("ClassVar", "typing.ClassVar"))
        )
        # called as self._key(self): the field values, as a tuple when there
        # are several; an attrgetter reads them as fast as a written-out tuple
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(Record):
    """Immutable simple graph: unique labels plus per-vertex adjacency bitsets."""

    labels: tuple[str, ...]
    adjacency: tuple[int, ...]

    def __init__(self, labels: tuple[str, ...], adjacency: tuple[int, ...]) -> None:
        n = len(labels)
        if len(adjacency) != n:
            raise ValueError("adjacency length must equal number of labels")
        if len(set(labels)) != n:
            raise ValueError("vertex labels must be unique")
        full = (1 << n) - 1
        for v, row in enumerate(adjacency):
            if row & ~full:
                raise ValueError(f"adjacency bitset of vertex {v} exceeds width {n}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in bits(row):
                if not (adjacency[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {u})")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "adjacency", adjacency)

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edges as index pairs (u, v) with u < v, sorted."""
        out = []
        for v, row in enumerate(self.adjacency):
            for u in bits(row >> (v + 1)):
                out.append((v, v + 1 + u))
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adjacency[u] >> v) & 1)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(row.bit_count() for row in self.adjacency))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no vertex labeled {label!r}") from None


def graph_from_edges(labels: Sequence[str], edges: Sequence[tuple[int, int]]) -> Graph:
    n = len(labels)
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(labels), tuple(adj))


# ---------------------------------------------------------------------------
# Graph specs (closed family grammar)
#
# Each spec class defines one family: its parameters and their checks, its
# kind token, its spec string, display name and CSV ``params`` cell, its
# vertex and edge counts in closed form, and its graph builder.
# ``parse(kind, body)`` reads the text after ``kind:`` and returns None when
# its shape is wrong.  Adding a family means writing one class and listing it
# in GraphSpec, from which _SPEC_KINDS is read.
# ---------------------------------------------------------------------------


_NUMERAL = re.compile(r"0|[1-9][0-9]*")


def _number(text: str) -> int:
    """A spec number: a canonical ASCII decimal numeral, so specs round-trip."""
    if not _NUMERAL.fullmatch(text):
        raise ValueError(f"{text!r} is not a decimal numeral without sign or leading zeros")
    return int(text)


def _x_labels(q: int) -> list[str]:
    return [f"x{i}" for i in range(1, q + 1)]


class _OrderSpec(Record):
    """A family with one member per vertex count q, labeled x1..xq.

    Subclasses name the family and give its edge list in ``edges()`` and
    its length in ``edge_count``.
    """

    q: int

    kind: ClassVar[str]
    symbol: ClassVar[str]  # display name prefix, as in P_5
    noun: ClassVar[str]
    min_q: ClassVar[int]

    def __init__(self, q: int) -> None:
        if q < self.min_q:
            raise GraphSpecError(f"{self.noun} needs q >= {self.min_q}")
        object.__setattr__(self, "q", q)

    @classmethod
    def parse(cls, kind: str, body: str) -> GraphSpec | None:
        return None if ":" in body else cls(_number(body))

    def to_string(self) -> str:
        return f"{self.kind}:{self.q}"

    def display_name(self) -> str:
        return f"{self.symbol}_{self.q}"

    def params(self) -> str:
        return f"q={self.q}"

    @property
    def num_vertices(self) -> int:
        return self.q

    def build(self) -> Graph:
        return graph_from_edges(_x_labels(self.q), self.edges())


class PathSpec(_OrderSpec):
    """The path x1 - x2 - ... - xq."""

    kind, symbol, noun, min_q = "path", "P", "path", 1

    @property
    def edge_count(self) -> int:
        return self.q - 1

    def edges(self) -> list[tuple[int, int]]:
        return [(i, i + 1) for i in range(self.q - 1)]


class CycleSpec(_OrderSpec):
    """The cycle x1 - x2 - ... - xq - x1."""

    kind, symbol, noun, min_q = "cycle", "C", "cycle", 3

    @property
    def edge_count(self) -> int:
        return self.q

    def edges(self) -> list[tuple[int, int]]:
        return [(i, (i + 1) % self.q) for i in range(self.q)]


class StarSpec(_OrderSpec):
    """The star with center x1 and leaves x2..xq."""

    kind, symbol, noun, min_q = "star", "S", "star", 2

    @property
    def edge_count(self) -> int:
        return self.q - 1

    def edges(self) -> list[tuple[int, int]]:
        # center x1, q-1 leaves
        return [(0, i) for i in range(1, self.q)]


class CompleteSpec(_OrderSpec):
    """The complete graph on x1..xq."""

    kind, symbol, noun, min_q = "complete", "K", "complete graph", 1

    @property
    def edge_count(self) -> int:
        return self.q * (self.q - 1) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.q) for j in range(i + 1, self.q)]


def _circulant(q: int, shifts: tuple[int, ...]) -> Graph:
    # an edge met twice (shift q/2) sets the same adjacency bits again
    return graph_from_edges(
        _x_labels(q), [(i, (i + s) % q) for i in range(q) for s in shifts]
    )


class CirculantSpec(Record):
    """The circulant on x1..xq: i and i + s (mod q) adjacent for every shift s."""

    q: int
    shifts: tuple[int, ...]

    kind: ClassVar[str] = "circulant"

    def __init__(self, q: int, shifts: tuple[int, ...]) -> None:
        if q < 2:
            raise GraphSpecError("circulant needs q >= 2")
        shifts = tuple(sorted(set(shifts)))
        if not shifts:
            raise GraphSpecError("circulant needs a nonempty shift set")
        if any(s < 1 or s > q // 2 for s in shifts):
            raise GraphSpecError(f"circulant shifts must lie in 1..{q // 2} for q={q}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "shifts", shifts)

    @classmethod
    def parse(cls, kind: str, body: str) -> GraphSpec | None:
        fields = body.split(":")
        if len(fields) != 2:
            return None
        return cls(_number(fields[0]), tuple(_number(t) for t in fields[1].split(",")))

    def to_string(self) -> str:
        return f"{self.kind}:{self.q}:{','.join(map(str, self.shifts))}"

    def display_name(self) -> str:
        return f"C_{self.q}({','.join(map(str, self.shifts))})"

    def params(self) -> str:
        return self.to_string()

    @property
    def num_vertices(self) -> int:
        return self.q

    @property
    def edge_count(self) -> int:
        # shift q/2 pairs each vertex with its antipode: q/2 edges, not q
        return sum(self.q // 2 if 2 * s == self.q else self.q for s in self.shifts)

    def build(self) -> Graph:
        return _circulant(self.q, self.shifts)


class CubicCirculantSpec(Record):
    """The 3-regular circulant on 2n vertices with shifts {a, n}, 1 <= a < n."""

    n: int
    a: int

    kind: ClassVar[str] = "cubic"

    def __init__(self, n: int, a: int) -> None:
        if n < 2:
            raise GraphSpecError("cubic circulant needs n >= 2")
        if not 1 <= a < n:
            # a = n degenerates to a multigraph matching; rejected outright.
            raise GraphSpecError("cubic circulant needs 1 <= a < n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)

    @classmethod
    def parse(cls, kind: str, body: str) -> GraphSpec | None:
        fields = body.split(":")
        return cls(_number(fields[0]), _number(fields[1])) if len(fields) == 2 else None

    def to_string(self) -> str:
        return f"{self.kind}:{self.n}:{self.a}"

    def display_name(self) -> str:
        return f"C_{2 * self.n}({self.a},{self.n})"

    def params(self) -> str:
        return f"n={self.n},a={self.a}"

    @property
    def num_vertices(self) -> int:
        return 2 * self.n

    @property
    def edge_count(self) -> int:
        return 3 * self.n

    def build(self) -> Graph:
        return _circulant(2 * self.n, (self.a, self.n))

    def split(self) -> tuple[int, str, int, CirculantSpec]:
        """The gcd split: (t, parity of 2n/t, copy count, connected component).

        With t = gcd(2n, a) the graph is t copies of C_{2n/t}(1, n/t) when
        2n/t is even, otherwise t/2 copies of C_{4n/t}(2, 2n/t).
        """
        t = gcd(2 * self.n, self.a)
        m = 2 * self.n // t
        if m % 2 == 0:
            return t, "even", t, CirculantSpec(m, (1, m // 2))
        return t, "odd", t // 2, CirculantSpec(2 * m, (2, m))


def _ladder(n: int, xs: int, ys: int, extra: Sequence[tuple[str, str]]) -> Graph:
    """The ladder A_n on the labels x1..x_xs, y1..y_ys, plus the ``extra`` edges.

    A_n is two n-vertex paths x1..xn and y1..yn joined by rungs xi-yi.  The
    labels run x1..x_xs, then y1..y_ys, so a row longer than n holds the
    vertices a supergraph adds; ``extra`` gives its edges as label pairs.
    """
    labels = _x_labels(xs) + [f"y{i}" for i in range(1, ys + 1)]
    edges = [(i, xs + i) for i in range(n)]
    edges += [(r + i, r + i + 1) for r in (0, xs) for i in range(n - 1)]
    edges += [(labels.index(u), labels.index(v)) for u, v in extra]
    return graph_from_edges(labels, edges)


# Per ladder family, n -> (x row length, y row length, edges added to A_n);
# B_0 is the single vertex y1.
_LADDER_SHAPES = {
    "A": lambda n: (n, n, []),
    "B": lambda n: (n, n + 1, [(f"y{n}", f"y{n+1}")] if n else []),
    "C": lambda n: (n, n + 2, [(f"y{n}", f"y{n+1}"), ("y1", f"y{n+2}")]),
    "D": lambda n: (n + 1, n + 1, [(f"y{n}", f"y{n+1}"), ("x1", f"x{n+1}")]),
}


class LadderSpec(Record):
    """Ladder graph family: 'A' is the 2n-vertex ladder, 'B'/'C'/'D' its supergraphs."""

    family: str
    n: int

    def __init__(self, family: str, n: int) -> None:
        if family not in _LADDER_SHAPES:
            raise GraphSpecError("ladder family must be one of A, B, C, D")
        low = 0 if family == "B" else 1
        if n < low:
            raise GraphSpecError(f"ladder {family} needs n >= {low}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)

    @property
    def kind(self) -> str:
        return f"ladder{self.family}"

    @classmethod
    def parse(cls, kind: str, body: str) -> GraphSpec | None:
        return None if ":" in body else cls(kind[-1], _number(body))

    def to_string(self) -> str:
        return f"{self.kind}:{self.n}"

    def display_name(self) -> str:
        return f"{self.family}_{self.n}"

    def params(self) -> str:
        return f"n={self.n}"

    @property
    def num_vertices(self) -> int:
        # A_n, plus the one (B) or two (C, D) vertices the supergraphs add
        return 2 * self.n + {"A": 0, "B": 1}.get(self.family, 2)

    @property
    def edge_count(self) -> int:
        # 3n - 2 in A_n, plus one edge per added vertex; B_0 is one vertex
        return max(self.num_vertices + self.n - 2, 0)

    def build(self) -> Graph:
        return _ladder(self.n, *_LADDER_SHAPES[self.family](self.n))


class UnionSpec(Record):
    """The disjoint union of its parts, labels prefixed by part number ('1:x2')."""

    parts: tuple["GraphSpec", ...]

    kind: ClassVar[str] = "union"

    def __init__(self, parts: tuple[GraphSpec, ...]) -> None:
        if not parts:
            raise GraphSpecError("union needs at least one part")
        object.__setattr__(self, "parts", tuple(parts))

    @classmethod
    def parse(cls, kind: str, body: str) -> GraphSpec | None:
        if not (body.startswith("(") and body.endswith(")")):
            raise GraphSpecError(f"union spec needs parentheses: {kind + ':' + body!r}")
        parts, depth, cur = [], 0, []
        for ch in body[1:-1]:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == ";" and depth == 0:
                parts.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        parts.append("".join(cur))
        return cls(tuple(_parse_spec(p) for p in parts))

    def to_string(self) -> str:
        return f"{self.kind}:(" + ";".join(p.to_string() for p in self.parts) + ")"

    def display_name(self) -> str:
        return " + ".join(p.display_name() for p in self.parts)

    def params(self) -> str:
        return self.to_string()

    @property
    def num_vertices(self) -> int:
        return sum(p.num_vertices for p in self.parts)

    @property
    def edge_count(self) -> int:
        return sum(p.edge_count for p in self.parts)

    def build(self) -> Graph:
        return disjoint_union([p.build() for p in self.parts])


GraphSpec = Union[
    PathSpec,
    CycleSpec,
    StarSpec,
    CompleteSpec,
    CirculantSpec,
    CubicCirculantSpec,
    LadderSpec,
    UnionSpec,
]

_SPEC_KINDS: dict[str, type] = {
    **{cls.kind: cls for cls in get_args(GraphSpec) if cls is not LadderSpec},
    **{f"ladder{family}": LadderSpec for family in _LADDER_SHAPES},
}


def build_graph(spec: GraphSpec) -> Graph:
    """Construct the labeled graph a spec describes."""
    return spec.build()


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union; labels get a part prefix ('1:x2') to stay unique."""
    labels: list[str] = []
    adj: list[int] = []
    offset = 0
    for k, g in enumerate(graphs, start=1):
        labels += [f"{k}:{lab}" for lab in g.labels]
        adj += [row << offset for row in g.adjacency]
        offset += g.num_vertices
    return Graph(tuple(labels), tuple(adj))


def moebius_ladder(n: int) -> Graph:
    """The connected cubic circulant on 2n vertices with shifts {1, n}, in x/y labels.

    Two n-paths x1..xn and y1..yn, rungs xi-yi, closed up by xn-y1 and yn-x1.
    The identity on vertex indices maps it onto build_graph(CubicCirculantSpec(n, 1)):
    xi and yi are vertices i - 1 and n + i - 1, and the two adjacencies are
    equal.  This labeling is the one the colon-decomposition fixtures pivot on.
    """
    if n < 2:
        raise GraphSpecError("moebius ladder needs n >= 2")
    return _ladder(n, n, n, [(f"x{n}", "y1"), (f"y{n}", "x1")])


def prism(n: int) -> Graph:
    """Two n-cycles x1..xn and y1..yn joined by rungs xi-yi.

    For odd n this is the connected cubic circulant C_2n(2, n): xi maps to
    vertex 2(i - 1) and yi to vertex 2(i - 1) + n mod 2n of
    build_graph(CubicCirculantSpec(n, 2)), every edge to an edge (for even n
    that circulant is disconnected and is *not* this graph).
    """
    if n < 3:
        raise GraphSpecError("prism needs n >= 3")
    return _ladder(n, n, n, [(f"x{n}", "x1"), (f"y{n}", "y1")])


# ---------------------------------------------------------------------------
# Spec grammar (CLI / JSON surface)
# ---------------------------------------------------------------------------

_GRAMMAR = (
    "path:Q | cycle:Q | star:Q | complete:Q | circulant:Q:a1,a2,... | "
    "cubic:N:A | ladderA:N | ladderB:N | ladderC:N | ladderD:N | "
    "union:(spec;spec;...)"
)


def parse_graph_spec(text: str) -> GraphSpec:
    """Parse the spec grammar used by the CLI and JSON reports.

    Whitespace around the whole spec is ignored; inside it, including
    around union parts, it is an error, so a spec reads back as its text.
    """
    return _parse_spec(text.strip())


def _parse_spec(text: str) -> GraphSpec:
    kind, sep, body = text.partition(":")
    cls = _SPEC_KINDS.get(kind) if sep else None
    try:
        spec = cls.parse(kind, body) if cls is not None else None
    except GraphSpecError:
        raise
    except ValueError as exc:
        raise GraphSpecError(f"bad number in graph spec {text!r}: {exc}") from None
    if spec is None:
        raise GraphSpecError(f"cannot parse graph spec {text!r}; grammar: {_GRAMMAR}")
    return spec


# ---------------------------------------------------------------------------
# Induced subgraphs and components
# ---------------------------------------------------------------------------


def induced_subgraph(g: Graph, vertex_mask: int) -> Graph:
    """Restrict to the vertices of ``vertex_mask``; original labels retained."""
    if vertex_mask & ~((1 << g.num_vertices) - 1):
        raise ValueError("vertex mask exceeds graph width")
    keep = list(bits(vertex_mask))
    pos = {v: i for i, v in enumerate(keep)}
    adj = [0] * len(keep)
    for v in keep:
        for u in bits(g.adjacency[v] & vertex_mask):
            adj[pos[v]] |= 1 << pos[u]
    return Graph(tuple(g.labels[v] for v in keep), tuple(adj))


def components_of_mask(adjacency: Sequence[int], mask: int) -> list[int]:
    """Connected components of the induced subgraph on ``mask``, as submasks."""
    comps = []
    remaining = mask
    while remaining:
        seed = remaining & -remaining
        comp = 0
        frontier = seed
        while frontier:
            comp |= frontier
            nxt = 0
            for v in bits(frontier):
                nxt |= adjacency[v]
            frontier = nxt & mask & ~comp
        comps.append(comp)
        remaining &= ~comp
    return comps


# ---------------------------------------------------------------------------
# Exact isomorphism (colour refinement + backtracking)
# ---------------------------------------------------------------------------


def _refined_colours(g: Graph) -> list[int]:
    """Per-vertex colours of the stable refinement that starts from the degrees.

    A round gives each vertex the signature (its colour, the sorted colours
    of its neighbours); the new colours number the distinct signatures in
    sorted order.  The rounds stop when no colour changes.
    """
    colours = [row.bit_count() for row in g.adjacency]
    while True:
        sigs = [
            (colours[v], tuple(sorted(colours[u] for u in bits(row))))
            for v, row in enumerate(g.adjacency)
        ]
        number = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [number[sig] for sig in sigs]
        if new == colours:
            return new
        colours = new


def _check_iso_size(num_vertices: int) -> None:
    if num_vertices > MAX_ISO_VERTICES:
        raise IsomorphismSizeError(
            f"too large for exact isomorphism (limit {MAX_ISO_VERTICES} vertices)"
        )


def find_isomorphism(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """Edge-preserving bijection as a tuple mapping g-vertex -> h-vertex, or None.

    A library reference checker; no command runs it.  Exact deterministic
    backtracking; both graphs must have at most MAX_ISO_VERTICES vertices.
    Both graphs are coloured by _refined_colours and a g-vertex may only map
    onto an h-vertex of its own colour.  The g-vertices are placed in a fixed
    order: next is an unplaced vertex adjacent to a placed one (any unplaced
    vertex if none is), from the smallest colour class, then of the lowest
    index.  Each is tried on the unused h-vertices of its colour in ascending
    order, and kept when its edges to the used h-vertices are exactly the
    images of its placed neighbours.  The mapping returned is the first
    complete one in that order.
    """
    n = g.num_vertices
    _check_iso_size(max(n, h.num_vertices))
    if n != h.num_vertices or g.edge_count != h.edge_count:
        return None
    if g.degree_sequence() != h.degree_sequence():
        return None
    g_colours, h_colours = _refined_colours(g), _refined_colours(h)
    if sorted(g_colours) != sorted(h_colours):
        return None
    h_by_colour: dict[int, list[int]] = {}
    for w, c in enumerate(h_colours):
        h_by_colour.setdefault(c, []).append(w)

    order: list[int] = []
    placed = 0
    while len(order) < n:
        unplaced = [v for v in range(n) if not (placed >> v) & 1]
        frontier = [v for v in unplaced if g.adjacency[v] & placed] or unplaced
        v = min(frontier, key=lambda v: (len(h_by_colour[g_colours[v]]), v))
        order.append(v)
        placed |= 1 << v

    mapping = [-1] * n

    def extend(idx: int, used: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        image = 0  # the images of v's placed neighbours
        for u in bits(g.adjacency[v]):
            if mapping[u] >= 0:
                image |= 1 << mapping[u]
        for w in h_by_colour[g_colours[v]]:
            if not (used >> w) & 1 and h.adjacency[w] & used == image:
                mapping[v] = w
                if extend(idx + 1, used | 1 << w):
                    return True
        mapping[v] = -1
        return False

    return tuple(mapping) if extend(0, 0) else None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None


# ---------------------------------------------------------------------------
# Structural decomposition of cubic circulants
# ---------------------------------------------------------------------------


def _check_copies(
    spec: CubicCirculantSpec, component: CirculantSpec, images: list[list[int]]
) -> None:
    """Raise DecompositionError unless ``images`` are exactly the components of ``spec``.

    ``images[j][i]`` is copy j's vertex for model vertex i.  Two vertices of
    C_2n(a, n) are adjacent when they lie a, n or 2n - a apart mod 2n, the
    rule _circulant builds from, so no graph is built.  Distinct, disjoint
    images that carry every model edge, cover the 2n vertices and match the
    3n edges are connected unions of whole components: the components themselves.
    """
    q, size = spec.num_vertices, component.num_vertices
    apart = {spec.a, spec.n, q - spec.a}
    covered: set[int] = set()
    ok = len(images) * component.edge_count == spec.edge_count
    for image in images:
        ok = ok and len(set(image)) == size and covered.isdisjoint(image) and all(
            (image[(i + s) % size] - image[i]) % q in apart
            for i in range(size) for s in component.shifts)
        covered.update(image)
    if not ok or covered != set(range(q)):
        raise DecompositionError(f"copies of {component.display_name()} are not the components")


def davis_domke_decompose(spec: CubicCirculantSpec) -> tuple[dict[str, str], ...]:
    """Map each copy of the connected circulant that C_{2n}(a, n) splits into.

    The copies and the component are those of ``spec.split()``; the result
    holds, per copy, its checked closed-form map from component-spec labels
    to labels of ``spec``.  With ``size`` the component's vertex count,
    ``step = 2n / size`` and ``u = a / gcd(2n, a)``, copy j maps model vertex
    i to ``j + step * (mult * i mod size)``: ``mult`` is u, plus size/2 when
    u is even (only in the odd case, C_2m(2, m), m odd), an odd unit mod
    ``size`` that takes the model's shifts to the copy's.  The maps are
    checked edge by edge against the edge rule of C_2n(a, n) (_check_copies);
    no graph is built and no isomorphism is searched, so the work is one map
    entry per vertex, whatever the component's size.
    """
    t, _parity, copy_count, component_spec = spec.split()
    size = component_spec.num_vertices
    step, u = spec.num_vertices // size, spec.a // t
    mult = u if u % 2 else u + size // 2
    images = [[j + step * (mult * i % size) for i in range(size)] for j in range(copy_count)]
    _check_copies(spec, component_spec, images)
    return tuple(dict(zip(_x_labels(size), [f"x{v + 1}" for v in im])) for im in images)
