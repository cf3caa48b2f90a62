"""Factor graphs of a word and their circuit structure.

The order-``i`` factor graph (Rauzy graph) of a word has the length-``i``
factors as vertices and the length-``i+1`` factors as edges; an edge runs
from its prefix to its suffix.  The public :class:`RauzyGraph` holds factor
strings, edges sorted; :func:`build_rauzy_graph` validates the word and the
order and cuts one graph.  :class:`RauzyGraph` and :class:`Circuit` have one
constructor each, which validates and normalizes.  Only the CLI and the tests
build a :class:`RauzyGraph`, so no sweep pays for that; the ``splits`` sweep
does build a :class:`Circuit` for each circuit that :func:`decompose_split`
pops from a word, and ``case-bounds`` for each circuit of a word its case
screen leaves open.

The sweeps read a private integer route instead: ``_index_graphs`` cuts
every order's graph straight from the word, vertices and edges numbered in
first-occurrence order (the edge ids of one order are the vertex ids of the
next), and yields it as a code string, one character per edge, that is
hashable and exact, so two words with the same numbered graph yield the
same string; ``_unpack`` rebuilds the adjacency lists from it.  A word's graph is
weakly connected by construction (consecutive windows are joined by an
edge), so its independence capacity ``|E| - |V| + 1`` needs no search.
``_circuit_edges`` is the one circuit search: Johnson's blocked search
over the branch-vertex skeleton, where each chain of in = out = 1 vertices
is one super-edge, capped, with circuits as lists of edge ids.
:func:`enumerate_elementary_circuits` indexes a public graph, runs the same
search and wraps each found edge-id list as a :class:`Circuit`.  The module
also computes traversal vectors and the exact rational rank of every
prefix of a list of them in one elimination routine, ``_prefix_ranks``
(:func:`independent_rank` is its last value), and analyses how the circuit
family of a primitive word splits at low orders.  ``_graph_facts`` reads
from one code string every fact the graph checks need; no code string is
decoded outside this module.  Nothing here is memoized: the memos that
share these facts between the checks of a sweep live in :mod:`circsq.verify`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from math import gcd

from .words import canonical_rotation, is_primitive, validate_word

__all__ = [
    "DEFAULT_CIRCUIT_CAP",
    "CircuitCapExceeded",
    "RauzyGraph",
    "Circuit",
    "build_rauzy_graph",
    "is_weakly_connected",
    "cyclomatic_number",
    "enumerate_elementary_circuits",
    "vector_cycle",
    "independent_rank",
    "circuit_root",
    "split_point",
    "decompose_split",
    "to_dot",
]

DEFAULT_CIRCUIT_CAP = 1_000_000


class CircuitCapExceeded(RuntimeError):
    """Raised when circuit enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class RauzyGraph:
    """Directed factor graph of one order.

    ``edges`` is sorted lexicographically; that fixed order is the
    coordinate system for traversal vectors.
    """

    order: int
    vertices: frozenset[str]
    edges: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges))))
        for v in self.vertices:
            if len(v) != self.order:
                raise ValueError(f"vertex {v!r} does not have length {self.order}")
        for e in self.edges:
            if len(e) != self.order + 1:
                raise ValueError(f"edge {e!r} does not have length {self.order + 1}")
            if e[:-1] not in self.vertices or e[1:] not in self.vertices:
                raise ValueError(f"edge {e!r} has an endpoint outside the vertex set")


# The most vertices a code string of _index_graphs holds: 1055 ** 2 <= 0x110000.
_MAX_CODED_VERTICES = 1055


def _index_graphs(s: str, orders: range) -> Iterator[tuple[int, int, str]]:
    """``(order, n_vertices, codes)`` for each order of a trusted word, cut from the word.

    The vertices of order ``i`` are the length-``i`` factors and its edges the
    length-``i + 1`` factors, each numbered in first-occurrence order, so the
    edge ids of order ``i`` are the vertex ids of order ``i + 1``; nothing is
    sorted.  ``codes`` holds one character per edge, in edge-id order: edge
    ``e`` from vertex ``v`` to vertex ``u`` is ``chr(v * n_vertices + u)``.
    The string is exact: two orders with the same ``n_vertices`` and
    ``codes`` are the same integer graph.  A code is below
    ``n_vertices ** 2``, so it fits one code point (below 0x110000) while
    ``n_vertices <= _MAX_CODED_VERTICES`` (1,055), which every word of at most
    1,055 letters meets; past that ``chr`` raises ``ValueError`` rather than
    wrap.  The string is hashable and far lighter than a tuple of ints, so a
    memo can key on it; :func:`_unpack` rebuilds the adjacency.  ``orders``
    ascends and ends below ``len(s)``.  A word's factor graph is weakly connected
    (consecutive windows share an edge), so ``len(codes) - n_vertices + 1``
    is its cyclomatic number without a connectivity search.
    """
    letters: dict[str, int] = {}
    ids = [letters.setdefault(c, len(letters)) for c in s]  # vertex id at each start
    size = len(letters)
    for i in range(1, orders.stop):
        # a length-(i+1) factor is its prefix vertex and its suffix vertex
        index: dict[int, int] = {}  # code -> edge id, in first-occurrence order
        ids = [index.setdefault(v * size + u, len(index)) for v, u in zip(ids, ids[1:])]
        if i in orders:
            yield i, size, "".join(map(chr, index))
        size = len(index)


def _unpack(size: int, codes: str) -> tuple[list[int], list[list[int]]]:
    """``(head, out)`` of the integer graph that :func:`_index_graphs` encoded as ``codes``.

    ``head[e]`` is the end vertex of edge ``e`` and ``out[v]`` lists the
    edges leaving vertex ``v`` in increasing id order.
    """
    head = []
    out: list[list[int]] = [[] for _ in range(size)]
    for e, code in enumerate(map(ord, codes)):
        v, u = divmod(code, size)
        head.append(u)
        out[v].append(e)
    return head, out


def build_rauzy_graph(w: str, i: int) -> RauzyGraph:
    """Factor graph of ``w`` at order ``i`` (needs ``1 <= i <= len(w) - 1``)."""
    validate_word(w)
    if not 1 <= i <= len(w) - 1:
        raise ValueError(f"order {i} out of range 1..{len(w) - 1}")
    vertices = frozenset([w[j : j + i] for j in range(len(w) - i + 1)])
    edges = tuple(w[j : j + i + 1] for j in range(len(w) - i))
    return RauzyGraph(i, vertices, edges)


def is_weakly_connected(g: RauzyGraph) -> bool:
    """True when the underlying undirected graph is connected."""
    if not g.vertices:
        return True
    neighbours: dict[str, set[str]] = {v: set() for v in g.vertices}
    for e in g.edges:
        neighbours[e[:-1]].add(e[1:])
        neighbours[e[1:]].add(e[:-1])
    start = next(iter(g.vertices))
    seen = {start}
    todo = [start]
    while todo:
        v = todo.pop()
        for u in neighbours[v]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == len(g.vertices)


def cyclomatic_number(g: RauzyGraph) -> int:
    """``|edges| - |vertices| + 1`` for a weakly connected graph."""
    if not is_weakly_connected(g):
        raise ValueError("cyclomatic number requires a weakly connected graph")
    return len(g.edges) - len(g.vertices) + 1


@dataclass(frozen=True)
class Circuit:
    """An elementary directed circuit, stored as its cyclic edge sequence.

    The sequence is rotated so the first edge leaves the least vertex, which
    makes equal circuits compare equal.
    """

    edges: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("a circuit needs at least one edge")
        starts = [e[:-1] for e in self.edges]
        if len(set(starts)) != len(starts):
            raise ValueError(f"circuit revisits a vertex: {self.edges}")
        r = len(self.edges)
        for j in range(r):
            if self.edges[j][1:] != self.edges[(j + 1) % r][:-1]:
                raise ValueError(f"edges do not chain: {self.edges}")
        k = starts.index(min(starts))
        object.__setattr__(self, "edges", self.edges[k:] + self.edges[:k])

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(e[:-1] for e in self.edges)

    def __str__(self) -> str:
        return " -> ".join(self.vertices + (self.vertices[0],))


def circuit_root(c: Circuit) -> str:
    """The primitive word traced by walking the circuit once."""
    spelled = c.vertices[0] + "".join(e[-1] for e in c.edges)
    return spelled[: c.length]


def _unblock(v: int, blocked: list[bool], blocked_by: list[list[int]]) -> None:
    todo = [v]
    while todo:
        u = todo.pop()
        if blocked[u]:
            blocked[u] = False
            todo.extend(blocked_by[u])
            blocked_by[u].clear()


def _circuit_edges(
    head: list[int], out: list[list[int]], size: int, cap: int
) -> list[list[int]]:
    """Every elementary circuit of an integer graph, as its edge ids in walk order.

    Vertices are ``0 .. size - 1``, ``head[e]`` is the end vertex of edge
    ``e`` and ``out[v]`` lists the edges leaving ``v``; the graph need not be
    connected.  The search runs on the branch-vertex skeleton: a branch
    vertex has in-degree or out-degree other than 1, and each maximal chain
    of the other vertices folds into one super-edge that carries its edge
    ids.  A component without a branch vertex is one circuit by itself.
    Johnson's blocked search then starts from each branch vertex in id
    order and walks super-edges to higher branch vertices only, so each
    circuit is found once, from its least branch vertex; walking edges
    rather than successor vertices keeps parallel super-edges and self-loops
    apart.  There is no SCC pass: Johnson needs it only for his time bound.
    A vertex that cannot reach the start is visited once, closes no circuit
    and stays blocked for the rest of that search.  Raises
    :class:`CircuitCapExceeded` when more than ``cap`` circuits show up.
    """
    indegree = [0] * size
    for u in head:
        indegree[u] += 1
    branch = [indegree[v] != 1 or len(out[v]) != 1 for v in range(size)]
    # skeleton[b]: (end branch vertex, edge ids) of each super-edge leaving branch vertex b
    skeleton: list[list[tuple[int, list[int]]]] = [[] for _ in range(size)]
    on_chain = branch[:]
    for b in range(size):
        if branch[b]:
            for e in out[b]:
                chain = [e]
                u = head[e]
                while not branch[u]:
                    on_chain[u] = True
                    e = out[u][0]
                    chain.append(e)
                    u = head[e]
                skeleton[b].append((u, chain))

    found: list[list[int]] = []

    def report(edges: list[int]) -> None:
        found.append(edges)
        if len(found) > cap:
            raise CircuitCapExceeded(f"graph has more than {cap} elementary circuits")

    for v in range(size):
        if not on_chain[v]:  # a component that is one cycle of in = out = 1 vertices
            edges = []
            while not on_chain[v]:
                on_chain[v] = True
                e = out[v][0]
                edges.append(e)
                v = head[e]
            report(edges)

    blocked = [False] * size
    closed = [False] * size
    blocked_by: list[list[int]] = [[] for _ in range(size)]
    for s in range(size):
        if not skeleton[s] or not indegree[s]:
            continue  # not a branch vertex, or on no circuit
        blocked[s] = True
        path = [s]
        touched = [s]
        walk: list[int] = []  # edge ids from s to the top of the path
        frames = [(iter(skeleton[s]), 0)]  # (super-edges left, len(walk) on entry)
        while frames:
            it, cut = frames[-1]
            for u, chain in it:
                if u == s:
                    report(walk + chain)
                    for x in path:
                        closed[x] = True
                elif u > s and not blocked[u]:
                    frames.append((iter(skeleton[u]), len(walk)))
                    walk.extend(chain)
                    path.append(u)
                    touched.append(u)
                    blocked[u] = True
                    closed[u] = False
                    break
            else:  # every super-edge leaving v is done: retreat
                v = path.pop()
                frames.pop()
                del walk[cut:]
                if closed[v]:
                    _unblock(v, blocked, blocked_by)
                else:
                    for u, _ in skeleton[v]:
                        if u > s:
                            blocked_by[u].append(v)
        for x in touched:  # reset the state this search wrote
            blocked[x] = closed[x] = False
            blocked_by[x].clear()
    return found


def enumerate_elementary_circuits(g: RauzyGraph, cap: int = DEFAULT_CIRCUIT_CAP) -> list[Circuit]:
    """All elementary directed circuits of ``g``, each reported once.

    Indexes ``g``'s sorted vertices and edges and runs :func:`_circuit_edges`;
    each :class:`Circuit` rotates itself to start at its least vertex, and the
    circuits come out sorted by ``(length, edges)``.  Raises
    :class:`CircuitCapExceeded` when more than ``cap`` circuits show up.
    """
    index = {v: j for j, v in enumerate(sorted(g.vertices))}
    head = [index[e[1:]] for e in g.edges]
    out: list[list[int]] = [[] for _ in index]
    for j, e in enumerate(g.edges):
        out[index[e[:-1]]].append(j)
    try:
        found = _circuit_edges(head, out, len(index), cap)
    except CircuitCapExceeded:
        raise CircuitCapExceeded(
            f"graph of order {g.order} has more than {cap} elementary circuits"
        ) from None
    circuits = [Circuit(tuple(g.edges[j] for j in ids)) for ids in found]
    return sorted(circuits, key=lambda c: (c.length, c.edges))


def _edge_vectors(circuits: list[list[int]], n_edges: int) -> list[list[int]]:
    """The 0/1 traversal vector of each circuit over edge ids ``0 .. n_edges - 1``."""
    vectors = []
    for edges in circuits:
        v = [0] * n_edges
        for e in edges:
            v[e] = 1
        vectors.append(v)
    return vectors


def vector_cycle(c: Circuit, g: RauzyGraph) -> tuple[int, ...]:
    """Edge-traversal counts of ``c`` over the fixed edge order of ``g``."""
    edge_set = set(g.edges)
    for e in c.edges:
        if e not in edge_set:
            raise ValueError(f"edge {e!r} is not in the graph")
    counts = Counter(c.edges)
    return tuple(counts[e] for e in g.edges)


def independent_rank(vectors: list[tuple[int, ...]]) -> int:
    """Rank over the rationals: the last of :func:`_prefix_ranks`."""
    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise ValueError("vectors must all have the same dimension")
    return _prefix_ranks(vectors, min(dims, default=0))[-1]


def _prefix_ranks(rows: Sequence[Sequence[int]], bound: int) -> tuple[int, ...]:
    """``ranks[j]``, the rational rank of ``rows[:j]``, for ``j = 0 .. len(rows)``.

    Exact and incremental: each new row is reduced against the integer row
    echelon form of the rows that raised the rank, pivot by pivot in
    ascending column order; what is left, if not zero, leads at a new pivot
    column and is kept divided by its gcd.  Once the rank reaches ``bound``,
    which must bound the rank of all ``rows``, the elimination stops.
    """
    ranks = [0]
    pivots: dict[int, Sequence[int]] = {}
    for r in rows:
        if len(pivots) < bound:
            for c in sorted(pivots):
                f = r[c]
                if f:
                    p = pivots[c]
                    pv = p[c]
                    r = [pv * x - f * y for x, y in zip(r, p)]
            for c, x in enumerate(r):
                if x:  # what is left leads at c, a column without a pivot
                    g = gcd(*r)
                    pivots[c] = r if g == 1 else [v // g for v in r]
                    break
        ranks.append(len(pivots))
    return tuple(ranks)


def _is_elementary_closed_walk(c: list[int], head: list[int], tail: list[int]) -> bool:
    """True when edge ids ``c`` visit no vertex twice and each leaves the previous one's head."""
    heads = [head[e] for e in c]
    return len(set(heads)) == len(c) and [tail[e] for e in c] == heads[-1:] + heads[:-1]


def _graph_facts(
    size: int, codes: str, cap: int
) -> tuple[tuple[int, ...], tuple[int, ...], bool] | None:
    """``(lengths, ranks, closed)`` of an integer factor graph, or ``None`` past ``cap``.

    The graph is ``(size, codes)`` as :func:`_index_graphs` yields it;
    ``lengths`` are its circuit lengths, sorted, ``ranks[j]`` the rational
    rank of the ``j`` shortest circuits and ``closed`` whether every circuit
    is an elementary closed walk.  The arguments hold neither the order nor
    the word, so a memo keyed on them reads back any graph already searched.
    """
    head, edges_out = _unpack(size, codes)
    try:
        circuits = _circuit_edges(head, edges_out, size, cap)
    except CircuitCapExceeded:
        return None
    circuits.sort(key=len)
    tail = [code // size for code in map(ord, codes)]
    closed = all(_is_elementary_closed_walk(c, head, tail) for c in circuits)
    # An elementary closed walk lies in the cycle space, whose dimension is
    # chi = |E| - |V| + 1 since the graph is weakly connected: the guard
    # bounds every rank by chi, so the elimination may stop there.
    bound = len(head) - size + 1 if closed else len(head)
    ranks = _prefix_ranks(_edge_vectors(circuits, len(head)), bound)
    return tuple(map(len, circuits)), ranks, closed


def split_point(p: str) -> int | None:
    """The largest order at which the circuit family of ``p`` is not elementary.

    This is the largest ``m`` with fewer than ``len(p)`` circular factors of
    length ``m``; ``None`` when already the alphabet of ``p`` has full size
    (the family is elementary at every order).  The circular factors of
    length ``m + 1`` are all distinct exactly when no two rotations of ``p``
    share a prefix of that length, so ``m`` is the longest common prefix of
    two rotations, and the longest such prefix is found between neighbours
    once the rotations are sorted.  The rotations of a primitive ``p`` are
    distinct, so each common prefix is shorter than ``p`` and equals that of
    the two rotations repeated forever.
    """
    validate_word(p)
    if not is_primitive(p):
        raise ValueError(f"{p!r} is not primitive")
    return _split_point(p)


def _split_point(p: str) -> int | None:
    """:func:`split_point` of a word already validated as primitive."""
    l = len(p)
    if len(set(p)) == l:
        return None
    doubled = p + p
    rotations = sorted([doubled[i : i + l] for i in range(l)])
    m = 0
    for a, b in zip(rotations, rotations[1:]):
        while a[: m + 1] == b[: m + 1]:
            m += 1
    return m


def decompose_split(p: str, m: int) -> list[Circuit]:
    """Edge-disjoint elementary circuits jointly covering the order-``m`` subgraph.

    ``m`` must be the split point of ``p``.  The periodic walk of ``p`` is
    followed for one period from the canonical rotation; every time a window
    repeats, the enclosed stretch is popped as one elementary circuit.  The
    circuit lengths always sum to ``len(p)``.
    """
    actual = split_point(p)
    if actual != m:
        raise ValueError(f"circuits of {p!r} split at {actual}, not {m}")
    return list(_split_circuits(p, m))


def _split_circuits(p: str, m: int) -> tuple[Circuit, ...]:
    """:func:`decompose_split` of a primitive word at its split point ``m``."""
    base = canonical_rotation(p)
    l = len(base)
    ext = base * ((l + m + 1) // l + 1)
    stack = [ext[0:m]]
    pos = {stack[0]: 0}
    edge_stack: list[str] = []
    circuits: list[Circuit] = []
    for j in range(1, l + 1):
        edge_stack.append(ext[j - 1 : j + m])
        v = ext[j : j + m]
        if v in pos:
            k = pos[v]
            circuits.append(Circuit(tuple(edge_stack[k:])))
            for u in stack[k + 1 :]:
                del pos[u]
            del edge_stack[k:]
            del stack[k + 1 :]
        else:
            stack.append(v)
            pos[v] = len(stack) - 1
    if len(stack) != 1 or edge_stack:
        raise AssertionError(f"periodic walk of {p!r} did not close at order {m}")
    return tuple(sorted(circuits, key=lambda c: (c.length, c.edges)))


def to_dot(g: RauzyGraph) -> str:
    """Graphviz DOT rendering: factor strings as labels on vertices and edges."""
    lines = [f"digraph factors_{g.order} {{", "  rankdir=LR;"]
    for v in sorted(g.vertices):
        lines.append(f'  "{v}";')
    for e in g.edges:
        lines.append(f'  "{e[:-1]}" -> "{e[1:]}" [label="{e}"];')
    lines.append("}")
    return "\n".join(lines)
