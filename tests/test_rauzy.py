"""Factor graphs, circuit enumeration, ranks, class circuits, and splits."""

import random

import pytest

from circsq.rauzy import (
    Circuit,
    CircuitCapExceeded,
    RauzyGraph,
    build_rauzy_graph,
    circuit_root,
    cyclomatic_number,
    decompose_split,
    enumerate_elementary_circuits,
    independent_rank,
    is_weakly_connected,
    split_point,
    to_dot,
    vector_cycle,
)
from circsq.rauzy import (
    DEFAULT_CIRCUIT_CAP,
    _circuit_edges,
    _edge_vectors,
    _index_graphs,
    _prefix_ranks,
    _unpack,
)
from circsq.words import circular_factors, factors, is_primitive

from conftest import contains_class_circuit, fraction_rank, naive_circuits, words_over

P3 = "abacabacabac"


def test_build_rauzy_graph_low_orders():
    g1 = build_rauzy_graph(P3, 1)
    assert g1.vertices == {"a", "b", "c"}
    assert g1.edges == ("ab", "ac", "ba", "ca")
    g2 = build_rauzy_graph(P3, 2)
    assert g2.vertices == {"ab", "ba", "ac", "ca"}
    assert g2.edges == ("aba", "aca", "bac", "cab")
    g = build_rauzy_graph("ab", 1)
    assert g.vertices == {"a", "b"}
    assert g.edges == ("ab",)


def test_build_rauzy_graph_order_range():
    with pytest.raises(ValueError):
        build_rauzy_graph("abc", 0)
    with pytest.raises(ValueError):
        build_rauzy_graph("abc", 3)


def test_graph_edge_endpoint_validation():
    with pytest.raises(ValueError):
        RauzyGraph(1, frozenset({"a"}), ("ab",))
    with pytest.raises(ValueError):
        RauzyGraph(1, frozenset({"a", "b"}), ("abc",))


def test_weak_connectivity():
    assert is_weakly_connected(build_rauzy_graph(P3, 1))
    one_vertex = RauzyGraph(1, frozenset({"a"}), ())
    assert is_weakly_connected(one_vertex)
    isolated = RauzyGraph(1, frozenset({"a", "b"}), ("aa",))
    assert not is_weakly_connected(isolated)
    with pytest.raises(ValueError):
        cyclomatic_number(isolated)


def _first_occurrences(w, m):
    """The length-``m`` factors of ``w`` in first-occurrence order."""
    return list(dict.fromkeys(w[j : j + m] for j in range(len(w) - m + 1)))


def test_rauzy_graphs_always_weakly_connected():
    # the integer graphs cut from the word are the validated graphs under
    # first-occurrence numbering, and their chi needs no connectivity
    # search; a chi of 0 means a tree, no circuit
    for k, top in ((2, 10), (3, 8)):
        for n in range(2, top + 1):
            for w in words_over(k, n):
                graphs = list(_index_graphs(w, range(1, n)))
                assert [t[0] for t in graphs] == list(range(1, n)), w
                for i, size, codes in graphs:
                    head, out = _unpack(size, codes)
                    g = build_rauzy_graph(w, i)
                    assert is_weakly_connected(g), (w, i)
                    assert g == RauzyGraph(i, factors(w, i), factors(w, i + 1)), (w, i)
                    vertices, edges = _first_occurrences(w, i), _first_occurrences(w, i + 1)
                    assert size == len(vertices) and sorted(edges) == list(g.edges), (w, i)
                    assert head == [vertices.index(e[1:]) for e in edges], (w, i)
                    assert out == [
                        [x for x, e in enumerate(edges) if e[:-1] == v] for v in vertices
                    ], (w, i)
                    chi = len(codes) - size + 1
                    assert chi == cyclomatic_number(g), (w, i)
                    if chi == 0:
                        assert naive_circuits(g) == set(), (w, i)
                # a range of orders that starts above 1 yields the same graphs
                assert list(_index_graphs(w, range(n // 2, n))) == graphs[n // 2 - 1 :], w


def test_unpack_round_trips_to_the_relabeled_graph():
    # at every order of w and of w + w, the code string unpacks to the
    # validated graph with its factors renumbered in first-occurrence order
    for k, top in ((2, 10), (3, 8)):
        for n in range(1, top + 1):
            for w in words_over(k, n):
                for s in (w, w + w):
                    vertices = _first_occurrences(s, 1)
                    for i, size, codes in _index_graphs(s, range(1, len(s))):
                        g = build_rauzy_graph(s, i)
                        head, out = _unpack(size, codes)
                        assert size == len(vertices) == len(g.vertices), (s, i)
                        assert len(head) == len(codes) == len(g.edges), (s, i)
                        edges = [None] * len(head)
                        for v, leaving in enumerate(out):
                            assert leaving == sorted(leaving), (s, i)
                            for e in leaving:
                                edges[e] = vertices[v] + vertices[head[e]][-1]
                        assert edges == _first_occurrences(s, i + 1), (s, i)
                        assert sorted(edges) == list(g.edges), (s, i)
                        vertices = edges


def test_cyclomatic_number_values():
    assert cyclomatic_number(build_rauzy_graph(P3, 1)) == 2
    assert cyclomatic_number(build_rauzy_graph(P3, 2)) == 1
    path = build_rauzy_graph("abc", 1)  # 3 vertices, 2 edges
    assert cyclomatic_number(path) == 0


def test_enumerate_circuits_examples():
    circs = enumerate_elementary_circuits(build_rauzy_graph(P3, 1))
    assert [c.length for c in circs] == [2, 2]
    assert {c.edges for c in circs} == {("ab", "ba"), ("ac", "ca")}
    circs = enumerate_elementary_circuits(build_rauzy_graph(P3, 2))
    assert [c.length for c in circs] == [4]
    circs = enumerate_elementary_circuits(build_rauzy_graph("abab", 1))
    assert [c.edges for c in circs] == [("ab", "ba")]


def test_enumerate_circuits_handles_self_loops():
    g = build_rauzy_graph("aaa", 1)
    circs = enumerate_elementary_circuits(g)
    assert [c.edges for c in circs] == [("aa",)]


def _assert_circuits_match_naive(g, context):
    circs = enumerate_elementary_circuits(g)
    assert {c.edges for c in circs} == naive_circuits(g), context
    # each circuit already starts at its least vertex: building it again changes nothing
    assert all(c == Circuit(c.edges) for c in circs), context
    keys = [(c.length, c.edges) for c in circs]
    assert keys == sorted(keys), context


def test_enumerate_circuits_matches_naive_exhaustively():
    for n in range(2, 8):
        for w in words_over(3, n):
            for i in range(1, n):
                _assert_circuits_match_naive(build_rauzy_graph(w, i), (w, i))


def _random_subgraphs(rng):
    """Random de Bruijn subgraphs, often disconnected; sparse ones leave many
    vertices that cannot reach the start vertex."""
    from itertools import product as iproduct

    def draw(k, order, p):
        letters = "abc"[:k]
        pool = ["".join(t) for t in iproduct(letters, repeat=order + 1)]
        edges = tuple(e for e in pool if rng.random() < p)
        vertices = frozenset("".join(t) for t in iproduct(letters, repeat=order))
        return RauzyGraph(order, vertices, edges)

    for _ in range(400):
        yield draw(rng.randint(1, 3), rng.randint(1, 3), 0.45)
    for _ in range(400):
        yield draw(rng.randint(1, 3), rng.randint(1, 3), rng.uniform(0.2, 0.3))
    for _ in range(200):
        yield draw(2, 4, rng.uniform(0.2, 0.6))


def test_enumerate_circuits_matches_naive_on_random_subgraphs():
    # random de Bruijn subgraphs give denser, more tangled shapes than
    # word-derived graphs: overlapping cycles, self-loops, dead ends
    for g in _random_subgraphs(random.Random(424242)):
        _assert_circuits_match_naive(g, g.edges)


def _cycles(found):
    """Circuits given as edge-id lists, each rotated to start at its least id."""
    out = set()
    for ids in found:
        k = ids.index(min(ids))
        out.add(tuple(ids[k:] + ids[:k]))
    assert len(out) == len(found), found  # no circuit reported twice
    return out


def _assert_cap_boundary(head, out, size):
    # exactly cap circuits come back whole; one more than cap raises
    cap = len(_circuit_edges(head, out, size, DEFAULT_CIRCUIT_CAP))
    if not cap:
        return  # a cap is at least 1
    assert len(_circuit_edges(head, out, size, cap)) == cap
    with pytest.raises(CircuitCapExceeded):
        _circuit_edges(head, out, size, cap - 1)


def test_circuit_edges_match_naive_under_any_numbering():
    # the integer search on the random subgraphs, vertices, edges and out
    # lists numbered in a shuffled order, against the naive string search
    rng = random.Random(97)
    for g in _random_subgraphs(random.Random(424242)):
        names = sorted(g.vertices)
        rng.shuffle(names)
        edges = list(g.edges)
        rng.shuffle(edges)
        vid = {v: j for j, v in enumerate(names)}
        head = [vid[e[1:]] for e in edges]
        out = [[] for _ in names]
        for x, e in enumerate(edges):
            out[vid[e[:-1]]].append(x)
        for es in out:
            rng.shuffle(es)
        found = _circuit_edges(head, out, len(names), DEFAULT_CIRCUIT_CAP)
        assert len(_cycles(found)) == len(naive_circuits(g)), g.edges
        as_strings = {Circuit(tuple(edges[x] for x in ids)).edges for ids in found}
        assert as_strings == naive_circuits(g), g.edges
        _assert_cap_boundary(head, out, len(names))


def _graph(size, arcs):
    """``(head, out)`` of an integer multigraph from its ``(tail, head)`` arcs.

    Edge ids follow the order of the arcs.
    """
    out = [[] for _ in range(size)]
    for x, (v, _) in enumerate(arcs):
        out[v].append(x)
    return [u for _, u in arcs], out


@pytest.mark.parametrize(
    "size, arcs, cycles",
    [
        # one cycle and no branch vertex
        (3, [(0, 1), (1, 2), (2, 0)], {(0, 1, 2)}),
        # a branch-free cycle component beside a branch vertex with two loops
        (5, [(3, 4), (4, 3), (0, 1), (1, 0), (0, 2), (2, 0)], {(0, 1), (2, 3), (4, 5)}),
        # a self-loop at a branch vertex
        (2, [(0, 0), (0, 1), (1, 0)], {(0,), (1, 2)}),
        # two parallel chains each way between branch vertices 0 and 1
        (
            5,
            [(0, 2), (2, 1), (0, 3), (3, 1), (1, 0), (1, 4), (4, 0)],
            {(0, 1, 4), (0, 1, 5, 6), (2, 3, 4), (2, 3, 5, 6)},
        ),
        # parallel edges and a dead end
        (3, [(0, 1), (0, 1), (1, 0), (1, 2)], {(0, 2), (1, 2)}),
        # no circuit: a path into a vertex with no way out, and an isolated vertex
        (4, [(0, 1), (1, 2)], set()),
    ],
)
def test_circuit_edges_on_the_skeleton(size, arcs, cycles):
    head, out = _graph(size, arcs)
    assert _cycles(_circuit_edges(head, out, size, DEFAULT_CIRCUIT_CAP)) == cycles
    _assert_cap_boundary(head, out, size)


def test_circuit_cap():
    g = build_rauzy_graph(P3, 1)  # two circuits
    with pytest.raises(CircuitCapExceeded):
        enumerate_elementary_circuits(g, cap=1)
    # a graph with exactly cap circuits returns all of them; cap - 1 raises
    de_bruijn = build_rauzy_graph("aaaabaabbababbbbaaa", 3)  # every binary word of length 4
    for g in (build_rauzy_graph(P3, 1), de_bruijn):
        cap = len(naive_circuits(g))
        assert {c.edges for c in enumerate_elementary_circuits(g, cap)} == naive_circuits(g)
        with pytest.raises(CircuitCapExceeded):
            enumerate_elementary_circuits(g, cap=cap - 1)


def test_circuit_normalization_and_validation():
    c = Circuit(("ba", "ab"))
    assert c.edges == ("ab", "ba")  # rotated to start at the least vertex
    assert c.vertices == ("a", "b")
    assert str(c) == "a -> b -> a"
    with pytest.raises(ValueError):
        Circuit(("ab", "ca"))  # edges do not chain
    with pytest.raises(ValueError):
        Circuit(())


def test_vector_cycle_values():
    g = build_rauzy_graph(P3, 1)
    assert g.edges == ("ab", "ac", "ba", "ca")
    ab, ac = enumerate_elementary_circuits(g)
    assert vector_cycle(ab, g) == (1, 0, 1, 0)
    assert vector_cycle(ac, g) == (0, 1, 0, 1)
    four = enumerate_elementary_circuits(build_rauzy_graph(P3, 2))[0]
    assert vector_cycle(four, build_rauzy_graph(P3, 2)) == (1, 1, 1, 1)


def test_vector_cycle_rejects_foreign_edges():
    g1 = build_rauzy_graph(P3, 1)
    c = enumerate_elementary_circuits(build_rauzy_graph("abab", 1))[0]
    with pytest.raises(ValueError):
        vector_cycle(c, build_rauzy_graph(P3, 2))
    assert vector_cycle(c, g1) == (1, 0, 1, 0)  # same edge words, fine


def test_cycle_vectors_match_vector_cycle_at_every_order():
    # the 0/1 vectors over first-occurrence edge ids, moved to the sorted
    # edge order, are vector_cycle of the public circuits
    for k, top in ((2, 9), (3, 6)):
        for n in range(2, top + 1):
            for w in words_over(k, n):
                for i, size, codes in _index_graphs(w, range(1, n)):
                    head, out = _unpack(size, codes)
                    g = build_rauzy_graph(w, i)
                    column = [g.edges.index(e) for e in _first_occurrences(w, i + 1)]
                    circuits = _circuit_edges(head, out, size, DEFAULT_CIRCUIT_CAP)
                    moved = []
                    for v in _edge_vectors(circuits, len(head)):
                        sorted_v = [0] * len(v)
                        for x, count in enumerate(v):
                            sorted_v[column[x]] = count
                        moved.append(tuple(sorted_v))
                    public = [vector_cycle(c, g) for c in enumerate_elementary_circuits(g)]
                    assert sorted(moved) == sorted(public), (w, i)


def test_independent_rank_examples():
    assert independent_rank([(1, 0, 1, 0), (0, 1, 0, 1)]) == 2
    assert independent_rank([(1, 1), (2, 2)]) == 1
    assert independent_rank([]) == 0
    g = build_rauzy_graph(P3, 1)
    vectors = [vector_cycle(c, g) for c in enumerate_elementary_circuits(g)]
    assert independent_rank(vectors) == cyclomatic_number(g) == 2
    with pytest.raises(ValueError):
        independent_rank([(1, 0), (1, 0, 0)])


def test_independent_rank_matches_fraction_elimination():
    rng = random.Random(11)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [tuple(rng.randint(-4, 4) for _ in range(cols)) for _ in range(rows)]
        assert independent_rank(mat) == fraction_rank(mat), mat
        prefixes = tuple(fraction_rank(mat[:j]) for j in range(rows + 1))
        assert _prefix_ranks(mat, cols) == prefixes, mat
        # a bound at the full rank stops the elimination and changes nothing
        assert _prefix_ranks(mat, prefixes[-1]) == prefixes, mat


def test_contains_class_circuit():
    assert contains_class_circuit(P3, "abac", 4)
    assert not contains_class_circuit(P3, "abac", 9)
    assert contains_class_circuit("abab", "ab", 2)


def test_split_point_examples():
    assert split_point("abac") == 1
    assert split_point("ab") is None
    assert split_point("aab") == 1
    assert split_point("aabab") == 3
    with pytest.raises(ValueError):
        split_point("abab")


def test_split_point_matches_the_definition_exhaustively():
    # the largest m < len(p) with fewer than len(p) circular factors of
    # length m, else None, on every primitive binary word to 14 and ternary to 8
    for k, top in ((2, 14), (3, 8)):
        for n in range(1, top + 1):
            for p in words_over(k, n):
                if not is_primitive(p):
                    continue
                short = [m for m in range(1, n) if len(circular_factors(p, m)) < n]
                assert split_point(p) == max(short, default=None), p


def test_split_point_stays_below_root_length():
    # an elementary circuit at some order forces one at every earlier order
    # down to the root length, so splits happen at least two orders below it
    for n in range(1, 9):
        for p in words_over(3, n):
            if not is_primitive(p):
                continue
            m = split_point(p)
            assert m is None or 1 <= m <= n - 2, p


def test_decompose_split_examples():
    parts = decompose_split("abac", 1)
    assert sorted(c.length for c in parts) == [2, 2]
    assert {c.edges for c in parts} == {("ab", "ba"), ("ac", "ca")}
    parts = decompose_split("aab", 1)
    assert sorted(c.length for c in parts) == [1, 2]
    parts = decompose_split("aabab", 3)
    assert sum(c.length for c in parts) == 5
    assert sorted(c.length for c in parts) == [2, 3]


def test_decompose_split_rejects_wrong_order():
    with pytest.raises(ValueError):
        decompose_split("abac", 2)
    with pytest.raises(ValueError):
        decompose_split("ab", 1)
    with pytest.raises(ValueError):
        decompose_split("abab", 1)


def test_decompose_split_properties_exhaustive():
    for n in range(2, 9):
        for p in words_over(3, n):
            if not is_primitive(p):
                continue
            m = split_point(p)
            if m is None:
                continue
            parts = decompose_split(p, m)
            assert len(parts) >= 2, p
            assert sum(c.length for c in parts) == n, p
            edges = [e for c in parts for e in c.edges]
            assert len(edges) == len(set(edges)) == n, p
            for c in parts:
                root = circuit_root(c)
                assert is_primitive(root), (p, root)
                assert len(root) == c.length


def test_every_circuit_is_its_roots_class_circuit():
    # an elementary circuit at some order carries exactly the circular
    # factor sets of its root word, and small ones never miss a window
    # one order down
    from circsq.words import circular_factors

    for n in range(2, 8):
        for w in words_over(3, n):
            for order in range(1, n):
                g = build_rauzy_graph(w, order)
                for c in enumerate_elementary_circuits(g):
                    q = circuit_root(c)
                    assert is_primitive(q), (w, order, q)
                    assert set(c.vertices) == circular_factors(q, order), (w, order, q)
                    assert set(c.edges) == circular_factors(q, order + 1), (w, order, q)
                    if c.length <= order and order >= 2:
                        assert len(circular_factors(q, order - 1)) == len(q), (w, order, q)


def test_circuit_root_examples():
    ab, ac = enumerate_elementary_circuits(build_rauzy_graph(P3, 1))
    assert circuit_root(ab) == "ab"
    assert circuit_root(ac) == "ac"
    four = enumerate_elementary_circuits(build_rauzy_graph(P3, 2))[0]
    assert circuit_root(four) in {"abac", "baca", "acab", "caba"}


def test_doubled_primitive_word_top_order_is_one_cycle():
    for n in range(2, 8):
        for w in words_over(2, n):
            if not is_primitive(w):
                continue
            doubled = w + w
            circs = enumerate_elementary_circuits(build_rauzy_graph(doubled, n))
            assert [c.length for c in circs] == [n], w
            for order in range(n + 1, 2 * n):
                assert enumerate_elementary_circuits(build_rauzy_graph(doubled, order)) == []


def test_class_circuit_run_matches_class_size_exhaustive():
    from circsq.squares import class_decomposition

    for n in range(2, 9):
        for w in words_over(2, n):
            for pc in class_decomposition(w).classes:
                l, t = pc.root_length, pc.t
                for i in range(1, t + 1):
                    order = i + l - 1
                    assert order + 1 <= n, (w, pc.root)
                    # the class circuit is elementary and small
                    assert len(circular_factors(pc.root, order)) == l <= order, (w, pc.root)
                    assert contains_class_circuit(w, pc.root, order), (w, pc.root, order)


def test_to_dot_shape():
    dot = to_dot(build_rauzy_graph(P3, 1))
    lines = dot.splitlines()
    assert lines[0].startswith("digraph")
    assert lines[-1] == "}"
    assert dot.count("->") == 4
    assert '"a" -> "b" [label="ab"];' in dot
    assert dot.count("{") == dot.count("}") == 1
