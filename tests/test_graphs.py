import random
from itertools import combinations

import pytest

import oracles as O
from simplicial import (
    Graph,
    InputError,
    SimplicialComplex,
    Walk,
    WalkCertificate,
    barycentric_subdivision,
    build_complex,
    cross_polytope_boundary,
    face_adjacency_graph,
    facet_file_text,
    graph_of,
    strong_walk_avoiding,
    verify_strong_walk,
    verify_subdivision,
    vertex_connectivity,
)
import simplicial.cli as cli
from simplicial import graphs
from simplicial.errors import ClassificationError, InternalInvariantError
from simplicial.graphs import SubdivisionEmbedding


def test_graph_construction():
    g = Graph((3, 1, 2), [(2, 1), (2, 3)])
    assert g.nodes == (1, 2, 3)
    assert g.edges == ((1, 2), (2, 3))
    assert g.neighbors(2) == (1, 3)
    assert g.degree(1) == 1
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    # a label that is no node is joined to nothing, in either orientation
    assert not g.has_edge(1, 9) and not g.has_edge(9, 1)
    assert not g.has_edge(1, "x") and not g.has_edge("x", 1)
    assert (g == object()) is False
    with pytest.raises(InputError):
        Graph((1, 2), [(1, 1)])
    with pytest.raises(InputError):
        Graph((1, 2), [(1, 3)])


def test_graph_connectivity_helpers():
    g = Graph((1, 2, 3, 4), [(1, 2), (3, 4)])
    assert not g.is_connected()
    assert Graph((1, 2), [(1, 2)]).is_connected()
    assert Graph((5,), []).is_connected()
    assert Graph((), []).is_connected()


def test_graph_of_octahedron(octa):
    g = graph_of(octa)
    assert len(g.nodes) == 6
    assert len(g.edges) == 12
    non_edges = [(u, v) for u, v in combinations(g.nodes, 2) if not g.has_edge(u, v)]
    assert non_edges == [(1, 4), (2, 5), (3, 6)]


def test_cross_polytope_graph_is_complete_minus_matching(cross4):
    g = graph_of(cross4)
    assert len(g.nodes) == 8
    assert len(g.edges) == 8 * 7 // 2 - 4
    for i in range(1, 5):
        assert not g.has_edge(i, i + 4)


def test_face_adjacency_zero_equals_graph(corpus):
    for name, cx in corpus.items():
        if cx.dimension < 1:
            continue
        assert face_adjacency_graph(cx, 0) == graph_of(cx), name


def test_edge_adjacency_graph_of_octahedron(octa):
    g = face_adjacency_graph(octa, 1)
    assert len(g.nodes) == 12
    assert all(g.degree(u) == 4 for u in g.nodes)


def test_face_adjacency_bad_degree(octa):
    with pytest.raises(InputError):
        face_adjacency_graph(octa, 2)
    with pytest.raises(InputError):
        face_adjacency_graph(octa, -1)


def test_octahedron_connectivity(octa):
    res = vertex_connectivity(graph_of(octa))
    assert res.value == 4
    assert not res.complete
    assert res.cut.cut == (1, 2, 4, 5)  # common neighbors of the pair {3, 6}
    a, b = res.cut.separated_pair
    assert not graph_of(octa).has_edge(a, b)


def test_complete_graph_marker():
    k5 = Graph(range(5), combinations(range(5), 2))
    res = vertex_connectivity(k5)
    assert res.value == 4 and res.complete and res.cut is None
    with pytest.raises(InputError):
        vertex_connectivity(Graph((1,), []))


class _RecordingList(list):
    """Neighbour masks that count the reads of each index."""

    def __init__(self, masks):
        super().__init__(masks)
        self.reads = [0] * len(masks)

    def __getitem__(self, i):
        self.reads[i] += 1
        return super().__getitem__(i)


# s = 0 and t = 1 share the neighbours 2 and 3, which the seed turns into
# paths, and the path 4, 5, ..., 33 hangs off s and leads nowhere.  The
# second graph adds the path 0-34-35-1: one phase expands s, 34 and 4 and
# stops at the layer of 35, next to t.  Past that, the tail is read only by
# the search that misses t.
@pytest.mark.parametrize("extra, paths, first_pinned", [
    ([], [[0, 2, 1], [0, 3, 1]], 4),
    ([(0, 34), (34, 35), (35, 1)], [[0, 2, 1], [0, 3, 1], [0, 34, 35, 1]], 5),
])
def test_tail_past_t_is_read_only_by_the_last_search(extra, paths, first_pinned):
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4)] + [(v, v + 1) for v in range(4, 33)]
    g = Graph(range(36), edges + extra)
    nbr = _RecordingList(g._nbr)
    got, cut = graphs._disjoint_paths(nbr, 0, 1)
    assert sorted(got) == paths
    assert cut == sum(1 << p[1] for p in paths)
    assert nbr.reads[first_pinned:34] == [1] * (34 - first_pinned)


def test_phases_reroute_a_blocking_seed():
    # s = 0 ~ a1 = 2, a2 = 3 and t = 1 ~ b1 = 4, b2 = 5, with a1-b1, a1-b2 and
    # a2-b1: paths seeded first-fit take s-a1-b1-t, which leaves a2 no free
    # partner, so a phase must send a2 to b1 and move a1 on to b2
    edges = [(0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4)]
    g = Graph(range(6), edges)
    paths, cut = graphs._disjoint_paths(list(g._nbr), 0, 1)
    assert sorted(paths) == [[0, 2, 5, 1], [0, 3, 4, 1]]
    assert cut == 0b1100
    assert O.nearest_min_vertex_cut(g.nodes, g.edges, 0, 1) == (2, 3)


def _connected_without(g, cut):
    """Whether G minus the cut is connected, by the oracle's search."""
    gone = set(cut)
    rest = [u for u in g.nodes if u not in gone]
    return O.graph_is_connected(rest, [e for e in g.edges if not gone & set(e)])


def test_connectivity_matches_bruteforce_on_corpus(corpus):
    for name, cx in corpus.items():
        if cx.dimension < 1 or cx.num_vertices > 13:
            continue
        g = graph_of(cx)
        got = vertex_connectivity(g)
        want, _ = O.vertex_connectivity_bruteforce(g.nodes, g.edges)
        assert got.value == want, name
        if got.cut is not None:
            assert not _connected_without(g, got.cut.cut), name
            assert len(got.cut.cut) == want, name


def test_connectivity_matches_bruteforce_on_random_graphs():
    rng = random.Random(40961)
    for trial in range(40):
        n = rng.randint(2, 9)
        nodes = list(range(1, n + 1))
        pool = list(combinations(nodes, 2))
        edges = [e for e in pool if rng.random() < 0.55]
        g = Graph(nodes, edges)
        got = vertex_connectivity(g)
        want, _ = O.vertex_connectivity_bruteforce(nodes, edges)
        assert got.value == want, (trial, edges)
        if got.cut is not None:
            assert len(got.cut.cut) == want
            assert not _connected_without(g, got.cut.cut)


def _share_interior(paths):
    return [paths[0], paths[0]] + paths[2:]


def _step_off_edge(paths):
    return [[paths[0][0], paths[0][-1]]] + paths[1:]


def _drop_one(paths):
    return paths[:-1]


CORRUPTIONS = {
    "shared interior": (_share_interior, "share"),
    "non-edge step": (_step_off_edge, "not an edge"),
    "dropped path": (_drop_one, "3 disjoint paths for a cut of 4 nodes"),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_connectivity_certificate_is_caught(name, octa, tmp_path, capsys, monkeypatch):
    corrupt, message = CORRUPTIONS[name]
    search = graphs._disjoint_paths

    def corrupted(nbr, s, t):
        paths, cut = search(nbr, s, t)
        return corrupt(paths), cut

    monkeypatch.setattr(graphs, "_disjoint_paths", corrupted)
    with pytest.raises(InternalInvariantError, match=message):
        vertex_connectivity(graph_of(octa))
    path = tmp_path / "octa.txt"
    path.write_text(facet_file_text(octa))
    assert cli.main(["verify", "t1", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "suspect" in captured.err


@pytest.mark.parametrize("corrupt, message", [
    (_share_interior, r"^two paths between 11 and 14 share 1[2356]$"),
    (_step_off_edge, r"^path step \(11, 14\) is not an edge$"),
    (lambda paths: [paths[0][::-1]] + paths[1:], r"^path \[14, 1[2356], 11\] does not run from 11 to 14$"),
    (_drop_one, r"^3 disjoint paths for a cut of 4 nodes$"),
])
def test_corrupt_certificate_is_reported_in_labels(corrupt, message, octa, monkeypatch):
    # the octahedron on 11..16 sits at positions 0..5, so a message naming
    # positions could not match
    g = Graph([v + 10 for v in octa.vertices], [(a + 10, b + 10) for a, b in octa.faces(1)])
    search = graphs._disjoint_paths

    def corrupted(nbr, s, t):
        paths, cut = search(nbr, s, t)
        return corrupt(paths), cut

    monkeypatch.setattr(graphs, "_disjoint_paths", corrupted)
    with pytest.raises(InternalInvariantError, match=message):
        vertex_connectivity(g)


def test_cut_that_does_not_separate_is_caught(octa):
    g = graph_of(octa)
    graphs._check_separates(g, (1, 2, 4, 5), 3, 6)
    with pytest.raises(InternalInvariantError, match="does not separate"):
        graphs._check_separates(g, (1, 2, 4), 3, 6)
    with pytest.raises(InternalInvariantError, match="contains an end"):
        graphs._check_separates(g, (1, 2, 3, 4, 5), 3, 6)


def test_walk_objects():
    w = Walk((1, 2, 3, 2))
    assert w.edges == ((1, 2), (2, 3), (2, 3))  # edges come out sorted


def test_walk_frozen_example(octa):
    cert = strong_walk_avoiding(octa, 2, 5, {1, 4})
    assert cert.walk.nodes == (2, 3, 5)
    assert cert.witness_facets == ((2, 3, 4), (3, 4, 5))
    assert verify_strong_walk(octa, cert)


def test_walk_avoiding_a_facet(octa):
    # the avoided set is a whole facet here
    cert = strong_walk_avoiding(octa, 1, 4, {2, 3})
    assert verify_strong_walk(octa, cert)
    assert set(cert.walk.nodes) <= {1, 4, 5, 6}
    cert = strong_walk_avoiding(octa, 1, 6, {2, 3, 4})
    assert verify_strong_walk(octa, cert)
    assert not {2, 3, 4} & set(cert.walk.nodes)


def test_walk_zero_length(octa):
    cert = strong_walk_avoiding(octa, 3, 3, {1})
    assert cert.walk.nodes == (3,)
    assert cert.witness_facets == ()
    assert verify_strong_walk(octa, cert)


def test_walk_preconditions(octa, books):
    with pytest.raises(ClassificationError) as e:
        strong_walk_avoiding(octa, 1, 4, {2, 3, 6})  # 3 labels, not a face
    assert e.value.check == "avoid-set"
    assert e.value.witness == (2, 3, 6)
    assert str(e.value) == "avoided set must be a face or have fewer elements than a facet"
    with pytest.raises(ClassificationError) as e:
        strong_walk_avoiding(books, 3, 4, set())
    assert e.value.check == "pseudomanifold"
    with pytest.raises(InputError, match=r"^avoided labels \[9\] are not vertices$"):
        strong_walk_avoiding(octa, 1, 4, {9})
    with pytest.raises(InputError, match=r"^endpoint 1 lies in the avoided set$"):
        strong_walk_avoiding(octa, 1, 4, {1, 2})
    with pytest.raises(InputError, match=r"^9 is not a vertex$"):
        strong_walk_avoiding(octa, 9, 4, set())
    # labels equal to vertices but not ints
    with pytest.raises(InputError, match=r"^True is not a vertex$"):
        strong_walk_avoiding(octa, True, 2, ())
    with pytest.raises(InputError, match=r"^2\.0 is not a vertex$"):
        strong_walk_avoiding(octa, 1, 2.0, ())
    with pytest.raises(InputError, match=r"^avoided labels \[3\.0\] are not vertices$"):
        strong_walk_avoiding(octa, 1, 2, {3.0})
    # labels that do not sort against ints: numbers first, in numeric order
    with pytest.raises(InputError, match=r"^avoided labels \[3\.0, 'a'\] are not vertices$"):
        strong_walk_avoiding(octa, 1, 2, {"a", 3.0})
    # an endpoint in an avoided set that is too large is named first
    with pytest.raises(InputError, match=r"^endpoint 1 lies in the avoided set$"):
        strong_walk_avoiding(octa, 1, 4, {1, 3, 6})
    # an avoided set that is not a set of labels: unhashable items, not iterable
    with pytest.raises(InputError, match=r"^avoided set \[\[3\]\] is not a set of labels$"):
        strong_walk_avoiding(octa, 1, 2, [[3]])
    with pytest.raises(InputError, match=r"^avoided set 5 is not a set of labels$"):
        strong_walk_avoiding(octa, 1, 2, 5)
    # two points: a 0-dimensional pseudomanifold
    with pytest.raises(InputError, match=r"^walks need a complex of dimension at least one$"):
        strong_walk_avoiding(build_complex([(1,), (2,)]), 1, 2, set())


def test_walk_sweep_over_pseudomanifolds(corpus):
    # every pseudomanifold, every facet as the avoided set, all endpoint pairs
    for name, cx in corpus.items():
        if not cx.is_pseudomanifold() or cx.dimension < 1:
            continue
        if cx.num_vertices > 14:
            continue
        for sigma in cx.facets:
            rest = [u for u in cx.vertices if u not in sigma]
            for a in rest:
                for b in rest:
                    cert = strong_walk_avoiding(cx, a, b, sigma)
                    assert verify_strong_walk(cx, cert), (name, sigma, a, b)
                    assert not set(sigma) & set(cert.walk.nodes)
                    assert cert.walk.nodes[0] == a
                    assert cert.walk.nodes[-1] == b


def test_walk_sweep_small_avoid_sets(octa, torus):
    # avoided sets below facet size need not be faces
    for cx in (octa, torus):
        d = cx.dimension + 1
        for avoid in combinations(cx.vertices, d - 1):
            rest = [u for u in cx.vertices if u not in avoid]
            for a in rest:
                for b in rest:
                    cert = strong_walk_avoiding(cx, a, b, avoid)
                    assert verify_strong_walk(cx, cert)
                    assert not set(avoid) & set(cert.walk.nodes)


def test_deletion_of_pseudomanifold_is_strongly_connected(corpus):
    for name, cx in corpus.items():
        if not cx.is_pseudomanifold() or cx.dimension < 1:
            continue
        for v in cx.vertices:
            dl = cx.delete((v,))
            assert dl.strong_components().count == 1, (name, v)
            assert dl.is_pure, (name, v)
            # the walks run on cx itself and skip the facets through v
            assert dl.facets == tuple(f for f in cx.facets if v not in f), (name, v)


def test_walks_build_no_complex(monkeypatch):
    cx = barycentric_subdivision(cross_polytope_boundary(3))
    built = []
    real_init = SimplicialComplex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(SimplicialComplex, "__init__", counting_init)
    vs = cx.vertices
    for avoid in (vs[1:3], vs[4:5], ()):
        cert = strong_walk_avoiding(cx, vs[0], vs[-1], avoid)
        assert verify_strong_walk(cx, cert)
    assert built == []


def test_link_components_of_pseudomanifold_are_pseudomanifolds(corpus):
    for name, cx in corpus.items():
        if not cx.is_pseudomanifold() or cx.dimension < 1:
            continue
        for size in range(1, cx.dimension + 1):
            for sigma in cx.faces(size - 1):
                lk = cx.link(sigma)
                for comp in lk.strong_components().components:
                    sub = build_complex(comp)
                    assert sub.is_pseudomanifold(), (name, sigma, comp)


def test_verifier_rejects_fabricated_witness(octa):
    cert = WalkCertificate(Walk((2, 3, 5)), ((2, 3, 4), (3, 5, 9)))
    v = verify_strong_walk(octa, cert)
    assert not v and v.witness["clause"] == "witness-facet"


def test_verifier_rejects_non_edge(octa):
    cert = WalkCertificate(Walk((2, 5)), ((2, 3, 4),))
    v = verify_strong_walk(octa, cert)
    assert not v and v.witness["clause"] == "edge"


def test_verifier_rejects_edge_outside_witness(octa):
    cert = WalkCertificate(Walk((2, 3)), ((3, 4, 5),))
    v = verify_strong_walk(octa, cert)
    assert not v and v.witness["clause"] == "edge-in-witness"


def test_verifier_rejects_wrong_star_component():
    pinched = build_complex([(1, 2, 3), (3, 4, 5)])
    cert = WalkCertificate(Walk((2, 3, 4)), ((1, 2, 3), (3, 4, 5)))
    v = verify_strong_walk(pinched, cert)
    assert not v and v.witness["clause"] == "star-component"
    assert v.witness["index"] == 1


def test_verifier_rejects_witness_count_and_unknown_nodes(octa):
    v = verify_strong_walk(octa, WalkCertificate(Walk((2, 3)), ()))
    assert not v and v.witness["clause"] == "witness-count"
    v = verify_strong_walk(octa, WalkCertificate(Walk((2, 9)), ((2, 3, 4),)))
    assert not v and v.witness["clause"] == "node-membership"
    v = verify_strong_walk(octa, WalkCertificate(Walk(()), ()))
    assert not v and v.witness["clause"] == "walk-empty"


def test_verifier_rejects_labels_that_are_not_ints(octa):
    """A bool or float equals an int label, but no label is one: a node is
    refused under node-membership and a witness entry under witness-facet,
    as is a witness that is a list, not a facet tuple."""
    v = verify_strong_walk(octa, WalkCertificate(Walk((True, 2.0)), ((1, 2, 3),)))
    assert not v and v.witness == {"clause": "node-membership", "index": 0, "node": True}
    for witness in ((True, 2, 3), [1, 2, 3], (1, [2], 3)):
        v = verify_strong_walk(octa, WalkCertificate(Walk((1, 2)), (witness,)))
        assert not v and v.witness["clause"] == "witness-facet" and v.witness["index"] == 0
    assert verify_strong_walk(octa, WalkCertificate(Walk((1, 2)), ((1, 2, 3),)))


def _house_graph():
    return Graph(range(1, 7), [(1, 3), (3, 2), (2, 4), (4, 3), (3, 5), (5, 1),
                               (2, 6), (6, 1)])


def test_subdivision_accepts_valid_embedding():
    host = _house_graph()
    pattern = Graph(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")])
    emb = SubdivisionEmbedding(
        branch_nodes={"a": 1, "b": 2, "c": 4},
        edge_paths={("a", "b"): (1, 3, 2), ("b", "c"): (2, 4), ("a", "c"): (1, 5, 3, 4)},
    )
    v = verify_subdivision(host, pattern, emb)
    assert not v  # 3 appears inside two paths
    assert v.witness["clause"] == "interior-overlap"
    emb = SubdivisionEmbedding(
        branch_nodes={"a": 1, "b": 2, "c": 4},
        edge_paths={("a", "b"): (1, 6, 2), ("b", "c"): (2, 4), ("a", "c"): (1, 5, 3, 4)},
    )
    assert verify_subdivision(host, pattern, emb)


def test_subdivision_rejects_each_clause():
    host = _house_graph()
    pattern = Graph(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")])

    def emb(branch, paths):
        return SubdivisionEmbedding(branch_nodes=branch, edge_paths=paths)

    ok_paths = {("a", "b"): (1, 6, 2), ("b", "c"): (2, 4), ("a", "c"): (1, 5, 3, 4)}

    v = verify_subdivision(host, pattern, emb({"a": 1, "b": 2}, ok_paths))
    assert not v and v.witness["clause"] == "branch-cover"
    v = verify_subdivision(host, pattern, emb({"a": 1, "b": 1, "c": 4}, ok_paths))
    assert not v and v.witness["clause"] == "branch-injective"
    v = verify_subdivision(host, pattern, emb({"a": 1, "b": 2, "c": 99}, ok_paths))
    assert not v and v.witness["clause"] == "branch-membership"
    bad = dict(ok_paths)
    bad[("a", "x")] = (1, 2)
    v = verify_subdivision(host, pattern, emb({"a": 1, "b": 2, "c": 4}, bad))
    assert not v and v.witness["clause"] == "unknown-edge"
    missing = {("a", "b"): (1, 6, 2), ("b", "c"): (2, 4)}
    v = verify_subdivision(host, pattern, emb({"a": 1, "b": 2, "c": 4}, missing))
    assert not v and v.witness["clause"] == "missing-path"
    shape = dict(ok_paths)
    shape[("b", "c")] = (2,)
    v = verify_subdivision(host, pattern, emb({"a": 1, "b": 2, "c": 4}, shape))
    assert not v and v.witness["clause"] == "path-shape"
    ends = dict(ok_paths)
    ends[("b", "c")] = (2, 3)
    v = verify_subdivision(host, pattern, emb({"a": 1, "b": 2, "c": 4}, ends))
    assert not v and v.witness["clause"] == "path-endpoints"
    nonedge = dict(ok_paths)
    nonedge[("a", "c")] = (1, 4)
    v = verify_subdivision(host, pattern, emb({"a": 1, "b": 2, "c": 4}, nonedge))
    assert not v and v.witness["clause"] == "path-edge"
    stray = dict(ok_paths)
    stray[("a", "c")] = (1, "x", 4)  # a label of another type than the host's
    v = verify_subdivision(host, pattern, emb({"a": 1, "b": 2, "c": 4}, stray))
    assert not v and v.witness == {"clause": "path-edge", "edge": ("a", "c"), "step": (1, "x")}
    v = verify_subdivision(host, pattern,
                           emb({"a": 1, "b": 2, "c": 3}, {
                               ("a", "b"): (1, 3, 2),
                               ("b", "c"): (2, 4, 3),
                               ("a", "c"): (1, 5, 3)}))
    assert not v and v.witness["clause"] == "interior-hits-branch"


def test_subdivision_path_reversal_is_accepted():
    host = Graph((1, 2, 3), [(1, 2), (2, 3)])
    pattern = Graph(("x", "y"), [("x", "y")])
    emb = SubdivisionEmbedding(branch_nodes={"x": 1, "y": 3},
                               edge_paths={("y", "x"): (3, 2, 1)})
    assert verify_subdivision(host, pattern, emb)


def test_subdivision_witnesses_are_exact():
    host = _house_graph()
    pattern = Graph(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")])
    ab, ac, bc = ("a", "b"), ("a", "c"), ("b", "c")  # the pattern-edge order

    def witness(paths, branch=None):
        emb = SubdivisionEmbedding(branch_nodes=branch or {"a": 1, "b": 2, "c": 4},
                                   edge_paths=paths)
        v = verify_subdivision(host, pattern, emb)
        return None if v else v.witness

    ok = {ab: (1, 6, 2), bc: (2, 4), ac: (1, 5, 3, 4)}
    assert witness(ok) is None
    assert witness(ok, {"a": 1, "c": 4}) == {"clause": "branch-cover", "missing": "b"}
    assert witness(ok, {"a": 1, "b": 4, "c": 4}) == {"clause": "branch-injective"}
    assert witness(ok, {"a": 1, "b": "x", "c": 4}) == {
        "clause": "branch-membership", "node": "b", "image": "x"}
    # a key outside the pattern is named sorted, whatever its orientation or type
    for key in (("x", "a"), ("a", "x"), frozenset(("a", "x"))):
        assert witness({**ok, key: (1, 2)}) == {"clause": "unknown-edge", "edge": ("a", "x")}
    assert witness({ab: (1, 6, 2), ac: (1, 5, 3, 4)}) == {"clause": "missing-path", "edge": bc}
    assert witness({**ok, bc: [2]}) == {"clause": "path-shape", "edge": bc, "path": (2,)}
    assert witness({**ok, bc: (2, 4, 2)}) == {"clause": "path-shape", "edge": bc,
                                              "path": (2, 4, 2)}
    assert witness({**ok, bc: (2, 3)}) == {"clause": "path-endpoints", "edge": bc,
                                           "path": (2, 3)}
    # the first step that is no host edge, or leaves the host, in path order
    for path, step in (((1, 4), (1, 4)), ((1, 5, 4), (5, 4)), ((1, "x", 4), (1, "x")),
                       ((1, 5, 99, 4), (5, 99)), ((1, 5, 3, 99, 4), (3, 99))):
        assert witness({**ok, ac: path}) == {"clause": "path-edge", "edge": ac, "step": step}
    # a reversed tuple key names its pattern edge in pattern orientation
    assert witness({ab: (1, 6, 2), bc: (2, 4), ("c", "a"): (4, 9, 1)}) == {
        "clause": "path-edge", "edge": ac, "step": (4, 9)}
    assert witness({**ok, ac: (1, 3, 2, 4)}) == {"clause": "interior-hits-branch",
                                                 "edge": ac, "node": 2}
    # overlaps name the earlier edge in pattern-edge order, not insertion order
    paths = {ac: (1, 5, 3, 4), bc: (2, 4), ab: (1, 3, 2)}
    assert witness(paths) == {"clause": "interior-overlap", "edges": (ab, ac), "node": 3}
    paths = {bc: (2, 3, 4), ab: (1, 6, 2), ac: (1, 5, 3, 4)}
    assert witness(paths) == {"clause": "interior-overlap", "edges": (ac, bc), "node": 3}
    # the earlier edge need not be the last one with an interior
    spokes = Graph(range(1, 6), [(1, 4), (4, 2), (1, 5), (5, 3), (4, 3)])
    emb = SubdivisionEmbedding(branch_nodes={"a": 1, "b": 2, "c": 3},
                               edge_paths={ab: (1, 4, 2), ac: (1, 5, 3), bc: (2, 4, 3)})
    assert verify_subdivision(spokes, pattern, emb).witness == {
        "clause": "interior-overlap", "edges": (ab, bc), "node": 4}
    # keys in either orientation; a frozenset key is read before a tuple key
    flipped = {("b", "a"): (2, 6, 1), ("c", "b"): (4, 2), ("c", "a"): (4, 3, 5, 1)}
    assert witness(flipped) is None
    assert witness({**ok, frozenset(ac): (1, 5, 3, 4), ac: (1, 4)}) is None
    assert witness({**ok, ("c", "a"): (1, 4)}) is None  # the key ac is read first
    assert witness({ab: (1, 6, 2), bc: (2, 4), ("c", "a"): (1, 4)}) == {
        "clause": "path-edge", "edge": ac, "step": (1, 4)}
