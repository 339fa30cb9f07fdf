"""Property tests of the exact rank kernel, the homology deciders, the
maximal faces kept on construction, equality and hashing, the answers read
off the face index (its keys and facet bitsets, face levels, ``has_face``,
links, strong components, the pseudomanifold test), the neighbour masks
(neighbours, minimal nonfaces, the flag test), the isomorphism search and
the vertex-connectivity sweep with its per-pair cuts against the
brute-force oracles, and the theorems' checks on random flag spheres and
tori.

Examples are derandomized and bounded, so every run checks the same cases.
"""

from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as O
from simplicial import (
    GF2,
    GF3,
    RATIONALS,
    FieldSpec,
    SimplicialComplex,
    Graph,
    barycentric_subdivision,
    build_complex,
    check_cross_polytope_subdivision,
    check_face_graph_connectivity_bound,
    check_face_lower_bounds_report,
    check_graph_connectivity_bound,
    check_h_vector_bound,
    cross_polytope_boundary,
    cycle,
    face_adjacency_graph,
    graph_of,
    is_cohen_macaulay,
    is_homology_manifold,
    is_homology_sphere,
    is_isomorphic,
    is_m_cohen_macaulay,
    reduced_betti_numbers,
    simplex_boundary,
    strong_walk_avoiding_set,
    torus_7,
    verify_strong_walk,
    vertex_connectivity,
)
from simplicial import graphs, linalg
from simplicial.errors import InputError

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)

VERTICES = st.integers(1, 7)

random_facets = st.lists(
    st.frozensets(VERTICES, min_size=1, max_size=6), min_size=1, max_size=8
)


@st.composite
def clique_complex_facets(draw):
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = {e for e in pairs if draw(st.booleans())}
    cliques = [(v,) for v in range(1, n + 1)]
    for size in range(2, n + 1):
        for sub in combinations(range(1, n + 1), size):
            if all(e in edges for e in combinations(sub, 2)):
                cliques.append(sub)
    return cliques


@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    entry = st.one_of(st.integers(-4, 4), st.integers(-10**6, 10**6))
    zero_rows = draw(st.sets(st.integers(0, 6), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 6), max_size=2))
    return [
        [0 if i in zero_rows or j in zero_cols else draw(entry) for j in range(cols)]
        for i in range(rows)
    ]


ALL_FIELDS = (GF2, GF3, FieldSpec.gf(5), FieldSpec.gf(7), RATIONALS)


def _assert_betti_match_oracle(facets):
    cx = build_complex(facets)
    for field in ALL_FIELDS:
        got = tuple(reduced_betti_numbers(cx, field).values)
        assert got == O.betti_numbers(cx.facets, field.characteristic), field.name


@PROPERTY
@given(random_facets)
def test_betti_of_random_complexes_match_oracle(facets):
    _assert_betti_match_oracle(facets)


@PROPERTY
@given(clique_complex_facets())
def test_betti_of_clique_complexes_match_oracle(facets):
    _assert_betti_match_oracle(facets)


def _assert_deciders_match_oracle(facets, field, m):
    cx = build_complex(facets)
    p = field.characteristic
    pairs = (
        (is_cohen_macaulay(cx, field), O.is_cohen_macaulay(facets, p)),
        (is_m_cohen_macaulay(cx, m, field), O.is_m_cohen_macaulay(facets, m, p)),
        (is_homology_sphere(cx, field), O.is_homology_sphere(facets, p)),
        (is_homology_manifold(cx, field), O.is_homology_manifold(facets, p)),
    )
    for verdict, witness in pairs:
        assert verdict.ok == (witness is None)
        assert verdict.witness == witness


def _assert_incidence_matches_oracle(facets):
    cx = build_complex(facets)
    drawn = [frozenset(f) for f in facets]
    maximal = {tuple(sorted(f)) for f in drawn if not any(f < g for g in drawn)}
    assert list(cx.facets) == sorted(maximal)
    rebuilt = build_complex([sorted(f, reverse=True) for f in reversed(facets)])
    assert rebuilt == cx and hash(rebuilt) == hash(cx)
    assert build_complex([*facets, {8}]) != cx
    faces = O.close_downward(cx.facets)
    for k in range(-2, cx.dimension + 2):
        assert list(cx.faces(k)) == sorted(tuple(sorted(f)) for f in faces if len(f) == k + 1)
    assert all(cx.has_face(f) for f in faces)
    assert not cx.has_face([1, 99])
    for sigma in faces - {frozenset()}:
        over = [tau - sigma for tau in faces if sigma <= tau]
        link = {tuple(sorted(t)) for t in over if not any(t < u for u in over)}
        assert list(cx.link(sigma).facets) == sorted(link), sorted(sigma)
    edges = [e for e in faces if len(e) == 2]
    nbrs = cx._neighbour_masks()
    for i, v in enumerate(cx.vertices):
        assert set(cx._labels_of(nbrs[i])) == {u for e in edges if v in e for u in e - {v}}
    comps = sorted(
        (sorted(c, key=lambda f: (len(f), f)) for c in O.strong_components(cx.facets)),
        key=lambda c: (len(min(c)), min(c)),
    )
    assert cx.strong_components().components == tuple(map(tuple, comps))
    assert bool(cx.is_pseudomanifold()) == O.is_pseudomanifold(cx.facets)
    nonfaces = O.minimal_nonfaces(cx.facets)
    assert list(cx.minimal_nonfaces()) == nonfaces
    for nf in nonfaces:
        assert not cx.has_face(nf)
        with pytest.raises(InputError):
            cx.link(nf)
    big = [nf for nf in nonfaces if len(nf) > 2]
    flag = cx.is_flag()
    assert bool(flag) == (not big)
    assert flag.witness == (big[0] if big else None)


@PROPERTY
@given(random_facets)
def test_incidence_answers_on_random_complexes_match_oracle(facets):
    _assert_incidence_matches_oracle(facets)


@PROPERTY
@given(clique_complex_facets())
def test_incidence_answers_on_clique_complexes_match_oracle(facets):
    _assert_incidence_matches_oracle(facets)


pure_facets = st.lists(
    st.frozensets(VERTICES, min_size=3, max_size=3), min_size=1, max_size=8
)


def _assert_face_index_matches_oracle(facets):
    """The star of each face, listed in facet order, is the facets over it,
    and a face plus one more vertex has a star exactly when it is a face, so
    a nonface probe gives None; has_face agrees, and is False on a label that
    is no vertex; whether the flag test's walk kept the index or the uncapped
    walk built it."""
    faces = O.close_downward(facets)
    for flag_first in (False, True):
        cx = build_complex(facets)
        if flag_first:
            cx.is_flag()
        unknown = max(cx.vertices, default=0) + 1
        assert not cx.has_face((unknown,))
        for face in faces:
            want = [f for f in cx.facets if face <= set(f)]
            assert [cx._labels_of(fm) for fm in cx._star(cx._mask_of(face))] == want, sorted(face)
            assert cx.has_face(face) and not cx.has_face(face | {unknown}), sorted(face)
            for v in set(cx.vertices) - face:
                probe = cx._star(cx._mask_of(face | {v}))
                assert (probe is None) == (face | {v} not in faces), sorted(face | {v})
                assert cx.has_face(face | {v}) == (face | {v} in faces), sorted(face | {v})


@PROPERTY
@given(random_facets)
def test_face_index_of_random_complexes_matches_oracle(facets):
    _assert_face_index_matches_oracle(facets)


@PROPERTY
@given(pure_facets)
def test_face_index_of_pure_complexes_matches_oracle(facets):
    _assert_face_index_matches_oracle(facets)


@PROPERTY
@given(clique_complex_facets())
def test_face_index_of_clique_complexes_matches_oracle(facets):
    _assert_face_index_matches_oracle(facets)


@pytest.mark.parametrize("n", [4, 7, 12, 20])
def test_face_index_of_a_complete_graph_with_one_triangle_matches_oracle(n):
    _assert_face_index_matches_oracle([*combinations(range(1, n + 1), 2), (2, 3, n)])


small_facets = st.lists(
    st.frozensets(st.integers(1, 6), min_size=1, max_size=4), min_size=1, max_size=6
)


@PROPERTY
@given(small_facets, st.permutations(range(11, 17)))
def test_isomorphism_to_a_relabelling_carries_facets_onto_facets(facets, image):
    a = build_complex(facets)
    b = build_complex([[image[v - 1] for v in f] for f in facets])
    mapping = is_isomorphic(a, b)
    assert mapping is not None
    assert sorted(mapping) == list(a.vertices)
    assert sorted(mapping.values()) == list(b.vertices)
    assert {tuple(sorted(mapping[v] for v in f)) for f in a.facets} == set(b.facets)


@PROPERTY
@given(small_facets, small_facets)
def test_isomorphism_existence_matches_oracle(fa, fb):
    a, b = build_complex(fa), build_complex(fb)
    assert (is_isomorphic(a, b) is not None) == O.is_isomorphic(a.facets, b.facets)


FIELDS = st.sampled_from(ALL_FIELDS)
SUBSET_SIZES = st.integers(1, 3)


@PROPERTY
@given(random_facets, FIELDS, SUBSET_SIZES)
def test_deciders_on_random_complexes_match_oracle(facets, field, m):
    _assert_deciders_match_oracle(facets, field, m)


@PROPERTY
@given(clique_complex_facets(), FIELDS, SUBSET_SIZES)
def test_deciders_on_clique_complexes_match_oracle(facets, field, m):
    _assert_deciders_match_oracle(facets, field, m)


# small spheres of the corpus, with S^0 and the boundary of a triangle
SMALL_SPHERES = (
    ((1,), (2,)),
    ((1, 2), (1, 3), (2, 3)),
    cycle(6).facets,
    simplex_boundary(3).facets,
    cross_polytope_boundary(3).facets,
)


def _graph_cone(draw, edges):
    """The cone with apex 20 over a graph whose vertices get the labels
    1..n in a drawn order; the apex, labelled last, is deleted last."""
    verts = sorted({v for e in edges for v in e})
    label = dict(zip(verts, draw(st.permutations(range(1, len(verts) + 1)))))
    return [tuple(sorted(label[v] for v in e)) + (20,) for e in edges]


@st.composite
def sphere_constructions(draw):
    """Cones, balls (a sphere minus a facet), suspensions and joins of small
    spheres: CM complexes that are 2-CM or fail it by a dimension drop or
    by homology below the top degree after deleting one vertex.  Also cones
    over a lollipop (a cycle with a pendant edge: the apex link's one top
    cycle misses a top face) and over a theta graph (two top cycles)."""
    kind = draw(st.sampled_from(("cone", "ball", "suspension", "join", "lollipop", "theta")))
    if kind == "lollipop":
        k = draw(st.integers(3, 5))
        return _graph_cone(draw, [(i, (i + 1) % k) for i in range(k)] + [(0, k)])
    if kind == "theta":
        # three paths from 0 to 1 with 0..2 inner vertices each, at most one direct
        inner = sorted(draw(st.lists(st.integers(0, 2), min_size=3, max_size=3)))
        if inner[1] == 0:
            inner[1] = 1
        edges, nxt = [], 2
        for n in inner:
            path = [0, *range(nxt, nxt + n), 1]
            edges += list(zip(path, path[1:]))
            nxt += n
        return _graph_cone(draw, edges)
    # the brute-force oracle takes seconds on joins of the larger spheres
    facets = list(draw(st.sampled_from(SMALL_SPHERES[:3] if kind == "join" else SMALL_SPHERES)))
    if kind == "cone":
        return [f + (20,) for f in facets]
    if kind == "ball":
        del facets[draw(st.integers(0, len(facets) - 1))]
        return facets
    if kind == "suspension":
        return [f + (a,) for f in facets for a in (20, 21)]
    other = [tuple(v + 10 for v in g) for g in draw(st.sampled_from(SMALL_SPHERES[:2]))]
    if draw(st.booleans()):
        del other[draw(st.integers(0, len(other) - 1))]
    return [f + g for f in facets for g in other]


# six kinds at the 20 examples each that four had at the PROPERTY default
@settings(PROPERTY, max_examples=120)
@given(sphere_constructions(), FIELDS, st.integers(2, 3))
def test_deciders_on_cones_balls_suspensions_and_joins_match_oracle(facets, field, m):
    _assert_deciders_match_oracle(facets, field, m)


def _assert_certified_verdicts_match_the_sweep(facets):
    """CM, m-CM for m = 1 and 2, sphere and manifold verdicts, witnesses
    included, are the same with the shelling search on and with it finding
    nothing, so that the sweep decides alone; each run on a fresh memo."""

    def verdicts():
        cx = build_complex(facets)
        return [
            (is_cohen_macaulay(cx, field), is_m_cohen_macaulay(cx, 1, field),
             is_m_cohen_macaulay(cx, 2, field), is_homology_sphere(cx, field),
             is_homology_manifold(cx, field))
            for field in (GF2, GF3, RATIONALS)
        ]

    certified = verdicts()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimplicialComplex, "_shelling_order", lambda cx: None)
        assert verdicts() == certified


def test_certified_verdicts_match_the_sweep_on_the_corpus(corpus):
    for name, cx in corpus.items():
        _assert_certified_verdicts_match_the_sweep(cx.facets)


@settings(PROPERTY, max_examples=240)
@given(st.one_of(random_facets, clique_complex_facets(), sphere_constructions()))
def test_certified_verdicts_match_the_sweep(facets):
    _assert_certified_verdicts_match_the_sweep(facets)


@PROPERTY
@given(integer_matrices())
def test_rank_of_integer_matrices_matches_oracle(mat):
    assert linalg.rank(mat, 0) == O.rank_fraction(mat)
    for p in (2, 3, 5, 7):
        assert linalg.rank(mat, p) == O.rank_mod(mat, p), p


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 9))
    pairs = list(combinations(range(1, n + 1), 2))
    return Graph(range(1, n + 1), [e for e in pairs if draw(st.booleans())])


@PROPERTY
@given(random_graphs())
def test_graph_accessors_match_its_edge_list(g):
    adj = {u: set() for u in g.nodes}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    for u in g.nodes:
        assert g.neighbors(u) == tuple(sorted(adj[u]))
        assert g.degree(u) == len(adj[u])
        assert [g.has_edge(u, v) for v in g.nodes] == [v in adj[u] for v in g.nodes]
    assert g.is_connected() == O.graph_is_connected(g.nodes, g.edges)
    # the sweep runs on its own copy of the adjacency
    before = g.edges, [g.neighbors(u) for u in g.nodes]
    vertex_connectivity(g)
    assert (g.edges, [g.neighbors(u) for u in g.nodes]) == before


def _pair_list(g):
    """The sweep's pairs: a minimum-degree node v (least label on ties)
    against its non-neighbours, then the non-adjacent pairs of its
    neighbours, each in node order."""
    v = min(g.nodes, key=lambda u: (len(g.neighbors(u)), u))
    pairs = [(v, w) for w in g.nodes if w != v and w not in g.neighbors(v)]
    nbrs = g.neighbors(v)
    pairs += [(a, b) for a, b in combinations(nbrs, 2) if b not in g.neighbors(a)]
    return pairs


def _assert_connectivity_matches_oracle(g):
    pos = {u: i for i, u in enumerate(g.nodes)}
    nbr = g._nbr
    cuts = {}
    for s, t in permutations(g.nodes, 2):
        if t in g.neighbors(s):
            continue
        paths, cut_mask = graphs._disjoint_paths(nbr, pos[s], pos[t])
        cut = tuple(u for u in g.nodes if cut_mask >> pos[u] & 1)
        want = O.nearest_min_vertex_cut(g.nodes, g.edges, s, t)
        assert cut == want, (s, t)
        assert len(paths) == len(want), (s, t)
        cuts[s, t] = want
    got = vertex_connectivity(g)
    value, _ = O.vertex_connectivity_bruteforce(g.nodes, g.edges)
    assert got.value == value
    if not cuts:
        assert got.complete and got.cut is None
        return
    pairs = _pair_list(g)
    first = min(range(len(pairs)), key=lambda i: (len(cuts[pairs[i]]), cuts[pairs[i]]))
    assert got.cut == cuts[pairs[first]]
    assert got.separated_pair == pairs[first]


def _assert_pairs_match_flow_oracle(g, pairs):
    pos = {u: i for i, u in enumerate(g.nodes)}
    nbr = g._nbr
    for s, t in pairs:
        paths, cut_mask = graphs._disjoint_paths(nbr, pos[s], pos[t])
        cut = tuple(u for u in g.nodes if cut_mask >> pos[u] & 1)
        assert (len(paths), cut) == O.max_flow_vertex_cut(g.nodes, g.edges, s, t), (s, t)
        graphs._check_menger(g, pos[s], pos[t], paths, len(cut))


@st.composite
def larger_graphs(draw):
    """Graphs on 10 to 40 nodes in which every node picks k neighbours, k in 1..6."""
    n, k = draw(st.integers(10, 40)), draw(st.integers(1, 6))
    picks = st.lists(st.integers(1, n), min_size=k, max_size=k)
    edges = [(v, w) for v in range(1, n + 1) for w in draw(picks) if w != v]
    return Graph(range(1, n + 1), edges)


@PROPERTY
@given(larger_graphs())
def test_flows_on_larger_random_graphs_match_flow_oracle(g):
    pairs = [(1, t) for t in g.nodes if t != 1 and not g.has_edge(1, t)]
    _assert_pairs_match_flow_oracle(g, pairs + _pair_list(g))


@pytest.mark.parametrize("name", ["gk cross6", "gk bary3", "graph bary4"])
def test_sweep_pairs_of_bench_graphs_match_flow_oracle(name):
    g = {
        "gk cross6": lambda: face_adjacency_graph(cross_polytope_boundary(6), 1),
        "gk bary3": lambda: face_adjacency_graph(
            barycentric_subdivision(cross_polytope_boundary(3)), 1),
        "graph bary4": lambda: graph_of(barycentric_subdivision(cross_polytope_boundary(4))),
    }[name]()
    _assert_pairs_match_flow_oracle(g, _pair_list(g))


# Graphs on which a search must back along the flow.  They catch a search
# that never steps back from a used node's out-state to its in-state, and
# pointer updates that clear a pointer the same path has already reset.  On
# the last, the first phase from 1 to 3 lays 1-5-7-4-3, which blocks
# 1-5-9-6-3; the second phase cancels 5-7-4 by stepping back through 7.
FLOW_BACKING_GRAPHS = (
    Graph(range(1, 7), [(1, 2), (1, 5), (1, 6), (2, 3), (2, 4), (3, 6), (4, 5)]),
    Graph(range(1, 8), [(1, 2), (1, 4), (1, 5), (2, 3), (2, 6), (3, 4), (3, 6), (4, 6),
                        (4, 7), (5, 7)]),
    Graph(range(1, 8), [(1, 2), (2, 5), (2, 7), (3, 6), (3, 7), (4, 5), (4, 6)]),
    Graph(range(1, 10), [(1, 2), (1, 5), (2, 8), (3, 4), (3, 6), (4, 7), (4, 8), (5, 7),
                         (5, 9), (6, 9)]),
)


@PROPERTY
@given(random_graphs())
@example(FLOW_BACKING_GRAPHS[0])
@example(FLOW_BACKING_GRAPHS[1])
@example(FLOW_BACKING_GRAPHS[2])
@example(FLOW_BACKING_GRAPHS[3])
def test_connectivity_of_random_graphs_matches_oracle(g):
    _assert_connectivity_matches_oracle(g)


@PROPERTY
@given(clique_complex_facets())
def test_connectivity_of_clique_complex_graphs_matches_oracle(facets):
    g = graph_of(build_complex(facets))
    if len(g.nodes) >= 2:
        _assert_connectivity_matches_oracle(g)


@PROPERTY
@given(sphere_constructions())
def test_connectivity_of_sphere_construction_graphs_matches_oracle(facets):
    g = graph_of(build_complex(facets))
    if len(g.nodes) >= 2:
        _assert_connectivity_matches_oracle(g)


# flag bases for edge subdivision: two spheres and a torus
FLAG_BASES = {
    "cross3": cross_polytope_boundary(3),
    "cross4": cross_polytope_boundary(4),
    "bary torus7": barycentric_subdivision(torus_7()),
}


@st.composite
def edge_subdivided_flag_complexes(draw):
    """A flag base after 1 to 25 drawn edge subdivisions, with two endpoints
    and 2d-3 other vertices for a walk to avoid.  Subdividing {a, b} adds a
    vertex c and replaces each facet F through a and b by F-a+c and F-b+c;
    the result is flag, and a pseudomanifold on the same space."""
    name = draw(st.sampled_from(sorted(FLAG_BASES)))
    base = FLAG_BASES[name]
    facets = [frozenset(f) for f in base.facets]
    for c in range(base.num_vertices + 1, base.num_vertices + 1 + draw(st.integers(1, 25))):
        a, b = draw(st.sampled_from(sorted({e for f in facets for e in combinations(sorted(f), 2)})))
        facets = [g for f in facets
                  for g in ((f - {a} | {c}, f - {b} | {c}) if a in f and b in f else (f,))]
    cx = build_complex(facets)
    a, b, *avoid = draw(st.permutations(cx.vertices))[:2 * cx.dimension + 1]
    return name, cx, a, b, avoid


@settings(PROPERTY, max_examples=30)
@given(edge_subdivided_flag_complexes())
def test_edge_subdivisions_of_flag_spheres_and_tori_meet_the_bounds(drawn):
    """t1, lb and t2 hold on every base, t3 on the spheres; gk's certificate
    on the edge graph re-verifies; a flag walk dodges 2d-3 vertices; every
    sweep pair's flow and cut match the textbook flow, where the nearest-s
    cut is often not the neighbourhood of an end."""
    name, cx, a, b, avoid = drawn
    assert cx.is_flag() and cx.is_pseudomanifold()
    reports = [check_graph_connectivity_bound(cx), check_face_lower_bounds_report(cx),
               check_cross_polytope_subdivision(cx, all_facets=True)]
    if name != "bary torus7":
        reports.append(check_h_vector_bound(cx))
    assert [r.status for r in reports] == ["pass"] * len(reports)
    # gk is an instance check: its cut has as many nodes as it claims and,
    # by the textbook flow on the edge graph without it, separates its pair
    gk = check_face_graph_connectivity_bound(cx, 1)
    assert gk.applicable
    cut, (s, t) = gk.details["minimum_cut"], gk.details["separated_pair"]
    assert len(cut) == gk.details["connectivity"] and not {s, t} & set(cut)
    eg = face_adjacency_graph(cx, 1)
    kept = [e for e in eg.edges if not set(e) & set(cut)]
    assert O.max_flow_vertex_cut([u for u in eg.nodes if u not in cut], kept, s, t)[0] == 0
    assert verify_strong_walk(cx, strong_walk_avoiding_set(cx, a, b, avoid))
    g = graph_of(cx)
    _assert_pairs_match_flow_oracle(g, _pair_list(g))
