"""Acceptance suite: one criterion per test, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Every check is exact; the asserted time budgets are generous
ceilings, not performance targets.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations
from math import comb

import oracles as O
from simplicial import (
    GF2,
    GF3,
    RATIONALS,
    boundary_matrix,
    build_complex,
    check_cross_polytope_subdivision,
    check_face_graph_connectivity_bound,
    check_graph_connectivity_bound,
    check_h_vector_bound,
    cross_polytope_boundary,
    cross_polytope_graph,
    cross_polytope_subdivision,
    graph_of,
    is_cohen_macaulay,
    is_homology_manifold,
    is_homology_sphere,
    is_m_cohen_macaulay,
    reduced_betti_numbers,
    strong_walk_avoiding_set,
    verify_strong_walk,
    verify_subdivision,
)

FIELDS = (GF2, GF3, RATIONALS)


@contextmanager
def criterion(number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number}] PASS {label} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_criterion_1_cross_polytope_minima():
    with criterion(1, "cross-polytope face minima, d=1..5", budget=1.0):
        for d in range(1, 6):
            cx = cross_polytope_boundary(d)
            expected = tuple(2 ** i * comb(d, i) for i in range(d + 1))
            assert tuple(cx.f_vector()) == expected, d


def test_criterion_2_connectivity_suite(corpus):
    suite = ["octahedron", "cross4", "cross5", "icosahedron",
             "bary_tetra", "bary_octa"]
    with criterion(2, "graph connectivity >= 2d-2 across the suite", budget=30.0):
        for name in suite:
            cx = corpus[name]
            d = cx.dimension + 1
            r = check_graph_connectivity_bound(cx)
            assert r.status == "pass", name
            assert r.details["connectivity"] >= 2 * d - 2, name
            if name in ("octahedron", "cross4", "cross5"):
                assert r.details["connectivity"] == 2 * d - 2, name
            g = graph_of(cx)
            if len(g.nodes) <= 13:
                want, _ = O.vertex_connectivity_bruteforce(g.nodes, g.edges)
                assert r.details["connectivity"] == want, name


def test_criterion_3_avoiding_walks_exhaustive(octa, icosa):
    with criterion(3, "certified avoiding walks, exhaustive sweeps", budget=120.0):
        for cx in (octa, icosa):
            d = cx.dimension + 1
            for size in range(2 * d - 2):
                for avoid in combinations(cx.vertices, size):
                    rest = [u for u in cx.vertices if u not in avoid]
                    for a in rest:
                        for b in rest:
                            cert = strong_walk_avoiding_set(cx, a, b, avoid)
                            assert verify_strong_walk(cx, cert), (avoid, a, b)
                            assert not set(avoid) & set(cert.nodes)
                            assert cert.nodes[0] == a
                            assert cert.nodes[-1] == b


def test_criterion_4_subdivision_extraction(octa, cross4, icosa):
    with criterion(4, "cross-polytope subdivision from every facet", budget=10.0):
        for cx in (octa, cross4, icosa):
            d = cx.dimension + 1
            pattern = cross_polytope_graph(d)
            host = graph_of(cx)
            for facet in cx.facets:
                emb = cross_polytope_subdivision(cx, facet)
                assert verify_subdivision(host, pattern, emb), facet
                values = [emb.branch_nodes[i] for i in sorted(emb.branch_nodes)]
                v_part, u_part = values[:d], values[d:]
                assert tuple(v_part) == facet
                assert len(set(u_part)) == d
                assert not set(u_part) & set(facet)
                for vi, ui in zip(v_part, u_part):
                    assert not cx.has_face((min(vi, ui), max(vi, ui)))
                interiors = [set(p[1:-1]) for p in emb.edge_paths.values()]
                for inner in interiors:
                    assert not inner & set(values)
                for x, y in combinations(interiors, 2):
                    assert not x & y
            r = check_cross_polytope_subdivision(cx, all_facets=True)
            assert r.status == "pass"
            assert r.details["facets_checked"] == len(cx.facets)


def test_criterion_5_h_vector_bounds(corpus):
    suite = ["octahedron", "cross4", "cross5", "icosahedron",
             "bary_tetra", "bary_octa"]
    with criterion(5, "h-vector binomial bounds on flag spheres", budget=120.0):
        for name in suite:
            cx = corpus[name]
            d = cx.dimension + 1
            assert is_m_cohen_macaulay(cx, 2, GF2), name
            r = check_h_vector_bound(cx, GF2)
            assert r.status == "pass", name
            hv = r.details["h_vector"]
            assert all(hv[i] >= comb(d, i) for i in range(d + 1)), name
            if name in ("octahedron", "cross4", "cross5"):
                assert tuple(hv) == tuple(comb(d, i) for i in range(d + 1)), name
                assert r.details["cross_polytope_isomorphic"] is True, name


def test_criterion_6_face_graph_connectivity(octa, cross4):
    with criterion(6, "face-adjacency graph connectivity bounds", budget=60.0):
        r = check_face_graph_connectivity_bound(octa, 1)
        assert r.status == "pass"
        assert r.details["connectivity"] == 4 and r.details["bound"] == 4
        r = check_face_graph_connectivity_bound(cross4, 1)
        assert r.status == "pass"
        assert r.details["connectivity"] == 8 and r.details["bound"] == 8
        r = check_face_graph_connectivity_bound(cross4, 2)
        assert r.status == "pass"
        assert r.details["connectivity"] == 6 and r.details["bound"] == 6


def _as_poly(h):
    coeffs = list(h)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs or [0]


def test_criterion_7_h_recursion(corpus):
    rng = random.Random(4205)
    hosts = [cx for cx in corpus.values() if not cx.is_void and cx.dimension >= 1]
    with criterion(7, "deletion/link h-recursion on 200 random pure complexes",
                   budget=30.0):
        for _ in range(200):
            host = rng.choice(hosts)
            k = rng.randint(1, host.dimension)
            pool = list(host.faces(k))
            cx = build_complex(rng.sample(pool, rng.randint(1, len(pool))))
            assert cx.is_pure
            for v in cx.vertices:
                dl = cx.delete((v,))
                lk = cx.link((v,))
                left = _as_poly(cx.h_vector())
                if dl.dimension == cx.dimension:
                    del_part = list(dl.h_vector())
                    lk_part = [0] + list(lk.h_vector())
                    combined = [0] * max(len(del_part), len(lk_part))
                    for i, x in enumerate(del_part):
                        combined[i] += x
                    for i, x in enumerate(lk_part):
                        combined[i] += x
                    assert left == _as_poly(combined), (cx.facets, v)
                else:
                    assert left == _as_poly(dl.h_vector()), (cx.facets, v)


def test_criterion_8_classification_hierarchy(corpus):
    with criterion(8, "classification hierarchy and negative controls",
                   budget=120.0):
        for name, cx in corpus.items():
            if cx.is_void:
                continue
            sphere = bool(is_homology_sphere(cx, GF2))
            manifold = bool(is_homology_manifold(cx, GF2))
            two_cm = bool(is_m_cohen_macaulay(cx, 2, GF2))
            cm = bool(is_cohen_macaulay(cx, GF2))
            pm = bool(cx.is_pseudomanifold())
            if sphere:
                assert two_cm, name
                assert manifold, name
            if two_cm:
                assert cm, name
            if manifold and cx.dimension >= 1 and graph_of(cx).is_connected():
                assert pm, name
        # the classes are closed under taking links of vertices
        for name in ("octahedron", "icosahedron", "hexagon", "bary_tetra"):
            cx = corpus[name]
            for v in cx.vertices:
                lk = cx.link((v,))
                assert is_homology_sphere(lk, GF2), (name, v)
                assert is_cohen_macaulay(lk, GF2), (name, v)
        for v in corpus["torus7"].vertices:
            lk = corpus["torus7"].link((v,))
            assert is_homology_manifold(lk, GF2), v
        # documented rejection witnesses
        v = corpus["torus7"].is_flag()
        assert not v and len(v.witness) == 3
        v = is_homology_sphere(corpus["torus7"], GF2)
        assert not v and v.witness["degree"] == 1 and v.witness["betti"] == 2
        v = corpus["books"].is_pseudomanifold()
        assert not v and v.witness == {"ridge": (1, 2), "facet_count": 3}
        v = is_m_cohen_macaulay(corpus["books"], 2, GF2)
        assert not v and v.witness["defect"] == "dimension-drop"
        v = corpus["two_triangles"].is_pseudomanifold()
        assert not v
        assert corpus["two_triangles"].strong_components().count == 2
        assert not is_cohen_macaulay(corpus["two_triangles"], GF2)
        v = is_homology_manifold(corpus["path"], GF2)
        assert not v and v.witness["face"] == (1,)


def test_criterion_9_homology_sanity(corpus):
    with criterion(9, "boundary-squared vanishing and Euler consistency",
                   budget=60.0):
        for name, cx in corpus.items():
            if cx.is_void or cx.dimension < 1:
                continue
            for k in range(1, cx.dimension + 1):
                a = boundary_matrix(cx, k - 1, RATIONALS)
                b = boundary_matrix(cx, k, RATIONALS)
                for i in range(len(a)):
                    row = a[i]
                    for j in range(len(b[0])):
                        assert sum(row[t] * b[t][j] for t in range(len(b))) == 0
        for name, cx in corpus.items():
            if cx.is_void:
                continue
            chi = cx.reduced_euler_characteristic()
            for field in FIELDS:
                bt = reduced_betti_numbers(cx, field)
                alt = sum((-1) ** k * bt.of_dim(k)
                          for k in range(-1, cx.dimension + 1))
                assert alt == chi, (name, field.name)
