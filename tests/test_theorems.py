import json
import random
from enum import IntEnum
from itertools import combinations
from math import comb

import pytest

import simplicial.cli as cli
import simplicial.theorems as theorems
from simplicial import (
    GF2,
    InputError,
    Verdict,
    Walk,
    WalkCertificate,
    build_complex,
    check_cross_polytope_subdivision,
    check_face_graph_connectivity_bound,
    check_face_lower_bounds_report,
    check_graph_connectivity_bound,
    check_h_vector_bound,
    cross_polytope_boundary,
    cross_polytope_graph,
    cross_polytope_subdivision,
    cycle,
    face_adjacency_graph,
    facet_file_text,
    graph_of,
    strong_walk_avoiding,
    strong_walk_avoiding_set,
    verify_strong_walk,
    verify_subdivision,
    vertex_connectivity,
)
from simplicial.errors import ClassificationError, InternalInvariantError


def test_t1_octahedron(octa):
    r = check_graph_connectivity_bound(octa)
    assert r.theorem == "t1"
    assert r.status == "pass" and r.exit_code == 0
    assert [(h.name, h.ok) for h in r.hypotheses] == [
        ("flag", True), ("pseudomanifold", True)]
    assert r.details["bound"] == 4
    assert r.details["connectivity"] == 4
    assert r.details["minimum_cut"] == (1, 2, 4, 5)


def test_t1_larger_cross_polytopes(cross4, cross5):
    r = check_graph_connectivity_bound(cross4)
    assert r.status == "pass"
    assert r.details["connectivity"] == 6 and r.details["bound"] == 6
    r = check_graph_connectivity_bound(cross5)
    assert r.details["connectivity"] == 8 and r.details["bound"] == 8


def test_t1_icosahedron(icosa):
    r = check_graph_connectivity_bound(icosa)
    assert r.status == "pass"
    assert r.details["connectivity"] == 5 and r.details["bound"] == 4


def test_t1_not_applicable():
    hollow = build_complex([(1, 2), (1, 3), (2, 3)])
    r = check_graph_connectivity_bound(hollow)
    assert r.status == "not-applicable" and r.exit_code == 4
    assert r.conclusion_ok is None
    failed = [h.name for h in r.hypotheses if not h.ok]
    assert failed == ["flag"]
    books = build_complex([(1, 2, 3), (1, 2, 4), (1, 2, 5)])
    r = check_graph_connectivity_bound(books)
    assert r.status == "not-applicable"
    assert [h.name for h in r.hypotheses if not h.ok] == ["pseudomanifold"]


def test_report_to_dict_shape(octa):
    d = check_graph_connectivity_bound(octa).to_dict()
    assert d["theorem"] == "t1"
    assert d["status"] == "pass"
    assert {h["name"] for h in d["hypotheses"]} == {"flag", "pseudomanifold"}
    assert d["conclusion_ok"] is True


def test_t3_octahedron_equality(octa):
    r = check_h_vector_bound(octa)
    assert r.status == "pass"
    assert r.details["h_vector"] == (1, 3, 3, 1)
    assert tuple(r.details["equality_positions"]) == (0, 1, 2, 3)
    assert r.details["cross_polytope_isomorphic"] is True
    assert r.details["cross_polytope_mapping"] is not None


def test_t3_square_equality():
    r = check_h_vector_bound(cycle(4))
    assert r.status == "pass"
    assert r.details["cross_polytope_isomorphic"] is True


def test_t3_icosahedron(icosa):
    r = check_h_vector_bound(icosa)
    assert r.status == "pass"
    assert r.details["h_vector"] == (1, 9, 9, 1)
    assert tuple(r.details["equality_positions"]) == (0, 3)
    assert r.details["cross_polytope_isomorphic"] is None


def test_t3_rows_carry_binomial_bounds(bary_tetra):
    r = check_h_vector_bound(bary_tetra)
    assert r.status == "pass"
    d = bary_tetra.dimension + 1
    for row in r.details["rows"]:
        assert row["bound"] == comb(d, row["index"])
        assert row["value"] >= row["bound"]


def test_t3_not_applicable(torus, path_complex):
    r = check_h_vector_bound(torus)
    assert r.status == "not-applicable" and r.exit_code == 4
    assert "flag" in [h.name for h in r.hypotheses if not h.ok]
    r = check_h_vector_bound(path_complex)
    assert r.status == "not-applicable"
    assert [h.name for h in r.hypotheses if not h.ok] == ["doubly-cohen-macaulay"]


def test_gk_octahedron(octa):
    r = check_face_graph_connectivity_bound(octa, 1)
    assert r.status == "pass"
    assert r.details["bound"] == 4
    assert r.details["connectivity"] == 4
    assert r.details["note"] == "instance check only"


def test_gk_matches_t1_at_zero(octa):
    r0 = check_face_graph_connectivity_bound(octa, 0)
    t1 = check_graph_connectivity_bound(octa)
    assert r0.details["connectivity"] == t1.details["connectivity"]
    assert r0.details["bound"] == t1.details["bound"]


def test_gk_cross4(cross4):
    r = check_face_graph_connectivity_bound(cross4, 1)
    assert r.status == "pass"
    assert r.details["bound"] == 8 and r.details["connectivity"] == 8
    r = check_face_graph_connectivity_bound(cross4, 2)
    assert r.status == "pass"
    assert r.details["bound"] == 6 and r.details["connectivity"] == 6


def test_gk_bad_k(octa):
    with pytest.raises(InputError):
        check_face_graph_connectivity_bound(octa, 2)
    with pytest.raises(InputError):
        check_face_graph_connectivity_bound(octa, -1)


def test_gk_not_applicable(torus):
    r = check_face_graph_connectivity_bound(torus, 1)
    assert r.status == "not-applicable"
    assert [h.name for h in r.hypotheses if not h.ok] == ["flag"]


def test_gk_names_two_components_of_a_disconnected_graph(octa, tmp_path, capsys):
    # two disjoint octahedra: a flag homology 2-manifold with two components
    twins = build_complex(list(octa.facets) + [tuple(v + 6 for v in f) for f in octa.facets])
    r = check_face_graph_connectivity_bound(twins, 1)
    assert r.status == "not-applicable" and r.exit_code == 4
    assert [(h.name, h.ok, h.witness) for h in r.hypotheses] == [
        ("flag", True, None), ("homology-manifold", True, None),
        ("connected-graph", False, (1, 7))]
    path = tmp_path / "twins.txt"
    path.write_text(facet_file_text(twins))
    assert cli.main(["verify", "gk", str(path), "--k", "1"]) == 4
    hyps = json.loads(capsys.readouterr().out)["results"]["hypotheses"]
    assert hyps[2] == {"name": "connected-graph", "ok": False, "witness": [1, 7]}


def test_gk_connected_graph_witness_is_rechecked(octa, monkeypatch):
    # neighbour masks that lose every edge to vertex 6 cut its facets in two
    cx = build_complex(octa.facets)
    masks = tuple(m & ~(1 << 5) for m in cx._neighbour_masks())
    monkeypatch.setattr(type(cx), "_neighbour_masks", lambda self: masks)
    with pytest.raises(InternalInvariantError, match="^a facet meets two components of the graph$"):
        theorems._connected_graph(cx)


def test_lb_reports(octa, icosa, torus):
    r = check_face_lower_bounds_report(octa)
    assert r.status == "pass"
    assert [(row["value"], row["bound"]) for row in r.details["rows"]] == [
        (1, 1), (6, 6), (12, 12), (8, 8)]
    r = check_face_lower_bounds_report(icosa)
    assert r.status == "pass"
    assert [(row["value"], row["bound"]) for row in r.details["rows"]] == [
        (1, 1), (12, 6), (30, 12), (20, 8)]
    r = check_face_lower_bounds_report(torus)
    assert r.status == "not-applicable" and r.exit_code == 4


def test_cross_polytope_graph_shape():
    g = cross_polytope_graph(3)
    assert len(g.nodes) == 6 and len(g.edges) == 12
    for i in range(1, 4):
        assert not g.has_edge(i, i + 3)
    assert vertex_connectivity(g).value == 4


def test_subdivision_extraction_octahedron(octa):
    emb = cross_polytope_subdivision(octa, (1, 2, 3))
    pattern = cross_polytope_graph(3)
    assert verify_subdivision(graph_of(octa), pattern, emb)
    # on the octahedron itself every path is a direct edge
    assert all(len(p) == 2 for p in emb.edge_paths.values())


def test_subdivision_extraction_icosahedron_has_long_paths(icosa):
    pattern = cross_polytope_graph(3)
    host = graph_of(icosa)
    for facet in icosa.facets:
        emb = cross_polytope_subdivision(icosa, facet)
        assert verify_subdivision(host, pattern, emb), facet
        assert any(len(p) > 2 for p in emb.edge_paths.values()), facet


def test_subdivision_extraction_cross4_all_direct(cross4):
    pattern = cross_polytope_graph(4)
    host = graph_of(cross4)
    for facet in cross4.facets:
        emb = cross_polytope_subdivision(cross4, facet)
        assert verify_subdivision(host, pattern, emb), facet
        assert all(len(p) == 2 for p in emb.edge_paths.values()), facet


def test_subdivision_claims(icosa):
    # flips land off the root facet, are distinct, and miss its neighbors
    for facet in icosa.facets:
        emb = cross_polytope_subdivision(icosa, facet)
        d = len(facet)
        values = [emb.branch_nodes[i] for i in sorted(emb.branch_nodes)]
        v_part, u_part = values[:d], values[d:]
        assert tuple(v_part) == facet
        assert len(set(u_part)) == d
        assert not set(u_part) & set(facet)
        for vi, ui in zip(v_part, u_part):
            assert not icosa.has_face((min(vi, ui), max(vi, ui)))
        interiors = []
        for path in emb.edge_paths.values():
            inner = set(path[1:-1])
            assert not inner & set(values)
            interiors.append(inner)
        for x, y in combinations(interiors, 2):
            assert not x & y


def test_subdivision_rejects_non_facet(octa):
    # a non-face, a proper face, an unknown label, a repeated label, the empty
    # face, and labels equal to a facet's but not ints
    for root in ((1, 2, 4), (1, 2), (1, 2, 99), (1, 1, 2), (), (1.0, 2, 3), (True, 2, 3)):
        for build in (cross_polytope_subdivision, check_cross_polytope_subdivision):
            with pytest.raises(InputError) as e:
                build(octa, root)
            assert str(e.value) == f"{sorted(root)} is not a facet"


def test_subdivision_names_a_root_that_does_not_sort(octa):
    # numbers in numeric order, then any other label by repr
    for build in (cross_polytope_subdivision, check_cross_polytope_subdivision):
        with pytest.raises(InputError, match=r"^\[2, 3, 'a'\] is not a facet$"):
            build(octa, ("a", 2, 3))


def test_subdivision_rejects_bad_hypotheses(torus, books):
    with pytest.raises(ClassificationError):
        cross_polytope_subdivision(torus, torus.facets[0])
    with pytest.raises(ClassificationError):
        cross_polytope_subdivision(books, (1, 2, 3))


def test_t2_report_single_facet(octa):
    r = check_cross_polytope_subdivision(octa)
    assert r.theorem == "t2"
    assert r.status == "pass" and r.exit_code == 0
    entry = r.details["results"][0]
    assert entry["facet"] == (1, 2, 3)
    assert len(entry["branch_nodes"]) == 6
    assert len(entry["paths"]) == 12


def test_t2_report_all_facets(icosa):
    r = check_cross_polytope_subdivision(icosa, all_facets=True)
    assert r.status == "pass"
    assert r.details["facets_checked"] == 20


def test_t2_not_applicable(torus):
    r = check_cross_polytope_subdivision(torus)
    assert r.status == "not-applicable" and r.exit_code == 4


def test_t2_flags_internal_errors(octa, monkeypatch):
    def boom(cx, facet, cap):
        raise InternalInvariantError("forced failure")

    monkeypatch.setattr(theorems, "cross_polytope_subdivision", boom)
    r = check_cross_polytope_subdivision(octa)
    assert r.status == "violated" and r.exit_code == 1
    assert "suspect" in r.details
    assert r.details["results"][0]["internal_error"] == "forced failure"


def test_t2_reports_a_failed_verification(octa, monkeypatch):
    monkeypatch.setattr(theorems, "verify_subdivision",
                        lambda host, pattern, emb: Verdict(False, witness={"clause": "forced"}))
    r = check_cross_polytope_subdivision(octa)
    assert r.status == "violated" and r.exit_code == 1
    assert "suspect" not in r.details
    assert r.details["results"] == [
        {"facet": (1, 2, 3), "ok": False, "failure": {"clause": "forced"}}]


@pytest.mark.parametrize("name", ["cross4", "icosa", "pinched_torus"])
def test_t2_commutes_with_relabelling(request, tmp_path, capsys, name):
    cx = request.getfixturevalue(name)
    phi = {v: 997 - 3 * v for v in cx.vertices}  # reverses the label order
    lines = [" ".join(str(phi[v]) for v in f) for f in cx.facets]
    random.Random(26).shuffle(lines)
    orig_path, rel_path = tmp_path / "orig.txt", tmp_path / "relabelled.txt"
    orig_path.write_text(facet_file_text(cx))
    rel_path.write_text("\n".join(lines) + "\n")
    rel = build_complex([phi[v] for v in f] for f in cx.facets)

    def cli_t2(path, *extra):
        code = cli.main(["verify", "t2", str(path), *extra])
        return code, json.loads(capsys.readouterr().out)["results"]

    def image(face):
        return sorted(phi[v] for v in face)

    def mapped(entry):
        # the pattern numbers the root facet's vertices in label order, so
        # relabelling renumbers them, and each path runs from the image of
        # its lower pattern node
        f, d = entry["facet"], len(entry["facet"])
        sigma = {k + 1: image(f).index(phi[v]) + 1 for k, v in enumerate(f)}
        sigma.update({d + k: d + i for k, i in list(sigma.items())})
        paths = []
        for p in entry["paths"]:
            a, b = p["edge"]
            path = [phi[x] for x in p["path"]]
            paths.append({"edge": sorted((sigma[a], sigma[b])),
                          "path": path if sigma[a] < sigma[b] else path[::-1]})
        return {"facet": image(f), "ok": entry["ok"],
                "branch_nodes": sorted([sigma[k], phi[x]] for k, x in entry["branch_nodes"]),
                "paths": sorted(paths, key=lambda p: p["edge"])}

    code, orig = cli_t2(orig_path, "--all-facets")
    assert cli_t2(rel_path, "--all-facets") == (code, {**orig, "details": {
        **orig["details"],
        "results": sorted(({**e, "facet": image(e["facet"])} for e in orig["details"]["results"]),
                          key=lambda e: e["facet"])}})
    root = cx.facets[-1]
    code, orig = cli_t2(orig_path, "--facet", " ".join(map(str, root)))
    got = cli_t2(rel_path, "--facet", " ".join(map(str, image(root))))
    assert got == (code, {**orig, "details": {**orig["details"],
                                              "results": [mapped(orig["details"]["results"][0])]}})
    for f in cx.facets:
        entries = [json.loads(json.dumps(check_cross_polytope_subdivision(c, facet=g).to_dict()))
                   ["details"]["results"][0] for c, g in ((cx, f), (rel, image(f)))]
        assert entries[1] == mapped(entries[0]), f


def test_flag_walk_frozen_example(octa):
    cert = strong_walk_avoiding_set(octa, 1, 4, {2, 3, 5})
    assert cert.walk.nodes == (1, 6, 4)
    assert verify_strong_walk(octa, cert)


def test_flag_walk_worked_example(octa):
    cert = strong_walk_avoiding_set(octa, 2, 5, {1, 3, 6})
    assert verify_strong_walk(octa, cert)
    assert not {1, 3, 6} & set(cert.walk.nodes)
    assert cert.walk.nodes[0] == 2 and cert.walk.nodes[-1] == 5


def test_flag_walk_zero_length(octa):
    cert = strong_walk_avoiding_set(octa, 3, 3, {1, 2})
    assert cert.walk.nodes == (3,)
    assert verify_strong_walk(octa, cert)


def test_flag_walk_size_limit(octa):
    with pytest.raises(ClassificationError) as e:
        strong_walk_avoiding_set(octa, 1, 4, {2, 3, 5, 6})
    assert e.value.check == "avoid-set"
    assert "fewer than 4" in str(e.value)


def test_flag_walk_preconditions(octa, torus, books):
    with pytest.raises(ClassificationError) as e:
        strong_walk_avoiding_set(torus, 1, 4, {2})
    assert e.value.check == "flag"
    with pytest.raises(ClassificationError) as e:
        strong_walk_avoiding_set(books, 3, 4, set())
    assert e.value.check == "pseudomanifold"
    with pytest.raises(InputError, match=r"^endpoint 1 lies in the avoided set$"):
        strong_walk_avoiding_set(octa, 1, 4, {1})
    with pytest.raises(InputError, match=r"^9 is not a vertex$"):
        strong_walk_avoiding_set(octa, 1, 9, set())
    with pytest.raises(InputError, match=r"^avoided labels \[9\] are not vertices$"):
        strong_walk_avoiding_set(octa, 1, 4, {2, 9})
    # labels equal to vertices but not ints
    with pytest.raises(InputError, match=r"^1\.0 is not a vertex$"):
        strong_walk_avoiding_set(octa, 1.0, 2, ())
    with pytest.raises(InputError, match=r"^avoided labels \[3\.0\] are not vertices$"):
        strong_walk_avoiding_set(octa, 1, 2, {3.0})
    # labels that do not sort against ints: numbers first, in numeric order
    with pytest.raises(InputError,
                       match=r"^avoided labels \[3\.0, 9, 10, 'a'\] are not vertices$"):
        strong_walk_avoiding_set(octa, 1, 2, {"a", 10, 3.0, 9})
    # an avoided set that is not a set of labels: unhashable items, not iterable
    with pytest.raises(InputError, match=r"^avoided set \[\{3\}\] is not a set of labels$"):
        strong_walk_avoiding_set(octa, 1, 2, [{3}])
    with pytest.raises(InputError, match=r"^avoided set 5 is not a set of labels$"):
        strong_walk_avoiding_set(octa, 1, 2, 5)
    with pytest.raises(InputError, match=r"^walks need a complex of dimension at least one$"):
        strong_walk_avoiding_set(build_complex([(1,), (2,)]), 1, 2, set())


def test_an_int_subclass_is_the_vertex_it_equals(octa):
    """An IntEnum member is an int, so every entry point that takes labels
    reads it as the vertex it equals."""

    class L(IntEnum):
        A = 1

    assert build_complex([[L.A if v == 1 else v for v in f] for f in octa.facets]) == octa
    assert octa.has_face((L.A, 2))
    assert octa.delete([L.A]) == octa.delete([1])
    for walk in (strong_walk_avoiding, strong_walk_avoiding_set):
        for a, b, avoid in ((L.A, 5, {2}), (2, 4, {L.A})):
            cert = walk(octa, a, b, avoid)
            assert verify_strong_walk(octa, cert), (walk, a, b, avoid)
    assert cross_polytope_subdivision(octa, (L.A, 2, 3)).branch_nodes[1] == 1
    assert check_cross_polytope_subdivision(octa, (L.A, 2, 3)).status == "pass"
    assert verify_strong_walk(octa, WalkCertificate(Walk((L.A, 2)), ((1, 2, 3),)))


def test_flag_walk_exhaustive_octahedron(octa):
    d = octa.dimension + 1
    count = 0
    for size in range(2 * d - 2):
        for avoid in combinations(octa.vertices, size):
            rest = [u for u in octa.vertices if u not in avoid]
            for a in rest:
                for b in rest:
                    cert = strong_walk_avoiding_set(octa, a, b, avoid)
                    assert verify_strong_walk(octa, cert), (avoid, a, b)
                    assert not set(avoid) & set(cert.walk.nodes)
                    assert cert.walk.nodes[0] == a and cert.walk.nodes[-1] == b
                    count += 1
    assert count == 606


def test_flag_walk_exhaustive_cross4(cross4):
    d = cross4.dimension + 1
    for size in range(2 * d - 2):
        for avoid in combinations(cross4.vertices, size):
            rest = [u for u in cross4.vertices if u not in avoid]
            for a, b in [(rest[0], rest[-1]), (rest[-1], rest[0])]:
                cert = strong_walk_avoiding_set(cross4, a, b, avoid)
                assert verify_strong_walk(cross4, cert), (avoid, a, b)
                assert not set(avoid) & set(cert.walk.nodes)


def test_flag_walk_random_sample_on_barycentric(bary_tetra):
    rng = random.Random(633)
    d = bary_tetra.dimension + 1
    vertices = bary_tetra.vertices
    for _ in range(250):
        size = rng.randint(0, 2 * d - 3)
        avoid = tuple(rng.sample(vertices, size))
        rest = [u for u in vertices if u not in avoid]
        a, b = rng.choice(rest), rng.choice(rest)
        cert = strong_walk_avoiding_set(bary_tetra, a, b, avoid)
        assert verify_strong_walk(bary_tetra, cert), (avoid, a, b)
        assert not set(avoid) & set(cert.walk.nodes)


def test_flag_walk_on_one_dimensional_sphere(hexagon):
    # d = 2 allows avoiding a single vertex
    for v in hexagon.vertices:
        rest = [u for u in hexagon.vertices if u != v]
        for a in rest:
            for b in rest:
                cert = strong_walk_avoiding_set(hexagon, a, b, {v})
                assert verify_strong_walk(hexagon, cert)
                assert v not in cert.walk.nodes


# -- links of flag complexes read off masks ----------------------------------

FLAG_PSEUDOMANIFOLDS = (
    "octahedron", "cross4", "cross5", "icosahedron", "bary_tetra", "bary_octa",
    "hexagon", "pinched_torus",
)


@pytest.fixture(scope="module")
def flag_pseudomanifolds(corpus, pinched_torus):
    found = {
        name: cx
        for name, cx in {**corpus, "pinched_torus": pinched_torus}.items()
        if cx.is_flag() and cx.is_pseudomanifold()
    }
    assert tuple(found) == FLAG_PSEUDOMANIFOLDS
    return found


def test_codimension_two_links_are_induced_subgraphs(flag_pseudomanifolds):
    # t2 walks lk(rho) as the graph induced on the common neighbours of rho
    for name, cx in flag_pseudomanifolds.items():
        adj = cx._neighbour_masks()
        for rho in cx.faces(cx.dimension - 2):
            common = (1 << cx.num_vertices) - 1
            for x in rho:
                common &= adj[cx._pos[x]]
            nodes = cx._labels_of(common)
            edges = {
                (x, y) for x, y in combinations(nodes, 2) if adj[cx._pos[x]] >> cx._pos[y] & 1
            }
            lk = cx.link(rho)
            assert lk.vertices == nodes, (name, rho)
            assert set(lk.faces(1)) == edges, (name, rho)


def test_link_components_match_strong_components_of_the_link(flag_pseudomanifolds):
    for name, cx in flag_pseudomanifolds.items():
        for face in cx.faces(0) + cx.faces(1):
            for comp in cx.link(face).strong_components().components:
                for anchor in comp:
                    got = theorems._link_component(cx, face, anchor)
                    assert got == set(comp), (name, face, anchor)
                    # a proper part of a link facet anchors nothing
                    if anchor:
                        assert theorems._link_component(cx, face, anchor[1:]) is None


def test_pinched_torus_has_a_disconnected_vertex_link(pinched_torus):
    assert (pinched_torus.num_vertices, len(pinched_torus.facets)) == (215, 432)
    assert pinched_torus.link((1,)).strong_components().count == 2


def _circle_walk(cx, rho_mask, start, came_from, goal):
    """theorems._circle_path on the common neighbours of rho's vertices, with
    start, came_from and goal named by labels."""
    adj = cx._neighbour_masks()
    common = (1 << cx.num_vertices) - 1
    for b in cx._bits(rho_mask):
        common &= adj[b.bit_length() - 1]
    start, came_from, goal = (cx._mask_of((x,)) for x in (start, came_from, goal))
    return theorems._circle_path(adj, cx._labels, common, start, came_from, goal)


def test_circle_walk_follows_a_link(octa):
    # lk(1) in the octahedron is the 4-cycle 2-3-5-6
    assert _circle_walk(octa, octa._mask_of((1,)), 2, 3, 5) == ((2, 6, 5), octa._mask_of((6,)))


def test_circle_walk_rejects_nodes_without_two_neighbours(path_complex):
    # a theta graph: three paths of two edges from 0 to 1, walked as lk(empty)
    theta = build_complex([(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    with pytest.raises(InternalInvariantError, match="not a disjoint union of circles"):
        _circle_walk(theta, 0, 2, 1, 3)
    # the path 1-2-3-4 ends in a node with one neighbour
    with pytest.raises(InternalInvariantError, match="not a disjoint union of circles"):
        _circle_walk(path_complex, 0, 2, 1, 1)


def test_circle_walk_rejects_a_start_outside_the_link(icosa):
    # lk(1) in the icosahedron is the 5-cycle on 2..6; vertex 7 lies outside
    # it, though two of its neighbours, 2 and 6, lie on it
    with pytest.raises(InternalInvariantError, match="not a disjoint union of circles"):
        _circle_walk(icosa, icosa._mask_of((1,)), 7, 2, 4)
