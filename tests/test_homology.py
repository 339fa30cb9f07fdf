import random
from itertools import combinations

import pytest

import oracles as O
from simplicial import (
    GF2,
    GF3,
    RATIONALS,
    FieldSpec,
    HVector,
    InputError,
    SimplicialComplex,
    Verdict,
    barycentric_subdivision,
    boundary_matrix,
    build_complex,
    cross_polytope_boundary,
    cycle,
    facet_file_text,
    is_cohen_macaulay,
    is_homology_manifold,
    is_homology_sphere,
    is_m_cohen_macaulay,
    join,
    reduced_betti_numbers,
)
from simplicial import cli, homology, linalg
from simplicial.errors import InternalInvariantError, ResourceLimitError

GF5, GF7 = FieldSpec.gf(5), FieldSpec.gf(7)
FIELDS = (GF2, GF3, GF5, GF7, RATIONALS)


def test_field_spec_parsing():
    assert FieldSpec.parse("gf2").characteristic == 2
    assert FieldSpec.parse("gf7").characteristic == 7
    assert FieldSpec.parse("rational").characteristic == 0
    assert FieldSpec.parse("gf2").name == "gf2"
    assert RATIONALS.name == "rational"
    with pytest.raises(InputError):
        FieldSpec.parse("gf4")
    with pytest.raises(InputError):
        FieldSpec.parse("real")
    with pytest.raises(InputError, match=r"^GF\(1\) is not a field$"):
        FieldSpec.gf(1)


def test_boundary_matrix_shapes_and_ranks():
    hollow = build_complex([(1, 2), (1, 3), (2, 3)])
    m1 = boundary_matrix(hollow, 1, RATIONALS)
    assert len(m1) == 3 and len(m1[0]) == 3
    assert linalg.rank(m1, 0) == 2


def test_octahedron_top_boundary_rank(octa):
    m2 = boundary_matrix(octa, 2, RATIONALS)
    assert len(m2) == 12 and len(m2[0]) == 8
    assert linalg.rank(m2, 0) == 7


def test_boundary_of_boundary_vanishes(corpus):
    for name, cx in corpus.items():
        if cx.dimension < 1:
            continue
        for k in range(1, cx.dimension + 1):
            a = boundary_matrix(cx, k - 1, RATIONALS)
            b = boundary_matrix(cx, k, RATIONALS)
            for i in range(len(a)):
                for j in range(len(b[0])):
                    s = sum(a[i][t] * b[t][j] for t in range(len(b)))
                    assert s == 0, (name, k, i, j)


def test_rank_functions_match_fraction_oracle():
    rng = random.Random(20181)
    for trial in range(60):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        expected_q = O.rank_fraction(mat)
        assert linalg.rank(mat, 0) == expected_q, (trial, mat)
        for p in (2, 3, 5):
            reduced = [[x % p for x in row] for row in mat]
            assert linalg.rank(reduced, p) == O.rank_mod(mat, p), (trial, p, mat)


def test_betti_numbers_match_oracle(corpus):
    for name, cx in corpus.items():
        for field in FIELDS:
            got = tuple(reduced_betti_numbers(cx, field).values)
            want = O.betti_numbers(cx.facets, field.characteristic)
            assert got == want, (name, field.name)


def test_frozen_betti_values(octa, torus, icosa, rp2):
    assert tuple(reduced_betti_numbers(octa, GF2).values) == (0, 0, 0, 1)
    bt = reduced_betti_numbers(torus, GF2)
    assert (bt.of_dim(0), bt.of_dim(1), bt.of_dim(2)) == (0, 2, 1)
    assert tuple(reduced_betti_numbers(icosa, RATIONALS).values) == (0, 0, 0, 1)
    assert tuple(reduced_betti_numbers(rp2, GF2).values) == (0, 0, 1, 1)
    assert tuple(reduced_betti_numbers(rp2, GF3).values) == (0, 0, 0, 0)
    assert tuple(reduced_betti_numbers(rp2, RATIONALS).values) == (0, 0, 0, 0)


def test_boundary_columns_arrive_with_low_entry_one(monkeypatch, corpus):
    """Every column the chain complex hands linalg over GF(p) has residues in
    1..p-1 and low entry 1, since dropping the lowest vertex gives the face
    last in label order; the corpus ranks scale no incoming column."""
    real = linalg._pivot_rows_sparse
    columns = []

    def recording(cols, p):
        cols = list(cols)
        columns.extend((p, dict(c)) for c in cols)
        return real(cols, p)

    monkeypatch.setattr(linalg, "_pivot_rows_sparse", recording)
    for cx in corpus.values():
        for p in (3, 5, 7):
            homology._chain_ranks(homology._link_levels(cx, 0, cx.dimension + 1), p)
    assert columns
    for p, col in columns:
        assert col[max(col)] == 1 and all(0 < x < p for x in col.values()), (p, col)


def test_gf5_pivot_whose_reduced_low_entry_is_not_one_is_scaled(monkeypatch, rp2):
    """A column changed by elimination can end on a low entry other than 1:
    over GF(5), {0: 1, 1: 3} minus 3 times {0: 1, 1: 1} is {0: 3}, which is
    scaled by the inverse of 3 before it becomes a pivot.  Elimination on the
    boundary columns of RP^2 needs the same scaling, and its Betti numbers
    still match the oracle."""
    inverted = []

    def counting_pow(base, exp, mod):
        inverted.append((base, mod))
        return pow(base, exp, mod)

    monkeypatch.setattr(linalg, "pow", counting_pow, raising=False)
    assert linalg.pivot_rows([{0: 1, 1: 1}, {0: 1, 1: 3}], 5) == {1: {0: 1, 1: 1}, 0: {0: 1}}
    assert inverted == [(3, 5)]
    inverted.clear()
    cx = build_complex(rp2.facets)  # a fresh memo
    assert reduced_betti_numbers(cx, GF5).values == O.betti_numbers(cx.facets, 5) == (0,) * 4
    assert inverted and all(base not in (0, 1) and mod == 5 for base, mod in inverted)


OVERREPORTED = pytest.mark.parametrize(("extra", "message"), [
    (1, "negative Betti number"),  # rank 8 fits the 12x8 top map; beta_1 = -1
    (5, "exceeds its shape"),
])


def _overreport_first_rank(monkeypatch, extra):
    """Make the first reduction report `extra` pivots too many; return a
    fresh octahedron, whose top boundary map is the first one reduced.

    The fake pivots sit past the largest real one, so above every boundary
    row: a reduction that keeps each top column's own row below the
    boundary rows reads pivots there as top cycles, not as rank."""
    real = linalg.pivot_rows
    calls = []

    def overreport_top_rank(columns, characteristic):
        rows = real(columns, characteristic)
        calls.append(characteristic)
        if len(calls) == 1:
            past = max(rows) + 1
            rows.update(dict.fromkeys(range(past, past + extra), 0))
        return rows

    monkeypatch.setattr(linalg, "pivot_rows", overreport_top_rank)
    return build_complex([(a, b, c) for a in (1, 4) for b in (2, 5) for c in (3, 6)])


@OVERREPORTED
def test_betti_self_check_catches_overreported_rank(monkeypatch, extra, message):
    octahedron = _overreport_first_rank(monkeypatch, extra)
    with pytest.raises(InternalInvariantError, match=message):
        reduced_betti_numbers(octahedron, GF2)


def _no_shelling(patch):
    """Make the shelling search find nothing, so the sweep decides."""
    patch.setattr(SimplicialComplex, "_shelling_order", lambda cx: None)


@OVERREPORTED
def test_link_sweep_runs_the_betti_self_check(monkeypatch, extra, message):
    octahedron = _overreport_first_rank(monkeypatch, extra)
    _no_shelling(monkeypatch)  # the octahedron shells, and a shelling ranks nothing
    with pytest.raises(InternalInvariantError, match=message):
        is_cohen_macaulay(octahedron, GF2)


def test_betti_of_empty_and_points():
    empty = build_complex([()])
    assert tuple(reduced_betti_numbers(empty, GF2).values) == (1,)
    two_pts = build_complex([(1,), (2,)])
    assert tuple(reduced_betti_numbers(two_pts, GF2).values) == (0, 1)


def test_betti_euler_consistency(corpus):
    for name, cx in corpus.items():
        chi = cx.reduced_euler_characteristic()
        for field in FIELDS:
            bt = reduced_betti_numbers(cx, field)
            alt = sum((-1) ** k * bt.of_dim(k) for k in range(-1, cx.dimension + 1))
            assert alt == chi, (name, field.name)


def test_suspension_of_hollow_triangle_is_two_sphere():
    hollow = build_complex([(1, 2), (1, 3), (2, 3)])
    pts = build_complex([(4,), (5,)])
    sphere = join(hollow, pts)
    bt = reduced_betti_numbers(sphere, GF2)
    assert (bt.of_dim(0), bt.of_dim(1), bt.of_dim(2)) == (0, 0, 1)
    assert is_homology_sphere(sphere, GF2)


def test_homology_sphere_verdicts(corpus):
    for name in ("octahedron", "cross4", "cross5", "icosahedron",
                 "simplex_bd3", "bary_tetra", "bary_octa", "hexagon"):
        assert is_homology_sphere(corpus[name], GF2), name
    for name in ("torus7", "books", "path", "two_triangles"):
        assert not is_homology_sphere(corpus[name], GF2), name


def test_empty_complex_is_a_sphere():
    empty = build_complex([()])
    assert is_homology_sphere(empty, GF2)
    assert is_homology_sphere(build_complex([(1,), (2,)]), GF2)
    assert not is_homology_sphere(build_complex([(1,)]), GF2)


def test_homology_manifold_verdicts(corpus):
    assert is_homology_manifold(corpus["torus7"], GF2)
    assert is_homology_manifold(corpus["torus7"], RATIONALS)
    assert not is_homology_sphere(corpus["torus7"], RATIONALS)
    two_circles = build_complex([(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    assert is_homology_manifold(two_circles, GF2)  # disjoint circles
    # not pure, so Klee's relation, which it breaks, is not checked
    assert is_homology_manifold(build_complex([(1, 2), (1, 3), (2, 3), (4,)]), GF2)
    assert not is_homology_sphere(two_circles, GF2)
    assert not is_homology_manifold(corpus["two_triangles"], GF2)  # solid, has boundary
    v = is_homology_manifold(corpus["books"], GF2)
    assert not v
    v = is_homology_manifold(corpus["path"], GF2)
    assert not v


NON_PURE = {
    "triangle_bd_and_point": build_complex([(1, 2), (1, 3), (2, 3), (4,)]),
    "triangle_edge_tetrahedron": build_complex([(1, 2, 3), (3, 4), (4, 5, 6, 7)]),
}


def test_closed_forms_match_the_reduction(corpus):
    """Facet links ({} alone) and ridge links (points), whose facets have at
    most one vertex beyond sigma, take values read off the face index; they
    must be what the reduction of their face levels gives."""
    for name, cx in {**corpus, **NON_PURE}.items():
        for sigma in map(cx._mask_of, cx.all_faces()):
            beyond = max(map(int.bit_count, cx._star(sigma))) - sigma.bit_count()
            if beyond > 1:
                continue
            levels = homology._link_levels(cx, sigma, beyond)
            for p in (2, 3, 0):
                want = homology._betti_values(levels, p)
                assert homology._link_values(cx, p, sigma) == want, (name, sigma, p)


def test_link_levels_are_the_levels_of_the_link(corpus):
    """The face levels of lk(sigma), walked from sigma, are those of the link
    complex in the same label order, for every face of the corpus and of
    non-pure complexes, whose links can mix facet sizes."""
    for name, cx in {**corpus, **NON_PURE}.items():
        for sigma in map(cx._mask_of, cx.all_faces()):
            top = max(map(int.bit_count, cx._star(sigma))) - sigma.bit_count()
            levels = homology._link_levels(cx, sigma, top)
            link = cx.link(cx._labels_of(sigma))
            assert len(levels) == link.dimension + 2, (name, sigma)
            for k, level in enumerate(levels, -1):
                labelled = [cx._labels_of(t) for t in level]
                assert labelled == list(link.faces(k)), (name, sigma, k)


class _RecordingTuple(tuple):
    """Facet bitsets of the vertices that count their reads."""

    reads = 0

    def __getitem__(self, i):
        type(self).reads += 1
        return super().__getitem__(i)


def test_link_walks_cut_to_stars_list_the_oracle_links(monkeypatch):
    """The cone over the edges of K_30 plus one triangle: the apex's link
    has 4060 triangles of its graph as cliques and one as a face.  The walk
    from every face lists the oracle's link faces in label order, and tests
    at most two candidates per face of the link: each face's first miss
    cuts its candidates down to its star."""
    cx = build_complex([(0, *e) for e in combinations(range(1, 31), 2)] + [(0, 1, 2, 3)])
    links: dict = {}
    for face in O.close_downward(cx.facets):
        for r in range(len(face) + 1):
            for sigma in combinations(sorted(face), r):
                links.setdefault(sigma, []).append(tuple(sorted(face - set(sigma))))
    inc, nbrs = cx._incidence()
    cx._memo["incidence"] = (_RecordingTuple(inc), nbrs)
    for sigma, faces in links.items():
        monkeypatch.setattr(_RecordingTuple, "reads", 0)
        walk = cx._clique_walk(cx.dimension + 1 - len(sigma), cx._mask_of(sigma), star=True)
        got = [cx._labels_of(t) for level in walk for t in level]
        assert got == sorted(faces, key=lambda t: (len(t), t)), sigma
        assert _RecordingTuple.reads <= len(sigma) + 2 * len(faces), sigma
    assert len(links[(0,)]) == 1 + 30 + 435 + 1


def test_rational_deciders_reduce_over_q_only_past_gf2_low_homology(monkeypatch, corpus):
    """Over Q a link is reduced with rationals only when its GF(2) Betti
    numbers show homology below the top degree, and 2-CM runs the Q rule
    only when GF(2) finds a defect: none on the spheres, some on RP^2, its
    cone and its suspension.  The suspension is CM over Q but not over
    GF(2), so its 2-CM verdict comes from the Q rule."""
    q_reductions = []
    real = linalg._pivot_rows_sparse

    def counting(columns, p):
        q_reductions.append(p == 0)
        return real(columns, p)

    monkeypatch.setattr(linalg, "_pivot_rows_sparse", counting)
    rp2 = corpus["rp2"]
    susp_rp2 = join(rp2, build_complex([(7,), (8,)]))
    assert not is_cohen_macaulay(susp_rp2, GF2) and is_cohen_macaulay(susp_rp2, RATIONALS)
    cases = (
        ("cross4", corpus["cross4"], False),
        ("icosahedron", corpus["icosahedron"], False),
        ("bary_octa", corpus["bary_octa"], False),
        ("rp2", rp2, True),
        ("cone_rp2", join(rp2, build_complex([(7,)])), True),
        ("susp_rp2", susp_rp2, True),
    )
    for name, cx, over_q in cases:
        cx, facets = build_complex(cx.facets), cx.facets  # a fresh memo
        q_reductions.clear()
        verdicts = [
            (is_cohen_macaulay(cx, RATIONALS), O.is_cohen_macaulay(facets, 0)),
            (is_homology_sphere(cx, RATIONALS), O.is_homology_sphere(facets, 0)),
            (is_homology_manifold(cx, RATIONALS), O.is_homology_manifold(facets, 0)),
        ]
        assert tuple(reduced_betti_numbers(cx, RATIONALS)) == O.betti_numbers(facets, 0), name
        # the deletions of the 2-sphere bary_octa are planar, so torsion-free:
        # its GF(2) oracle is exact over Q too, and ten times faster than the Q one
        p = 2 if name == "bary_octa" else 0
        two_cm = is_m_cohen_macaulay(cx, 2, RATIONALS)
        assert any(q_reductions) == over_q, name
        verdicts += [(two_cm, O.is_m_cohen_macaulay(facets, 2, p)),
                     (is_m_cohen_macaulay(cx, 3, RATIONALS), O.is_m_cohen_macaulay(facets, 3, p))]
        for verdict, witness in verdicts:
            assert (verdict.ok, verdict.witness) == (witness is None, witness), name


@pytest.mark.parametrize(("decide", "h"), [
    (is_homology_sphere, (1, 3, 4, 1)),  # not palindromic
    (is_homology_manifold, (1, 3, 4, 1)),  # breaks Klee's relation
    (is_cohen_macaulay, (1, 3, 4, -1)),  # negative
    (lambda cx: is_m_cohen_macaulay(cx, 2, GF2), (1, 3, 4, -1)),
])
def test_pass_relations_catch_a_skewed_h_vector(monkeypatch, octa, decide, h):
    monkeypatch.setattr(SimplicialComplex, "h_vector", lambda self: HVector(h))
    with pytest.raises(InternalInvariantError, match="contradicts a pass"):
        decide(build_complex(octa.facets))


def test_cohen_macaulay_verdicts(corpus):
    for name in ("octahedron", "icosahedron", "books", "hexagon",
                 "simplex_bd3", "bary_tetra"):
        assert is_cohen_macaulay(corpus[name], GF2), name
    v = is_cohen_macaulay(corpus["torus7"], GF2)
    assert not v  # middle homology of the whole complex is nonzero
    assert not is_cohen_macaulay(corpus["two_triangles"], GF2)  # disconnected


def test_doubly_cohen_macaulay(corpus):
    assert is_m_cohen_macaulay(corpus["octahedron"], 2, GF2)
    assert is_m_cohen_macaulay(corpus["hexagon"], 2, GF2)
    v = is_m_cohen_macaulay(corpus["books"], 2, GF2)
    assert not v
    assert v.witness["deleted"] == (1,)
    assert v.witness["defect"] == "dimension-drop"
    assert not is_m_cohen_macaulay(corpus["torus7"], 2, GF2)


def test_m_cm_reduces_to_cm_at_one(corpus):
    for name in ("octahedron", "books", "torus7"):
        cx = corpus[name]
        assert bool(is_m_cohen_macaulay(cx, 1, GF2)) == bool(
            is_cohen_macaulay(cx, GF2)), name


def test_three_cm_fails_for_octahedron(octa):
    v = is_m_cohen_macaulay(octa, 3, GF2)
    assert not v
    assert v.witness["defect"] == "dimension-drop"
    assert len(v.witness["deleted"]) == 2


# Exact verdicts, witness and reason included: they are part of the report
# contract.  The strip of four triangles is Cohen-Macaulay, but deleting
# vertex 2 cuts the link of vertex 3 in two.
FROZEN_VERDICTS = [
    ("torus7", lambda cx: is_cohen_macaulay(cx, GF2),
     Verdict(False, {"face": (), "degree": 1, "betti": 2},
             "a link has homology below its top degree")),
    ("torus7", lambda cx: is_m_cohen_macaulay(cx, 2, GF2),
     Verdict(False, {"deleted": (), "defect": {"face": (), "degree": 1, "betti": 2}},
             "a deletion is not Cohen-Macaulay")),
    ("rp2", lambda cx: is_cohen_macaulay(cx, GF2),
     Verdict(False, {"face": (), "degree": 1, "betti": 1},
             "a link has homology below its top degree")),
    ("rp2", lambda cx: is_cohen_macaulay(cx, GF3), Verdict(True)),
    ("rp2", lambda cx: is_m_cohen_macaulay(cx, 2, GF3),
     Verdict(False, {"deleted": (1,), "defect": {"face": (), "degree": 1, "betti": 1}},
             "a deletion is not Cohen-Macaulay")),
    ("books", lambda cx: is_homology_manifold(cx, GF2),
     Verdict(False, {"face": (1,), "degree": 1, "betti": 0},
             "a vertex or higher face has a non-sphere link")),
    ("two_triangles", lambda cx: is_cohen_macaulay(cx, GF2),
     Verdict(False, {"face": (), "degree": 0, "betti": 1},
             "a link has homology below its top degree")),
    ("susp_books", lambda cx: is_cohen_macaulay(cx, GF2), Verdict(True)),
    ("susp_books", lambda cx: is_m_cohen_macaulay(cx, 2, GF2),
     Verdict(False, {"deleted": (1,), "defect": "dimension-drop"},
             "deletion lowers the dimension")),
    ("strip", lambda cx: is_cohen_macaulay(cx, GF2), Verdict(True)),
    ("strip", lambda cx: is_m_cohen_macaulay(cx, 2, GF2),
     Verdict(False, {"deleted": (2,), "defect": {"face": (3,), "degree": 0, "betti": 1}},
             "a deletion is not Cohen-Macaulay")),
]


def test_frozen_decider_verdicts(corpus):
    complexes = {
        **corpus,
        "susp_books": join(corpus["books"], build_complex([(98,), (99,)])),
        "strip": build_complex([(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6)]),
    }
    for name, decide, want in FROZEN_VERDICTS:
        assert decide(complexes[name]) == want, name


# (deleted, defect) of every corpus complex at m = 3 and at m = 4, over GF(2),
# GF(3) and Q alike except where RP^2 over GF(2) fails on W = {} already.
M_CM_CORPUS = {
    "octahedron": ((1, 4), "dimension-drop"),
    "cross4": ((1, 5), "dimension-drop"),
    "cross5": ((1, 6), "dimension-drop"),
    "icosahedron": ((1, 7), {"face": (), "degree": 1, "betti": 1}),
    "torus7": ((), {"face": (), "degree": 1, "betti": 2}),
    "simplex_bd3": ((1, 2), "dimension-drop"),
    "bary_tetra": ((1, 2), {"face": (), "degree": 1, "betti": 1}),
    "bary_octa": ((1, 2), {"face": (), "degree": 1, "betti": 1}),
    "hexagon": ((1, 3), {"face": (), "degree": 0, "betti": 1}),
    "books": ((1,), "dimension-drop"),
    "path": ((2,), {"face": (), "degree": 0, "betti": 1}),
    "two_triangles": ((), {"face": (), "degree": 0, "betti": 1}),
    "rp2": ((1,), {"face": (), "degree": 1, "betti": 1}),
}


def _deletion_verdict(deleted, defect) -> Verdict:
    if defect == "dimension-drop":
        return Verdict(False, {"deleted": deleted, "defect": defect},
                       "deletion lowers the dimension")
    return Verdict(False, {"deleted": deleted, "defect": defect},
                   "a deletion is not Cohen-Macaulay")


def test_frozen_m_cm_verdicts_past_two(corpus):
    """Deletions of two or more vertices, at m = 3 and 4 over every field,
    give these exact verdicts.  Deleting (1, 2) from the 3-sphere
    bary(cross4) removes two disjoint open stars, leaving the homology of a
    2-sphere; cross6
    loses its dimension only at the antipodal pair (1, 7); every triangle
    on 10 or 12 vertices spans a 2-skeleton of a simplex, which is
    (n - 2)-CM."""
    for name, (deleted, defect) in M_CM_CORPUS.items():
        for m in (3, 4):
            for field in FIELDS:
                want = _deletion_verdict(deleted, defect)
                if name == "rp2" and field == GF2:
                    want = _deletion_verdict((), {"face": (), "degree": 1, "betti": 1})
                cx = build_complex(corpus[name].facets)  # a fresh memo
                assert is_m_cohen_macaulay(cx, m, field) == want, (name, m, field.name)
    bary4 = barycentric_subdivision(cross_polytope_boundary(4))
    assert is_m_cohen_macaulay(bary4, 3, GF2) == _deletion_verdict(
        (1, 2), {"face": (), "degree": 2, "betti": 1})
    assert is_m_cohen_macaulay(cross_polytope_boundary(6), 3, GF2) == _deletion_verdict(
        (1, 7), "dimension-drop")
    for n, m, fields in ((10, 3, (GF2, RATIONALS)), (12, 4, (GF2,))):
        skeleton = build_complex(combinations(range(1, n + 1), 3))
        for field in fields:
            assert is_m_cohen_macaulay(skeleton, m, field) == Verdict(True), (n, m, field.name)


def test_m_cm_sweep_builds_no_complex(monkeypatch):
    """A shelled pseudomanifold passes |W| <= 1 with no deletion built: bary3
    at m = 2 builds no complex, and bary4 at m = 3 builds one, bary4 - (1, 2),
    the first set of two, which fails."""
    cx = barycentric_subdivision(cross_polytope_boundary(3))
    bary4 = barycentric_subdivision(cross_polytope_boundary(4))
    minus_12 = build_complex(set(f) - {1, 2} for f in bary4.facets).facets
    built = []
    real_init = SimplicialComplex.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SimplicialComplex, "__init__", counting_init)
    assert is_m_cohen_macaulay(cx, 2, GF2)
    assert built == []
    assert is_m_cohen_macaulay(bary4, 3, GF2) == _deletion_verdict(
        (1, 2), {"face": (), "degree": 2, "betti": 1})
    assert [part.facets for part in built] == [minus_12]


def test_m_cm_cap():
    big = build_complex([tuple(range(1, 9))])
    with pytest.raises(ResourceLimitError):
        is_m_cohen_macaulay(big, 3, GF2, cap=1)


def test_two_cm_cap_counts_deleted_sets(corpus):
    # path fails at its third set, W = (2,), after () and (1,)
    path = corpus["path"]
    v = is_m_cohen_macaulay(path, 2, GF2, cap=3)
    assert v.witness == {"deleted": (2,), "defect": {"face": (), "degree": 0, "betti": 1}}
    with pytest.raises(ResourceLimitError):
        is_m_cohen_macaulay(path, 2, GF2, cap=2)
    # the octahedron passes after W = () and its six vertices
    assert is_m_cohen_macaulay(corpus["octahedron"], 2, GF2, cap=7)
    with pytest.raises(ResourceLimitError):
        is_m_cohen_macaulay(corpus["octahedron"], 2, GF2, cap=6)


def test_deleted_sets_are_built_by_delete(monkeypatch, octa):
    """Each W past the sizes a shelling certifies is decided on cx.delete(W),
    once: a shelled ball, no pseudomanifold, has W = () certified, and every
    vertex up to the first failing one is deleted.  The octahedron minus a
    facet first fails at its interior vertex 4, leaving an annulus."""
    calls = []
    real = SimplicialComplex.delete

    def counted(self, points):
        calls.append(tuple(points))
        return real(self, points)

    monkeypatch.setattr(SimplicialComplex, "delete", counted)
    strip = build_complex([(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6)])
    ball = build_complex(octa.facets[1:])
    for cx, last in ((strip, 2), (ball, 4)):
        calls.clear()
        v = is_m_cohen_macaulay(cx, 2, GF2)
        assert v.witness["deleted"] == (last,)
        assert calls == [(w,) for w in range(1, last + 1)]


def test_two_cm_witness_is_rechecked_densely(monkeypatch, tmp_path, capsys):
    """A Betti value skewed by one in the sweep of a vertex deletion, its
    connected graph given homology in degree 0, gives a witness the re-check
    refutes, for the hexagon (a circle) and the theta graph.  Every deletion
    of either shells, so the search is off."""
    real = homology._betti_values
    for cx in (cycle(6), build_complex([(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])):

        def skewed(levels, p, n=cx.num_vertices):
            values = real(levels, p)
            if len(levels[1]) == n - 1:  # the whole of cx - w
                values = (values[0], values[1] + 1, *values[2:])
            return values

        with monkeypatch.context() as patch:
            patch.setattr(homology, "_betti_values", skewed)
            _no_shelling(patch)
            deletion = r"deleting \[1\]: the link of \[\] has Betti number 0 in degree 0, not 1"
            with pytest.raises(InternalInvariantError, match=deletion):
                is_m_cohen_macaulay(build_complex(cx.facets), 2, GF2)
            file = tmp_path / f"{cx.num_vertices}.txt"
            file.write_text(facet_file_text(cx))
            assert cli.main(["analyze", str(file), "--homology", "gf2"]) == 1
            assert capsys.readouterr().out == ""


def test_reisner_witness_is_rechecked_densely(monkeypatch, tmp_path, capsys, torus):
    """A Betti value skewed by one in the sweep's first defect gives a
    witness the re-check refutes, from the library and the CLI."""
    real = homology._low_defect

    def skewed(values):
        defect = real(values)
        return defect and (defect[0], defect[1] + 1)

    monkeypatch.setattr(homology, "_low_defect", skewed)
    with pytest.raises(InternalInvariantError, match=r"deleting \[\]: the link of \[\]"):
        is_cohen_macaulay(build_complex(torus.facets), GF2)
    file = tmp_path / "torus7.txt"
    file.write_text(facet_file_text(torus))
    assert cli.main(["analyze", str(file), "--homology", "gf2"]) == 1
    assert capsys.readouterr().out == ""


def test_sphere_witness_is_rechecked(monkeypatch, tmp_path, capsys, torus):
    """A sphere or manifold witness is recounted like a Reisner witness, in
    its top degree too: every top Betti value skewed by two gives the torus
    minus a facet, where vertex 1 has a path for its link, a manifold
    witness the re-check refutes, from the library and the CLI.  A Reisner
    and a sphere witness on one face in one degree are recounted once."""
    recounts = []
    real_recount, real_values = homology._recount, homology._betti_values

    def counted(cx, face, degree, p):
        recounts.append((face, degree, p))
        return real_recount(cx, face, degree, p)

    def skewed(*args):
        values = real_values(*args)
        return values[:-1] + (values[-1] + 2,)

    monkeypatch.setattr(homology, "_recount", counted)
    bary_torus = barycentric_subdivision(torus)
    assert not is_cohen_macaulay(bary_torus, GF2) and not is_homology_sphere(bary_torus, GF2)
    assert is_homology_manifold(bary_torus, GF2) and recounts == [((), 1, 2)]
    monkeypatch.setattr(homology, "_betti_values", skewed)
    punctured = build_complex(torus.facets[1:])
    top = r"deleting \[\]: the link of \[1\] has Betti number 0 in degree 1, not 2"
    with pytest.raises(InternalInvariantError, match=top):
        is_homology_manifold(punctured, GF2)
    file = tmp_path / "punctured_torus7.txt"
    file.write_text(facet_file_text(punctured))
    assert cli.main(["analyze", str(file), "--homology", "gf2"]) == 1
    assert capsys.readouterr().out == ""


def test_shelling_search_shells_spheres_and_not_tori(corpus, torus):
    """The greedy search shells cross3 to cross7, the icosahedron, bary3,
    bary4 and relabelled, shuffled copies of bary4, and finds nothing on
    the torus, its subdivision and RP^2, which shell in no order."""
    bary4 = barycentric_subdivision(cross_polytope_boundary(4))
    shellable = [cross_polytope_boundary(d) for d in range(3, 8)]
    shellable += [corpus["icosahedron"], corpus["bary_octa"], bary4]
    rng = random.Random(1974)
    for _ in range(10):
        labels = dict(zip(bary4.vertices, rng.sample(range(1, 1000), bary4.num_vertices)))
        facets = [[labels[v] for v in f] for f in bary4.facets]
        rng.shuffle(facets)
        shellable.append(build_complex(facets))
    for cx in shellable:
        cx = build_complex(cx.facets)  # a fresh memo
        assert homology._shelling_h(cx) == tuple(cx.h_vector()), cx
    for cx in (torus, barycentric_subdivision(torus), corpus["rp2"]):
        assert homology._shelling_h(build_complex(cx.facets)) == (), cx


def test_shelling_checker_refutes_broken_orders(bary_octa):
    """The checker reads the order as label tuples: it refutes an order
    with two ridge-adjacent facets swapped (the facet then at position 1
    shares no ridge with the one before it), an order missing a facet and
    the facets of a complex that is not pure."""
    order = bary_octa._shelling_order()
    assert homology._checked_shelling(bary_octa, order) == (1, 23, 23, 1)
    swapped = [order[2], order[1], order[0], *order[3:]]
    assert (order[0] & order[2]).bit_count() == 2
    with pytest.raises(InternalInvariantError, match="at 1 breaks the shelling at"):
        homology._checked_shelling(bary_octa, swapped)
    with pytest.raises(InternalInvariantError, match="not the pure facet list"):
        homology._checked_shelling(bary_octa, order[:-1])
    mixed = build_complex([(1, 2, 3), (3, 4)])
    assert mixed._shelling_order() is None
    with pytest.raises(InternalInvariantError, match="not the pure facet list"):
        homology._checked_shelling(mixed, list(mixed._facet_masks))


def test_betti_numbers_are_checked_against_a_memoized_shelling(monkeypatch, octa):
    """reduced_betti_numbers never searches for a shelling, but once one is
    memoized its values must be (0, ..., 0, h_d)."""
    cx = build_complex(octa.facets)
    assert tuple(reduced_betti_numbers(cx, GF3)) == (0, 0, 0, 1)
    assert "shelling" not in cx._memo
    assert is_cohen_macaulay(cx, GF2) and cx._memo["shelling"] == (1, 3, 3, 1)
    real = homology._betti_values
    monkeypatch.setattr(homology, "_betti_values", lambda *args: (1, *real(*args)[1:]))
    with pytest.raises(InternalInvariantError, match="contradict a shelling"):
        reduced_betti_numbers(cx, GF2)


def test_deletions_past_one_vertex_are_rechecked(monkeypatch, corpus):
    """A witness of a deleted set W is recounted on the cx - W it was found
    in, and a wrong Betti number raises InternalInvariantError naming W:
    the icosahedron minus (1, 7) is an annulus, with one 1-cycle."""
    real = homology._low_defect

    def overreported(values):
        defect = real(values)
        return defect and (defect[0], defect[1] + 1)

    monkeypatch.setattr(homology, "_low_defect", overreported)
    icosa = build_complex(corpus["icosahedron"].facets)
    annulus = r"deleting \[1, 7\]: the link of \[\] has Betti number 1 in degree 1, not 2"
    with pytest.raises(InternalInvariantError, match=annulus):
        is_m_cohen_macaulay(icosa, 3, GF2)


def test_dimension_drop_is_rechecked_on_the_facet_list(monkeypatch, tmp_path, capsys, octa):
    """A deletion mask that wrongly meets every top facet gives a
    dimension-drop witness the facet list refutes: vertex 1 alone, read as
    the antipodal pair (1, 4), misses the facets through 4."""
    real = SimplicialComplex._mask_of

    def widened(self, face):
        return real(self, (*face, 4) if tuple(face) == (1,) else face)

    monkeypatch.setattr(SimplicialComplex, "_mask_of", widened)
    with pytest.raises(InternalInvariantError, match=r"deleting \[1\] keeps a top facet"):
        is_m_cohen_macaulay(build_complex(octa.facets), 2, GF2)
    file = tmp_path / "octahedron.txt"
    file.write_text(facet_file_text(octa))
    assert cli.main(["analyze", str(file), "--homology", "gf2"]) == 1
    assert capsys.readouterr().out == ""


def test_void_complex_is_rejected():
    void = build_complex([])
    with pytest.raises(InputError):
        reduced_betti_numbers(void, GF2)
    with pytest.raises(InputError):
        is_homology_sphere(void, GF2)
    with pytest.raises(InputError):
        boundary_matrix(void, 0, GF2)
    for decide in (is_cohen_macaulay, lambda cx: is_m_cohen_macaulay(cx, 2)):
        with pytest.raises(InputError, match=r"^the void complex cannot be classified$"):
            decide(void)


def test_m_cm_needs_a_positive_m(octa):
    with pytest.raises(InputError, match=r"^m must be a positive integer, got 0$"):
        is_m_cohen_macaulay(octa, 0)


def test_boundary_matrix_bad_degree(octa):
    with pytest.raises(InputError):
        boundary_matrix(octa, 3, GF2)
    with pytest.raises(InputError):
        boundary_matrix(octa, -1, GF2)
