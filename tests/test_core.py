import os
import random
import subprocess
import sys
import tracemalloc
from enum import IntEnum
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
import simplicial
from simplicial import (
    FVector,
    HVector,
    InputError,
    ResourceLimitError,
    SimplicialComplex,
    barycentric_subdivision,
    build_complex,
    check_face_lower_bounds_report,
    cross_polytope_boundary,
    facet_file_text,
    join,
    simplex_boundary,
)
from simplicial import cli
from simplicial.core import _validate_face
from simplicial.errors import InternalInvariantError
from test_homology import NON_PURE


def test_void_and_empty_are_distinct():
    void = build_complex([])
    empty = build_complex([()])
    assert void.is_void and not void.is_empty_complex
    assert empty.is_empty_complex and not empty.is_void
    assert void.dimension == -1
    assert empty.dimension == -1
    assert tuple(empty.f_vector()) == (1,)
    assert tuple(empty.h_vector()) == (1,)
    with pytest.raises(InputError):
        void.f_vector()
    # the empty face, whether the face levels come from the flag test or not
    for flag_first in (False, True):
        void, empty = build_complex([]), build_complex([()])
        if flag_first:
            assert void.is_flag() and empty.is_flag()
        assert not void.has_face(()) and empty.has_face(())
        assert not empty.has_face((1,))


def test_construction_normalizes():
    cx = build_complex([(3, 1, 2), (1, 2), (2, 3), (4,)])
    assert cx.facets == ((1, 2, 3), (4,))
    assert cx.vertices == (1, 2, 3, 4)
    assert not cx.is_pure
    assert cx.dimension == 2
    assert cx == build_complex([(1, 2, 3), (4,)])


def test_rejects_bad_faces():
    with pytest.raises(InputError):
        build_complex([(1, 1, 2)])
    with pytest.raises(InputError):
        build_complex([(-1, 2)])
    with pytest.raises(InputError):
        build_complex([("a", 2)])
    # True and 1.0 equal a label of an earlier face, which a set of the labels would keep
    for faces, label in [([(1, 2), (True, 3)], "True"), ([(1, 2), (3, 1.0)], "1.0")]:
        with pytest.raises(InputError, match=f"^vertex label {label} is not an integer$"):
            build_complex(faces)


class _Vertex(IntEnum):
    ONE = 1
    FOUR = 4


# labels the constructor takes (ints, IntEnum members), and those it refuses
# too: bools, floats equal to a label, strings, negatives, and unorderable
# or unhashable ones
GOOD_LABELS = st.one_of(st.integers(0, 6), st.sampled_from(_Vertex))
BAD_LABELS = st.sampled_from((True, False, 1.0, 2.5, "a", -1, -2, None, (1,), [2]))


@st.composite
def face_lists(draw):
    """A function that makes the same face list on each call: faces as tuples,
    lists, one-shot generators or, rarely, a label where a face should be;
    the list itself may be a one-shot generator."""
    face = st.lists(GOOD_LABELS, max_size=4, unique=draw(st.booleans()))
    faces = draw(st.lists(face, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):  # refused labels, anywhere
        face = faces[draw(st.integers(0, len(faces) - 1))]
        face.insert(draw(st.integers(0, len(face))), draw(BAD_LABELS))
    shapes = draw(st.lists(st.sampled_from(("tuple", "list", "gen")), min_size=len(faces),
                           max_size=len(faces)))
    if draw(st.integers(0, 3)) == 3:
        shapes[draw(st.integers(0, len(faces) - 1))] = "scalar"
    one_shot = draw(st.booleans())

    def make():
        shaped = {"tuple": tuple, "list": list, "gen": lambda f: (v for v in f), "scalar": len}
        out = (shaped[shape](f) for f, shape in zip(faces, shapes))
        return out if one_shot else list(out)

    return make


def _built_face_by_face(faces):
    """_labels, _facet_masks and memo of a complex whose faces pass _validate_face one by one."""
    valid = set(map(_validate_face, faces))
    maximal = sorted(f for f in valid if not any(set(f) < set(g) for g in valid))
    labels = tuple(sorted({v for f in valid for v in f}))
    masks = tuple(sum(1 << labels.index(v) for v in f) for f in maximal)
    sizes = {len(f) for f in maximal}
    return labels, masks, {"facets": tuple(maximal), "dimension": max(sizes, default=0) - 1,
                           "pure": len(sizes) <= 1}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(make=face_lists())
def test_constructor_checks_all_faces_at_once(make):
    """The bulk checks of SimplicialComplex(faces) raise the first error of
    [_validate_face(f) for f in faces], and on good faces build what the
    validated faces give."""
    try:
        want = _built_face_by_face(make())
    except (InputError, TypeError) as e:
        want = (type(e), str(e))
    try:
        cx = SimplicialComplex(make())
        got = (cx._labels, cx._facet_masks, cx._memo)
    except (InputError, TypeError) as e:
        got = (type(e), str(e))
    assert got == want


def test_face_queries(octa):
    assert octa.has_face(())
    assert octa.has_face((2, 1))
    assert not octa.has_face((1, 4))
    assert octa.has_face((4, 5, 6))
    assert not octa.has_face((7,))


def test_faces_against_enumeration_oracle(corpus):
    for name, cx in corpus.items():
        expected = {tuple(sorted(f)) for f in O.close_downward(cx.facets)}
        assert set(cx.all_faces()) == expected, name


def test_octahedron_shape(octa):
    assert octa.num_vertices == 6
    assert octa.dimension == 2
    assert len(octa.facets) == 8
    assert len(octa.faces(1)) == 12


def test_f_vectors_match_oracle(corpus):
    for name, cx in corpus.items():
        fv = O.f_vector_from_faces(O.close_downward(cx.facets))
        assert tuple(cx.f_vector()) == fv, name


def test_frozen_f_vectors(octa, icosa, torus, cross4, bary_tetra):
    assert tuple(octa.f_vector()) == (1, 6, 12, 8)
    assert tuple(icosa.f_vector()) == (1, 12, 30, 20)
    assert tuple(torus.f_vector()) == (1, 7, 21, 14)
    assert tuple(cross4.f_vector()) == (1, 8, 24, 32, 16)
    assert tuple(bary_tetra.f_vector()) == (1, 14, 36, 24)
    counts = (1, 6, 12, 8)
    assert octa.f_vector() == FVector(counts) != HVector(counts)
    assert repr(octa.f_vector()) == "FVector(counts=(1, 6, 12, 8))"
    assert repr(HVector(counts)) == "HVector(counts=(1, 6, 12, 8))"


def test_h_vectors_match_oracle(corpus):
    for name, cx in corpus.items():
        assert tuple(cx.h_vector()) == O.h_from_f(tuple(cx.f_vector())), name
        assert O.f_from_h(tuple(cx.h_vector())) == tuple(cx.f_vector()), name


def test_frozen_h_vectors(octa, icosa, tetra_bd, hexagon):
    assert tuple(octa.h_vector()) == (1, 3, 3, 1)
    assert tuple(icosa.h_vector()) == (1, 9, 9, 1)
    assert tuple(tetra_bd.h_vector()) == (1, 1, 1, 1)
    assert tuple(hexagon.h_vector()) == (1, 4, 1)


def test_reduced_euler(corpus):
    for name, cx in corpus.items():
        assert cx.reduced_euler_characteristic() == O.reduced_euler(cx.f_vector()), name
    assert corpus["octahedron"].reduced_euler_characteristic() == 1
    assert corpus["torus7"].reduced_euler_characteristic() == -1


def test_link_of_edge(octa):
    lk = octa.link((1, 2))
    assert lk.facets == ((3,), (6,))


def test_link_of_vertex_is_cycle(octa):
    lk = octa.link((1,))
    assert lk.dimension == 1
    assert tuple(lk.f_vector()) == (1, 4, 4)


def test_link_of_empty_face_is_identity(octa):
    assert octa.link(()) == octa


def test_link_of_non_face_raises_and_memo_hits_return_the_link():
    cx = build_complex([(1, 2, 3), (2, 3, 4)])
    lk = cx.link((2, 3))
    assert cx.link((3, 2)) is lk
    for bad in ((1, 4), (1, 99), (1, 2, 3, 4)):
        with pytest.raises(InputError, match="is not a face"):
            cx.link(bad)
    with pytest.raises(InputError, match="is not a face"):
        build_complex([]).link(())


def test_delete_vertex(octa):
    dl = octa.delete((1,))
    assert dl.facets == ((2, 3, 4), (2, 4, 6), (3, 4, 5), (4, 5, 6))
    assert dl.is_pure
    assert dl.dimension == 2
    with pytest.raises(InputError, match=r"^vertex label -1 is not a nonnegative integer$"):
        octa.delete([-1])


def test_delete_names_the_first_bad_label_in_the_callers_order():
    """The same label under every string hash seed, which a set's iteration
    order would not give."""
    code = (
        "from simplicial import cross_polytope_boundary\n"
        "try:\n"
        "    cross_polytope_boundary(3).delete(['b', 'a', 'c'])\n"
        "except Exception as e:\n"
        "    print(type(e).__name__, e)\n"
    )
    src = str(Path(simplicial.__file__).resolve().parents[1])
    for seed in "1234":
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout == "InputError vertex label 'b' is not a nonnegative integer\n", seed


def test_minimal_nonfaces_match_oracle(corpus):
    for name, cx in corpus.items():
        if cx.num_vertices > 16:
            continue
        assert list(cx.minimal_nonfaces()) == O.minimal_nonfaces(cx.facets), name


def test_octahedron_nonfaces_are_antipodal_pairs(octa):
    assert octa.minimal_nonfaces() == ((1, 4), (2, 5), (3, 6))


def test_flagness(corpus):
    assert corpus["octahedron"].is_flag()
    assert corpus["icosahedron"].is_flag()
    assert corpus["bary_tetra"].is_flag()
    assert corpus["bary_octa"].is_flag()
    assert corpus["hexagon"].is_flag()
    v = corpus["torus7"].is_flag()
    assert not v
    assert len(v.witness) == 3
    hollow = build_complex([(1, 2), (1, 3), (2, 3)])
    v = hollow.is_flag()
    assert not v and v.witness == (1, 2, 3)


def test_nonface_cap_counts_every_label_past_a_face(corpus):
    # the cap counts candidates as if every face were extended by every
    # higher label, so where a cap trips does not depend on the pruning
    for name, cx in corpus.items():
        for method, flag_only in (("is_flag", True), ("minimal_nonfaces", False)):
            count = O.nonface_candidate_count(cx.facets, flag_only)
            getattr(build_complex(cx.facets), method)(cap=count)
            with pytest.raises(ResourceLimitError):
                getattr(build_complex(cx.facets), method)(cap=count - 1)


def test_nonface_cap_counts_cliques_that_are_not_faces(torus):
    # every 4-set of a simplex's 2-skeleton is a clique and a minimal
    # nonface, torus7's graph is complete, and bary(torus7) is flag
    inputs = (
        list(combinations(range(1, 7), 3)),
        list(combinations(range(1, 9), 3)),
        torus.facets,
        barycentric_subdivision(torus).facets,
    )
    for facets in inputs:
        for method, flag_only in (("is_flag", True), ("minimal_nonfaces", False)):
            count = O.nonface_candidate_count(facets, flag_only)
            getattr(build_complex(facets), method)(cap=count)
            with pytest.raises(ResourceLimitError):
                getattr(build_complex(facets), method)(cap=count - 1)


def test_cap_is_charged_before_a_level_is_built(tmp_path, capsys):
    """The 2-skeleton of the 40-simplex has 9880 triangles and 91 390
    four-vertex minimal nonfaces.  A cap of 1000 trips when the edges are
    charged, before the triangles are extended; a walk that built the
    four-vertex level first would peak near 8 MiB."""
    path = tmp_path / "skeleton40.txt"
    path.write_text(facet_file_text(build_complex(combinations(range(1, 41), 3))))
    tracemalloc.start()
    try:
        code = cli.main(["analyze", str(path), "--cap", "1000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and "cap" in capsys.readouterr().err
    assert peak < 4 << 20


def test_cap_is_charged_before_the_face_index_is_built(tmp_path, capsys):
    """The boundary of the 21-simplex has 2^22 - 1 faces.  A cap of 1000
    trips when its 231 edges are charged, before any face index exists; a
    face index built first took seconds and more than 1 GiB."""
    path = tmp_path / "simplex21.txt"
    path.write_text(facet_file_text(simplex_boundary(21)))
    tracemalloc.start()
    try:
        code = cli.main(["analyze", str(path), "--cap", "1000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and "cap" in capsys.readouterr().err
    assert peak < 1 << 20


def test_structural_witnesses_are_rechecked(monkeypatch, tmp_path, capsys, torus, octa):
    """A flag witness missing a vertex and a ridge whose facet count is
    skewed are refuted by recounts on the facet list, from the library and
    the CLI."""
    real_walk, real_index = SimplicialComplex._clique_walk, SimplicialComplex._face_index

    def dropped(self, *args, **kwargs):
        for item in real_walk(self, *args, **kwargs):
            yield item if isinstance(item, dict) else item & (item - 1)

    def skewed(self):  # one entry of the ridge level gains a third facet
        levels = real_index(self)
        ridges = levels[self.dimension]
        ridge = next(iter(ridges))
        third = next(1 << j for j in range(len(self._facet_masks)) if not ridges[ridge] >> j & 1)
        if ridges[ridge].bit_count() == 2:
            ridges[ridge] |= third
        return levels

    for name, patch, cx, check, match in (
            ("_clique_walk", dropped, torus, "is_flag", "no minimal nonface"),
            ("_face_index", skewed, octa, "is_pseudomanifold", "lies in 2 facets")):
        with monkeypatch.context() as m:
            m.setattr(SimplicialComplex, name, patch)
            with pytest.raises(InternalInvariantError, match=match):
                getattr(build_complex(cx.facets), check)()
            file = tmp_path / f"{name}.txt"
            file.write_text(facet_file_text(cx))
            assert cli.main(["analyze", str(file)]) == 1
            assert capsys.readouterr().out == ""


def test_strong_components_match_oracle(corpus):
    """The oracle's components in the one order the report uses: each
    component's facets by label tuple, the components by (facet size, first
    facet); on the corpus, non-pure complexes, random subcomplexes of one
    dimension and random complexes of mixed facet sizes."""
    rng = random.Random(2207)
    mixed = {}
    for i in range(60):
        n = rng.randint(3, 9)
        mixed[f"mixed{i}"] = build_complex(
            rng.sample(range(1, n + 1), rng.randint(1, min(n, 4))) for _ in range(rng.randint(1, 12))
        )
    subs = {f"sub{i}": cx for i, cx in enumerate(_random_pure_subcomplexes(corpus, 60, seed=2208))}
    cases = {**corpus, **NON_PURE, **subs, **mixed}
    assert sum(cx.strong_components().count > 1 for cx in cases.values()) >= 40
    for name, cx in cases.items():
        want = sorted(O.strong_components(cx.facets), key=lambda c: (len(c[0]), c[0]))
        assert cx.strong_components().components == tuple(map(tuple, want)), name


def test_strong_search_is_a_breadth_first_ridge_search(corpus):
    """From one facet, avoiding one vertex: the search visits the oracle's
    strong component among the facets that miss that vertex, each entered
    from an earlier facet across a shared ridge, in breadth-first order."""
    for name, cx in corpus.items():
        for v in cx.vertices[-2:]:
            kept = [f for f in cx.facets if v not in f]
            if not kept:
                continue
            source = cx._mask_of(kept[0])
            got = list(cx._strong_search(source, avoid=cx._mask_of((v,))))
            order = {f: i for i, (f, _) in enumerate(got)}
            assert got[0] == (source, None), name
            depth = {source: 0}
            for f, p in got[1:]:
                assert order[p] < order[f], name
                assert f.bit_count() == p.bit_count() == (f & p).bit_count() + 1, name
                depth[f] = depth[p] + 1
            assert [depth[f] for f, _ in got] == sorted(depth.values()), name
            want = next(c for c in O.strong_components(kept) if kept[0] in c)
            assert sorted(cx._labels_of(f) for f, _ in got) == want, name


def test_strong_component_counts(octa, books, two_triangles):
    assert octa.strong_components().count == 1
    assert books.strong_components().count == 1
    assert two_triangles.strong_components().count == 2
    mixed = build_complex([(1, 2, 3), (3, 4)])
    assert mixed.strong_components().count == 2
    assert not mixed.strong_components().pure


def test_strong_components_list_facets_in_facet_order(octa, torus):
    # the octahedron on even labels and torus7 on odd ones: the facets of the
    # two components interleave in facet order
    twins = build_complex([tuple(2 * v for v in f) for f in octa.facets]
                          + [tuple(2 * v - 1 for v in f) for f in torus.facets])
    bary4 = barycentric_subdivision(cross_polytope_boundary(4))
    for name, cx in [("bary4", bary4), ("torus7", torus), ("twins", twins)]:
        want = sorted(O.strong_components(cx.facets), key=lambda c: (len(c[0]), c[0]))
        assert cx.strong_components().components == tuple(map(tuple, want)), name
    assert twins.strong_components().count == 2
    bary5 = barycentric_subdivision(cross_polytope_boundary(5))
    assert bary5.strong_components().components == (tuple(sorted(bary5.facets)),)


def test_pseudomanifold_matches_oracle(corpus):
    for name, cx in corpus.items():
        assert bool(cx.is_pseudomanifold()) == O.is_pseudomanifold(cx.facets), name


def test_pseudomanifold_witnesses(books, two_triangles, path_complex):
    v = books.is_pseudomanifold()
    assert not v and v.witness == {"ridge": (1, 2), "facet_count": 3}
    v = two_triangles.is_pseudomanifold()
    assert not v  # two strong components
    v = path_complex.is_pseudomanifold()
    assert not v  # end ridges sit in a single facet


def test_zero_sphere_is_pseudomanifold():
    assert build_complex([(1,), (2,)]).is_pseudomanifold()
    assert not build_complex([(1,)]).is_pseudomanifold()


def test_join_basics():
    seg = build_complex([(1,), (2,)])
    square = join(seg, build_complex([(3,), (4,)]))
    assert tuple(square.f_vector()) == (1, 4, 4)
    with pytest.raises(InputError):
        join(seg, build_complex([(2, 3)]))


def test_join_with_void_and_empty(octa):
    void = build_complex([])
    empty = build_complex([()])
    assert join(octa, void).is_void
    assert join(octa, empty) == octa


def test_join_h_polynomial_is_product(octa, hexagon):
    pts = build_complex([(7,), (8,)])
    for a, b in [(octa, pts), (hexagon, pts)]:
        b2 = build_complex([tuple(v + 100 for v in f) for f in b.facets])
        j = join(a, b2)
        prod = O.poly_mul(list(a.h_vector()), list(b2.h_vector()))
        assert list(j.h_vector()) == prod


def _as_poly(h):
    coeffs = list(h)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs or [0]


def _random_pure_subcomplexes(corpus, count, seed):
    rng = random.Random(seed)
    hosts = [cx for cx in corpus.values() if not cx.is_void and cx.dimension >= 1]
    out = []
    while len(out) < count:
        host = rng.choice(hosts)
        k = rng.randint(1, host.dimension)
        pool = list(host.faces(k))
        size = rng.randint(1, len(pool))
        out.append(build_complex(rng.sample(pool, size)))
    return out


def test_h_recursion_on_random_pure_subcomplexes(corpus):
    # deletion/link recursion for the h-polynomial, checked at every vertex
    for cx in _random_pure_subcomplexes(corpus, 40, seed=1071):
        assert cx.is_pure
        for v in cx.vertices:
            dl = cx.delete((v,))
            lk = cx.link((v,))
            left = _as_poly(cx.h_vector())
            if dl.dimension == cx.dimension:
                del_part = list(dl.h_vector())
                lk_part = [0] + list(lk.h_vector())  # multiply by x
                combined = [0] * max(len(del_part), len(lk_part))
                for i, x in enumerate(del_part):
                    combined[i] += x
                for i, x in enumerate(lk_part):
                    combined[i] += x
                assert left == _as_poly(combined), (cx.facets, v)
            else:
                assert left == _as_poly(dl.h_vector()), (cx.facets, v)


def _bound_rows(report):
    return [(row["value"], row["bound"]) for row in report.details["rows"]]


def test_lower_bounds_equalities(octa, cross4):
    rep = check_face_lower_bounds_report(octa)
    assert rep.status == "pass" and rep.conclusion_ok
    assert _bound_rows(rep) == [(1, 1), (6, 6), (12, 12), (8, 8)]
    rep4 = check_face_lower_bounds_report(cross4)
    assert rep4.status == "pass"
    assert all(row["ok"] and row["value"] == row["bound"] for row in rep4.details["rows"])


def test_lower_bounds_inequalities(icosa):
    rep = check_face_lower_bounds_report(icosa)
    assert rep.status == "pass" and rep.conclusion_ok
    assert _bound_rows(rep) == [(1, 1), (12, 6), (30, 12), (20, 8)]
    assert [row["index"] for row in rep.details["rows"]] == [0, 1, 2, 3]


def test_lower_bounds_reject_bad_hypotheses(torus, books):
    rep = check_face_lower_bounds_report(torus)
    assert rep.status == "not-applicable" and rep.details == {}
    assert [(h.name, h.ok, h.witness) for h in rep.hypotheses] == [
        ("flag", False, (1, 2, 3)), ("pseudomanifold", True, None)]
    rep = check_face_lower_bounds_report(books)
    assert rep.status == "not-applicable" and rep.details == {}
    assert [(h.name, h.ok, h.witness) for h in rep.hypotheses] == [
        ("flag", True, None),
        ("pseudomanifold", False, {"ridge": (1, 2), "facet_count": 3})]


def test_equality_and_hashing():
    a = build_complex([(1, 2), (2, 3)])
    b = build_complex([(2, 3), (1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != build_complex([(1, 2)])
    assert build_complex([]) != build_complex([()])


def test_large_labels_work():
    big = 10 ** 9
    cx = build_complex([(big, big + 1, big + 2)])
    assert cx.num_vertices == 3
    assert cx.has_face((big, big + 2))
    assert tuple(cx.f_vector()) == (1, 3, 3, 1)
