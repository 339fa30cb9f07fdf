"""Instance checks for the structural bounds, with certificates.

Each check returns a TheoremReport: hypothesis verdicts, a conclusion
verdict (None when a hypothesis already failed), and enough detail to
recheck the claim by hand.  A report never hides a failed conclusion; a
violated report on a hypothesis-satisfying input means either a genuine
counterexample or an implementation defect, and the details say which
one to suspect.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import DEFAULT_CANDIDATE_CAP, Face, SimplicialComplex, Verdict, build_complex
from .errors import ClassificationError, InputError, InternalInvariantError
from .formats import label_key
from .generators import cross_polytope_boundary, is_isomorphic
from .graphs import (
    Graph,
    SubdivisionEmbedding,
    Walk,
    WalkCertificate,
    _component,
    _require,
    _walk_request,
    face_adjacency_graph,
    graph_of,
    strong_walk_avoiding,
    verify_subdivision,
    vertex_connectivity,
)
from .homology import GF2, FieldSpec, is_homology_manifold, is_m_cohen_macaulay


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    ok: bool
    witness: object = None


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    hypotheses: tuple[HypothesisCheck, ...]
    conclusion_ok: bool | None
    details: dict
    field: str | None = None

    @property
    def applicable(self) -> bool:
        return all(h.ok for h in self.hypotheses)

    @property
    def status(self) -> str:
        if not self.applicable:
            return "not-applicable"
        return "pass" if self.conclusion_ok else "violated"

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "violated": 1, "not-applicable": 4}[self.status]

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "field": self.field,
            "hypotheses": [
                {"name": h.name, "ok": h.ok, "witness": h.witness}
                for h in self.hypotheses
            ],
            "conclusion_ok": self.conclusion_ok,
            "status": self.status,
            "details": self.details,
        }


def _hypothesis(name: str, verdict: Verdict) -> HypothesisCheck:
    return HypothesisCheck(name, bool(verdict), verdict.witness)


def _flag_pseudomanifold(cx: SimplicialComplex, cap: int) -> tuple[HypothesisCheck, ...]:
    """The hypotheses of t1, t2 and lb; both are evaluated."""
    flag = _hypothesis("flag", cx.is_flag(cap))
    return flag, _hypothesis("pseudomanifold", cx.is_pseudomanifold())


def _bound_rows(values, bounds) -> list[dict]:
    """The rows of t3 and lb: each value against its lower bound."""
    return [
        {"index": i, "value": v, "bound": b, "ok": v >= b}
        for i, (v, b) in enumerate(zip(values, bounds, strict=True))
    ]


def check_graph_connectivity_bound(
    cx: SimplicialComplex, cap: int = DEFAULT_CANDIDATE_CAP
) -> TheoremReport:
    """Flag pseudomanifolds with facets of size d have (2d-2)-connected graphs."""
    hyps = _flag_pseudomanifold(cx, cap)
    if not all(h.ok for h in hyps):
        return TheoremReport("t1", hyps, None, {})
    d = cx.dimension + 1
    ok, details = _connectivity_details(graph_of(cx), d, 2 * d - 2)
    return TheoremReport("t1", hyps, ok, details)


def _connectivity_details(graph: Graph, d: int, bound: int) -> tuple[bool, dict]:
    """Whether graph is bound-connected, and the details t1 and gk report."""
    res = vertex_connectivity(graph)
    details = {
        "facet_size": d,
        "bound": bound,
        "connectivity": res.value,
        "complete_graph": res.complete,
    }
    if res.cut is not None:
        details["minimum_cut"] = res.cut.cut
        details["separated_pair"] = res.cut.separated_pair
    return res.value >= bound, details


def check_h_vector_bound(
    cx: SimplicialComplex,
    field: FieldSpec = GF2,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> TheoremReport:
    """Flag doubly Cohen-Macaulay complexes satisfy h_i >= C(d, i).

    When every inequality is tight the complex is compared against the
    cross-polytope boundary of matching dimension; the outcome of that
    comparison is informational and never affects the verdict.
    """
    hyps = [HypothesisCheck("nonvoid", not cx.is_void)]
    if hyps[0].ok:
        hyps.append(_hypothesis("flag", cx.is_flag(cap)))
        hyps.append(_hypothesis("doubly-cohen-macaulay", is_m_cohen_macaulay(cx, 2, field, cap)))
    hyps = tuple(hyps)
    if not all(h.ok for h in hyps):
        return TheoremReport("t3", hyps, None, {}, field=field.name)
    h = cx.h_vector()
    d = cx.dimension + 1
    rows = _bound_rows(h, [comb(d, i) for i in range(d + 1)])
    equalities = [r["index"] for r in rows if r["value"] == r["bound"]]
    details = {
        "facet_size": d,
        "h_vector": tuple(h),
        "rows": rows,
        "equality_positions": tuple(equalities),
    }
    all_equal = len(equalities) == d + 1
    if all_equal and d >= 1:
        mapping = is_isomorphic(cx, cross_polytope_boundary(d))
        details["cross_polytope_isomorphic"] = mapping is not None
        if mapping is not None:
            details["cross_polytope_mapping"] = sorted(mapping.items())
    else:
        details["cross_polytope_isomorphic"] = None
    return TheoremReport(
        "t3", hyps, all(r["ok"] for r in rows), details, field=field.name
    )


def check_face_graph_connectivity_bound(
    cx: SimplicialComplex,
    k: int,
    field: FieldSpec = GF2,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> TheoremReport:
    """Adjacency graphs of k-faces of flag homology manifolds stay highly connected.

    The bound checked is 2(k+1)(d-k-1) for the graph whose nodes are the
    k-faces, adjacent when their union is a face.  Checked on the given
    instance only.
    """
    if not 0 <= k <= cx.dimension - 1:
        raise InputError(f"k={k} outside 0..{cx.dimension - 1}")
    hyps = (
        _hypothesis("flag", cx.is_flag(cap)),
        _hypothesis("homology-manifold", is_homology_manifold(cx, field)),
        _connected_graph(cx),
    )
    if not all(h.ok for h in hyps):
        return TheoremReport("gk", hyps, None, {"k": k}, field=field.name)
    d = cx.dimension + 1
    bound = 2 * (k + 1) * (d - k - 1)
    ok, details = _connectivity_details(face_adjacency_graph(cx, k), d, bound)
    details.update(k=k, note="instance check only")
    return TheoremReport("gk", hyps, ok, details, field=field.name)


def _connected_graph(cx: SimplicialComplex) -> HypothesisCheck:
    """gk's connected-graph hypothesis.  A failure names the least vertex and the
    least vertex outside its component, once no facet is found to meet both."""
    comp = _component(cx._neighbour_masks(), 0)  # bit 0 is the least vertex
    rest = cx._labels_of((1 << cx.num_vertices) - 1 & ~comp)
    if not rest:
        return HypothesisCheck("connected-graph", True)
    inside = set(cx._labels_of(comp))
    if any(0 < len(inside.intersection(f)) < len(f) for f in cx.facets):
        raise InternalInvariantError("a facet meets two components of the graph")
    return HypothesisCheck("connected-graph", False, (cx.vertices[0], rest[0]))


def check_face_lower_bounds_report(
    cx: SimplicialComplex, cap: int = DEFAULT_CANDIDATE_CAP
) -> TheoremReport:
    """Face counts of flag pseudomanifolds dominate the cross-polytope's."""
    hyps = _flag_pseudomanifold(cx, cap)
    if not all(h.ok for h in hyps):
        return TheoremReport("lb", hyps, None, {})
    d = cx.dimension + 1
    rows = _bound_rows(cx.f_vector(), [(1 << i) * comb(d, i) for i in range(d + 1)])
    return TheoremReport(
        "lb", hyps, all(r["ok"] for r in rows), {"facet_size": d, "rows": rows}
    )


# -- cross-polytope subdivisions ---------------------------------------------


def cross_polytope_graph(d: int) -> Graph:
    """Complete multipartite graph on d antipodal pairs: 1..2d, i not joined to d+i."""
    if d < 1:
        raise InputError(f"d must be at least 1, got {d}")
    nodes = range(1, 2 * d + 1)
    edges = [
        (i, j)
        for i in nodes
        for j in nodes
        if i < j and j - i != d
    ]
    return Graph(nodes, edges)


def _circle_path(adj, labels, nmask: int, start: int, came_from: int, goal: int):
    """Walk the graph adj induces on the vertex mask nmask, a disjoint union of
    circles, from the vertex bit start away from came_from until goal: the
    labels visited and the mask of those strictly inside.  In a flag complex
    lk(rho) is the clique complex of the graph on rho's common neighbours."""
    prev, cur = came_from, start
    path, inner = [labels[cur.bit_length() - 1]], 0
    limit = nmask.bit_count() + 1
    while cur != goal:
        nbrs = adj[cur.bit_length() - 1] & nmask if cur & nmask else 0
        if nbrs.bit_count() != 2:
            raise InternalInvariantError("link is not a disjoint union of circles")
        if not nbrs & prev:
            raise InternalInvariantError("circle walk lost its previous node")
        prev, cur = cur, nbrs ^ prev
        inner |= cur
        path.append(labels[cur.bit_length() - 1])
        if len(path) > limit:
            raise InternalInvariantError("circle walk failed to terminate")
    return tuple(path), inner & ~goal


def cross_polytope_subdivision(
    cx: SimplicialComplex, facet, cap: int = DEFAULT_CANDIDATE_CAP
) -> SubdivisionEmbedding:
    """Subdivided cross-polytope graph rooted at one facet of a flag pseudomanifold.

    Branch nodes: facet vertices v_1..v_d and, opposite each v_i, the
    vertex u_i completing the other facet over the ridge without v_i.
    Pattern edges between branch vertices that are adjacent in the
    complex embed directly; the edge between u_i and u_j follows the
    circle of the link of the facet minus v_i and v_j.  All but the
    embedding itself is worked out on vertex bits of cx.
    """
    _require("flag", cx.is_flag(cap))
    _require("pseudomanifold", cx.is_pseudomanifold())
    adj, labels = cx._neighbour_masks(), cx._labels
    facet = tuple(sorted(facet, key=label_key))
    fm = cx._mask_of(facet)
    # a facet is the only facet over itself, and _star(None) is None; a
    # repeated label leaves the mask smaller than the tuple
    if cx._star(fm) != [fm] or fm.bit_count() != len(facet):
        raise InputError(f"{list(facet)} is not a facet")
    d = len(facet)
    vbits = cx._bits(fm)  # in facet order, since positions follow labels
    ubits = []
    for vb in vbits:  # u completes the other facet over the ridge fm ^ vb
        others = [g for g in cx._star(fm ^ vb) if g != fm]
        if len(others) > 1:
            raise InternalInvariantError("ridge lies in three facets")
        if not others:
            raise InternalInvariantError("ridge lies in one facet only")
        ub = others[0] & ~(fm ^ vb)
        if ub.bit_count() != 1:
            raise InternalInvariantError("flip facet has unexpected size")
        ubits.append(ub)
    if len(set(ubits)) != d:
        raise InternalInvariantError("opposite vertices collide")
    nv = [adj[vb.bit_length() - 1] for vb in vbits]
    for m, ub in zip(nv, ubits):
        if ub & fm:
            raise InternalInvariantError("opposite vertex fell inside the facet")
        if m & ub:
            raise InternalInvariantError("antipodal pair spans an edge")

    branch = dict(enumerate(facet + tuple(labels[ub.bit_length() - 1] for ub in ubits), 1))
    paths = {  # every pattern edge at some v_i is a complex edge
        frozenset((a, b)): (branch[a], branch[b])
        for a in range(1, d + 1) for b in range(a + 1, 2 * d + 1) if b != a + d
    }
    branch_mask, seen = fm | sum(ubits), 0
    for i, j in combinations(range(d), 2):
        common = (1 << len(labels)) - 1  # of the facet's vertices but v_i and v_j
        for m in nv[:i] + nv[i + 1 : j] + nv[j + 1 :]:
            common &= m
        p, inner = _circle_path(adj, labels, common, ubits[i], vbits[j], ubits[j])
        if inner & (branch_mask | seen):  # name the first clash in path order
            for x in p[1:-1]:
                if branch_mask >> cx._pos[x] & 1:
                    raise InternalInvariantError("path interior hit a branch vertex")
                if seen >> cx._pos[x] & 1:
                    raise InternalInvariantError("two path interiors intersect")
        seen |= inner
        paths[frozenset((d + i + 1, d + j + 1))] = p
    return SubdivisionEmbedding(branch_nodes=branch, edge_paths=paths)


def check_cross_polytope_subdivision(
    cx: SimplicialComplex,
    facet=None,
    all_facets: bool = False,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> TheoremReport:
    """Extract and independently verify cross-polytope subdivisions.

    With all_facets the construction runs rooted at every facet; the
    conclusion holds only if every embedding verifies.  An internal
    invariant failure is reported as a violation marked as a suspected
    implementation defect, since it arises from the construction and not
    from the verifier.
    """
    hyps = _flag_pseudomanifold(cx, cap)
    if not all(h.ok for h in hyps):
        return TheoremReport("t2", hyps, None, {})
    d = cx.dimension + 1
    host = graph_of(cx)
    pattern = cross_polytope_graph(d)
    if all_facets:
        targets = cx.facets
    elif facet is None:
        targets = (cx.facets[0],)
    else:
        targets = (tuple(sorted(facet, key=label_key)),)
    results = []
    for f in targets:
        entry: dict = {"facet": f}
        try:
            emb = cross_polytope_subdivision(cx, f, cap)
            verdict = verify_subdivision(host, pattern, emb)
            entry["ok"] = bool(verdict)
            if not verdict:
                entry["failure"] = verdict.witness
            elif not all_facets:
                entry["branch_nodes"] = sorted(emb.branch_nodes.items())
                rows = ({"edge": tuple(sorted(k)), "path": p} for k, p in emb.edge_paths.items())
                entry["paths"] = sorted(rows, key=lambda row: row["edge"])
        except InternalInvariantError as e:
            entry["ok"] = False
            entry["internal_error"] = str(e)
        results.append(entry)
    details = {
        "facet_size": d,
        "pattern_nodes": 2 * d,
        "facets_checked": len(results),
        "results": results,
    }
    if any("internal_error" in entry for entry in results):
        details["suspect"] = (
            "construction invariant failed; suspect an implementation defect "
            "rather than a counterexample"
        )
    return TheoremReport("t2", hyps, all(entry["ok"] for entry in results), details)


# -- walks that dodge arbitrary small vertex sets -----------------------------


def _link_component(cx: SimplicialComplex, face: Face, anchor: Face):
    """The facets of the strong component of lk(face) holding anchor, or None.

    The facet search from face + anchor keeps face, so it crosses only the
    ridges of the star of face."""
    fm, start = cx._mask_of(face), cx._mask_of(face + anchor)
    if cx._star(start) != [start]:
        return None
    return {cx._labels_of(g & ~fm) for g, _ in cx._strong_search(start, keep=fm)}


def _same_star_component(cx: SimplicialComplex, v: int, f1: Face, f2: Face) -> bool:
    """Whether two facets through v lie in one strong component of its star."""
    comp = _link_component(cx, (v,), tuple(x for x in f1 if x != v))
    return comp is not None and tuple(x for x in f2 if x != v) in comp


def strong_walk_avoiding_set(
    cx: SimplicialComplex, a: int, b: int, avoid, cap: int = DEFAULT_CANDIDATE_CAP
) -> WalkCertificate:
    """Witnessed walk joining a and b that avoids any set of fewer than 2d-2 vertices.

    Requires a flag pseudomanifold with facets of size d.  Unlike the
    face-avoiding walk, the avoided set here is arbitrary; the facet size
    alone bounds how much can be dodged.
    """
    _require("flag", cx.is_flag(cap))
    _require("pseudomanifold", cx.is_pseudomanifold())
    avoid = _walk_request(cx, a, b, avoid)
    d = cx.dimension + 1
    if len(avoid) > 2 * d - 3:
        raise ClassificationError(
            "avoid-set",
            witness=tuple(sorted(avoid)),
            message=f"avoided set must have fewer than {2 * d - 2} vertices",
        )
    nodes, wits = _avoiding_walk(cx, a, b, avoid, 0, d, cap)
    return WalkCertificate(walk=Walk(tuple(nodes)), witness_facets=tuple(wits))


def _avoiding_walk(cx, a, b, avoid, depth, max_depth, cap):
    """Recursive engine behind strong_walk_avoiding_set.

    Vertices of the avoided set that are adjacent to nearly all of it form
    a clique, hence a face; the face-avoiding walk handles that part.  The
    remaining avoided vertices are walked around one at a time inside a
    strong component of their link, which is again flag and a
    pseudomanifold of one dimension lower, so the same routine applies.
    """
    if depth > max_depth:
        raise InternalInvariantError("avoidance recursion exceeded the facet size")
    if depth > 0:
        # at depth zero the public wrapper has already classified the input
        if not cx.is_flag(cap):
            raise InternalInvariantError("link component lost flagness")
        if not cx.is_pseudomanifold():
            raise InternalInvariantError("link component is not a pseudomanifold")
    d = cx.dimension + 1
    adj = cx._neighbour_masks()
    avoid_mask = cx._mask_of(avoid)
    core_set = frozenset(
        x for x in avoid if (adj[cx._pos[x]] & avoid_mask).bit_count() >= 2 * d - 4
    )
    if core_set and not cx.has_face(tuple(sorted(core_set))):
        raise InternalInvariantError("densely joined avoided vertices are not a face")
    base = strong_walk_avoiding(cx, a, b, core_set)
    nodes = list(base.walk.nodes)
    wits = list(base.witness_facets)

    i = 0
    while i < len(nodes):
        v = nodes[i]
        if v not in avoid:
            i += 1
            continue
        if i == 0 or i == len(nodes) - 1:
            raise InternalInvariantError("avoided vertex surfaced at a walk endpoint")
        if nodes[i + 1] in avoid:
            # split the avoided pair with a clean vertex from the edge link
            e = (v, nodes[i + 1]) if v < nodes[i + 1] else (nodes[i + 1], v)
            anchor = tuple(x for x in wits[i] if x not in e)
            gamma = _link_component(cx, e, anchor)
            if gamma is None:
                raise InternalInvariantError("witness missing from the edge link")
            clean = sorted({x for f in gamma for x in f} - avoid)
            if not clean:
                raise InternalInvariantError(
                    "edge link component contains avoided vertices only"
                )
            u = clean[0]
            fu = min(f for f in gamma if u in f)
            new_witness = tuple(sorted(fu + e))
            nodes.insert(i + 1, u)
            wits[i : i + 1] = [new_witness, new_witness]
            continue
        prev, nxt = nodes[i - 1], nodes[i + 1]
        anchor = tuple(x for x in wits[i - 1] if x != v)
        lam_facets = _link_component(cx, (v,), anchor)
        if lam_facets is None:
            raise InternalInvariantError("anchor facet missing from its own link")
        if tuple(x for x in wits[i] if x != v) not in lam_facets:
            raise InternalInvariantError(
                "consecutive witnesses straddle link components"
            )
        tau = avoid & {x for f in lam_facets for x in f}
        if len(tau) > 2 * (d - 1) - 3:
            raise InternalInvariantError("link component keeps too much avoided mass")
        if prev == nxt:
            # spike: the walk enters and leaves through the same vertex
            del nodes[i : i + 2]
            del wits[i - 1 : i + 1]
            if 0 < i - 1 < len(nodes) - 1 and not _same_star_component(
                cx, nodes[i - 1], wits[i - 2], wits[i - 1]
            ):
                raise InternalInvariantError("spike removal broke the walk at its junction")
            continue
        mid_nodes, mid_wits = _avoiding_walk(
            build_complex(lam_facets), prev, nxt, tau, depth + 1, max_depth, cap
        )
        lifted = [tuple(sorted(w + (v,))) for w in mid_wits]
        if not lifted:
            raise InternalInvariantError("reroute produced no steps for distinct ends")
        if i > 1 and not _same_star_component(cx, prev, wits[i - 2], lifted[0]):
            raise InternalInvariantError("reroute broke the walk entering the detour")
        if i + 2 < len(nodes) and not _same_star_component(cx, nxt, lifted[-1], wits[i + 1]):
            raise InternalInvariantError("reroute broke the walk leaving the detour")
        nodes[i - 1 : i + 2] = mid_nodes
        wits[i - 1 : i + 1] = lifted
    return nodes, wits
