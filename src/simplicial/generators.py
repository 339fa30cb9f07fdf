"""Stock complexes for experiments and tests, plus an isomorphism check.

Every generator emits labels starting at 1 and facets in the canonical
order of the containing complex, so repeated calls agree byte for byte
after serialization.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .core import SimplicialComplex, build_complex, join
from .errors import InputError


def cross_polytope_boundary(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional cross polytope, a (d-1)-sphere.

    Vertices are 1..2d with i and d+i antipodal; the 2^d facets pick one
    vertex out of each antipodal pair.
    """
    if d < 1:
        raise InputError(f"d must be at least 1, got {d}")
    facets = []
    for choice in range(1 << d):
        facets.append(
            tuple(i + 1 + (d if choice >> i & 1 else 0) for i in range(d))
        )
    return build_complex(facets)


def simplex_boundary(d: int) -> SimplicialComplex:
    """Boundary of the d-simplex on vertices 1..d+1, a (d-1)-sphere."""
    if d < 1:
        raise InputError(f"d must be at least 1, got {d}")
    return build_complex(combinations(range(1, d + 2), d))


def cycle(n: int) -> SimplicialComplex:
    """Cycle with n vertices, the n-gon as a 1-dimensional sphere."""
    if n < 3:
        raise InputError(f"a cycle needs at least 3 vertices, got {n}")
    return build_complex(
        [(i, i + 1) for i in range(1, n)] + [(1, n)]
    )


def icosahedron() -> SimplicialComplex:
    """Boundary of the icosahedron: 12 vertices, 20 triangles, flag 2-sphere."""
    facets = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
        (2, 3, 8), (3, 4, 9), (4, 5, 10), (5, 6, 11), (6, 2, 7),
        (2, 7, 8), (3, 8, 9), (4, 9, 10), (5, 10, 11), (6, 11, 7),
        (12, 7, 8), (12, 8, 9), (12, 9, 10), (12, 10, 11), (12, 11, 7),
    ]
    return build_complex(facets)


def torus_7() -> SimplicialComplex:
    """Seven-vertex triangulation of the torus; 2-pseudomanifold, not flag."""
    facets = []
    for i in range(7):
        facets.append((i, (i + 1) % 7, (i + 3) % 7))
        facets.append((i, (i + 2) % 7, (i + 3) % 7))
    return build_complex([tuple(x + 1 for x in f) for f in facets])


def suspension(cx: SimplicialComplex) -> SimplicialComplex:
    """Join with a fresh pair of apexes labelled past the current maximum."""
    base = max(cx.vertices, default=0)
    poles = build_complex([(base + 1,), (base + 2,)])
    return join(cx, poles)


def barycentric_subdivision(cx: SimplicialComplex) -> SimplicialComplex:
    """Order complex of the nonempty faces, relabelled 1..N.

    Face sigma becomes vertex k where sigma is the k-th nonempty face in
    the (cardinality, labels) order.  Facets are the maximal chains; each
    arises from one permutation of one facet via its prefix sets.
    """
    names = [f for f in cx.all_faces() if f]
    index = {f: i + 1 for i, f in enumerate(names)}
    new_facets = []
    for facet in cx.facets:
        for perm in permutations(facet):
            chain = []
            for stop in range(1, len(perm) + 1):
                chain.append(index[tuple(sorted(perm[:stop]))])
            new_facets.append(tuple(chain))
    return build_complex(new_facets)


def _vertex_signature(cx: SimplicialComplex):
    """Vertex -> (degree, sorted sizes of the facets through it)."""
    adj = cx._neighbour_masks()
    return {
        v: (adj[i].bit_count(), tuple(sorted(map(int.bit_count, cx._star(1 << i)))))
        for i, v in enumerate(cx.vertices)
    }


def is_isomorphic(a: SimplicialComplex, b: SimplicialComplex):
    """Vertex bijection carrying facets onto facets, or None.

    Returns the mapping as a dict when one exists.  Backtracking search
    with degree and facet-size-profile pruning; intended for the modest
    instances used here, not for large graphs.
    """
    if a.is_void or b.is_void:
        return {} if a.is_void and b.is_void else None
    if a.num_vertices != b.num_vertices or len(a.facets) != len(b.facets):
        return None
    if sorted(len(f) for f in a.facets) != sorted(len(f) for f in b.facets):
        return None
    if a.is_empty_complex:
        return {} if b.is_empty_complex else None
    sig_a = _vertex_signature(a)
    sig_b = _vertex_signature(b)
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return None

    by_sig: dict = {}
    for v, s in sig_b.items():
        by_sig.setdefault(s, []).append(v)
    # rarest signatures first cuts the branching early
    order = sorted(a.vertices, key=lambda v: (len(by_sig[sig_a[v]]), v))

    adj_a, adj_b = a._neighbour_masks(), b._neighbour_masks()
    pos_a, pos_b = a._pos, b._pos

    facets_b = set(b.facets)
    mapping: dict = {}
    used: set = set()

    def extend(i: int):
        if i == len(order):
            for f in a.facets:
                if tuple(sorted(mapping[v] for v in f)) not in facets_b:
                    return False
            return True
        v = order[i]
        nv = adj_a[pos_a[v]]
        for w in by_sig[sig_a[v]]:
            if w in used:
                continue
            nw = adj_b[pos_b[w]]
            if any(
                (nv >> pos_a[u] & 1) != (nw >> pos_b[x] & 1) for u, x in mapping.items()
            ):
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return dict(mapping) if extend(0) else None
