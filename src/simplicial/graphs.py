"""Graphs attached to complexes: connectivity certificates and witnessed walks.

Vertex connectivity is computed by Menger duality: a minimum s-t vertex
cut is a maximum set of internally disjoint s-t paths, found by max-flow
on the split network where every node other than s and t has capacity
one.  Sweeping a deterministic set of pairs gives the global value and a
checkable cut certificate.

Walks through a pseudomanifold carry a witness facet per edge; the walk
is accepted when consecutive witnesses lie in one strong component of the
closed star of the shared node.  The verifier recomputes everything from
the certificate alone and shares no construction code with the builders.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Face, SimplicialComplex, Verdict
from .errors import ClassificationError, InputError, InternalInvariantError


class Graph:
    """Finite simple graph over sortable hashable node labels."""

    def __init__(self, nodes, edges):
        self.nodes: tuple = tuple(sorted(set(nodes)))
        node_set = set(self.nodes)
        norm = set()
        for e in edges:
            u, v = e
            if u == v:
                raise InputError(f"loop at {u!r} is not allowed")
            if u not in node_set or v not in node_set:
                raise InputError(f"edge {e!r} leaves the node set")
            norm.add((u, v) if u <= v else (v, u))
        self.edges: tuple = tuple(sorted(norm))
        adj: dict = {u: [] for u in self.nodes}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = {u: tuple(sorted(ns)) for u, ns in adj.items()}
        self._edge_set = norm

    def neighbors(self, u):
        return self._adj[u]

    def degree(self, u) -> int:
        return len(self._adj[u])

    def has_edge(self, u, v) -> bool:
        return ((u, v) if u <= v else (v, u)) in self._edge_set

    def has_node(self, u) -> bool:
        return u in self._adj

    def is_connected(self) -> bool:
        """Graphs with at most one node count as connected."""
        if len(self.nodes) <= 1:
            return True
        seen = {self.nodes[0]}
        queue = deque(seen)
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(self.nodes)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __repr__(self):
        return f"Graph(nodes={len(self.nodes)}, edges={len(self.edges)})"


def graph_of(cx: SimplicialComplex) -> Graph:
    """One-skeleton as a graph on the vertex labels."""
    return Graph(cx.vertices, cx.faces(1))


def face_adjacency_graph(cx: SimplicialComplex, k: int) -> Graph:
    """Nodes are the k-faces; adjacent when a common (k+1)-face exists.

    k = 0 returns exactly graph_of, so node identity stays plain labels
    there; for larger k a node is the sorted k-face tuple itself.
    """
    if k < 0 or k > cx.dimension - 1:
        raise InputError(f"k={k} outside 0..{cx.dimension - 1}")
    if k == 0:
        return graph_of(cx)
    nodes = cx.faces(k)
    edges = set()
    for top in cx.faces(k + 1):
        subs = []
        for omit in range(len(top)):
            subs.append(top[:omit] + top[omit + 1 :])
        for i in range(len(subs)):
            for j in range(i + 1, len(subs)):
                edges.add((subs[i], subs[j]) if subs[i] <= subs[j] else (subs[j], subs[i]))
    return Graph(nodes, edges)


@dataclass(frozen=True)
class CutCertificate:
    """Nodes whose removal separates the named pair."""

    cut: tuple
    separated_pair: tuple


@dataclass(frozen=True)
class ConnectivityResult:
    value: int
    complete: bool
    cut: CutCertificate | None


def _min_vertex_cut(g: Graph, s, t):
    """Minimum s-t vertex cut for a non-adjacent pair, as a sorted tuple.

    Node-splitting: every node u becomes an arc u_in -> u_out of capacity
    one (unbounded for s and t); each edge becomes two unbounded arcs.
    Unit augmenting paths are found by BFS, so runtime is flow * edges.
    """
    order = {u: i for i, u in enumerate(g.nodes)}
    n = len(g.nodes)
    big = n + 1

    # arcs stored as parallel lists; arc i's reverse is i ^ 1
    arc_to: list[int] = []
    arc_cap: list[int] = []
    out: list[list[int]] = [[] for _ in range(2 * n)]

    def add(u: int, v: int, cap: int):
        out[u].append(len(arc_to))
        arc_to.append(v)
        arc_cap.append(cap)
        out[v].append(len(arc_to))
        arc_to.append(u)
        arc_cap.append(0)

    for u in g.nodes:
        i = order[u]
        add(2 * i, 2 * i + 1, big if u in (s, t) else 1)
    for u, v in g.edges:
        iu, iv = order[u], order[v]
        add(2 * iu + 1, 2 * iv, big)
        add(2 * iv + 1, 2 * iu, big)

    src = 2 * order[s] + 1
    dst = 2 * order[t]
    while True:
        prev_arc = [-1] * (2 * n)
        prev_arc[src] = -2
        queue = deque([src])
        while queue:
            x = queue.popleft()
            if x == dst:
                break
            for ai in out[x]:
                y = arc_to[ai]
                if arc_cap[ai] > 0 and prev_arc[y] == -1:
                    prev_arc[y] = ai
                    queue.append(y)
        if prev_arc[dst] == -1:
            break
        x = dst
        while x != src:
            ai = prev_arc[x]
            arc_cap[ai] -= 1
            arc_cap[ai ^ 1] += 1
            x = arc_to[ai ^ 1]

    reach = [False] * (2 * n)
    reach[src] = True
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for ai in out[x]:
            y = arc_to[ai]
            if arc_cap[ai] > 0 and not reach[y]:
                reach[y] = True
                queue.append(y)
    cut = tuple(
        u
        for u in g.nodes
        if u not in (s, t) and reach[2 * order[u]] and not reach[2 * order[u] + 1]
    )
    return cut


def vertex_connectivity(g: Graph) -> ConnectivityResult:
    """Global vertex connectivity with a minimum-cut certificate.

    Complete graphs have no cut; they report value n - 1 and a None cut.
    Otherwise the sweep fixes a minimum-degree node v and runs max-flow
    against every non-neighbor of v and between every non-adjacent pair of
    neighbors of v; some minimum cut is always caught this way.  Among the
    minimum cuts seen, the lexicographically least is reported.
    """
    n = len(g.nodes)
    if n < 2:
        raise InputError("vertex connectivity needs at least two nodes")
    if all(g.degree(u) == n - 1 for u in g.nodes):
        return ConnectivityResult(value=n - 1, complete=True, cut=None)
    v = min(g.nodes, key=lambda u: (g.degree(u), u))
    pairs = [(v, w) for w in g.nodes if w != v and not g.has_edge(v, w)]
    nbrs = g.neighbors(v)
    for i in range(len(nbrs)):
        for j in range(i + 1, len(nbrs)):
            if not g.has_edge(nbrs[i], nbrs[j]):
                pairs.append((nbrs[i], nbrs[j]))
    best_cut = None
    best_pair = None
    for s, t in pairs:
        cut = _min_vertex_cut(g, s, t)
        if best_cut is None or (len(cut), cut) < (len(best_cut), best_cut):
            best_cut = cut
            best_pair = (s, t)
    return ConnectivityResult(
        value=len(best_cut),
        complete=False,
        cut=CutCertificate(cut=best_cut, separated_pair=best_pair),
    )


# -- walks with facet witnesses ---------------------------------------------


@dataclass(frozen=True)
class Walk:
    """Node sequence; edge i joins nodes i-1 and i.  May repeat nodes."""

    nodes: tuple

    @property
    def edges(self) -> tuple:
        ns = self.nodes
        return tuple(
            (ns[i - 1], ns[i]) if ns[i - 1] <= ns[i] else (ns[i], ns[i - 1])
            for i in range(1, len(ns))
        )

@dataclass(frozen=True)
class WalkCertificate:
    """A walk plus one witness facet per edge.

    The walk is accepted when every edge lies inside its witness facet and
    consecutive witnesses sit in a single strong component of the closed
    star of the node they share.
    """

    walk: Walk
    witness_facets: tuple[Face, ...]


def _dual_adjacency(cx: SimplicialComplex) -> dict[Face, tuple[Face, ...]]:
    """Facet adjacency through shared ridges, read off the ridge index."""

    def build():
        label = dict(zip(cx._facet_masks, cx.facets))
        adj: dict[Face, list[Face]] = {f: [] for f in cx.facets}
        for group in cx._ridge_facets().values():
            for fm in group:
                adj[label[fm]].extend(label[g] for g in group if g != fm)
        # neighbours share the facet's size, so label order is (size, label) order
        return {f: tuple(sorted(ns)) for f, ns in adj.items()}

    return cx._memoized("dual_adjacency", build)


def _dual_path(cx: SimplicialComplex, sources, accept, avoid=None):
    """BFS in the facet-adjacency graph from sorted sources to acceptance.

    Facets containing the vertex avoid are never entered.  In a
    pseudomanifold they are exactly the facets that the deletion of avoid
    loses, and the deletion keeps every other facet and its adjacency.
    """
    adj = _dual_adjacency(cx)
    parent: dict[Face, Face | None] = {}
    queue = deque()
    for f in sorted(sources, key=lambda x: (len(x), x)):
        if avoid not in f:
            parent[f] = None
            queue.append(f)
    while queue:
        f = queue.popleft()
        if accept(f):
            chain = [f]
            while parent[chain[-1]] is not None:
                chain.append(parent[chain[-1]])
            chain.reverse()
            return chain
        for w in adj[f]:
            if w not in parent and avoid not in w:
                parent[w] = f
                queue.append(w)
    return None


def strong_walk_avoiding(
    cx: SimplicialComplex, a: int, b: int, avoid
) -> WalkCertificate:
    """Witnessed walk from a to b through a pseudomanifold, dodging a set.

    The avoided set must be a face, or smaller than the facet size; both
    guarantee the construction below cannot get stuck.  The walk follows a
    facet chain that misses the least avoided vertex, reading one node out
    of each consecutive overlap.
    """
    pm = cx.is_pseudomanifold()
    if not pm:
        raise ClassificationError("pseudomanifold", witness=pm.witness)
    if cx.dimension < 1:
        raise InputError("walks need a complex of dimension at least one")
    avoid = frozenset(avoid)
    vset = set(cx.vertices)
    if not avoid <= vset:
        raise InputError(f"avoided labels {sorted(avoid - vset)} are not vertices")
    d = cx.dimension + 1
    if len(avoid) >= d and not cx.has_face(sorted(avoid)):
        raise ClassificationError(
            "avoid-set",
            witness=tuple(sorted(avoid)),
            message="avoided set must be a face or have fewer elements than a facet",
        )
    for x in (a, b):
        if x not in vset:
            raise InputError(f"{x!r} is not a vertex")
        if x in avoid:
            raise InputError(f"endpoint {x} lies in the avoided set")

    sources = [f for f in cx.facets if a in f]
    chain = _dual_path(cx, sources, lambda f: b in f, avoid=min(avoid, default=None))
    if chain is None:
        raise InternalInvariantError("facet chain between endpoint stars not found")

    picks = []
    prev = a
    for i in range(1, len(chain)):
        shared = set(chain[i - 1]) & set(chain[i])
        allowed = shared - avoid
        if not allowed:
            raise InternalInvariantError(
                "consecutive facets overlap entirely inside the avoided set"
            )
        picks.append(prev if prev in allowed else min(allowed))
        prev = picks[-1]

    nodes = [a] + picks + [b]
    wits = list(chain)
    # drop repeats together with one of the two equal edges
    i = 1
    while i < len(nodes):
        if nodes[i - 1] == nodes[i]:
            del nodes[i]
            del wits[i - 1]
        else:
            i += 1
    return WalkCertificate(walk=Walk(tuple(nodes)), witness_facets=tuple(wits))


def _star_facets(cx: SimplicialComplex, v) -> list[Face]:
    return [f for f in cx.facets if v in f]


def _facets_strongly_joined(facets: list[Face], f1: Face, f2: Face) -> bool:
    """Whether f1 and f2 are linked by codimension-one overlaps in the list.

    Self-contained component computation used by the verifier; kept apart
    from the construction-side helpers on purpose.
    """
    if f1 == f2:
        return True
    sets = [set(f) for f in facets]
    idx = {f: i for i, f in enumerate(facets)}
    if f1 not in idx or f2 not in idx:
        return False
    seen = {idx[f1]}
    queue = deque(seen)
    while queue:
        i = queue.popleft()
        for j in range(len(facets)):
            if j in seen or len(sets[j]) != len(sets[i]):
                continue
            if len(sets[i] & sets[j]) == len(sets[i]) - 1:
                seen.add(j)
                queue.append(j)
    return idx[f2] in seen


def verify_strong_walk(cx: SimplicialComplex, cert: WalkCertificate) -> Verdict:
    """Recheck a walk certificate from its data alone.

    Clauses, in order: node membership, edge existence, witness facet
    membership and containment, and the strong-component condition at
    every interior node.  The witness on failure names the first failing
    clause and position.
    """
    nodes = cert.walk.nodes
    wits = cert.witness_facets
    if len(nodes) == 0:
        return Verdict(False, witness={"clause": "walk-empty"}, reason="no nodes")
    vset = set(cx.vertices)
    for i, u in enumerate(nodes):
        if u not in vset:
            return Verdict(
                False,
                witness={"clause": "node-membership", "index": i, "node": u},
                reason="walk node is not a vertex",
            )
    if len(wits) != len(nodes) - 1:
        return Verdict(
            False,
            witness={"clause": "witness-count", "expected": len(nodes) - 1, "got": len(wits)},
            reason="one witness facet per edge is required",
        )
    facet_set = set(cx.facets)
    edge_set = set(cx.faces(1))
    for i in range(1, len(nodes)):
        u, v = nodes[i - 1], nodes[i]
        e = (u, v) if u <= v else (v, u)
        if u == v or e not in edge_set:
            return Verdict(
                False,
                witness={"clause": "edge", "index": i - 1, "edge": e},
                reason="walk step is not an edge of the complex",
            )
        w = wits[i - 1]
        if w not in facet_set:
            return Verdict(
                False,
                witness={"clause": "witness-facet", "index": i - 1, "facet": w},
                reason="witness is not a facet",
            )
        if not set(e) <= set(w):
            return Verdict(
                False,
                witness={"clause": "edge-in-witness", "index": i - 1, "edge": e, "facet": w},
                reason="witness facet does not contain its edge",
            )
    for i in range(1, len(nodes) - 1):
        star = _star_facets(cx, nodes[i])
        if not _facets_strongly_joined(star, wits[i - 1], wits[i]):
            return Verdict(
                False,
                witness={"clause": "star-component", "index": i, "node": nodes[i]},
                reason="consecutive witnesses in different strong components of the star",
            )
    return Verdict(True)


# -- subdivision embeddings ---------------------------------------------------


@dataclass(frozen=True)
class SubdivisionEmbedding:
    """Witness that a host graph contains a subdivision of a pattern graph.

    branch_nodes maps pattern nodes to distinct host nodes; edge_paths
    maps each pattern edge (as a frozenset) to the host path replacing it,
    written from one endpoint image to the other.
    """

    branch_nodes: dict
    edge_paths: dict


def verify_subdivision(
    host: Graph, pattern: Graph, emb: SubdivisionEmbedding
) -> Verdict:
    """Recheck a subdivision embedding clause by clause."""
    bn = emb.branch_nodes
    missing = [u for u in pattern.nodes if u not in bn]
    if missing:
        return Verdict(
            False,
            witness={"clause": "branch-cover", "missing": missing[0]},
            reason="a pattern node has no image",
        )
    images = [bn[u] for u in pattern.nodes]
    if len(set(images)) != len(images):
        return Verdict(
            False, witness={"clause": "branch-injective"}, reason="branch images collide"
        )
    for u in pattern.nodes:
        if not host.has_node(bn[u]):
            return Verdict(
                False,
                witness={"clause": "branch-membership", "node": u, "image": bn[u]},
                reason="a branch image is not a host node",
            )
    pattern_keys = {frozenset(e) for e in pattern.edges}
    for key in emb.edge_paths:
        if frozenset(key) not in pattern_keys:
            return Verdict(
                False,
                witness={"clause": "unknown-edge", "edge": tuple(sorted(key))},
                reason="a path is keyed by a non-edge of the pattern",
            )
    image_set = set(images)
    seen_interior: dict = {}
    for e in pattern.edges:
        key = frozenset(e)
        path = emb.edge_paths.get(key)
        if path is None:
            # allow lookup under either tuple orientation for plain dicts
            path = emb.edge_paths.get(e)
        if path is None:
            path = emb.edge_paths.get((e[1], e[0]))
        if path is None:
            return Verdict(
                False,
                witness={"clause": "missing-path", "edge": e},
                reason="a pattern edge has no replacement path",
            )
        path = tuple(path)
        if len(path) < 2 or len(set(path)) != len(path):
            return Verdict(
                False,
                witness={"clause": "path-shape", "edge": e, "path": path},
                reason="replacement must be a simple path of length >= 1",
            )
        want = {bn[e[0]], bn[e[1]]}
        if {path[0], path[-1]} != want:
            return Verdict(
                False,
                witness={"clause": "path-endpoints", "edge": e, "path": path},
                reason="path endpoints differ from the branch images",
            )
        for i in range(1, len(path)):
            if not host.has_edge(path[i - 1], path[i]):
                return Verdict(
                    False,
                    witness={"clause": "path-edge", "edge": e, "step": (path[i - 1], path[i])},
                    reason="a path step is not a host edge",
                )
        for x in path[1:-1]:
            if x in image_set:
                return Verdict(
                    False,
                    witness={"clause": "interior-hits-branch", "edge": e, "node": x},
                    reason="a path interior meets a branch node",
                )
            if x in seen_interior:
                return Verdict(
                    False,
                    witness={
                        "clause": "interior-overlap",
                        "edges": (seen_interior[x], e),
                        "node": x,
                    },
                    reason="two path interiors share a node",
                )
            seen_interior[x] = e
    return Verdict(True)
