"""Graphs attached to complexes: connectivity certificates and witnessed walks.

A graph keeps its adjacency once, as neighbour bitmasks; one component
search over such masks serves ``Graph.is_connected`` and gk.

Vertex connectivity is computed by Menger duality: the size of a
minimum s-t vertex cut is the largest number of internally disjoint s-t
paths.  The paths are found over a copy of the neighbour masks of the
unsplit graph: each pair is seeded with its common-neighbour and two-hop
paths, then each layered phase grows breadth-first layers from s only as
far as t and augments a blocking set of shortest paths, and the last
phase, which misses t, yields the cut.  Sweeping a deterministic set of
pairs gives the global value.  The certificate is checked by code that
shares nothing with the search and reads the graph's own neighbour masks:
every pair's paths are real, internally disjoint and as many as its cut
has nodes, and the reported cut separates its pair.

Walks through a pseudomanifold carry a witness facet per edge; the walk
is accepted when consecutive witnesses lie in one strong component of the
closed star of the shared node.  Subdivision paths are re-checked on the
host's neighbour masks.  The verifiers recompute everything from the
certificate alone and share no construction code with the builders.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .core import Face, SimplicialComplex, Verdict
from .errors import ClassificationError, InputError, InternalInvariantError
from .formats import label_key, quote_label


class Graph:
    """Finite simple graph over sortable hashable node labels, its one
    adjacency kept as neighbour masks: bit j of entry i joins nodes i and j."""

    def __init__(self, nodes, edges):
        nodes = list(nodes)
        try:
            self.nodes: tuple = tuple(sorted(set(nodes)))
        except TypeError:  # name the first node that cannot be hashed or ordered with the first
            for u in nodes:
                try:
                    hash(u), u < nodes[0], nodes[0] < u
                except TypeError:
                    raise InputError(f"node {quote_label(u)} is not a sortable hashable label") from None
            raise InputError(f"nodes {quote_label(nodes)} cannot be sorted together") from None
        self._pos = pos = {u: i for i, u in enumerate(self.nodes)}
        self._nbr = nbr = [0] * len(self.nodes)
        for e in edges:
            try:
                u, v = e
                i, j = pos.get(u), pos.get(v)
            except (TypeError, ValueError):  # no pair, or an end that cannot be hashed
                raise InputError(f"edge {quote_label(e)} is not a pair of nodes") from None
            if u == v:
                raise InputError(f"loop at {quote_label(u)} is not allowed")
            if i is None or j is None:
                raise InputError(f"edge {quote_label(e)} leaves the node set")
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i

    @property
    def edges(self) -> tuple:
        """Each edge once, as (u, w) with u < w, in label order of u, then w."""
        nodes, bits = self.nodes, SimplicialComplex._bits
        return tuple([(nodes[i], nodes[b.bit_length() - 1])  # each later neighbour of node i
                      for i, m in enumerate(self._nbr) for b in bits(m >> i + 1 << i + 1)])

    def _labels_of(self, mask: int) -> list:
        return [self.nodes[b.bit_length() - 1] for b in SimplicialComplex._bits(mask)]

    def neighbors(self, u):
        return tuple(self._labels_of(self._nbr[self._pos[u]]))

    def degree(self, u) -> int:
        return self._nbr[self._pos[u]].bit_count()

    def has_edge(self, u, v) -> bool:
        i, j = self._pos.get(u), self._pos.get(v)
        return i is not None and j is not None and bool(self._nbr[i] >> j & 1)

    def is_connected(self) -> bool:
        """Graphs with at most one node count as connected."""
        return len(self.nodes) <= 1 or _component(self._nbr, 0) == (1 << len(self.nodes)) - 1

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.nodes, self._nbr) == (other.nodes, other._nbr)

    def __repr__(self):
        return f"Graph(nodes={len(self.nodes)}, edges={sum(map(int.bit_count, self._nbr)) // 2})"


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
    sides = ([top[:i] + top[i + 1 :] for i in range(len(top))] for top in cx.faces(k + 1))
    return Graph(cx.faces(k), (e for s in sides for e in combinations(s, 2)))


@dataclass(frozen=True)
class ConnectivityResult:
    """A minimum cut and the pair it separates; both None for a complete graph."""

    value: int
    cut: tuple | None
    separated_pair: tuple | None

    @property
    def complete(self) -> bool:
        return self.cut is None


def _component(nbr: list[int], start: int) -> int:
    """Mask of the nodes joined to node start, for neighbour masks nbr."""
    comp, new = 0, 1 << start
    while new:
        comp |= new
        for b in SimplicialComplex._bits(new):
            new |= nbr[b.bit_length() - 1]
        new &= ~comp
    return comp


def _disjoint_paths(nbr: list[int], s: int, t: int) -> tuple[list[list[int]], int]:
    """Most internally disjoint s-t paths, and the minimum cut nearest s.

    s and t are non-adjacent indices into the neighbour masks.  The flow is
    kept as pred/succ pointers of the nodes on it, and `used` masks those
    nodes.  It is seeded with one path s-u-t per common neighbour u (some
    maximum flow has them all) and, first fit in bit order, one path s-a-b-t
    per other neighbour a of s next to a free neighbour of t, b the lowest
    such; the phases cancel the arcs of a seed that blocks.  Each phase
    grows out-state layers from s, one OR of nbr[u] per node u of a layer.
    An in-state has one way on: a free node's to its own out-state, a used
    node's back to its pred's; a used out-state may also step back to its
    in-state.  The layers stop at the first one next to t.  From each of its
    out-states next to t, a depth-first search back, lowest live out-state
    first, augments a blocking set of shortest paths, each out-state at most
    once; a dead end leaves its layer, so no candidate list is kept.  The
    next phase grows fresh layers, and the one that runs out of layers
    without meeting t gives the cut: the nodes whose in-state it reaches and
    whose out-state it does not, the same after any max flow.
    """
    n = len(nbr)
    pred, succ = [-1] * n, [-1] * n
    used, firsts, lasts = 0, nbr[s], nbr[t] & ~nbr[s]
    while firsts:
        a = firsts & -firsts
        firsts ^= a
        u = a.bit_length() - 1
        if a & nbr[t]:
            pred[u], succ[u] = s, t
            used |= a
        elif lasts and (b := nbr[u] & lasts):
            b &= -b
            lasts ^= b
            w = b.bit_length() - 1
            pred[u], succ[u], pred[w], succ[w] = s, w, u, t
            used |= a | b
    while True:
        seen_in = seen_out = 1 << s
        live = [1 << s]  # live[k]: out-states k layers from s
        while live[-1] and not live[-1] & nbr[t]:
            layer = live[-1]
            fresh = layer & used  # step-backs
            while layer:
                low = layer & -layer
                layer ^= low
                fresh |= nbr[low.bit_length() - 1]
            fresh &= ~seen_in
            seen_in |= fresh
            outs, back = fresh & ~used, fresh & used
            while back:
                low = back & -back
                back ^= low
                outs |= 1 << pred[low.bit_length() - 1]
            live.append(outs & ~seen_out)
            seen_out |= outs
        if not live[-1]:
            break
        ends, stuck = live[-1] & nbr[t], True
        while ends:
            low = ends & -ends
            ends ^= low
            # out-states back from t, one per layer; each steps to its lowest live predecessor
            stack = [low.bit_length() - 1]
            while stack and len(stack) < len(live):
                k, z = len(live) - len(stack), stack[-1]
                y = succ[z] if used >> z & 1 else z
                c = (nbr[y] | used & 1 << y) & live[k - 1]
                if c:
                    stack.append((c & -c).bit_length() - 1)
                else:
                    live[k] ^= 1 << stack.pop()
            if not stack:
                continue
            stuck = False
            path = stack[::-1]
            # arcs (out-state u, in-state y) from s, each y read before the hop
            # from z changes z's pointers, and t is never used; a pointer is
            # cleared only while it names the cancelled arc, because this path
            # may already have reset it
            w = -1
            for u, z in zip(path, path[1:] + [t]):
                y = succ[z] if used >> z & 1 else z
                if w >= 0 and w != u:  # back along the flow u -> w
                    if succ[u] == w:
                        succ[u] = -1
                    if pred[w] == u:
                        pred[w] = -1
                if u != y:  # forward along the edge u -> y
                    if u != s:
                        succ[u] = y
                    if y != t:
                        pred[y] = u
                w = y
            for k, u in enumerate(path[1:], 1):  # only these nodes change state
                live[k] ^= 1 << u
                used = used & ~(1 << u) | (pred[u] >= 0) << u
        if stuck:
            raise InternalInvariantError("a phase that meets t augments no path")
    starts = (b.bit_length() - 1 for b in SimplicialComplex._bits(nbr[s] & used))
    paths = [[s, w] for w in starts if pred[w] == s]
    for path in paths:
        w = path[-1]
        while w != t:
            w = succ[w]
            if w < 0 or len(path) > n:
                raise InternalInvariantError("flow pointers break off before the target")
            path.append(w)
    return paths, seen_in & ~seen_out


def _check_menger(g: Graph, s: int, t: int, paths, cut_size: int) -> None:
    """Raise unless paths are cut_size internally disjoint s-t paths of g.

    s, t and the paths are positions in g.nodes; each step is read off g's
    own neighbour masks, and a message names labels."""
    nodes, nbr = g.nodes, g._nbr
    if len(paths) != cut_size:
        raise InternalInvariantError(f"{len(paths)} disjoint paths for a cut of {cut_size} nodes")
    interior = 1 << s | 1 << t
    for path in paths:
        if path[0] != s or path[-1] != t:
            labels = [nodes[i] for i in path]
            raise InternalInvariantError(f"path {labels!r} does not run from {nodes[s]!r} to {nodes[t]!r}")
        a = s
        for b in path[1:-1]:
            bit = 1 << b
            if not nbr[a] & bit:
                break
            if interior & bit:
                raise InternalInvariantError(f"two paths between {nodes[s]!r} and {nodes[t]!r} share {nodes[b]!r}")
            interior |= bit
            a = b
        else:  # the interior held; the last step ends at t
            b = t
        if not nbr[a] >> b & 1:
            raise InternalInvariantError(f"path step {(nodes[a], nodes[b])!r} is not an edge")


def _check_separates(g: Graph, cut, s, t) -> None:
    """Raise unless s and t are apart in g minus the cut, read off g's own
    neighbour masks with the cut's bits cleared."""
    pos = g._pos
    cut_mask = sum(1 << pos[u] for u in set(cut))
    if cut_mask & (1 << pos[s] | 1 << pos[t]):
        raise InternalInvariantError(f"cut {cut!r} contains an end of {(s, t)!r}")
    if _component([m & ~cut_mask for m in g._nbr], pos[s]) >> pos[t] & 1:
        raise InternalInvariantError(f"cut {cut!r} does not separate {s!r} from {t!r}")


def vertex_connectivity(g: Graph) -> ConnectivityResult:
    """Global vertex connectivity with a minimum-cut certificate.

    Complete graphs have no cut; they report value n - 1 and a None cut.
    Otherwise the sweep fixes a minimum-degree node v and runs max-flow
    against every non-neighbor of v and between every non-adjacent pair of
    neighbors of v; some minimum cut is always caught this way.  Among the
    minimum cuts seen, the lexicographically least is reported.  Each
    pair's paths prove its cut minimum (Menger), and the reported cut is
    checked to separate its pair, by code that reads only g.  The sweep
    works in node positions; labels appear only in the certificate.
    """
    nbr, n = list(g._nbr), len(g.nodes)
    if n < 2:
        raise InputError("vertex connectivity needs at least two nodes")
    # positions follow label order (g.nodes is sorted): v is the first node of
    # least degree, the pairs come in label order, and of two cuts of one size
    # the one holding the lowest bit of their difference is the lesser label tuple
    v = min(range(n), key=lambda i: nbr[i].bit_count())
    if nbr[v].bit_count() == n - 1:
        return ConnectivityResult(value=n - 1, cut=None, separated_pair=None)
    near = [w for w in range(n) if nbr[v] >> w & 1]
    pairs = [(v, w) for w in range(n) if w != v and not nbr[v] >> w & 1]
    pairs += [(a, b) for a, b in combinations(near, 2) if not nbr[a] >> b & 1]
    best_mask, best_size, best_pair = 0, n, None  # n exceeds any cut
    for s, t in pairs:
        paths, cut_mask = _disjoint_paths(nbr, s, t)
        size = cut_mask.bit_count()
        _check_menger(g, s, t, paths, size)
        diff = cut_mask ^ best_mask
        if size < best_size or size == best_size and diff & -diff & cut_mask:
            best_mask, best_size, best_pair = cut_mask, size, (s, t)
    best_cut = tuple(g._labels_of(best_mask))
    best_pair = tuple(g.nodes[i] for i in best_pair)
    _check_separates(g, best_cut, *best_pair)
    return ConnectivityResult(value=len(best_cut), cut=best_cut, separated_pair=best_pair)


# -- walks with facet witnesses ---------------------------------------------


@dataclass(frozen=True)
class WalkCertificate:
    """A walk's nodes, which may repeat, and a witness facet for each step.

    The walk is accepted when every edge lies inside its witness facet and
    consecutive witnesses sit in a single strong component of the closed
    star of the node they share.
    """

    nodes: tuple
    witness_facets: tuple[Face, ...]


def _require(check: str, verdict: Verdict) -> None:
    """Refuse an input whose verdict on a precondition check failed."""
    if not verdict:
        raise ClassificationError(check, witness=verdict.witness)


def _walk_request(cx: SimplicialComplex, a: int, b: int, avoid) -> frozenset:
    """The avoided set of a walk from a to b, once the complex has dimension at
    least one and a, b and the avoided labels are vertices, a and b outside it."""
    if cx.dimension < 1:
        raise InputError("walks need a complex of dimension at least one")
    try:
        avoid = frozenset(avoid)
    except TypeError:  # not iterable, or an item that cannot be hashed
        raise InputError(f"avoided set {quote_label(avoid)} is not a set of labels") from None
    strays = [x for x in avoid if cx._mask_of((x,)) is None]
    if strays:
        missing = ", ".join(map(quote_label, sorted(strays, key=label_key)))
        raise InputError(f"avoided labels [{missing}] are not vertices")
    for x in (a, b):
        if cx._mask_of((x,)) is None:
            raise InputError(f"{x!r} is not a vertex")
        if x in avoid:
            raise InputError(f"endpoint {x} lies in the avoided set")
    return avoid


def strong_walk_avoiding(
    cx: SimplicialComplex, a: int, b: int, avoid
) -> WalkCertificate:
    """Witnessed walk from a to b through a pseudomanifold, dodging a set.

    The avoided set must be a face, or smaller than the facet size; both
    guarantee the construction below cannot get stuck.  The walk follows a
    facet chain that misses the least avoided vertex, reading one node out
    of each consecutive overlap.
    """
    _require("pseudomanifold", cx.is_pseudomanifold())
    avoid = _walk_request(cx, a, b, avoid)
    d = cx.dimension + 1
    if len(avoid) >= d and not cx.has_face(sorted(avoid)):
        raise ClassificationError(
            "avoid-set",
            witness=tuple(sorted(avoid)),
            message="avoided set must be a face or have fewer elements than a facet",
        )

    # in a pseudomanifold the facets through the least avoided vertex are
    # exactly those its deletion loses, and the deletion keeps every other
    # facet and its ridges; the chain ends at the first facet through b
    least = cx._mask_of((min(avoid),)) if avoid else 0
    am, bm, parent = cx._mask_of((a,)), cx._mask_of((b,)), {}
    for f, p in cx._strong_search(am, avoid=least):
        parent[f] = p
        if f & bm:
            break
    else:
        raise InternalInvariantError("facet chain between endpoint stars not found")
    chain = [f]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    chain.reverse()

    # from each facet's overlap with the next (b after the last) keep the
    # node before if allowed, else step to the least allowed label
    nodes, wits, free = [am], [], ~cx._mask_of(avoid)
    for f, g in zip(chain, chain[1:] + [bm]):
        allowed = f & g & free
        if not allowed:
            raise InternalInvariantError(
                "consecutive facets overlap entirely inside the avoided set"
            )
        if not nodes[-1] & allowed:
            nodes.append(allowed & -allowed)
            wits.append(cx._labels_of(f))
    return WalkCertificate(
        nodes=tuple(cx._labels[m.bit_length() - 1] for m in nodes),
        witness_facets=tuple(wits),
    )


def _facets_strongly_joined(facets: list[Face], f1: Face, f2: Face) -> bool:
    """Whether f1 and f2 are linked by shared ridges in the list.

    Self-contained component computation used by the verifier; kept apart
    from the construction-side helpers on purpose.
    """
    if f1 == f2:
        return True
    if f1 not in facets or f2 not in facets:
        return False
    ridges: dict[Face, list[Face]] = {}
    for f in facets:
        for i in range(len(f)):
            ridges.setdefault(f[:i] + f[i + 1:], []).append(f)
    seen, queue = {f1}, deque([f1])
    while queue and f2 not in seen:
        f = queue.popleft()
        for i in range(len(f)):
            for g in ridges[f[:i] + f[i + 1:]]:
                if g not in seen:
                    seen.add(g)
                    queue.append(g)
    return f2 in seen


def verify_strong_walk(cx: SimplicialComplex, cert: WalkCertificate) -> Verdict:
    """Recheck a walk certificate from its data alone.

    Clauses, in order: node membership, edge existence, witness facet
    membership and containment, and the strong-component condition at
    every interior node.  The witness on failure names the first failing
    clause and position.
    """
    nodes = cert.nodes
    wits = cert.witness_facets
    if len(nodes) == 0:
        return Verdict(False, witness={"clause": "walk-empty"}, reason="no nodes")
    for i, u in enumerate(nodes):
        if cx._mask_of((u,)) is None:
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
    for i in range(1, len(nodes)):
        u, v = nodes[i - 1], nodes[i]
        e = (u, v) if u <= v else (v, u)
        if u == v or not cx.has_face(e):
            return Verdict(
                False,
                witness={"clause": "edge", "index": i - 1, "edge": e},
                reason="walk step is not an edge of the complex",
            )
        w = wits[i - 1]
        if type(w) is not tuple or cx._mask_of(w) is None or w not in facet_set:
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
    stars = {u: [] for u in nodes[1:-1]}  # each interior node's star, in facet order
    for f in cx.facets if stars else ():
        for u in f:
            if u in stars:
                stars[u].append(f)
    for i in range(1, len(nodes) - 1):
        if not _facets_strongly_joined(stars[nodes[i]], wits[i - 1], wits[i]):
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
    maps each pattern edge, as a frozenset or a (u, v) tuple in either
    orientation, to the host path replacing it, written from one endpoint
    image to the other.
    """

    branch_nodes: dict
    edge_paths: dict


def verify_subdivision(
    host: Graph, pattern: Graph, emb: SubdivisionEmbedding
) -> Verdict:
    """Recheck a subdivision embedding clause by clause, each path in host
    positions on the host's neighbour masks; a witness names labels."""
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
    pos, nbr, branch = host._pos, host._nbr, 0
    for u in pattern.nodes:
        i = pos.get(bn[u])
        if i is None:
            return Verdict(
                False,
                witness={"clause": "branch-membership", "node": u, "image": bn[u]},
                reason="a branch image is not a host node",
            )
        branch |= 1 << i
    edge_of = {frozenset(e): e for e in pattern.edges}
    for key in emb.edge_paths:
        if frozenset(key) not in edge_of:
            return Verdict(
                False,
                witness={"clause": "unknown-edge", "edge": tuple(sorted(key))},
                reason="a path is keyed by a non-edge of the pattern",
            )
    seen, interiors = 0, []  # the interiors so far, and each nonempty one with its edge
    for key, e in edge_of.items():
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
        s, t = bn[e[0]], bn[e[1]]  # distinct, as are the path's ends
        if not (path[0] == s and path[-1] == t or path[0] == t and path[-1] == s):
            return Verdict(
                False,
                witness={"clause": "path-endpoints", "edge": e, "path": path},
                reason="path endpoints differ from the branch images",
            )
        w, a, inner = path[0], pos[path[0]], 0
        for x in path[1:]:
            b = pos.get(x)
            if b is None or not nbr[a] >> b & 1:
                return Verdict(
                    False,
                    witness={"clause": "path-edge", "edge": e, "step": (w, x)},
                    reason="a path step is not a host edge",
                )
            w, a, inner = x, b, inner | 1 << b
        inner ^= 1 << a
        if not inner:
            continue
        clash = inner & (branch | seen)
        if clash:  # the first interior node in path order that clashes
            x, b = next((x, pos[x]) for x in path[1:-1] if clash >> pos[x] & 1)
            if branch >> b & 1:
                return Verdict(
                    False,
                    witness={"clause": "interior-hits-branch", "edge": e, "node": x},
                    reason="a path interior meets a branch node",
                )
            earlier = next(f for f, m in interiors if m >> b & 1)
            return Verdict(
                False,
                witness={"clause": "interior-overlap", "edges": (earlier, e), "node": x},
                reason="two path interiors share a node",
            )
        seen |= inner
        interiors.append((e, inner))
    return Verdict(True)
