"""Independent brute-force oracles.

Everything here recomputes quantities from first principles using plain
set/Fraction arithmetic, sharing no code with the package internals.
Keep these slow and obvious; they only ever run on small inputs.
"""

import io
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial


def close_downward(facets):
    """All faces (as frozensets, including the empty set) spanned by facets."""
    faces = set()
    for f in facets:
        f = frozenset(f)
        for r in range(len(f) + 1):
            for sub in combinations(sorted(f), r):
                faces.add(frozenset(sub))
    return faces


def f_vector_from_faces(faces):
    if not faces:
        raise ValueError("void complex has no f-vector")
    d = max(len(f) for f in faces)
    fv = [0] * (d + 1)
    for f in faces:
        fv[len(f)] += 1
    return tuple(fv)


def h_from_f(fv):
    """Coefficients of sum_i f_{i-1} x^i (1-x)^(d-i), via explicit expansion."""
    d = len(fv) - 1
    h = [0] * (d + 1)
    for i, fi in enumerate(fv):
        # fi * x^i * (1-x)^(d-i)
        for k in range(d - i + 1):
            h[i + k] += fi * comb(d - i, k) * (-1) ** k
    return tuple(h)


def f_from_h(hv):
    """Inverse transform: sum_j h_j x^j (1+x)^(d-j)."""
    d = len(hv) - 1
    fv = [0] * (d + 1)
    for j, hj in enumerate(hv):
        for k in range(d - j + 1):
            fv[j + k] += hj * comb(d - j, k)
    return tuple(fv)


def reduced_euler(fv):
    return sum((-1) ** i * fi for i, fi in enumerate(fv)) * -1


def minimal_nonfaces(facets):
    """All inclusion-minimal non-faces, by scanning every vertex subset."""
    faces = close_downward(facets)
    vertices = sorted({v for f in facets for v in f})
    out = []
    for r in range(1, len(vertices) + 1):
        for sub in combinations(vertices, r):
            s = frozenset(sub)
            if s in faces:
                continue
            if all(s - {v} in faces for v in s):
                out.append(tuple(sorted(s)))
    return sorted(out, key=lambda t: (len(t), t))


def nonface_candidate_count(facets, flag_only=False):
    """Candidate sets the minimal-nonface search counts against its cap.

    Level c (from 2 up to the top facet size plus one) counts, for each face
    on c - 1 vertices, one candidate per label above its largest.  With
    flag_only the count ends at the first level c >= 3 that holds a minimal
    nonface, where the flag test has its answer.
    """
    faces = close_downward(facets)
    labels = sorted({v for f in facets for v in f})
    count = 0
    for c in range(2, max(len(f) for f in facets) + 2):
        count += sum(
            sum(1 for v in labels if v > max(f)) for f in faces if len(f) == c - 1
        )
        if flag_only and c >= 3 and any(
            s not in faces and all(s - {v} in faces for v in s)
            for s in map(frozenset, combinations(labels, c))
        ):
            break
    return count


def is_isomorphic(facets_a, facets_b):
    """Whether some vertex bijection carries facets onto facets, trying each one."""
    va = sorted({v for f in facets_a for v in f})
    vb = sorted({v for f in facets_b for v in f})
    if len(va) != len(vb):
        return False
    target = {frozenset(f) for f in facets_b}
    for image in permutations(vb):
        m = dict(zip(va, image))
        if {frozenset(m[v] for v in f) for f in facets_a} == target:
            return True
    return False


def strong_components(facets):
    """Partition equal-dimension facets by chains of codim-1 overlaps."""
    fs = [frozenset(f) for f in facets]
    n = len(fs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if len(fs[i]) == len(fs[j]) and len(fs[i] & fs[j]) == len(fs[i]) - 1:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(tuple(sorted(fs[i])))
    return sorted(sorted(g) for g in groups.values())


def is_pseudomanifold(facets):
    fs = [frozenset(f) for f in facets]
    if not fs:
        return False
    sizes = {len(f) for f in fs}
    if len(sizes) != 1:
        return False
    k = sizes.pop()
    if k == 0:
        return False
    for f in fs:
        for v in f:
            ridge = f - {v}
            if sum(1 for g in fs if ridge < g) != 2:
                return False
    return len(strong_components([tuple(f) for f in fs])) == 1


def rank_fraction(rows):
    """Row reduction over the rationals with Fraction arithmetic."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                factor = m[r][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def rank_mod(rows, p):
    m = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                factor = m[r][c]
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def boundary_matrices(facets):
    """Boundary matrices keyed by k, rows (k-1)-faces, cols k-faces, as lists."""
    faces = close_downward(facets)
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for k in by_dim:
        by_dim[k].sort()
    top = max(by_dim) if by_dim else -1
    out = {}
    for k in range(0, top + 1):
        rows = by_dim.get(k - 1, [])
        cols = by_dim.get(k, [])
        index = {f: i for i, f in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for j, f in enumerate(cols):
            for pos in range(len(f)):
                sub = f[:pos] + f[pos + 1 :]
                mat[index[sub]][j] = (-1) ** pos
        out[k] = mat
    return out


def betti_numbers(facets, characteristic):
    """Reduced Betti numbers beta_{-1..top} by rank-nullity over the field."""
    faces = close_downward(facets)
    if not faces:
        raise ValueError("void complex")
    top = max(len(f) for f in faces) - 1
    mats = boundary_matrices(facets)
    counts = {}
    for f in faces:
        counts[len(f) - 1] = counts.get(len(f) - 1, 0) + 1

    def rk(mat):
        if not mat or not mat[0]:
            return 0
        if characteristic == 0:
            return rank_fraction(mat)
        return rank_mod(mat, characteristic)

    ranks = {k: rk(mats[k]) for k in mats}
    ranks[top + 1] = 0
    betti = []
    for k in range(-1, top + 1):
        betti.append(counts.get(k, 0) - ranks.get(k, 0) - ranks.get(k + 1, 0))
    return tuple(betti)


def _ordered(faces):
    """Faces as sorted tuples, by (cardinality, label tuple)."""
    return sorted((tuple(sorted(f)) for f in faces), key=lambda t: (len(t), t))


def _link_betti(faces, sigma, characteristic):
    """Betti numbers of the link of sigma, built as a set of faces."""
    link = [f - sigma for f in faces if sigma <= f]
    return betti_numbers([tuple(sorted(f)) for f in link], characteristic)


def _reisner_witness(faces, characteristic):
    for sigma in _ordered(faces):
        betti = _link_betti(faces, frozenset(sigma), characteristic)
        for k in range(-1, len(betti) - 2):
            if betti[k + 1]:
                return {"face": sigma, "degree": k, "betti": betti[k + 1]}
    return None


def _sphere_witness(faces, characteristic, skip_empty):
    for sigma in _ordered(faces):
        if skip_empty and not sigma:
            continue
        betti = _link_betti(faces, frozenset(sigma), characteristic)
        top = len(betti) - 2
        for k in range(-1, top + 1):
            if betti[k + 1] != (1 if k == top else 0):
                return {"face": sigma, "degree": k, "betti": betti[k + 1]}
    return None


def is_cohen_macaulay(facets, characteristic):
    """Reisner witness (first face whose link has homology below its top
    degree), or None when the complex is Cohen-Macaulay."""
    return _reisner_witness(close_downward(facets), characteristic)


def is_m_cohen_macaulay(facets, m, characteristic):
    """Witness of the first vertex set W of size < m, in combinations order,
    whose deletion drops the dimension or is not Cohen-Macaulay; or None."""
    faces = close_downward(facets)
    top = max(len(f) for f in faces)
    vertices = sorted({v for f in faces for v in f})
    for size in range(m):
        for deleted in combinations(vertices, size):
            rest = {f for f in faces if not f & set(deleted)}
            if max(len(f) for f in rest) != top:
                return {"deleted": deleted, "defect": "dimension-drop"}
            inner = _reisner_witness(rest, characteristic)
            if inner is not None:
                return {"deleted": deleted, "defect": inner}
    return None


def is_homology_sphere(facets, characteristic):
    """First face (the empty one included) whose link lacks the homology of
    a sphere of its dimension, as a witness dict; or None."""
    return _sphere_witness(close_downward(facets), characteristic, False)


def is_homology_manifold(facets, characteristic):
    """As is_homology_sphere, over the nonempty faces only."""
    return _sphere_witness(close_downward(facets), characteristic, True)


def graph_is_connected(nodes, edges):
    nodes = list(nodes)
    if len(nodes) <= 1:
        return True
    adj = {u: set() for u in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)


def vertex_connectivity_bruteforce(nodes, edges):
    """Smallest vertex set whose removal disconnects; n-1 for complete graphs.

    Exponential; keep to graphs with at most 13 nodes.
    """
    nodes = sorted(nodes)
    n = len(nodes)
    if n < 2:
        raise ValueError("need two nodes")
    edge_set = {frozenset(e) for e in edges}
    if len(edge_set) == n * (n - 1) // 2:
        return n - 1, None
    for size in range(n - 1):
        for cut in combinations(nodes, size):
            rest = [u for u in nodes if u not in cut]
            kept = [e for e in edge_set if not (e & set(cut))]
            if len(rest) >= 2 and not graph_is_connected(rest, [tuple(e) for e in kept]):
                return size, tuple(cut)
    raise AssertionError("unreachable for non-complete graphs")


def nearest_min_vertex_cut(nodes, edges, s, t):
    """Among the minimum s-t vertex separators, the one whose component of s
    is smallest, as a sorted tuple; s and t must not be adjacent.

    Minimum cuts are closed under taking the smaller side, so this cut is
    unique; a tie raises.  Exponential; keep to graphs with at most 9 nodes.
    """
    adj = {u: set() for u in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if t in adj[s]:
        raise ValueError("s and t are adjacent")
    others = sorted(u for u in adj if u not in (s, t))
    for size in range(len(others) + 1):
        found = []
        for cut in combinations(others, size):
            gone = set(cut)
            side = {s}
            stack = [s]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in side and w not in gone:
                        side.add(w)
                        stack.append(w)
            if t not in side:
                found.append((len(side), cut))
        if found:
            found.sort()
            if len(found) > 1 and found[0][0] == found[1][0]:
                raise AssertionError("two nearest minimum cuts")
            return found[0][1]
    raise AssertionError("unreachable: removing every other node separates")


def max_flow_vertex_cut(nodes, edges, s, t):
    """(number of internally disjoint s-t paths, the minimum vertex cut
    nearest s as a sorted tuple); s and t must not be adjacent.

    Textbook augmenting-path max flow (BFS, one unit per path) on the split
    digraph: node v becomes ("in", v) -> ("out", v) with capacity 1, and
    each edge u-v becomes ("out", u) -> ("in", v) and back with capacity
    len(nodes), which no flow fills.  The flow runs from ("out", s) to
    ("in", t).  The cut is every v whose in-state the last, failed search
    reaches and whose out-state it does not.  Polynomial; fine up to a few
    hundred nodes.
    """
    big = len(nodes)
    cap = {}  # residual capacity: cap[a][b]
    for v in nodes:
        cap.setdefault(("in", v), {})[("out", v)] = 1
        cap.setdefault(("out", v), {})[("in", v)] = 0
    for u, v in edges:
        if {u, v} == {s, t}:
            raise ValueError("s and t are adjacent")
        for a, b in ((u, v), (v, u)):
            cap[("out", a)][("in", b)] = big
            cap[("in", b)].setdefault(("out", a), 0)
    source, sink = ("out", s), ("in", t)

    def search():
        parent = {source: None}
        queue = [source]
        for a in queue:
            for b, c in cap[a].items():
                if c > 0 and b not in parent:
                    parent[b] = a
                    queue.append(b)
        return parent

    flow = 0
    while True:
        parent = search()
        if sink not in parent:
            break
        b = sink
        while parent[b] is not None:
            a = parent[b]
            cap[a][b] -= 1
            cap[b][a] += 1
            b = a
        flow += 1
    cut = tuple(sorted(v for v in nodes if ("in", v) in parent and ("out", v) not in parent))
    return flow, cut


def barycentric_counts(facets):
    """(vertex count, facet count) of the barycentric subdivision."""
    faces = close_downward(facets) - {frozenset()}
    nfacets = 0
    fs = [frozenset(f) for f in facets]
    maximal = [f for f in fs if not any(f < g for g in fs)]
    for f in maximal:
        nfacets += factorial(len(f))
    return len(faces), nfacets


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def parse_facet_lines(lines):
    """Facets of a facet file, read one line and one token at a time; a
    string is split at universal newlines, like a file opened in text mode.
    A refused line raises ValueError with the message the CLI prints, where
    text past 40 characters is cut to 20 and its length."""
    if isinstance(lines, str):
        lines = io.StringIO(lines, newline=None)
    facets = []
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens == ["*"]:
            facets.append(())
            continue
        labels = []
        for token in tokens:
            digits = token[1:] if token.startswith("-") else token
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError(token)
                labels.append(int(token))  # ValueError past int()'s limit on digits
            except ValueError:
                shown = repr(token) if len(token) <= 40 else f"{token[:20] + '…'!r} ({len(token)} characters)"
                raise ValueError(f"line {lineno}: {shown} is not an integer label") from None
            if labels[-1] < 0:
                shown = repr(labels[-1])
                shown = shown if len(shown) <= 40 else f"{shown[:20]}… ({len(shown)} characters)"
                raise ValueError(f"line {lineno}: negative label {shown}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"line {lineno}: repeated label in facet")
        facets.append(tuple(sorted(labels)))
    return facets
