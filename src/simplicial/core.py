"""Finite abstract simplicial complexes with exact face calculus.

A complex is stored by its facets (inclusion-maximal faces); every other
face is implied by downward closure.  Vertices carry arbitrary nonnegative
integer labels externally and are packed into bitmask positions internally,
so subset tests are single integer operations; ``_mask_of`` is the one gate
for the labels a caller passes, in every module.  The constructor checks
the labels of all faces once, in bulk, and runs ``_validate_face`` face by
face only to name the first bad face.  The void complex (no faces
at all) and the empty complex (only the empty face) are distinct values.

All operations are deterministic: faces are ordered by (cardinality, label
tuple) and every reported witness is the first one in that order.

A complex never changes after construction, so everything derived from it
is computed once, on first use, and kept in one memo dict per complex:
face levels, links, verdicts and link Betti values.  The constructor sets
three entries itself: the facets as label tuples, the dimension and purity.
The memo takes no lock: the package starts no threads, and two threads
racing on one entry would only build it twice.

The faces live in one memo entry, the face index: the clique walk's level
dicts, where entry c maps each face on c vertices, as a mask in label-tuple
order, to its facet bitset (bit i set when the i-th facet holds the face).
Other modules read only the keys, or facet masks: ``_over`` reads the bitset
over a face mask, 0 for a nonface, for ``has_face`` and ``_star`` (the
facets over a face mask: links and t2's facet flips), and ``_strong_search``
(the face-avoiding walk and the flag walk's link components, facet to facet
across shared ridges), the greedy ``_shelling_order``, the pseudomanifold
test and strong components, one union-find pass over each facet size's
ridges, read the ridge level.

Vertex adjacency and incidence are read straight off the facet list: each
vertex has the mask of its neighbours in the 1-skeleton and the facet
bitset of the facets through it.  One walk over the cliques that extend
faces builds the face levels and decides flagness: each face carries the
AND of its vertices' facet bitsets and the common neighbours of its
vertices above its top label (an AND of masks); each of them gives a
candidate one vertex larger, which is a face exactly when its face's facets
meet the new vertex's, and a minimal nonface when it is not but its
one-smaller subsets are in the previous level.  Each level comes out in
label-tuple order with no sort, and the flag test stops at its first
minimal nonface.  A walk that only lists faces cuts a face's candidates
down to its star at its first miss, so on any input it tests little more
than the faces it keeps.  Started from a face sigma, the walk lists the
faces of lk(sigma) alike, and charges no cap.  The isomorphism search reads
adjacency off the neighbour masks too.  In a flag complex the link of a
face is the clique complex of the graph induced on the common neighbours of
its vertices, so t2 walks link circles on these masks and builds no link
complex.  The flag walk takes link components from the facet search, and
builds a complex of one only for a detour's recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, groupby, repeat
from math import comb
from operator import and_, or_
from typing import Iterable, Iterator

from .errors import InputError, InternalInvariantError, ResourceLimitError

Face = tuple[int, ...]

# Cap on the candidates an enumeration examines: candidate nonfaces in the
# flag test, deleted vertex sets in the m-Cohen-Macaulay test.
DEFAULT_CANDIDATE_CAP = 1 << 22


@dataclass(frozen=True)
class Verdict:
    """Outcome of a yes/no classification with a witness for the "no" side.

    ``witness`` is a JSON-friendly object (face, pair, dict) describing the
    first counterexample in deterministic order; empty when ``ok``.
    """

    ok: bool
    witness: object = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class _Counts:
    counts: tuple[int, ...]

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, i):
        return self.counts[i]

    def __len__(self):
        return len(self.counts)


@dataclass(frozen=True)
class FVector(_Counts):
    """Face counts (f_{-1}, f_0, ..., f_{d-1}); f_{-1} counts the empty face."""


@dataclass(frozen=True)
class HVector(_Counts):
    """The h-vector (h_0, ..., h_d) obtained from the f-vector.

    The two encode the same data: sum_i h_i x^i equals
    sum_i f_{i-1} x^i (1-x)^(d-i), expanded over the integers.
    """


@dataclass(frozen=True)
class StrongComponents:
    """Partition of the facets into strong components.

    Two facets are in one component when they are joined by a chain of
    facets in which consecutive entries share a face of codimension one in
    both.  Only equal-dimension facets can ever be chained, so a complex
    with a single component is necessarily pure.
    """

    components: tuple[tuple[Face, ...], ...]

    @property
    def count(self) -> int:
        return len(self.components)


def _is_label(v) -> bool:
    """Whether v is a vertex label: an int.  1.0 and True, equal to 1, are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def _incidence_of(faces: Iterable[Face], masks: Iterable[int], pos: dict) -> tuple[list, list]:
    """Vertex position -> the bitset of the faces through the vertex (bit j for
    the j-th face), and -> the OR of their masks; pos maps labels to positions."""
    inc, union = [0] * len(pos), [0] * len(pos)
    for j, (f, m) in enumerate(zip(faces, masks)):
        bit = 1 << j
        for v in f:
            i = pos[v]
            inc[i] |= bit
            union[i] |= m
    return inc, union


def _validate_face(face: Iterable[int]) -> Face:
    out = tuple(face)
    for v in out:
        if type(v) is not int and not _is_label(v):
            raise InputError(f"vertex label {v!r} is not an integer")
        if v < 0:
            raise InputError(f"vertex label {v} is negative")
    if len(set(out)) != len(out):
        raise InputError(f"face {sorted(out)} repeats a vertex")
    return tuple(sorted(out))


class SimplicialComplex:
    """Immutable simplicial complex defined by a collection of faces.

    The constructor accepts any collection of faces, keeps the maximal
    ones, and treats everything below them as present.  Pass an empty
    collection for the void complex and ``[[]]`` for the empty complex.
    """

    __slots__ = ("_labels", "_pos", "_facet_masks", "_memo")

    def __init__(self, facets: Iterable[Iterable[int]] = ()):
        given, error = [], None  # given keeps the faces read before a TypeError
        try:  # all faces at once: int labels, the least >= 0, no face repeating one
            given.extend(map(tuple, facets))
            faces = list(map(tuple, map(sorted, given)))
            labels = sorted(set(chain.from_iterable(faces)))
            bit = {v: 1 << i for i, v in enumerate(labels)}
            masks = list(map(sum, map(map, repeat(bit.__getitem__), faces)))  # OR unless a label repeats
            # the types of every label, not of the set, where 1 hides an equal True
            ok = ((set(map(type, chain.from_iterable(faces))) <= {int}
                   or all(map(_is_label, chain.from_iterable(faces))))
                  and (not labels or labels[0] >= 0)
                  and list(map(int.bit_count, masks)) == list(map(len, faces)))
        except TypeError as e:  # unorderable or unhashable labels, or a face not iterable
            error, ok = e, False
        if not ok:  # name the first bad face as _validate_face does, in input order
            list(map(_validate_face, given))
            raise error or InternalInvariantError("faces refused in bulk pass one by one")
        self._labels: tuple[int, ...] = tuple(labels)
        self._pos = {v: i for i, v in enumerate(labels)}
        by_mask = dict(zip(masks, faces))
        kept = sorted(by_mask, key=by_mask.__getitem__)  # by the validated label tuples
        top = max(map(int.bit_count, kept), default=0)  # each face of the top size is maximal
        if any(m.bit_count() < top for m in kept):
            # and so is a smaller face that is the only face through all of its vertices
            inc = _incidence_of(map(by_mask.__getitem__, kept), kept, self._pos)[0]
            kept = [m for j, m in enumerate(kept) if m.bit_count() == top
                    or reduce(and_, (inc[b.bit_length() - 1] for b in self._bits(m)), -1) == 1 << j]
        self._facet_masks: tuple[int, ...] = tuple(kept)
        facet_tuples = tuple(map(by_mask.__getitem__, kept))
        sizes = set(map(len, facet_tuples))
        self._memo: dict = {"facets": facet_tuples, "dimension": max(sizes, default=0) - 1,
                            "pure": len(sizes) <= 1}

    # -- representation helpers -------------------------------------------

    def _mask_of(self, face: Iterable[int]) -> int | None:
        """Bitmask of a set of labels; None if one is no label (``_is_label``) or no vertex."""
        m = 0
        for v in face:
            i = self._pos.get(v) if type(v) is int or _is_label(v) else None
            if i is None:
                return None
            m |= 1 << i
        return m

    def _labels_of(self, mask: int) -> Face:
        out = []
        while mask:
            low = mask & -mask
            out.append(self._labels[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def _memoized(self, key, build):
        """The memo entry under key, built on first use."""
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = build()
        return hit

    # -- basic queries ------------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self._facet_masks

    @property
    def is_empty_complex(self) -> bool:
        """True when the only face is the empty face."""
        return self._facet_masks == (0,)

    @property
    def dimension(self) -> int:
        """Largest face dimension; -1 for both the empty and void complexes."""
        return self._memo["dimension"]

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._labels

    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def facets(self) -> tuple[Face, ...]:
        return self._memo["facets"]

    @property
    def is_pure(self) -> bool:
        """All facets share one dimension (vacuously true without facets)."""
        return self._memo["pure"]

    def has_face(self, face: Iterable[int]) -> bool:
        return bool(self._over(self._mask_of(_validate_face(face))))

    # facet masks are in label order and positions follow the labels, so equal
    # complexes have equal pairs; void ((), ()) differs from empty ((), (0,))
    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self._labels, self._facet_masks) == (other._labels, other._facet_masks)

    def __hash__(self) -> int:
        return hash((self._labels, self._facet_masks))

    def __repr__(self) -> str:
        if self.is_void:
            return "SimplicialComplex(void)"
        return (
            f"SimplicialComplex(dim={self.dimension}, "
            f"vertices={self.num_vertices}, facets={len(self._facet_masks)})"
        )

    # -- the face index and the face levels -----------------------------------

    def _face_index(self) -> list[dict[int, int]]:
        """The face levels of the module docstring, from one clique walk that
        lists faces only, or kept by a flag test that passed."""
        top = self.dimension + 1
        return self._memoized("faces", lambda: list(self._clique_walk(top, star=True)))

    def _over(self, m: int | None) -> int:
        """The facet bitset over face mask m; 0 for a nonface, or for None,
        the mask of a set with a label that is not a vertex."""
        levels = self._face_index()
        if m is None or m.bit_count() >= len(levels):
            return 0
        return levels[m.bit_count()].get(m, 0)

    def _star(self, m: int | None) -> list[int] | None:
        """The facet masks over face mask m in facet order; None for a nonface."""
        fac = self._over(m)
        return self._facets_of(fac) if fac else None

    def _faces_masks(self, k: int) -> dict[int, int]:
        """The faces of dimension k, ordered by label tuple, as the keys of
        their level."""
        levels = self._face_index()
        return levels[k + 1] if 0 <= k + 1 < len(levels) else {}

    def faces(self, k: int) -> tuple[Face, ...]:
        """All faces of dimension k, ordered by label tuple.

        Out-of-range k yields an empty tuple; k = -1 yields the empty face
        for any non-void complex.
        """
        return tuple(self._labels_of(m) for m in self._faces_masks(k))

    def num_faces(self, k: int) -> int:
        return len(self._faces_masks(k))

    def all_faces(self) -> Iterator[Face]:
        """Every face including the empty one, by (dimension, label tuple)."""
        for k in range(-1, self.dimension + 1):
            yield from self.faces(k)

    # -- f- and h-vectors ------------------------------------------------------

    def f_vector(self) -> FVector:
        if self.is_void:
            raise InputError("the void complex has no f-vector")
        return FVector(tuple(self.num_faces(k) for k in range(-1, self.dimension + 1)))

    def h_vector(self) -> HVector:
        """Integer h-vector; refuses the void complex like f_vector."""
        f = self.f_vector().counts
        d = self.dimension + 1
        counts = []
        for j in range(d + 1):
            acc = 0
            for i in range(j + 1):
                term = comb(d - i, j - i) * f[i]
                acc += term if (j - i) % 2 == 0 else -term
            counts.append(acc)
        return HVector(tuple(counts))

    def reduced_euler_characteristic(self) -> int:
        f = self.f_vector().counts
        return sum(c if i % 2 == 1 else -c for i, c in enumerate(f))

    # -- derived complexes ---------------------------------------------------

    def link(self, face: Iterable[int]) -> "SimplicialComplex":
        """Faces that extend the given one, with the face itself stripped."""
        f = _validate_face(face)
        m = self._mask_of(f)
        over = self._star(m)
        if over is None:
            raise InputError(f"{list(f)} is not a face of this complex")
        if m == 0:
            return self
        return self._memoized(
            ("link", m), lambda: SimplicialComplex(self._labels_of(fm & ~m) for fm in over)
        )

    def delete(self, points: Iterable[int]) -> "SimplicialComplex":
        """Subcomplex of faces disjoint from the given vertex set.

        Labels that are not vertices of the complex are ignored.
        """
        points = tuple(points)
        for v in points:  # the first bad label in the caller's order
            if not _is_label(v) or v < 0:
                raise InputError(f"vertex label {v!r} is not a nonnegative integer")
        m = self._mask_of(v for v in points if v in self._pos)
        if m == 0:
            return self
        return SimplicialComplex([self._labels_of(fm & ~m) for fm in self._facet_masks])

    # -- the clique walk: face levels, minimal nonfaces and flagness -----------

    def _clique_walk(self, top: int, sigma: int = 0, cap=None, star: bool = False) -> Iterator:
        """Yield, for c = 0 up to top, the faces on c vertices of lk(sigma), a
        dict from face mask to facet bitset in label-tuple order; sigma = 0,
        the empty face, gives the complex itself.  Unless star is set, the
        walk also yields each minimal nonface on c >= 3 vertices as a bare
        mask, in label-tuple order, as soon as it is found, before the level
        it was tested for.

        Level c grows from level c - 1.  Level 0, the empty face, carries the
        facets over sigma and the common neighbours of sigma's vertices.
        Each face carries the facets over it and sigma, the AND of its
        vertices' facet bitsets, and the common neighbours of its vertices
        above its top bit; each bit of that mask, in increasing order, gives a
        candidate, so the level comes out in label-tuple order.  A candidate
        is a face exactly when the face's facets meet those through the new
        vertex; it carries their AND and the rest of the mask ANDed with the
        new vertex's neighbours.

        A walk without star tests every candidate: one that is no face is a
        minimal nonface when every subset one vertex smaller is in the
        previous level.  Past two vertices every face and every minimal
        nonface is a clique, so none is missed; the non-edges are not listed.
        Before level c >= 2 is built, each face on c - 1 vertices is charged
        n - top_bit candidates against cap, as if it were extended by every
        higher label; cap None charges nothing.  A walk with star set lists
        faces only: at a face's first candidate that is no face, it cuts the
        rest down to the face's star, the OR of the facets over it, and every
        candidate left is a face.  A flag complex never gets there.
        """
        n = len(self._labels)
        inc, nbrs = self._incidence()
        fac, ext = (1 << len(self._facet_masks)) - 1, (1 << n) - 1 & ~sigma
        for b in self._bits(sigma):
            fac &= inc[b.bit_length() - 1]
            ext &= nbrs[b.bit_length() - 1]
        level = {0: fac} if fac else {}
        exts = [ext] * len(level)
        examined = 0
        yield level
        for c in range(1, top + 1):
            if c > 1 and cap is not None:  # the vertices are not charged
                charge = n * len(level) - sum(map(int.bit_length, level))
                examined += charge
                if charge and examined > cap:
                    raise ResourceLimitError(
                        f"minimal nonface search exceeded {cap} candidate sets"
                    )
            faces, face_exts = {}, []
            for (f, fac), ext in zip(level.items(), exts):
                while ext:
                    new = ext & -ext
                    ext ^= new
                    i = new.bit_length() - 1
                    if over := fac & inc[i]:
                        faces[f | new] = over
                        face_exts.append(ext & nbrs[i])
                    elif star:
                        ext &= reduce(or_, self._facets_of(fac))
                    elif all(f ^ b | new in level for b in self._bits(f)):
                        yield f | new
            level, exts = faces, face_exts
            yield level

    @staticmethod
    def _bits(mask: int) -> list[int]:
        out = []
        while mask:
            low = mask & -mask
            out.append(low)
            mask ^= low
        return out

    def _facets_of(self, fac: int) -> list[int]:
        """The facet masks of a facet bitset, in facet order."""
        return [self._facet_masks[b.bit_length() - 1] for b in self._bits(fac)]

    def _facets_over(self, m: int) -> int:
        """How many facets hold m, counted on the plain facet list."""
        return sum(m & fm == m for fm in self._facet_masks)

    def minimal_nonfaces(self, cap: int = DEFAULT_CANDIDATE_CAP) -> tuple[Face, ...]:
        """All minimal nonfaces, ordered by (cardinality, label tuple)."""

        def build():
            walk = self._clique_walk(self.dimension + 2, cap=cap)
            higher = [m for m in walk if isinstance(m, int)]
            n = len(self._labels)
            pairs = []  # the non-edges, read off the neighbour masks
            for i, nbr in enumerate(self._neighbour_masks()):
                pairs += (1 << i | b for b in self._bits(~nbr & (1 << n) - (2 << i)))
            return tuple(self._labels_of(m) for m in pairs + higher)

        return self._memoized("nonfaces", build)

    def is_flag(self, cap: int = DEFAULT_CANDIDATE_CAP) -> Verdict:
        """Whether every minimal nonface has at most two vertices.

        Equivalently the complex is the clique complex of its own graph.
        The witness on failure is the first minimal nonface with three or
        more vertices, where the walk stops, re-checked against the facet
        list.  A complex that passes has had every face level walked, and
        keeps the levels as its face index.
        """

        def build():
            levels = []
            for item in self._clique_walk(self.dimension + 2, cap=cap):
                if isinstance(item, dict):
                    levels.append(item)
                    continue
                nf = self._labels_of(item)  # the first minimal nonface
                smaller = (item ^ b for b in self._bits(item))
                if self._facets_over(item) or not all(map(self._facets_over, smaller)):
                    raise InternalInvariantError(f"{list(nf)} is no minimal nonface")
                return Verdict(False, witness=nf, reason="minimal nonface with 3 or more vertices")
            # the last level walked, on dimension + 2 vertices, holds no face
            self._memo.setdefault("faces", levels[:-1])
            return Verdict(True)

        return self._memoized("flag", build)

    # -- incidence and adjacency, read off the facet list -----------------------

    def _incidence(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Vertex position -> the facet bitset of the facets through it, and
        vertex position -> bitmask of the other vertices of those facets."""

        def build():
            inc, nbrs = _incidence_of(self.facets, self._facet_masks, self._pos)
            return tuple(inc), tuple(m ^ 1 << i for i, m in enumerate(nbrs))

        return self._memoized("incidence", build)

    def _neighbour_masks(self) -> tuple[int, ...]:
        """Vertex position -> bitmask of the other vertices of its facets."""
        return self._incidence()[1]

    # -- the facet search: strong components and pseudomanifolds --------------

    def _strong_search(self, m: int, keep: int = 0, avoid: int = 0) -> Iterator[tuple]:
        """Breadth-first search over facets joined through shared ridges,
        from the facets over face mask m, all of one size.

        One step goes from a facet f to the other facets of f's size over
        f ^ b, for each vertex bit b of f outside keep, and never enters a
        facet that meets avoid; the facets one step finds are entered in
        facet order.  Yields (facet, the facet it was entered from or None)
        in visit order; a caller may stop early.
        """
        levels, masks, over = self._face_index(), self._facet_masks, self._over(m)
        seen = reduce(or_, (levels[1][b] for b in self._bits(avoid)), 0)
        queue = self._facets_of(over & ~seen)
        seen |= over
        size = queue[0].bit_count() if queue else 0
        ridges = levels[size - 1]  # read only when the facets have vertices
        for f in queue[:]:
            yield f, None
        for f in queue:
            found, rest = 0, f & ~keep
            while rest:  # each vertex bit b of rest, for the ridge f ^ b
                b = rest & -rest
                rest ^= b
                found |= ridges[f ^ b]
            found &= ~seen
            seen |= found
            while found:  # in facet order
                low = found & -found
                found ^= low
                g = masks[low.bit_length() - 1]
                if g.bit_count() == size:
                    queue.append(g)
                    yield g, f

    def _shelling_order(self) -> list[int] | None:
        """The facet masks of a pure complex in a shelling order, or None.
        Facets sharing a ridge with shelled ones queue in the order met, and
        one whose restriction R(F), the v with F - v in a shelled facet, lies
        in no shelled facet is shelled.  One that fails is queued again only
        once a neighbour is shelled: R(F) grows only then, and other shelled
        facets can only contain it.  So it is tried at most once per neighbour."""
        if not self.is_pure:
            return None
        levels, d = self._face_index(), self.dimension + 1
        facets, ridges = levels[d], levels[d - 1]
        queue = list(self._facet_masks[:1])  # read first in, first out
        queued, shelled, order = 1, 0, []  # facet bitsets; a facet's own is facets[f]
        for f in queue:
            queued ^= facets[f]
            bits = self._bits(f)
            rest = sum(b for b in bits if ridges[f ^ b] & shelled)
            if levels[rest.bit_count()][rest] & shelled:
                continue
            shelled |= facets[f]
            order.append(f)
            for b in bits:
                new = ridges[f ^ b] & ~(queued | shelled)
                queued |= new
                queue.extend(self._facets_of(new))
        return order if len(order) == len(self._facet_masks) else None

    def strong_components(self) -> StrongComponents:
        """Group facets by chains of codimension-one (in both) overlaps."""
        return self._memoized("strong", self._compute_strong)

    def _compute_strong(self) -> StrongComponents:
        # union-find on facet positions, one pass over the ridge level per facet
        # size, linking the facets of that size over each ridge; a root is linked
        # under a lower one, so no parent is above its child and each root is its
        # component's first facet.  Grouped in facet order, which is label order,
        # a component comes out sorted; all are sorted by (size, first facet).
        levels, facets, masks = self._face_index(), self.facets, self._facet_masks
        parent = list(range(len(facets)))
        for size in set(map(int.bit_count, masks)) - {0}:  # the empty facet has no ridge
            own = sum(1 << i for i, m in enumerate(masks) if m.bit_count() == size)
            for fac in levels[size - 1].values():
                fac &= own
                low = fac & -fac
                fac ^= low
                if not fac:  # no second facet of this size over the ridge
                    continue
                a = low.bit_length() - 1
                while a != parent[a]:
                    parent[a] = a = parent[parent[a]]  # path halving
                while fac:
                    low = fac & -fac
                    fac ^= low
                    b = low.bit_length() - 1
                    while b != parent[b]:
                        parent[b] = b = parent[parent[b]]
                    if a < b:
                        parent[b] = a
                    elif b < a:
                        parent[a] = a = b
        for i, p in enumerate(parent):  # parent[p] is a root already, as p <= i
            parent[i] = parent[p]
        by_root = sorted(range(len(facets)), key=parent.__getitem__)  # stable: facet order
        comps = [tuple(map(facets.__getitem__, same))
                 for _, same in groupby(by_root, parent.__getitem__)]
        comps.sort(key=lambda c: (len(c[0]), c[0]))
        return StrongComponents(components=tuple(comps))

    def is_pseudomanifold(self) -> Verdict:
        """Strongly connected and every ridge (codimension one in each
        facet) in exactly two facets.

        Defined here for any dimension >= 0; at dimension 0 the only ridge
        is the empty face, so the test asks for exactly two vertices.  The
        void and empty complexes are rejected outright.
        """
        return self._memoized("pm", self._compute_pm)

    def _compute_pm(self) -> Verdict:
        if self.dimension < 0:
            return Verdict(False, reason="void or empty complex")
        sc = self.strong_components()
        if sc.count != 1:
            return Verdict(
                False,
                witness={"strong_components": sc.count},
                reason="not strongly connected",
            )
        # strongly connected, hence pure: every face one vertex short of the
        # facets is a ridge, and every facet over it shares it
        for rm, fac in self._face_index()[self.dimension].items():
            count = fac.bit_count()
            if count != 2:
                if self._facets_over(rm) == 2:  # recounted on the facet list
                    raise InternalInvariantError(f"{list(self._labels_of(rm))} lies in 2 facets")
                return Verdict(
                    False,
                    witness={"ridge": self._labels_of(rm), "facet_count": count},
                    reason="a codimension-two face is not in exactly two facets",
                )
        return Verdict(True)


def build_complex(facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Build a complex from a collection of faces (maximal ones are kept)."""
    return SimplicialComplex(facets)


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes on disjoint ground sets: pairwise facet unions."""
    overlap = set(a.vertices) & set(b.vertices)
    if overlap:
        raise InputError(f"ground sets overlap on {sorted(overlap)}")
    return SimplicialComplex([fa + fb for fa in a.facets for fb in b.facets])
