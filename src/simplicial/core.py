"""Finite abstract simplicial complexes with exact face calculus.

A complex is stored by its facets (inclusion-maximal faces); every other
face is implied by downward closure.  Vertices carry arbitrary nonnegative
integer labels externally and are packed into bitmask positions internally,
so subset tests are single integer operations.  The void complex (no faces
at all) and the empty complex (only the empty face) are distinct values.

All operations are deterministic: faces are ordered by (cardinality, label
tuple) and every reported witness is the first one in that order.

A complex never changes after construction, so everything derived from it
is computed once, on first use, and kept in one memo dict per complex:
face levels, links, verdicts, link Betti values, and the facet positions.
The memo takes no lock: the package starts no threads, and two threads
racing on one entry would only build it twice.

Face-facet incidence lives in one memo entry, the face index, which maps
every face mask, the empty face included, to the facets over it.  A set is
a face exactly when it is a key (``has_face``, the clique walk), a link is
read off the facets over its face, and the pseudomanifold test and t2's
facet flips read the facets over a ridge.  Strong components, the
face-avoiding walk and the flag walk's link components come from one facet
search over it, from facet to facet across shared ridges.

Vertex adjacency lives in a second memo entry, the graph index, which maps
each vertex to the bitmask of its neighbours in the 1-skeleton.  One walk
over the cliques that extend faces builds the face levels and decides
flagness: each face carries the common neighbours of its vertices above
its top label (an AND of masks), each of them gives a candidate one vertex
larger, and a candidate is a face when the face index holds it and a
minimal nonface when it does not but its one-smaller subsets are faces.
Each level comes out in label-tuple order with no sort, and the flag test
stops at its first level with a minimal nonface.  Started from a face
sigma, the walk lists the faces of lk(sigma) alike, and charges no cap.
The isomorphism search reads adjacency off the graph index too.  In a flag
complex the link of a face is the clique complex of the graph induced on
the common neighbours of its vertices, so t2 walks link circles on these
masks and the flag walk takes link components from the face index:
neither builds a link complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from math import comb, inf
from operator import or_
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
class FVector:
    """Face counts (f_{-1}, f_0, ..., f_{d-1}); f_{-1} counts the empty face."""

    counts: tuple[int, ...]

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, i):
        return self.counts[i]

    def __len__(self):
        return len(self.counts)


@dataclass(frozen=True)
class HVector:
    """The h-vector (h_0, ..., h_d) obtained from the f-vector.

    The two encode the same data: sum_i h_i x^i equals
    sum_i f_{i-1} x^i (1-x)^(d-i), expanded over the integers.
    """

    counts: tuple[int, ...]

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, i):
        return self.counts[i]

    def __len__(self):
        return len(self.counts)


@dataclass(frozen=True)
class StrongComponents:
    """Partition of the facets into strong components, plus a purity flag.

    Two facets are in one component when they are joined by a chain of
    facets in which consecutive entries share a face of codimension one in
    both.  Only equal-dimension facets can ever be chained, so a complex
    with a single component is necessarily pure.
    """

    components: tuple[tuple[Face, ...], ...]
    pure: bool

    @property
    def count(self) -> int:
        return len(self.components)


def _validate_face(face: Iterable[int]) -> Face:
    out = []
    for v in face:
        if isinstance(v, bool) or not isinstance(v, int):
            raise InputError(f"vertex label {v!r} is not an integer")
        if v < 0:
            raise InputError(f"vertex label {v} is negative")
        out.append(v)
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
        faces = [_validate_face(f) for f in facets]
        labels = sorted({v for f in faces for v in f})
        self._labels: tuple[int, ...] = tuple(labels)
        self._pos = {v: i for i, v in enumerate(labels)}
        masks = sorted({self._mask_of(f) for f in faces}, key=int.bit_count)
        maximal: list[int] = []
        # scan from large to small; two distinct faces of one size never hold
        # each other, so a face is tested only against the strictly larger ones
        for _, same_size in groupby(reversed(masks), key=int.bit_count):
            larger = tuple(maximal)
            maximal.extend(m for m in same_size if not any(m & big == m for big in larger))
        maximal.sort(key=self._labels_of)
        self._facet_masks: tuple[int, ...] = tuple(maximal)
        self._memo: dict = {}

    # -- representation helpers -------------------------------------------

    def _mask_of(self, face: Iterable[int]) -> int | None:
        """Bitmask for a validated face, or None if a label is unknown."""
        m = 0
        for v in face:
            i = self._pos.get(v)
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
        return max((m.bit_count() for m in self._facet_masks), default=0) - 1

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._labels

    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def facets(self) -> tuple[Face, ...]:
        return tuple(self._labels_of(m) for m in self._facet_masks)

    @property
    def is_pure(self) -> bool:
        """All facets share one dimension (vacuously true without facets)."""
        return len({m.bit_count() for m in self._facet_masks}) <= 1

    def has_face(self, face: Iterable[int]) -> bool:
        return self._mask_of(_validate_face(face)) in self._face_index()

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

    def _face_index(self) -> dict[int, list[int]]:
        """Face mask -> the facet masks over it, in facet order.

        Every face is a key, the empty face included; the void complex has
        no keys.
        """

        def build():
            index = {0: list(self._facet_masks)} if self._facet_masks else {}
            for fm in self._facet_masks:
                sub = fm
                while sub:
                    index.setdefault(sub, []).append(fm)
                    sub = (sub - 1) & fm
            return index

        return self._memoized("face_index", build)

    def _faces_masks(self, k: int) -> tuple[int, ...]:
        """The faces of dimension k, ordered by label tuple, as the clique
        walk builds them; a flag test that passed has kept them already."""

        def build():
            return tuple(level for level, _ in self._clique_walk(inf, self.dimension + 1))

        levels = self._memoized("face_levels", build)
        return levels[k + 1] if 0 <= k + 1 < len(levels) else ()

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
        over = self._face_index().get(m)
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
        pts = set(points)
        for v in pts:
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise InputError(f"vertex label {v!r} is not a nonnegative integer")
        m = 0
        for v in pts:
            i = self._pos.get(v)
            if i is not None:
                m |= 1 << i
        if m == 0:
            return self
        return SimplicialComplex([self._labels_of(fm & ~m) for fm in self._facet_masks])

    # -- the clique walk: face levels, minimal nonfaces and flagness -----------

    def _clique_walk(self, cap: float, top: int, sigma: int = 0) -> Iterator[tuple]:
        """Yield, for c = 0 up to top, the faces on c vertices and the minimal
        nonfaces on c >= 3 vertices of lk(sigma), each in label-tuple order;
        sigma = 0, the empty face, gives the complex itself.

        Level c grows from level c - 1, and level 0, the empty face, carries
        the vertices of lk(sigma): those of the facets over sigma, outside it.
        Each face carries the common neighbours of its vertices above its top
        bit, and each bit of that mask, in increasing order, gives a
        candidate; positions follow labels, so the level comes out in
        label-tuple order.  A candidate whose union with sigma is in the face
        index is a face and carries the rest of the mask ANDed with the new
        vertex's neighbours.  One outside it is a minimal nonface when every
        subset one vertex smaller is a face.  Past two vertices every face and
        every minimal nonface is a clique, so none is missed; the non-edges
        are not listed.  Before level c >= 2 is built, each face on c - 1
        vertices is charged n - top_bit candidates against cap, as if it were
        extended by every higher label; cap = inf, as in link walks, charges
        nothing.
        """
        n = len(self._labels)
        nbrs = self._neighbour_masks()
        index = self._face_index()
        over = index.get(sigma, ())
        level = (0,) if over else ()
        exts = [reduce(or_, over, 0) & ~sigma] * len(level)
        nonfaces: list[int] = []
        examined = 0
        yield level, nonfaces
        for c in range(1, top + 1):
            if c > 1 and cap < inf:  # the vertices are not charged, nor uncapped walks
                charge = n * len(level) - sum(map(int.bit_length, level))
                examined += charge
                if charge and examined > cap:
                    raise ResourceLimitError(
                        f"minimal nonface search exceeded {cap} candidate sets"
                    )
            faces, face_exts, nonfaces = [], [], []
            for f, ext in zip(level, exts):
                while ext:
                    new = ext & -ext
                    ext ^= new
                    sm = f | new
                    if sm | sigma in index:
                        faces.append(sm)
                        face_exts.append(ext & nbrs[new.bit_length() - 1])
                        continue
                    rest = f
                    while rest:
                        b = rest & -rest
                        rest ^= b
                        if sm ^ b | sigma not in index:
                            break
                    else:
                        nonfaces.append(sm)
            level, exts = tuple(faces), face_exts
            yield level, nonfaces

    @staticmethod
    def _bits(mask: int) -> list[int]:
        out = []
        while mask:
            low = mask & -mask
            out.append(low)
            mask ^= low
        return out

    def _facets_over(self, m: int) -> int:
        """How many facets hold m, counted on the plain facet list."""
        return sum(m & fm == m for fm in self._facet_masks)

    def minimal_nonfaces(self, cap: int = DEFAULT_CANDIDATE_CAP) -> tuple[Face, ...]:
        """All minimal nonfaces, ordered by (cardinality, label tuple)."""

        def build():
            walk = self._clique_walk(cap, self.dimension + 2)
            higher = [m for _, level in walk for m in level]
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
        more vertices, re-checked against the facet list.  A complex that
        passes has had every face level walked, and keeps them.
        """

        def build():
            levels = []
            for level, nonfaces in self._clique_walk(cap, self.dimension + 2):
                if nonfaces:
                    m = nonfaces[0]
                    nf = self._labels_of(m)
                    smaller = (m ^ b for b in self._bits(m))
                    if self._facets_over(m) or not all(map(self._facets_over, smaller)):
                        raise InternalInvariantError(f"{list(nf)} is no minimal nonface")
                    return Verdict(
                        False, witness=nf, reason="minimal nonface with 3 or more vertices"
                    )
                levels.append(level)
            # the last level walked, on dimension + 2 vertices, holds no face
            self._memo.setdefault("face_levels", tuple(levels[:-1]))
            return Verdict(True)

        return self._memoized("flag", build)

    # -- the graph index -------------------------------------------------------

    def _neighbour_masks(self) -> tuple[int, ...]:
        """Vertex position -> bitmask of the other vertices of its facets."""

        def build():
            index = self._face_index()
            return tuple(reduce(or_, index[1 << i]) ^ 1 << i for i in range(len(self._labels)))

        return self._memoized("neighbours", build)

    # -- the facet search: strong components and pseudomanifolds --------------

    def _strong_search(self, sources, keep: int = 0, avoid: int = 0) -> Iterator[tuple]:
        """Breadth-first search over facets joined through shared ridges.

        One step goes from a facet f to the other facets of f's size over
        f ^ b, for each vertex bit b of f outside keep, in facet order, and
        never enters a facet that meets avoid.  Yields (facet, the facet it
        was entered from or None) in visit order; a caller may stop early.
        """
        index = self._face_index()
        pos = self._memoized("facet_pos", lambda: {f: i for i, f in enumerate(self._facet_masks)})
        parent: dict[int, int | None] = dict.fromkeys(fm for fm in sources if not fm & avoid)
        queue = list(parent)
        yield from parent.items()
        for f in queue:
            size, new, rest = f.bit_count(), [], f & ~keep
            while rest:
                b = rest & -rest
                rest ^= b
                for g in index[f ^ b]:
                    if g not in parent and not g & avoid and g.bit_count() == size:
                        new.append(g)
            if len(new) > 1:
                new.sort(key=pos.__getitem__)
            for g in new:
                parent[g] = f
                yield g, f
            queue.extend(new)

    def strong_components(self) -> StrongComponents:
        """Group facets by chains of codimension-one (in both) overlaps."""
        return self._memoized("strong", self._compute_strong)

    def _compute_strong(self) -> StrongComponents:
        # a component's facets share one size: sort each by label, all by (size, first)
        comps, seen = [], set()
        for fm in self._facet_masks:
            if fm not in seen:
                comp = [g for g, _ in self._strong_search([fm])]
                seen.update(comp)
                comps.append(tuple(sorted(map(self._labels_of, comp))))
        comps.sort(key=lambda c: (len(c[0]), c[0]))
        return StrongComponents(components=tuple(comps), pure=self.is_pure)

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
        index = self._face_index()
        for rm in self._faces_masks(self.dimension - 1):
            if len(index[rm]) != 2:
                if self._facets_over(rm) == 2:  # recounted on the facet list
                    raise InternalInvariantError(f"{list(self._labels_of(rm))} lies in 2 facets")
                return Verdict(
                    False,
                    witness={"ridge": self._labels_of(rm), "facet_count": len(index[rm])},
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
