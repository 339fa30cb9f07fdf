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
face levels, links and deletions, verdicts, and the indexes of the
homology and graph modules.  The memo takes no lock: the package starts no
threads, and two threads racing on one entry would only build it twice.

Facet adjacency lives in one memo entry, the ridge index, which maps each
ridge (a facet minus one vertex) to the facets over it.  Two facets share
a ridge exactly when they have the same size and differ in one vertex, so
strong components, the pseudomanifold test, the dual graph behind strong
walks and the facet flips of t2 are all read off this one map.

Vertex adjacency lives in a second memo entry, the graph index, which maps
each vertex to the bitmask of its neighbours in the 1-skeleton.  The flag
test grows candidate nonfaces only by common neighbours (an AND of masks)
and looks each one up among the faces of its size; the flag walk, the
circle walks of t2 and the isomorphism search read adjacency off it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from math import comb
from typing import Iterable, Iterator

from .errors import InputError, ResourceLimitError

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

    __slots__ = ("_labels", "_pos", "_facet_masks", "_void", "_memo")

    def __init__(self, facets: Iterable[Iterable[int]] = ()):
        faces = [_validate_face(f) for f in facets]
        self._void = not faces
        labels = sorted({v for f in faces for v in f})
        self._labels: tuple[int, ...] = tuple(labels)
        self._pos = {v: i for i, v in enumerate(labels)}
        masks = sorted({self._mask_unchecked(f) for f in faces}, key=int.bit_count)
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

    def _mask_unchecked(self, face: Face) -> int:
        m = 0
        for v in face:
            m |= 1 << self._pos[v]
        return m

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
        return self._void

    @property
    def is_empty_complex(self) -> bool:
        """True when the only face is the empty face."""
        return self._facet_masks == (0,)

    @property
    def dimension(self) -> int:
        """Largest face dimension; -1 for both the empty and void complexes."""
        if self._void:
            return -1
        return max(m.bit_count() for m in self._facet_masks) - 1

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
        if self._void:
            return True
        sizes = {m.bit_count() for m in self._facet_masks}
        return len(sizes) <= 1

    def has_face(self, face: Iterable[int]) -> bool:
        m = self._mask_of(_validate_face(face))
        if m is None:
            return False
        return any(m & f == m for f in self._facet_masks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._void == other._void and set(self.facets) == set(other.facets)

    def __hash__(self) -> int:
        return hash((self._void, frozenset(self.facets)))

    def __repr__(self) -> str:
        if self._void:
            return "SimplicialComplex(void)"
        return (
            f"SimplicialComplex(dim={self.dimension}, "
            f"vertices={self.num_vertices}, facets={len(self._facet_masks)})"
        )

    # -- face enumeration ----------------------------------------------------

    def _faces_masks(self, k: int) -> tuple[int, ...]:
        if self._void or k < -1 or k > self.dimension:
            return ()
        if k == -1:
            return (0,)
        return self._memoized(("faces", k), lambda: self._enumerate_faces(k + 1))

    def _enumerate_faces(self, size: int) -> tuple[int, ...]:
        seen: set[int] = set()
        for fm in self._facet_masks:
            bits = self._bits(fm)
            if len(bits) < size:
                continue
            if len(bits) == size:
                seen.add(fm)
                continue
            for combo in combinations(bits, size):
                sub = 0
                for b in combo:
                    sub |= b
                seen.add(sub)
        return tuple(sorted(seen, key=self._labels_of))

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
        if self._void:
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
        key = ("link", m)
        # only a face that passed the test below has a memo entry
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        kept = [] if m is None else [fm & ~m for fm in self._facet_masks if fm & m == m]
        if not kept:
            raise InputError(f"{list(f)} is not a face of this complex")
        if m == 0:
            return self
        hit = self._memo[key] = SimplicialComplex(map(self._labels_of, kept))
        return hit

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

        def build():
            return SimplicialComplex([self._labels_of(fm & ~m) for fm in self._facet_masks])

        return self._memoized(("delete", m), build)

    # -- minimal nonfaces and flagness ---------------------------------------

    def _iter_minimal_nonfaces(self, cap: int) -> Iterator[Face]:
        """Yield minimal nonfaces by (cardinality, label tuple).

        A candidate at level c is a c-set whose proper subsets are all
        faces; it is generated by extending a (c-1)-face past its largest
        label, so each candidate appears exactly once, and it is a nonface
        when the c-vertex faces do not hold it.  Past two vertices such a
        set is a clique of the graph, so a face is extended only by the
        common neighbours of its vertices.  The cap still counts each label
        past a face's largest one as a candidate, and trips only where one
        is counted.  Levels beyond dimension + 2 cannot carry minimal
        nonfaces and are not visited.
        """
        if self._void:
            return
        examined = 0
        n = len(self._labels)
        nbrs = self._neighbour_masks()
        for c in range(2, self.dimension + 3):
            lower = self._faces_masks(c - 2)
            if not lower:
                return
            lower_set = set(lower)
            level_set = set(self._faces_masks(c - 1))
            level: list[Face] = []
            for tm in lower:
                top_bit = tm.bit_length()  # positions strictly above the max label
                examined += n - top_bit
                if examined > cap and top_bit < n:
                    raise ResourceLimitError(
                        f"minimal nonface search exceeded {cap} candidate sets"
                    )
                tm_bits = self._bits(tm)
                extend = (1 << n) - (1 << top_bit)
                if c > 2:
                    for b in tm_bits:
                        extend &= nbrs[b.bit_length() - 1]
                for new in self._bits(extend):
                    sm = tm | new
                    if sm not in level_set and all(
                        (sm & ~b) in lower_set for b in tm_bits
                    ):
                        level.append(self._labels_of(sm))
            yield from sorted(level)

    @staticmethod
    def _bits(mask: int) -> list[int]:
        out = []
        while mask:
            low = mask & -mask
            out.append(low)
            mask ^= low
        return out

    def minimal_nonfaces(self, cap: int = DEFAULT_CANDIDATE_CAP) -> tuple[Face, ...]:
        """All minimal nonfaces, ordered by (cardinality, label tuple)."""
        return self._memoized(
            "nonfaces", lambda: tuple(self._iter_minimal_nonfaces(cap))
        )

    def is_flag(self, cap: int = DEFAULT_CANDIDATE_CAP) -> Verdict:
        """Whether every minimal nonface has at most two vertices.

        Equivalently the complex is the clique complex of its own graph.
        The witness on failure is the first minimal nonface with three or
        more vertices.
        """

        def build():
            for nf in self._iter_minimal_nonfaces(cap):
                if len(nf) >= 3:
                    return Verdict(
                        False, witness=nf, reason="minimal nonface with 3 or more vertices"
                    )
            return Verdict(True)

        return self._memoized("flag", build)

    # -- the graph index -------------------------------------------------------

    def _neighbour_masks(self) -> tuple[int, ...]:
        """Vertex position -> bitmask of the other vertices of its facets."""

        def build():
            nbrs = [0] * len(self._labels)
            for fm in self._facet_masks:
                for b in self._bits(fm):
                    nbrs[b.bit_length() - 1] |= fm & ~b
            return tuple(nbrs)

        return self._memoized("neighbours", build)

    # -- the ridge index: strong components and pseudomanifolds --------------

    def _ridge_facets(self) -> dict[int, list[int]]:
        """Ridge mask -> the facet masks over it, in facet order.

        The ridges of a facet are the facet minus one vertex each; a ridge
        group only ever holds facets of one size.
        """

        def build():
            groups: dict[int, list[int]] = {}
            for fm in self._facet_masks:
                for b in self._bits(fm):
                    groups.setdefault(fm & ~b, []).append(fm)
            return groups

        return self._memoized("ridges", build)

    def strong_components(self) -> StrongComponents:
        """Group facets by chains of codimension-one (in both) overlaps."""
        return self._memoized("strong", self._compute_strong)

    def _compute_strong(self) -> StrongComponents:
        parent = {fm: fm for fm in self._facet_masks}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for first, *rest in self._ridge_facets().values():
            root = find(first)
            for fm in rest:
                parent[find(fm)] = root
        groups: dict[int, list[Face]] = {}
        for fm in self._facet_masks:
            groups.setdefault(find(fm), []).append(self._labels_of(fm))
        comps = tuple(
            tuple(sorted(g, key=lambda f: (len(f), f)))
            for g in sorted(groups.values(), key=lambda g: (len(min(g)), min(g)))
        )
        return StrongComponents(components=comps, pure=self.is_pure)

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
        ridges = self._ridge_facets()
        bad = [rm for rm, group in ridges.items() if len(group) != 2]
        if bad:
            rm = min(bad, key=self._labels_of)
            return Verdict(
                False,
                witness={"ridge": self._labels_of(rm), "facet_count": len(ridges[rm])},
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
