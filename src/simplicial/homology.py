"""Reduced simplicial homology over exact fields, and the classifiers on it.

Chain groups are spanned by the faces of each dimension, with the empty
face spanning degree -1, so every Betti table is reduced.  A chain complex
is given by its face levels: sequences of face masks, from the empty face up.
The boundary of a k-face is built straight from its bitmask as one sparse
column over the index of the (k-1)-faces: an int bitset over GF(2), else
sign (-1)^i on the i-th vertex dropped from the sorted face, -1 as p - 1
over GF(p).  Its first entry drops the lowest vertex, giving the face last
in label order, so each column arrives with its low entry 1.  Ranks come
from the sparse column reduction in linalg, run from the top down with the
clearing ("twist") step of Chen and Kerber: a pivot row of a reduced
column of the (k+1)-th boundary is a k-face whose column would reduce to
zero, so it is never built.  Each Betti table is checked against the
bounds the ranks must obey.

A shelling decides most passes with no rank.  A greedy search in core,
beside the facet search, looks for a shelling order once per complex, for
every field; a checker here that reads only the facet list, as label
tuples, confirms it and counts off it the h-vector, which must be the
f-vector's.  A checked order decides the CM pass, and on a
pseudomanifold, then a PL sphere, the passes of sphere and manifold too.
Failures and complexes it does not shell go through the sweep below.

The Cohen-Macaulay (Reisner), m-Cohen-Macaulay (Baclawski), sphere and
manifold deciders share one defect search, which stores no link.  Past
the shelling gate it visits the faces sigma in (dimension, label) order.
On a memo miss the clique walk of core, started from sigma, lists the
face levels of lk(sigma) in label order, cutting each face's candidates
down to its star at the first that is no face, and they are dropped once
ranked.  Betti values are memoized on the complex under (sigma, field),
so the four deciders share one sweep.  All deciders report the first
failing face in (dimension, label) order, and the first failing W in
``combinations(vertices, size)`` order.

Each link takes the cheapest exact method.  One whose facets have at most
one vertex beyond sigma is read off the star of sigma, with no level:
{}, the link of a facet, has values (1,), and the n points linking a
ridge in n facets have (0, n - 1).  Over Q a link is ranked over GF(2)
first.  By universal coefficients betti_i(X; Q) <= betti_i(X; GF(2)), and
the reduced Euler characteristic does not depend on the field (Hatcher,
Algebraic Topology, 3.A), so GF(2) values with no homology below the top
degree are the Q values.  Only the other links are reduced over Q.

A deleted vertex set W is decided like the complex itself: cx - W is
built by ``cx.delete``, one at a time, and passes with a checked shelling,
else fails with its sweep's first Reisner defect.  A shelling of cx decides
the sizes it covers with no deletion built: W = {}, and on a pseudomanifold
|W| = 1 too, since a PL sphere is 2-CM ("Gorenstein* implies 2-CM";
Baclawski, "Cohen-Macaulay connectivity and geometric lattices", Europ. J.
Combin. 1982).  Every Reisner, sphere and manifold witness is recomputed
on its link, rebuilt from label tuples and ranked by sparse rows, once per
face, degree and field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations
from math import comb

from . import linalg
from .core import DEFAULT_CANDIDATE_CAP, SimplicialComplex, Verdict
from .errors import InputError, InternalInvariantError, ResourceLimitError
from .formats import quote_input, quote_label


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 for the rationals, else GF(p)."""

    characteristic: int

    def __post_init__(self):
        c = self.characteristic
        if c >= 1 << 31:  # refused before trial division, which takes sqrt(c) steps
            raise InputError(f"field characteristic must be below 2^31, got {quote_label(c)}")
        if c != 0 and not _is_prime(c):
            raise InputError(f"field characteristic must be 0 or a prime, got {c}")

    @staticmethod
    def gf(p: int) -> "FieldSpec":
        if p < 2:
            raise InputError(f"GF({p}) is not a field")
        return FieldSpec(p)

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(0)

    @property
    def name(self) -> str:
        return "rational" if self.characteristic == 0 else f"gf{self.characteristic}"

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        t = text.strip().lower()
        if t in ("rational", "rationals", "q", "qq", "0"):
            return FieldSpec.rationals()
        if t.startswith("gf") and t[2:].isascii() and t[2:].isdigit():
            try:
                p = int(t[2:])
            except ValueError:  # past int()'s digit limit: an unknown field
                pass
            else:
                return FieldSpec.gf(p)
        raise InputError(f"unknown field {quote_input(text)}; use gf<p> or rational")


GF2 = FieldSpec.gf(2)
GF3 = FieldSpec.gf(3)
RATIONALS = FieldSpec.rationals()


@dataclass(frozen=True)
class BettiTable:
    """Reduced Betti numbers indexed from dimension -1 upward."""

    values: tuple[int, ...]
    field: FieldSpec

    def of_dim(self, k: int) -> int:
        i = k + 1
        if i < 0 or i >= len(self.values):
            return 0
        return self.values[i]

    def __iter__(self):
        return iter(self.values)


def boundary_matrix(cx: SimplicialComplex, k: int, field: FieldSpec = GF2):
    """Matrix of the k-th boundary map: rows are (k-1)-faces, columns k-faces.

    k = 0 gives the augmentation row onto the empty face.  Entries are
    reduced modulo the characteristic for finite fields and are +-1 over
    the rationals.
    """
    if cx.is_void:
        raise InputError("the void complex has no boundary matrices")
    if k < 0 or k > cx.dimension:
        raise InputError(f"k={k} outside 0..{cx.dimension}")
    row_index = {m: i for i, m in enumerate(cx._faces_masks(k - 1))}
    cols = cx._faces_masks(k)
    p = field.characteristic
    mat = [[0] * len(cols) for _ in row_index]
    for j, mask in enumerate(cols):
        for i, entry in _boundary_column(mask, row_index, p).items():
            mat[i][j] = entry
    return mat


def _boundary_column(mask: int, row_index: dict[int, int], p: int) -> dict[int, int]:
    """Boundary of one face mask over characteristic p: sign (-1)^i on the
    i-th vertex dropped, -1 as p - 1 over GF(p)."""
    col = {}
    sign, other = 1, p - 1 if p else -1
    rest = mask
    while rest:
        low = rest & -rest
        col[row_index[mask ^ low]] = sign
        sign, other = other, sign
        rest ^= low
    return col


def _boundary_bits(mask: int, row_index: dict[int, int]) -> int:
    """Boundary of one face mask over GF(2), as an int bitset over the rows."""
    bits = 0
    rest = mask
    while rest:
        low = rest & -rest
        bits |= 1 << row_index[mask ^ low]
        rest ^= low
    return bits


def _chain_ranks(levels, characteristic: int) -> list[int]:
    """Ranks of the boundary maps of a chain complex given by face levels.

    ``levels[i]`` holds the faces with i vertices as masks, from the empty
    face up; entry k of the result is the rank of the map from level k+1
    to level k.
    """
    top = len(levels) - 1
    ranks = [0] * top
    cleared: dict = {}
    cols = levels[top]
    column = _boundary_bits if characteristic == 2 else partial(_boundary_column, p=characteristic)
    for k in range(top - 1, -1, -1):
        rows = levels[k]
        row_index = {m: i for i, m in enumerate(rows)}
        columns = (column(m, row_index) for j, m in enumerate(cols) if j not in cleared)
        cleared = linalg.pivot_rows(columns, characteristic)
        ranks[k] = len(cleared)
        cols = rows
    return ranks


def _betti_values(levels, characteristic: int) -> tuple[int, ...]:
    """Reduced Betti numbers from dimension -1 up, for face levels as in
    ``_chain_ranks``.

    Raises InternalInvariantError when a boundary rank exceeds the size of
    its domain or codomain, or a Betti number comes out negative; the
    latter means a rank is wrong or two consecutive boundary maps do not
    compose to zero.
    """
    f = [len(level) for level in levels]
    r = _chain_ranks(levels, characteristic) + [0]
    for k in range(len(f) - 1):
        if r[k] > min(f[k], f[k + 1]):
            raise InternalInvariantError(
                f"rank {r[k]} of boundary map {k} exceeds its shape "
                f"{f[k]}x{f[k + 1]}"
            )
    values = [f[k] - (r[k - 1] if k else 0) - r[k] for k in range(len(f))]
    if min(values) < 0:
        raise InternalInvariantError(f"negative Betti number in {values}")
    return tuple(values)


def reduced_betti_numbers(cx: SimplicialComplex, field: FieldSpec = GF2) -> BettiTable:
    """Reduced Betti table from dimension -1 through the top dimension.

    Raises InternalInvariantError when the ranks break the bounds that
    ``_betti_values`` checks, or differ from the (0, ..., 0, h_d) of a
    shelling memoized on cx; this never searches for one.
    """
    if cx.is_void:
        raise InputError("the void complex has no homology")
    values = _link_values(cx, field.characteristic, 0)
    h = cx._memo.get("shelling")
    if h and values != (0,) * (len(h) - 1) + h[-1:]:
        raise InternalInvariantError(f"Betti numbers {list(values)} contradict a shelling")
    return BettiTable(values, field)


def _link_values(cx, p: int, sigma: int) -> tuple[int, ...]:
    """Memoized Betti values over characteristic p of lk(sigma), by the
    cheapest method of the module docstring."""
    memo = cx._memoized(("betti", p), dict)  # keyed by sigma; 0 is the whole complex
    values = memo.get(sigma)
    if values is None and p == 0:
        values = _link_values(cx, 2, sigma)
        if _low_defect(values) is not None:
            values = None
    if values is None:
        over = cx._star(sigma)
        beyond = max(map(int.bit_count, over)) - sigma.bit_count()
        if beyond < 2:  # {} or len(over) points
            values = (0, len(over) - 1) if beyond else (1,)
        else:
            values = _betti_values(_link_levels(cx, sigma, beyond), p)
    memo[sigma] = values
    return values


def _link_levels(cx: SimplicialComplex, sigma: int, top: int):
    """Face levels of lk(sigma) on 0 up to top vertices, each a dict keyed by
    face mask in label order: those of cx for sigma = 0, else those of the
    clique walk from sigma."""
    if not sigma:
        return [cx._faces_masks(k) for k in range(-1, top)]
    return list(cx._clique_walk(top, sigma, star=True))


def _low_defect(values):
    """First (degree, value) of homology below the top degree, or None."""
    for k, b in enumerate(values[:-1], -1):
        if b:
            return (k, b)
    return None


def _shelling_h(cx: SimplicialComplex) -> tuple[int, ...]:
    """h-vector counted off a checked shelling of cx, for every field, or ()
    when the greedy search finds none."""
    return cx._memoized("shelling", lambda: _checked_shelling(cx, cx._shelling_order()))


def _checked_shelling(cx: SimplicialComplex, order) -> tuple[int, ...]:
    """The h-vector of a shelling order, or () for None, checked on label
    tuples alone: the order holds each facet of a pure cx once, and each
    R(F_j) lies in no earlier facet.  h_i counts the j with |R(F_j)| = i
    (Stanley, Combinatorics and Commutative Algebra, ch. III) and must be
    ``cx.h_vector()``.  A failure raises InternalInvariantError."""
    if order is None:
        return ()
    facets = [cx._labels_of(fm) for fm in order]
    if sorted(facets) != list(cx.facets) or len(set(map(len, facets))) != 1:
        raise InternalInvariantError("a shelling order is not the pure facet list")
    first: dict[tuple, int] = {}  # face -> position of the first facet over it
    for j, f in enumerate(facets):
        for face in chain.from_iterable(combinations(f, k) for k in range(len(f) + 1)):
            first.setdefault(face, j)
    h = [0] * (len(facets[0]) + 1)
    for j, f in enumerate(facets):
        rest = tuple(v for i, v in enumerate(f) if first[f[:i] + f[i + 1:]] < j)
        if first[rest] != j:
            raise InternalInvariantError(f"{list(f)} at {j} breaks the shelling at {list(rest)}")
        h[len(rest)] += 1
    if h != list(cx.h_vector()):
        raise InternalInvariantError(f"h-vector {list(cx.h_vector())} contradicts a pass: {h}")
    return tuple(h)


def _first_defect(cx, field, deleted, sphere=False, skip_empty=False) -> dict | None:
    """Re-checked witness of the first face in (dimension, label) order, from
    {} unless skip_empty, whose link has homology below its top degree, or
    with sphere a top Betti number other than 1; None when a checked shelling
    (with sphere, of a pseudomanifold) or the sweep finds none.  cx is a
    complex minus the vertex set ``deleted``, () for none."""
    if cx.is_void:
        raise InputError("the void complex cannot be classified")
    if _shelling_h(cx) and (not sphere or cx.is_pseudomanifold()):
        return None
    faces = chain.from_iterable(_link_levels(cx, 0, cx.dimension + 1))  # the empty face first
    if skip_empty:
        next(faces)
    for sigma in faces:
        values = _link_values(cx, field.characteristic, sigma)
        defect = _low_defect(values)
        if defect is None and sphere and values[-1] != 1:
            defect = (len(values) - 2, values[-1])
        if defect is not None:
            return _checked_witness(cx, field, deleted, cx._labels_of(sigma), *defect)
    return None


def _sphere_links(
    cx: SimplicialComplex, field: FieldSpec, skip_empty: bool, reason: str
) -> Verdict:
    """First face whose link is not a homology sphere of its own dimension."""
    witness = _first_defect(cx, field, (), sphere=True, skip_empty=skip_empty)
    if witness is not None:
        return Verdict(False, witness=witness, reason=reason)
    sphere = -(-1) ** (cx.dimension + 1)  # the reduced Euler characteristic of a sphere
    return _checked_pass(cx, cx.reduced_euler_characteristic() if skip_empty else sphere)


def _checked_pass(cx: SimplicialComplex, chi: int | None = None) -> Verdict:
    """Verdict(True) once the h-vector of a pure complex, read off the face
    index, obeys what the pass implies, else raise InternalInvariantError:
    h_i >= 0 for Cohen-Macaulay (chi None; Stanley 1996, ch. II), and Klee's
    h_{d-i} - h_i = (-1)^i C(d, i) (chi - (-1)^(d-1)) for a homology manifold
    of reduced Euler characteristic chi (Klee 1964), h_i = h_{d-i} for a sphere."""
    if cx.is_pure:
        h = cx.h_vector().counts
        d = len(h) - 1
        for i, x in enumerate(h):
            if chi is None:
                broken = x < 0
            else:
                broken = h[d - i] - x != (-1) ** i * comb(d, i) * (chi + (-1) ** d)
            if broken:
                raise InternalInvariantError(f"h-vector {list(h)} contradicts a pass at h_{i}")
    return Verdict(True)


def is_homology_sphere(cx: SimplicialComplex, field: FieldSpec = GF2) -> Verdict:
    """Every face's link has the reduced homology of a sphere of its dimension.

    The empty face is included, so the complex itself must look like a
    sphere as well.  Witness: the first face whose link deviates.
    """
    return _sphere_links(cx, field, False, "a link deviates from sphere homology")


def is_homology_manifold(cx: SimplicialComplex, field: FieldSpec = GF2) -> Verdict:
    """Links of nonempty faces have sphere homology; the global type is free."""
    return _sphere_links(cx, field, True, "a vertex or higher face has a non-sphere link")


def _checked_witness(cx, field, deleted, face, degree, betti) -> dict:
    """The witness found in the sweep of cx, once its Betti number has been
    recounted on the link of the face, else InternalInvariantError naming
    the vertex set cx was cut from.  The recount is memoized: a Reisner and
    a sphere witness may be the same."""
    p = field.characteristic
    check = partial(_recount, cx, face, degree, p)
    recount = cx._memoized(("witness", face, degree, p), check)
    if recount != betti:
        raise InternalInvariantError(
            f"deleting {list(deleted)}: the link of {list(face)} has "
            f"Betti number {recount} in degree {degree}, not {betti}"
        )
    return {"face": face, "degree": degree, "betti": betti}


def _recount(cx: SimplicialComplex, face, k: int, p: int) -> int:
    """Betti number in degree k of lk(face), rebuilt from label tuples, its
    boundary maps ranked by rows built sparse from those tuples."""
    link, betti = cx.link(face), 0
    signs = (1, p - 1 if p else -1)
    for faces in (link.faces(k), link.faces(k + 1)):
        rows: dict[tuple, dict] = {}
        for j, tau in enumerate(faces):
            for i in range(len(tau)):
                rows.setdefault(tau[:i] + tau[i + 1:], {})[j] = signs[i & 1]
        if p == 2:
            rows = {r: sum(1 << j for j in row) for r, row in rows.items()}
        betti -= len(linalg.pivot_rows(rows.values(), p))
    return betti + link.num_faces(k)


def is_cohen_macaulay(cx: SimplicialComplex, field: FieldSpec = GF2) -> Verdict:
    """Reisner test: links have vanishing reduced homology below top degree."""
    witness = _first_defect(cx, field, ())
    if witness is not None:
        return Verdict(
            False, witness=witness, reason="a link has homology below its top degree"
        )
    return _checked_pass(cx)


def is_m_cohen_macaulay(
    cx: SimplicialComplex,
    m: int,
    field: FieldSpec = GF2,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> Verdict:
    """Removing any fewer than m vertices leaves the complex Cohen-Macaulay
    of unchanged dimension.

    m = 1 is the plain Reisner test; m = 2 is the "doubly" variant.  The
    deleted sets W are tried in ``combinations(vertices, size)`` order, and
    ``cap`` bounds their number; the dimension drops exactly when W meets
    every top-dimensional facet, which is re-checked on the facet list.
    cx - W, built by ``cx.delete`` and held one at a time, is decided like
    cx in ``is_cohen_macaulay``, except at the sizes a shelling of cx
    decides: W = {}, and on a pseudomanifold |W| = 1 as well, since a PL
    sphere is 2-CM.
    """
    if cx.is_void:
        raise InputError("the void complex cannot be classified")
    if m < 1:
        raise InputError(f"m must be a positive integer, got {m}")
    d = cx.dimension
    top = [fm for fm in cx._facet_masks if fm.bit_count() == d + 1]
    certified = (2 if cx.is_pseudomanifold() else 1) if _shelling_h(cx) else 0
    examined = 0
    for size in range(m):
        for chosen in combinations(cx.vertices, size):
            examined += 1
            if examined > cap:
                raise ResourceLimitError(
                    f"vertex-subset sweep exceeded {cap} candidates"
                )
            deleted = cx._mask_of(chosen)
            if all(fm & deleted for fm in top):
                if any(len(f) == d + 1 and not set(f) & set(chosen) for f in cx.facets):
                    raise InternalInvariantError(f"deleting {list(chosen)} keeps a top facet")
                return Verdict(
                    False,
                    witness={"deleted": chosen, "defect": "dimension-drop"},
                    reason="deletion lowers the dimension",
                )
            if size < certified:
                continue
            inner = _first_defect(cx.delete(chosen), field, chosen)
            if inner is not None:
                return Verdict(
                    False,
                    witness={"deleted": chosen, "defect": inner},
                    reason="a deletion is not Cohen-Macaulay",
                )
    return _checked_pass(cx)
