"""Reduced simplicial homology over exact fields, and the classifiers on it.

Chain groups are spanned by the faces of each dimension, with the empty
face spanning degree -1, so every Betti table is reduced.  The boundary of
a k-face is built straight from its bitmask as one sparse column over the
index of the (k-1)-faces, with sign (-1)^i on the i-th vertex dropped from
the sorted face.  Ranks come from the sparse column reduction in linalg,
run from the top dimension down with the clearing ("twist") step of Chen
and Kerber: a pivot row of a reduced column of the (k+1)-th boundary is a
k-face whose column would reduce to zero, so it is never built.  Each
Betti table is checked against the bounds the ranks must obey, and all
deciders report the first failing face in (dimension, label) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .core import Face, SimplicialComplex, Verdict
from .errors import InputError, InternalInvariantError, ResourceLimitError

DEFAULT_SUBSET_CAP = 1 << 22


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
        if t.startswith("gf") and t[2:].isdigit():
            return FieldSpec.gf(int(t[2:]))
        raise InputError(f"unknown field {text!r}; use gf<p> or rational")


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
        for i, entry in _boundary_column(mask, row_index).items():
            mat[i][j] = entry % p if p else entry
    return mat


def _boundary_column(mask: int, row_index: dict[int, int]) -> dict[int, int]:
    """Boundary of one face mask: sign (-1)^i on the i-th vertex dropped."""
    col = {}
    sign = 1
    rest = mask
    while rest:
        low = rest & -rest
        col[row_index[mask ^ low]] = sign
        sign = -sign
        rest ^= low
    return col


def _chain_ranks(cx: SimplicialComplex, field: FieldSpec) -> list[int]:
    """Ranks of the boundary maps for k = 0..dim, memoized on the complex."""
    key = ("chain_ranks", field.characteristic)
    with cx._lock:
        hit = cx._aux.get(key)
    if hit is not None:
        return hit
    d = cx.dimension
    ranks = [0] * (d + 1)
    cleared: set[int] = set()
    cols = cx._faces_masks(d)
    for k in range(d, -1, -1):
        rows = cx._faces_masks(k - 1)
        row_index = {m: i for i, m in enumerate(rows)}
        cleared = linalg.pivot_rows(
            (
                _boundary_column(m, row_index)
                for j, m in enumerate(cols)
                if j not in cleared
            ),
            field.characteristic,
        )
        ranks[k] = len(cleared)
        cols = rows
    with cx._lock:
        cx._aux.setdefault(key, ranks)
    return ranks


def reduced_betti_numbers(cx: SimplicialComplex, field: FieldSpec = GF2) -> BettiTable:
    """Reduced Betti table from dimension -1 through the top dimension.

    Raises InternalInvariantError when a boundary rank exceeds the size of
    its domain or codomain, or a Betti number comes out negative; the
    latter means a rank is wrong or two consecutive boundary maps do not
    compose to zero.
    """
    if cx.is_void:
        raise InputError("the void complex has no homology")
    d = cx.dimension
    if d == -1:
        return BettiTable(values=(1,), field=field)
    f = cx.f_vector().counts
    r = _chain_ranks(cx, field) + [0]
    for k in range(d + 1):
        if r[k] > min(f[k], f[k + 1]):
            raise InternalInvariantError(
                f"rank {r[k]} of boundary map {k} exceeds its shape "
                f"{f[k]}x{f[k + 1]}"
            )
    values = [1 - r[0]]
    for k in range(d + 1):
        values.append(f[k + 1] - r[k] - r[k + 1])
    if min(values) < 0:
        raise InternalInvariantError(f"negative Betti number in {values}")
    return BettiTable(values=tuple(values), field=field)


def _sphere_defect(bt: BettiTable, dim: int):
    """First (degree, value) violating sphere homology, or None."""
    for k in range(-1, dim):
        if bt.of_dim(k) != 0:
            return (k, bt.of_dim(k))
    if bt.of_dim(dim) != 1:
        return (dim, bt.of_dim(dim))
    return None


def is_homology_sphere(cx: SimplicialComplex, field: FieldSpec = GF2) -> Verdict:
    """Every face's link has the reduced homology of a sphere of its dimension.

    The empty face is included, so the complex itself must look like a
    sphere as well.  Witness: the first face whose link deviates.
    """
    if cx.is_void:
        raise InputError("the void complex cannot be classified")
    for face in cx.all_faces():
        lk = cx.link(face)
        defect = _sphere_defect(reduced_betti_numbers(lk, field), lk.dimension)
        if defect is not None:
            return Verdict(
                False,
                witness={"face": face, "degree": defect[0], "betti": defect[1]},
                reason="a link deviates from sphere homology",
            )
    return Verdict(True)


def is_homology_manifold(cx: SimplicialComplex, field: FieldSpec = GF2) -> Verdict:
    """Links of nonempty faces have sphere homology; the global type is free."""
    if cx.is_void:
        raise InputError("the void complex cannot be classified")
    for face in cx.all_faces():
        if not face:
            continue
        lk = cx.link(face)
        defect = _sphere_defect(reduced_betti_numbers(lk, field), lk.dimension)
        if defect is not None:
            return Verdict(
                False,
                witness={"face": face, "degree": defect[0], "betti": defect[1]},
                reason="a vertex or higher face has a non-sphere link",
            )
    return Verdict(True)


def is_cohen_macaulay(cx: SimplicialComplex, field: FieldSpec = GF2) -> Verdict:
    """Reisner test: links have vanishing reduced homology below top degree."""
    if cx.is_void:
        raise InputError("the void complex cannot be classified")
    for face in cx.all_faces():
        lk = cx.link(face)
        bt = reduced_betti_numbers(lk, field)
        for k in range(-1, lk.dimension):
            if bt.of_dim(k) != 0:
                return Verdict(
                    False,
                    witness={"face": face, "degree": k, "betti": bt.of_dim(k)},
                    reason="a link has homology below its top degree",
                )
    return Verdict(True)


def is_m_cohen_macaulay(
    cx: SimplicialComplex,
    m: int,
    field: FieldSpec = GF2,
    cap: int = DEFAULT_SUBSET_CAP,
) -> Verdict:
    """Removing any fewer than m vertices leaves the complex Cohen-Macaulay
    of unchanged dimension.

    m = 1 is the plain Reisner test; m = 2 is the "doubly" variant.
    """
    if cx.is_void:
        raise InputError("the void complex cannot be classified")
    if m < 1:
        raise InputError(f"m must be a positive integer, got {m}")
    d = cx.dimension
    examined = 0
    for size in range(m):
        for sigma in combinations(cx.vertices, size):
            examined += 1
            if examined > cap:
                raise ResourceLimitError(
                    f"vertex-subset sweep exceeded {cap} candidates"
                )
            rest = cx.delete(sigma)
            if rest.dimension != d:
                return Verdict(
                    False,
                    witness={"deleted": sigma, "defect": "dimension-drop"},
                    reason="deletion lowers the dimension",
                )
            inner = is_cohen_macaulay(rest, field)
            if not inner:
                return Verdict(
                    False,
                    witness={"deleted": sigma, "defect": inner.witness},
                    reason="a deletion is not Cohen-Macaulay",
                )
    return Verdict(True)
