"""Exact sparse column reduction over GF(2), GF(p) and the rationals.

Columns hold only their nonzero entries.  They are reduced left to right
in the persistence style: a column's pivot ("low") is its largest row
index, and while another column already owns that pivot, a multiple of
the owner is subtracted.  The nonzero reduced columns have distinct
pivots, so they are linearly independent and their number is the rank.

- GF(2) columns are int bitsets, bit r for row r, as the caller builds
  them and as they come back reduced; subtraction is XOR.
- Other columns are dicts ``{row: int}`` of nonzero entries in field
  form, reduced in place: residues 1..p-1 over GF(p), integers over Q.  A
  GF(p) pivot is scaled to low entry 1 only if elimination left another
  there; boundary columns arrive with low entry 1.
- Rational columns stay integral: ``col = b*col - a*pivot_col`` with
  ``a``, ``b`` the two low entries divided by their gcd, then ``col`` is
  divided by the gcd of its entries.  No fraction and no floating point
  appears anywhere.

The reduced columns are returned, keyed by their pivot rows, not just
their number, because a chain complex can use them: see
``homology._chain_ranks`` for the clearing step that skips the columns
the pivot rows name.
"""

from __future__ import annotations

from math import gcd


def pivot_rows(columns, characteristic: int) -> dict:
    """The nonzero reduced columns keyed by their pivot rows; their number
    is the rank.

    ``columns`` yields int bitsets over GF(2), else ``{row: int}`` dicts in
    the field form of the module docstring, and the reduced columns come
    back in that form; characteristic 0 means the rationals, otherwise GF(p).
    """
    if characteristic == 2:
        return _pivot_rows_gf2(columns)
    return _pivot_rows_sparse(columns, characteristic)


def _pivot_rows_gf2(columns) -> dict[int, int]:
    pivots: dict[int, int] = {}
    for bits in columns:
        while bits:
            low = bits.bit_length() - 1
            owner = pivots.get(low)
            if owner is None:
                pivots[low] = bits
                break
            bits ^= owner
    return pivots


def _pivot_rows_sparse(columns, p: int) -> dict[int, dict[int, int]]:
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            low = max(col)
            owner = pivots.get(low)
            if owner is None:
                if p and col[low] != 1:
                    inv = pow(col[low], -1, p)
                    col = {r: x * inv % p for r, x in col.items()}
                pivots[low] = col
                break
            a, b = col[low], owner[low]
            if b != 1:
                g = gcd(a, b)
                a, b = a // g, b // g
                col = {r: x * b for r, x in col.items()}
            for r, y in owner.items():
                v = col.get(r, 0) - a * y
                if p:
                    v %= p
                if v:
                    col[r] = v
                else:
                    del col[r]
            if not p and col:
                g = gcd(*col.values())
                if g != 1:
                    col = {r: x // g for r, x in col.items()}
    return pivots


def rank(matrix, characteristic: int) -> int:
    """Rank of an integer matrix given as a list of rows.

    Characteristic 0 means the rationals, otherwise GF(p).  Row rank equals
    column rank, so each row is reduced as one sparse column in field form.
    """
    p = characteristic
    if p == 2:
        rows = (sum(1 << j for j, x in enumerate(row) if x & 1) for row in matrix)
    elif p:
        rows = ({j: x % p for j, x in enumerate(row) if x % p} for row in matrix)
    else:
        rows = ({j: x for j, x in enumerate(row) if x} for row in matrix)
    return len(pivot_rows(rows, characteristic))
