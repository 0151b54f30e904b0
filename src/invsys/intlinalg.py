"""Exact integer linear algebra: matrices, echelon forms, invariant factors.

All entries are Python ints, so intermediate blow-up during elimination is
harmless.

Lattice work goes through column echelon forms m T = [E | 0], T
unimodular, built by column operations only (`echelon_form`).  Membership
in the column span of m is forward substitution against E
(`Echelon.substitute`).  A form carries only the coordinates of T that its
caller reads: none for membership, and for a relative kernel those of m,
in the columns of T after the pivots of [m | lat] (`relative_kernel`).

Invariant factors (`sparse_invariant_factors`, and `invariant_factors` on
a dense matrix) come from one sparse elimination that keeps no
transforms: a single pivot routine clears a row and a column at a time on
sparse rows, each row in turn pivoting on its own entry of least absolute
value, and a gcd/lcm pass over the non-unit pivots makes them a
divisibility chain.  No routine of the package asks for a Smith
transform, so none computes one.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import gcd
from operator import mul as _mul


class IntMatrix:
    """An r x c integer matrix as a tuple of row tuples; compared and hashed
    by value, so it can key a cache.  The hash is computed once."""

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        self.rows, self.cols = rows, cols
        self.entries = entries  # unchecked: textio rejects ragged literals
        self._hash = None

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and (self.rows, self.cols) == (other.rows, other.cols)
                and self.entries == other.entries)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.entries))
        return self._hash

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(map(tuple, rows))
        if data:
            c = len(data[0])
        else:
            c = 0 if cols is None else cols
        return IntMatrix(len(data), c, data)

    @staticmethod
    def from_cols(cols: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        if cols:
            r = len(cols[0])
        else:
            r = 0 if rows is None else rows
        return IntMatrix(r, len(cols), tuple(zip(*cols)) if cols else ((),) * r)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n))
                                     for i in range(n)))

    @staticmethod
    def zeros(r: int, c: int) -> "IntMatrix":
        return IntMatrix(r, c, tuple(tuple(0 for _ in range(c)) for _ in range(r)))

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(zip(*self.entries)) if self.rows else ((),) * self.cols)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ot = other.transpose().entries
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(sum(map(_mul, row, col)) for col in ot)
                               for row in self.entries))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(map(_mul, row, vec)) for row in self.entries)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("dimension mismatch")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))


class SparseMatrix:
    """An integer matrix stored by columns: columns[j] maps a row index to
    the nonzero entry there."""

    def __init__(self, rows: int, columns: tuple[dict[int, int], ...]):
        self.rows, self.columns = rows, columns

    @property
    def cols(self) -> int:
        return len(self.columns)

    def apply(self, vec: dict[int, int]) -> dict[int, int]:
        """The product with a sparse column vector, as a sparse vector."""
        out: dict[int, int] = {}
        for j, x in vec.items():
            for i, y in self.columns[j].items():
                out[i] = out.get(i, 0) + x * y
        return {i: z for i, z in out.items() if z}

    def dense(self) -> IntMatrix:
        """The same matrix as an IntMatrix."""
        return IntMatrix.from_cols([[col.get(i, 0) for i in range(self.rows)]
                                    for col in self.columns], rows=self.rows)


def sparse_invariant_factors(vectors: Iterable[dict[int, int]]) -> list[int]:
    """Nonzero invariant factors, in divisibility order, of the matrix whose
    rows are the given sparse vectors (index -> nonzero entry); the same as
    those of the matrix they are the columns of.  No transforms are kept.

    Every step is one call of `pivot`, which clears a row and a column
    around a nonzero entry by unimodular operations, so the factors are
    those of the whole matrix.  One rule picks every pivot: the rows are
    taken in order, and a row still present pivots on its entry of least
    absolute value, ties to the column with fewest entries, which keeps
    fill-in small, then to the lower column index; again, until the row is
    gone (`pivot` may finish on another row of the column).  A unit is
    always a least entry, and nerve differentials are nearly all +-1, so
    most rows go in one unit pivot (Dumas, Saunders and Villard 2001;
    Kaczynski, Mischaikow and Mrozek, Computational Homology, ch. 3).  No
    row is ever added, so the sweep empties the matrix.
    """
    rows = {i: dict(vec) for i, vec in enumerate(vectors) if vec}
    where: dict[int, set[int]] = {}  # column -> rows with an entry there
    for i, row in rows.items():
        for j in row:
            where.setdefault(j, set()).add(i)
    pivots: list[int] = []  # |p| of each pivot, as it stands alone

    def pivot(i: int, j: int) -> None:
        """Clear column j but for row i by row operations, then row i but
        for column j by column operations, each floor-dividing by the entry
        p at (i, j); the least remainder left is the next pivot, so |p|
        falls until (i, j) stands alone, and its row and column go."""
        while True:
            row = rows[i]
            p = row.pop(j)  # back in place before the next pivot
            for k in [k for k in where[j] if k != i]:
                other = rows[k]
                q, r = divmod(other[j], p)  # row_k -= q * row_i leaves r at j
                if r:
                    other[j] = r
                else:
                    del other[j]
                    where[j].discard(k)
                for c, x in row.items():
                    y = other.get(c, 0) - q * x
                    if y:
                        if c not in other:
                            where[c].add(k)
                        other[c] = y
                    elif c in other:
                        del other[c]
                        where[c].discard(k)
                if not other:
                    del rows[k]
            if len(where[j]) > 1:  # remainders in column j
                row[j] = p
                _, i = min((abs(rows[k][j]), k) for k in where[j] if k != i)
                continue
            # column j holds p alone, so the column operations change row i only
            for c, x in list(row.items()):
                y = x % p
                if y:
                    row[c] = y
                else:
                    del row[c]
                    where[c].discard(i)
            if row:  # remainders in row i
                _, c = min((abs(x), c) for c, x in row.items())
                row[j], j = p, c
                continue
            del rows[i]
            del where[j]
            pivots.append(abs(p))
            return

    for i in list(rows):
        while i in rows:
            _, _, j = min((abs(x), len(where[j]), j) for j, x in rows[i].items())
            pivot(i, j)
    # diag(a, b) ~ diag(gcd, lcm) makes the chain (Newman, Integral
    # Matrices, ch. II); units divide everything and need no pass
    torsion = [p for p in pivots if p > 1]
    for s in range(len(torsion)):
        for t in range(s + 1, len(torsion)):
            g = gcd(torsion[s], torsion[t])
            torsion[s], torsion[t] = g, torsion[s] // g * torsion[t]
    return [1] * (len(pivots) - len(torsion)) + torsion


def invariant_factors(m: IntMatrix) -> list[int]:
    """Nonzero diagonal entries of the Smith form, in divisibility order."""
    return list(_invariant_factors(m))


@lru_cache(maxsize=8192)
def _invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    return tuple(sparse_invariant_factors({j: x for j, x in enumerate(row) if x}
                                          for row in m.entries))


class Echelon:
    """A column echelon form m T = [E | 0] of an r x c matrix m.

    T is unimodular: m takes its first len(pivots) columns to the columns
    of E, kept in `columns`, and the rest to zero, so those are a basis of
    the kernel lattice of m.  `transform` holds the first `keep`
    coordinates of each column of T, as `echelon_form` was asked for, and
    is empty for the membership form.  Column j of E is zero above row
    pivots[j] and positive there, and the pivot rows increase, so E y = b
    is solved by forward substitution.
    """

    def __init__(self, pivots: tuple[int, ...], columns: tuple[tuple[int, ...], ...],
                 transform: tuple[tuple[int, ...], ...]):
        self.pivots, self.columns, self.transform = pivots, columns, transform

    def substitute(self, b: Sequence[int]) -> list[int] | None:
        """The y with E y = b, or None when there is none."""
        res = list(b)
        n = len(res)
        y, top = [], 0
        for i, col in zip(self.pivots, self.columns):
            for s in range(top, i):  # rows no column from here on reaches
                if res[s]:
                    return None
            q, rem = divmod(res[i], col[i])
            if rem:
                return None
            if q:  # res[i] is cleared, and no later pivot reads it
                for s in range(i + 1, n):
                    res[s] -= q * col[s]
            y.append(q)
            top = i + 1
        for s in range(top, n):
            if res[s]:
                return None
        return y


@lru_cache(maxsize=8192)
def echelon_form(m: IntMatrix, keep: int = 0) -> Echelon:
    """The column echelon form of m (see Echelon), by column operations
    only, with the first `keep` coordinates of its transform.

    Rows are taken top to bottom.  In each, among the columns without a
    pivot yet, the entry of least absolute value (the leftmost of equals)
    divides the others of the row with remainder, its column taken from
    theirs, until one nonzero entry is left; that column, made positive,
    is the next pivot (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4.2-2.4.3).  A column operation acts on each coordinate of
    T alone, so the coordinates past `keep` are never computed.  Cached:
    IntMatrix is hashable, so the membership tests and substitutions of
    one matrix (keep = 0) all go through one form.
    """
    r, c = m.rows, m.cols
    a = [list(col) for col in zip(*m.entries)] if r else [[] for _ in range(c)]
    t = [[int(i == j) for i in range(keep)] for j in range(c)] if keep else None
    pivots: list[int] = []
    k = 0
    for i in range(r):
        if k == c:
            break
        while True:
            j, least = -1, 0  # the leftmost live entry of least absolute value
            for s in range(k, c):
                x = a[s][i]
                if x and (not least or abs(x) < least):
                    j, least = s, abs(x)
            if j < 0:
                break
            if j != k:
                a[k], a[j] = a[j], a[k]
                if keep:
                    t[k], t[j] = t[j], t[k]
            piv = a[k]
            p, alone = piv[i], True
            for j in range(k + 1, c):  # columns k.. are zero above row i
                other = a[j]
                q = other[i] // p  # zero only where other[i] is: |p| is least
                if q:
                    for row in range(i, r):
                        other[row] -= q * piv[row]
                    if keep:
                        tj, tk = t[j], t[k]
                        for row in range(keep):
                            tj[row] -= q * tk[row]
                    if other[i]:
                        alone = False
            if alone:
                if p < 0:
                    a[k] = [-x for x in piv]
                    if keep:
                        t[k] = [-x for x in t[k]]
                pivots.append(i)
                k += 1
                break
    return Echelon(tuple(pivots), tuple(tuple(col) for col in a[:k]),
                   tuple(tuple(col) for col in t) if keep else ())


def relative_kernel(m: IntMatrix, lat: IntMatrix) -> IntMatrix:
    """Generators (as columns) of {x : m x lies in the column span of lat}.

    lat must have the same row count as m; the result has m.cols rows.  They
    are the kernel basis of [m | lat] projected to the coordinates of m,
    which are the only coordinates of its transform that are computed.
    """
    ech = echelon_form(m.hstack(lat), m.cols)
    cols = [k for k in ech.transform[len(ech.pivots):] if any(k)]
    return IntMatrix.from_cols(cols, rows=m.cols)

