"""Exact integer linear algebra: matrices, echelon and Smith forms, lattices.

All entries are Python ints, so intermediate blow-up during elimination is
harmless.

Lattice work goes through one cached column echelon form per matrix
(`echelon_form`): m T = [E | 0] with T unimodular, built by column
operations only.  `in_lattice` (so `lattice_contains`) is forward
substitution against E, `solve` maps that solution back through T, and
`kernel_basis` (so `relative_kernel`) is the columns of T after the
pivots.

The Smith routine returns the full transform pair (U, D, V) with
U*m*V = D, both transforms unimodular, and the diagonal in a divisibility
chain.  It is one pivot loop (Cohen, A Course in Computational Algebraic
Number Theory, Alg. 2.4.14): each round moves the smallest nonzero entry of
the trailing submatrix, ties broken in row-major order, to the diagonal and
divides its row and column by it; a remainder, or an entry the pivot does
not divide, starts another round, so the pivot shrinks until it divides
everything after it.  The choice keeps the run deterministic and the
entries tame.  No other routine of the package asks for the transforms:
lattice work goes through the echelon form, and invariants through
`sparse_invariant_factors`, which keeps none.

`sparse_invariant_factors` (and `invariant_factors`) give the diagonal
alone: unit pivots are eliminated on sparse rows first, in one sweep over
the rows, and the same loop runs on what is left without recording
transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]  # unchecked: textio rejects ragged literals

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        data = tuple(tuple(int(v) for v in r) for r in rows)
        if data:
            c = len(data[0])
        else:
            c = 0 if cols is None else cols
        return IntMatrix(len(data), c, data)

    @staticmethod
    def from_cols(cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        if cols:
            r = len(cols[0])
        else:
            r = 0 if rows is None else rows
        return IntMatrix(r, len(cols),
                         tuple(tuple(int(c[i]) for c in cols) for i in range(r)))

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
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ot = other.transpose().entries
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(sum(a * b for a, b in zip(row, col))
                                     for col in ot)
                               for row in self.entries))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("dimension mismatch")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("dimension mismatch")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def is_zero(self) -> bool:
        return all(v == 0 for r in self.entries for v in r)


@dataclass(frozen=True)
class SparseMatrix:
    """An integer matrix stored by columns: columns[j] maps a row index to
    the nonzero entry there."""
    rows: int
    columns: tuple[dict[int, int], ...]

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


def _diagonalise(a: list[list[int]], u: list[list[int]], v: list[list[int]]) -> None:
    """The pivot loop of the module docstring, on the rows of a in place.

    u and v record the row and column operations when given as identity
    matrices of a's row and column counts; empty lists record nothing.
    """
    r, c = len(a), len(a[0]) if a else 0

    def row_op(i, j, q):  # row_i += q * row_j, in a and in u
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        if u:
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i += q * col_j, in a and in v
        for row in a + v:
            row[i] += q * row[j]

    t = 0
    while t < min(r, c):
        # one round: the smallest nonzero entry, ties in row-major order,
        # moves to (t, t) and divides its row and column with remainder
        pivot = min(((abs(x), i, j) for i in range(t, r)
                     for j, x in enumerate(a[i][t:], t) if x), default=None)
        if pivot is None:
            break
        _, i, j = pivot
        a[t], a[i] = a[i], a[t]
        if u:
            u[t], u[i] = u[i], u[t]
        for row in a + v:
            row[t], row[j] = row[j], row[t]
        p = a[t][t]
        for i in range(t + 1, r):
            if a[i][t]:
                row_op(i, t, -(a[i][t] // p))
        for j in range(t + 1, c):
            if a[t][j]:
                col_op(j, t, -(a[t][j] // p))
        if any(a[i][t] for i in range(t + 1, r)) or any(a[t][t + 1:]):
            continue  # a remainder is left, smaller than the pivot
        if abs(p) > 1:  # a unit divides every entry
            k = next((i for i in range(t + 1, r) if any(x % p for x in a[i][t + 1:])), None)
            if k is not None:
                row_op(t, k, 1)  # an entry that p does not divide moves into row t
                continue
        if p < 0:
            row_op(t, t, -2)  # negates row t
        t += 1


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*m*V = D in Smith normal form.

    D is diagonal with nonnegative entries d1 | d2 | ...; U and V are
    unimodular.  Not cached: no command computes it.
    """
    r, c = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]
    _diagonalise(a, u, v)
    return (IntMatrix.from_rows(u, cols=r),
            IntMatrix.from_rows(a, cols=c),
            IntMatrix.from_rows(v, cols=c))


def sparse_invariant_factors(vectors: Iterable[dict[int, int]]) -> list[int]:
    """Nonzero invariant factors, in divisibility order, of the matrix whose
    rows are the given sparse vectors (index -> nonzero entry); the same as
    those of the matrix they are the columns of.  No transforms are kept.

    One sweep over the rows, in order, eliminates unit pivots, each a
    factor 1: a row still present that holds a unit when its turn comes
    pivots on its unit in the column with fewest entries, which keeps
    fill-in small, and is eliminated with that column.  A row that holds no
    unit then, including one that gains a unit only from a later pivot,
    stays for the pivot loop, which runs on the dense residual; every step
    is unimodular, so the factors are those of the whole matrix.  Nerve
    differentials are nearly all +-1, so the residual is mostly empty
    (Dumas, Saunders and Villard 2001; Kaczynski, Mischaikow and Mrozek,
    Computational Homology, ch. 3).
    """
    rows = {i: dict(vec) for i, vec in enumerate(vectors) if vec}
    where: dict[int, set[int]] = {}  # column -> rows with an entry there
    for i, row in rows.items():
        for j in row:
            where.setdefault(j, set()).add(i)
    units = 0
    for i in list(rows):
        js = [j for j, x in rows.get(i, {}).items() if x == 1 or x == -1]
        if not js:
            continue
        j = min(js, key=lambda j: len(where[j]))
        pivot = rows.pop(i)
        for k in pivot:
            where[k].discard(i)
        q0 = pivot.pop(j)  # +-1, so row k sheds row_k[j] / q0 = q0 * row_k[j] pivot rows
        for k in where.pop(j):
            row = rows[k]
            q = q0 * row.pop(j)
            for c, x in pivot.items():
                y = row.get(c, 0) - q * x
                if y:
                    if c not in row:
                        where[c].add(k)
                    row[c] = y
                elif c in row:
                    del row[c]
                    where[c].discard(k)
            if not row:
                del rows[k]
        units += 1
    cols = sorted(j for j, at in where.items() if at)
    a = [[row.get(j, 0) for j in cols] for row in rows.values()]
    _diagonalise(a, [], [])
    return [1] * units + [a[t][t] for t in range(min(len(a), len(cols))) if a[t][t]]


def invariant_factors(m: IntMatrix) -> list[int]:
    """Nonzero diagonal entries of the Smith form, in divisibility order."""
    return list(_invariant_factors(m))


@lru_cache(maxsize=8192)
def _invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    return tuple(sparse_invariant_factors({j: x for j, x in enumerate(row) if x}
                                          for row in m.entries))


@dataclass(frozen=True)
class Echelon:
    """A column echelon form m T = [E | 0] of an r x c matrix m.

    T is unimodular, stored by columns in `transform`; m takes its first
    len(pivots) columns to the columns of E, kept in `columns`, and the
    rest to zero, so those are a basis of the kernel lattice of m.  Column
    j of E is zero above row pivots[j] and positive there, and the pivot
    rows increase, so E y = b is solved by forward substitution.
    """
    pivots: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]
    transform: tuple[tuple[int, ...], ...]

    def substitute(self, b: Sequence[int]) -> Optional[list[int]]:
        """The y with E y = b, or None when there is none."""
        res = list(b)
        y, top = [], 0
        for i, col in zip(self.pivots, self.columns):
            if any(res[top:i]):  # rows no column from here on reaches
                return None
            q, rem = divmod(res[i], col[i])
            if rem:
                return None
            if q:
                res[i:] = [x - q * e for x, e in zip(res[i:], col[i:])]
            y.append(q)
            top = i + 1
        return None if any(res[top:]) else y


@lru_cache(maxsize=8192)
def echelon_form(m: IntMatrix) -> Echelon:
    """The column echelon form of m (see Echelon), by column operations only.

    Rows are taken top to bottom.  In each, among the columns without a
    pivot yet, the entry of least absolute value (the leftmost of equals)
    divides the others of the row with remainder, its column taken from
    theirs, until one nonzero entry is left; that column, made positive,
    is the next pivot (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4.2-2.4.3).  Cached: IntMatrix is hashable, and the
    membership tests and solves of one map go through the same form.
    """
    r, c = m.rows, m.cols
    a = [list(col) for col in zip(*m.entries)] if r else [[] for _ in range(c)]
    t = [[int(i == j) for i in range(c)] for j in range(c)]
    pivots: list[int] = []
    k = 0
    for i in range(r):
        if k == c:
            break
        while True:
            live = [(abs(a[j][i]), j) for j in range(k, c) if a[j][i]]
            if not live:
                break
            _, j = min(live)
            a[k], a[j] = a[j], a[k]
            t[k], t[j] = t[j], t[k]
            p = a[k][i]
            if len(live) == 1:
                if p < 0:
                    a[k] = [-x for x in a[k]]
                    t[k] = [-x for x in t[k]]
                pivots.append(i)
                k += 1
                break
            for j in range(k + 1, c):
                q = a[j][i] // p
                if q:
                    a[j][i:] = [x - q * y for x, y in zip(a[j][i:], a[k][i:])]
                    t[j] = [x - q * y for x, y in zip(t[j], t[k])]
    return Echelon(tuple(pivots), tuple(tuple(col) for col in a[:k]),
                   tuple(tuple(col) for col in t))


def solve(m: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """One integer solution x of m x = b, or None: E y = b by forward
    substitution, then x = T y."""
    if len(b) != m.rows:
        raise ValueError("dimension mismatch")
    ech = echelon_form(m)
    y = ech.substitute(b)
    if y is None:
        return None
    x = [0] * m.cols
    for q, col in zip(y, ech.transform):
        if q:
            x = [a + q * v for a, v in zip(x, col)]
    return tuple(x)


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel lattice {x : m x = 0}.

    The columns of the echelon transform T after the pivots, in order: T is
    unimodular, so they are a basis of the kernel lattice and not merely of
    a finite-index sublattice.
    """
    ech = echelon_form(m)
    return list(ech.transform[len(ech.pivots):])


def relative_kernel(m: IntMatrix, lat: IntMatrix) -> IntMatrix:
    """Generators (as columns) of {x : m x lies in the column span of lat}.

    lat must have the same row count as m; the result has m.cols rows.
    """
    combined = m.hstack(lat)
    projected = [k[: m.cols] for k in kernel_basis(combined)]
    cols = [p for p in projected if any(p)]
    return IntMatrix.from_cols(cols, rows=m.cols)


def in_lattice(lat: IntMatrix, vec: Sequence[int]) -> bool:
    """Whether vec lies in the column span of lat over the integers."""
    if len(vec) != lat.rows:
        raise ValueError("dimension mismatch")
    return echelon_form(lat).substitute(vec) is not None


def lattice_contains(outer: IntMatrix, inner: IntMatrix) -> bool:
    """Column span of inner is a sublattice of the column span of outer."""
    if inner.rows != outer.rows:
        raise ValueError("dimension mismatch")
    ech = echelon_form(outer)
    return all(ech.substitute(col) is not None for col in zip(*inner.entries))

