from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsys.abgroups import AbHom, FgAbGroup
from invsys.derived import validate_absystem
from invsys.generators import random_unimodular
from invsys.intlinalg import (IntMatrix, echelon_form, invariant_factors, relative_kernel,
                              sparse_invariant_factors)
from invsys.poset import chain_poset, grid_poset

from conftest import (_det_perm, det, echelon_solve, full_nerve_complex, in_lattice,
                      kernel_basis, minors_gcd_invariants, random_int_matrix,
                      smith_normal_form, smith_solve)

matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def snf_checks(m: IntMatrix):
    u, d, v = smith_normal_form(m)
    assert u.mul(m).mul(v).entries == d.entries
    assert det(u.entries) in (1, -1) and det(v.entries) in (1, -1)
    diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    return diag


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_properties(rows):
    snf_checks(IntMatrix.from_rows(rows))


def test_snf_matches_minors_gcd_oracle():
    rng = random.Random(4)
    for _ in range(60):
        m = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        # the transform-free factors, of m and of its transpose, and the
        # diagonal of the Smith form with transforms
        _, d, _ = smith_normal_form(m)
        diagonal = [d.entries[i][i] for i in range(min(m.rows, m.cols)) if d.entries[i][i]]
        assert invariant_factors(m) == invariant_factors(m.transpose()) == diagonal \
            == minors_gcd_invariants(m)
    # sparse rows with unit and non-unit entries, like nerve rows with torsion
    torsion = 0
    for _ in range(400):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [{j: rng.choice((-3, -2, -1, 1, 2, 3)) for j in range(c) if rng.random() < 0.4}
                for _ in range(r)]
        m = IntMatrix.from_rows([[row.get(j, 0) for j in range(c)] for row in rows])
        factors = sparse_invariant_factors(rows)
        assert factors == minors_gcd_invariants(m)
        torsion += any(x > 1 for x in factors)
    assert torsion  # non-unit pivots are reached, not only unit ones
    # row 0 holds no unit: its pivot 2 leaves the remainder 1 in row 1, where
    # `pivot` finishes, and row 0 pivots again on what is left of it
    assert sparse_invariant_factors([{0: 2, 1: 3}, {1: 1, 0: 1}]) == [1, 1]
    # beyond minors-gcd, against the dense Smith loop with transforms
    torsion = second = 0
    for _ in range(300):
        r, c, density = rng.randint(1, 12), rng.randint(1, 12), rng.random()
        rows = [{j: rng.choice((-1, 1, -2, 2, 3, 4, 6, -9)) for j in range(c)
                 if rng.random() < density} for _ in range(r)]
        _, d, _ = smith_normal_form(IntMatrix.from_rows(
            [[row.get(j, 0) for j in range(c)] for row in rows]))
        factors = sparse_invariant_factors(rows)
        assert factors == [d.entries[i][i] for i in range(min(r, c)) if d.entries[i][i]]
        torsion += any(x > 1 for x in factors)
        # no unit, so the first pivot is the least entry; a remainder in
        # its row or column forces a second pivot
        entries = [(abs(x), i, j) for i, row in enumerate(rows) for j, x in row.items()]
        if entries and min(entries)[0] > 1:
            _, i, j = min(entries)
            p = rows[i][j]
            second += any(x % p for x in rows[i].values()) or \
                any(row.get(j, 0) % p for row in rows)
    assert torsion and second


def test_snf_handles_big_entries():
    m = IntMatrix.from_rows([[10**30, 1], [7, 10**25]])
    diag = snf_checks(m)
    assert diag[0] == 1


@pytest.mark.parametrize("shape", [(3, 0), (0, 4), (0, 0)], ids=["3x0", "0x4", "0x0"])
def test_snf_on_matrices_without_entries(shape):
    m = IntMatrix.zeros(*shape)
    u, d, v = smith_normal_form(m)
    assert snf_checks(m) == minors_gcd_invariants(m) == invariant_factors(m) == []
    assert u == IntMatrix.identity(m.rows) and v == IntMatrix.identity(m.cols)
    assert kernel_basis(m) == list(IntMatrix.identity(m.cols).entries)
    assert relative_kernel(m, IntMatrix.zeros(m.rows, 0)) == IntMatrix.identity(m.cols)


@pytest.mark.parametrize("rows, diag", [
    ([[2, 0], [0, 3]], [1, 6]),            # needs the divisibility round
    ([[4, 0], [0, 6]], [2, 12]),           # the gcd/lcm pass makes pivots 4, 6 a chain
    ([[-4]], [4]),                         # a lone negative pivot
    ([[0, 0, 0], [0, -7, 0]], [7, 0]),     # the same, off the diagonal
    ([[6, 4]], [2]),                       # a remainder left in the pivot row
    ([[6], [4]], [2]),                     # a remainder left in the pivot column
    ([[4, 6], [6, 9], [2, 3]], [1, 0]),
], ids=["divisibility", "gcd-lcm", "negative", "negative-off-diagonal",
        "row-remainder", "column-remainder", "rank-one"])
def test_snf_cases(rows, diag):
    m = IntMatrix.from_rows(rows)
    assert snf_checks(m) == diag
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    assert [x for x in diag if x] == minors_gcd_invariants(m) \
        == sparse_invariant_factors(sparse)


def test_solve_roundtrip():
    rng = random.Random(5)
    for _ in range(60):
        m = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x = [rng.randint(-5, 5) for _ in range(m.cols)]
        b = m.apply(x)
        got = echelon_solve(m, b)
        assert got is not None
        assert m.apply(got) == tuple(b)


def test_solve_detects_unsolvable():
    m = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert echelon_solve(m, [1, 0]) is None
    assert echelon_solve(m, [2, -4]) == (1, -2)


def test_kernel_basis_spans_kernel():
    rng = random.Random(6)
    for _ in range(40):
        m = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        ker = kernel_basis(m)
        for v in ker:
            assert all(x == 0 for x in m.apply(list(v)))
        assert len(ker) == m.cols - len(invariant_factors(m))


def test_relative_kernel_membership():
    # x lands in the lattice iff m x is an integer combination of lattice rows
    rng = random.Random(7)
    for _ in range(30):
        m = random_int_matrix(rng, 3, 3, -4, 4)
        lat = random_int_matrix(rng, 3, 2, -4, 4)
        gens = relative_kernel(m, lat)
        for j in range(gens.cols):
            assert in_lattice(lat, m.apply(gens.col(j)))
        for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
            if in_lattice(lat, m.apply(v)):
                assert in_lattice(gens, v)


def test_random_unimodular_builds_the_inverse_alongside():
    rng = random.Random(39)
    for n in range(1, 6):
        for _ in range(30):
            w, winv = random_unimodular(rng, n)
            assert w.mul(winv).entries == IntMatrix.identity(n).entries
            assert winv.mul(w).entries == IntMatrix.identity(n).entries


def test_det_examples():
    # the rational-elimination oracle against permutation expansion
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 1], [1, 0]]) == -1  # needs a row swap
    rng = random.Random(9)
    for _ in range(30):
        m = random_int_matrix(rng, 3, 3)
        assert det(m.entries) == _det_perm([list(r) for r in m.entries])
    for n in (1, 2, 4, 5):
        for _ in range(10):
            m = random_int_matrix(rng, n, n, -2, 2)
            assert det(m.entries) == _det_perm([list(r) for r in m.entries])


def test_rank_examples():
    assert len(invariant_factors(IntMatrix.from_rows([[1, 2], [2, 4]]))) == 1
    assert len(invariant_factors(IntMatrix.zeros(3, 2))) == 0
    assert len(invariant_factors(IntMatrix.identity(4))) == 4


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-4, 4), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def _minor(m: IntMatrix, rs, cs) -> int:
    return det([[m.entries[i][j] for j in cs] for i in rs])


def _rational_rank(m: IntMatrix) -> int:
    """Rank by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m.entries]
    r = 0
    for j in range(m.cols):
        p = next((i for i in range(r, m.rows) if a[i][j]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, m.rows):
            q = a[i][j] / a[r][j]
            a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


@settings(max_examples=200, deadline=None)
@given(small_matrices)
def test_kernel_basis_against_minors_oracle(rows):
    # no Smith form here: rank and saturation come from Bareiss minors
    m = IntMatrix.from_rows(rows)
    _check_kernel_lattice(m, kernel_basis(m))


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_relative_kernel_without_lattice_is_the_kernel(rows):
    # a lattice with no columns: the relative kernel is the plain kernel
    m = IntMatrix.from_rows(rows)
    gens = relative_kernel(m, IntMatrix.zeros(m.rows, 0))
    assert gens.rows == m.cols
    _check_kernel_lattice(m, [gens.col(j) for j in range(gens.cols)])


def _check_kernel_lattice(m: IntMatrix, ker):
    """ker is a basis of the integer kernel of m: the rank from rational
    elimination, saturation from Bareiss minors."""
    for x in ker:
        assert not any(m.apply(x))
    assert len(ker) == m.cols - _rational_rank(m)
    if ker:
        # saturated: the maximal minors of the basis have gcd 1, so the
        # vectors span every integer point of their rational span
        basis = IntMatrix.from_cols(ker, rows=m.cols)
        g = 0
        for rs in itertools.combinations(range(basis.rows), basis.cols):
            g = math.gcd(g, _minor(basis, rs, range(basis.cols)))
            if g == 1:
                break
        assert g == 1


# up to 8 x 14 with a right-hand side: m, x and a small offset d; b = m x + d
# is in the lattice when d = 0 and mostly is not otherwise
echelon_cases = st.integers(0, 8).flatmap(
    lambda r: st.integers(0, 14).flatmap(
        lambda c: st.tuples(
            st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                     min_size=r, max_size=r),
            st.lists(st.integers(-5, 5), min_size=c, max_size=c),
            st.lists(st.integers(-1, 1), min_size=r, max_size=r),
            st.just(c))))


@settings(max_examples=150, deadline=None)
@given(echelon_cases)
def test_echelon_membership_and_solve_against_smith_oracle(case):
    rows, x, d, c = case
    m = IntMatrix.from_rows(rows, cols=c)
    image = m.apply(x)
    for b in (image, tuple(y + e for y, e in zip(image, d))):
        got, oracle = echelon_solve(m, b), smith_solve(m, b)
        assert (got is None) == (oracle is None) == (not in_lattice(m, b))
        if got is not None:
            assert m.apply(got) == tuple(b)
    ech = echelon_form(m, c)  # the form that carries all of T
    assert list(ech.pivots) == sorted(set(ech.pivots))
    assert len(ech.pivots) == len(invariant_factors(m))
    for i, col in zip(ech.pivots, ech.columns):
        assert col[i] > 0 and not any(col[:i])
    assert det(ech.transform) in (1, -1)  # its transpose has the same determinant
    # m T = [E | 0], and the membership form is the same E without T
    assert [m.apply(t) for t in ech.transform] == \
        [*ech.columns, *[(0,) * m.rows] * (c - len(ech.pivots))]
    member = echelon_form(m)
    assert (member.pivots, member.columns, member.transform) == (ech.pivots, ech.columns, ())


@settings(max_examples=100, deadline=None)
@given(echelon_cases)
def test_echelon_kernel_basis_against_minors_oracle(case):
    m = IntMatrix.from_rows(case[0], cols=case[3])
    _check_kernel_lattice(m, kernel_basis(m))


def test_relative_kernel_is_the_projected_full_kernel():
    # the truncated transform gives the coordinates of m exactly as the full
    # transform of [m | lat] has them, and each generator x has m x in the
    # span of lat by the Smith oracle
    rng = random.Random(9)
    shapes = [(0, 2, 1), (2, 0, 2), (2, 3, 0), (0, 0, 0)]
    shapes += [(rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 5)) for _ in range(80)]
    for r, c, k in shapes:
        m = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)],
                                cols=c)
        lat = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(k)] for _ in range(r)],
                                  cols=k)
        full = echelon_form(m.hstack(lat), c + k)
        projected = [t[:c] for t in full.transform[len(full.pivots):] if any(t[:c])]
        rel = relative_kernel(m, lat)
        assert rel == IntMatrix.from_cols(projected, rows=c)
        assert all(smith_solve(lat, m.apply(x)) is not None for x in zip(*rel.entries))


@pytest.mark.parametrize("base", [chain_poset(6), grid_poset(3, 3)],
                         ids=["chain6", "grid3x3"])
def test_kernel_entries_stay_small_on_nerve_complexes(base):
    # guards the echelon transform entries that kernel_basis returns unreduced,
    # on every flag of the base: the cofinal core of both is their top alone
    z = FgAbGroup.free(1)
    s = validate_absystem(base, {e: z for e in base.elements},
                          {cov: AbHom(z, z, IntMatrix.identity(1)) for cov in base.covers})
    bits = max(abs(x).bit_length()
               for d in full_nerve_complex(s).diff for vec in kernel_basis(d.dense()) for x in vec)
    assert bits < 32
