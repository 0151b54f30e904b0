"""Shared oracles and generators for the test suite.

The oracles here are deliberately naive re-derivations: product filtering
for limits and for Henkin members, composition along a cover path for
surjectivity and universal images, a rescan of the elements for the linear
extension, pairwise upper bounds for directedness, minors-gcd for invariant
factors, permutation expansion and rational elimination for determinants,
element enumeration in the Smith basis for finite groups, counting cochains
for the order of a derived limit, subset filtering for the flags of a
poset and the nerve complex over every one of them that the cofinal core
replaced, the scan of each up-set for a maximum or a minimum that
`Poset.core` replaced, counting cyclic summands prime power by prime power
for embeddings, the presented subquotient of cocycles by coboundaries that
`derived.cohomology` replaced, the subquotient on the given generators and
the exactness report from H^0 on those generators and solves against
[cocycles | relations] that the echelon basis replaced, the dense Smith
loop with transforms that the sparse elimination of the invariant factors
replaced, the Smith-form solve that the echelon form replaced, the
triangle relators and their lattice that the cycle criterion of `bergman`
replaced, and the reader that matched every label, rule and cover of a
file on its own.  They exist so the library code is checked against an
independent computation, not against itself.  The sphere models, the face
posets of triangulated surfaces, with constant Z and with the orientation
system, and product posets have answers known from the topology (McCord,
twisted Poincare duality, Kunneth), not from a computation; so does
`scd_witness_system`, the lim^1 probe on the wedge that `scd` does not
sample because it is not surjective.

`echelon_solve`, `kernel_basis` and `in_lattice` read `echelon_form`
directly, `echelon_solve` and `kernel_basis` through all of its transform,
so the transform that `relative_kernel` reads is checked against the
Smith and minors oracles.  The seeded random posets, set systems, towers
and exact sequences live here too: only the tests draw them.

The serializers at the end write posets and systems in the text formats
that `textio` reads; no command writes a file, so only the tests need them.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction
from functools import lru_cache

from invsys import textio
from invsys.abgroups import (AbHom, FgAbGroup, group_invariants, hom_cokernel,
                             hom_is_valid, is_exact_at, is_injective)
from invsys.bergman import FreeAbElement, triangle_relator
from invsys.derived import (AbSystem, CochainComplex, ExactnessReport, cohomology,
                            validate_absystem)
from invsys.diagram import Diagram
from invsys.errors import ParseError, SupportExceedsBound
from invsys.generators import random_surjective_absystem
from invsys.intlinalg import (IntMatrix, SparseMatrix, echelon_form, lattice_contains,
                              relative_kernel)
from invsys.poset import Poset, validate_poset
from invsys.setsys import SetSystem, Thread, validate_system, validate_tower


def brute_force_threads(s: SetSystem) -> list[Thread]:
    """All threads by filtering the full cartesian product of carriers."""
    elems = s.base.elements
    out = []
    for combo in itertools.product(*(s.carriers[e] for e in elems)):
        assignment = dict(zip(elems, combo))
        ok = all(s.bond(lo, hi)[assignment[hi]] == assignment[lo]
                 for lo in elems for hi in elems
                 if lo != hi and s.base.leq(lo, hi))
        if ok:
            out.append(Thread.of(assignment))
    return out


def is_thread(s: SetSystem, t: Thread) -> bool:
    """Whether t agrees with every cover bond of s."""
    m = t.as_dict()
    return all(bmap[m[hi]] == m[lo] for (lo, hi), bmap in s.cover_bonds.items())


def composite_along_path(s, lower: str, upper: str):
    """The bond from upper to lower of a set or abelian system, composed by
    hand along one path of covers down from upper: at each step the first
    cover in base order whose lower end still lies above lower."""
    base = s.base
    bond, e = None, upper
    while e != lower:
        lo = next(c for c, u in base.covers if u == e and base.leq(lower, c))
        step = s.cover_bonds[(lo, e)]
        if bond is None:
            bond = step
        elif isinstance(s, SetSystem):
            bond = {x: step[y] for x, y in bond.items()}
        else:
            bond = type(step)(bond.source, step.target, step.matrix.mul(bond.matrix))
        e = lo
    return bond


def surjectivity_oracle(s) -> tuple[bool, "tuple[str, str] | None"]:
    """(every comparable pair onto, first non-onto cover in base order).

    Each pair's bond is composed by `composite_along_path`.  A map of sets
    is onto when its values fill the lower carrier; a hom of abelian groups,
    with target relations R and matrix M, when the rows of R and of M
    transposed span Z^n, which minors-gcd decides.
    """
    base = s.base

    def onto(bond, lower) -> bool:
        if isinstance(s, SetSystem):
            return set(bond.values()) == set(s.carriers[lower])
        n = s.group(lower).ngens
        rows = [list(r) for r in s.group(lower).relations.entries]
        rows += [list(r) for r in bond.matrix.transpose().entries]
        return minors_gcd_invariants(IntMatrix.from_rows(rows, cols=n)) == [1] * n

    first = next(((lo, hi) for lo, hi in base.covers
                  if not onto(s.cover_bonds[(lo, hi)], lo)), None)
    every = all(onto(composite_along_path(s, lo, hi), lo)
                for lo in base.elements for hi in base.elements
                if lo != hi and base.leq(lo, hi))
    return every, first


def naive_universal_images(s: SetSystem) -> tuple[dict, dict]:
    """(restricted carriers, meta) from the definition: the carriers of the
    system `universal_images` returns, and a verdict for every comparable
    pair that its cover check must agree with.

    Each carrier is cut to the images of every carrier above it, each
    composed by `composite_along_path`; then, until nothing changes, an
    element is dropped when a cover bond sends it outside the cut carrier
    below.  meta[(i, j)], for each i < j in declared order, says whether the
    composite bond maps the cut carrier at j onto the cut carrier at i.
    """
    elems = s.base.elements
    pairs = [(lo, hi) for lo in elems for hi in elems if lo != hi and s.base.leq(lo, hi)]
    composites = {pair: composite_along_path(s, *pair) for pair in pairs}
    keep = {e: set(s.carriers[e]) for e in elems}
    for (lo, hi), bond in composites.items():
        keep[lo] &= set(bond.values())
    changed = True
    while changed:
        changed = False
        for lo, hi in s.base.covers:
            out = {x for x in keep[hi] if s.cover_bonds[(lo, hi)][x] not in keep[lo]}
            keep[hi] -= out
            changed = changed or bool(out)
    carriers = {e: tuple(x for x in s.carriers[e] if x in keep[e]) for e in elems}
    meta = {(lo, hi): {bond[x] for x in keep[hi]} == keep[lo]
            for (lo, hi), bond in composites.items()}
    return carriers, meta


def naive_linear_extension(elements, covers) -> list:
    """The order `Poset.linear_extension` gives, found the slow way: place,
    again and again, the first declared element not yet placed whose every
    strict lower element (by `floyd_warshall_leq`) is placed."""
    reach = floyd_warshall_leq(elements, covers)
    out: list = []
    while len(out) < len(elements):
        out.append(next(e for e in elements if e not in out
                        and all(x in out for x in elements if x != e and reach[(x, e)])))
    return out


def even_tuple_members(elements, covers, maxlen: int) -> dict:
    """level -> the members of the even-tuple system at level with length at
    most maxlen, sorted by (length, tuple): every even tuple over the
    elements, filtered by the definition of membership with the order of
    `floyd_warshall_leq`.  A tuple is a member only at its second-to-last
    entry, its last odd entry."""
    reach = floyd_warshall_leq(elements, covers)

    def member(t) -> bool:
        odds, evens = t[0::2], t[1::2]
        return (all(reach[(o, u)] for o, u in zip(odds, evens))
                and not any(reach[(odds[i], odds[j])]
                            for i in range(len(odds)) for j in range(i)))

    out: dict = {e: [] for e in elements}
    for n in range(2, maxlen + 1, 2):
        for t in itertools.product(elements, repeat=n):
            if member(t):
                out[t[-2]].append(t)
    return {e: sorted(ts, key=lambda t: (len(t), t)) for e, ts in out.items()}


def minors_gcd_invariants(m: IntMatrix) -> list[int]:
    """Invariant factors as successive quotients of k-minor gcds."""
    r = min(m.rows, m.cols)
    rows = range(m.rows)
    cols = range(m.cols)
    dks = [1]
    for k in range(1, r + 1):
        g = 0
        for rs in itertools.combinations(rows, k):
            for cs in itertools.combinations(cols, k):
                g = math.gcd(g, _minor(m, rs, cs))
        dks.append(g)
    out = []
    for k in range(1, r + 1):
        if dks[k] == 0:
            break
        out.append(dks[k] // dks[k - 1])
    return out


def _minor(m: IntMatrix, rs, cs) -> int:
    sub = [[m.entries[i][j] for j in cs] for i in rs]
    return _det_perm(sub)


def _det_perm(rows: list[list[int]]) -> int:
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def det(rows) -> int:
    """Determinant of a square matrix, given by its rows, by Gaussian
    elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of non-square matrix")
    out = Fraction(1)
    for j in range(n):
        p = next((i for i in range(j, n) if a[i][j]), None)
        if p is None:
            return 0
        if p != j:
            a[j], a[p] = a[p], a[j]
            out = -out
        out *= a[j][j]
        for i in range(j + 1, n):
            q = a[i][j] / a[j][j]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[j])]
    return int(out)


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*m*V = D in Smith normal form: D diagonal with
    nonnegative entries d1 | d2 | ..., U and V unimodular.

    A dense loop of pivot rounds (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.4.14): each round moves the smallest
    nonzero entry of the trailing submatrix, ties in row-major order, to
    (t, t) and divides its row and column by it with remainder; a
    remainder, or an entry the pivot does not divide, starts another round.
    So each diagonal entry divides the rest before the next is taken, where
    `intlinalg.sparse_invariant_factors` makes the chain only at the end,
    by gcd/lcm: the two share no step.
    """
    r, c = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_op(i, j, q):  # row_i += q * row_j, in a and in u
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i += q * col_j, in a and in v
        for row in a + v:
            row[i] += q * row[j]

    t = 0
    while t < min(r, c):
        pivot = min(((abs(x), i, j) for i in range(t, r)
                     for j, x in enumerate(a[i][t:], t) if x), default=None)
        if pivot is None:
            break
        _, i, j = pivot
        a[t], a[i] = a[i], a[t]
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
    return (IntMatrix.from_rows(u, cols=r), IntMatrix.from_rows(a, cols=c),
            IntMatrix.from_rows(v, cols=c))


def smith_solve(m: IntMatrix, b) -> "tuple[int, ...] | None":
    """One integer solution x of m x = b, or None, through the Smith form
    U m V = D: D y = U b is solved entry by entry and x = V y."""
    u, d, v = smith_normal_form(m)
    c = u.apply(b)
    y = [0] * m.cols
    for i in range(m.rows):
        di = d.entries[i][i] if i < m.cols else 0
        if di:
            if c[i] % di:
                return None
            y[i] = c[i] // di
        elif c[i]:
            return None
    return v.apply(y)


def echelon_solve(m: IntMatrix, b) -> "tuple[int, ...] | None":
    """One integer solution x of m x = b, or None, through the echelon form
    m T = [E | 0] with all of T: E y = b by forward substitution, x = T y."""
    ech = echelon_form(m, m.cols)
    y = ech.substitute(b)
    if y is None:
        return None
    return tuple(sum(q * t[i] for q, t in zip(y, ech.transform)) for i in range(m.cols))


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """The columns of the echelon transform T after the pivots: T is
    unimodular, so they are a basis of the integer kernel lattice of m,
    not merely of a finite-index sublattice.  `relative_kernel` keeps the
    leading coordinates of the same columns."""
    ech = echelon_form(m, m.cols)
    return list(ech.transform[len(ech.pivots):])


def in_lattice(lat: IntMatrix, vec) -> bool:
    """Whether vec lies in the column span of lat, by forward substitution
    in the membership echelon form, which carries no transform."""
    return echelon_form(lat).substitute(vec) is not None


def h_relators(alpha: int, n: int) -> list[FreeAbElement]:
    """All triangle relators with indices in {alpha..n}."""
    return [triangle_relator(i, j, k)
            for i in range(alpha, n + 1)
            for j in range(i + 1, n + 1)
            for k in range(j + 1, n + 1)]


def lattice_h_subgroup_member(e: FreeAbElement, alpha: int, n: int) -> bool:
    """Whether e lies in the span of the triangle relators with indices in
    {alpha..n}, by integer solvability over all of them: the relators are
    the columns of a lattice, and e is tested against its echelon form.
    Raises SupportExceedsBound when e mentions an index outside 1..n."""
    for gn in e.support():
        if gn[0] != "g":
            return False
        if gn[2] > n or gn[1] < 1:
            raise SupportExceedsBound(f"generator {gn} outside truncation 1..{n}")
    rels = h_relators(alpha, n)
    coords = sorted({gn for r in rels for gn in r.support()} | set(e.support()))
    index = {gn: i for i, gn in enumerate(coords)}

    def vec(el: FreeAbElement) -> list[int]:
        v = [0] * len(coords)
        for gn, c in el.coeffs:
            v[index[gn]] = c
        return v

    lat = IntMatrix.from_cols([vec(r) for r in rels], rows=len(coords))
    return in_lattice(lat, vec(e))


def upper_bounds(p: Poset, a: str, b: str) -> list[str]:
    """The common upper bounds of a and b, in declared order."""
    return [e for e in p.elements if p.leq(a, e) and p.leq(b, e)]


def is_directed(p: Poset) -> bool:
    """Every pair of elements has a common upper bound."""
    return all(upper_bounds(p, a, b)
               for i, a in enumerate(p.elements) for b in p.elements[i + 1:])


def group_order(g: FgAbGroup) -> "int | None":
    """Number of elements, or None when the group is infinite."""
    rank, torsion = group_invariants(g)
    return None if rank else math.prod(torsion)


class FiniteGroupElements:
    """Element enumeration and canonical forms for a finite presented group.

    Canonical coordinates live in the Smith basis of the relation lattice:
    coordinate i ranges over Z/d_i.  Only usable when the group is finite.
    """

    def __init__(self, g: FgAbGroup):
        if group_order(g) is None:
            raise ValueError("group is infinite")
        self.group = g
        lat = g.relation_lattice()  # ngens x nrel
        u, d, _ = smith_normal_form(lat)
        self.u = u
        self.diag = [d.entries[i][i] if i < lat.cols else 0 for i in range(g.ngens)]
        assert all(di > 0 for di in self.diag), "finite group must have full-rank relations"

    def canon(self, x) -> tuple[int, ...]:
        """Canonical form of a generator-coordinate vector."""
        y = self.u.apply(x)
        return tuple(yi % di for yi, di in zip(y, self.diag))

    def elements(self) -> list[tuple[int, ...]]:
        """All elements in canonical coordinates."""
        return list(itertools.product(*(range(d) for d in self.diag)))

    def to_gen_coords(self, canon) -> tuple[int, ...]:
        """Generator coordinates of a canonical form: the solution x of
        U x = canon, which exists as U is unimodular."""
        return smith_solve(self.u, canon)


@lru_cache(maxsize=1024)
def finite_elements(g: FgAbGroup) -> FiniteGroupElements:
    return FiniteGroupElements(g)


def apply_hom_canon(h: AbHom, canon) -> tuple[int, ...]:
    """Apply a hom between finite groups in canonical coordinates."""
    src = finite_elements(h.source)
    tgt = finite_elements(h.target)
    return tgt.canon(h.matrix.apply(src.to_gen_coords(canon)))


def invariants_embed_by_prime_powers(small: tuple[int, list[int]],
                                     big: tuple[int, list[int]]) -> bool:
    """Whether a group with the invariants `small` embeds in one with `big`:
    ranks must not drop, and for each prime power p^k the number of cyclic
    summands of order divisible by p^k must not drop either.  The primes
    come from trial division of the factors."""
    rank_s, tors_s = small
    rank_b, tors_b = big
    if rank_s > rank_b:
        return False

    def primes(factors):
        ps = set()
        for f in factors:
            n, p = f, 2
            while n > 1:
                while n % p == 0:
                    n //= p
                    ps.add(p)
                p += 1
        return ps

    def val(n, p):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    for p in primes(tors_s):
        k = 1
        while True:
            cnt_s = sum(1 for f in tors_s if val(f, p) >= k)
            if cnt_s == 0:
                break
            cnt_b = sum(1 for f in tors_b if val(f, p) >= k)
            if cnt_s > cnt_b:
                return False
            k += 1
    return True


def floyd_warshall_leq(elements, covers):
    """Reachability closure of the cover relation, computed the slow way."""
    reach = {(a, b): a == b for a in elements for b in elements}
    for (lo, hi) in covers:
        reach[(lo, hi)] = True
    for k in elements:
        for a in elements:
            for b in elements:
                if reach[(a, k)] and reach[(k, b)]:
                    reach[(a, b)] = True
    return reach


def random_int_matrix(rng: random.Random, rows: int, cols: int,
                      lo: int = -9, hi: int = 9) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_poset(rng: random.Random, max_elements: int = 5,
                 ensure_maximum: bool = False) -> Poset:
    n = rng.randint(1, max_elements)
    labels = [f"p{i}" for i in range(n)]
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                covers.append((labels[i], labels[j]))
    p = validate_poset(labels, covers)
    if ensure_maximum and p.has_maximum() is None:
        top = labels[-1]
        extra = [(m, top) for m in p.maximal_elements() if m != top]
        p = validate_poset(labels, covers + extra)
        if p.has_maximum() is None:  # pragma: no cover - top now dominates
            raise AssertionError
    return p


def random_forest_poset(rng: random.Random, max_elements: int = 5) -> Poset:
    """Poset whose cover graph is a forest, so arbitrary bonds are functorial."""
    n = rng.randint(1, max_elements)
    labels = [f"p{i}" for i in range(n)]
    covers = []
    for j in range(1, n):
        if rng.random() < 0.75:
            covers.append((labels[rng.randrange(j)], labels[j]))
    return validate_poset(labels, covers)


def random_set_system(rng: random.Random, base: Poset,
                      max_carrier: int = 4) -> SetSystem:
    """Random valid system over a forest-shaped poset (bonds unconstrained)."""
    carriers = {e: tuple(f"{e}x{i}" for i in range(rng.randint(1, max_carrier)))
                for e in base.elements}
    bonds = {}
    for (lo, hi) in base.covers:
        bonds[(lo, hi)] = {x: rng.choice(carriers[lo]) for x in carriers[hi]}
    return validate_system(base, carriers, bonds)


def random_surjective_set_system(rng: random.Random, base: Poset,
                                 max_top: int = 4) -> SetSystem:
    """Quotients of one seed set by partitions that coarsen downward.

    Maximal elements get random partitions; every other element gets the
    join of the partitions at its upper covers, then random merges.
    """
    seed = range(rng.randint(1, max_top))
    block: dict[str, dict[int, int]] = {}  # element -> seed point -> block id
    for e in reversed(base.linear_extension()):
        uppers = base.upper_covers[e]
        classes = {x: x if uppers else rng.randrange(len(seed)) for x in seed}
        for u in uppers:  # the join: each block at u falls inside one class here
            for x in seed:
                first = next(y for y in seed if block[u][y] == block[u][x])
                old, new = classes[x], classes[first]
                classes = {z: new if c == old else c for z, c in classes.items()}
        # random extra merges keep the chain strictly coarsening sometimes
        merge = list(range(len(seed)))
        for b in range(len(seed)):
            if rng.random() < 0.3:
                merge[b] = merge[rng.randrange(b + 1)]
        classes = {x: merge[b] for x, b in classes.items()}
        relabel = {}
        for x in seed:
            if classes[x] not in relabel:
                relabel[classes[x]] = len(relabel)
        block[e] = {x: relabel[classes[x]] for x in seed}
    carriers = {e: tuple(f"{e}b{i}" for i in sorted(set(block[e].values())))
                for e in base.elements}
    bonds = {}
    for (lo, hi) in base.covers:
        bmap = {}
        for x in seed:
            bmap[f"{hi}b{block[hi][x]}"] = f"{lo}b{block[lo][x]}"
        bonds[(lo, hi)] = bmap
    return validate_system(base, carriers, bonds)


def random_tower(rng: random.Random, horizon: int = 12,
                 max_carrier: int = 5) -> SetSystem:
    carriers = [tuple(range(rng.randint(1, max_carrier)))
                for _ in range(horizon + 1)]
    steps = [{x: rng.choice(carriers[n]) for x in carriers[n + 1]}
             for n in range(horizon)]
    return validate_tower(horizon, carriers, steps)


def random_exact_sequence(rng: random.Random, base: Poset,
                          max_gens: int = 2):
    """A level-wise exact 0 -> A -> B -> C -> 0 with commuting ladders.

    B is the level-wise direct sum of A and C with bonds twisted by a
    coboundary, which keeps functoriality automatic while exercising
    non-diagonal matrices.  Returns (A, B, C, u, v).
    """
    a = random_surjective_absystem(rng, base, max_gens)
    c = random_surjective_absystem(rng, base, max_gens)
    # one relation-respecting "potential" hom per element drives the twist;
    # fall back to zero (plain split) when no random candidate is valid
    pot = {}
    for e in base.elements:
        chosen = AbHom.zero(c.group(e), a.group(e))
        for _ in range(8):
            m = random_int_matrix(rng, a.group(e).ngens, c.group(e).ngens, -1, 1)
            cand = AbHom(c.group(e), a.group(e), m)
            if hom_is_valid(cand):
                chosen = cand
                break
        pot[e] = chosen
    groups_b = {}
    for e in base.elements:
        ga, gc = a.group(e), c.group(e)
        rel = []
        for row in ga.relations.entries:
            rel.append(list(row) + [0] * gc.ngens)
        for row in gc.relations.entries:
            rel.append([0] * ga.ngens + list(row))
        groups_b[e] = FgAbGroup(ga.ngens + gc.ngens,
                                IntMatrix.from_rows(rel, cols=ga.ngens + gc.ngens))
    bonds_b = {}
    for (lo, hi) in base.covers:
        fa = a.cover_bonds[(lo, hi)].matrix
        fc = c.cover_bonds[(lo, hi)].matrix
        # t = f_a . pot_hi - pot_lo . f_c  keeps composites consistent
        t_rows = []
        prod1 = fa.mul(pot[hi].matrix)
        prod2 = pot[lo].matrix.mul(fc)
        for r in range(fa.rows):
            t_rows.append([prod1.entries[r][cidx] - prod2.entries[r][cidx]
                           for cidx in range(fc.cols)])
        rows = []
        for r in range(fa.rows):
            rows.append(list(fa.entries[r]) + t_rows[r])
        for r in range(fc.rows):
            rows.append([0] * fa.cols + list(fc.entries[r]))
        bonds_b[(lo, hi)] = AbHom(groups_b[hi], groups_b[lo],
                                  IntMatrix.from_rows(rows, cols=fa.cols + fc.cols))
    b = validate_absystem(base, groups_b, bonds_b)
    u, v = {}, {}
    for e in base.elements:
        ga, gc, gb = a.group(e), c.group(e), groups_b[e]
        inc = [[int(i == j) for j in range(ga.ngens)] for i in range(gb.ngens)]
        u[e] = AbHom(ga, gb, IntMatrix.from_rows(inc, cols=ga.ngens))
        proj = [[int(j == ga.ngens + i) for j in range(gb.ngens)]
                for i in range(gc.ngens)]
        v[e] = AbHom(gb, gc, IntMatrix.from_rows(proj, cols=gb.ngens))
    return a, b, c, u, v


def sphere_model(n: int) -> Poset:
    """McCord's minimal finite model of the n-sphere: levels 0..n of two
    incomparable points each, every point below both points of the next
    level.  Its nerve is the n-sphere, so constant Z on it has H^0 = H^n = Z
    and no other cohomology for n >= 1 (McCord 1966)."""
    levels = [(f"a{k}", f"b{k}") for k in range(n + 1)]
    covers = [(lo, hi) for k in range(n) for lo in levels[k] for hi in levels[k + 1]]
    return validate_poset([e for level in levels for e in level], covers)


def brute_force_flags(p: Poset, among=None) -> list[list[tuple[str, ...]]]:
    """The strictly increasing flags of p within the elements among (all of
    p by default) by subset filtering: every subset whose members are
    pairwise comparable by leq, placed in a linear extension, grouped by
    size and each size listed in lexicographic order of declared
    positions; [[]] when there are no elements."""
    among = p.elements if among is None else among
    rank = {e: i for i, e in enumerate(naive_linear_extension(p.elements, p.covers))}
    declared = {e: i for i, e in enumerate(p.elements)}
    flags = []
    for k in range(1, len(among) + 1):
        found = [tuple(sorted(sub, key=rank.get))
                 for sub in itertools.combinations(among, k)
                 if all(p.leq(a, b) or p.leq(b, a) for a, b in itertools.combinations(sub, 2))]
        if not found:  # no k pairwise comparable elements, so no more of any size
            break
        flags.append(sorted(found, key=lambda fl: [declared[e] for e in fl]))
    return flags or [[]]


def face_poset(triangles: list[tuple[str, str, str]]) -> Poset:
    """The faces of the simplicial complex spanned by the triangles, ordered
    by inclusion: vertices, then edges, then triangles, each labelled by its
    vertices joined with "_".  Its nerve is the barycentric subdivision of
    the complex, so constant Z on it has the complex's cohomology."""
    faces = sorted({tuple(sorted(f)) for t in triangles
                    for k in (1, 2, 3) for f in itertools.combinations(t, k)},
                   key=lambda f: (len(f), f))
    label = "_".join
    covers = [(label(lo), label(hi)) for hi in faces if len(hi) > 1
              for lo in itertools.combinations(hi, len(hi) - 1)]
    return validate_poset([label(f) for f in faces], covers)


def constant_z(p: Poset) -> AbSystem:
    """Z on every element of p, every bond the identity."""
    z = FgAbGroup.free(1)
    return validate_absystem(p, {e: z for e in p.elements},
                             {cov: AbHom(z, z, IntMatrix.identity(1)) for cov in p.covers})


def scd_witness_system(base: Poset) -> AbSystem:
    """The deterministic nonvanishing probe: Z at minimal elements, 0 above.

    Not a surjective system unless the poset is an antichain, so `scd`
    does not sample it; it is the standard witness for a nonzero first
    derived limit on non-directed shapes (wedge: free rank 1).
    """
    groups = {e: (FgAbGroup.trivial() if base.lower_covers[e] else FgAbGroup.free(1))
              for e in base.elements}
    bonds = {(lo, hi): AbHom.zero(groups[hi], groups[lo]) for lo, hi in base.covers}
    return validate_absystem(base, groups, bonds)


def product_poset(p: Poset, q: Poset) -> Poset:
    """The product order on p x q, element (a, b) labelled "axb": covers
    (lo x b, hi x b) and (a x lo, a x hi).  Its order complex is the product
    of the two nerves up to homotopy (Quillen 1978, Prop. 1.9), so constant
    Z on it has the cohomology the Kunneth formula gives."""
    covers = [(f"{lo}x{b}", f"{hi}x{b}") for lo, hi in p.covers for b in q.elements]
    covers += [(f"{a}x{lo}", f"{a}x{hi}") for a in p.elements for lo, hi in q.covers]
    return validate_poset([f"{a}x{b}" for a in p.elements for b in q.elements], covers)


def rp2_triangles() -> list[tuple[str, ...]]:
    """The real projective plane from its 6-vertex triangulation: 6 vertices,
    15 edges, 10 triangles.  With constant Z its cohomology is Z, 0, Z/2:
    connected, first homology Z/2 (so no free H^1), and non-orientable."""
    return [tuple(t) for t in "123 134 145 156 162 235 346 452 563 624".split()]


def grid_surface_triangles(flip: bool) -> list[tuple[str, ...]]:
    """The 3x3 grid with two triangles per square, its sides glued to a
    torus, or to a Klein bottle when flip: then the top row is glued to the
    bottom row turned over, (i, 3) ~ (-i, 0).  9 vertices, 27 edges, 18
    triangles.  With constant Z the torus has cohomology Z, Z^2, Z; the
    Klein bottle, with first homology Z + Z/2 and non-orientable, has
    Z, Z, Z/2."""
    def vertex(i, j):
        if j == 3 and flip:
            i = -i
        return f"v{i % 3}{j % 3}"

    triangles = []
    for i in range(3):
        for j in range(3):
            triangles.append((vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1)))
            triangles.append((vertex(i, j), vertex(i, j + 1), vertex(i + 1, j + 1)))
    return triangles


def orientation_system(triangles: list[tuple[str, ...]]) -> AbSystem:
    """Z^w, the orientation local system of the closed surface spanned by the
    triangles, on `face_poset(triangles)`: Z on every face.  An orientation
    of the star of a face s is a sign per triangle containing s, +1 on the
    first, propagated across the edges containing s so that two triangles
    on such an edge induce opposite signs on it; sorted (v0, v1, v2)
    induces (-1)^k on the edge without v_k.  The bond of s < t is the
    product of the two stars' signs on any triangle containing t.  Twisted
    Poincare duality gives H^n(N; Z^w) = H_(2-n)(N; Z) (Hatcher, Algebraic
    Topology, 3.H)."""
    p = face_poset(triangles)
    tris = sorted({tuple(sorted(t)) for t in triangles})
    stars = {}
    for e in p.elements:
        face = set(e.split("_"))
        star = [t for t in tris if face <= set(t)]
        sign, todo = {star[0]: 1}, [star[0]]
        while todo:
            t = todo.pop()
            for k in range(3):
                edge = t[:k] + t[k + 1:]
                if not face <= set(edge):
                    continue
                for u in star:
                    if u != t and set(edge) <= set(u):
                        j = next(j for j, v in enumerate(u) if v not in edge)
                        flipped = -sign[t] * (-1) ** (k + j)
                        if u not in sign:
                            todo.append(u)
                        assert sign.setdefault(u, flipped) == flipped, "the star is a disk"
        stars[e] = sign
    z = FgAbGroup.free(1)
    bonds = {}
    for lo, hi in p.covers:
        t = next(iter(stars[hi]))
        bonds[(lo, hi)] = AbHom(z, z, IntMatrix.from_rows([[stars[lo][t] * stars[hi][t]]]))
    return validate_absystem(p, {e: z for e in p.elements}, bonds)


def kernel_subquotient(gens: IntMatrix, sub: IntMatrix) -> FgAbGroup:
    """(span of gens columns) / (span of sub columns), presented on the given
    columns of gens: the relators are the integer combinations of them that
    fall into span(sub), from the kernel of [gens | sub]."""
    rel = relative_kernel(gens, sub)
    return FgAbGroup(gens.cols, rel.transpose())


def presented_cohomology(cx: CochainComplex, n: int) -> FgAbGroup:
    """H^n as (cocycles modulo the relations) / (coboundaries), presented on
    the generators of the cocycle lattice: the full-transform Smith path."""
    if n < 0 or n > cx.top_degree:
        return FgAbGroup.trivial()
    z = relative_kernel(cx.diff[n].dense(), cx.lattice(n + 1))
    sub = cx.lattice(n)
    if n > 0:
        sub = sub.hstack(cx.diff[n - 1].dense())
    assert lattice_contains(z, sub), "coboundaries must be cocycles"
    return kernel_subquotient(z, sub)


def cone_deletion_core(p: Poset) -> tuple[str, ...]:
    """The cofinal core by the rule of `Poset.core`, each test a scan: x goes
    when some m among the elements left strictly above it is their maximum
    (every one of them lies below m) or their minimum (m lies below every
    one of them); declared order, repeated until nothing goes."""
    kept = list(p.elements)
    shrank = True
    while shrank:
        shrank = False
        for x in list(kept):
            above = [y for y in kept if p.lt(x, y)]
            if any(all(p.leq(y, m) for y in above) or all(p.leq(m, y) for y in above)
                   for m in above):
                kept.remove(x)
                shrank = True
    return tuple(kept)


def full_nerve_complex(sys: AbSystem) -> CochainComplex:
    """The normalized nerve complex of sys over every flag of its base, not
    only the cofinal core's: the flags of `brute_force_flags`, the bond
    into each flag's smallest element from `composite_along_path`, and the
    differential written entry by entry.  The cochain on flag t of degree
    n + 1 receives the bond t[1] -> t[0] from the flag t[1:] and (-1)^k
    times the identity from each inner face, the flag without t[k]."""
    flags = brute_force_flags(sys.base)
    blocks, dims = [], []
    for level in flags:
        sizes = [sys.group(fl[0]).ngens for fl in level]
        offsets = list(itertools.accumulate(sizes, initial=0))
        blocks.append([(off, sys.group(fl[0])) for off, fl in zip(offsets, level)])
        dims.append(offsets[-1])
    start = [{fl: off for fl, (off, _) in zip(level, layout)}
             for level, layout in zip(flags, blocks)]
    diff = []
    for n in range(len(flags)):
        upper = flags[n + 1] if n + 1 < len(flags) else []
        cols: list[dict[int, int]] = [{} for _ in range(dims[n])]
        for t in upper:
            row = start[n + 1][t]
            bond = composite_along_path(sys, t[0], t[1]).matrix
            for a in range(bond.rows):
                for b in range(bond.cols):
                    if bond.entries[a][b]:
                        cols[start[n][t[1:]] + b][row + a] = bond.entries[a][b]
            for k in range(1, n + 2):
                for a in range(sys.group(t[0]).ngens):
                    cols[start[n][t[:k] + t[k + 1:]] + a][row + a] = (-1) ** k
        diff.append(SparseMatrix(dims[n + 1] if upper else 0, tuple(cols)))
    return CochainComplex(flags, blocks, dims, diff)


def kernel_h0_with_basis(sys: AbSystem) -> tuple[FgAbGroup, IntMatrix, CochainComplex]:
    """H^0 of the full base, presented on the kernel generators of the
    0-cocycles of `full_nerve_complex`, which are returned as the basis."""
    cx = full_nerve_complex(sys)
    z = relative_kernel(cx.diff[0].dense(), cx.lattice(1))
    return kernel_subquotient(z, cx.lattice(0)), z, cx


def solved_limit_hom(level_maps: dict[str, AbHom], src_h0, tgt_h0) -> AbHom:
    """The induced hom between the H^0 groups of `kernel_h0_with_basis`: each
    source generator mapped block by block, then solved against the target
    generators next to the target relations."""
    h0_s, z_s, cx_s = src_h0
    h0_t, z_t, cx_t = tgt_h0
    blocks = [(off, level_maps[e].matrix)
              for (e,), (off, _) in zip(cx_s.flags[0], cx_s.blocks[0])]
    aug = z_t.hstack(cx_t.lattice(0))
    cols = []
    for j in range(z_s.cols):
        z = z_s.col(j)
        image = [y for off, m in blocks for y in m.apply(z[off:off + m.cols])]
        sol = echelon_solve(aug, image)
        assert sol is not None, "level map does not preserve compatible families"
        cols.append(sol[: z_t.cols])
    h = AbHom(h0_s, h0_t, IntMatrix.from_cols(cols, rows=z_t.cols))
    assert hom_is_valid(h)
    return h


def solved_exactness_report(a: AbSystem, b: AbSystem, c: AbSystem,
                            u: dict[str, AbHom], v: dict[str, AbHom]) -> ExactnessReport:
    """The report of `derived.limit_exactness_check` for a level-wise exact
    sequence, from `kernel_h0_with_basis` and `solved_limit_hom` on the full
    base, with surjectivity and embeddings decided by the oracles here."""
    h0_a, h0_b, h0_c = (kernel_h0_with_basis(s) for s in (a, b, c))
    lim_u = solved_limit_hom(u, h0_a, h0_b)
    lim_v = solved_limit_hom(v, h0_b, h0_c)
    lim1_a = group_invariants(cohomology(h0_a[2], 1))
    coker_v = group_invariants(hom_cokernel(lim_v))
    return ExactnessReport(
        lim_a=group_invariants(h0_a[0]), lim_b=group_invariants(h0_b[0]),
        lim_c=group_invariants(h0_c[0]), lim1_a=lim1_a,
        u_injective=is_injective(lim_u), exact_at_middle=is_exact_at(lim_u, lim_v),
        v_surjective=coker_v == (0, []), coker_v=coker_v,
        coker_embeds_in_lim1=invariants_embed_by_prime_powers(coker_v, lim1_a),
        a_surjective=surjectivity_oracle(a)[0],
        base_has_maximum=a.base.has_maximum() is not None)


def cochain_count_order(sys: AbSystem, m: int, n: int) -> int:
    """|H^n| of a system whose every group is Z/m, by counting cochains.

    Builds the normalized nerve complex with its own flag list and plain
    arithmetic mod m: (dx)(i0 < ... < ik) is the bond i1 -> i0 applied to
    x(i1 < ... < ik) plus the alternating sum of the inner faces.  Then
    |H^n| = |ker d_n| * |ker d_(n-1)| / m^(number of n-element flags), each
    kernel counted by running through every cochain.
    """
    base = sys.base
    elems = list(base.elements)
    flags = [[()]]  # flags[k] lists the flags of k elements, up to an empty list
    while flags[-1]:
        flags.append([(e,) + fl for fl in flags[-1] for e in elems
                      if not fl or base.lt(e, fl[0])])
    mult = {(lo, hi): sys.bond(lo, hi).matrix.entries[0][0] % m
            for lo in elems for hi in elems if base.lt(lo, hi)}

    def kernel_size(k: int) -> int:  # cochains on (k + 1)-element flags killed by d
        src, tgt = flags[k + 1], flags[k + 2] if k + 2 < len(flags) else []
        index = {fl: i for i, fl in enumerate(src)}
        terms = [[(index[fl[1:]], mult[(fl[0], fl[1])])]
                 + [(index[fl[:j] + fl[j + 1:]], (-1) ** j) for j in range(1, len(fl))]
                 for fl in tgt]
        return sum(all(sum(c * x[i] for i, c in row) % m == 0 for row in terms)
                   for x in itertools.product(range(m), repeat=len(src)))

    if n < 0 or n + 1 >= len(flags) or not flags[n + 1]:
        return 1
    if n == 0:
        return kernel_size(0)
    return kernel_size(n) * kernel_size(n - 1) // m ** len(flags[n])


_LABEL = re.compile(rf"^{textio.LABEL}$")
_SET = re.compile(rf"^set\s+({textio.LABEL})\s*:\s*\{{(.*)\}}$")
_MAP = re.compile(rf"^map\s+({textio.LABEL})\s*->\s*({textio.LABEL})\s*:\s*(.*)$")
_RULE = re.compile(rf"^\s*({textio.LABEL})\s*->\s*({textio.LABEL})\s*$")
_POSET_LINE = re.compile(r"^(elements|covers):(.*)$")
_COVER = re.compile(rf"^\s*({textio.LABEL})\s*<\s*({textio.LABEL})\s*$")


def per_token_document(text: str) -> textio.Document:
    """What `textio.parse_document` reads, read token by token: each line
    split into all its words, and every label, rule and cover matched and
    declared on its own, in order.  Header, group and matrix lines, which
    hold no token lists, and the closing checks of a block are textio's."""
    doc, block, named = textio.Document(), None, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]
        if head in textio._HEADERS:
            textio._close_block(block, doc)
            pattern, usage = textio._HEADERS[head]
        elif head == "group" and block is None:
            pattern, usage = textio._GROUP_LINE, "group NAME gens K relations [[..]]"
        elif block is not None:
            _per_token_line(block, line, lineno)
            continue
        else:
            raise ParseError(lineno, f"unexpected declaration {line!r}")
        m = pattern.fullmatch(line)
        if not m:
            raise ParseError(lineno, f"expected: {usage}")
        if (head, m[1]) in named:
            raise ParseError(lineno, f"{head} {m[1]} is already declared "
                                     f"at line {named[(head, m[1])]}")
        named[(head, m[1])] = lineno
        if head == "group":
            doc.groups[m[1]] = textio._group(m, lineno)
        else:
            block = textio._Block(head, m[1], lineno, m.groups()[1:])
    textio._close_block(block, doc)
    return doc


def _label(tok: str, lineno: int) -> str:
    if not _LABEL.match(tok):
        raise ParseError(lineno, f"bad label {tok!r}")
    return tok


def _per_token_line(b, line: str, lineno: int) -> None:
    word = textio._WORDS.get(b.kind)
    if b.kind == "poset":
        m = _POSET_LINE.match(line)
        if not m:
            raise ParseError(lineno, f"unexpected poset line {line!r}")
        for tok in (m[2].split() if m[1] == "elements" else ()):
            b.declare("objects", _label(tok, lineno), None, lineno)
        for pair in (m[2].split(",") if m[1] == "covers" and m[2].strip() else ()):
            c = _COVER.match(pair)
            if not c:
                raise ParseError(lineno, f"bad cover {pair.strip()!r}")
            b.declare("arrows", (c[1], c[2]), None, lineno)
    elif word != "set":  # an absystem or a sequence: matrix lines, no token lists
        textio._parse_block_line(b, line, lineno)
    elif line.startswith("set "):
        m = _SET.match(line)
        if not m:
            raise ParseError(lineno, "expected: set ELEM: { x y z }")
        labels = tuple(_label(t, lineno) for t in m[2].split())
        if len(set(labels)) != len(labels):
            raise ParseError(lineno, "a carrier lists a label twice")
        b.declare("objects", m[1], labels, lineno)
    elif b.kind == "tower" and re.match(r"^map\s+all\s*:\s*clipdec$", line):
        b.declare("arrows", "all", "clipdec", lineno)
    elif line.startswith("map "):
        m = _MAP.match(line)
        if not m:
            raise ParseError(lineno, "expected: map UPPER -> LOWER: x -> y, ...")
        bmap = {}
        for rule in m[3].split(","):
            r = _RULE.match(rule)
            if not r:
                raise ParseError(lineno, f"bad map rule {rule.strip()!r}")
            if r[1] in bmap:
                raise ParseError(lineno, f"two rules for {r[1]}")
            bmap[r[1]] = r[2]
        b.declare("arrows", (m[2], m[1]), bmap, lineno)
    else:
        raise ParseError(lineno, f"unexpected {b.kind} line {line!r}")


# -- serialization: only the tests write the text formats -----------------


def poset_to_text(name: str, p: Poset) -> str:
    lines = [f"poset {name}", "elements: " + " ".join(p.elements)]
    if p.covers:
        lines.append("covers: " + ", ".join(f"{a} < {b}" for a, b in p.covers))
    return "\n".join(lines) + "\n"


def _rows(m: IntMatrix) -> str:
    return str([list(r) for r in m.entries])


def _object_text(e: str, obj) -> str:
    if isinstance(obj, FgAbGroup):
        return f"group {e}: gens {obj.ngens} relations {_rows(obj.relations)}"
    return f"set {e}: {{ " + " ".join(str(x) for x in obj) + " }"


def _arrow_text(arrow) -> str:
    if isinstance(arrow, AbHom):
        return f"matrix {_rows(arrow.matrix)}"
    return ", ".join(f"{x} -> {y}" for x, y in arrow.items())


def _diagram_to_text(header: str, d: Diagram) -> str:
    """The header, one object line per element, one map line per cover."""
    lines = [header] + [_object_text(e, d.objects[e]) for e in d.base.elements]
    lines += [f"map {hi} -> {lo}: {_arrow_text(d.cover_bonds[(lo, hi)])}"
              for lo, hi in d.base.covers]
    return "\n".join(lines) + "\n"


def system_to_text(name: str, over: str, s: SetSystem) -> str:
    return _diagram_to_text(f"system {name} over {over}", s)


def tower_to_text(name: str, t: SetSystem) -> str:
    return _diagram_to_text(f"tower {name} horizon {len(t.base.elements) - 1}", t)


def absystem_to_text(name: str, over: str, s: AbSystem) -> str:
    return _diagram_to_text(f"absystem {name} over {over}", s)


def sequence_to_text(name: str, over: str, systems: tuple[str, str, str],
                     u: dict[str, AbHom], v: dict[str, AbHom]) -> str:
    lines = [f"sequence {name} over {over} systems " + " ".join(systems)]
    for tag, table in (("u", u), ("v", v)):
        for e, h in table.items():
            lines.append(f"map {tag} at {e}: matrix {_rows(h.matrix)}")
    return "\n".join(lines) + "\n"
