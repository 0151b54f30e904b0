"""Shared oracles and generators for the test suite.

The oracles here are deliberately naive re-derivations: product filtering
for limits and for Henkin members, composition along a cover path for
surjectivity and universal images, a rescan of the elements for the linear
extension, pairwise upper bounds for directedness, minors-gcd for invariant
factors, permutation expansion and rational elimination for determinants,
element enumeration in the Smith basis for finite groups, counting cochains
for the order of a derived limit, counting cyclic summands prime power by
prime power for embeddings, the presented subquotient of cocycles by
coboundaries that `derived.cohomology` replaced, the subquotient on the
given generators and the exactness report from H^0 on those generators
and solves against [cocycles | relations] that the echelon basis replaced,
the Smith-form solve that
the echelon form replaced, the relator lattice that the cycle criterion of
`bergman` replaced, and the reader that matched every label, rule and cover
of a file on its own.  They exist so the library code is checked against an
independent computation, not against itself.
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
from invsys.bergman import FreeAbElement, h_relators
from invsys.derived import (AbSystem, CochainComplex, ExactnessReport, cohomology,
                            nerve_complex)
from invsys.errors import ParseError, SupportExceedsBound
from invsys.intlinalg import (IntMatrix, in_lattice, lattice_contains,
                              relative_kernel, smith_normal_form, solve)
from invsys.poset import Poset, validate_poset
from invsys.setsys import SetSystem, Thread


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


def sphere_model(n: int) -> Poset:
    """McCord's minimal finite model of the n-sphere: levels 0..n of two
    incomparable points each, every point below both points of the next
    level.  Its nerve is the n-sphere, so constant Z on it has H^0 = H^n = Z
    and no other cohomology for n >= 1 (McCord 1966)."""
    levels = [(f"a{k}", f"b{k}") for k in range(n + 1)]
    covers = [(lo, hi) for k in range(n) for lo in levels[k] for hi in levels[k + 1]]
    return validate_poset([e for level in levels for e in level], covers)


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


def kernel_h0_with_basis(sys: AbSystem) -> tuple[FgAbGroup, IntMatrix, CochainComplex]:
    """H^0 of the full base, presented on the kernel generators of the
    0-cocycles, which are returned as the basis."""
    cx = nerve_complex(sys)
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
        sol = solve(aug, image)
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
