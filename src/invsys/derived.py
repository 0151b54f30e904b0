"""Limits and higher limits of abelian-group systems over finite posets.

The higher limits are computed as cohomology of the normalized nerve
cochain complex: degree n is the direct sum, over strictly increasing
flags i0 < ... < in, of the group at the flag's smallest element, and the
differential combines the bond into the new smallest element with the
alternating sum of flag-face omissions.  Degrees above the longest chain
vanish, so the complex is finite.

`nerve_complex` builds that complex over the cofinal core of the base
(`Poset.core`), which has the same limits in every degree: its flags are
the base's cached `Poset.core_flags`, walked once per base and capped by
its budget, and its bonds are those of the system it is given.  So the
systems of one base share one core and one flag list, and no restricted
system is built.

Write L(k) for the block relation lattice of C(k) (columns: the relation
basis `FgAbGroup.relation_lattice` of each flag's group, at most ngens
columns however many relators the group declares) and d for the
differentials, stored sparse by column.  `cohomology` presents H^n by
invariant factors alone, for any coefficient groups:

    H^n = ker D / im A,   D = [d_n | -L(n+1)],
    A = [[d_(n-1) | L(n)], [Y | Z]],

where L(n+1) Y = d_n d_(n-1) and L(n+1) Z = d_n L(n) are solved one flag
block of C(n+1) at a time, each against one group's relation basis.  The
columns of each block of L(n+1) are independent, so L(n+1) has no kernel
and A needs no third block column spanning it.  Then D A = 0, ker D is
saturated, the free rank of H^n is dim C(n) + #L(n+1) - rank D - rank A
and its torsion is the invariant factors of A other than 1.  Both come
from `sparse_invariant_factors` (one sparse elimination, each row
pivoting on its least entry, no transforms).  The block solves are the
check that coboundaries are cocycles; each is one forward substitution,
as a relation basis is its own echelon form.  They, the kernels and the
echelon H^0 bases of `h0_with_basis`, in which the exactness report reads
its maps by forward substitution, come from column echelon forms
(`intlinalg.echelon_form`); no Smith transform here.
"""

from __future__ import annotations

from .abgroups import (AbHom, FgAbGroup, group_invariants, hom_cokernel,
                       hom_compose, hom_equal, hom_is_valid, invariants_embed,
                       is_exact_at, is_injective, is_surjective_hom,
                       is_trivial_group, subquotient)
from .diagram import Diagram
from .errors import NotLevelwiseExact, SquaresDoNotCommute
from .intlinalg import (IntMatrix, SparseMatrix, echelon_form, relative_kernel,
                        sparse_invariant_factors)
from .poset import Poset


class AbSystem(Diagram):
    """Inverse system of finitely generated abelian groups over a poset.  The
    groups are re-keyed in base order; the bond dict is kept, not copied: a
    system never mutates its bonds."""

    def __init__(self, base: Poset, groups: dict[str, FgAbGroup],
                 cover_bonds: dict[tuple[str, str], AbHom]):
        super().__init__(base, {e: groups[e] for e in base.elements}, cover_bonds)
        self.groups = self.objects

    def group(self, e: str) -> FgAbGroup:
        return self.groups[e]

    def check(self, lower: str, upper: str, h: AbHom) -> None:
        if h.source != self.groups[upper] or h.target != self.groups[lower]:
            raise ValueError(f"bond {upper} -> {lower} has wrong source/target group")
        if not hom_is_valid(h):
            raise ValueError(f"bond {upper} -> {lower} does not respect relations")

    def identity(self, e: str) -> AbHom:
        return AbHom.identity(self.groups[e])

    def compose(self, g: AbHom, f: AbHom) -> AbHom:
        return hom_compose(g, f)

    def equal(self, f: AbHom, g: AbHom) -> bool:
        return hom_equal(f, g)

    def is_onto(self, h: AbHom, lower: str) -> bool:
        return is_surjective_hom(h)


def validate_absystem(base: Poset, groups: dict[str, FgAbGroup],
                      cover_bonds: dict[tuple[str, str], AbHom]) -> AbSystem:
    return AbSystem(base, groups, cover_bonds).validate()


class CochainComplex:
    """Normalized nerve complex of an AbSystem, stored as block data.

    flags[n] lists the degree-n flags; blocks[n] has, for each of them in
    order, the offset of its generators in C(n) and its group; dims[n] is
    the total generator count of C(n); diff[n] maps C(n) -> C(n+1).
    """

    def __init__(self, flags: list[list[tuple[str, ...]]],
                 blocks: list[list[tuple[int, FgAbGroup]]], dims: list[int],
                 diff: list[SparseMatrix]):
        self.flags, self.blocks, self.dims, self.diff = flags, blocks, dims, diff

    @property
    def top_degree(self) -> int:
        return len(self.flags) - 1

    def relations(self, n: int) -> list[dict[int, int]]:
        """The relation lattice L(n) of C(n) as sparse columns: block by
        block, the relation basis of the flag's group."""
        return [{off + a: x for a, x in enumerate(col) if x}
                for off, g in self.blocks[n] for col in zip(*g.relation_lattice().entries)]

    def lattice(self, n: int) -> IntMatrix:
        """L(n) as a dense matrix of columns; no rows above the top degree."""
        if n > self.top_degree:
            return IntMatrix.zeros(0, 0)
        return SparseMatrix(self.dims[n], tuple(self.relations(n))).dense()


def nerve_complex(sys: AbSystem) -> CochainComplex:
    flags = sys.base.core_flags  # [[]] for an empty base: C(0) = 0, no generators
    top = len(flags)

    offsets: list[dict[tuple[str, ...], int]] = []
    blocks: list[list[tuple[int, FgAbGroup]]] = []
    dims: list[int] = []
    for n in range(top):
        off, layout, total = {}, [], 0
        for fl in flags[n]:
            off[fl] = total
            layout.append((total, sys.group(fl[0])))
            total += sys.group(fl[0]).ngens
        offsets.append(off)
        blocks.append(layout)
        dims.append(total)

    diffs = []
    for n in range(top):
        cols: list[dict[int, int]] = [{} for _ in range(dims[n])]
        for gfl in (flags[n + 1] if n + 1 < top else ()):
            r0 = offsets[n + 1][gfl]
            # bond term: source flag drops the smallest element
            c0 = offsets[n][gfl[1:]]
            for a, row in enumerate(sys.bond(gfl[0], gfl[1]).matrix.entries):
                for b, x in enumerate(row):
                    if x:
                        cols[c0 + b][r0 + a] = x
            # face terms: drop an inner element, keep the coefficient group;
            # every term has its own source flag, so none of them cancel
            for k in range(1, n + 2):
                sign = -1 if k % 2 else 1
                c0 = offsets[n][gfl[:k] + gfl[k + 1:]]
                for a in range(sys.group(gfl[0]).ngens):
                    cols[c0 + a][r0 + a] = sign
        diffs.append(SparseMatrix(dims[n + 1] if n + 1 < top else 0, tuple(cols)))
    return CochainComplex(flags, blocks, dims, diffs)


def cohomology(cx: CochainComplex, n: int) -> FgAbGroup:
    """H^n = ker D / im A (module docstring), presented in Smith form.

    Lifting the coboundaries into L(n+1) block by block is the check that
    they are cocycles: a block with no solution fails the assertion.
    """
    if n < 0 or n > cx.top_degree:
        return FgAbGroup.trivial()
    dim, d = cx.dims[n], cx.diff[n]
    next_blocks = cx.blocks[n + 1] if n < cx.top_degree else []
    rel_next = cx.relations(n + 1) if next_blocks else []
    # negating the columns of L(n+1) changes no invariant factor of D
    rank_d = len(sparse_invariant_factors(list(d.columns) + rel_next))

    # the block of each row of C(n+1), where its relations start in L(n+1),
    # and the echelon form of each block's relation basis: the basis itself
    owner, starts, forms, at = [], [], [], dim
    for k, (_, g) in enumerate(next_blocks):
        owner += [k] * g.ngens
        starts.append(at)
        lat = g.relation_lattice()
        forms.append(echelon_form(lat))
        at += lat.cols

    def lift(x: dict[int, int]) -> dict[int, int]:
        """x and below it the y with L(n+1) y = d x, block by block."""
        by_block: dict[int, dict[int, int]] = {}
        for i, v in d.apply(x).items():
            by_block.setdefault(owner[i], {})[i] = v
        out = dict(x)
        for k, part in by_block.items():
            off, g = next_blocks[k]
            sol = forms[k].substitute([part.get(off + a, 0) for a in range(g.ngens)])
            assert sol is not None, "coboundaries must be cocycles"
            out.update((starts[k] + j, y) for j, y in enumerate(sol) if y)
        return out

    boundaries = (list(cx.diff[n - 1].columns) if n else []) + cx.relations(n)
    a = [lift(x) for x in boundaries]
    factors = sparse_invariant_factors(a)
    free = dim + len(rel_next) - rank_d - len(factors)
    torsion = [f for f in factors if f != 1]
    ngens = free + len(torsion)
    return FgAbGroup(ngens, IntMatrix.from_rows(
        [[f if j == i else 0 for j in range(ngens)] for i, f in enumerate(torsion)], cols=ngens))


def derived_limit(sys: AbSystem, n: int) -> FgAbGroup:
    return cohomology(nerve_complex(sys), n)


def h0_with_basis(sys: AbSystem) -> tuple[FgAbGroup, IntMatrix, CochainComplex]:
    """H^0 with its generators in C(0), the echelon basis of the 0-cocycles
    on the cofinal core."""
    cx = nerve_complex(sys)
    z = relative_kernel(cx.diff[0].dense(), cx.lattice(1))  # the 0-cocycles
    basis = IntMatrix.from_cols(echelon_form(z).columns, rows=cx.dims[0])
    return subquotient(z, cx.lattice(0)), basis, cx


def induced_limit_hom(level_maps: dict[str, AbHom],
                      src_h0: tuple[FgAbGroup, IntMatrix, CochainComplex],
                      tgt_h0: tuple[FgAbGroup, IntMatrix, CochainComplex]) -> AbHom:
    """The hom between H^0 groups induced by a level-wise map of systems.

    src_h0 and tgt_h0 are what h0_with_basis returns for the two systems.
    """
    h0_s, z_s, cx_s = src_h0
    h0_t, z_t, _ = tgt_h0
    # each level map acts on its own block of C(0), one per 1-element flag
    blocks = [(off, level_maps[e].matrix)
              for (e,), (off, _) in zip(cx_s.flags[0], cx_s.blocks[0])]
    ech = echelon_form(z_t)  # z_t is its own echelon form: E y = image gives y
    cols = []
    for j in range(z_s.cols):
        z = z_s.col(j)
        image = [y for off, m in blocks for y in m.apply(z[off:off + m.cols])]
        coords = ech.substitute(image)
        assert coords is not None, "level map does not preserve compatible families"
        cols.append(coords)
    mat = IntMatrix.from_cols(cols, rows=z_t.cols)
    h = AbHom(h0_s, h0_t, mat)
    assert hom_is_valid(h)
    return h


# -- exactness experiments ------------------------------------------------


class ExactnessReport:
    """What `limit_exactness_check` finds; compared field by field.  The
    lim_* and coker_v fields are (free rank, torsion) as `group_invariants`
    gives them."""

    def __init__(self, lim_a: tuple[int, list[int]], lim_b: tuple[int, list[int]],
                 lim_c: tuple[int, list[int]], lim1_a: tuple[int, list[int]],
                 u_injective: bool, exact_at_middle: bool, v_surjective: bool,
                 coker_v: tuple[int, list[int]], coker_embeds_in_lim1: bool,
                 a_surjective: bool, base_has_maximum: bool):
        self.lim_a, self.lim_b, self.lim_c, self.lim1_a = lim_a, lim_b, lim_c, lim1_a
        self.u_injective, self.exact_at_middle = u_injective, exact_at_middle
        self.v_surjective, self.coker_v = v_surjective, coker_v
        self.coker_embeds_in_lim1 = coker_embeds_in_lim1
        self.a_surjective, self.base_has_maximum = a_surjective, base_has_maximum

    def __eq__(self, other):
        return isinstance(other, ExactnessReport) and vars(self) == vars(other)

    @property
    def exact(self) -> bool:
        return self.u_injective and self.exact_at_middle and self.v_surjective

    @property
    def ok(self) -> bool:
        """Everything a surjective-first-term sequence over a directed
        base is guaranteed to satisfy at the limit."""
        verdict = self.u_injective and self.exact_at_middle and self.coker_embeds_in_lim1
        if self.a_surjective and self.base_has_maximum:
            verdict = verdict and self.v_surjective
        return verdict


def limit_exactness_check(a: AbSystem, b: AbSystem, c: AbSystem,
                          u: dict[str, AbHom], v: dict[str, AbHom]) -> ExactnessReport:
    """Check that taking limits preserves a level-wise short exact sequence.

    Verifies level-wise exactness and commuting ladders first, then computes
    the three limits with their induced maps and tests injectivity,
    middle exactness, surjectivity (expected when the kernel system is
    surjective and the base has a maximum), and that the cokernel of the
    right-hand limit map can embed into the first derived limit of the
    kernel system.
    """
    base = a.base
    for e in base.elements:
        ue, ve = u[e], v[e]
        if ue.source != a.group(e) or ue.target != b.group(e):
            raise ValueError(f"u at {e} has wrong endpoints")
        if ve.source != b.group(e) or ve.target != c.group(e):
            raise ValueError(f"v at {e} has wrong endpoints")
        if not (hom_is_valid(ue) and hom_is_valid(ve)):
            raise ValueError(f"level map at {e} does not respect relations")
        if not is_injective(ue):
            raise NotLevelwiseExact(f"u at {e} is not injective")
        if not is_exact_at(ue, ve):
            raise NotLevelwiseExact(f"sequence at {e} is not exact in the middle")
        if not is_trivial_group(hom_cokernel(ve)):
            raise NotLevelwiseExact(f"v at {e} is not surjective")
    for name, src, tgt, maps in (("u", a, b, u), ("v", b, c, v)):
        cover = src.first_noncommuting_cover(tgt, maps)
        if cover:
            raise SquaresDoNotCommute(f"{name}-square at cover {cover[0]} < {cover[1]}")

    # one nerve complex per system, over the cofinal core of the base: H^0 of
    # each, and lim^1 of a from the same complex; restricting is an
    # isomorphism on H^0, so the level maps simply restrict
    h0_a, h0_b, h0_c = (h0_with_basis(s) for s in (a, b, c))
    lim_u = induced_limit_hom(u, h0_a, h0_b)
    lim_v = induced_limit_hom(v, h0_b, h0_c)
    lim1_a = cohomology(h0_a[2], 1)
    coker_v = hom_cokernel(lim_v)
    return ExactnessReport(
        lim_a=group_invariants(lim_u.source),
        lim_b=group_invariants(lim_u.target),
        lim_c=group_invariants(lim_v.target),
        lim1_a=group_invariants(lim1_a),
        u_injective=is_injective(lim_u),
        exact_at_middle=is_exact_at(lim_u, lim_v),
        v_surjective=is_trivial_group(coker_v),
        coker_v=group_invariants(coker_v),
        coker_embeds_in_lim1=invariants_embed(group_invariants(coker_v),
                                              group_invariants(lim1_a)),
        a_surjective=a.first_non_onto() is None,
        base_has_maximum=base.has_maximum() is not None,
    )


def scd_finite(base: Poset, trials: int, seed: int) -> int:
    """Sampled lower bound for the surjective cohomological dimension.

    Runs `trials` randomly generated surjective systems and returns the
    largest degree with a nonzero derived limit seen.  A sample, not a
    proof; 0 at once when no two elements of the cofinal core are
    comparable.
    """
    import random

    from .generators import random_surjective_absystem
    if len(base.core_flags) == 1:  # no degree above 0
        return 0
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        cx = nerve_complex(random_surjective_absystem(rng, base))  # one for every degree
        for n in range(cx.top_degree, best, -1):
            if not is_trivial_group(cohomology(cx, n)):
                best = n
                break
        if best == cx.top_degree:  # no derived limit lies above it
            break
    return best
