"""Finitely generated abelian groups as integer presentations.

A group is Z^ngens modulo the row lattice of a relation matrix; a
homomorphism is an integer matrix on generators that must carry every
source relator into the target's relation lattice.  Each group computes a
basis of that lattice once (`FgAbGroup.relation_lattice`): the columns of
the echelon form of its relators, at most ngens of them however many
relators are declared.  Membership, kernels, images, exactness, cokernels
and subquotients (presented on an echelon basis) work on these bases
through the cached column echelon forms of the relevant lattices.
Invariants come from transform-free invariant factors of the declared
relators, which cost less than a basis would for a group that has none
yet.  The declared relators are kept as they are: they define the group's
equality, its hash and every cache key.  No Smith transform is computed
here.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .intlinalg import (IntMatrix, echelon_form, invariant_factors,
                        lattice_contains, relative_kernel)


class FgAbGroup:
    """Z^ngens modulo the rows of relations; compared and hashed by value."""

    def __init__(self, ngens: int, relations: IntMatrix):
        if relations.cols != ngens:
            raise ValueError("relation width must equal generator count")
        self.ngens = ngens
        self.relations = relations  # rows are relators in the generators

    def __eq__(self, other):
        return (isinstance(other, FgAbGroup)
                and (self.ngens, self.relations) == (other.ngens, other.relations))

    def __hash__(self):
        return hash((self.ngens, self.relations))

    @staticmethod
    def free(n: int) -> "FgAbGroup":
        return FgAbGroup(n, IntMatrix.from_rows([], cols=n))

    @staticmethod
    def cyclic(order: int) -> "FgAbGroup":
        return FgAbGroup(1, IntMatrix.from_rows([[order]]))

    @staticmethod
    def trivial() -> "FgAbGroup":
        return FgAbGroup(0, IntMatrix.from_rows([], cols=0))

    def relation_lattice(self) -> IntMatrix:
        """A basis of the relation lattice, as columns in Z^ngens: the
        columns of the echelon form of the relators, so it is itself in
        echelon form (`echelon_form` gives it back with no operation)."""
        return self._lattice

    @cached_property
    def _lattice(self) -> IntMatrix:  # reduced once per group
        return IntMatrix.from_cols(echelon_form(self.relations.transpose()).columns,
                                   rows=self.ngens)


def group_invariants(g: FgAbGroup) -> tuple[int, list[int]]:
    """(free rank, nontrivial invariant factors)."""
    factors = invariant_factors(g.relations)
    return g.ngens - len(factors), [f for f in factors if f != 1]


def is_trivial_group(g: FgAbGroup) -> bool:
    rank, torsion = group_invariants(g)
    return rank == 0 and not torsion


class AbHom:
    """A homomorphism source -> target by its matrix on generators; compared
    and hashed by value."""

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix):
        if matrix.rows != target.ngens or matrix.cols != source.ngens:
            raise ValueError("matrix shape does not match source/target")
        self.source, self.target = source, target
        self.matrix = matrix  # (target.ngens x source.ngens), acts on columns

    def __eq__(self, other):
        return (isinstance(other, AbHom) and (self.source, self.target, self.matrix)
                == (other.source, other.target, other.matrix))

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    @staticmethod
    def identity(g: FgAbGroup) -> "AbHom":
        return AbHom(g, g, IntMatrix.identity(g.ngens))

    @staticmethod
    def zero(source: FgAbGroup, target: FgAbGroup) -> "AbHom":
        return AbHom(source, target, IntMatrix.zeros(target.ngens, source.ngens))


@lru_cache(maxsize=4096)
def hom_is_valid(h: AbHom) -> bool:
    """Every source relator must land in the target relation lattice.

    Cached, as AbHom is hashable: a level map of a sequence is checked when
    the file is read and again by `limit_exactness_check`.  The images of
    a basis of the source relation lattice suffice."""
    ech = echelon_form(h.target.relation_lattice())
    apply = h.matrix.apply
    return all(ech.substitute(apply(col)) is not None
               for col in zip(*h.source.relation_lattice().entries))


def hom_compose(g: AbHom, f: AbHom) -> AbHom:
    """g after f."""
    if f.target != g.source:
        raise ValueError("composition mismatch")
    return AbHom(f.source, g.target, g.matrix.mul(f.matrix))


def hom_equal(f: AbHom, g: AbHom) -> bool:
    """Equality as maps, i.e. columns agree modulo the target relations."""
    if f.source != g.source or f.target != g.target:
        return False
    if f.matrix == g.matrix:
        return True
    ech = echelon_form(f.target.relation_lattice())
    return all(ech.substitute([a - b for a, b in zip(x, y)]) is not None
               for x, y in zip(zip(*f.matrix.entries), zip(*g.matrix.entries)))


def subquotient(gens: IntMatrix, sub: IntMatrix) -> FgAbGroup:
    """(span of gens columns) / (span of sub columns) as a presented group.

    Its generators are the columns of `echelon_form(gens)`, a basis of the
    span, and its relators the coordinates of sub's columns in that basis,
    by forward substitution; ValueError when one lies outside the span.
    """
    ech = echelon_form(gens)
    rels = [ech.substitute(sub.col(j)) for j in range(sub.cols)]
    if None in rels:
        raise ValueError("sub is not contained in the span of gens")
    return FgAbGroup(len(ech.pivots), IntMatrix.from_rows(rels, cols=len(ech.pivots)))


def _kernel_lattice(h: AbHom) -> IntMatrix:
    """Columns generating {x in Z^source : h(x) lies in target relations}."""
    return relative_kernel(h.matrix, h.target.relation_lattice())


def hom_kernel(h: AbHom) -> FgAbGroup:
    ker = _kernel_lattice(h)
    return subquotient(ker, h.source.relation_lattice())


def hom_image(h: AbHom) -> FgAbGroup:
    """Image subgroup of the target, presented on the source generators."""
    return FgAbGroup(h.source.ngens, _kernel_lattice(h).transpose())


def hom_cokernel(h: AbHom) -> FgAbGroup:
    """The target modulo the image, presented on the target generators by
    the relation basis and the image of each source generator."""
    rels = h.target.relation_lattice().hstack(h.matrix).transpose()
    return FgAbGroup(h.target.ngens, rels)


def is_injective(h: AbHom) -> bool:
    """The kernel lattice of h lies in the source relation lattice."""
    return lattice_contains(h.source.relation_lattice(), _kernel_lattice(h))


def is_surjective_hom(h: AbHom) -> bool:
    return is_trivial_group(hom_cokernel(h))


def is_exact_at(f: AbHom, g: AbHom) -> bool:
    """im f = ker g inside the shared middle group, by double inclusion.

    Both subgroups are lattices between the middle relation lattice and
    Z^ngens; equality is decided by mutual integer solvability.
    """
    if f.target != g.source:
        raise ValueError("target of f must be source of g")
    mid_lat = f.target.relation_lattice()
    im_lat = f.matrix.hstack(mid_lat)
    ker_lat = _kernel_lattice(g)
    return lattice_contains(ker_lat, im_lat) and lattice_contains(im_lat, ker_lat)


def invariants_embed(small: tuple[int, list[int]], big: tuple[int, list[int]]) -> bool:
    """Whether a group with invariants `small` embeds in one with `big`, both
    as `group_invariants` gives them.  Ranks must not drop, and the torsion
    factors, aligned from the largest, must each divide their partner: at
    every prime p, the containment of the partitions of the p-parts."""
    (rank_s, tors_s), (rank_b, tors_b) = small, big
    return (rank_s <= rank_b and len(tors_s) <= len(tors_b)
            and all(b % s == 0 for s, b in zip(reversed(tors_s), reversed(tors_b))))
