"""Finitely generated abelian groups as integer presentations.

A group is Z^ngens modulo the row lattice of a relation matrix; a
homomorphism is an integer matrix on generators that must carry every
source relator into the target's relation lattice L.  Every lattice
question is answered by forward substitution in one of two column echelon
forms (`intlinalg.echelon_form`), each computed once:

- each group has the form of its relators (`FgAbGroup.relation_form`);
  its columns are a basis of L (`relation_lattice`), at most ngens of them
  however many relators are declared.  Validity, equality of maps and
  injectivity substitute into it.
- each map h has the span form of [h | L(target)] (`_span_form`).  Its
  columns span im h + L(target), so h is onto when it has a pivot 1 in
  every row, and the columns of its transform after the pivots are h's
  relative kernel, {x : h(x) in L(target)}.  Kernels, images, injectivity
  and exactness read them.

Subquotients are presented on an echelon basis.  Invariants come from
transform-free invariant factors of the declared relators.  The declared
relators are kept as they are: they define the group's equality, its hash
and every cache key.  No Smith transform is computed here.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .intlinalg import Echelon, IntMatrix, echelon_form, invariant_factors


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
    def trivial() -> "FgAbGroup":
        return FgAbGroup(0, IntMatrix.from_rows([], cols=0))

    @cached_property
    def relation_form(self) -> Echelon:
        """The column echelon form of the relators, reduced once per group:
        membership in the relation lattice is substitution into it."""
        return echelon_form(self.relations.transpose())

    def relation_lattice(self) -> IntMatrix:
        """A basis of the relation lattice, as columns in Z^ngens: the
        columns of `relation_form`."""
        return self._lattice

    @cached_property
    def _lattice(self) -> IntMatrix:
        return IntMatrix.from_cols(self.relation_form.columns, rows=self.ngens)


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
    return _within(h.target.relation_form, map(h.matrix.apply, h.source.relation_form.columns))


def _within(form: Echelon, vectors) -> bool:
    """Whether every one of the vectors lies in the column span of form."""
    return all(form.substitute(v) is not None for v in vectors)


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
    cols = zip(f.matrix.transpose().entries, g.matrix.transpose().entries)
    return _within(f.target.relation_form, ([a - b for a, b in zip(x, y)] for x, y in cols))


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


def _span_form(h: AbHom) -> Echelon:
    """The echelon form of [h | L(target)], with the coordinates of h in its
    transform: its columns span im h + L(target), and the columns of its
    transform after the pivots span {x : h(x) in L(target)}."""
    return echelon_form(h.matrix.hstack(h.target.relation_lattice()), h.source.ngens)


def _kernel_lattice(h: AbHom) -> tuple[tuple[int, ...], ...]:
    """A basis of {x in Z^source : h(x) lies in target relations}.  None of
    its vectors is zero: L(target) has independent columns."""
    form = _span_form(h)
    return form.transform[len(form.pivots):]


def hom_kernel(h: AbHom) -> FgAbGroup:
    ker = IntMatrix.from_cols(_kernel_lattice(h), rows=h.source.ngens)
    return subquotient(ker, h.source.relation_lattice())


def hom_image(h: AbHom) -> FgAbGroup:
    """Image subgroup of the target, presented on the source generators."""
    return FgAbGroup(h.source.ngens, IntMatrix.from_rows(_kernel_lattice(h), cols=h.source.ngens))


def hom_cokernel(h: AbHom) -> FgAbGroup:
    """The target modulo the image, presented on the target generators by
    the relation basis and the image of each source generator."""
    rels = h.target.relation_lattice().hstack(h.matrix).transpose()
    return FgAbGroup(h.target.ngens, rels)


def is_injective(h: AbHom) -> bool:
    """The kernel lattice of h lies in the source relation lattice."""
    return _within(h.source.relation_form, _kernel_lattice(h))


def is_surjective_hom(h: AbHom) -> bool:
    """im h + L(target) is all of Z^target: its echelon form is lower
    triangular with a pivot 1 in every row."""
    form = _span_form(h)
    return (len(form.pivots) == h.target.ngens
            and all(col[i] == 1 for i, col in zip(form.pivots, form.columns)))


def is_exact_at(f: AbHom, g: AbHom) -> bool:
    """im f = ker g inside the shared middle group B, by double inclusion of
    lattices between L(B) and Z^ngens: g takes the span of f's span form
    into L(C), and the kernel lattice of g lies in that span.
    """
    if f.target != g.source:
        raise ValueError("target of f must be source of g")
    image = _span_form(f)
    return (_within(g.target.relation_form, map(g.matrix.apply, image.columns))
            and _within(image, _kernel_lattice(g)))


def invariants_embed(small: tuple[int, list[int]], big: tuple[int, list[int]]) -> bool:
    """Whether a group with invariants `small` embeds in one with `big`, both
    as `group_invariants` gives them.  Ranks must not drop, and the torsion
    factors, aligned from the largest, must each divide their partner: at
    every prime p, the containment of the partitions of the p-parts."""
    (rank_s, tors_s), (rank_b, tors_b) = small, big
    return (rank_s <= rank_b and len(tors_s) <= len(tors_b)
            and all(b % s == 0 for s, b in zip(reversed(tors_s), reversed(tors_b))))
