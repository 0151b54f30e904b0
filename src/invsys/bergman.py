"""Free-abelian apparatus over a chain truncation {1..N}.

One free abelian group on pair generators g(i,j) (i <= j) carries, for each
level a, the subgroup H_a spanned by the triangle relators
g(i,j) + g(j,k) - g(i,k) with a <= i < j < k <= N.  Cosets of that subgroup
are the points of a transitive action at level a; the bond toward a lower
level translates by the connecting generator.  The collapse homomorphism
sends g(i,j) to f(i) - f(j); it kills every triangle relator and lands in
the zero-coefficient-sum part of the f-span, which is the algebraic heart
of the cofinality contradiction.  Membership in H_a is exact: H_a is the
cycle space of the complete graph on {a..N} (`h_subgroup_member`), so N
only bounds the support an element may mention, and raising it changes no
answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import LevelMismatch, SupportExceedsBound

Gen = tuple  # ("g", i, j) or ("f", i)


def g(i: int, j: int) -> Gen:
    if not i <= j:
        raise ValueError("pair generator needs i <= j")
    return ("g", i, j)


def f(i: int) -> Gen:
    return ("f", i)


@dataclass(frozen=True)
class FreeAbElement:
    """Sparse integer combination of generators; zero coefficients dropped."""
    coeffs: tuple[tuple[Gen, int], ...]

    @staticmethod
    def of(mapping: dict) -> "FreeAbElement":
        items = tuple(sorted((k, int(v)) for k, v in mapping.items() if v))
        return FreeAbElement(items)

    @staticmethod
    def zero() -> "FreeAbElement":
        return FreeAbElement(())

    @staticmethod
    def gen(gn: Gen) -> "FreeAbElement":
        return FreeAbElement.of({gn: 1})

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def add(self, other: "FreeAbElement") -> "FreeAbElement":
        out = self.as_dict()
        for k, v in other.coeffs:
            out[k] = out.get(k, 0) + v
        return FreeAbElement.of(out)

    def sub(self, other: "FreeAbElement") -> "FreeAbElement":
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "FreeAbElement":
        return FreeAbElement.of({k: c * v for k, v in self.coeffs})

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[Gen]:
        return [k for k, _ in self.coeffs]

    def coefficient_sum(self) -> int:
        return sum(v for _, v in self.coeffs)


def triangle_relator(i: int, j: int, k: int) -> FreeAbElement:
    if not i < j < k:
        raise ValueError("triangle relator needs i < j < k")
    return FreeAbElement.of({g(i, j): 1, g(j, k): 1, g(i, k): -1})


def h_subgroup_member(e: FreeAbElement, alpha: int, n: int) -> bool:
    """Whether e lies in H_alpha, the span of the triangle relators with
    indices in {alpha..n}; raises SupportExceedsBound when e mentions an
    index outside 1..n.

    Read g(i,j) as the edge from i to j.  H_alpha is the cycle space of the
    complete graph on {alpha..n}, so e lies in it exactly when every
    generator of e is some g(i,j) with alpha <= i < j <= n and d_map(e) is
    zero.  Every relator is a cycle, so d_map kills H_alpha.  Conversely,
    subtract c_ij t(alpha,i,j) for each edge g(i,j) of e with i > alpha:
    what is left lies on the star edges g(alpha,j), where d_map is
    injective, so it is 0.  The t(alpha,i,j) are the fundamental cycles of
    that star (Biggs, Algebraic Graph Theory, ch. 4-5).
    """
    for gn in e.support():
        if gn[0] != "g":
            return False
        if gn[2] > n or gn[1] < 1:
            raise SupportExceedsBound(f"generator {gn} outside truncation 1..{n}")
    return all(alpha <= i < j for _, i, j in e.support()) and d_map(e).is_zero()


def d_map(e: FreeAbElement) -> FreeAbElement:
    """Collapse homomorphism g(i,j) -> f(i) - f(j), extended linearly."""
    out: dict = {}
    for gn, c in e.coeffs:
        if gn[0] != "g":
            raise ValueError("d_map expects an element over the pair generators")
        _, i, j = gn
        out[f(i)] = out.get(f(i), 0) + c
        out[f(j)] = out.get(f(j), 0) - c
    return FreeAbElement.of(out)


@dataclass(frozen=True)
class CosetElement:
    """A point of the level-alpha coset space, by a free representative."""
    level: int
    rep: FreeAbElement

    @staticmethod
    def basepoint(level: int) -> "CosetElement":
        return CosetElement(level, FreeAbElement.zero())


def coset_equal(c1: CosetElement, c2: CosetElement, n: int) -> bool:
    if c1.level != c2.level:
        raise LevelMismatch(f"levels {c1.level} and {c2.level} differ")
    return h_subgroup_member(c1.rep.sub(c2.rep), c1.level, n)


def gset_bond(alpha: int, beta: int, c: CosetElement) -> CosetElement:
    """Bond from level beta down to level alpha: translate by g(alpha, beta)."""
    if c.level != beta:
        raise LevelMismatch(f"element lives at {c.level}, not {beta}")
    if alpha > beta:
        raise ValueError("bond needs alpha <= beta")
    if alpha == beta:
        return c
    return CosetElement(alpha, c.rep.add(FreeAbElement.gen(g(alpha, beta))))


def translate(c: CosetElement, by: FreeAbElement) -> CosetElement:
    return CosetElement(c.level, c.rep.add(by))


def random_h_combination(rng: random.Random, alpha: int, n: int) -> FreeAbElement:
    """Random combination of three in-range triangle relators, coefficients in [-3, 3]."""
    out = FreeAbElement.zero()
    for _ in range(3):
        rel = triangle_relator(*sorted(rng.sample(range(alpha, n + 1), 3)))
        out = out.add(rel.scale(rng.randint(-3, 3)))
    return out


def bergman_demo(n: int = 5, seed: int = 0) -> list[tuple[str, bool]]:
    """Mechanical walk through the displayed identities on concrete data.

    Checks, on the truncation {1..n}: the triangle relators belong to their
    level subgroups; the collapse map kills them; collapse outputs have zero
    coefficient sum; the bond family is surjective and functorial up to
    coset equality; the action is transitive; and the eventual-coefficient
    identity D(c_i) - D(c_j) = f_i - f_j holds for a concrete thread-shaped
    family satisfying the membership condition.
    """
    rng = random.Random(seed)
    checks: list[tuple[str, bool]] = []

    rel = triangle_relator(1, 2, 3)
    checks.append(("triangle relator lies in level-1 subgroup",
                   h_subgroup_member(rel, 1, n)))
    checks.append(("bare generator does not",
                   not h_subgroup_member(FreeAbElement.gen(g(1, 2)), 1, n)))
    checks.append(("collapse kills the triangle relator",
                   d_map(rel).is_zero()))
    combo = random_h_combination(rng, 1, n)
    checks.append(("collapse kills a random relator combination",
                   d_map(combo).is_zero()))
    probe = FreeAbElement.of({g(1, 2): 3, g(2, min(4, n)): -2})
    checks.append(("collapse output has zero coefficient sum",
                   d_map(probe).coefficient_sum() == 0))

    # bonds: surjectivity and functoriality up to coset equality
    target = CosetElement(1, FreeAbElement.gen(g(1, 2)).scale(2))
    preimage = CosetElement(2, target.rep.sub(FreeAbElement.gen(g(1, 2))))
    checks.append(("bond is surjective (explicit preimage)",
                   coset_equal(gset_bond(1, 2, preimage), target, n)))
    c3 = CosetElement(3, FreeAbElement.gen(g(3, min(4, n))))
    via = gset_bond(1, 2, gset_bond(2, 3, c3))
    direct = gset_bond(1, 3, c3)
    checks.append(("bond functoriality up to coset equality",
                   coset_equal(via, direct, n)))
    other = CosetElement(1, FreeAbElement.gen(g(1, 3)))
    diff = other.rep.sub(target.rep)
    checks.append(("action is transitive (difference element moves one to the other)",
                   coset_equal(translate(target, diff), other, n)))

    # the family obtained by pushing the top basepoint down the chain:
    # c_i telescopes the consecutive generators from i up to the top
    family = {i: FreeAbElement.of({g(l, l + 1): 1 for l in range(i, n)})
              for i in range(1, n + 1)}
    collapsed = {i: d_map(c) for i, c in family.items()}
    pattern_ok = ident_ok = True
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            probe = FreeAbElement.gen(g(i, j)).add(family[j]).sub(family[i])
            pattern_ok &= h_subgroup_member(probe, i, n)
            ident_ok &= (d_map(probe).is_zero() and collapsed[i].sub(collapsed[j])
                         == FreeAbElement.of({f(i): 1, f(j): -1}))
    checks.append(("membership pattern holds for the pushed-down family",
                   pattern_ok))
    checks.append(("collapse kills the membership pattern, giving the "
                   "difference identity D(c_i) - D(c_j) = f_i - f_j", ident_ok))
    endpoint_ok = all(c.coefficient_sum() == 0 for c in collapsed.values())
    checks.append(("every collapsed family member has coefficient sum zero, so "
                   "none can equal a single basis vector", endpoint_ok))
    return checks
