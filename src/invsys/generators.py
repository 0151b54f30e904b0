"""Seeded surjective abelian systems, the sample that `scd_finite` draws.

Functoriality over posets with diamonds is the hard constraint, so the
generator builds a quotient family: relation lattices that grow downward
inside one ambient free group, masked by a unimodular change of basis per
element.  That gives a surjective, exactly functorial system on any finite
poset.
"""

from __future__ import annotations

import random

from .abgroups import AbHom, FgAbGroup
from .derived import AbSystem, validate_absystem
from .intlinalg import IntMatrix
from .poset import Poset


def random_unimodular(rng: random.Random, n: int) -> tuple[IntMatrix, IntMatrix]:
    """(W, W^{-1}) as a product of four elementary shears and swaps.

    Each column operation on W is undone by a row operation on W^{-1}:
    swapping columns i, j swaps rows i, j, and col_i += q col_j becomes
    row_j -= q row_i.
    """
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    winv = [row[:] for row in w]
    for _ in range(4 if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.3:
            for row in w:
                row[i], row[j] = row[j], row[i]
            winv[i], winv[j] = winv[j], winv[i]
        else:
            q = rng.choice([-1, 1])
            for row in w:
                row[i] += q * row[j]
            winv[j] = [a - q * b for a, b in zip(winv[j], winv[i])]
    return IntMatrix.from_rows(w, cols=n), IntMatrix.from_rows(winv, cols=n)


# powers of a single prime, so Smith normalization cannot merge factors
# from different generators into anything larger than 8
_FACTORS = [2, 2, 4, 8]


def random_surjective_absystem(rng: random.Random, base: Poset,
                               max_gens: int = 3) -> AbSystem:
    """Surjective system with invariant factors bounded by 8.

    One ambient free group; relation lattices grow downward and are spanned
    by factor multiples of coordinate vectors, so every invariant factor
    divides one of the chosen factors; a unimodular mask per element hides
    the diagonal shape.
    """
    g = rng.randint(1, max_gens)
    order = base.linear_extension()
    lattices: dict[str, list[tuple[int, ...]]] = {}
    for e in reversed(order):
        cols = [col for hi in base.upper_covers[e] for col in lattices[hi]]
        extra = rng.randint(0, g)
        for _ in range(extra):
            i = rng.randrange(g)
            d = rng.choice(_FACTORS)
            cols.append(tuple(d if k == i else 0 for k in range(g)))
        lattices[e] = sorted(set(cols))
    masks = {e: random_unimodular(rng, g) for e in base.elements}
    groups = {}
    for e in base.elements:
        w, _ = masks[e]
        rel_rows = [w.apply(c) for c in lattices[e]]
        groups[e] = FgAbGroup(g, IntMatrix.from_rows(rel_rows, cols=g))
    bonds = {}
    for (lo, hi) in base.covers:
        w_lo, _ = masks[lo]
        _, winv_hi = masks[hi]
        bonds[(lo, hi)] = AbHom(groups[hi], groups[lo], w_lo.mul(winv_hi))
    return validate_absystem(base, groups, bonds)
