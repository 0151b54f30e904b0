"""Seeded random instances: posets, set systems, towers, abelian systems.

Functoriality over posets with diamonds is the hard constraint, so the
surjective generators build quotient families: partitions of a single top
set that coarsen downward (set case), or relation lattices that grow
downward inside one ambient free group, masked by a unimodular change of
basis per element (abelian case).  Both give surjective, exactly functorial
systems on any finite poset.
"""

from __future__ import annotations

import random

from .abgroups import AbHom, FgAbGroup, hom_is_valid
from .derived import AbSystem, validate_absystem
from .intlinalg import IntMatrix
from .poset import Poset, validate_poset
from .setsys import SetSystem, validate_system, validate_tower


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


def random_hom_matrix(rng: random.Random, rows: int, cols: int,
                      lo: int = -2, hi: int = 2) -> IntMatrix:
    return IntMatrix.from_rows([[rng.randint(lo, hi) for _ in range(cols)]
                                for _ in range(rows)], cols=cols)


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
            m = random_hom_matrix(rng, a.group(e).ngens, c.group(e).ngens, -1, 1)
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
