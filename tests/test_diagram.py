"""The diagram core against oracles that compose along every cover path.

Functoriality is decided here by brute force: every path of covers from an
upper element down to a lower one is composed step by step, and a system
is functorial when, for each comparable pair, all its paths agree.
"""

from __future__ import annotations

import random

import pytest

from invsys.abgroups import AbHom, FgAbGroup, hom_compose, hom_equal
from invsys.derived import AbSystem, validate_absystem
from invsys.errors import FunctorialityViolation
from invsys.intlinalg import IntMatrix
from invsys.poset import grid_poset, validate_poset
from invsys.setsys import (SetSystem, is_surjective, ml_report, universal_images,
                           validate_system, validate_tower)

from conftest import random_forest_poset, random_poset, sphere_model


def cover_paths(p, lower, upper):
    """Every path of covers from upper down to lower, top cover first."""
    if lower == upper:
        return [[]]
    return [[(lo, upper)] + rest
            for lo, hi in p.covers if hi == upper and p.leq(lower, lo)
            for rest in cover_paths(p, lower, lo)]


def paths_agree(p, compose_path, equal) -> bool:
    for lower in p.elements:
        for upper in p.elements:
            if lower != upper and p.leq(lower, upper):
                first, *others = [compose_path(path, upper)
                                  for path in cover_paths(p, lower, upper)]
                if not all(equal(first, other) for other in others):
                    return False
    return True


def posets_with_splits(rng, count):
    diamond = validate_poset(["bot", "l", "r", "top"],
                             [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")])
    fixed = [diamond, grid_poset(2, 2), grid_poset(2, 3), grid_poset(3, 2)]
    return fixed + [random_poset(rng, max_elements=6) for _ in range(count - len(fixed))]


def test_validate_system_accepts_exactly_when_all_cover_paths_agree():
    rng = random.Random(30)
    verdicts = []
    for p in posets_with_splits(rng, 400):
        carriers = {e: tuple(f"{e}x{i}" for i in range(rng.randint(1, 3)))
                    for e in p.elements}
        bonds = {}
        for lo, hi in p.covers:
            const = rng.choice(carriers[lo])
            bonds[(lo, hi)] = {x: const if rng.random() < 0.7 else rng.choice(carriers[lo])
                               for x in carriers[hi]}

        def compose_path(path, upper):
            m = {x: x for x in carriers[upper]}
            for cover in path:
                m = {x: bonds[cover][y] for x, y in m.items()}
            return m

        want = paths_agree(p, compose_path, lambda f, g: f == g)
        try:
            validate_system(p, carriers, bonds)
            got = True
        except FunctorialityViolation:
            got = False
        assert got == want, (p, carriers, bonds)
        verdicts.append(got)
    assert 50 < sum(verdicts) < len(verdicts) - 50


def test_validate_absystem_accepts_exactly_when_all_cover_paths_agree():
    # every object is (Z/n)^k for one n and k, so every integer matrix is a
    # homomorphism; identity and zero bonds make functorial systems common
    rng = random.Random(31)
    verdicts = []
    for p in posets_with_splits(rng, 150):
        n, k = rng.choice([(2, 2), (3, 1), (4, 1)])
        group = FgAbGroup(k, IntMatrix.from_rows([[n * (i == j) for j in range(k)]
                                                  for i in range(k)]))
        bonds = {}
        for cover in p.covers:
            kind = rng.random()
            if kind < 0.4:
                bonds[cover] = AbHom.identity(group)
            elif kind < 0.6:
                bonds[cover] = AbHom.zero(group, group)
            else:
                rows = [[rng.randrange(n) for _ in range(k)] for _ in range(k)]
                bonds[cover] = AbHom(group, group, IntMatrix.from_rows(rows, cols=k))

        def compose_path(path, upper):
            h = AbHom.identity(group)
            for cover in path:
                h = hom_compose(bonds[cover], h)
            return h

        want = paths_agree(p, compose_path, hom_equal)
        try:
            validate_absystem(p, {e: group for e in p.elements}, bonds)
            got = True
        except FunctorialityViolation:
            got = False
        assert got == want, (p, bonds)
        verdicts.append(got)
    assert 20 < sum(verdicts) < len(verdicts) - 20


@pytest.mark.parametrize("swapped", ["a0", "b0"])
def test_validation_compares_at_every_maximal_common_lower_bound(swapped):
    # on the model of the 2-sphere the routes from a2 through a1 and
    # through b1 meet again at a0 and at b0; swapping the bond from a1 to
    # one of them makes the routes disagree there and nowhere else
    p = sphere_model(2)
    bonds = {cov: {0: 0, 1: 1} for cov in p.covers}
    bonds[(swapped, "a1")] = {0: 1, 1: 0}
    with pytest.raises(FunctorialityViolation, match=f"^paths from a2 to {swapped} through "):
        validate_system(p, {e: (0, 1) for e in p.elements}, bonds)


@pytest.mark.parametrize("shape", ["chain", "forest"])
def test_validation_composes_nothing_without_splits(monkeypatch, shape):
    calls = []
    compose = SetSystem.compose
    monkeypatch.setattr(SetSystem, "compose",
                        lambda self, g, f: calls.append(1) or compose(self, g, f))
    rng = random.Random(32)
    if shape == "chain":
        carriers = [tuple(range(5))] * 41
        validate_tower(40, carriers, [{x: (x + 1) % 5 for x in range(5)}] * 40)
    else:
        for _ in range(30):
            p = random_forest_poset(rng, max_elements=6)
            carriers = {e: (0, 1) for e in p.elements}
            validate_system(p, carriers, {cov: {0: 1, 1: 1} for cov in p.covers})
    assert calls == []


def test_validation_composes_linearly_on_a_sphere_model(monkeypatch):
    # each of the 198 elements above level 1 is a split whose two lower
    # covers meet in the two points below them: two comparisons of two
    # composites each, where composing every pair below each split makes
    # 39,600 calls
    calls = []
    compose = AbSystem.compose
    monkeypatch.setattr(AbSystem, "compose",
                        lambda self, g, f: calls.append(1) or compose(self, g, f))
    p = sphere_model(100)
    z = FgAbGroup.free(1)
    validate_absystem(p, {e: z for e in p.elements},
                      {cov: AbHom.identity(z) for cov in p.covers})
    assert 0 < len(calls) <= 10 * len(p.elements)


def test_tower_of_horizon_200_matches_pushdown_oracle():
    # mostly bijective steps with a few collapses: image chains shrink
    # slowly, so stabilization levels spread over the whole tower
    rng = random.Random(24)
    h, width = 200, 30
    carriers = [tuple(f"x{i}" for i in range(width)) for _ in range(h + 1)]
    steps = []
    for n in range(h):
        perm = list(carriers[n])
        rng.shuffle(perm)
        steps.append({x: rng.choice(carriers[n]) if rng.random() < 0.05 else perm[i]
                      for i, x in enumerate(carriers[n + 1])})
    t = validate_tower(h, carriers, steps)

    def pushed(top_set, m):
        """[image of top_set at level n for n = 0 .. m], one step at a time."""
        out = [set(top_set)]
        for n in range(m - 1, -1, -1):
            out.append({steps[n][x] for x in out[-1]})
        return out[::-1]

    image = {}  # (n, m) -> image of carrier(m) at level n
    for m in range(h + 1):
        for n, s in enumerate(pushed(carriers[m], m)):
            image[(n, m)] = s
    rep = ml_report(t)
    assert rep.horizon == h
    for e in rep.entries:
        n = e.index
        chain = [image[(n, m)] for m in range(n, h + 1)]
        assert [set(x) for x in e.images] == chain
        stab = min(s for s in range(n, h + 1) if all(c == chain[-1] for c in chain[s - n:]))
        assert e.stabilized_at == stab
        assert e.verdict == ("stable" if stab < h or n == h else "unstable_at_horizon")
        assert e.horizon_sensitive == (stab == h)
    assert {e.verdict for e in rep.entries} == {"stable", "unstable_at_horizon"}

    prim = [set(carriers[n]).intersection(*(image[(n, m)] for m in range(n, h + 1)))
            for n in range(h + 1)]
    r = universal_images(t)
    assert [set(c) for c in r.carriers.values()] == prim
    want = {}  # (n, m) -> is the restricted bond from level m to level n onto?
    for m in range(h + 1):
        for n, s in enumerate(pushed(prim[m], m)[:m]):
            want[(str(n), str(m))] = s == prim[n]
    ok, cover = is_surjective(r)
    assert ok == all(want.values())
    assert ok or want[cover] is False
