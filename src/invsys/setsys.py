"""Inverse systems of finite sets over a poset, and horizon-truncated towers.

Bonds are stored on cover pairs only; composites are derived on demand and
the validator checks that every cover path between two comparable elements
induces the same composite.  Carrier elements are opaque labels with no
structure assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional, Sequence

from .errors import (BudgetExceeded, EmptyFiber, FunctorialityViolation,
                     MissingBond, NoMaximum, NotCommuting, NotFunction,
                     NotSurjective, SigmaNotInjective)
from .poset import Poset

Label = Hashable
BondMap = dict  # carrier(upper) element -> carrier(lower) element

DEFAULT_BUDGET = 10 ** 6


class SetSystem:
    """Validated inverse system of finite sets over a poset."""

    def __init__(self, base: Poset, carriers: dict[str, tuple],
                 cover_bonds: dict[tuple[str, str], BondMap]):
        self.base = base
        self.carriers = {e: tuple(carriers[e]) for e in base.elements}
        self.cover_bonds = {k: dict(v) for k, v in cover_bonds.items()}
        self._composites: dict[tuple[str, str], BondMap] = {}

    def carrier(self, e: str) -> tuple:
        return self.carriers[e]

    def bond(self, lower: str, upper: str) -> BondMap:
        """Composite bonding map carrier(upper) -> carrier(lower)."""
        if lower == upper:
            return {x: x for x in self.carriers[lower]}
        key = (lower, upper)
        if key in self._composites:
            return self._composites[key]
        if not self.base.lt(lower, upper):
            raise ValueError(f"{lower} is not below {upper}")
        candidates = []
        for (lo, hi) in self.cover_bonds:
            if hi == upper and self.base.leq(lower, lo):
                step = self.cover_bonds[(lo, hi)]
                below = self.bond(lower, lo)
                candidates.append(({x: below[step[x]] for x in self.carriers[upper]}, lo))
        if not candidates:
            raise MissingBond(f"no cover path from {upper} down to {lower}")
        first, via = candidates[0]
        for other, via2 in candidates[1:]:
            if other != first:
                raise FunctorialityViolation(lower, via, upper,
                                             f"paths through {via} and {via2} disagree")
        self._composites[key] = first
        return first


def validate_system(base: Poset, carriers: dict[str, Sequence],
                    cover_bonds: dict[tuple[str, str], BondMap]) -> SetSystem:
    """Check totality of the cover bonds and full functoriality.

    Raises MissingBond, NotFunction, or FunctorialityViolation(i, j, k).
    """
    cover_set = set(base.covers)
    for cov in cover_set:
        if cov not in cover_bonds:
            raise MissingBond(f"cover {cov[0]} < {cov[1]} has no bond")
    for (lo, hi), bmap in cover_bonds.items():
        if (lo, hi) not in cover_set:
            raise ValueError(f"bond on non-cover pair ({lo}, {hi})")
        if set(bmap) != set(carriers[hi]):
            raise NotFunction(f"bond {hi} -> {lo} is not total on carrier({hi})")
        if any(v not in set(carriers[lo]) for v in bmap.values()):
            raise NotFunction(f"bond {hi} -> {lo} maps outside carrier({lo})")
    sys = SetSystem(base, {e: tuple(carriers[e]) for e in base.elements}, cover_bonds)
    els = base.elements
    for i in els:
        for j in els:
            if not sys.base.leq(i, j):
                continue
            for k in els:
                if not sys.base.leq(j, k):
                    continue
                upper = sys.bond(j, k)
                lower = sys.bond(i, j)
                direct = sys.bond(i, k)
                for x in sys.carriers[k]:
                    if lower[upper[x]] != direct[x]:
                        raise FunctorialityViolation(i, j, k)
    return sys


@dataclass(frozen=True)
class Thread:
    """A compatible choice of one carrier element per index."""
    assignment: tuple[tuple[str, Hashable], ...]  # sorted by element label

    @staticmethod
    def of(mapping: dict) -> "Thread":
        return Thread(tuple(sorted(mapping.items(), key=lambda kv: str(kv[0]))))

    def __getitem__(self, e: str):
        return dict(self.assignment)[e]

    def as_dict(self) -> dict:
        return dict(self.assignment)


def is_thread(sys: SetSystem, t: Thread) -> bool:
    m = t.as_dict()
    for i in sys.base.elements:
        for j in sys.base.elements:
            if sys.base.leq(i, j) and sys.bond(i, j)[m[j]] != m[i]:
                return False
    return True


def is_surjective(sys: "SetSystem | Tower"):
    """(verdict, first failing pair or None); checks every comparable pair."""
    if isinstance(sys, Tower):
        for n in range(sys.horizon):
            if set(sys.step(n).values()) != set(sys.carriers[n]):
                return False, (n, n + 1)
        return True, None
    for i in sys.base.elements:
        for j in sys.base.elements:
            if sys.base.lt(i, j):
                if set(sys.bond(i, j).values()) != set(sys.carriers[i]):
                    return False, (i, j)
    return True, None


def limit_threads(sys: SetSystem, budget: int = DEFAULT_BUDGET) -> list[Thread]:
    """All threads, by depth-first propagation over a linear extension.

    Partial assignments are pruned against every bond into an already
    assigned lower element; the budget counts partial assignments.
    """
    order = sys.base.linear_extension()
    out: list[Thread] = []
    spent = 0

    def extend(pos: int, partial: dict):
        nonlocal spent
        if pos == len(order):
            out.append(Thread.of(partial))
            return
        e = order[pos]
        for x in sys.carriers[e]:
            spent += 1
            if spent > budget:
                raise BudgetExceeded(f"limit enumeration passed {budget} nodes")
            ok = True
            for d in order[:pos]:
                if sys.base.leq(d, e) and sys.bond(d, e)[x] != partial[d]:
                    ok = False
                    break
            if ok:
                partial[e] = x
                extend(pos + 1, partial)
                del partial[e]

    extend(0, {})
    return out


def thread_from_top(sys: "SetSystem | Tower") -> Thread:
    """A single thread built without enumeration.

    Poset case: requires a maximum; one element there is pushed down along
    the bonds (no surjectivity needed).  Tower case: requires every step to
    be surjective; preimages are chosen walking up the chain.
    """
    if isinstance(sys, Tower):
        ok, pair = is_surjective(sys)
        if not ok:
            raise NotSurjective(f"tower step {pair[0]} <- {pair[1]} is not onto")
        xs = {0: sys.carriers[0][0]}
        for n in range(sys.horizon):
            step = sys.step(n)
            xs[n + 1] = next(y for y in sys.carriers[n + 1] if step[y] == xs[n])
        return Thread.of({str(n): x for n, x in xs.items()})
    top = sys.base.has_maximum()
    if top is None:
        raise NoMaximum("thread_from_top needs a maximum element")
    x = sys.carriers[top][0]
    return Thread.of({e: sys.bond(e, top)[x] for e in sys.base.elements})


# -- towers ---------------------------------------------------------------


class Tower:
    """Inverse system over the chain 0 <= 1 <= ... <= horizon."""

    def __init__(self, horizon: int, carriers: Sequence[Sequence],
                 steps: Sequence[BondMap]):
        if horizon < 1:
            raise ValueError("horizon must be positive")
        if len(carriers) != horizon + 1 or len(steps) != horizon:
            raise ValueError("carrier/step counts do not match horizon")
        self.horizon = horizon
        self.carriers = [tuple(c) for c in carriers]
        self.steps = [dict(s) for s in steps]

    def step(self, n: int) -> BondMap:
        """Bond carrier(n+1) -> carrier(n)."""
        return self.steps[n]

    def bond(self, n: int, m: int) -> BondMap:
        """Composite bond carrier(m) -> carrier(n), n <= m."""
        if not 0 <= n <= m <= self.horizon:
            raise ValueError("bad levels")
        cur = {x: x for x in self.carriers[m]}
        for lvl in range(m - 1, n - 1, -1):
            cur = {x: self.steps[lvl][cur[x]] for x in cur}
        return cur


def validate_tower(horizon: int, carriers: Sequence[Sequence],
                   steps: Sequence[BondMap]) -> Tower:
    t = Tower(horizon, carriers, steps)
    for n in range(horizon):
        bmap = t.steps[n]
        if set(bmap) != set(t.carriers[n + 1]):
            raise NotFunction(f"step {n + 1} -> {n} is not total")
        if any(v not in set(t.carriers[n]) for v in bmap.values()):
            raise NotFunction(f"step {n + 1} -> {n} maps outside carrier({n})")
    return t


@dataclass(frozen=True)
class MLEntry:
    index: int
    images: tuple[frozenset, ...]  # bond(n, m)(carrier(m)) for m = n .. H
    stabilized_at: int             # least m with a constant image chain through H
    verdict: str                   # "stable" or "unstable_at_horizon"
    horizon_sensitive: bool        # verdict could flip with a longer horizon


@dataclass(frozen=True)
class MLReport:
    horizon: int
    entries: tuple[MLEntry, ...]

    def stable_everywhere(self) -> bool:
        return all(e.verdict == "stable" for e in self.entries)


def ml_report(t: Tower) -> MLReport:
    """Image-chain stabilization data for every level of a tower.

    A level is "stable" when its image chain goes constant strictly before
    the horizon (or is the trivial one-term chain at the top); when the
    chain is still moving at the horizon the verdict is honest about the
    truncation rather than claiming a failure of the eventual-stability
    condition.
    """
    entries = []
    h = t.horizon
    for n in range(h + 1):
        images = [frozenset(t.bond(n, m)[x] for x in t.carriers[m])
                  for m in range(n, h + 1)]
        stab = h
        for m in range(h, n - 1, -1):
            if images[m - n] == images[h - n]:
                stab = m
            else:
                break
        if stab < h or n == h:
            verdict = "stable"
            sensitive = stab == h
        else:
            verdict = "unstable_at_horizon"
            sensitive = True
        entries.append(MLEntry(n, tuple(images), stab, verdict, sensitive))
    return MLReport(h, tuple(entries))


def universal_images(sys: "SetSystem | Tower"):
    """Restrict every carrier to the intersection of incoming images.

    Over a poset base the carriers then shrink to the largest subsets that
    every cover bond maps into each other, so the result is again a system.
    Returns (restricted system, metadata) where metadata maps each
    comparable pair to the surjectivity verdict of its restricted bond.
    """
    if isinstance(sys, Tower):
        prim = []
        for n in range(sys.horizon + 1):
            inter = set(sys.carriers[n])
            for m in range(n, sys.horizon + 1):
                inter &= {sys.bond(n, m)[x] for x in sys.carriers[m]}
            prim.append(tuple(x for x in sys.carriers[n] if x in inter))
        steps = [{x: sys.steps[n][x] for x in prim[n + 1]} for n in range(sys.horizon)]
        restricted = Tower(sys.horizon, prim, steps)
        meta = {}
        for n in range(sys.horizon + 1):
            for m in range(n + 1, sys.horizon + 1):
                image = {restricted.bond(n, m)[x] for x in prim[m]}
                meta[(n, m)] = image == set(prim[n])
        return restricted, meta

    keep = {}
    for i in sys.base.elements:
        inter = set(sys.carriers[i])
        for j in sys.base.elements:
            if sys.base.leq(i, j):
                inter &= {sys.bond(i, j)[x] for x in sys.carriers[j]}
        keep[i] = inter
    # Off a directed base a kept element can map to a dropped one; drop it
    # too, upwards, visiting each bond entry at most twice.
    preimages = {}  # (lo, y) -> [(hi, x) : x kept, cover bond (lo, hi) sends x to y]
    for (lo, hi), bmap in sys.cover_bonds.items():
        for x in keep[hi]:
            preimages.setdefault((lo, bmap[x]), []).append((hi, x))
    dropped = [(lo, y) for (lo, y) in preimages if y not in keep[lo]]
    while dropped:
        for hi, x in preimages.get(dropped.pop(), ()):
            if x in keep[hi]:
                keep[hi].discard(x)
                dropped.append((hi, x))
    prim = {i: tuple(x for x in sys.carriers[i] if x in keep[i])
            for i in sys.base.elements}
    bonds = {(lo, hi): {x: sys.cover_bonds[(lo, hi)][x] for x in prim[hi]}
             for (lo, hi) in sys.cover_bonds}
    restricted = SetSystem(sys.base, prim, bonds)
    meta = {}
    for i in sys.base.elements:
        for j in sys.base.elements:
            if sys.base.lt(i, j):
                image = {restricted.bond(i, j)[x] for x in prim[j]}
                meta[(i, j)] = image == set(prim[i])
    return restricted, meta


def fiber_subsystem(e_sys: SetSystem, s_sys: SetSystem,
                    level_maps: dict[str, dict], s: Thread) -> SetSystem:
    """Fibers of a level-wise map over a thread of the target system.

    Requires the level maps to commute with the bonds, every level map to
    be onto (witnessed by non-empty fibers), and every bond of the target
    system to be injective.  The resulting restricted system is asserted to
    be a surjective system of non-empty sets.
    """
    base = e_sys.base
    if s_sys.base != base:
        raise ValueError("systems must share a base poset")
    for (lo, hi) in base.covers:
        eps = e_sys.cover_bonds[(lo, hi)]
        sig = s_sys.cover_bonds[(lo, hi)]
        for x in e_sys.carriers[hi]:
            if level_maps[lo][eps[x]] != sig[level_maps[hi][x]]:
                raise NotCommuting(f"square at cover {lo} < {hi} does not commute")
    for i in base.elements:
        for j in base.elements:
            if base.lt(i, j):
                bmap = s_sys.bond(i, j)
                if len(set(bmap.values())) != len(bmap):
                    raise SigmaNotInjective(f"target bond {j} -> {i} not injective")
    sv = s.as_dict()
    fibers = {}
    for i in base.elements:
        fibers[i] = tuple(x for x in e_sys.carriers[i] if level_maps[i][x] == sv[i])
        if not fibers[i]:
            raise EmptyFiber(f"level map at {i} misses the thread value")
    bonds = {(lo, hi): {x: e_sys.cover_bonds[(lo, hi)][x] for x in fibers[hi]}
             for (lo, hi) in e_sys.cover_bonds}
    sub = SetSystem(base, fibers, bonds)
    ok, pair = is_surjective(sub)
    assert ok, f"fiber subsystem lost surjectivity at {pair}"
    return sub
