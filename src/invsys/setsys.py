"""Inverse systems of finite sets over a poset, and horizon-truncated towers.

A SetSystem is a Diagram of carriers (tuples of opaque labels) whose bonds
are dicts from the upper carrier to the lower one.  A tower of horizon H is
nothing more: the SetSystem on the chain "0" < "1" < ... < "H" of
`tower_chain`, with level n at the element str(n), built by
`validate_tower`.  Every function here takes any set system, and
`is_surjective` any Diagram; `ml_report` alone needs a tower.
`universal_images` returns the restricted system, and whether its
restricted bonds are onto is `is_surjective` of it, a check of its covers.

Threads are never found by search.  A thread is fixed by its values at the
maximal elements, so `count_threads` sums out a small factor graph over
them (bucket elimination, Dechter 1999) and `limit_threads` lists from the
same tables, visiting no partial assignment that fails to extend.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from collections.abc import Hashable, Sequence
from functools import cached_property

from .diagram import Diagram
from .errors import (BudgetExceeded, EmptyFiber, NoMaximum, NotFunction,
                     SigmaNotInjective, SquaresDoNotCommute)
from .poset import Poset

BondMap = dict  # carrier(upper) element -> carrier(lower) element

DEFAULT_BUDGET = 10 ** 6


class SetSystem(Diagram):
    """Inverse system of finite sets over a poset.  The carriers are re-keyed
    in base order; the bond dicts are kept, not copied: a system never
    mutates its bonds."""

    def __init__(self, base: Poset, carriers: dict[str, tuple],
                 cover_bonds: dict[tuple[str, str], BondMap]):
        super().__init__(base, {e: tuple(carriers[e]) for e in base.elements}, cover_bonds)
        self.carriers = self.objects

    @cached_property
    def _carrier_sets(self) -> dict[str, frozenset]:
        """Each carrier as a set, built once for every bond that meets it."""
        return {e: frozenset(c) for e, c in self.carriers.items()}

    def check(self, lower: str, upper: str, bmap: BondMap) -> None:
        if bmap.keys() != self._carrier_sets[upper]:
            raise NotFunction(f"bond {upper} -> {lower} is not total on carrier({upper})")
        if not self._carrier_sets[lower].issuperset(bmap.values()):
            raise NotFunction(f"bond {upper} -> {lower} maps outside carrier({lower})")

    def identity(self, e: str) -> BondMap:
        return {x: x for x in self.carriers[e]}

    def compose(self, g: BondMap, f: BondMap) -> BondMap:
        return {x: g[y] for x, y in f.items()}

    def equal(self, f: BondMap, g: BondMap) -> bool:
        return f == g

    def is_onto(self, bmap: BondMap, lower: str) -> bool:
        return self._carrier_sets[lower] == set(bmap.values())

    def restrict(self, carriers: dict[str, tuple]) -> "SetSystem":
        """The subsystem on subsets of the carriers that the bonds map into each other."""
        return SetSystem(self.base, carriers,
                         {(lo, hi): {x: bmap[x] for x in carriers[hi]}
                          for (lo, hi), bmap in self.cover_bonds.items()})


def validate_system(base: Poset, carriers: dict[str, Sequence],
                    cover_bonds: dict[tuple[str, str], BondMap]) -> SetSystem:
    """Check totality of the cover bonds and full functoriality.

    Raises MissingBond, NotFunction, or FunctorialityViolation.
    """
    return SetSystem(base, carriers, cover_bonds).validate()


class Thread:
    """A compatible choice of one carrier element per index; compared and
    hashed by value."""

    def __init__(self, assignment: tuple[tuple[str, Hashable], ...]):
        self.assignment = assignment  # sorted by element label

    def __eq__(self, other):
        return isinstance(other, Thread) and self.assignment == other.assignment

    def __hash__(self):
        return hash(self.assignment)

    @staticmethod
    def of(mapping: dict) -> "Thread":
        return Thread(tuple(sorted(mapping.items(), key=lambda kv: str(kv[0]))))

    def as_dict(self) -> dict:
        return dict(self.assignment)


def is_surjective(sys: Diagram):
    """(verdict, first failing cover or None) for a system of any kind.

    The cover is the first (lower, upper) of base.covers whose bond is not
    onto; for a tower, the first step n <- n + 1 that is not onto.
    """
    pair = sys.first_non_onto()
    return pair is None, pair


def _eliminate(sys: SetSystem, budget: int, listing: bool):
    """Sum-product elimination over the maximal elements; returns (count,
    steps), where steps, kept only when listing, has one (variable, the
    other variables of its product table, rest -> values) per elimination.

    The variables are the maximal elements, and each element y below two
    or more of them unless an upper cover of y lies below the same ones.
    Every element e has a representative: itself when it is a variable,
    the one maximal element above it, or else the variable reached by
    climbing covers below the same maximal elements.  A non-maximal variable
    y has a 0/1 factor x_y = bond(y, r)(x_r) for the representative r of
    each upper cover; top down, these make every value bond(e, m)(x_m)
    agree over the maximal m above e, so the assignments they allow are the
    threads, read at the variables.  One factor per cover, not per maximal
    element above y, keeps a comb of n teeth at 2n factors, not n²/2.  The
    order is min-degree, ties in declared order; tables are sparse (nonzero
    entries only) and every entry created is charged to budget.
    """
    base = sys.base
    tops = frozenset(base.maximal_elements())
    above = {e: base.up_set(e) & tops for e in base.elements}
    rep = {}
    for e in base.elements:
        if len(above[e]) == 1:
            rep[e] = next(iter(above[e]))
        elif all(above[z] != above[e] for z in base.upper_covers[e]):
            rep[e] = e
    for e in base.elements:
        climbed = []
        while e not in rep:
            climbed.append(e)
            e = next(z for z in base.upper_covers[e] if above[z] == above[e])
        rep.update(dict.fromkeys(climbed, rep[e]))
    variables = [e for e in base.elements if rep[e] == e]
    spent = 0

    def check(entries: int) -> None:
        if spent + entries > budget:
            raise BudgetExceeded(f"thread elimination passed {budget} table entries")

    def charge(table: dict) -> dict:
        nonlocal spent
        check(len(table))
        spent += len(table)
        return table

    def join(sa: tuple, ta: dict, sb: tuple, tb: dict):
        """The product of two factors, over sa followed by the rest of sb."""
        shared = [(sa.index(u), j) for j, u in enumerate(sb) if u in sa]
        extra = [j for j, u in enumerate(sb) if u not in sa]
        index = defaultdict(list)
        for key, val in tb.items():
            index[tuple(key[j] for _, j in shared)].append((tuple(key[j] for j in extra), val))
        out: dict = {}
        for key, val in ta.items():
            for more, w in index.get(tuple(key[i] for i, _ in shared), ()):
                out[key + more] = val * w
            check(len(out))
        return sa + tuple(sb[j] for j in extra), charge(out)

    factors: dict[int, tuple] = {}
    holding = {v: set() for v in variables}  # variable -> ids of the factors on it
    neighbours = {v: set() for v in variables}  # each variable is its own neighbour
    ids = itertools.count()

    def add(scope: tuple, table: dict) -> None:
        i = next(ids)
        factors[i] = scope, charge(table)
        for v in scope:
            holding[v].add(i)
            neighbours[v].update(scope)

    for v in variables:
        add((v,), {(x,): 1 for x in sys.carriers[v]})
    for y in variables:
        for r in dict.fromkeys(rep[u] for u in base.upper_covers[y]):
            bmap = sys.bond(y, r)
            add((y, r), {(bmap[x], x): 1 for x in sys.carriers[r]})
    position = {v: k for k, v in enumerate(variables)}
    queue = [(len(neighbours[v]), k, v) for k, v in enumerate(variables)]
    heapq.heapify(queue)
    count, steps = 1, []
    while queue:
        degree, _, v = heapq.heappop(queue)
        if v not in neighbours or degree != len(neighbours[v]):
            continue  # eliminated, or its degree changed and it was queued again
        clique, held = neighbours.pop(v), holding.pop(v)
        for u in clique - {v}:
            neighbours[u] |= clique
            neighbours[u].discard(v)
            holding[u] -= held
            heapq.heappush(queue, (len(neighbours[u]), position[u], u))
        mine = sorted((factors.pop(i) for i in sorted(held)), key=lambda f: len(f[1]))
        scope, table = mine.pop(0)
        while mine:  # join next the smallest factor that adds the fewest variables
            nxt = min(mine, key=lambda f: len(set(f[0]) - set(scope)))
            mine.remove(nxt)
            scope, table = join(scope, table, *nxt)
        if not table:
            return 0, []
        at = scope.index(v)
        rest = scope[:at] + scope[at + 1:]
        message: dict = defaultdict(int)
        for key, val in table.items():
            message[key[:at] + key[at + 1:]] += val
        if rest:
            add(rest, message)
        else:  # v was the last variable of its connected component
            count *= charge(message)[()]
        if listing:
            index = defaultdict(list)
            for key in table:
                index[key[:at] + key[at + 1:]].append(key[at])
            steps.append((v, rest, index))
    return count, steps


def count_threads(sys: SetSystem, budget: int = DEFAULT_BUDGET) -> int:
    """The number of threads, by variable elimination (see `_eliminate`)
    with exact ints; budget caps the factor-table entries created."""
    return _eliminate(sys, budget, listing=False)[0]


def limit_threads(sys: SetSystem, budget: int = DEFAULT_BUDGET) -> list[Thread]:
    """All threads, sorted by their carrier indices along linear_extension().

    The elimination of `count_threads` keeps its product tables; going
    back through them in reverse order extends only assignments with a
    nonzero count, so every partial assignment ends in a thread.  The other
    elements take their values top down, along a cover bond from above.
    budget caps the table entries, not the threads listed.
    """
    count, steps = _eliminate(sys, budget, listing=True)
    if not count:
        return []
    partials = [{}]
    for v, rest, index in reversed(steps):
        partials = [{**a, v: x} for a in partials
                    for x in index[tuple(a[u] for u in rest)]]
    order = sys.base.linear_extension()
    for t in partials:
        for e in reversed(order):
            if e not in t:
                hi = sys.base.upper_covers[e][0]
                t[e] = sys.cover_bonds[(e, hi)][t[hi]]
    position = {e: {x: i for i, x in enumerate(c)} for e, c in sys.carriers.items()}
    partials.sort(key=lambda t: [position[e][t[e]] for e in order])
    return [Thread.of(t) for t in partials]


def thread_from_top(sys: SetSystem) -> Thread:
    """A single thread built without enumeration.

    Requires a maximum, which a tower always has; one element there is
    pushed down along the bonds (no surjectivity needed).
    """
    top = sys.base.has_maximum()
    if top is None:
        raise NoMaximum("thread_from_top needs a maximum element")
    x = sys.carriers[top][0]
    return Thread.of({e: sys.bond(e, top)[x] for e in sys.base.elements})


# -- towers ---------------------------------------------------------------


def tower_chain(horizon: int) -> Poset:
    """The levels of a tower as a poset: the chain "0" < "1" < ... < str(horizon)."""
    labels = [str(n) for n in range(horizon + 1)]
    return Poset(labels, list(zip(labels, labels[1:])))


def validate_tower(horizon: int, carriers: Sequence[Sequence],
                   steps: Sequence[BondMap]) -> SetSystem:
    """The tower with carriers[n] at level n and steps[n] the bond from level
    n + 1 to level n: a validated SetSystem on tower_chain(horizon)."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if len(carriers) != horizon + 1 or len(steps) != horizon:
        raise ValueError("carrier/step counts do not match horizon")
    chain = tower_chain(horizon)
    return SetSystem(chain, dict(zip(chain.elements, carriers)),
                     dict(zip(chain.covers, steps))).validate()


class MLEntry:
    def __init__(self, index: int, images: tuple[frozenset, ...], stabilized_at: int,
                 verdict: str, horizon_sensitive: bool):
        self.index = index
        self.images = images                # bond(n, m)(carrier(m)) for m = n .. H
        self.stabilized_at = stabilized_at  # least m with a constant image chain through H
        self.verdict = verdict              # "stable" or "unstable_at_horizon"
        self.horizon_sensitive = horizon_sensitive  # verdict could flip with a longer horizon


class MLReport:
    def __init__(self, horizon: int, entries: tuple[MLEntry, ...]):
        self.horizon, self.entries = horizon, entries

    def stable_everywhere(self) -> bool:
        return all(e.verdict == "stable" for e in self.entries)


def ml_report(t: SetSystem) -> MLReport:
    """Image-chain stabilization data for every level of a tower.

    A level is "stable" when its image chain goes constant strictly before
    the horizon (or is the trivial one-term chain at the top); when the
    chain is still moving at the horizon the verdict is honest about the
    truncation rather than claiming a failure of the eventual-stability
    condition.  The image chains are pushed down one step at a time, each
    distinct image once: equal images push to equal images.
    Raises ValueError unless t is a system on a tower_chain.
    """
    h = len(t.base.elements) - 1
    if t.base != tower_chain(h):
        raise ValueError("ml_report needs a tower, a system on the chain 0 < 1 < ... < H")
    entries = []
    images: list[frozenset] = []  # the image chain of the level above
    for n in range(h, -1, -1):
        step = t.cover_bonds.get((str(n), str(n + 1)))  # None at the top, where images is []
        pushed: dict[frozenset, frozenset] = {}
        for image in images:
            if image not in pushed:
                pushed[image] = frozenset(map(step.__getitem__, image))
        images = [frozenset(t.carriers[str(n)])] + [pushed[image] for image in images]
        stab = h
        while stab > n and images[stab - 1 - n] == images[-1]:
            stab -= 1
        verdict = "stable" if stab < h or n == h else "unstable_at_horizon"
        entries.append(MLEntry(n, tuple(images), stab, verdict, stab == h))
    return MLReport(h, tuple(reversed(entries)))


def universal_images(sys: SetSystem) -> SetSystem:
    """The system restricted to its universal images.

    Every carrier is cut to the intersection of the images of the carriers
    above it; over a poset base the carriers then shrink to the largest
    subsets that every cover bond maps into each other, so the result is
    again a system.  Its restricted bonds are all onto exactly when
    `is_surjective` holds for it: composites of onto cover bonds are onto.

    No composite bond is built.  The image of a maximal carrier is pushed
    down one cover bond at a time, along whichever cover path reaches an
    element first: the system is functorial, so every path gives the same
    set.  The image from an element contains the image from every element
    above it, so the maximal elements give the whole intersection; off a
    directed base x must also map to kept elements at the lower covers.
    """
    base = sys.base
    common: dict[str, set] = {}
    for m in base.maximal_elements():
        images, stack = {m: set(sys.carriers[m])}, [m]
        while stack:
            hi = stack.pop()
            for lo in base.lower_covers[hi]:
                if lo not in images:
                    images[lo] = {sys.cover_bonds[(lo, hi)][x] for x in images[hi]}
                    stack.append(lo)
        for e, image in images.items():
            common[e] = common[e] & image if e in common else image
    keep: dict[str, set] = {}
    for j in base.linear_extension():
        keep[j] = {x for x in common[j]
                   if all(sys.cover_bonds[(lo, j)][x] in keep[lo]
                          for lo in base.lower_covers[j])}
    return sys.restrict({i: tuple(x for x in sys.carriers[i] if x in keep[i])
                         for i in base.elements})


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
    cover = e_sys.first_noncommuting_cover(s_sys, level_maps)
    if cover:
        raise SquaresDoNotCommute(f"square at cover {cover[0]} < {cover[1]} does not commute")
    # composites of injective cover bonds are injective
    for (lo, hi), bmap in s_sys.cover_bonds.items():
        if len(set(bmap.values())) != len(bmap):
            raise SigmaNotInjective(f"target bond {hi} -> {lo} not injective")
    sv = s.as_dict()
    fibers = {}
    for i in base.elements:
        fibers[i] = tuple(x for x in e_sys.carriers[i] if level_maps[i][x] == sv[i])
        if not fibers[i]:
            raise EmptyFiber(f"level map at {i} misses the thread value")
    sub = e_sys.restrict(fibers)
    ok, pair = is_surjective(sub)
    assert ok, f"fiber subsystem lost surjectivity at {pair}"
    return sub
