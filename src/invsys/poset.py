"""Finite ordered index sets.

A poset is given by a list of distinct labels and a list of cover pairs
``(lower, upper)``.  The order is the reflexive-transitive closure of the
covers.  Everything here is finite and immutable after validation; the
finite analogue of "has a countable cofinal sequence" collapses to "has a
maximum", which is the only dichotomy a finite poset can exhibit.

The order is kept once, as up-sets and covers.  One top-down pass finds
the cofinal core (`Poset.core`, a tuple of elements) and, per core
element, the core elements above it in no order; from those lists the
flags of the nerve inside the core (`Poset.core_flags`) are counted
against DEFAULT_FLAG_BUDGET, and only within it sorted and listed.  Each
is computed once per poset and cached; no subposet is built for the core.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from functools import cached_property

from .errors import BudgetExceeded, CycleDetected, UnknownElement

DEFAULT_FLAG_BUDGET = 20000  # flags of one nerve


class Poset:
    """Finite poset on opaque string labels.

    Instances are created through :func:`validate_poset`; direct construction
    assumes distinct labels and acyclic covers over them.  ``covers`` holds
    the declared pairs, which may include a < c beside a < b < c.
    """

    def __init__(self, elements: Sequence[str], covers: Sequence[tuple[str, str]]):
        self.elements = tuple(elements)
        self.covers = tuple(covers)
        self._index = {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def _up(self) -> dict[str, frozenset[str]]:
        """label -> set of labels >= label (reflexive), computed on first use:
        each is the union of its upper covers' up-sets, taken from the top
        of the linear extension down.  Raises CycleDetected on cyclic covers."""
        up: dict[str, frozenset[str]] = {}
        for e in reversed(self.linear_extension()):
            up[e] = frozenset((e,)).union(*[up[hi] for hi in self.upper_covers[e]])
        return up

    @cached_property
    def lower_covers(self) -> dict[str, list[str]]:
        """label -> the labels it covers, in cover order."""
        lowers: dict[str, list[str]] = {e: [] for e in self.elements}
        for lo, hi in self.covers:
            lowers[hi].append(lo)
        return lowers

    @cached_property
    def upper_covers(self) -> dict[str, list[str]]:
        """label -> the labels that cover it, in cover order."""
        uppers: dict[str, list[str]] = {e: [] for e in self.elements}
        for lo, hi in self.covers:
            uppers[lo].append(hi)
        return uppers

    def __eq__(self, other):
        return (isinstance(other, Poset)
                and self.elements == other.elements
                and set(self.covers) == set(other.covers))

    def __hash__(self):
        return hash((self.elements, frozenset(self.covers)))

    def __repr__(self):
        return f"Poset({list(self.elements)!r}, covers={list(self.covers)!r})"

    # -- order predicates -------------------------------------------------

    def leq(self, a: str, b: str) -> bool:
        if a not in self._up or b not in self._up:
            raise UnknownElement(f"unknown element in leq({a!r}, {b!r})")
        return b in self._up[a]

    def lt(self, a: str, b: str) -> bool:
        return a != b and self.leq(a, b)

    def up_set(self, a: str) -> frozenset[str]:
        """The elements x with a <= x."""
        return self._up[a]

    def maximal_common_lower_bounds(self, a: str, bs: set[str]) -> list[str]:
        """The maximal x with x <= a and x <= b for some b in bs, so [a] when
        a <= some b: a walk down the covers from a stops at each such x."""
        found, seen, stack = [], {a}, [a] if bs else []
        while stack:
            x = stack.pop()
            if not self._up[x].isdisjoint(bs):
                found.append(x)
            else:
                stack += [lo for lo in self.lower_covers[x] if lo not in seen]
                seen.update(self.lower_covers[x])
        return [x for x in found if not any(y != x and y in self._up[x] for y in found)]

    def maximal_elements(self) -> list[str]:
        """All x with nothing strictly above; ties in declared label order."""
        return [x for x in self.elements if len(self._up[x]) == 1]

    def has_maximum(self) -> str | None:
        """The unique top element, or None.  Every element of a finite poset
        lies below a maximal one, so a sole maximal element is the top."""
        maxima = self.maximal_elements()
        return maxima[0] if len(maxima) == 1 else None

    @cached_property
    def _core_above(self) -> dict[str, list[str]]:
        """The pass of `core`: each core element -> the core elements above
        it, in no order, keyed from the top down."""
        tops = set(self.maximal_elements())
        size = {y: len(up) for y, up in self._up.items()}
        kept: dict[str, list[str]] = {}
        for x in sorted(self.elements, key=size.__getitem__):
            above = [y for y in self._up[x] if y in kept]
            if above:
                lowest = max(above, key=size.__getitem__)
                if len(tops.intersection(above)) == 1 or self._up[lowest].issuperset(above):
                    continue
            kept[x] = above
        return kept

    @cached_property
    def core(self) -> tuple[str, ...]:
        """The cofinal core, in declared order: what is left after deleting,
        until none qualifies, each x whose strict up-set among the elements
        left has a maximum or a minimum.  One pass (`_core_above`) takes the
        elements by increasing up-set size, so each after all above it, and
        reads the kept elements above each from its up-set, in any order.

        Maximal elements never go, so x's up-set has a maximum exactly when
        one maximal element lies above x; a minimum, if any, is the element
        left above x with the largest up-set, found by one superset test
        (two tied there lie neither above the other, so the order read does
        not matter).  Each x costs O(|above x|).

        Whether x goes depends only on the elements left above x, and the
        pass settles those first.  No deletion stops another element from
        qualifying: a maximum of x's up-set is maximal, and if its minimum m
        goes, what is left above x is m's up-set, which had a maximum or a
        minimum.  So every deletion order ends at the same core (Newman's
        lemma, Ann. Math. 43, 1942).

        Such an up-set is a cone, hence contractible, so by homotopy
        cofinality (Bousfield-Kan 1972, XI.9) an inverse system over this
        poset and its restriction to the core have the same limit in every
        degree.  The dual rule on down-sets is not safe for general
        coefficients: it deletes both tops of the wedge and loses its lim^1.
        """
        return tuple(e for e in self.elements if e in self._core_above)

    @cached_property
    def core_flags(self) -> list[list[tuple[str, ...]]]:
        """core_flags[k] lists the strictly increasing flags of k + 1 elements
        of the core, the cells of the nerve that derived limits are computed
        on, in lexicographic order of declared positions; [[]] for the empty
        poset.

        From the top down, least[x] = 1 + the sum of least[y] over the core
        elements y above x (the unordered lists of `_core_above`) counts the
        flags with least element x; a total over DEFAULT_FLAG_BUDGET raises
        BudgetExceeded before anything is sorted or listed; each count is
        capped at DEFAULT_FLAG_BUDGET + 1, over the budget alone, so the sums
        stay small and a total within it is exact.  Then each list is sorted
        by declared position, and each degree extends every flag of the one
        below by the core elements above its last, keeping the order."""
        above = self._core_above
        least: dict[str, int] = {}
        cap = DEFAULT_FLAG_BUDGET + 1
        for x, ys in above.items():
            least[x] = min(cap, 1 + sum(map(least.__getitem__, ys)))
        if sum(least.values()) > DEFAULT_FLAG_BUDGET:
            raise BudgetExceeded("nerve flag count exceeds budget")
        above = {x: sorted(ys, key=self._index.__getitem__) for x, ys in above.items()}
        flags = [[(b,) for b in self.core]]
        while longer := [fl + (y,) for fl in flags[-1] for y in above[fl[-1]]]:
            flags.append(longer)
        return flags

    # -- structural helpers ----------------------------------------------

    def linear_extension(self) -> list[str]:
        """Deterministic topological order compatible with the poset order:
        each step places the first declared element whose lower covers are
        all placed, taken from a heap of declared indices."""
        waiting = {e: len(lows) for e, lows in self.lower_covers.items()}
        ready = [i for i, e in enumerate(self.elements) if not waiting[e]]
        out: list[str] = []
        while ready:
            e = self.elements[heapq.heappop(ready)]
            out.append(e)
            for hi in self.upper_covers[e]:
                waiting[hi] -= 1
                if not waiting[hi]:
                    heapq.heappush(ready, self._index[hi])
        if len(out) < len(self.elements):  # the rest lie on or above a cycle
            raise CycleDetected("no linear extension")
        return out


def validate_poset(elements: Iterable[str], covers: Iterable[tuple[str, str]]) -> Poset:
    """Build a poset from labels and cover pairs.

    Raises UnknownElement for covers over undeclared labels, ValueError on
    duplicate labels, and CycleDetected for a cover of a label by itself and
    when the closure is not antisymmetric; for the latter its message names
    the first declared element on a cycle and the first declared element on
    a cycle with it, whatever the order of the up-sets.
    """
    elements = list(elements)
    if len(set(elements)) != len(elements):
        raise ValueError("duplicate element labels")
    covers = [(str(a), str(b)) for a, b in covers]
    known = set(elements)
    for lo, hi in covers:
        if lo not in known or hi not in known:
            raise UnknownElement(f"cover {lo} < {hi} references undeclared element")
        if lo == hi:  # a cycle of one element, which _cycle_error cannot name
            raise CycleDetected(f"cover {lo} < {hi} relates {lo} to itself")
    p = Poset(elements, covers)
    try:
        p._up
    except CycleDetected:
        raise _cycle_error(p) from None
    return p


def _cycle_error(p: Poset) -> CycleDetected:
    """The error for cyclic covers, found from every element's reachable set."""
    reach = {}
    for e in p.elements:  # a depth-first search from each element
        seen, stack = {e}, [e]
        while stack:
            for n in p.upper_covers[stack.pop()]:
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        reach[e] = seen
    a, b = next((a, b) for a in p.elements for b in p.elements
                if b != a and b in reach[a] and a in reach[b])
    return CycleDetected(f"{a} and {b} lie on a cycle")


def chain_poset(n: int) -> Poset:
    """The chain 1 <= 2 <= ... <= n."""
    labels = [str(i) for i in range(1, n + 1)]
    covers = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    return validate_poset(labels, covers)


def grid_poset(rows: int, cols: int) -> Poset:
    """The componentwise-ordered grid {1..rows} x {1..cols}."""
    labels = [f"({i}_{j})" for i in range(1, rows + 1) for j in range(1, cols + 1)]
    covers = []
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            if i < rows:
                covers.append((f"({i}_{j})", f"({i + 1}_{j})"))
            if j < cols:
                covers.append((f"({i}_{j})", f"({i}_{j + 1})"))
    return validate_poset(labels, covers)


def wedge_poset() -> Poset:
    """Three elements c <= a, c <= b with a, b incomparable."""
    return validate_poset(["a", "b", "c"], [("c", "a"), ("c", "b")])
