"""Finite ordered index sets.

A poset is given by a list of distinct labels and a list of cover pairs
``(lower, upper)``.  The order is the reflexive-transitive closure of the
covers.  Everything here is finite and immutable after validation; the
finite analogue of "has a countable cofinal sequence" collapses to "has a
maximum", which is the only dichotomy a finite poset can exhibit.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import CycleDetected, UnknownElement


class Poset:
    """Finite poset on opaque string labels.

    Instances are created through :func:`validate_poset`; direct construction
    assumes distinct labels and acyclic covers over them.
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

    def strict_uppers(self, a: str) -> list[str]:
        return [b for b in self.elements if self.lt(a, b)]

    def maximal_elements(self) -> list[str]:
        """All x with nothing strictly above; ties in declared label order."""
        return [x for x in self.elements if len(self._up[x]) == 1]

    def has_maximum(self) -> Optional[str]:
        """The unique top element, or None.  Every element of a finite poset
        lies below a maximal one, so a sole maximal element is the top."""
        maxima = self.maximal_elements()
        return maxima[0] if len(maxima) == 1 else None

    def cofinal_core(self) -> list[str]:
        """The elements left after deleting each x whose strict up-set, among
        the elements still left, has a maximum or a minimum; the walk goes in
        declared order and repeats until no element qualifies.  Computed once
        per poset, as is the subposet it induces, `core_poset`.

        Such an up-set is a cone, hence contractible, so by homotopy
        cofinality (Bousfield-Kan 1972, XI.9) an inverse system over this
        poset and its restriction to the core have the same limit in every
        degree.  The dual rule on down-sets is not safe for general
        coefficients: it deletes both tops of the wedge and loses its lim^1.
        """
        return list(self._core)

    @cached_property
    def _core(self) -> tuple[str, ...]:
        kept = dict.fromkeys(self.elements)  # an ordered set
        shrank = True
        while shrank:
            shrank = False
            for x in list(kept):
                above = [y for y in kept if y != x and y in self._up[x]]
                if any(all(m in self._up[y] for y in above)  # m is the maximum
                       or self._up[m].issuperset(above)  # m is the minimum
                       for m in above):
                    del kept[x]
                    shrank = True
        return tuple(kept)

    @cached_property
    def core_poset(self) -> "Poset":  # on cofinal_core(); self if that is all
        return self if len(self._core) == len(self.elements) else self.induced(self._core)

    def induced(self, keep: Sequence[str]) -> "Poset":
        """The subposet on keep, in keep's order, with the induced order's covers."""
        covers = []
        for lo in keep:
            above = [hi for hi in keep if hi != lo and hi in self._up[lo]]
            covers += [(lo, hi) for hi in above
                       if not any(mid != hi and hi in self._up[mid] for mid in above)]
        return Poset(keep, covers)

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

    def chains(self, length: int) -> list[tuple[str, ...]]:
        """All strictly increasing flags with `length` elements, lex order."""
        if length == 0:
            return [()]
        flags: list[tuple[str, ...]] = []

        def extend(flag: tuple[str, ...]):
            if len(flag) == length:
                flags.append(flag)
                return
            for e in self.elements:
                if not flag or self.lt(flag[-1], e):
                    extend(flag + (e,))

        extend(())
        return flags

    def longest_chain(self) -> int:
        """Number of elements in the longest strictly increasing chain."""
        depth: dict[str, int] = {}
        for e in self.linear_extension():
            below = [depth[x] for x in self.elements if self.lt(x, e)]
            depth[e] = 1 + max(below, default=0)
        return max(depth.values(), default=0)


def validate_poset(elements: Iterable[str], covers: Iterable[tuple[str, str]]) -> Poset:
    """Build a poset from labels and cover pairs.

    Raises UnknownElement for covers over undeclared labels, ValueError on
    duplicate labels, and CycleDetected when the closure is not antisymmetric;
    its message names the first declared element on a cycle and the first
    declared element on a cycle with it, whatever the order of the up-sets.
    """
    elements = list(elements)
    if len(set(elements)) != len(elements):
        raise ValueError("duplicate element labels")
    covers = [(str(a), str(b)) for a, b in covers]
    known = set(elements)
    for lo, hi in covers:
        if lo not in known or hi not in known:
            raise UnknownElement(f"cover {lo} < {hi} references undeclared element")
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
