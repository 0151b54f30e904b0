"""Reference computations that check invsys output without calling invsys.

Every function here works on plain Python data (label lists, cover pairs,
dicts and integer row lists) and uses a different method from the program
where one exists: minors-gcd instead of Smith form, a tree dynamic programme
instead of thread enumeration, image sets pushed down step by step instead
of composite bonds.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from math import gcd


class Order:
    """A finite poset given by labels and cover pairs (lower, upper)."""

    def __init__(self, elements: list[str], covers: list[tuple[str, str]]):
        self.elements = list(elements)
        self.covers = list(covers)
        self.uppers = {e: [hi for lo, hi in covers if lo == e] for e in elements}
        self.up = {}
        for e in elements:
            seen, stack = {e}, [e]
            while stack:
                for hi in self.uppers[stack.pop()]:
                    if hi not in seen:
                        seen.add(hi)
                        stack.append(hi)
            self.up[e] = seen

    def leq(self, a: str, b: str) -> bool:
        return b in self.up[a]

    def maximum(self):
        tops = [e for e in self.elements if len(self.up[e]) == 1]
        if len(tops) == 1 and all(self.leq(e, tops[0]) for e in self.elements):
            return tops[0]
        return None

    def top_down(self) -> list[str]:
        """Every element after all elements above it."""
        out, placed = [], set()
        while len(out) < len(self.elements):
            for e in self.elements:
                if e not in placed and all(u in placed for u in self.uppers[e]):
                    out.append(e)
                    placed.add(e)
        return out

    def flags(self) -> list[tuple[str, ...]]:
        """Every non-empty strictly increasing chain."""
        out = []

        def grow(flag):
            out.append(flag)
            for e in self.elements:
                if e != flag[-1] and self.leq(flag[-1], e):
                    grow(flag + (e,))

        for e in self.elements:
            grow((e,))
        return out

    def height(self) -> int:
        """Number of elements of the longest chain."""
        return max(len(f) for f in self.flags())


def chain(n: int) -> Order:
    labels = [f"c{i}" for i in range(1, n + 1)]
    return Order(labels, list(zip(labels, labels[1:])))


def grid(rows: int, cols: int) -> Order:
    labels = [f"({i}_{j})" for i in range(1, rows + 1) for j in range(1, cols + 1)]
    covers = []
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            if i < rows:
                covers.append((f"({i}_{j})", f"({i + 1}_{j})"))
            if j < cols:
                covers.append((f"({i}_{j})", f"({i}_{j + 1})"))
    return Order(labels, covers)


def sphere(n: int) -> Order:
    """McCord's minimal finite model of the n-sphere: 2n+2 points."""
    labels = [f"{s}{i}" for i in range(n + 1) for s in "ab"]
    covers = [(f"{s}{i}", f"{t}{i + 1}") for i in range(n) for s in "ab" for t in "ab"]
    return Order(labels, covers)


# -- integer matrices -------------------------------------------------------


def det(m: list[list[int]]) -> int:
    """Determinant by exact rational elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n, out = len(a), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(out)


def rank(rows: list[list[int]], ncols: int) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def invariants(rows: list[list[int]], ngens: int) -> tuple[int, list[int]]:
    """(free rank, invariant factors above 1) of Z^ngens modulo the row span.

    The k-th determinantal divisor is the gcd of all k-by-k minors, and the
    k-th invariant factor is the quotient of consecutive divisors.
    """
    factors, prev = [], 1
    for k in range(1, min(len(rows), ngens) + 1):
        g = 0
        for ri in combinations(range(len(rows)), k):
            for ci in combinations(range(ngens), k):
                g = gcd(g, det([[rows[r][c] for c in ci] for r in ri]))
                if g == prev:  # d(k-1) divides d(k), so it cannot get smaller
                    break
            if g == prev:
                break
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return ngens - len(factors), [f for f in factors if f != 1]


def group_rank(ngens: int, rows: list[list[int]]) -> int:
    return ngens - rank(rows, ngens)


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def euler_of_nerve(order: Order, ranks: dict[str, int]) -> int:
    """Alternating sum over flags of the rank of the group at the flag's minimum.

    Rationally the nerve complex and its cohomology have the same Euler
    characteristic, so this must equal the alternating sum of the ranks of
    the derived limits.
    """
    return sum((-1) ** (len(f) - 1) * ranks[f[0]] for f in order.flags())


# -- set systems ------------------------------------------------------------


def forest_threads(order: Order, carriers: dict, bonds: dict) -> int:
    """Thread count of a system whose elements each have at most one lower cover.

    Counts per value bottom-up over each rooted tree: the number of choices
    above an element given its value is the product, over its upper covers,
    of the choices above the cover summed over the preimages of the value.
    """
    has_lower = {hi for _, hi in order.covers}

    def above(e):
        ways = {x: 1 for x in carriers[e]}
        for hi in order.uppers[e]:
            per_value = defaultdict(int)
            for y, n in above(hi).items():
                per_value[bonds[(e, hi)][y]] += n
            for x in ways:
                ways[x] *= per_value[x]
        return ways

    total = 1
    for r in order.elements:
        if r not in has_lower:
            total *= sum(above(r).values())
    return total


def composite(order: Order, bonds: dict, lower: str, upper: str) -> dict:
    """Bond carrier(upper) -> carrier(lower), composed along one cover path."""
    if lower == upper:
        return None
    for hi in order.uppers[lower]:
        if order.leq(hi, upper):
            step = bonds[(lower, hi)]
            rest = composite(order, bonds, hi, upper)
            return step if rest is None else {x: step[y] for x, y in rest.items()}
    raise ValueError(f"{lower} is not below {upper}")


def universal_images(order: Order, carriers: dict, bonds: dict):
    """Carrier sizes after restricting to the intersection of incoming images,
    and whether every restricted bond between comparable elements is onto."""
    maps = {(i, j): composite(order, bonds, i, j)
            for i in order.elements for j in order.elements
            if i != j and order.leq(i, j)}
    prim = {}
    for i in order.elements:
        keep = set(carriers[i])
        for (lo, hi), m in maps.items():
            if lo == i:
                keep &= set(m.values())
        prim[i] = keep
    onto = all({m[x] for x in prim[hi]} == prim[lo] for (lo, hi), m in maps.items())
    return {e: len(prim[e]) for e in order.elements}, onto


def tower_images(carriers: list, steps: list) -> list[list[set]]:
    """images[n][m - n] = image of carrier(m) in level n, pushed down one step at a time."""
    h = len(steps)
    images = [[None] * (h + 1 - n) for n in range(h + 1)]
    for m in range(h + 1):
        cur = set(carriers[m])
        images[m][0] = cur
        for n in range(m - 1, -1, -1):
            cur = {steps[n][x] for x in cur}
            images[n][m - n] = cur
    return images


def ml_levels(carriers: list, steps: list) -> list[dict]:
    """Per level: image sizes, where the image chain goes constant, and the verdict."""
    h = len(steps)
    out = []
    for n, chain_ in enumerate(tower_images(carriers, steps)):
        stab = h
        while stab > n and chain_[stab - 1 - n] == chain_[h - n]:
            stab -= 1
        out.append({"image_sizes": [len(s) for s in chain_], "stabilized_at": stab,
                    "verdict": "stable" if stab < h or n == h else "unstable_at_horizon"})
    return out


def tower_universal_images(carriers: list, steps: list):
    """Tower carrier sizes after restriction to the intersection of images,
    and whether every restricted composite bond is onto."""
    prim = [set.intersection(*chain_) for chain_ in tower_images(carriers, steps)]
    onto = True
    for m in range(len(prim)):
        cur = prim[m]
        for n in range(m - 1, -1, -1):
            cur = {steps[n][x] for x in cur}
            onto = onto and cur == prim[n]
    return [len(p) for p in prim], onto


def henkin_count(order: Order, level: str, maxlen: int) -> int:
    """Members at a level: over admissible odd entries, the product of the
    numbers of admissible even partners (the elements above each odd entry)."""
    total = 0

    def grow(odds, weight):
        nonlocal total
        if 2 * (len(odds) + 1) > maxlen:
            return
        for o in order.elements:
            if any(order.leq(o, prev) for prev in odds):
                continue
            w = weight * len(order.up[o])
            if o == level:
                total += w
            else:
                grow(odds + (o,), w)

    grow((), 1)
    return total


def henkin_member(order: Order, t: tuple, level: str) -> bool:
    """The membership definition: even length, last odd entry is the level,
    each odd entry below its even partner, no odd entry below an earlier one."""
    if not t or len(t) % 2:
        return False
    odds, evens = t[0::2], t[1::2]
    return (odds[-1] == level
            and all(o in order.up and order.leq(o, u) for o, u in zip(odds, evens))
            and not any(order.leq(odds[i], odds[j])
                        for i in range(len(odds)) for j in range(i)))
