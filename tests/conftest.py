"""Shared oracles and generators for the test suite.

The oracles here are deliberately naive re-derivations: product filtering
for limits, minors-gcd for invariant factors, permutation expansion for
determinants.  They exist so the library code is checked against an
independent computation, not against itself.
"""

from __future__ import annotations

import itertools
import math
import random

from invsys.intlinalg import IntMatrix
from invsys.poset import Poset, validate_poset
from invsys.setsys import SetSystem, Thread


def brute_force_threads(s: SetSystem) -> list[Thread]:
    """All threads by filtering the full cartesian product of carriers."""
    elems = s.base.elements
    out = []
    for combo in itertools.product(*(s.carriers[e] for e in elems)):
        assignment = dict(zip(elems, combo))
        ok = all(s.bond(lo, hi)[assignment[hi]] == assignment[lo]
                 for lo in elems for hi in elems
                 if lo != hi and s.base.leq(lo, hi))
        if ok:
            out.append(Thread.of(assignment))
    return out


def minors_gcd_invariants(m: IntMatrix) -> list[int]:
    """Invariant factors as successive quotients of k-minor gcds."""
    r = min(m.rows, m.cols)
    rows = range(m.rows)
    cols = range(m.cols)
    dks = [1]
    for k in range(1, r + 1):
        g = 0
        for rs in itertools.combinations(rows, k):
            for cs in itertools.combinations(cols, k):
                g = math.gcd(g, _minor(m, rs, cs))
        dks.append(g)
    out = []
    for k in range(1, r + 1):
        if dks[k] == 0:
            break
        out.append(dks[k] // dks[k - 1])
    return out


def _minor(m: IntMatrix, rs, cs) -> int:
    sub = [[m.entries[i][j] for j in cs] for i in rs]
    return _det_perm(sub)


def _det_perm(rows: list[list[int]]) -> int:
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def floyd_warshall_leq(elements, covers):
    """Reachability closure of the cover relation, computed the slow way."""
    reach = {(a, b): a == b for a in elements for b in elements}
    for (lo, hi) in covers:
        reach[(lo, hi)] = True
    for k in elements:
        for a in elements:
            for b in elements:
                if reach[(a, k)] and reach[(k, b)]:
                    reach[(a, b)] = True
    return reach


def random_int_matrix(rng: random.Random, rows: int, cols: int,
                      lo: int = -9, hi: int = 9) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def sphere_model(n: int) -> Poset:
    """McCord's minimal finite model of the n-sphere: levels 0..n of two
    incomparable points each, every point below both points of the next
    level.  Its nerve is the n-sphere, so constant Z on it has H^0 = H^n = Z
    and no other cohomology for n >= 1 (McCord 1966)."""
    levels = [(f"a{k}", f"b{k}") for k in range(n + 1)]
    covers = [(lo, hi) for k in range(n) for lo in levels[k] for hi in levels[k + 1]]
    return validate_poset([e for level in levels for e in level], covers)
