"""Seeded inputs for the benchmark workloads, and the check of every command.

The inputs are written here, in the invsys text formats, from a
``random.Random`` seeded with the workload name and the seed, so the same
seed gives byte-identical files on every commit.  Shapes (poset sizes,
horizons, carrier and generator counts) are fixed per workload and only the
contents are random, so the work in one pass varies little between seeds.

Each check returns ``None`` for a correct output and a reason otherwise.  A
check reads only the report fields it needs and compares them with a value
computed in ``oracles`` or with a property every correct answer has.
"""

from __future__ import annotations

import random
import re
from math import gcd
from dataclasses import dataclass, field
from typing import Callable, Optional

from oracles import (Order, chain, euler_of_nerve, forest_threads, grid,
                     group_rank, henkin_count, henkin_member, invariants,
                     matmul, ml_levels, sphere, tower_universal_images,
                     universal_images)

Check = Callable[[int, dict], Optional[str]]


@dataclass
class Command:
    argv: list[str]
    check: Check


@dataclass
class Case:
    """Input files and the commands run on them, in order, once per pass.

    ``joint`` checks the reports of all the commands together, after each of
    them has passed its own check.
    """
    name: str
    files: dict[str, str]
    commands: list[Command]
    joint: Optional[Callable[[list[dict]], Optional[str]]] = None


WORKLOADS = ("sets", "derived", "exactness")


def build(workload: str, seed: int) -> list[Case]:
    rng = random.Random(f"{workload}/{seed}")
    return {"sets": _sets, "derived": _derived, "exactness": _exactness}[workload](rng)


# -- text formats -----------------------------------------------------------


def poset_text(name: str, order: Order) -> str:
    lines = [f"poset {name}", "elements: " + " ".join(order.elements)]
    if order.covers:
        lines.append("covers: " + ", ".join(f"{lo} < {hi}" for lo, hi in order.covers))
    return "\n".join(lines) + "\n"


def system_text(name: str, over: str, order: Order, carriers: dict, bonds: dict) -> str:
    lines = [f"system {name} over {over}"]
    lines += [f"set {e}: {{ {' '.join(carriers[e])} }}" for e in order.elements]
    for lo, hi in order.covers:
        rules = ", ".join(f"{x} -> {y}" for x, y in bonds[(lo, hi)].items())
        lines.append(f"map {hi} -> {lo}: {rules}")
    return "\n".join(lines) + "\n"


def tower_text(name: str, carriers: list, steps: list) -> str:
    lines = [f"tower {name} horizon {len(steps)}"]
    lines += [f"set {n}: {{ {' '.join(c)} }}" for n, c in enumerate(carriers)]
    for n, step in enumerate(steps):
        lines.append(f"map {n + 1} -> {n}: " + ", ".join(f"{x} -> {y}" for x, y in step.items()))
    return "\n".join(lines) + "\n"


@dataclass
class AbData:
    """An abelian-group system: generator counts, relation rows, cover bonds."""
    order: Order
    gens: dict
    rows: dict
    bonds: dict  # (lower, upper) -> gens[lower] x gens[upper] matrix
    mods: dict = field(default_factory=dict)   # element -> cyclic orders before masking
    mask: dict = field(default_factory=dict)   # element -> (W, W^-1)

    def text(self, name: str, over: str) -> str:
        lines = [f"absystem {name} over {over}"]
        lines += [f"group {e}: gens {self.gens[e]} relations {self.rows[e]!r}"
                  for e in self.order.elements]
        lines += [f"map {hi} -> {lo}: matrix {self.bonds[(lo, hi)]!r}"
                  for lo, hi in self.order.covers]
        return "\n".join(lines) + "\n"

    def ranks(self) -> dict:
        return {e: group_rank(self.gens[e], self.rows[e]) for e in self.order.elements}


# -- generators -------------------------------------------------------------


def quotient_family(rng, order: Order, points: int, top_blocks: int, merges: int):
    """Set system whose carriers are partitions of one point set, coarsening downward.

    Every maximal element gets a random partition into ``top_blocks`` blocks;
    every other element gets the join of its upper covers' partitions with
    ``merges`` further random merges.  Bonds send a block to the block that
    contains it, so they are well defined, onto and functorial.
    """
    block = {}
    for e in order.top_down():
        if not order.uppers[e]:
            ids = list(range(top_blocks)) + [rng.randrange(top_blocks)
                                              for _ in range(points - top_blocks)]
            rng.shuffle(ids)
        else:
            parent = list(range(points))

            def find(p):
                while parent[p] != p:
                    parent[p] = parent[parent[p]]
                    p = parent[p]
                return p

            for hi in order.uppers[e]:
                first = {}
                for p in range(points):
                    b = block[hi][p]
                    parent[find(p)] = find(first.setdefault(b, p))
            for _ in range(merges):
                parent[find(rng.randrange(points))] = find(rng.randrange(points))
            ids = [find(p) for p in range(points)]
        relabel = {}
        block[e] = [relabel.setdefault(b, len(relabel)) for b in ids]
    carriers = {e: [f"x{i}" for i in range(max(block[e]) + 1)] for e in order.elements}
    bonds = {}
    for lo, hi in order.covers:
        pairs = sorted({(block[hi][p], block[lo][p]) for p in range(points)})
        bonds[(lo, hi)] = {f"x{a}": f"x{b}" for a, b in pairs}
    return carriers, bonds


def forest_system(rng, n: int, onto: bool):
    """Random-bond system over a forest poset in which each element has at
    most one lower cover, with between 2,000 and 4,000 threads.

    With ``onto`` false, the bond into one maximal element misses a value.
    The thread enumeration of invsys visits at most (elements x largest
    carrier x threads of a down-set) nodes; every down-set's threads are
    bounded by the threads of the system, or of the system without the
    maximal element whose bond is not onto, so both are kept under 4,000.
    """
    labels = [f"f{i}" for i in range(n)]
    while True:
        covers, size = [], {}
        for j, e in enumerate(labels):
            if j and rng.random() < 0.6:
                lo = labels[rng.randrange(j)]
                covers.append((lo, e))
                size[e] = min(6, size[lo] + rng.randint(0, 2))
            else:
                size[e] = rng.randint(2, 4)
        carriers = {e: [f"y{k}" for k in range(size[e])] for e in labels}
        bonds = {}
        for lo, hi in covers:
            targets = list(range(size[lo])) + [rng.randrange(size[lo])
                                                for _ in range(size[hi] - size[lo])]
            rng.shuffle(targets)
            bonds[(lo, hi)] = {f"y{k}": f"y{t}" for k, t in enumerate(targets)}
        order = Order(labels, covers)
        threads = wider = forest_threads(order, carriers, bonds)
        if not onto:
            tips = [(lo, hi) for lo, hi in covers if not order.uppers[hi] and size[lo] > 1]
            if not tips:
                continue
            lo, hi = rng.choice(tips)
            missed = rng.randrange(size[lo])
            kept = [k for k in range(size[lo]) if k != missed]
            bonds[(lo, hi)] = {x: f"y{rng.choice(kept)}" for x in carriers[hi]}
            threads = forest_threads(order, carriers, bonds)
            rest = [e for e in labels if e != hi]
            wider = forest_threads(Order(rest, [c for c in covers if c != (lo, hi)]),
                                   carriers, bonds)
        if 2000 <= threads and max(threads, wider) <= 4000:
            return order, carriers, bonds, threads


def random_tower(rng, horizon: int, size: int):
    """Carriers of ``size`` labels; each step is a shuffle with a few collisions."""
    carriers = [[f"z{k}" for k in range(size)] for _ in range(horizon + 1)]
    steps = []
    for _ in range(horizon):
        image = list(range(size))
        rng.shuffle(image)
        for _ in range(rng.choice((0, 0, 1, 2))):
            image[rng.randrange(size)] = rng.randrange(size)
        steps.append({f"z{k}": f"z{t}" for k, t in enumerate(image)})
    return carriers, steps


def _unimodular(rng, g: int):
    """(W, W^-1) as a product of four column swaps and shears."""
    w = [[int(i == j) for j in range(g)] for i in range(g)]
    winv = [row[:] for row in w]
    for _ in range(4 if g > 1 else 0):
        i, j = rng.sample(range(g), 2)
        if rng.random() < 0.3:
            for row in w:
                row[i], row[j] = row[j], row[i]
            winv[i], winv[j] = winv[j], winv[i]
        else:
            q = rng.choice((-1, 1))
            for row in w:
                row[i] += q * row[j]
            winv[j] = [a - q * b for a, b in zip(winv[j], winv[i])]
    return w, winv


FACTORS = (2, 2, 4, 8)


def surjective_absystem(rng, order: Order, g: int) -> AbData:
    """Quotients of Z^g by relation lattices that grow downward.

    The k-th element of a top-down order adds FACTORS[k mod 4] times the
    coordinate vector k mod g to the lattices of its upper covers, so the
    group at an element is a sum of cyclic groups and the identity of Z^g
    induces onto bonds.  A random unimodular change of basis per element
    hides the diagonal shape.  Only the changes of basis depend on the
    seed: the groups, and with them most of the work, are the same for
    every seed.
    """
    cols = {}
    for k, e in enumerate(order.top_down()):
        new = tuple(FACTORS[k % len(FACTORS)] if i == k % g else 0 for i in range(g))
        cols[e] = sorted({new}.union(*(cols[hi] for hi in order.uppers[e])))
    data = AbData(order, {e: g for e in order.elements}, {}, {})
    for e in order.elements:
        w, winv = data.mask[e] = _unimodular(rng, g)
        data.rows[e] = [[sum(a * b for a, b in zip(row, c)) for row in w] for c in cols[e]]
        mods = [0] * g
        for c in cols[e]:
            i = next(k for k in range(g) if c[k])
            mods[i] = gcd(mods[i], c[i])
        data.mods[e] = mods
    for lo, hi in order.covers:
        data.bonds[(lo, hi)] = matmul(data.mask[lo][0], data.mask[hi][1])
    return data


def constant_z(order: Order) -> AbData:
    return AbData(order, {e: 1 for e in order.elements}, {e: [] for e in order.elements},
                  {c: [[1]] for c in order.covers})


def wedge_witness() -> AbData:
    """Z at the bottom of the wedge c < a, c < b and 0 above: lim^1 = Z."""
    order = Order(["a", "b", "c"], [("c", "a"), ("c", "b")])
    return AbData(order, {"a": 0, "b": 0, "c": 1}, {"a": [], "b": [], "c": []},
                         {c: [[]] for c in order.covers})


def exact_sequence(rng, order: Order, ga: int, gc: int):
    """Level-wise exact 0 -> A -> B -> C -> 0 with B = A + C and twisted bonds.

    B's bond at a cover is [[f_A, t], [0, f_C]] with t = f_A p_upper - p_lower f_C
    for relation-respecting maps p_e: C_e -> A_e, which keeps B functorial.
    """
    a = surjective_absystem(rng, order, ga)
    c = surjective_absystem(rng, order, gc)
    pot = {}
    for e in order.elements:
        step = [[_pot_step(am, cm) for cm in c.mods[e]] for am in a.mods[e]]
        p = [[rng.choice((-1, 0, 1)) * s for s in row] for row in step]
        pot[e] = matmul(matmul(a.mask[e][0], p), c.mask[e][1])
    g = ga + gc
    b = AbData(order, {e: g for e in order.elements}, {}, {})
    for e in order.elements:
        b.rows[e] = ([row + [0] * gc for row in a.rows[e]]
                     + [[0] * ga + row for row in c.rows[e]])
    for lo, hi in order.covers:
        fa, fc = a.bonds[(lo, hi)], c.bonds[(lo, hi)]
        left, right = matmul(fa, pot[hi]), matmul(pot[lo], fc)
        t = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(left, right)]
        b.bonds[(lo, hi)] = ([ra + rt for ra, rt in zip(fa, t)]
                             + [[0] * ga + rc for rc in fc])
    u = [[int(i == j) for j in range(ga)] for i in range(g)]
    v = [[int(j == ga + i) for j in range(g)] for i in range(gc)]
    return a, b, c, u, v


def _pot_step(a_mod: int, c_mod: int) -> int:
    """Smallest p > 0 with c_mod * p = 0 modulo a_mod (modulo 0 meaning
    equality), or 0 when only p = 0 will do."""
    if a_mod:
        return a_mod // gcd(a_mod, c_mod)
    return 1 if c_mod == 0 else 0


# -- report fields ----------------------------------------------------------

_INV = re.compile(r"^free rank (\d+), torsion \[([\d, ]*)\]$")


def _invariants(text: str):
    m = _INV.match(text)
    if not m:
        return None
    return int(m.group(1)), [int(x) for x in m.group(2).replace(",", " ").split()]


def _status_matches(status: int, verdict: bool) -> Optional[str]:
    if status != (0 if verdict else 1):
        return f"exit {status} disagrees with verdict {verdict}"
    return None


def _first(*reasons) -> Optional[str]:
    return next((r for r in reasons if r), None)


def _want(what: str, got, expected) -> Optional[str]:
    return None if got == expected else f"{what}: got {got!r}, expected {expected!r}"


# -- sets -------------------------------------------------------------------


def _sets(rng) -> list[Case]:
    cases = []
    for rows, cols in ((3, 3), (4, 4)):
        order = grid(rows, cols)
        carriers, bonds = quotient_family(rng, order, points=48, top_blocks=30, merges=2)
        name = f"quotient{rows}x{cols}.txt"
        files = {name: poset_text("G", order) + "\n"
                 + system_text("S", "G", order, carriers, bonds)}
        sizes, onto = universal_images(order, carriers, bonds)
        cases.append(Case(name, files, [
            Command(["validate", name], _check_validate(systems=["S"])),
            Command(["limit", name], _check_limit(len(carriers[order.maximum()]))),
            Command(["surjective", name], _check_surjective(_covers_onto(order, carriers, bonds))),
            Command(["images", name], _check_images(sizes, onto)),
        ]))
    for n, onto in ((10, True), (11, False), (12, True)):
        order, carriers, bonds, threads = forest_system(rng, n, onto)
        name = f"forest{n}.txt"
        files = {name: poset_text("F", order) + "\n"
                 + system_text("S", "F", order, carriers, bonds)}
        cases.append(Case(name, files, [
            Command(["validate", name], _check_validate(systems=["S"])),
            Command(["limit", name], _check_limit(threads)),
            Command(["surjective", name], _check_surjective(_covers_onto(order, carriers, bonds))),
        ]))
    for horizon in (24, 36):
        carriers, steps = random_tower(rng, horizon, size=30)
        name = f"tower{horizon}.txt"
        sizes, onto = tower_universal_images(carriers, steps)
        onto_steps = all(set(step.values()) == set(carriers[n]) for n, step in enumerate(steps))
        cases.append(Case(name, {name: tower_text("T", carriers, steps)}, [
            Command(["validate", name], _check_validate(towers=["T"])),
            Command(["surjective", name], _check_surjective(onto_steps)),
            Command(["ml", name], _check_ml(ml_levels(carriers, steps))),
            Command(["images", name], _check_images(sizes, onto)),
        ]))
    for rows, cols in ((3, 3), (3, 4)):
        order = grid(rows, cols)
        level = rng.choice(order.elements[1:])
        name = f"henkin{rows}x{cols}.txt"
        cases.append(Case(name, {name: poset_text("H", order)}, [
            Command(["henkin", "enumerate", "--poset", name, "--level", level,
                     "--maxlen", "6"], _check_henkin(order, level, 6)),
        ]))
    return cases


def _covers_onto(order: Order, carriers: dict, bonds: dict) -> bool:
    return all(set(bonds[(lo, hi)].values()) == set(carriers[lo]) for lo, hi in order.covers)


def _check_validate(**names) -> Check:
    """The file is valid and declares exactly the named blocks of each kind."""
    def check(status, report):
        return _first(_want("exit", status, 0),
                      _want("valid", report["verdicts"].get("valid"), True),
                      *(_want(kind, report["data"].get(kind), names.get(kind, []))
                        for kind in ("systems", "towers")))
    return check


def _check_limit(threads: int) -> Check:
    def check(status, report):
        return _first(_want("threads", report["data"].get("threads"), threads),
                      _status_matches(status, threads > 0))
    return check


def _check_surjective(onto: bool) -> Check:
    def check(status, report):
        return _first(_want("surjective", report["verdicts"].get("surjective"), onto),
                      _status_matches(status, onto))
    return check


def _check_images(sizes, onto: bool) -> Check:
    def check(status, report):
        verdict = report["verdicts"].get("restricted_bonds_surjective")
        return _first(_want("carrier_sizes", report["data"].get("carrier_sizes"), sizes),
                      _want("restricted_bonds_surjective", verdict, onto),
                      _status_matches(status, onto))
    return check


def _check_ml(levels: list[dict]) -> Check:
    def check(status, report):
        got = report["data"].get("levels") or []
        if len(got) != len(levels):
            return f"{len(got)} levels, expected {len(levels)}"
        for n, (g, want) in enumerate(zip(got, levels)):
            for key, value in want.items():
                if g.get(key) != value:
                    return f"level {n} {key}: got {g.get(key)!r}, expected {value!r}"
        stable = all(w["verdict"] == "stable" for w in levels)
        return _first(_want("stable_everywhere",
                            report["verdicts"].get("stable_everywhere"), stable),
                      _status_matches(status, stable))
    return check


def _check_henkin(order: Order, level: str, maxlen: int) -> Check:
    count = henkin_count(order, level, maxlen)

    def check(status, report):
        members = [tuple(m.split(",")) for m in report["data"].get("members", [])]
        bad = next((m for m in members
                    if len(m) > maxlen or not henkin_member(order, m, level)), None)
        return _first(_want("count", report["data"].get("count"), count),
                      _want("members listed", len(set(members)), min(count, 50)),
                      bad and f"{','.join(bad)} is not a member at {level}",
                      _status_matches(status, count > 0))
    return check


# -- derived ----------------------------------------------------------------


def _derived(rng) -> list[Case]:
    def vanishing_above_top(data):
        top = data.order.maximum()
        return {0: invariants(data.rows[top], data.gens[top])}, (0, [])

    systems = [("chain4", surjective_absystem(rng, chain(4), 3), vanishing_above_top),
               ("grid2x3", surjective_absystem(rng, grid(2, 3), 2), vanishing_above_top)]
    for n in (1, 2, 3):  # McCord: lim^0 = lim^n = Z, every other degree 0
        systems.append((f"sphere{n}", constant_z(sphere(n)),
                        lambda data, n=n: ({0: (1, []), n: (1, [])}, (0, []))))
    systems.append(("wedge", wedge_witness(), lambda data: ({1: (1, [])}, (0, []))))
    systems.append(("circle_random", surjective_absystem(rng, sphere(1), 2),
                    lambda data: ({}, None)))
    cases = []
    for name, data, known in systems:
        fname = f"{name}.txt"
        files = {fname: poset_text("P", data.order) + "\n" + data.text("A", "P")}
        special, other = known(data)
        commands = [Command(["derived", "--n", str(n), fname],
                            _check_derived(n, special.get(n, other)))
                    for n in range(data.order.height())]
        cases.append(Case(fname, files, commands,
                          _check_euler(euler_of_nerve(data.order, data.ranks()))))
    return cases


def _check_derived(n: int, expected) -> Check:
    def check(status, report):
        inv = _invariants(report["data"].get(f"lim^{n} invariants", ""))
        if inv is None:
            return f"no lim^{n} invariants in the report"
        nonzero = inv[0] > 0 or bool(inv[1])
        return _first(_want("exit", status, 0),
                      _want("nonzero", report["verdicts"].get("nonzero"), nonzero),
                      expected is not None and _want(f"lim^{n}", inv, expected))
    return check


def _check_euler(euler: int):
    def check(reports):
        ranks = [_invariants(r["data"][f"lim^{n} invariants"])[0] for n, r in enumerate(reports)]
        alternating = sum((-1) ** n * r for n, r in enumerate(ranks))
        return _want("alternating sum of lim^n ranks", alternating, euler)
    return check


# -- exactness --------------------------------------------------------------


def _exactness(rng) -> list[Case]:
    shapes = [("chain3", chain(3)), ("diamond", grid(2, 2)),
              ("chain4", chain(4)),
              ("lambda", Order(["a", "b", "c"], [("a", "c"), ("b", "c")])),
              ("wedge", Order(["a", "b", "c"], [("c", "a"), ("c", "b")])),
              ("circle", sphere(1)),
              ("zigzag", Order(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("b", "d")]))]
    cases = []
    for name, order in shapes:
        a, b, c, u, v = exact_sequence(rng, order, ga=2, gc=1)
        sequence = (["sequence Q over P systems A B C"]
                    + [f"map u at {e}: matrix {u!r}" for e in order.elements]
                    + [f"map v at {e}: matrix {v!r}" for e in order.elements])
        text = "\n".join([poset_text("P", order), a.text("A", "P"), b.text("B", "P"),
                          c.text("C", "P"), "\n".join(sequence) + "\n"])
        fname = f"{name}.txt"
        top = order.maximum()
        tops = None if top is None else [invariants(s.rows[top], s.gens[top]) for s in (a, b, c)]
        cases.append(Case(fname, {fname: text},
                          [Command(["exactness", fname], _check_exactness(tops))]))
    return cases


def _check_exactness(tops) -> Check:
    def check(status, report):
        verdicts, data = report["verdicts"], report["data"]
        reason = _first(_want("exit", status, 0), _want("ok", verdicts.get("ok"), True))
        if reason or tops is None:
            return reason
        return _first(
            _want("lim^1 A", _invariants(data.get("lim^1 A", "")), (0, [])),
            _want("lim_v_surjective", verdicts.get("lim_v_surjective"), True),
            *(_want(f"lim {s}", _invariants(data.get(f"lim {s}", "")), t)
              for s, t in zip("ABC", tops)))
    return check
