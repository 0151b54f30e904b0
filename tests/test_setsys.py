from __future__ import annotations

import random

import pytest

from invsys.errors import (BudgetExceeded, EmptyFiber, FunctorialityViolation,
                           MissingBond, NoMaximum, NotFunction, SigmaNotInjective,
                           SquaresDoNotCommute)
from invsys.poset import chain_poset, grid_poset, validate_poset, wedge_poset
from invsys.setsys import (Thread, count_threads, fiber_subsystem, is_surjective,
                           limit_threads, ml_report, thread_from_top, universal_images,
                           validate_system, validate_tower)

from conftest import (brute_force_threads, is_thread, naive_universal_images,
                      random_forest_poset, random_poset, random_set_system,
                      random_surjective_set_system, random_tower, surjectivity_oracle)


def diamond():
    return validate_poset(["bot", "l", "r", "top"],
                          [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")])


def test_validate_system_missing_bond():
    p = chain_poset(2)
    with pytest.raises(MissingBond):
        validate_system(p, {"1": (0,), "2": (0,)}, {})


def test_validate_system_not_function():
    p = chain_poset(2)
    with pytest.raises(NotFunction):
        validate_system(p, {"1": (0,), "2": (0, 1)},
                        {("1", "2"): {0: 0}})  # 1 has no image
    with pytest.raises(NotFunction):
        validate_system(p, {"1": (0,), "2": (0,)},
                        {("1", "2"): {0: 7}})  # 7 not in carrier(1)


def test_validate_system_functoriality():
    # two routes through the diamond that disagree on the top carrier
    p = diamond()
    carriers = {e: (0, 1) for e in p.elements}
    bonds = {("bot", "l"): {0: 0, 1: 1},
             ("bot", "r"): {0: 1, 1: 0},
             ("l", "top"): {0: 0, 1: 1},
             ("r", "top"): {0: 0, 1: 1}}
    with pytest.raises(FunctorialityViolation):
        validate_system(p, carriers, bonds)


def test_limit_matches_brute_force_on_random_systems():
    rng = random.Random(20)
    for _ in range(60):
        p = random_forest_poset(rng, max_elements=5)
        s = random_set_system(rng, p, max_carrier=4)
        got = sorted(t.assignment for t in limit_threads(s))
        want = sorted(t.assignment for t in brute_force_threads(s))
        assert got == want


def test_limit_budget():
    p = chain_poset(2)
    s = validate_system(p, {"1": tuple(range(4)), "2": tuple(range(4))},
                        {("1", "2"): {x: x for x in range(4)}})
    with pytest.raises(BudgetExceeded):
        limit_threads(s, budget=2)


def subseed_system(rng: random.Random, base, points: int = 4):
    """Blocks of a random subset, at most half, of one seed set at each
    maximal element and, below, of the union of the subsets above, with the
    partitions joined and sometimes one more merge.  Functorial on any base,
    but a bond misses the blocks whose points its upper element does not
    see, so maximal elements with disjoint subsets that meet below leave no
    thread."""
    share, block = {}, {}
    for e in reversed(base.linear_extension()):
        uppers = base.upper_covers[e]
        share[e] = (set().union(*(share[u] for u in uppers)) if uppers
                    else set(rng.sample(range(points), rng.randint(1, points // 2))))
        classes = {x: x if uppers else rng.randrange(points) for x in share[e]}
        for u in uppers:  # points in one block above stay in one block here
            for x in share[u]:
                first = next(y for y in share[u] if block[u][y] == block[u][x])
                old, new = classes[x], classes[first]
                classes = {z: new if c == old else c for z, c in classes.items()}
        if rng.random() < 0.3:
            old, new = rng.choice(list(classes.values())), rng.choice(list(classes.values()))
            classes = {z: new if c == old else c for z, c in classes.items()}
        block[e] = classes
    carriers = {e: tuple(sorted({f"{e}b{c}" for c in block[e].values()})) for e in base.elements}
    bonds = {(lo, hi): {f"{hi}b{block[hi][x]}": f"{lo}b{block[lo][x]}" for x in share[hi]}
             for lo, hi in base.covers}
    return validate_system(base, carriers, bonds)


def _extension_order(s, threads):
    """threads sorted by their carrier indices along the linear extension."""
    order = s.base.linear_extension()
    return sorted(threads, key=lambda t: [s.carriers[e].index(t.as_dict()[e]) for e in order])


def _shuffled(rng: random.Random, s):
    """s with its elements declared, and each carrier listed, in random order,
    so that neither is the order of a linear extension or of the labels."""
    elements = rng.sample(s.base.elements, len(s.base.elements))
    carriers = {e: tuple(rng.sample(c, len(c))) for e, c in s.carriers.items()}
    return validate_system(validate_poset(elements, s.base.covers), carriers, s.cover_bonds)


def _check_against_brute_force(s) -> int:
    want = brute_force_threads(s)
    assert count_threads(s) == len(want)
    got = limit_threads(s)
    assert sorted(t.assignment for t in got) == sorted(t.assignment for t in want)
    if len(want) <= 20:  # the order `thread_list` prints
        assert got == _extension_order(s, want)
    return len(want)


@pytest.mark.parametrize("kind", ["forest", "with-maximum", "without-maximum", "subseed"])
def test_count_and_threads_match_brute_force(kind):
    rng = random.Random(f"threads/{kind}")
    rich = 0
    for _ in range(80):
        if kind == "forest":
            p = random_forest_poset(rng, max_elements=6)
            s = random_set_system(rng, p, max_carrier=4)
        elif kind == "subseed":
            p = random_poset(rng, max_elements=6)
            s = subseed_system(rng, p)
        else:
            p = random_poset(rng, max_elements=6, ensure_maximum=kind == "with-maximum")
            s = random_surjective_set_system(rng, p, max_top=5)
        threads = _check_against_brute_force(_shuffled(rng, s))
        several = len(p.maximal_elements()) >= 2 or kind == "with-maximum"
        rich += several and threads > 1
    # not trivial: many instances have more than one thread and, where the
    # base may lack a maximum, two or more maximal elements
    assert rich >= 10


def test_non_onto_systems_with_no_thread():
    rng = random.Random("threads/empty")
    empty = 0
    for _ in range(150):
        s = subseed_system(rng, random_poset(rng, max_elements=6))
        if _check_against_brute_force(s) == 0:
            assert not is_surjective(s)[0]
            assert limit_threads(s) == []
            empty += 1
    assert empty >= 10


def test_count_threads_of_a_wide_star():
    # 20 tops over one bottom, bonds x -> x mod 2: 2 * 2^20 threads
    tops = [f"t{i}" for i in range(20)]
    p = validate_poset(["b", *tops], [("b", t) for t in tops])
    s = validate_system(p, {"b": (0, 1), **{t: (0, 1, 2, 3) for t in tops}},
                        {("b", t): {x: x % 2 for x in range(4)} for t in tops})
    assert count_threads(s) == 2 * 2 ** 20
    with pytest.raises(BudgetExceeded):
        count_threads(s, budget=100)


def test_count_threads_of_a_comb_grows_linearly_with_its_teeth():
    # a spine s0 < s1 < ... with a tooth t_i above each s_i: s_i lies below
    # every later tooth but gets one factor per upper cover, so the tables
    # stay within 25 entries a tooth where n²/2 factors would need 90,000
    n = 300
    spine, teeth = [f"s{i}" for i in range(n)], [f"t{i}" for i in range(n)]
    covers = [*zip(spine, spine[1:]), *zip(spine, teeth)]
    p = validate_poset(spine + teeth, covers)
    s = validate_system(p, {e: (0, 1) for e in p.elements}, {c: {0: 0, 1: 1} for c in covers})
    assert count_threads(s, budget=25 * n) == 2
    assert [t.as_dict()["s0"] for t in limit_threads(s, budget=25 * n)] == [0, 1]


def test_constant_system_threads():
    p = wedge_poset()
    s = validate_system(p, {e: (0, 1) for e in p.elements},
                        {("c", "a"): {0: 0, 1: 1}, ("c", "b"): {0: 0, 1: 1}})
    assert len(limit_threads(s)) == 2


def test_thread_from_top_needs_maximum():
    p = wedge_poset()
    s = validate_system(p, {e: (0,) for e in p.elements},
                        {("c", "a"): {0: 0}, ("c", "b"): {0: 0}})
    with pytest.raises(NoMaximum):
        thread_from_top(s)


def test_surjective_systems_have_threads():
    rng = random.Random(21)
    for _ in range(40):
        p = random_poset(rng, max_elements=5, ensure_maximum=True)
        s = random_surjective_set_system(rng, p)
        ok, pair = is_surjective(s)
        assert ok, pair
        threads = limit_threads(s)
        assert threads
        t = thread_from_top(s)
        assert is_thread(s, t)
        assert t in threads


def test_is_surjective_reports_first_failure():
    p = chain_poset(2)
    s = validate_system(p, {"1": (0, 1), "2": (0,)},
                        {("1", "2"): {0: 0}})
    ok, pair = is_surjective(s)
    assert not ok and pair == ("1", "2")


def test_is_surjective_names_a_cover_where_a_composite_pair_fails_first():
    # f0 < f1 and f0 < f2 are onto, f2 < f3 is not; the composite f0 < f3 is
    # the first non-onto comparable pair in element order, but the witness
    # is the one cover whose bond fails on its own
    p = validate_poset(["f0", "f1", "f2", "f3"], [("f0", "f1"), ("f0", "f2"), ("f2", "f3")])
    s = validate_system(p, {"f0": (0, 1), "f1": (0, 1), "f2": (0, 1, 2), "f3": (0,)},
                        {("f0", "f1"): {0: 0, 1: 1}, ("f0", "f2"): {0: 0, 1: 1, 2: 1},
                         ("f2", "f3"): {0: 0}})
    assert set(s.bond("f0", "f3").values()) != set(s.carriers["f0"])
    assert is_surjective(s) == (False, ("f2", "f3"))
    assert surjectivity_oracle(s) == (False, ("f2", "f3"))


def _random_set_systems(rng):
    """Forests with unconstrained bonds (often not onto), onto quotient
    families over any poset, and towers with random steps."""
    for _ in range(40):
        yield random_set_system(rng, random_forest_poset(rng, max_elements=6))
        p = random_poset(rng, max_elements=5)
        yield random_surjective_set_system(rng, p)
        yield random_tower(rng, horizon=rng.randint(1, 6), max_carrier=3)


def test_is_surjective_matches_the_composition_oracle():
    rng = random.Random(25)
    verdicts = []
    for s in _random_set_systems(rng):
        ok, pair = is_surjective(s)
        assert (ok, pair) == surjectivity_oracle(s), s.cover_bonds
        verdicts.append(ok)
    assert 10 < sum(verdicts) < len(verdicts) - 10


# -- towers ----------------------------------------------------------------


def clipdec_tower(horizon: int, width: int):
    return validate_tower(horizon, [tuple(range(width))] * (horizon + 1),
                          [{x: max(x - 1, 0) for x in range(width)}] * horizon)


def test_tower_composite_bond():
    t = clipdec_tower(6, 4)
    assert t.bond("2", "5") == {0: 0, 1: 0, 2: 0, 3: 0}
    assert t.bond("4", "5") == {0: 0, 1: 0, 2: 1, 3: 2}
    assert t.bond("3", "3") == {x: x for x in range(4)}


def test_ml_clipdec_stabilizes_at_offset_width_minus_one():
    # images at level n shrink until m = n + width - 1 and stay {0} after
    t = clipdec_tower(10, 5)
    rep = ml_report(t)
    assert rep.entries[0].stabilized_at == 4
    assert rep.entries[0].verdict == "stable"
    assert rep.entries[2].stabilized_at == 6
    assert rep.stable_everywhere() is False  # top levels cannot stabilize
    assert rep.entries[8].verdict == "unstable_at_horizon"
    assert rep.entries[8].horizon_sensitive


def test_ml_constant_tower_stable_everywhere():
    t = validate_tower(6, [(0, 1)] * 7, [{0: 0, 1: 1}] * 6)
    rep = ml_report(t)
    assert rep.stable_everywhere()
    for e in rep.entries:
        assert e.stabilized_at == e.index


def test_ml_strictly_shrinking_tower_is_horizon_sensitive():
    # carriers {0..H-n} with inclusion as the bond: every image chain keeps
    # shrinking all the way to the horizon, so no interior level stabilizes
    h = 8
    carriers = [tuple(range(h - n + 1)) for n in range(h + 1)]
    steps = [{x: x for x in carriers[n + 1]} for n in range(h)]
    t = validate_tower(h, carriers, steps)
    rep = ml_report(t)
    for e in rep.entries:
        assert e.stabilized_at == h
        if e.index < h:
            assert e.verdict == "unstable_at_horizon"
            assert e.horizon_sensitive


@pytest.mark.parametrize("base", [grid_poset(2, 2), chain_poset(3)], ids=["grid", "chain-1-2-3"])
def test_ml_report_needs_a_tower_chain(base):
    # a grid is no chain, and chain_poset labels its levels from "1", not "0"
    s = validate_system(base, {e: (0,) for e in base.elements},
                        {cov: {0: 0} for cov in base.covers})
    with pytest.raises(ValueError):
        ml_report(s)


def test_universal_images_clipdec():
    t = clipdec_tower(10, 5)
    r = universal_images(t)
    # far enough below the horizon the intersection collapses to {0};
    # the last width-1 levels see too few images to collapse
    for n in range(7):
        assert r.carriers[str(n)] == (0,)
    assert r.carriers["10"] == (0, 1, 2, 3, 4)
    assert is_surjective(r) == (True, None)


def test_universal_images_poset_case():
    p = chain_poset(3)
    s = validate_system(p, {"1": (0, 1), "2": (0, 1), "3": (0,)},
                        {("1", "2"): {0: 0, 1: 1}, ("2", "3"): {0: 0}})
    r = universal_images(s)
    assert r.carriers["1"] == (0,)
    assert r.carriers["2"] == (0,)
    assert r.carriers["3"] == (0,)
    assert is_surjective(r) == (True, None)


def test_ml_stable_implies_surjective_universal_images():
    rng = random.Random(22)
    seen = 0
    while seen < 30:
        t = random_tower(rng)
        if not ml_report(t).stable_everywhere():
            continue
        assert is_surjective(universal_images(t)) == (True, None)
        seen += 1


def test_thread_from_top_tower():
    t = validate_tower(5, [tuple(range(3))] * 6,
                       [{x: (x + 1) % 3 for x in range(3)}] * 5)
    th = thread_from_top(t)
    m = th.as_dict()
    for n in range(5):
        assert t.cover_bonds[(str(n), str(n + 1))][m[str(n + 1)]] == m[str(n)]


def test_thread_from_top_tower_needs_no_surjective_step():
    # neither step is onto, yet the top element pushes down to a thread
    t = validate_tower(2, [(0, 1), (0, 1), (0, 1)],
                       [{0: 1, 1: 1}, {0: 0, 1: 0}])
    assert not is_surjective(t)[0]
    th = thread_from_top(t)
    assert is_thread(t, th)
    assert th.as_dict() == {"0": 1, "1": 0, "2": 0}


# -- fibers ----------------------------------------------------------------


def test_fiber_subsystem_happy_path():
    p = chain_poset(2)
    e_sys = validate_system(p, {"1": ("a0", "a1"), "2": ("b0", "b1")},
                            {("1", "2"): {"b0": "a0", "b1": "a1"}})
    s_sys = validate_system(p, {"1": (0,), "2": (0,)},
                            {("1", "2"): {0: 0}})
    level_maps = {"1": {"a0": 0, "a1": 0}, "2": {"b0": 0, "b1": 0}}
    s = Thread.of({"1": 0, "2": 0})
    sub = fiber_subsystem(e_sys, s_sys, level_maps, s)
    assert sub.carriers["1"] == ("a0", "a1")
    assert sub.carriers["2"] == ("b0", "b1")


def test_fiber_subsystem_detects_noncommuting_square():
    p = chain_poset(2)
    e_sys = validate_system(p, {"1": ("a0", "a1"), "2": ("b0", "b1")},
                            {("1", "2"): {"b0": "a0", "b1": "a1"}})
    s_sys = validate_system(p, {"1": (0, 1), "2": (0, 1)},
                            {("1", "2"): {0: 0, 1: 1}})
    level_maps = {"1": {"a0": 0, "a1": 1}, "2": {"b0": 1, "b1": 0}}
    with pytest.raises(SquaresDoNotCommute):
        fiber_subsystem(e_sys, s_sys, level_maps, Thread.of({"1": 0, "2": 0}))


def test_fiber_subsystem_requires_injective_target_bonds():
    p = chain_poset(2)
    e_sys = validate_system(p, {"1": ("a",), "2": ("b",)},
                            {("1", "2"): {"b": "a"}})
    s_sys = validate_system(p, {"1": (0,), "2": (0, 1)},
                            {("1", "2"): {0: 0, 1: 0}})
    level_maps = {"1": {"a": 0}, "2": {"b": 0}}
    with pytest.raises(SigmaNotInjective):
        fiber_subsystem(e_sys, s_sys, level_maps, Thread.of({"1": 0, "2": 0}))


def test_fiber_subsystem_empty_fiber():
    p = chain_poset(2)
    e_sys = validate_system(p, {"1": ("a",), "2": ("b",)},
                            {("1", "2"): {"b": "a"}})
    s_sys = validate_system(p, {"1": (0, 1), "2": (0, 1)},
                            {("1", "2"): {0: 0, 1: 1}})
    level_maps = {"1": {"a": 0}, "2": {"b": 0}}
    with pytest.raises(EmptyFiber):
        fiber_subsystem(e_sys, s_sys, level_maps, Thread.of({"1": 1, "2": 1}))


def disjoint_wedge():
    """The wedge c < a, c < b, where each element at c is the image of one top."""
    return validate_system(wedge_poset(), {"a": ("a0",), "b": ("b0",), "c": ("c0", "c1")},
                           {("c", "a"): {"a0": "c0"}, ("c", "b"): {"b0": "c1"}})


def test_universal_images_non_directed_reaches_fixed_point():
    # c's two elements are each the image of only one top, so the
    # intersection at c is empty, and then nothing on top can map into it;
    # no thread exists
    s = disjoint_wedge()
    r = universal_images(s)
    assert all(r.carriers[e] == () for e in "abc")
    assert is_surjective(r) == (True, None)
    assert brute_force_threads(s) == []
    for (lo, hi), bmap in r.cover_bonds.items():
        assert set(bmap) == set(r.carriers[hi])
        assert set(bmap.values()) <= set(r.carriers[lo])


def test_universal_images_keeps_every_thread_on_forests():
    # forest bases are rarely directed; the restricted system must still be
    # a system (bonds into the restricted carriers) with the same threads
    rng = random.Random(23)
    for _ in range(60):
        p = random_forest_poset(rng, max_elements=5)
        s = random_set_system(rng, p, max_carrier=4)
        r = universal_images(s)
        for (lo, hi), bmap in r.cover_bonds.items():
            assert set(bmap.values()) <= set(r.carriers[lo])
        want = sorted(t.assignment for t in brute_force_threads(s))
        assert sorted(t.assignment for t in brute_force_threads(r)) == want


def two_tops_over_a_merge():
    """The forest i < c < j < a, j < b, c < d.  Tops a and b leave only 1 at
    j; the bond j -> c merges 0 and 2, so c keeps 0 and 1 and the image of
    j misses just 0 there, and so, through the identity c -> i, at i."""
    base = validate_poset(["i", "c", "j", "a", "b", "d"],
                          [("i", "c"), ("c", "j"), ("j", "a"), ("j", "b"), ("c", "d")])
    three = (0, 1, 2)
    return validate_system(base, {"i": three, "c": three, "j": three, "a": ("p", "q"),
                                  "b": ("r", "s"), "d": ("t", "u")},
                           {("i", "c"): {0: 0, 1: 1, 2: 2}, ("c", "j"): {0: 0, 1: 1, 2: 0},
                            ("j", "a"): {"p": 0, "q": 1}, ("j", "b"): {"r": 1, "s": 2},
                            ("c", "d"): {"t": 0, "u": 1}})


def test_universal_images_below_an_image_that_misses_one_element():
    # the restricted bond i -> c is onto and c -> j is not: the first
    # cover that fails is the witness, and the oracle agrees on it
    s = two_tops_over_a_merge()
    r = universal_images(s)
    assert (r.carriers["j"], r.carriers["c"], r.carriers["i"]) == ((1,), (0, 1), (0, 1))
    assert is_surjective(r) == (False, ("c", "j"))
    want = naive_universal_images(s)[1]
    assert want[("i", "c")] and want[("c", "j")] is False


def test_universal_images_match_the_composition_oracle():
    rng = random.Random(26)
    systems = [disjoint_wedge(), two_tops_over_a_merge(), *_random_set_systems(rng)]
    systems += [random_tower(rng, horizon=rng.randint(7, 20), max_carrier=6) for _ in range(20)]
    # restricted bonds that are not onto need a base without a maximum
    systems += [subseed_system(rng, random_poset(rng, max_elements=8), points=6)
                for _ in range(100)]
    shrunk = not_onto = 0
    for s in systems:
        r = universal_images(s)
        carriers, want = naive_universal_images(s)
        assert r.carriers == carriers
        ok, cover = is_surjective(r)
        assert ok == all(want.values())
        assert ok or want[cover] is False
        assert r.cover_bonds == {(lo, hi): {x: bmap[x] for x in carriers[hi]}
                                 for (lo, hi), bmap in s.cover_bonds.items()}
        shrunk += carriers != s.carriers
        not_onto += not ok
    assert shrunk > 100 and not_onto > 5


def test_surjective_generator_makes_nontrivial_instances():
    # the instances of acceptance criterion 2: same seed, same calls
    rng = random.Random(102)
    nontrivial = 0
    for _ in range(200):
        p = random_poset(rng, max_elements=5, ensure_maximum=True)
        s = random_surjective_set_system(rng, p)
        if (max(len(c) for c in s.carriers.values()) >= 2
                and len(brute_force_threads(s)) > 1):
            nontrivial += 1
    assert nontrivial > 0
