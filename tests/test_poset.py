from __future__ import annotations

import random
import sys
import time

import pytest

from invsys import poset as poset_module
from invsys.errors import BudgetExceeded, CycleDetected, UnknownElement
from invsys.poset import chain_poset, grid_poset, validate_poset, wedge_poset

from conftest import (brute_force_flags, cone_deletion_core, floyd_warshall_leq,
                      is_directed, naive_linear_extension, random_poset, sphere_model,
                      upper_bounds)


def test_validate_rejects_cycles():
    with pytest.raises(CycleDetected):
        validate_poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleDetected):
        validate_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_validate_rejects_a_cover_of_a_label_by_itself():
    # a one-element cycle: no second element lies on it to be named
    with pytest.raises(CycleDetected, match="^cover a < a relates a to itself$"):
        validate_poset(["a", "b"], [("b", "a"), ("a", "a")])


@pytest.mark.parametrize("elements, covers, named", [
    ("x y z w", "x y, y z, z w, w x", "x and y"),
    ("p w z y x", "p w, x y, y z, z x", "z and y"),  # p lies on no cycle
    ("a b c d", "a b, b a, c d, d c", "a and b"),
], ids=["one-cycle", "after-an-acyclic-element", "two-cycles"])
def test_cycle_error_names_the_first_declared_elements(elements, covers, named):
    # the first declared element on a cycle, and the first declared element
    # on a cycle with it, not whichever its up-set yields first
    pairs = [tuple(c.split()) for c in covers.split(", ")]
    with pytest.raises(CycleDetected, match=f"^{named} lie on a cycle$"):
        validate_poset(elements.split(), pairs)


def test_validate_rejects_unknown_labels():
    with pytest.raises(UnknownElement):
        validate_poset(["a"], [("a", "z")])


def test_leq_matches_reachability_oracle():
    rng = random.Random(0)
    for _ in range(50):
        p = random_poset(rng, max_elements=6)
        reach = floyd_warshall_leq(p.elements, p.covers)
        for a in p.elements:
            for b in p.elements:
                assert p.leq(a, b) == reach[(a, b)]
                assert p.lt(a, b) == (a != b and reach[(a, b)])


def test_maximal_common_lower_bounds_match_the_reachability_oracle():
    # random posets may list a comparable pair as a cover, (p0, p2) beside
    # (p0, p1) and (p1, p2); the walk must still stop at a when a <= b
    rng = random.Random(6)
    for _ in range(80):
        p = random_poset(rng, max_elements=7)
        reach = floyd_warshall_leq(p.elements, p.covers)
        for a in p.elements:
            for bs in [set()] + [{b} for b in p.elements] + [
                    set(rng.sample(p.elements, min(3, len(p.elements))))]:
                common = [x for x in p.elements
                          if reach[(x, a)] and any(reach[(x, b)] for b in bs)]
                want = {x for x in common
                        if not any(y != x and reach[(x, y)] for y in common)}
                got = p.maximal_common_lower_bounds(a, bs)
                assert len(got) == len(set(got)) and set(got) == want, (p, a, bs)
    p = validate_poset(["x", "y", "z"], [("x", "z"), ("x", "y"), ("y", "z")])
    assert p.maximal_common_lower_bounds("x", {"y"}) == ["x"]
    assert p.maximal_common_lower_bounds("y", {"x"}) == ["x"]


def test_directed_iff_maximum():
    # on a finite poset both sides reduce to the same element, so the
    # predicates must agree on every instance
    rng = random.Random(1)
    for _ in range(80):
        p = random_poset(rng, max_elements=6)
        assert is_directed(p) == (p.has_maximum() is not None)
        top = p.has_maximum()
        if top is not None:
            assert p.maximal_elements() == [top]
            for e in p.elements:
                assert p.leq(e, top)


def test_upper_bounds_and_strict_uppers():
    p = wedge_poset()
    assert set(upper_bounds(p, "c", "c")) == {"a", "b", "c"}
    assert upper_bounds(p, "a", "b") == []
    assert p.up_set("c") - {"c"} == {"a", "b"}
    assert p.up_set("a") - {"a"} == set()


def test_chain_poset_shape():
    p = chain_poset(4)
    assert p.elements == ("1", "2", "3", "4")
    assert p.has_maximum() == "4"
    assert p.core == ("4",) and p.core_flags == [[("4",)]]  # a chain is a cone on its top
    assert p.leq("1", "4") and not p.leq("4", "1")


def test_grid_poset_shape():
    p = grid_poset(2, 3)
    assert len(p.elements) == 6
    assert p.has_maximum() == "(2_3)"
    assert p.leq("(1_1)", "(2_3)")
    assert not p.leq("(1_3)", "(2_1)")
    assert p.core == ("(2_3)",) and p.core_flags == [[("(2_3)",)]]


def test_wedge_poset_not_directed():
    p = wedge_poset()
    assert not is_directed(p)
    assert p.has_maximum() is None
    assert set(p.maximal_elements()) == {"a", "b"}


def test_linear_extension_is_consistent():
    rng = random.Random(2)
    for _ in range(30):
        p = random_poset(rng, max_elements=6)
        order = p.linear_extension()
        assert sorted(order) == sorted(p.elements)
        pos = {e: i for i, e in enumerate(order)}
        for a in p.elements:
            for b in p.elements:
                if p.lt(a, b):
                    assert pos[a] < pos[b]


def test_linear_extension_matches_the_rescan_oracle():
    # elements declared in random order, so the declared order is seldom
    # itself a linear extension and the choice among ready elements matters
    rng = random.Random(4)
    reordered = 0
    for _ in range(120):
        q = random_poset(rng, max_elements=9)
        p = validate_poset(rng.sample(q.elements, len(q.elements)), q.covers)
        order = p.linear_extension()
        assert order == naive_linear_extension(p.elements, p.covers)
        reordered += order != list(p.elements)
    assert reordered > 40


def test_chains_enumeration():
    # strictly increasing flags of the core, grouped by their number of
    # elements: the circle model keeps every element, and x, below a1
    # alone, is deleted with its flags
    p = validate_poset(["x", "a0", "b0", "a1", "b1"],
                       [("x", "a1"), ("a0", "a1"), ("a0", "b1"), ("b0", "a1"), ("b0", "b1")])
    assert p.core == ("a0", "b0", "a1", "b1")
    assert p.core_flags == [[("a0",), ("b0",), ("a1",), ("b1",)],
                            [("a0", "a1"), ("a0", "b1"), ("b0", "a1"), ("b0", "b1")]]


def test_flags_match_the_subset_oracle():
    # the lists and their order, on posets declared out of linear-extension
    # order, so the walk's order is declared order and not the extension's
    rng = random.Random(21)
    posets = [validate_poset([], []), validate_poset(["c", "a", "b"], [])]
    posets += [chain_poset(k) for k in (1, 2, 5)] + [sphere_model(n) for n in range(5)]
    shuffled = 0
    for _ in range(150):
        q = random_poset(rng, max_elements=8)
        p = validate_poset(rng.sample(q.elements, len(q.elements)), q.covers)
        shuffled += p.linear_extension() != list(p.elements)
        posets.append(p)
    assert shuffled > 50
    shrank = 0
    for p in posets:
        oracle = brute_force_flags(p, p.core)
        assert p.core_flags == oracle, p
        longest = max((len(fl) for size in oracle for fl in size), default=0)
        assert len(p.core_flags) == max(longest, 1)  # one list, empty, for the empty poset
        shrank += len(p.core) < len(p.elements)
    assert shrank > 50
    assert validate_poset([], []).core_flags == [[]]
    assert [len(size) for size in sphere_model(3).core_flags] == [8, 24, 32, 16]


def test_flags_walk_does_not_recurse_per_element():
    # the 100-sphere model is far over the flag budget, and its longest
    # flags have 101 elements; counting them by least element, or listing
    # them, with one nested call per element would pass a recursion limit
    # 50 frames above here
    p = sphere_model(100)
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        with pytest.raises(BudgetExceeded, match="^nerve flag count exceeds budget$"):
            p.core_flags
    finally:
        sys.setrecursionlimit(limit)



def test_flag_budget_is_the_flag_count(monkeypatch):
    # at a budget equal to the number of flags they are listed, one below it
    # they are refused: a least-element count off by one either way fails
    rng = random.Random(26)
    posets = [sphere_model(3)]
    for _ in range(60):
        q = random_poset(rng, max_elements=8)
        posets.append(validate_poset(rng.sample(q.elements, len(q.elements)), q.covers))
    for p in posets:
        oracle = brute_force_flags(p, p.core)
        count = sum(map(len, oracle))
        monkeypatch.setattr(poset_module, "DEFAULT_FLAG_BUDGET", count)
        assert validate_poset(p.elements, p.covers).core_flags == oracle
        monkeypatch.setattr(poset_module, "DEFAULT_FLAG_BUDGET", count - 1)
        with pytest.raises(BudgetExceeded, match="^nerve flag count exceeds budget$"):
            validate_poset(p.elements, p.covers).core_flags
    assert sum(map(len, brute_force_flags(posets[0]))) == 80


def test_core_matches_the_cone_deletion_oracle():
    # the same elements in the same order as scanning each up-set for a
    # maximum or a minimum, on posets declared out of linear-extension order
    rng = random.Random(24)
    shrank = 0
    trials = 1200
    for i in range(trials):
        q = random_poset(rng, max_elements=9, ensure_maximum=i % 5 == 0)
        p = validate_poset(rng.sample(q.elements, len(q.elements)), q.covers)
        assert p.core == cone_deletion_core(p), p
        shrank += len(p.core) < len(p.elements)
    assert trials // 4 < shrank < trials - trials // 10


def test_core_of_a_large_sphere_model_is_quick():
    # the 400-sphere model has 802 elements and no cone point; a scan of each
    # up-set for its maximum or minimum is cubic in the elements and takes
    # about 17 s (Python 3.11, 2 CPUs)
    p = sphere_model(400)
    start = time.perf_counter()
    assert p.core == p.elements
    assert time.perf_counter() - start < 3.0
