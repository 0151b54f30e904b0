from __future__ import annotations

import itertools
import random

import pytest

from invsys.errors import (NoStrictUpper, NotComparable, NotMember,
                           OddLength)
from invsys.henkin import (cofinal_extract, enumerate_members,
                           family_from_top, henkin_eps, henkin_lift,
                           henkin_member, henkin_system)
from invsys.poset import chain_poset, grid_poset, wedge_poset
from invsys.setsys import is_surjective, limit_threads

from conftest import brute_force_flags, even_tuple_members, random_poset

SMALL_POSETS = [chain_poset(3), chain_poset(5), grid_poset(2, 2),
                wedge_poset()]


def test_membership_examples():
    p = chain_poset(4)
    assert henkin_member(("2", "3"), "2", p)
    assert henkin_member(("2", "2"), "2", p)
    assert henkin_member(("1", "1", "2", "2"), "2", p)
    # second odd entry sits below the first odd entry
    assert not henkin_member(("2", "3", "1", "4"), "1", p)
    # odd entry above its even partner
    assert not henkin_member(("3", "2"), "3", p)
    # ending coordinate must be the level itself
    assert not henkin_member(("2", "3"), "3", p)


def test_membership_rejects_odd_length():
    p = chain_poset(3)
    with pytest.raises(OddLength):
        henkin_member(("1",), "1", p)
    with pytest.raises(OddLength):
        henkin_member((), "1", p)


def test_eps_examples():
    p = chain_poset(4)
    assert henkin_eps(p, "1", "2", ("2", "3")) == ("1", "3")
    assert henkin_eps(p, "2", "2", ("2", "3")) == ("2", "3")
    # rewrite happens at the earliest pair whose odd entry dominates
    assert henkin_eps(p, "2", "3", ("2", "4", "3", "3")) == ("2", "4")
    assert henkin_eps(p, "1", "3", ("2", "4", "3", "3")) == ("1", "4")
    with pytest.raises(NotComparable):
        henkin_eps(wedge_poset(), "a", "b", ("b", "b"))
    with pytest.raises(NotMember):
        henkin_eps(p, "1", "3", ("2", "3"))


def test_levels_are_disjoint():
    # a tuple belongs to exactly one level: the one it ends with
    for p in SMALL_POSETS:
        for level in p.elements:
            for t in enumerate_members(p, level, maxlen=4):
                assert sum(henkin_member(t, e, p) for e in p.elements) == 1


def test_enumerate_members_matches_the_product_oracle():
    # whole lists, order included, at every level and every maxlen up to 7,
    # odd ones too: nothing missing, nothing extra
    rng = random.Random(27)
    posets = [chain_poset(n) for n in (1, 2, 4)] + [grid_poset(2, 2), grid_poset(2, 3),
                                                    wedge_poset()]
    posets += [random_poset(rng, max_elements=5) for _ in range(12)]
    longest = 0
    for p in posets:
        want = even_tuple_members(p.elements, p.covers, maxlen=7)
        for level in p.elements:
            for maxlen in range(8):
                got = enumerate_members(p, level, maxlen)
                assert got == [t for t in want[level] if len(t) <= maxlen], (p, level, maxlen)
            longest = max([longest] + [len(t) for t in want[level]])
    assert longest == 6


def test_eps_functoriality_exhaustive():
    for p in SMALL_POSETS:
        for a, b, c in itertools.product(p.elements, repeat=3):
            if not (p.leq(a, b) and p.leq(b, c)):
                continue
            for t in enumerate_members(p, c, maxlen=6):
                via = henkin_eps(p, a, b, henkin_eps(p, b, c, t))
                assert via == henkin_eps(p, a, c, t)


def test_lift_identity():
    for p in SMALL_POSETS:
        for a in p.elements:
            for b in p.elements:
                if not p.leq(a, b):
                    continue
                for x in enumerate_members(p, a, maxlen=4):
                    try:
                        y = henkin_lift(p, x, a, b)
                    except NoStrictUpper:
                        assert b == a or not p.strict_uppers(b)
                        continue
                    assert henkin_eps(p, a, b, y) == x


def test_lift_at_top_reports_truncation():
    p = chain_poset(3)
    with pytest.raises(NoStrictUpper):
        henkin_lift(p, ("1", "1"), "1", "3")


def test_lift_with_explicit_witness():
    p = chain_poset(4)
    y = henkin_lift(p, ("2", "2"), "2", "3", gamma="4")
    assert y == ("2", "2", "3", "4")


def test_truncated_system_validates():
    for p in SMALL_POSETS:
        s = henkin_system(p, maxlen=4)
        ok, _ = is_surjective(s)
        if len(brute_force_flags(p)) >= 3:
            # lifting twice needs 6-tuples, which the truncation cut off
            assert not ok
        for t in limit_threads(s):  # threads, when any, really are threads
            m = t.as_dict()
            for lo, hi in p.covers:
                assert henkin_eps(p, lo, hi, m[hi]) == m[lo]


def test_family_from_top_and_extraction():
    p = chain_poset(4)
    fam = family_from_top(p, ("4", "4"))
    assert fam["1"] == ("1", "4")
    ends = cofinal_extract(p, fam)
    assert ends == {"4"}


def test_equal_length_forces_equal_end_not_equal_level():
    # pushing ("3", "3") down the three-chain gives ("1", "3") and
    # ("2", "3"): equal length, distinct levels, same ending coordinate.
    # Only the ending-coordinate half of the comparison survives
    # truncation, and that is what cofinal_extract certifies.
    p = chain_poset(3)
    fam = family_from_top(p, ("3", "3"))
    assert fam["1"] == ("1", "3")
    assert fam["2"] == ("2", "3")
    assert len(fam["1"]) == len(fam["2"])
    assert fam["1"][-1] == fam["2"][-1]
    assert cofinal_extract(p, fam) == {"3"}


def test_extraction_rejects_incompatible_family():
    from invsys.errors import NotCompatible
    p = chain_poset(3)
    fam = family_from_top(p, ("3", "3"))
    fam["1"] = ("1", "1")  # member, but not the projection of the others
    with pytest.raises(NotCompatible):
        cofinal_extract(p, fam)
