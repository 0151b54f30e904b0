from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from invsys import bergman
from invsys.bergman import (CosetElement, FreeAbElement, bergman_demo,
                            coset_equal, d_map, f, g, gset_bond,
                            h_subgroup_member, random_h_combination,
                            translate, triangle_relator)
from invsys.errors import LevelMismatch, SupportExceedsBound

from conftest import h_relators, lattice_h_subgroup_member


def test_free_elements_are_an_abelian_group():
    a = FreeAbElement.of({g(1, 2): 2, g(2, 3): -1})
    b = FreeAbElement.gen(g(1, 2))
    assert a.add(b).as_dict() == {g(1, 2): 3, g(2, 3): -1}
    assert a.sub(a).is_zero()
    assert a.scale(0).is_zero()
    assert a.scale(-2).as_dict() == {g(1, 2): -4, g(2, 3): 2}
    assert a.coefficient_sum() == 1


def test_triangle_relator_membership():
    r = triangle_relator(1, 2, 3)
    assert h_subgroup_member(r, 1, 4)
    # a relator using index 1 is not in the level-2 subgroup
    assert not h_subgroup_member(r, 2, 4)
    assert h_subgroup_member(triangle_relator(2, 3, 4), 2, 4)
    # a bare generator is never a relator combination
    assert not h_subgroup_member(FreeAbElement.gen(g(1, 2)), 1, 4)


def test_membership_rejects_out_of_range_support():
    with pytest.raises(SupportExceedsBound):
        h_subgroup_member(FreeAbElement.gen(g(1, 9)), 1, 4)


def _seeded_element(rng: random.Random, alpha: int, n: int) -> FreeAbElement:
    """A combination of relators of level alpha, or of a random level that
    has some, then often a stray term: a pair generator, a g(i, i), an f
    generator, or one outside the truncation."""
    rels = h_relators(max(alpha, 1), n)
    if not rels or rng.random() < 0.5:
        rels = h_relators(rng.randint(1, max(n - 2, 1)), n)
    out = FreeAbElement.zero()
    for _ in range(rng.randint(1, 4) if rels else 0):
        out = out.add(rng.choice(rels).scale(rng.choice([-3, -2, -1, 1, 2, 3])))
    i = rng.randint(1, n)
    stray = rng.choice([None, None, None, g(i, rng.randint(i, n)), g(i, i), f(i),
                        g(i, n + 1)])
    if stray is not None:
        out = out.add(FreeAbElement.gen(stray).scale(rng.choice([-2, -1, 1, 2])))
    return out


def test_membership_agrees_with_the_relator_lattice():
    rng = random.Random(44)
    answers = []
    for _ in range(4000):
        n = rng.randint(1, 7)
        alpha = rng.randint(0, n + 1)  # alpha > n - 2 has no relators
        e = _seeded_element(rng, alpha, n)
        try:
            expected = lattice_h_subgroup_member(e, alpha, n)
        except SupportExceedsBound:
            with pytest.raises(SupportExceedsBound):
                h_subgroup_member(e, alpha, n)
            continue
        assert h_subgroup_member(e, alpha, n) == expected, (e, alpha, n)
        answers.append((expected, e.is_zero()))
    assert len(answers) > 3000
    assert sum(member and not zero for member, zero in answers) > 0.15 * len(answers)


def test_cli_bergman_demo_at_n_28_is_quick():
    # 3,276 relators: echelon form of a lattice over all of them takes minutes
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "invsys.cli", "--json", "bergman",
                           "demo", "--n", "28"], env=env, capture_output=True,
                          text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    verdicts = json.loads(proc.stdout)["verdicts"]
    assert len(verdicts) == 12 and all(verdicts.values())


def test_d_map_kills_relators():
    rng = random.Random(40)
    for _ in range(200):
        n = rng.randint(3, 6)
        alpha = rng.randint(1, n - 2)
        e = random_h_combination(rng, alpha, n)
        assert d_map(e).is_zero()


def test_d_map_outputs_sum_to_zero():
    rng = random.Random(41)
    for _ in range(100):
        coeffs = {g(rng.randint(1, 4), rng.randint(5, 8)): rng.randint(-5, 5)
                  for _ in range(rng.randint(1, 4))}
        out = d_map(FreeAbElement.of(coeffs))
        assert out.coefficient_sum() == 0
    assert d_map(FreeAbElement.gen(g(2, 5))).as_dict() == {f(2): 1, f(5): -1}


def test_gset_bond_functorial_up_to_cosets():
    n = 5
    rng = random.Random(42)
    for _ in range(30):
        c = translate(CosetElement.basepoint(4), random_h_combination(rng, 2, n))
        via = gset_bond(1, 2, gset_bond(2, 4, c))
        direct = gset_bond(1, 4, c)
        assert coset_equal(via, direct, n)


def test_gset_bond_surjective_with_explicit_preimage():
    # any level-1 point is hit from level 3 by untranslating g(1,3)
    n = 5
    target = translate(CosetElement.basepoint(1),
                       FreeAbElement.of({g(1, 2): 2, g(2, 4): 1}))
    pre = CosetElement(3, target.rep.sub(FreeAbElement.gen(g(1, 3))))
    assert coset_equal(gset_bond(1, 3, pre), target, n)


def test_coset_equal_needs_matching_levels():
    with pytest.raises(LevelMismatch):
        coset_equal(CosetElement.basepoint(1), CosetElement.basepoint(2), 4)
    with pytest.raises(LevelMismatch):
        gset_bond(1, 2, CosetElement.basepoint(3))


def test_translation_by_subgroup_fixes_cosets():
    rng = random.Random(43)
    n = 5
    c = CosetElement.basepoint(2)
    for _ in range(20):
        moved = translate(c, random_h_combination(rng, 2, n))
        assert coset_equal(moved, c, n)
    # translation by a non-relator moves the coset
    moved = translate(c, FreeAbElement.gen(g(2, 3)))
    assert not coset_equal(moved, c, n)


def test_relator_counts():
    assert len(h_relators(1, 3)) == 1
    assert len(h_relators(1, 4)) == 4
    assert len(h_relators(2, 4)) == 1
    assert h_relators(3, 4) == []


def test_demo_draws_relators_without_listing_them(monkeypatch):
    # the (n choose 3) = 220 relators of n = 12 are never listed: the demo
    # builds one relator, and a random combination draws each of its three
    # from three sampled indices
    built = []

    def counting(i, j, k, _relator=bergman.triangle_relator):
        built.append((i, j, k))
        return _relator(i, j, k)

    monkeypatch.setattr(bergman, "triangle_relator", counting)
    checks = bergman_demo(12)
    assert checks and all(ok for _, ok in checks)
    assert len(built) == 4


def test_demo_collapses_each_family_member_once(monkeypatch):
    # one d_map per family member and two per pair (the membership test and
    # the collapse of the probe), not three more per pair
    calls = []

    def counting(e, _d_map=bergman.d_map):
        calls.append(e)
        return _d_map(e)

    monkeypatch.setattr(bergman, "d_map", counting)
    n = 20
    checks = bergman_demo(n)
    assert checks and all(ok for _, ok in checks)
    assert len(calls) <= n * (n - 1) + 2 * n + 10


def test_demo_checks_all_pass():
    for n in (4, 5, 6):
        checks = bergman_demo(n, seed=0)
        assert checks
        for desc, ok in checks:
            assert ok, desc
