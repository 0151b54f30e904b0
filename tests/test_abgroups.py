from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsys.abgroups import (AbHom, FgAbGroup, group_invariants, hom_cokernel,
                             hom_compose, hom_equal, hom_image, hom_is_valid,
                             hom_kernel, invariants_embed, is_exact_at,
                             is_injective, is_surjective_hom, is_trivial_group,
                             subquotient)
from invsys.intlinalg import IntMatrix

from conftest import (apply_hom_canon, finite_elements, group_order,
                      invariants_embed_by_prime_powers, kernel_subquotient,
                      minors_gcd_invariants, random_int_matrix)


def test_invariants_of_standard_groups():
    assert group_invariants(FgAbGroup.trivial()) == (0, [])
    assert group_invariants(FgAbGroup.free(3)) == (3, [])
    assert group_invariants(FgAbGroup.cyclic(12)) == (0, [12])
    assert group_invariants(FgAbGroup.cyclic(1)) == (0, [])
    # Z/2 x Z/4 presented with tangled relators
    g = FgAbGroup(2, IntMatrix.from_rows([[2, 4], [0, 4]]))
    assert group_invariants(g) == (0, [2, 4])


def test_group_order():
    assert group_order(FgAbGroup.trivial()) == 1
    assert group_order(FgAbGroup.cyclic(6)) == 6
    assert group_order(FgAbGroup.free(1)) is None


def test_invariants_survive_presentation_change():
    # left-multiplying the relation matrix by a unimodular matrix and
    # adding redundant relators changes the presentation, not the group
    rng = random.Random(10)
    for _ in range(30):
        ngens = rng.randint(1, 3)
        nrel = rng.randint(1, 3)
        rel = random_int_matrix(rng, nrel, ngens, -6, 6)
        g = FgAbGroup(ngens, rel)
        doubled = FgAbGroup(ngens, rel.vstack(rel))
        assert group_invariants(doubled) == group_invariants(g)
        shuffled = FgAbGroup(ngens, IntMatrix.from_rows(
            [rel.entries[i] for i in rng.sample(range(nrel), nrel)], cols=ngens))
        assert group_invariants(shuffled) == group_invariants(g)


def test_hom_validity():
    z = FgAbGroup.free(1)
    z2 = FgAbGroup.cyclic(2)
    proj = AbHom(z, z2, IntMatrix.from_rows([[1]]))
    assert hom_is_valid(proj)
    # x -> x is not well defined Z/2 -> Z since 2x must map to 0
    bad = AbHom(z2, z, IntMatrix.from_rows([[1]]))
    assert not hom_is_valid(bad)
    ok = AbHom(z2, z, IntMatrix.from_rows([[0]]))
    assert hom_is_valid(ok)


def test_kernel_image_cokernel_mult_by_n():
    z = FgAbGroup.free(1)
    times6 = AbHom(z, z, IntMatrix.from_rows([[6]]))
    assert group_invariants(hom_kernel(times6)) == (0, [])
    assert group_invariants(hom_image(times6)) == (1, [])
    assert group_invariants(hom_cokernel(times6)) == (0, [6])
    assert is_injective(times6)
    assert not is_surjective_hom(times6)


def test_kernel_of_projection_to_quotient():
    z = FgAbGroup.free(1)
    z4 = FgAbGroup.cyclic(4)
    proj = AbHom(z, z4, IntMatrix.from_rows([[1]]))
    assert group_invariants(hom_kernel(proj)) == (1, [])
    assert is_surjective_hom(proj)
    assert group_invariants(hom_cokernel(proj)) == (0, [])


# a hom between two presented groups, valid by construction: the images of
# the source relators are among the target relators
homs = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda dims: st.tuples(
        st.lists(st.lists(st.integers(-6, 6), min_size=dims[0], max_size=dims[0]), max_size=3),
        st.lists(st.lists(st.integers(-6, 6), min_size=dims[1], max_size=dims[1]), max_size=3),
        st.lists(st.lists(st.integers(-3, 3), min_size=dims[0], max_size=dims[0]),
                 min_size=dims[1], max_size=dims[1]),
        st.just(dims)))


@settings(max_examples=150, deadline=None)
@given(homs)
def test_is_injective_agrees_with_the_kernel_group(case):
    src_rels, tgt_rels, rows, (s, t) = case
    m = IntMatrix.from_rows(rows, cols=s)
    source = FgAbGroup(s, IntMatrix.from_rows(src_rels, cols=s))
    images = [list(m.apply(r)) for r in src_rels]
    target = FgAbGroup(t, IntMatrix.from_rows(tgt_rels + images, cols=t))
    h = AbHom(source, target, m)
    assert hom_is_valid(h)
    assert is_injective(h) == is_trivial_group(hom_kernel(h))


def test_is_injective_on_torsion():
    z, z2, z4 = FgAbGroup.free(1), FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
    assert is_injective(AbHom(z2, z4, IntMatrix.from_rows([[2]])))
    assert not is_injective(AbHom(z4, z2, IntMatrix.from_rows([[1]])))
    assert not is_injective(AbHom(z, z2, IntMatrix.from_rows([[1]])))
    assert is_injective(AbHom(z, z, IntMatrix.from_rows([[-3]])))


def test_hom_equal_mod_target_relations():
    z = FgAbGroup.free(1)
    z3 = FgAbGroup.cyclic(3)
    f = AbHom(z, z3, IntMatrix.from_rows([[1]]))
    g = AbHom(z, z3, IntMatrix.from_rows([[4]]))
    h = AbHom(z, z3, IntMatrix.from_rows([[2]]))
    assert hom_equal(f, g)
    assert not hom_equal(f, h)


def test_compose():
    z = FgAbGroup.free(1)
    t2 = AbHom(z, z, IntMatrix.from_rows([[2]]))
    t3 = AbHom(z, z, IntMatrix.from_rows([[3]]))
    assert hom_compose(t2, t3).matrix.entries == ((6,),)


def test_exactness_short_sequence():
    # 0 -> Z --2--> Z --proj--> Z/2 -> 0
    z = FgAbGroup.free(1)
    z2 = FgAbGroup.cyclic(2)
    f = AbHom(z, z, IntMatrix.from_rows([[2]]))
    g = AbHom(z, z2, IntMatrix.from_rows([[1]]))
    assert hom_equal(hom_compose(g, f), AbHom.zero(f.source, g.target))
    assert is_exact_at(f, g)
    # replacing 2 by 4 breaks exactness at the middle
    f4 = AbHom(z, z, IntMatrix.from_rows([[4]]))
    assert hom_equal(hom_compose(g, f4), AbHom.zero(f4.source, g.target))
    assert not is_exact_at(f4, g)


def _elementwise_exact(f: AbHom, g: AbHom) -> bool:
    """Brute-force ker g == im f inside a finite middle group."""
    mid = finite_elements(f.target)
    src = finite_elements(f.source)
    image = {apply_hom_canon(f, x) for x in src.elements()}
    kernel = {x for x in mid.elements()
              if not any(apply_hom_canon(g, x))}
    return image == kernel


def test_exactness_matches_elementwise_oracle():
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        na, nb = rng.randint(1, 2), rng.randint(1, 2)
        a = FgAbGroup(na, IntMatrix.from_rows(
            [[rng.choice([2, 3, 4]) * (i == j) for j in range(na)]
             for i in range(na)]))
        b = FgAbGroup(nb, IntMatrix.from_rows(
            [[rng.choice([2, 3, 4]) * (i == j) for j in range(nb)]
             for i in range(nb)]))
        f = AbHom(a, b, random_int_matrix(rng, nb, na, -3, 3))
        g = AbHom(b, b, random_int_matrix(rng, nb, nb, -3, 3))
        if not (hom_is_valid(f) and hom_is_valid(g)):
            continue
        if not hom_equal(hom_compose(g, f), AbHom.zero(f.source, g.target)):
            continue
        assert is_exact_at(f, g) == _elementwise_exact(f, g)
        checked += 1


def test_subquotient_example():
    # (2Z)/(6Z) inside Z is cyclic of order 3
    gens = IntMatrix.from_rows([[2]]).transpose()
    sub = IntMatrix.from_rows([[6]]).transpose()
    assert group_invariants(subquotient(gens, sub)) == (0, [3])


def test_subquotient_matches_the_kernel_presentation():
    # sub = gens M lies in span(gens).  gens repeats a column, or has a sum
    # of two of its columns as another, or neither; sub may have no columns,
    # and M with a determinant other than +-1 leaves torsion.  The quotient
    # is presented on a basis of span(gens), so on rank(gens) generators.
    rng = random.Random(41)
    pairs = [(IntMatrix.zeros(0, 3), IntMatrix.zeros(0, 2)),
             (IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0))]
    for i in range(150):
        rows, cols = rng.randint(1, 4), rng.randint(1, 3)
        g = [[rng.randint(-5, 5) for _ in range(rows)] for _ in range(cols)]
        if i % 3 == 0:
            g.append(list(g[rng.randrange(cols)]))
        elif i % 3 == 1:
            g.append([x + y for x, y in zip(g[0], g[-1])])
        gens = IntMatrix.from_cols(g, rows=rows)
        pairs.append((gens, gens.mul(random_int_matrix(rng, gens.cols, rng.randint(0, 3),
                                                        -3, 3))))
    torsion = deficient = 0
    for gens, sub in pairs:
        q = subquotient(gens, sub)
        assert q.ngens == len(minors_gcd_invariants(gens))
        assert q.relations.rows == sub.cols
        factors = minors_gcd_invariants(q.relations)
        by_minors = q.ngens - len(factors), [f for f in factors if f != 1]
        inv = group_invariants(q)
        assert inv == by_minors == group_invariants(kernel_subquotient(gens, sub))
        torsion += bool(inv[1])
        deficient += q.ngens < gens.cols
    assert torsion > 30 and deficient > 50


def test_subquotient_rejects_a_sub_outside_the_span():
    with pytest.raises(ValueError, match="not contained"):
        subquotient(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[1]]))
    # span of (1, 0) and (1, 0) misses (0, 1)
    with pytest.raises(ValueError, match="not contained"):
        subquotient(IntMatrix.from_rows([[1, 1], [0, 0]]), IntMatrix.from_rows([[0], [1]]))
    with pytest.raises(ValueError, match="not contained"):
        subquotient(IntMatrix.zeros(1, 0), IntMatrix.from_rows([[3]]))


def test_invariants_embed():
    assert invariants_embed((0, [2]), (0, [4]))
    assert invariants_embed((0, [2, 2]), (0, [2, 4]))
    assert not invariants_embed((0, [2, 2]), (0, [8]))
    assert not invariants_embed((1, []), (0, [100]))
    assert invariants_embed((1, [3]), (2, [3, 3]))
    assert not invariants_embed((0, [9]), (0, [3, 3]))
    # against the prime-power count, on divisibility chains of every shape
    rng = random.Random(12)

    def invariants():
        factors, d = [], rng.choice([2, 3, 4, 6, 9, 12])
        for _ in range(rng.randint(0, 4)):
            factors.append(d)
            d *= rng.choice([1, 1, 2, 3, 4, 5])
        return rng.randint(0, 2), factors

    verdicts = []
    for _ in range(3000):
        small, big = invariants(), invariants()
        verdicts.append(invariants_embed(small, big))
        assert verdicts[-1] == invariants_embed_by_prime_powers(small, big), (small, big)
    assert 300 < sum(verdicts) < 2700


def test_finite_elements_enumeration():
    g = FgAbGroup(2, IntMatrix.from_rows([[2, 0], [0, 3]]))
    els = finite_elements(g)
    assert len(els.elements()) == 6
    assert group_order(g) == 6
    # canonical coordinates survive a roundtrip through the generators
    for x in els.elements():
        assert els.canon(els.to_gen_coords(x)) == x
