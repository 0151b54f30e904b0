from __future__ import annotations

import random

import pytest

from invsys.abgroups import (AbHom, FgAbGroup, group_invariants, hom_cokernel,
                             invariants_embed, is_exact_at, is_injective,
                             is_trivial_group)
from invsys.derived import (CochainComplex, ExactnessReport, cohomology,
                            derived_limit, h0_with_basis, induced_limit_hom,
                            limit_exactness_check,
                            nerve_complex, scd_finite, validate_absystem)
from invsys.errors import FunctorialityViolation, SquaresDoNotCommute
from invsys.generators import random_surjective_absystem
from invsys.intlinalg import (IntMatrix, SparseMatrix, echelon_form,
                              sparse_invariant_factors)
from invsys.poset import chain_poset, grid_poset, validate_poset, wedge_poset
from invsys.setsys import is_surjective, limit_threads, validate_system
from invsys.textio import parse_document

from conftest import (apply_hom_canon, brute_force_flags, cochain_count_order, constant_z,
                      cyclic_group, face_poset, finite_elements, full_nerve_complex,
                      grid_surface_triangles, group_order, in_lattice,
                      kernel_h0_with_basis, minors_gcd_invariants, orientation_system,
                      presented_cohomology, product_poset, pullback_along_max,
                      random_exact_sequence,
                      random_forest_poset, random_poset, rp2_triangles, scd_witness_system,
                      smith_normal_form, solved_exactness_report, sphere_model,
                      surjectivity_oracle)


def test_differential_squares_to_zero():
    # on the cofinal core and, through the oracle, on every flag of the base
    rng = random.Random(30)
    systems = [random_surjective_absystem(rng, sphere_model(k)) for k in (1, 2, 3)]
    systems += [random_surjective_absystem(rng, random_poset(rng, max_elements=5))
                for _ in range(20)]
    for s in systems:
        for cx in (nerve_complex(s), full_nerve_complex(s)):
            for n in range(len(cx.diff) - 1):
                square = cx.diff[n + 1].dense().mul(cx.diff[n].dense())
                assert not any(map(any, square.entries))


def test_wedge_witness_frozen_values():
    # Z at the bottom of the wedge, 0 on both tops, zero bonds: the
    # one-cochain space is Z^2 with coboundary x -> (-x, -x), so degree-0
    # cohomology dies and degree-1 cohomology is free of rank 1
    s = scd_witness_system(wedge_poset())
    assert group_invariants(derived_limit(s, 0)) == (0, [])
    assert group_invariants(derived_limit(s, 1)) == (1, [])


def test_constant_system_over_chain_is_acyclic():
    p = chain_poset(4)
    z = FgAbGroup.free(1)
    ident = IntMatrix.identity(1)
    s = validate_absystem(p, {e: z for e in p.elements},
                          {cov: AbHom(z, z, ident) for cov in p.covers})
    assert group_invariants(derived_limit(s, 0)) == (1, [])
    for n in range(1, 4):
        assert is_trivial_group(derived_limit(s, n))


def test_derived_vanishing_for_surjective_systems_with_maximum():
    rng = random.Random(31)
    for _ in range(25):
        p = random_poset(rng, max_elements=5, ensure_maximum=True)
        s = random_surjective_absystem(rng, p)
        assert is_surjective(s)[0]
        for n in range(1, max(2, len(brute_force_flags(p)))):
            assert is_trivial_group(derived_limit(s, n))


def test_is_surjective_verdict_matches_the_composition_oracle():
    # free groups of rank 0-2 on forests with random bonds (a forest makes
    # every choice functorial), and onto quotient systems on any poset
    rng = random.Random(38)
    verdicts = []
    for _ in range(40):
        p = random_forest_poset(rng, max_elements=5)
        groups = {e: FgAbGroup.free(rng.randint(0, 2)) for e in p.elements}
        s = validate_absystem(p, groups, {
            (lo, hi): AbHom(groups[hi], groups[lo], IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(groups[hi].ngens)]
                 for _ in range(groups[lo].ngens)], cols=groups[hi].ngens))
            for lo, hi in p.covers})
        q = random_poset(rng, max_elements=4)
        for sys_ in (s, random_surjective_absystem(rng, q)):
            ok, pair = is_surjective(sys_)
            assert ok == surjectivity_oracle(sys_)[0] == (pair is None)
            verdicts.append(ok)
    assert 10 < sum(verdicts) < len(verdicts) - 10


def test_h0_order_matches_thread_count():
    # a finite abelian system doubles as a system of finite sets; the
    # degree-0 group must enumerate exactly the threads
    rng = random.Random(32)
    checked = 0
    while checked < 10:
        p = random_poset(rng, max_elements=4, ensure_maximum=True)
        s = random_surjective_absystem(rng, p)
        h0 = derived_limit(s, 0)
        if group_order(h0) is None:
            continue
        if any(group_order(s.group(e)) is None for e in p.elements):
            continue
        carriers = {e: tuple(finite_elements(s.group(e)).elements())
                    for e in p.elements}
        bonds = {cov: {x: apply_hom_canon(s.cover_bonds[cov], x)
                       for x in carriers[cov[1]]}
                 for cov in p.covers}
        ss = validate_system(p, carriers, bonds)
        assert len(limit_threads(ss)) == group_order(h0)
        checked += 1


def test_relabeling_invariance():
    # renaming poset elements must not change any cohomology group
    rng = random.Random(33)
    for _ in range(10):
        p = random_poset(rng, max_elements=5)
        s = random_surjective_absystem(rng, p)
        ren = {e: f"x{i}" for i, e in enumerate(reversed(p.elements))}
        p2 = validate_poset([ren[e] for e in p.elements],
                            [(ren[a], ren[b]) for a, b in p.covers])
        s2 = validate_absystem(p2, {ren[e]: s.group(e) for e in p.elements},
                               {(ren[a], ren[b]): s.cover_bonds[(a, b)]
                                for a, b in p.covers})
        for n in range(len(brute_force_flags(p))):
            assert group_invariants(derived_limit(s, n)) == \
                group_invariants(derived_limit(s2, n))


def test_exactness_check_on_random_sequences():
    rng = random.Random(34)
    for _ in range(10):
        p = random_poset(rng, max_elements=4, ensure_maximum=True)
        a, b, c, u, v = random_exact_sequence(rng, p)
        rep = limit_exactness_check(a, b, c, u, v)
        assert rep.u_injective
        assert rep.exact_at_middle
        assert rep.v_surjective
        assert rep.ok


def test_exactness_check_rejects_noncommuting_squares():
    p = chain_poset(2)
    z = FgAbGroup.free(1)
    ident = IntMatrix.identity(1)
    const = {e: z for e in p.elements}
    bonds = {("1", "2"): AbHom(z, z, ident)}
    s = validate_absystem(p, const, bonds)
    # u is an isomorphism at each level (so levelwise exactness holds)
    # but flips sign at one of them: the u-square cannot commute
    u = {"1": AbHom(z, z, IntMatrix.from_rows([[1]])),
         "2": AbHom(z, z, IntMatrix.from_rows([[-1]]))}
    v = {e: AbHom.zero(z, FgAbGroup.trivial()) for e in p.elements}
    t = validate_absystem(p, {e: FgAbGroup.trivial() for e in p.elements},
                          {("1", "2"): AbHom.zero(FgAbGroup.trivial(),
                                                  FgAbGroup.trivial())})
    with pytest.raises(SquaresDoNotCommute):
        limit_exactness_check(s, s, t, u, v)


def test_scd_chain_is_zero():
    assert scd_finite(chain_poset(3), trials=5, seed=0) == 0


def test_scd_wedge_is_zero():
    # every onto system on the wedge has lim^1 = 0: its bonds into the
    # minimum are onto, so the cokernel of the sum map is 0; the probe with
    # a nonzero lim^1 is not onto, so scd does not sample it
    assert scd_finite(wedge_poset(), trials=20, seed=0) == 0
    assert scd_witness_system(wedge_poset()).first_non_onto() is not None
    assert [scd_finite(sphere_model(k), trials=20, seed=0) for k in (1, 2)] == [1, 2]


def test_cohomology_vanishes_above_top_degree():
    s = scd_witness_system(wedge_poset())
    cx = nerve_complex(s)
    assert cx.top_degree == 1
    assert is_trivial_group(derived_limit(s, 5))


def _by_minors(g: FgAbGroup):
    """Invariants of a presented group from the gcds of its relation minors."""
    factors = minors_gcd_invariants(g.relations)
    return g.ngens - len(factors), [f for f in factors if f != 1]


def test_cohomology_at_the_top_degree():
    # constant Z on the circle model (two minima below two maxima):
    # H^0 = H^1 = Z, and degree 1 is the top, where d_1 has no rows
    p = validate_poset(["x", "y", "a", "b"], [("x", "a"), ("x", "b"), ("y", "a"), ("y", "b")])
    z = FgAbGroup.free(1)
    s = validate_absystem(p, {e: z for e in p.elements},
                          {cov: AbHom(z, z, IntMatrix.identity(1)) for cov in p.covers})
    cx = nerve_complex(s)
    assert cx.top_degree == 1 and cx.diff[1].rows == 0
    for n in (0, 1):
        h = cohomology(cx, n)
        assert group_invariants(h) == _by_minors(h) == (1, [])


def test_cohomology_where_the_next_degree_has_no_generators():
    # 0 <- Z over the chain 1 < 2: the one flag of C(1) starts at 1, which has
    # no generators, so d_0 has no rows although degree 0 is not the top (on
    # the full base: the cofinal core of a chain is its top alone)
    p = chain_poset(2)
    z, zero = FgAbGroup.free(1), FgAbGroup.trivial()
    s = validate_absystem(p, {"1": zero, "2": z}, {("1", "2"): AbHom.zero(z, zero)})
    cx = full_nerve_complex(s)
    assert cx.top_degree == 1 and cx.dims[1] == 0 and cx.diff[0].rows == 0
    expected = {0: (1, []), 1: (0, [])}
    for n in (0, 1):
        h = cohomology(cx, n)
        assert group_invariants(h) == _by_minors(h) == expected[n]


def test_h0_basis_consistency():
    p = chain_poset(3)
    z = FgAbGroup.free(1)
    ident = IntMatrix.identity(1)
    s = validate_absystem(p, {e: z for e in p.elements},
                          {cov: AbHom(z, z, ident) for cov in p.covers})
    h0, form, cx = h0_with_basis(s)
    assert group_invariants(h0) == (1, [])
    # each basis column is a cocycle: the differential kills it
    for col in form.columns:
        assert all(x == 0 for x in cx.diff[0].dense().apply(col))


def test_h0_basis_is_an_echelon_basis_of_the_cocycles():
    # the basis, the columns of the form h0_with_basis hands over, is its own
    # echelon form, so its columns are independent, and each relator of H^0
    # is the coordinate vector of one relation of C(0)
    rng = random.Random(42)
    systems = [random_surjective_absystem(rng, sphere_model(1 + k % 2)) for k in range(4)]
    for i in range(40):
        p = random_poset(rng, max_elements=6)
        systems.append(scd_witness_system(p) if i % 4 == 0 else random_surjective_absystem(rng, p))
    for s in systems:
        h0, form, cx = h0_with_basis(s)
        columns = form.columns
        basis = IntMatrix.from_cols(columns, rows=cx.dims[0])
        ech = echelon_form(basis)
        assert ech.columns == columns and len(ech.pivots) == basis.cols == h0.ngens
        lat = cx.lattice(0)
        assert h0.relations.rows == lat.cols
        for j, rel in enumerate(h0.relations.entries):
            assert basis.apply(rel) == lat.col(j)
        d0, lat1 = cx.diff[0].dense(), cx.lattice(1)
        assert all(in_lattice(lat1, d0.apply(col)) for col in columns)  # cocycles
        assert group_invariants(h0) == group_invariants(kernel_h0_with_basis(s)[0])


def _wedge_sequence():
    """0 -> A -> B -> C -> 0 over the wedge c < a, c < b.

    A is the witness system (Z at c, 0 on top), B is constant Z and C is Z
    on top with 0 at c.  lim C = Z^2 receives lim B = Z diagonally, so
    lim v has cokernel Z, which is all of lim^1 A.
    """
    p = wedge_poset()
    z, zero = FgAbGroup.free(1), FgAbGroup.trivial()
    one = IntMatrix.identity(1)
    a = scd_witness_system(p)
    b = validate_absystem(p, {e: z for e in p.elements},
                          {cov: AbHom(z, z, one) for cov in p.covers})
    gc = {e: (zero if e == "c" else z) for e in p.elements}
    c = validate_absystem(p, gc, {(lo, hi): AbHom.zero(gc[hi], gc[lo])
                                  for (lo, hi) in p.covers})
    u = {e: (AbHom(z, z, one) if e == "c" else AbHom.zero(zero, z))
         for e in p.elements}
    v = {e: (AbHom.zero(z, zero) if e == "c" else AbHom(z, z, one))
         for e in p.elements}
    return a, b, c, u, v


def test_exactness_report_on_wedge_sequence():
    rep = limit_exactness_check(*_wedge_sequence())
    assert (rep.lim_a, rep.lim_b, rep.lim_c) == ((0, []), (1, []), (2, []))
    assert rep.lim1_a == (1, [])
    assert rep.coker_v == (1, [])
    assert rep.u_injective and rep.exact_at_middle
    assert not rep.v_surjective
    assert rep.coker_embeds_in_lim1
    assert not rep.a_surjective and not rep.base_has_maximum
    assert rep.ok and not rep.exact


def test_exactness_check_builds_one_nerve_complex_per_system(monkeypatch):
    import invsys.derived as derived
    built = []

    def counting(sys, *args, **kwargs):
        built.append(sys)
        return nerve_complex(sys, *args, **kwargs)

    monkeypatch.setattr(derived, "nerve_complex", counting)
    a, b, c, u, v = _wedge_sequence()
    derived.limit_exactness_check(a, b, c, u, v)
    assert len(built) == 3
    assert {id(s) for s in built} == {id(a), id(b), id(c)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_constant_z_on_sphere_models(n):
    # the nerve of the minimal model is the n-sphere (McCord 1966)
    s = constant_z(sphere_model(n))
    for k in range(n + 2):
        expected = (1, []) if k in (0, n) else (0, [])
        assert group_invariants(derived_limit(s, k)) == expected


ZERO, Z, Z2, Z_MOD2 = (0, []), (1, []), (2, []), (0, [2])  # as group invariants


@pytest.mark.parametrize("system, expected", [
    (lambda: constant_z(face_poset(rp2_triangles())), [Z, ZERO, Z_MOD2]),
    (lambda: constant_z(face_poset(grid_surface_triangles(flip=False))), [Z, Z2, Z]),
    (lambda: constant_z(face_poset(grid_surface_triangles(flip=True))), [Z, Z, Z_MOD2]),
    # twisted Poincare duality, H^n(N; Z^w) = H_(2-n)(N; Z)
    (lambda: orientation_system(rp2_triangles()), [ZERO, Z_MOD2, Z]),
    (lambda: orientation_system(grid_surface_triangles(flip=False)), [Z, Z2, Z]),
    (lambda: orientation_system(grid_surface_triangles(flip=True)), [ZERO, (1, [2]), Z]),
    # Kunneth: H^n(X x Y) = sum of H^i(X) (x) H^j(Y) over i + j = n, plus
    # Tor(H^i(X), H^j(Y)) over i + j = n + 1
    (lambda: constant_z(product_poset(sphere_model(1), sphere_model(1))), [Z, Z2, Z]),
    (lambda: constant_z(product_poset(sphere_model(2), sphere_model(2))),
     [Z, ZERO, Z2, ZERO, Z]),
    (lambda: constant_z(product_poset(face_poset(rp2_triangles()), sphere_model(1))),
     [Z, Z, Z_MOD2, Z_MOD2]),  # the Z/2 of degree 3 is the Tor term
    (lambda: constant_z(product_poset(sphere_model(2), sphere_model(3))),
     [Z, ZERO, Z, Z, ZERO, Z]),
], ids=["rp2", "torus", "klein-bottle", "rp2-twisted", "torus-twisted",
        "klein-bottle-twisted", "s1xs1", "s2xs2", "rp2xs1", "s2xs3"])
def test_constant_z_on_surfaces_with_torsion(system, expected):
    # face posets of closed surfaces, with constant and twisted Z, and
    # products: every answer comes from the topology (conftest), and
    # nothing lies above the top dimension
    s = system()
    assert s.base.core == s.base.elements  # no cone point, so the walk sees every element
    cx = nerve_complex(s)
    for n, invariants in enumerate(expected + [ZERO]):
        assert group_invariants(derived_limit(s, n)) == invariants, n
        assert group_invariants(cohomology(cx, n)) == invariants, n


@pytest.mark.parametrize("base", [sphere_model(1), sphere_model(2),
                                  product_poset(sphere_model(1), sphere_model(1))],
                         ids=["s1", "s2", "s1xs1"])
def test_invariant_factors_of_nerve_matrices_match_the_smith_loop(base, monkeypatch):
    # every matrix that cohomology eliminates, on seeded torsion systems,
    # against the dense Smith loop of conftest, which shares no step with it
    import invsys.derived as derived
    seen = []

    def recording(vectors):
        vectors = list(vectors)
        factors = sparse_invariant_factors(vectors)
        seen.append((vectors, factors))
        return factors

    monkeypatch.setattr(derived, "sparse_invariant_factors", recording)
    rng = random.Random(11)
    for _ in range(3):
        cx = nerve_complex(random_surjective_absystem(rng, base))
        for n in range(cx.top_degree + 1):
            cohomology(cx, n)
    for vectors, factors in seen:
        cols = 1 + max((j for vec in vectors for j in vec), default=-1)
        m = IntMatrix.from_rows([[vec.get(j, 0) for j in range(cols)] for vec in vectors],
                                cols=cols)
        _, d, _ = smith_normal_form(m)
        assert [d.entries[i][i] for i in range(min(m.rows, m.cols))
                if d.entries[i][i]] == factors
    assert any(f > 1 for _, factors in seen for f in factors)  # torsion was eliminated


def test_cofinal_core_keeps_minimal_bases_and_shrinks_cones():
    for p in [sphere_model(n) for n in range(5)] + [wedge_poset()]:
        assert p.core == p.elements
    for k in (1, 2, 5, 18):
        assert chain_poset(k).core == (str(k),)
    for r, c in ((1, 1), (2, 3), (4, 4)):
        assert grid_poset(r, c).core == (f"({r}_{c})",)


def test_cofinal_core_deletes_below_a_maximum_or_a_minimum():
    # x < a, b < y: x's strict up-set {a, b, y} has the maximum y only
    p = validate_poset(["x", "a", "b", "y"],
                       [("x", "a"), ("x", "b"), ("a", "y"), ("b", "y")])
    assert p.core == ("y",)
    # x < m < a, b: x's strict up-set {m, a, b} has the minimum m only, and
    # m's strict up-set {a, b} is no cone
    q = validate_poset(["x", "m", "a", "b"], [("x", "m"), ("m", "a"), ("m", "b")])
    assert q.core == ("m", "a", "b")
    assert q.core_flags == [[("m",), ("a",), ("b",)], [("m", "a"), ("m", "b")]]


def test_derived_limit_matches_the_full_nerve_in_every_degree():
    # the cofinal core must not change any degree, on surjective systems and
    # on the non-surjective witness alike
    rng = random.Random(36)
    shrank = 0
    trials = 90
    for i in range(trials):
        p = random_poset(rng, max_elements=7)
        s = scd_witness_system(p) if i % 3 == 0 else random_surjective_absystem(rng, p)
        shrank += len(p.core) < len(p.elements)
        cx = full_nerve_complex(s)
        for n in range(cx.top_degree + 2):
            assert group_invariants(derived_limit(s, n)) == \
                group_invariants(cohomology(cx, n)), (p, i, n)
    assert trials // 4 <= shrank < trials


def _full_base_report(monkeypatch, a, b, c, u, v):
    """The exactness report built from echelon H^0 bases and cohomology on
    every flag of the base: `h0_with_basis` over `full_nerve_complex`."""
    import invsys.derived as derived
    with monkeypatch.context() as patch:
        patch.setattr(derived, "nerve_complex", full_nerve_complex)
        h0_a, h0_b, h0_c = h0_with_basis(a), h0_with_basis(b), h0_with_basis(c)
    lim_u = induced_limit_hom(u, h0_a, h0_b)
    lim_v = induced_limit_hom(v, h0_b, h0_c)
    lim1_a = group_invariants(cohomology(h0_a[2], 1))
    coker_v = hom_cokernel(lim_v)
    return ExactnessReport(
        lim_a=group_invariants(h0_a[0]), lim_b=group_invariants(h0_b[0]),
        lim_c=group_invariants(h0_c[0]), lim1_a=lim1_a,
        u_injective=is_injective(lim_u), exact_at_middle=is_exact_at(lim_u, lim_v),
        v_surjective=is_trivial_group(coker_v), coker_v=group_invariants(coker_v),
        coker_embeds_in_lim1=invariants_embed(group_invariants(coker_v), lim1_a),
        a_surjective=is_surjective(a)[0],
        base_has_maximum=a.base.has_maximum() is not None)


def test_derived_limit_is_unchanged_by_subdivision():
    # lim^n of a system on P and of its pullback to the subdivision sd(P)
    # along the largest element agree in every degree: seeded torsion
    # systems on S^1, S^2 and random posets, witnesses that are not onto,
    # and twisted Z on RP^2, whose subdivision has 181 elements
    rng = random.Random(42)
    systems = [random_surjective_absystem(rng, sphere_model(k), max_gens=2)
               for k in (1, 2) for _ in range(3)]
    while len(systems) < 20:
        p = random_poset(rng, max_elements=6)
        if len(p.elements) > 1:
            systems.append(random_surjective_absystem(rng, p, max_gens=2))
    systems += [scd_witness_system(p) for p in (wedge_poset(), sphere_model(2))]
    systems.append(orientation_system(rp2_triangles()))
    higher_torsion = 0
    for s in systems:
        degrees = range(len(brute_force_flags(s.base)) + 1)
        expected = [group_invariants(derived_limit(s, n)) for n in degrees]
        sd = pullback_along_max(s)
        assert [group_invariants(derived_limit(sd, n)) for n in degrees] == expected, s.base
        higher_torsion += any(torsion for _, torsion in expected[1:])
    assert higher_torsion >= 6


@pytest.mark.parametrize("ensure_maximum", [True, False])
def test_exactness_report_matches_the_full_base(ensure_maximum, monkeypatch):
    rng = random.Random(37)
    shrank = 0
    for _ in range(12):
        p = random_poset(rng, max_elements=6, ensure_maximum=ensure_maximum)
        shrank += len(p.core) < len(p.elements)
        seq = random_exact_sequence(rng, p)
        assert limit_exactness_check(*seq) == _full_base_report(monkeypatch, *seq)
    assert shrank
    assert limit_exactness_check(*_wedge_sequence()) == \
        _full_base_report(monkeypatch, *_wedge_sequence())


@pytest.mark.parametrize("ensure_maximum", [True, False])
def test_exactness_report_matches_the_solved_oracle(ensure_maximum):
    # the report from echelon bases on the cofinal core against the one from
    # kernel generators and solves on the full base
    rng = random.Random(43)
    for _ in range(12):
        p = random_poset(rng, max_elements=6, ensure_maximum=ensure_maximum)
        seq = random_exact_sequence(rng, p)
        assert limit_exactness_check(*seq) == solved_exactness_report(*seq)
    assert limit_exactness_check(*_wedge_sequence()) == \
        solved_exactness_report(*_wedge_sequence())


# the circle file of the exactness benchmark at seed 1
CIRCLE_SEQUENCE = """\
poset P
elements: a0 b0 a1 b1
covers: a0 < a1, a0 < b1, b0 < a1, b0 < b1
absystem A over P
group a0: gens 2 relations [[2, 0], [2, 2], [4, 4]]
group b0: gens 2 relations [[4, -2], [16, -8], [2, 0]]
group a1: gens 2 relations [[-2, 4]]
group b1: gens 2 relations [[-2, 4]]
map a1 -> a0: matrix [[1, 1], [-1, 0]]
map b1 -> a0: matrix [[3, 2], [2, 1]]
map a1 -> b0: matrix [[3, 2], [-2, -1]]
map b1 -> b0: matrix [[4, 3], [-1, -1]]
absystem B over P
group a0: gens 3 relations [[2, 0, 0], [2, 2, 0], [4, 4, 0], [0, 0, 2], [0, 0, 4]]
group b0: gens 3 relations [[4, -2, 0], [16, -8, 0], [2, 0, 0], [0, 0, 2], [0, 0, 8]]
group a1: gens 3 relations [[-2, 4, 0], [0, 0, 2]]
group b1: gens 3 relations [[-2, 4, 0], [0, 0, 2]]
map a1 -> a0: matrix [[1, 1, 0], [-1, 0, 0], [0, 0, 1]]
map b1 -> a0: matrix [[3, 2, 0], [2, 1, 1], [0, 0, 1]]
map a1 -> b0: matrix [[3, 2, 1], [-2, -1, -1], [0, 0, 1]]
map b1 -> b0: matrix [[4, 3, 0], [-1, -1, 0], [0, 0, 1]]
absystem C over P
group a0: gens 1 relations [[2], [4]]
group b0: gens 1 relations [[2], [8]]
group a1: gens 1 relations [[2]]
group b1: gens 1 relations [[2]]
map a1 -> a0: matrix [[1]]
map b1 -> a0: matrix [[1]]
map a1 -> b0: matrix [[1]]
map b1 -> b0: matrix [[1]]
sequence Q over P systems A B C
map u at a0: matrix [[1, 0], [0, 1], [0, 0]]
map u at b0: matrix [[1, 0], [0, 1], [0, 0]]
map u at a1: matrix [[1, 0], [0, 1], [0, 0]]
map u at b1: matrix [[1, 0], [0, 1], [0, 0]]
map v at a0: matrix [[0, 0, 1]]
map v at b0: matrix [[0, 0, 1]]
map v at a1: matrix [[0, 0, 1]]
map v at b1: matrix [[0, 0, 1]]
"""


def test_h0_presentation_sizes_on_the_circle():
    # (generators, relators) of lim A, lim B, lim C: the echelon basis has
    # rank C(0) = 12 generators for lim B, and the relators are the relation
    # bases of C(0), 10 where the groups of B declare 14 relators.  The
    # columns of L(1) are independent too, so the kernel of [d_0 | L(1)]
    # projects one to one and its 12 generators are a basis as well (18 when
    # L(1) held every declared relator); the circle model has no element
    # the core deletes
    doc = parse_document(CIRCLE_SEQUENCE)
    systems = [doc.absystems[name] for name in doc.sole("sequences", "Q").systems]
    sizes = [(h0.ngens, h0.relations.rows)
             for h0 in (h0_with_basis(s)[0] for s in systems)]
    assert sizes == [(8, 6), (12, 10), (4, 4)]
    assert [sum(g.relations.rows for g in s.groups.values()) for s in systems] == [8, 14, 6]
    kernel_sizes = [(h0.ngens, h0.relations.rows)
                    for h0 in (kernel_h0_with_basis(s)[0] for s in systems)]
    assert kernel_sizes == [(8, 6), (12, 10), (4, 4)]
    assert all(e <= k for e, k in zip(sizes, kernel_sizes))
    assert len(systems[1].base.core) == 4
    assert all(group_invariants(h0_with_basis(s)[0]) ==
               group_invariants(kernel_h0_with_basis(s)[0]) for s in systems)


def _zm_system(rng, p, m):
    """Z/m at every element and multiplication by a random residue on every
    cover, redrawn until the composites agree; None after 50 draws."""
    g = cyclic_group(m)
    for _ in range(50):
        bonds = {cov: AbHom(g, g, IntMatrix.from_rows([[rng.randrange(m)]]))
                 for cov in p.covers}
        try:
            return validate_absystem(p, {e: g for e in p.elements}, bonds)
        except FunctorialityViolation:
            pass
    return None


def test_cohomology_matches_the_presented_subquotient():
    # the two-map form against the full-transform subquotient it replaced, on
    # surjective systems with relations (on random bases and on the S^1 and
    # S^2 models), the witness probe and Z/m systems, each over every flag
    rng = random.Random(38)
    systems = [random_surjective_absystem(rng, sphere_model(1 + k % 2)) for k in range(6)]
    for i in range(150):
        p = random_poset(rng, max_elements=6)
        systems.append(random_surjective_absystem(rng, p) if i % 3 == 0
                       else scd_witness_system(p) if i % 3 == 1
                       else _zm_system(rng, p, rng.choice([2, 3, 4, 6])))
    torsion = free = 0
    for i, s in enumerate(systems):
        if s is None:
            continue
        cx = full_nerve_complex(s)
        for n in range(cx.top_degree + 2):
            inv = group_invariants(cohomology(cx, n))
            assert inv == group_invariants(presented_cohomology(cx, n)), (i, n)
            torsion += n > 0 and bool(inv[1])
            free += n > 0 and inv[0] > 0
    assert torsion and free


def _hand_built_complex(d0: int, d1: int, top: FgAbGroup) -> CochainComplex:
    """Z -> Z -> top in degrees 0, 1, 2, multiplication by d0 and then d1."""
    z = FgAbGroup.free(1)
    return CochainComplex(flags=[[("x",)], [("x", "y")], [("x", "y", "z")]],
                          blocks=[[(0, z)], [(0, z)], [(0, top)]], dims=[1, 1, 1],
                          diff=[SparseMatrix(1, ({0: d0},)), SparseMatrix(1, ({0: d1},)),
                                SparseMatrix(0, ({},))])


def test_cohomology_self_check_rejects_coboundaries_outside_the_relations():
    # d1 d0 = 2 lies in the relations 2Z of degree 2: H^1 = 0 and H^2 = Z/2
    cx = _hand_built_complex(1, 2, cyclic_group(2))
    for n in (1, 2):
        assert group_invariants(cohomology(cx, n)) == \
            group_invariants(presented_cohomology(cx, n)) == [(0, []), (0, [2])][n - 1]
    # d1 d0 = 3 is not in 2Z, and over free Z nothing but 0 is; degree 1 is
    # where d1 d0 is lifted, and where the old path fails too
    for cx in (_hand_built_complex(1, 3, cyclic_group(2)),
               _hand_built_complex(1, 1, FgAbGroup.free(1))):
        for h1 in (cohomology, presented_cohomology):
            with pytest.raises(AssertionError, match="coboundaries must be cocycles"):
                h1(cx, 1)


def test_derived_limit_orders_match_cochain_counting():
    # Z/m systems on bases of at most 4 elements, every degree, against plain
    # enumeration of the cochains mod m; the wedge gives lim^1 = Z/m / (a, b)
    rng = random.Random(39)
    cases = [(wedge_poset(), m) for m in (2, 3, 4, 6) for _ in range(3)]
    cases += [(random_poset(rng, max_elements=4), rng.choice([2, 3, 4, 6])) for _ in range(120)]
    seen, nonzero_lim1 = set(), 0
    for p, m in cases:
        widest = max(map(len, brute_force_flags(p)))
        s = _zm_system(rng, p, m)
        if s is None or m ** widest > 4096:  # keeps each count under 4,096 cochains
            continue
        seen.add(m)
        cx = full_nerve_complex(s)
        for n in range(cx.top_degree + 2):
            order = cochain_count_order(s, m, n)
            assert group_order(derived_limit(s, n)) == group_order(cohomology(cx, n)) \
                == order, (p, m, n)
            nonzero_lim1 += n == 1 and order > 1
    assert seen == {2, 3, 4, 6}
    assert nonzero_lim1
