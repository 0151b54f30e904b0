"""Per-layer timings of the derived path on models with known cohomology.

Prints one markdown table row per model: its flag count, the seconds of
`nerve_complex`, the seconds of `cohomology` over every degree of that one
complex, and the invariants found.  The models are constant Z on the S^4-S^6
sphere models, S^2 x S^2, RP^2 x S^1 and S^2 x S^3, and twisted Z on the
Klein bottle (their answers are in `conftest`), and seeded torsion
systems on the Klein bottle and on S^2 x S^2, whose eliminations are mostly
non-unit pivots.  Constant Z on S^3 x S^3, (S^1)^4, RP^2 x RP^2 and the
1,602-point model of S^800 has more flags than the budget: their rows give
the seconds until `nerve_complex` raises BudgetExceeded, and "over budget"
as the invariants.  No element of the S^800 model leaves the cofinal core,
so its row is the time to find the core and count its flags.
Not a test module, so pytest does not collect it.  Run it from the
repository root:

    PYTHONPATH=src python tests/derived_timings.py
"""

from __future__ import annotations

import random
import time

from invsys.abgroups import group_invariants
from invsys.derived import cohomology, nerve_complex
from invsys.errors import BudgetExceeded
from invsys.generators import random_surjective_absystem
from invsys.poset import DEFAULT_FLAG_BUDGET

from conftest import (constant_z, face_poset, grid_surface_triangles, orientation_system,
                      product_poset, rp2_triangles, sphere_model)


MODELS = [
    ("S^4", lambda: constant_z(sphere_model(4))),
    ("S^5", lambda: constant_z(sphere_model(5))),
    ("S^6", lambda: constant_z(sphere_model(6))),
    ("S^2 x S^2", lambda: constant_z(product_poset(sphere_model(2), sphere_model(2)))),
    ("RP^2 x S^1", lambda: constant_z(product_poset(face_poset(rp2_triangles()),
                                                    sphere_model(1)))),
    ("S^2 x S^3", lambda: constant_z(product_poset(sphere_model(2), sphere_model(3)))),
    ("Klein bottle, twisted", lambda: orientation_system(grid_surface_triangles(flip=True))),
    ("Klein bottle, third torsion draw", lambda: torsion_draw(
        face_poset(grid_surface_triangles(flip=True)), 3)),
    ("S^2 x S^2, first torsion draw", lambda: torsion_draw(
        product_poset(sphere_model(2), sphere_model(2)), 1)),
    ("S^3 x S^3", lambda: constant_z(product_poset(sphere_model(3), sphere_model(3)))),
    ("(S^1)^4", lambda: constant_z(product_poset(
        product_poset(sphere_model(1), sphere_model(1)),
        product_poset(sphere_model(1), sphere_model(1))))),
    ("RP^2 x RP^2", lambda: constant_z(product_poset(face_poset(rp2_triangles()),
                                                     face_poset(rp2_triangles())))),
    ("S^800", lambda: constant_z(sphere_model(800))),
]


def torsion_draw(base, k: int):
    """The k-th of the seeded systems with torsion coefficients on base."""
    rng = random.Random(11)
    for _ in range(k):
        system = random_surjective_absystem(rng, base, max_gens=2)
    return system


def show(invariants) -> str:
    rank, torsion = invariants
    parts = ([f"Z^{rank}" if rank > 1 else "Z"] if rank else []) + [f"Z/{t}" for t in torsion]
    return " + ".join(parts) or "0"


def main() -> None:
    print("| model | flags | nerve_complex s | cohomology s | H^0, H^1, ... |")
    print("|---|---:|---:|---:|---|")
    for name, build in MODELS:
        system = build()
        t0 = time.perf_counter()
        try:
            cx = nerve_complex(system)
        except BudgetExceeded:
            print(f"| {name} | > {DEFAULT_FLAG_BUDGET} | {time.perf_counter() - t0:.3f} | - "
                  "| over budget |")
            continue
        t1 = time.perf_counter()
        groups = [group_invariants(cohomology(cx, n)) for n in range(cx.top_degree + 1)]
        t2 = time.perf_counter()
        flags = sum(len(level) for level in cx.flags)
        print(f"| {name} | {flags} | {t1 - t0:.3f} | {t2 - t1:.3f} | "
              f"{', '.join(show(g) for g in groups)} |")


if __name__ == "__main__":
    main()
