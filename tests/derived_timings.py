"""Per-layer timings of the derived path on models with known cohomology.

Prints one markdown table row per model: its flag count, the seconds of
`nerve_complex`, the seconds of `cohomology` over every degree of that one
complex, and the invariants found.  The models are constant Z on the S^4-S^6
sphere models, S^2 x S^2, RP^2 x S^1 and S^2 x S^3, and twisted Z on the
Klein bottle (their answers are in `conftest`), and seeded torsion
systems on the Klein bottle and on S^2 x S^2, whose eliminations are mostly
non-unit pivots.
Not a test module, so pytest does not collect it.  Run it from the
repository root:

    PYTHONPATH=src python tests/derived_timings.py
"""

from __future__ import annotations

import random
import time

from invsys.abgroups import group_invariants
from invsys.derived import cohomology, nerve_complex
from invsys.generators import random_surjective_absystem

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
        cx = nerve_complex(system)
        t1 = time.perf_counter()
        groups = [group_invariants(cohomology(cx, n)) for n in range(cx.top_degree + 1)]
        t2 = time.perf_counter()
        flags = sum(len(level) for level in cx.flags)
        print(f"| {name} | {flags} | {t1 - t0:.3f} | {t2 - t1:.3f} | "
              f"{', '.join(show(g) for g in groups)} |")


if __name__ == "__main__":
    main()
