"""Inverse systems over finite posets: limits, higher limits, and witnesses."""

from .poset import Poset, chain_poset, grid_poset, validate_poset, wedge_poset
from .setsys import (SetSystem, Thread, count_threads, fiber_subsystem,
                     is_surjective, limit_threads, ml_report, thread_from_top,
                     universal_images, validate_system, validate_tower)
from .intlinalg import IntMatrix
from .abgroups import (AbHom, FgAbGroup, group_invariants, hom_cokernel,
                       hom_image, hom_kernel, is_exact_at)
from .derived import (AbSystem, derived_limit, limit_exactness_check,
                      nerve_complex, scd_finite, validate_absystem)
from .henkin import (cofinal_extract, enumerate_members, family_from_top, henkin_eps,
                     henkin_lift, henkin_member, henkin_system)

__all__ = [
    "Poset", "chain_poset", "grid_poset", "validate_poset", "wedge_poset",
    "SetSystem", "Thread", "count_threads", "fiber_subsystem", "is_surjective",
    "limit_threads", "ml_report", "thread_from_top", "universal_images",
    "validate_system", "validate_tower",
    "IntMatrix",
    "AbHom", "FgAbGroup", "group_invariants", "hom_cokernel", "hom_image",
    "hom_kernel", "is_exact_at",
    "AbSystem", "derived_limit", "limit_exactness_check", "nerve_complex",
    "scd_finite", "validate_absystem",
    "cofinal_extract", "enumerate_members", "family_from_top", "henkin_eps",
    "henkin_lift", "henkin_member", "henkin_system",
]
