"""Per-layer self time and work counts, measured from outside invsys.

``Tracer.install`` replaces each traced function, in every ``invsys``
module namespace that binds it, by a wrapper that records its self time:
the time inside the call minus the time inside nested traced calls.  So
the self times of all layers and ``cli.other_s`` (command time in no traced
call) add up to the whole command time.

Traced are the public functions of ``poset``, ``intlinalg``, ``abgroups``
and ``derived``; the functions of ``textio``, ``setsys`` and ``henkin``
named in ``ROUTES``; the public ``Poset`` methods except ``leq``, ``lt`` and
``up_set``, whose time stays with their callers; and the ``bond`` methods of
``SetSystem``, ``Tower`` and ``AbSystem``.  A function that is gone or
renamed is skipped, and its time moves to its caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# module -> metric for every traced function of the module not in ROUTES
MODULE_METRIC = {"poset": "poset.self_s", "intlinalg": "intlinalg.other_s",
                 "abgroups": "abgroups.self_s", "derived": "derived.other_s",
                 "textio": None, "setsys": None, "henkin": None}

ROUTES = {
    "textio.parse_document": "textio.parse_s",
    "setsys.validate_system": "setsys.validate_s",
    "setsys.validate_tower": "setsys.validate_s",
    "setsys.SetSystem.bond": "setsys.bond_s",
    "setsys.Tower.bond": "setsys.bond_s",
    "setsys.limit_threads": "setsys.limit_threads_s",
    "setsys.ml_report": "setsys.ml_report_s",
    "setsys.universal_images": "setsys.universal_images_s",
    "setsys.is_surjective": "setsys.is_surjective_s",
    "henkin.enumerate_members": "henkin.enumerate_s",
    "intlinalg.smith_normal_form": "intlinalg.smith_s",
    "intlinalg.lll_reduce": "intlinalg.lll_s",
    "intlinalg.kernel_basis": "intlinalg.kernel_s",
    "intlinalg.solve": "intlinalg.solve_s",
    "intlinalg.in_lattice": "intlinalg.solve_s",
    "derived.nerve_complex": "derived.nerve_complex_s",
    "derived.cohomology": "derived.cohomology_s",
    "derived.validate_absystem": "derived.validate_s",
}

METHODS = {"poset.Poset": None, "setsys.SetSystem": ("bond",),
           "setsys.Tower": ("bond",), "derived.AbSystem": ("bond",)}
UNTRACED_METHODS = {"leq", "lt", "up_set"}


def _bits(result, args):
    return max((abs(x).bit_length() for vec in result for x in vec), default=0)


# function -> (counter, what to add for one call); a counter named *_max keeps the maximum
COUNTS = {
    "textio.parse_document": ("textio.bytes", lambda res, args: len(args[0].encode())),
    "poset.Poset.chains": ("poset.flags", lambda res, args: len(res)),
    "setsys.SetSystem.bond": ("setsys.bond_calls", lambda res, args: 1),
    "setsys.Tower.bond": ("setsys.bond_calls", lambda res, args: 1),
    "setsys.limit_threads": ("setsys.threads", lambda res, args: len(res)),
    "henkin.enumerate_members": ("henkin.members", lambda res, args: len(res)),
    "intlinalg.lll_reduce": ("intlinalg.lll_calls", lambda res, args: 1),
    "intlinalg.kernel_basis": ("intlinalg.kernel_entry_bits_max", _bits),
    "intlinalg.solve": ("intlinalg.solve_calls", lambda res, args: 1),
    "abgroups.hom_equal": ("abgroups.hom_equal_calls", lambda res, args: 1),
    "abgroups.group_invariants": ("abgroups.invariants_calls", lambda res, args: 1),
}


class Tracer:
    """Self times and counts of one command; install before fork, read in the child."""

    def __init__(self):
        self.totals = defaultdict(float)
        self._nested = [0.0]
        self._patches = []

    def snapshot(self) -> dict:
        return dict(self.totals)

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "invsys" or name.startswith("invsys.")}
        for short, default in MODULE_METRIC.items():
            mod = modules.get(f"invsys.{short}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                key = f"{short}.{name}"
                if (name.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                metric = ROUTES.get(key, default)
                if metric:
                    wrapper = self._wrap(obj, key, metric)
                    for namespace in modules.values():
                        for bound, value in list(vars(namespace).items()):
                            if value is obj:
                                self._patch(namespace, bound, wrapper)
        for key, names in METHODS.items():
            short, cls_name = key.split(".")
            cls = getattr(modules.get(f"invsys.{short}"), cls_name, None)
            if cls is None:
                continue
            for name, obj in list(vars(cls).items()):
                if (not inspect.isfunction(obj) or name.startswith("_")
                        or name in UNTRACED_METHODS or (names and name not in names)):
                    continue
                method_key = f"{key}.{name}"
                metric = ROUTES.get(method_key, MODULE_METRIC[short])
                self._patch(cls, name, self._wrap(obj, method_key, metric))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, key, metric):
        totals, nested, clock = self.totals, self._nested, time.perf_counter
        counter, amount = COUNTS.get(key, (None, None))
        cache_info = getattr(fn, "cache_info", None)
        smith = key == "intlinalg.smith_normal_form"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if smith:
                misses = cache_info().misses if cache_info else 0
            nested.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                totals[metric] += spent - nested.pop()
                nested[-1] += spent
            if smith:
                totals["intlinalg.smith_calls"] += 1
                if cache_info is None or cache_info().misses > misses:
                    totals["intlinalg.smith_entries"] += args[0].rows * args[0].cols
                else:
                    totals["intlinalg.smith_hits"] += 1
            elif key == "derived.nerve_complex":
                totals["derived.nerve_complex_calls"] += 1
                totals["derived.cochain_entries"] += sum(d.rows * d.cols for d in result.diff)
            elif counter and counter.endswith("_max"):
                totals[counter] = max(totals[counter], amount(result, args))
            elif counter:
                totals[counter] += amount(result, args)
            return result

        if cache_info is not None:
            traced.cache_info = cache_info
            traced.cache_clear = fn.cache_clear
        return traced
