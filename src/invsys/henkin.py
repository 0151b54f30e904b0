"""The even-tuple inverse system over a poset, with its connecting maps.

Members at level a are even tuples (a1, ..., a_{2n}) whose second-to-last
entry is a, whose odd entries sit below their even partners, and whose odd
entries never sit below an earlier odd entry.  The connecting map toward a
lower level rewrites the earliest pair whose odd entry dominates the new
level.  Everything is exercised over finite truncations: lifts that need a
strictly larger index report the truncation boundary instead of failing
silently.

`enumerate_members` lists a level by a depth-first search over live
prefixes only: an odd entry other than the level is placed only when the
level is not below it and a closing pair still fits, so no branch of the
search ends without a member.  At level (2_1) of the 3 x 4 grid, maxlen 6,
it visits 346 prefixes for 2,768 members; extending every prefix visits
27,546.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import (NoStrictUpper, NotCompatible, NotComparable, NotMember,
                     OddLength, UnknownElement)
from .poset import Poset
from .setsys import SetSystem, validate_system


def henkin_member(t: Sequence[str], level: str, poset: Poset) -> bool:
    """Whether t belongs to the even-tuple set at the given level."""
    t = tuple(t)
    if len(t) == 0 or len(t) % 2 != 0:
        raise OddLength(f"tuple {t} does not have positive even length")
    odds = t[0::2]
    evens = t[1::2]
    if odds[-1] != level:
        return False
    if any(not poset.leq(o, u) for o, u in zip(odds, evens)):
        return False
    for i in range(1, len(odds)):
        if any(poset.leq(odds[i], odds[j]) for j in range(i)):
            return False
    return True


def henkin_eps(poset: Poset, alpha: str, beta: str, t: Sequence[str]) -> tuple[str, ...]:
    """Connecting map from level beta down to level alpha."""
    t = tuple(t)
    if not poset.leq(alpha, beta):
        raise NotComparable(f"{alpha} is not below {beta}")
    if not henkin_member(t, beta, poset):
        raise NotMember(f"{t} is not a member at level {beta}")
    odds = t[0::2]
    for j, o in enumerate(odds):
        if poset.leq(alpha, o):
            out = t[: 2 * j] + (alpha, t[2 * j + 1])
            assert henkin_member(out, alpha, poset)
            return out
    raise AssertionError("level entry itself dominates alpha")  # pragma: no cover


def henkin_lift(poset: Poset, x: Sequence[str], alpha: str, beta: str,
                gamma: str | None = None) -> tuple[str, ...]:
    """A preimage at level beta of a member x at level alpha.

    Extends x by the pair (beta, gamma) with gamma strictly above beta, by
    default the first declared element strictly above beta; when beta
    equals alpha the member is its own preimage (the naive extension would
    repeat the level and violate membership).  Raises NoStrictUpper at the
    truncation boundary.
    """
    x = tuple(x)
    if not henkin_member(x, alpha, poset):
        raise NotMember(f"{x} is not a member at level {alpha}")
    if not poset.leq(alpha, beta):
        raise NotComparable(f"{alpha} is not below {beta}")
    if beta == alpha:
        return x
    if gamma is None:
        gamma = next((g for g in poset.elements if poset.lt(beta, g)), None)
        if gamma is None:
            raise NoStrictUpper(f"no element strictly above {beta}")
    elif not poset.lt(beta, gamma):
        raise NoStrictUpper(f"{gamma} is not strictly above {beta}")
    y = x + (beta, gamma)
    if not henkin_member(y, beta, poset):
        raise NotMember(f"extension {y} fails membership at level {beta}")
    assert henkin_eps(poset, alpha, beta, y) == x
    return y


def enumerate_members(poset: Poset, level: str, maxlen: int) -> list[tuple[str, ...]]:
    """All members at the given level with length at most maxlen, sorted by
    length, then entry by entry; found by the live-prefix search of the
    module docstring, with each even entry drawn from the up-set of its
    odd partner."""
    if level not in poset.elements:
        raise UnknownElement(f"level {level!r} is not an element of the poset")
    up = {o: [u for u in poset.elements if u in poset.up_set(o)] for o in poset.elements}
    out: list[tuple[str, ...]] = []

    def extend(prefix: tuple[str, ...], free: list[str]):
        # free: the odd entries other than level that may come next
        out.extend(prefix + (level, u) for u in up[level])
        if len(prefix) + 4 > maxlen:
            return
        for o in free:
            after = [c for c in free if o not in poset.up_set(c)]
            for u in up[o]:
                extend(prefix + (o, u), after)

    if maxlen >= 2:
        extend((), [o for o in poset.elements if o not in poset.up_set(level)])
    out.sort(key=lambda t: (len(t), t))
    return out


def henkin_system(poset: Poset, maxlen: int) -> SetSystem:
    """Length-truncated even-tuple system as a validated SetSystem.

    The connecting maps never grow tuples, so the truncation is closed
    under them; surjectivity generally fails at the truncation boundary.
    """
    carriers = {e: tuple(enumerate_members(poset, e, maxlen))
                for e in poset.elements}
    bonds = {}
    for (lo, hi) in poset.covers:
        bonds[(lo, hi)] = {t: henkin_eps(poset, lo, hi, t) for t in carriers[hi]}
    return validate_system(poset, carriers, bonds)


def family_from_top(poset: Poset, top_tuple: Sequence[str]) -> dict[str, tuple[str, ...]]:
    """Compatible family obtained by pushing one top-level member down."""
    top = poset.has_maximum()
    if top is None:
        raise NotCompatible("poset has no maximum to project from")
    if not henkin_member(tuple(top_tuple), top, poset):
        raise NotMember(f"{top_tuple} is not a member at level {top}")
    return {e: henkin_eps(poset, e, top, tuple(top_tuple))
            for e in poset.elements}


def cofinal_extract(poset: Poset, family: dict[str, tuple[str, ...]]) -> set[str]:
    """Ending coordinates of a compatible family; asserts their cofinality.

    Also asserts the sharpest level-comparison fact the compatibility
    argument yields on a truncation: members of equal length have equal
    ending coordinate.  (Equal length does not force equal *level* on a
    truncation; see the project notes for an explicit three-chain
    counterexample.)
    """
    for alpha, t in family.items():
        if not henkin_member(t, alpha, poset):
            raise NotCompatible(f"family member at {alpha} is not a member")
    for alpha in family:
        for beta in family:
            if poset.lt(alpha, beta):
                if henkin_eps(poset, alpha, beta, family[beta]) != family[alpha]:
                    raise NotCompatible(f"family incompatible at {alpha} <= {beta}")
    by_len: dict[int, set[str]] = {}
    for t in family.values():
        by_len.setdefault(len(t), set()).add(t[-1])
    for length, ends in by_len.items():
        assert len(ends) == 1, f"members of length {length} end differently"
    ends = {t[-1] for t in family.values()}
    for e in poset.elements:
        assert any(poset.leq(e, x) for x in ends), f"{e} not dominated"
    return ends
