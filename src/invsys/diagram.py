"""Inverse systems as functors from a finite poset: the core shared by set
systems (towers among them, on a chain) and abelian-group systems.

Every check a system offers walks the covers of its base: validation,
commuting squares and surjectivity, where composites of onto cover bonds
are onto, so one non-onto cover is the witness of a non-surjective
system."""

from __future__ import annotations

from .errors import FunctorialityViolation, InvsysError, MissingBond
from .poset import Poset


class Diagram:
    """One object per element of a poset and one bond per cover lower < upper,
    an arrow from the object at upper to the object at lower.

    Subclasses say what an arrow is through five hooks: ``check(lower,
    upper, arrow)`` raises unless arrow is a bond for that cover,
    ``identity(e)``, ``compose(g, f)`` is g after f, ``equal(f, g)``, and
    ``is_onto(arrow, lower)``.  Composite bonds are computed once along
    cover paths and cached; computing one checks that every path agrees.
    """

    def __init__(self, base: Poset, objects: dict, cover_bonds: dict):
        self.base = base
        self.objects = objects
        self.cover_bonds = cover_bonds
        self._composites: dict = {}

    def bond(self, lower: str, upper: str):
        """Composite bond from the object at upper to the object at lower."""
        if lower == upper:
            return self.identity(lower)
        if (lower, upper) in self._composites:
            return self._composites[(lower, upper)]
        if not self.base.lt(lower, upper):
            raise ValueError(f"{lower} is not below {upper}")
        wanted = [upper]  # a stack, not recursion: cover paths can be long
        while wanted:
            top = wanted[-1]
            below = [lo for lo in self.base.lower_covers[top] if self.base.leq(lower, lo)]
            missing = [lo for lo in below
                       if lo != lower and (lower, lo) not in self._composites]
            if missing:
                wanted += missing
                continue
            wanted.pop()
            first = via = None
            for lo in below:
                step = self.cover_bonds[(lo, top)]
                path = step if lo == lower else self.compose(self._composites[(lower, lo)], step)
                if via is None:
                    first, via = path, lo
                elif not self.equal(first, path):
                    raise FunctorialityViolation(f"paths through {via} and {lo} disagree")
            self._composites[(lower, top)] = first
        return self._composites[(lower, upper)]

    def validate(self) -> "Diagram":
        """Check every cover bond, then full functoriality; returns self.

        An error from ``check`` carries the failing cover as its ``cover``
        attribute.  Two cover paths can only part at an element with two or
        more lower covers, so the composites down from those elements check
        every path.
        """
        covers = set(self.base.covers)
        for cov in self.base.covers:
            if cov not in self.cover_bonds:
                raise MissingBond(f"cover {cov[0]} < {cov[1]} has no bond")
        for (lo, hi), arrow in self.cover_bonds.items():
            if (lo, hi) not in covers:
                raise ValueError(f"bond on non-cover pair ({lo}, {hi})")
            try:
                self.check(lo, hi, arrow)
            except (ValueError, InvsysError) as exc:
                exc.cover = lo, hi
                raise
        splits = {j for j, lows in self.base.lower_covers.items() if len(lows) > 1}
        for j in (self.base.linear_extension() if splits else ()):
            if j in splits:
                for i in self.base.elements:
                    if self.base.lt(i, j):
                        self.bond(i, j)
        return self

    def first_non_onto(self) -> tuple[str, str] | None:
        """The first cover (lower, upper), in base order, whose bond is not
        onto; None when every bond, composites included, is onto."""
        for lower, upper in self.base.covers:
            if not self.is_onto(self.cover_bonds[(lower, upper)], lower):
                return lower, upper
        return None

    def first_noncommuting_cover(self, other: "Diagram",
                                 level_maps: dict) -> tuple[str, str] | None:
        """The first cover where level_maps[e], from the object at e to the one
        at e in other, fail to commute with the bonds; or None."""
        for lo, hi in self.base.covers:
            if not other.equal(other.compose(level_maps[lo], self.cover_bonds[(lo, hi)]),
                               other.compose(other.cover_bonds[(lo, hi)], level_maps[hi])):
                return lo, hi
        return None
