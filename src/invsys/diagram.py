"""Inverse systems as functors from a finite poset: the core shared by set
systems (towers among them, on a chain) and abelian-group systems.

Every check a system offers walks the covers of its base: validation,
commuting squares and surjectivity, where composites of onto cover bonds
are onto, so one non-onto cover is the witness of a non-surjective
system.  Functoriality is checked by `Diagram.validate` alone."""

from __future__ import annotations

from .errors import FunctorialityViolation, InvsysError, MissingBond
from .poset import Poset


class Diagram:
    """One object per element of a poset and one bond per cover lower < upper,
    an arrow from the object at upper to the object at lower.

    Subclasses say what an arrow is through five hooks: ``check(lower,
    upper, arrow)`` raises unless arrow is a bond for that cover,
    ``identity(e)``, ``compose(g, f)`` is g after f, ``equal(f, g)``, and
    ``is_onto(arrow, lower)``.  ``validate`` checks that all cover paths
    agree, so ``bond`` composes along one of them and caches the result.
    """

    def __init__(self, base: Poset, objects: dict, cover_bonds: dict):
        self.base = base
        self.objects = objects
        self.cover_bonds = cover_bonds
        self._composites: dict = {}

    def bond(self, lower: str, upper: str):
        """Composite bond from the object at upper to the object at lower along
        the first cover path down, cached; ``validate`` alone checks paths."""
        if lower == upper:
            return self.identity(lower)
        if (lower, upper) in self._composites:
            return self._composites[(lower, upper)]
        if not self.base.lt(lower, upper):
            raise ValueError(f"{lower} is not below {upper}")
        path = [upper]  # a loop, not recursion: cover paths can be long
        while path[-1] != lower and (lower, path[-1]) not in self._composites:
            path.append(next(lo for lo in self.base.lower_covers[path[-1]]
                             if self.base.leq(lower, lo)))
        for below, top in reversed(list(zip(path[1:], path))):
            step = self.cover_bonds[(below, top)]
            self._composites[(lower, top)] = (
                step if below == lower else self.compose(self._composites[(lower, below)], step))
        return self._composites[(lower, upper)]

    def validate(self) -> "Diagram":
        """Check every cover bond, then full functoriality; returns self.

        An error from ``check`` carries the failing cover as its ``cover``
        attribute.  Cover paths part only at an element j with two or more
        lower covers, and in linear extension order all paths below j agree
        by then.  So the path through each lower cover b need only agree
        with ``bond(m, j)`` at each maximal m below b and below a lower cover
        before b: every x below both lies below such an m.
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
        for j in self.base.linear_extension():
            earlier: set[str] = set()
            for b in self.base.lower_covers[j]:
                for m in self.base.maximal_common_lower_bounds(b, earlier):
                    if not self.equal(self.bond(m, j),
                                      self.compose(self.bond(m, b), self.cover_bonds[(b, j)])):
                        a = next(a for a in self.base.lower_covers[j] if self.base.leq(m, a))
                        raise FunctorialityViolation(
                            f"paths from {j} to {m} through {a} and {b} disagree")
                earlier.add(b)
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
