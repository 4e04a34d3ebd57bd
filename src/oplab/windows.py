"""Truncation windows: the finite site sets that operators act on.

A window fixes a representation ("Z2" for the planar lattice, "Z" for the
line), a rational radius, and with them a canonical basis enumeration
(radius, then angle, then lexicographic).  Everything downstream indexes
matrices through a window, so enumeration order is part of the contract
and must never change silently.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import RepresentationError
from .geometry import ORIGIN, Site, direction_of, site_sort_key

BASIS_TAG = "radial-angular-lex/v1"


@dataclass(frozen=True)
class TruncationWindow:
    """Finite truncation of the lattice: |x| <= radius (planar), |x| <= radius (line)."""

    representation: str
    radius: Fraction

    def __post_init__(self) -> None:
        if self.representation not in ("Z2", "Z"):
            raise RepresentationError(f"unknown representation {self.representation!r}")
        radius = Fraction(self.radius)
        if radius <= 0:
            raise ValueError("window radius must be positive")
        object.__setattr__(self, "radius", radius)

    @classmethod
    def plane(cls, radius) -> "TruncationWindow":
        return cls("Z2", Fraction(radius))

    @classmethod
    def line(cls, radius) -> "TruncationWindow":
        return cls("Z", Fraction(radius))

    @cached_property
    def sites(self) -> tuple:
        r = self.radius
        if self.representation == "Z":
            n = int(r)  # floor for integral and non-integral radii alike
            found: list[Site] = list(range(-n, n + 1))
        else:
            bound = int(r) + 1
            r2 = r * r
            found = [
                (x1, x2)
                for x1 in range(-bound, bound + 1)
                for x2 in range(-bound, bound + 1)
                if x1 * x1 + x2 * x2 <= r2
            ]
        found.sort(key=site_sort_key)
        return tuple(found)

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Read-only (dimension, 2) integer coordinates in basis order; a
        line site x sits at (x, 0)."""
        if self.representation == "Z":
            out = np.zeros((self.dimension, 2), dtype=np.int64)
            out[:, 0] = self.sites
        else:
            out = np.array(self.sites, dtype=np.int64).reshape(-1, 2)
        out.setflags(write=False)
        return out

    @cached_property
    def site_set(self) -> frozenset:
        return frozenset(self.sites)

    @cached_property
    def _index(self) -> dict:
        return {site: i for i, site in enumerate(self.sites)}

    @cached_property
    def _directions(self) -> dict:
        if self.representation != "Z2":
            return {}
        return {x: direction_of(x) for x in self.sites if x != ORIGIN}

    @property
    def dimension(self) -> int:
        return len(self.sites)

    def index_of(self, site: Site) -> int:
        try:
            return self._index[site]
        except KeyError:
            raise KeyError(f"site {site!r} is outside the window") from None

    def __contains__(self, site: Site) -> bool:
        return site in self.site_set

    def direction_classes(self) -> frozenset:
        """All direction classes realized by this window's nonzero sites."""
        return frozenset(self._directions.values())

    def radius_text(self) -> str:
        r = self.radius
        return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


@dataclass(frozen=True)
class AmplifiedWindow:
    """``copies`` stacked replicas of a base window, stack-major basis order.

    Basis vector (stack, site) sits at index stack * base.dimension + i
    where i is the site's base index.  Stack 0 is the original window.
    """

    base: TruncationWindow
    copies: int

    def __post_init__(self) -> None:
        if self.copies < 1:
            raise ValueError("an amplified window needs at least one copy")

    @property
    def representation(self) -> str:
        return f"{self.base.representation}^{self.copies}"

    @property
    def dimension(self) -> int:
        return self.copies * self.base.dimension

    def index_of(self, stack: int, site: Site) -> int:
        if not 0 <= stack < self.copies:
            raise KeyError(f"stack {stack} outside 0..{self.copies - 1}")
        return stack * self.base.dimension + self.base.index_of(site)


Window = TruncationWindow | AmplifiedWindow
