"""Picard lattices of iterated blow-ups of the plane and of Hirzebruch
surfaces: intersection form, canonical class, r-class predicate and complete
bounded enumeration, duality, blow-up bookkeeping, and divisor transport.

A surface model is purely numerical: a base (``P2`` or ``F<d>``) plus an
ordered list of orbit sizes of point blow-ups.  The basis is (H, E1..En)
over the plane and (s, h, E1..En) over F_d, with H^2 = 1, E_i^2 = -1,
s^2 = -d, s.h = 1, h^2 = 0 and all mixed products zero.

The form is -1 on the diagonal tail (E1..En) behind a 1x1 or 2x2 head, so
``SurfaceModel.intersect`` evaluates it in closed form, in O(n):

    P2:   x.y = x0*y0 - sum_i x_i*y_i
    F_d:  x.y = x0*y1 + x1*y0 - d*x0*y0 - sum_i x_i*y_i

with the sums over the tail.  ``SurfaceModel.gram`` is the same form as a
matrix, for the callers that act on the lattice with matrices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from operator import mul, neg
from typing import Iterable

from .errors import InputError, UnsupportedRangeError

_BASE_RE = re.compile(r"^(P2|F(\d+))$")

MAX_BLOWN_POINTS = 100  # far above the 9 of any catalog model; keeps Picard matrices small
_QUOTE_LIMIT = 200  # characters of an input text that an error message quotes


def _quote(text: str) -> str:
    """`repr(text)`, cut to _QUOTE_LIMIT characters and the length if longer."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


def _shown(text: str) -> str:
    """`text` as an error message shows a number: as it is, or through
    `_quote` when longer than _QUOTE_LIMIT characters."""
    return text if len(text) <= _QUOTE_LIMIT else _quote(text)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"expected an integer, got {_quote(text)}") from None


@dataclass(frozen=True)
class DivisorClass:
    """Integer vector in a surface basis; arithmetic is componentwise."""

    coords: tuple[int, ...]

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coords))

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(tuple(k * a for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True)
class SurfaceModel:
    base: str
    blowup_orbits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        m = _BASE_RE.match(self.base)
        if not m:
            raise InputError(f"unknown base {self.base!r}; expected P2 or F<d>")
        if m.group(2) is not None:
            # F01 and F1 are one surface: one spelling for describe, == and the hash
            object.__setattr__(self, "base", "F" + (m.group(2).lstrip("0") or "0"))
        object.__setattr__(self, "blowup_orbits", tuple(int(k) for k in self.blowup_orbits))
        if any(k < 1 for k in self.blowup_orbits):
            raise InputError("orbit sizes must be positive")
        points = sum(self.blowup_orbits)
        if points > MAX_BLOWN_POINTS:
            count = points if points < 2**64 else f"over 2^{points.bit_length() - 1}"
            raise InputError(f"{count} blown-up points, above the bound of {MAX_BLOWN_POINTS}")

    # -- basic shape -------------------------------------------------------

    @cached_property
    def hirzebruch_d(self) -> int | None:
        m = _BASE_RE.match(self.base)
        return _parse_int(m.group(2)) if m.group(2) is not None else None

    @cached_property
    def base_rank(self) -> int:
        return 1 if self.hirzebruch_d is None else 2

    @cached_property
    def num_blown(self) -> int:
        return sum(self.blowup_orbits)

    @cached_property
    def picard_rank(self) -> int:
        return self.base_rank + self.num_blown

    @cached_property
    def labels(self) -> tuple[str, ...]:
        head = ("H",) if self.hirzebruch_d is None else ("s", "h")
        return head + tuple(f"E{i + 1}" for i in range(self.num_blown))

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        n = self.picard_rank
        g = [[0] * n for _ in range(n)]
        if self.hirzebruch_d is None:
            g[0][0] = 1
        else:
            g[0][0] = -self.hirzebruch_d
            g[0][1] = g[1][0] = 1
        for i in range(self.base_rank, n):
            g[i][i] = -1
        return tuple(tuple(row) for row in g)

    @cached_property
    def canonical(self) -> DivisorClass:
        ones = (1,) * self.num_blown
        if self.hirzebruch_d is None:
            return DivisorClass((-3,) + ones)
        return DivisorClass((-2, -(2 + self.hirzebruch_d)) + ones)

    @cached_property
    def degree(self) -> int:
        return self.intersect(self.canonical, self.canonical)

    def orbit_ranges(self) -> list[range]:
        out = []
        start = self.base_rank
        for k in self.blowup_orbits:
            out.append(range(start, start + k))
            start += k
        return out

    # -- divisor construction ----------------------------------------------

    def divisor(self, coeffs: Iterable[int]) -> DivisorClass:
        c = tuple(int(x) for x in coeffs)
        if len(c) != self.picard_rank:
            raise InputError(
                f"expected {self.picard_rank} coefficients, got {len(c)}"
            )
        return DivisorClass(c)

    def basis_class(self, label: str) -> DivisorClass:
        if label == "K":
            return self.canonical
        try:
            i = self.labels.index(label)
        except ValueError:
            raise InputError(f"no basis class {label!r} on {self.describe()}") from None
        return DivisorClass(tuple(int(j == i) for j in range(self.picard_rank)))

    def zero_divisor(self) -> DivisorClass:
        return DivisorClass((0,) * self.picard_rank)

    def exceptional_classes(self) -> list[DivisorClass]:
        return [self.basis_class(f"E{i + 1}") for i in range(self.num_blown)]

    def describe(self) -> str:
        if not self.blowup_orbits:
            return self.base
        inner = ",".join(str(k) for k in self.blowup_orbits)
        return f"{self.base}[{inner}]"

    # -- the bilinear form and the r-class predicate ------------------------

    def intersect(self, a: DivisorClass, b: DivisorClass) -> int:
        if len(a.coords) != self.picard_rank or len(b.coords) != self.picard_rank:
            raise InputError("divisor does not live on this surface (length mismatch)")
        x, y = a.coords, b.coords
        d = self.hirzebruch_d
        if d is None:
            return x[0] * y[0] - sum(map(mul, x[1:], y[1:]))
        return x[0] * y[1] + x[1] * y[0] - d * x[0] * y[0] - sum(map(mul, x[2:], y[2:]))

    def r_class_value(self, d: DivisorClass) -> int | None:
        self_int = self.intersect(d, d)
        if self_int + self.intersect(d, self.canonical) == -2:
            return self_int
        return None

    # -- enumeration ---------------------------------------------------------

    def enumerate_r_classes(self, r: int) -> set[DivisorClass]:
        if r not in (-2, -1, 0, 1):
            raise InputError(f"r must be one of -2,-1,0,1, got {_shown(str(r))}")
        if self.degree < 3 and r >= 0:
            raise UnsupportedRangeError(
                f"complete enumeration of {r}-classes is only supported in degree >= 3 "
                f"(surface {self.describe()} has degree {self.degree})"
            )
        return self._r_classes_any_degree(r)

    def _r_classes_any_degree(self, r: int) -> set[DivisorClass]:
        """All r-classes, by a complete bounded search; sound whenever
        K^2 >= 1, where the Cauchy-Schwarz bound on the exceptional part
        closes the window.  The exceptional parts come from one memo of
        (n, s, q) subproblems, kept for this call only."""
        if self.degree < 1:
            raise UnsupportedRangeError(
                f"enumeration needs degree >= 1, surface {self.describe()} has {self.degree}"
            )
        c = 2 + r
        n = self.num_blown
        memo: dict = {}
        found: set[DivisorClass] = set()
        if self.hirzebruch_d is None:
            # D = a.H - sum b_i E_i with sum b = 3a - c, sum b^2 = a^2 - r
            for a in _quad_solutions(9 - n, -6 * c, c * c + n * r):
                s, q = 3 * a - c, a * a - r
                if q < 0:
                    continue
                for b in _vectors_with_sum_and_square(n, s, q, memo):
                    found.add(DivisorClass((a,) + tuple(map(neg, b))))
            return found
        d = self.hirzebruch_d
        # D = alpha.h + beta.s - sum b_i E_i
        for beta in _quad_solutions(8 - n, -4 * c, 4 * r):
            a2 = 4
            a1 = -(4 * (d - 2) * beta + 2 * n * beta + 4 * c)
            a0 = ((d - 2) ** 2 + n * d) * beta ** 2 + 2 * (d - 2) * c * beta + c * c + n * r
            for alpha in _quad_solutions(a2, a1, a0):
                s = 2 * alpha - (d - 2) * beta - c
                q = 2 * alpha * beta - d * beta ** 2 - r
                if q < 0:
                    continue
                for b in _vectors_with_sum_and_square(n, s, q, memo):
                    found.add(DivisorClass((beta, alpha) + tuple(map(neg, b))))
        return found


def apply_divisor_matrix(surface: SurfaceModel, mat, d: DivisorClass) -> DivisorClass:
    """The image of `d` under a matrix on divisor coordinates (its columns
    are the images of the basis classes): one matrix-vector product."""
    if len(mat) != surface.picard_rank:
        raise InputError(f"expected {surface.picard_rank} coefficients, got {len(mat)}")
    return DivisorClass(tuple(sum(map(mul, row, d.coords)) for row in mat))


def _quad_solutions(a2: int, a1: int, a0: int) -> list[int]:
    """All integers x with a2*x^2 + a1*x + a0 <= 0, for a2 > 0."""
    if a2 <= 0:
        raise ValueError("window is unbounded")
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return []
    s = isqrt(disc)
    lo = (-a1 - s) // (2 * a2) - 1
    hi = (-a1 + s) // (2 * a2) + 2
    return [x for x in range(lo, hi + 1) if a2 * x * x + a1 * x + a0 <= 0]


def _vectors_with_sum_and_square(n: int, s: int, q: int, memo: dict) -> list[tuple[int, ...]]:
    """All integer vectors of length n with sum s and sum of squares q.

    Prefixes with equal sums and equal square sums leave the same (n, s, q)
    subproblem for the rest, so each is solved once: `memo` maps (n, s, q)
    to its list, and the caller decides how long the memo lives."""
    key = (n, s, q)
    found = memo.get(key)
    if found is not None:
        return found
    if n == 0:
        found = [()] if s == 0 and q == 0 else []
    elif n == 1:
        found = [(s,)] if s * s == q else []
    else:
        found = []
        # (s - b)^2 <= (n-1)(q - b^2) prunes the head coordinate
        for b in _quad_solutions(n, -2 * s, s * s - (n - 1) * q):
            if b * b <= q:
                rests = _vectors_with_sum_and_square(n - 1, s - b, q - b * b, memo)
                found += [(b,) + rest for rest in rests]
    memo[key] = found
    return found
