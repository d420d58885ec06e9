"""The unit index q in {1, 2}: is eps_2 * eps_r * eps_2r a square in Q(sqrt2, sqrt r)?

r = p1*p2.  Elements of the real multiquadratic field live on the exact basis
(1, sqrt2, sqrt r, sqrt 2r) with rational coefficients.  The square test is
exact and has one stage: a relative-norm filter (the norm to Q(sqrt2) of a
square is a square there), then a complete descent through Q(sqrt2) that
either reconstructs the root or proves that none exists.  The root is
normalised to a positive principal embedding by an integer-only sign test.
No floating point is involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .quadratic import QuadUnit, fundamental_unit
from .symbols import PrimePair, quartic_symbol, quartic_symbol_mod2

__all__ = [
    "MultiQuadElt",
    "UnitIndexError",
    "exact_square_root",
    "unit_index_q",
    "q_from_symbols",
]


class UnitIndexError(AssertionError):
    """A unit-index self-check failed; raised explicitly, so it survives python -O."""


def _same_field(x: "MultiQuadElt", y: "MultiQuadElt") -> None:
    if x.r != y.r:
        raise TypeError(f"elements of Q(sqrt2, sqrt{x.r}) and Q(sqrt2, sqrt{y.r}) do not mix")


@dataclass(frozen=True)
class MultiQuadElt:
    """c0 + c1*sqrt(2) + c2*sqrt(r) + c3*sqrt(2r) with exact rational ci."""

    r: int
    c: tuple[Fraction, Fraction, Fraction, Fraction]

    @classmethod
    def make(cls, r: int, c0=0, c1=0, c2=0, c3=0) -> "MultiQuadElt":
        return cls(r, (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3)))

    @classmethod
    def from_unit(cls, unit: QuadUnit, r: int) -> "MultiQuadElt":
        u, v = Fraction(unit.u, unit.w), Fraction(unit.v, unit.w)
        if unit.m == 2:
            return cls(r, (u, v, Fraction(0), Fraction(0)))
        if unit.m == r:
            return cls(r, (u, Fraction(0), v, Fraction(0)))
        if unit.m == 2 * r:
            return cls(r, (u, Fraction(0), Fraction(0), v))
        raise ValueError(f"unit of Q(sqrt {unit.m}) does not live in Q(sqrt2, sqrt{r})")

    def __add__(self, other: "MultiQuadElt") -> "MultiQuadElt":
        _same_field(self, other)
        return MultiQuadElt(self.r, tuple(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other: "MultiQuadElt") -> "MultiQuadElt":
        _same_field(self, other)
        return MultiQuadElt(self.r, tuple(a - b for a, b in zip(self.c, other.c)))

    def __mul__(self, other: "MultiQuadElt") -> "MultiQuadElt":
        _same_field(self, other)
        r = self.r
        x0, x1, x2, x3 = self.c
        y0, y1, y2, y3 = other.c
        return MultiQuadElt(
            r,
            (
                x0 * y0 + 2 * x1 * y1 + r * x2 * y2 + 2 * r * x3 * y3,
                x0 * y1 + x1 * y0 + r * (x2 * y3 + x3 * y2),
                x0 * y2 + x2 * y0 + 2 * (x1 * y3 + x3 * y1),
                x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1,
            ),
        )

    def conj_sqrt_r(self) -> "MultiQuadElt":
        """The conjugate fixing Q(sqrt 2): sqrt(r) -> -sqrt(r)."""
        c0, c1, c2, c3 = self.c
        return MultiQuadElt(self.r, (c0, c1, -c2, -c3))

    def __neg__(self) -> "MultiQuadElt":
        return MultiQuadElt(self.r, tuple(-x for x in self.c))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.c)

    def principal_sign(self) -> int:
        """The sign of c0 + c1*sqrt2 + c2*sqrt r + c3*sqrt 2r, exactly.

        With the coefficients scaled to integers a_i, each term
        a_i*sqrt(m_i)*scale lies within 1 of +-isqrt(a_i^2*m_i*scale^2);
        the scale doubles until the summed interval leaves 0.
        """
        if self.is_zero():
            raise ValueError("the zero element has no sign")
        den = math.lcm(*(x.denominator for x in self.c))
        terms = [
            (x.numerator * (den // x.denominator), m)
            for x, m in zip(self.c, (1, 2, self.r, 2 * self.r))
        ]
        scale = 1
        while True:
            lo = hi = 0
            for a, m in terms:
                t = math.isqrt(a * a * m * scale * scale)
                lo += t if a >= 0 else -t - 1
                hi += t + 1 if a >= 0 else -t
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            scale *= 2


# ---------------------------------------------------------------------------
# Exact square roots in Q and Q(sqrt 2)
# ---------------------------------------------------------------------------


def _sqrt_fraction(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _sqrt_in_q2(u: Fraction, v: Fraction) -> tuple[Fraction, Fraction] | None:
    """A root (x, y) of (x + y*sqrt2)^2 = u + v*sqrt2, if one exists in Q(sqrt2)."""
    if u == 0 and v == 0:
        return (Fraction(0), Fraction(0))
    t = _sqrt_fraction(u * u - 2 * v * v)
    if t is None:
        return None
    for tt in (t, -t):
        w = (u + tt) / 2
        x = _sqrt_fraction(w)
        if x is None:
            continue
        if x != 0:
            y = v / (2 * x)
            if x * x + 2 * y * y == u and 2 * x * y == v:
                return (x, y)
        elif v == 0:
            y = _sqrt_fraction(u / 2)
            if y is not None:
                return (Fraction(0), y)
    return None


def _q2_elt(elt: MultiQuadElt) -> tuple[Fraction, Fraction]:
    if elt.c[2] or elt.c[3]:
        raise UnitIndexError(f"not in Q(sqrt2): {elt.c}")
    return elt.c[0], elt.c[1]


def _sqrt_via_subfield(target: MultiQuadElt) -> MultiQuadElt | None:
    """Exact and complete square root by descent through Q(sqrt 2).

    If target = s^2 then s*s^sigma, s+s^sigma, s-s^sigma all square into
    explicitly computable elements of Q(sqrt2); solving those three square
    roots exactly reconstructs s or proves no root exists.  The first of
    them is the relative-norm filter: N(target) = target*target^sigma must be
    a square in Q(sqrt2).
    """
    r = target.r
    sigma = target.conj_sqrt_r()
    a_u, a_v = _q2_elt(target + sigma)
    b_u, b_v = _q2_elt(target * sigma)
    beta = _sqrt_in_q2(b_u, b_v)
    if beta is None:
        return None
    for sign in (1, -1):
        bu, bv = sign * beta[0], sign * beta[1]
        gamma = _sqrt_in_q2(a_u + 2 * bu, a_v + 2 * bv)  # = 2*(c0 + c1*sqrt2)
        if gamma is None:
            continue
        delta = _sqrt_in_q2(
            (a_u - 2 * bu) / (4 * r), (a_v - 2 * bv) / (4 * r)
        )  # = c2 + c3*sqrt2
        if delta is None:
            continue
        for s2 in (1, -1):
            cand = MultiQuadElt(
                r,
                (gamma[0] / 2, gamma[1] / 2, s2 * delta[0], s2 * delta[1]),
            )
            if (cand * cand).c == target.c:
                return cand
    return None


def exact_square_root(target: MultiQuadElt) -> MultiQuadElt | None:
    """s with s*s = target exactly, or None when target is not a square.

    Exact and one-stage: the Q(sqrt2) descent of `_sqrt_via_subfield`, whose
    first step is the relative-norm filter, either reconstructs a root and
    checks s*s = target, or proves that target is not a square.  Of the two
    roots +-s, the one with a positive principal embedding is returned.
    """
    if target.is_zero():
        return target
    root = _sqrt_via_subfield(target)
    if root is None or root.principal_sign() > 0:
        return root
    return -root


# ---------------------------------------------------------------------------
# The unit index
# ---------------------------------------------------------------------------


def unit_product(pair: PrimePair) -> MultiQuadElt:
    """eps_2 * eps_{p1p2} * eps_{2p1p2} on the exact basis."""
    r = pair.r
    e2 = MultiQuadElt.from_unit(fundamental_unit(2), r)
    er = MultiQuadElt.from_unit(fundamental_unit(r), r)
    e2r = MultiQuadElt.from_unit(fundamental_unit(2 * r), r)
    return e2 * er * e2r


def q_from_symbols(pair: PrimePair) -> int:
    """q by the quartic-symbol criterion, valid only when (p1/p2) = -1.

    q = 2 iff (p1p2/2)_4 (2p1/p2)_4 (2p2/p1)_4 = -1.
    """
    if pair.legendre != -1:
        raise ValueError(
            f"symbol criterion for q needs (p1/p2) = -1, pair {pair} has +1"
        )
    p1, p2 = pair.p1, pair.p2
    prod = (
        quartic_symbol_mod2(p1 * p2)
        * quartic_symbol(2 * p1 % p2, p2)
        * quartic_symbol(2 * p2 % p1, p1)
    )
    return 2 if prod == -1 else 1


def unit_index_q(pair: PrimePair) -> int:
    """The unit index q = q(Q(sqrt2, sqrt r)/Q) in {1, 2}, r = p1*p2.

    q = 2 exactly when eps_2*eps_r*eps_2r is a square in the real field.
    N(eps_r) = +1 settles q = 1 outright; otherwise the exact square test
    decides.  classify's q-agreement rule compares the result with
    q_from_symbols when (p1/p2) = -1.
    """
    if fundamental_unit(pair.r).norm == 1:
        return 1
    return 2 if exact_square_root(unit_product(pair)) is not None else 1
