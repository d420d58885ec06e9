"""The unit index q in {1, 2}: is eps_2 * eps_r * eps_2r a square in Q(sqrt2, sqrt r)?

r = p1*p2 = 1 (mod 8), so the ring of integers of K = Q(sqrt2, sqrt r) is
Z[sqrt2, (1 + sqrt r)/2].  Every element the test meets is an algebraic
integer of K: the three units, their product and any square root of it.  So
twice its coordinates on the basis (1, sqrt2, sqrt r, sqrt 2r) are integers,
and they are all that is stored.  q = 2 exactly when E = eps_2*eps_r*eps_2r is
a square in K (Kubota, Nagoya Math. J. 10 (1956)).  N(eps_r) = +1 or
N(eps_2r) = +1 gives q = 1; otherwise E*E^sigma = eps_2^2, and a complete
descent through Z[sqrt2] from beta = +-(1 + sqrt2) either reconstructs a root,
certified by the full product, or proves that none exists.  Only integers are
involved anywhere.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


class MultiQuadElt(NamedTuple("MultiQuadElt", [("r", int), ("c", tuple[int, int, int, int])])):
    """(c0 + c1*sqrt(2) + c2*sqrt(r) + c3*sqrt(2r))/2, an algebraic integer of Q(sqrt2, sqrt r).

    The ci are the integer doubled coordinates; r = 1 (mod 8) makes c0 = c2 and
    c1 = c3 (mod 2) exactly the condition for the element to be integral.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, r: int, c: tuple[int, int, int, int]) -> "MultiQuadElt":
        c0, c1, c2, c3 = c
        if r % 8 != 1 or (c0 - c2) % 2 or (c1 - c3) % 2:
            raise ValueError(f"{c}/2 is not an integer of Q(sqrt2, sqrt{r})")
        return super().__new__(cls, r, c)

    @classmethod
    def from_unit(cls, unit: QuadUnit, r: int) -> "MultiQuadElt":
        u, v = 2 * unit.u // unit.w, 2 * unit.v // unit.w
        if unit.m == 2:
            return cls(r, (u, v, 0, 0))
        if unit.m == r:
            return cls(r, (u, 0, v, 0))
        if unit.m == 2 * r:
            return cls(r, (u, 0, 0, v))
        raise ValueError(f"unit of Q(sqrt {unit.m}) does not live in Q(sqrt2, sqrt{r})")

    def __mul__(self, other: "MultiQuadElt") -> "MultiQuadElt":
        r = self.r
        if r != other.r:
            raise TypeError(f"elements of Q(sqrt2, sqrt{r}) and Q(sqrt2, sqrt{other.r}) "
                            "do not mix")
        x0, x1, x2, x3 = self.c
        y0, y1, y2, y3 = other.c
        # the product of two doubled elements is four times the product: every sum is even
        return MultiQuadElt(
            r,
            (
                (x0 * y0 + 2 * x1 * y1 + r * x2 * y2 + 2 * r * x3 * y3) >> 1,
                (x0 * y1 + x1 * y0 + r * (x2 * y3 + x3 * y2)) >> 1,
                (x0 * y2 + x2 * y0 + 2 * (x1 * y3 + x3 * y1)) >> 1,
                (x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1) >> 1,
            ),
        )

    def conj_sqrt_r(self) -> "MultiQuadElt":
        """The conjugate fixing Q(sqrt 2): sqrt(r) -> -sqrt(r)."""
        c0, c1, c2, c3 = self.c
        return MultiQuadElt(self.r, (c0, c1, -c2, -c3))


# ---------------------------------------------------------------------------
# Exact square roots in Z[sqrt 2] and K
# ---------------------------------------------------------------------------


def _sqrt_z2(u: int, v: int) -> tuple[int, int] | None:
    """A root (x, y) of (x + y*sqrt2)^2 = u + v*sqrt2 in Z[sqrt2], or None if there is none.

    A root has x^2 + 2y^2 = u and x^2 - 2y^2 = +-isqrt(u^2 - 2v^2); each sign
    fixes x^2 and y^2, and the sign of y follows from 2xy = v.
    """
    disc = u * u - 2 * v * v
    if u < 0 or disc < 0:
        return None
    n = math.isqrt(disc)
    if n * n != disc:
        return None
    for x2 in ((u + n) // 2, (u - n) // 2):
        x, y = math.isqrt(x2), math.isqrt((u - x2) // 2)
        if v < 0:
            y = -y
        if x * x + 2 * y * y == u and 2 * x * y == v:
            return x, y
    return None


def exact_square_root(target: MultiQuadElt, beta=None) -> MultiQuadElt | None:
    """s with s*s = target exactly, or None when target is not a square; either root +-s.

    Exact and complete, by descent through Z[sqrt 2].  Write t = target and
    s = a + b*sqrt r with a, b in Q(sqrt2).  If t = s^2 then, with T = 2t on the
    stored coordinates:
      t + t^sigma = T0 + T1*sqrt2,   beta = +-sqrt(t*t^sigma) = +-(a^2 - r*b^2),
      (2a)^2 = t + t^sigma + 2*beta,   r*(2b)^2 = t + t^sigma - 2*beta,
    all in Z[sqrt2], and 2a, 2b are the stored coordinates of s.  Solving the
    three square roots exactly reconstructs s or proves no root exists.  The
    first of them is the relative-norm filter: t*t^sigma must be a square in
    Z[sqrt2]; a caller that knows beta = (x, y), x + y*sqrt2, skips it.  The
    zero target has beta = 0 and a = b = 0, so its root is zero.
    """
    r, conj = target.r, target.conj_sqrt_r()
    t0, t1, t2, t3 = (x + y >> 1 for x, y in zip(target.c, conj.c))
    if t2 or t3:  # t + t^sigma = T0 + T1*sqrt2
        raise UnitIndexError("t + t^sigma is not in Z[sqrt2]")
    if beta is None:
        norm = target * conj
        if norm.c[2] or norm.c[3]:
            raise UnitIndexError(f"t*t^sigma = {norm.c}/2 is not in Z[sqrt2]")
        beta = _sqrt_z2(norm.c[0] >> 1, norm.c[1] >> 1)
        if beta is None:
            return None
    for sign in (1, -1):
        b0, b1 = 2 * sign * beta[0], 2 * sign * beta[1]
        a = _sqrt_z2(t0 + b0, t1 + b1)
        if a is None or (t0 - b0) % r or (t1 - b1) % r:
            continue
        b = _sqrt_z2((t0 - b0) // r, (t1 - b1) // r)
        # a root is an integer of K: its coordinates must pass MultiQuadElt's parity check
        if b is None or (a[0] - b[0]) % 2 or (a[1] - b[1]) % 2:
            continue
        for s2 in (1, -1):
            cand = MultiQuadElt(r, (a[0], a[1], s2 * b[0], s2 * b[1]))
            if cand * cand == target:
                return cand
    return None


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

    q = 2 exactly when E = eps_2*eps_r*eps_2r is a square.  N(eps_r) = +1 settles
    q = 1, and so does N(eps_2r) = +1: sqrt2 -> -sqrt2 sends E below 0.  Otherwise
    E*E^sigma = eps_2^2 N(eps_r) N(eps_2r) = eps_2^2, and the square test starts
    from beta = +-(1 + sqrt2).  classify's q-agreement rule compares the result
    with q_from_symbols when (p1/p2) = -1.
    """
    if fundamental_unit(pair.r).norm == 1 or fundamental_unit(2 * pair.r).norm == 1:
        return 1
    return 2 if exact_square_root(unit_product(pair), (1, 1)) is not None else 1
