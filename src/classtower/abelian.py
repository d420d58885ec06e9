"""Abelian type invariants and structure extraction for finite abelian groups.

AbelianType is the canonical elementary-divisor chain (ascending, each divisor
dividing the next); it is the common currency every oracle and prediction is
compared in.  abelian_structure() recovers the chain of a concrete finite
abelian group from order statistics: if the type is (p^e1, ..., p^er) then
#{x : x^(p^k) = id} = p^(sum_i min(k, e_i)), so the counts of p^k-torsion
elements determine the exponent multiset; p_part_exponents() does this for
one prime.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

__all__ = ["AbelianType", "GroupCheckError", "abelian_structure", "factorize",
           "p_part_exponents", "power"]


class GroupCheckError(AssertionError):
    """A group computation contradicts itself; raised explicitly, so it survives python -O."""


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here are modest)."""
    if n <= 0:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class AbelianType(NamedTuple("AbelianType", [("divisors", tuple[int, ...])])):
    """Elementary divisor chain d1 | d2 | ... | dk, ascending, all di > 1.

    The empty chain is the trivial group.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, divisors: tuple[int, ...]) -> "AbelianType":
        for d in divisors:
            if d <= 1:
                raise ValueError(f"divisors must exceed 1, got {divisors}")
        for a, b in zip(divisors, divisors[1:]):
            if b % a != 0:
                raise ValueError(f"not a divisor chain: {divisors}")
        return super().__new__(cls, divisors)

    @classmethod
    def from_factors(cls, factors: Iterable[int]) -> "AbelianType":
        """Canonical type of a direct sum of cyclic groups of the given orders.

        Accepts any cyclic decomposition (e.g. a printed tuple like (30, 10, 2)
        or (2, 3)); per-prime exponents are realigned into a divisor chain.  Orders that
        are all powers of 2 are already the chain, sorted.
        """
        factors = tuple(factors)
        if all(isinstance(f, int) and f >= 1 and not f & (f - 1) for f in factors):
            return cls(tuple(sorted(f for f in factors if f > 1)))
        return cls._realigned(factors)

    @classmethod
    def _realigned(cls, factors: tuple) -> "AbelianType":
        """from_factors for any orders, by factorizing each and realigning the prime powers."""
        per_prime: dict[int, list[int]] = {}
        for f in factors:
            if f < 1:
                raise ValueError(f"cyclic orders must be >= 1, got {f}")
            if f == 1:
                continue
            for p, e in factorize(f).items():
                per_prime.setdefault(p, []).append(e)
        width = max((len(v) for v in per_prime.values()), default=0)
        chain = []
        for j in range(width):
            d = 1
            for p, exps in per_prime.items():
                exps_sorted = sorted(exps, reverse=True)
                if j < len(exps_sorted):
                    d *= p ** exps_sorted[j]
            chain.append(d)
        return cls(tuple(sorted(chain)))

    def order(self) -> int:
        n = 1
        for d in self.divisors:
            n *= d
        return n

    def rank(self) -> int:
        return len(self.divisors)

    def is_cyclic(self) -> bool:
        return len(self.divisors) <= 1

    def __str__(self) -> str:
        return "(" + ", ".join(str(d) for d in self.divisors) + ")"


def abelian_structure(
    elements: Sequence[Hashable],
    op: Callable,
    identity: Hashable,
) -> AbelianType:
    """Elementary divisors of a finite abelian group given by its elements and law."""
    n = len(elements)
    result = AbelianType.from_factors(
        p**e
        for p, e_max in factorize(n).items()
        for e in p_part_exponents(elements, op, identity, p, p**e_max)
    )
    if result.order() != n:
        raise GroupCheckError(f"structure {result} does not fill order {n}")
    return result


def p_part_exponents(elements, op, identity, p: int, sylow_order: int) -> list[int]:
    """Ascending exponents e_i of the p-part (p^e_1, ..., p^e_r) of a finite abelian group.

    Read off the p^k-torsion counts, which grow with k until they reach
    sylow_order, the order of the p-Sylow subgroup.
    """
    powers = list(elements)
    counts = [1]
    while counts[-1] < sylow_order:
        powers = [power(x, p, op, identity) for x in powers]
        c = sum(1 for x in powers if x == identity)
        if c == counts[-1]:
            break
        counts.append(c)
    # r_k = #{invariant factors with p-exponent >= k}
    ranks = []
    for prev, cur in zip(counts, counts[1:]):
        q, rem = divmod(cur, prev)
        if rem:
            raise GroupCheckError("torsion counts not p-power graded; group not abelian?")
        r = 0
        while q > 1:
            q //= p
            r += 1
        ranks.append(r)
    exponents: list[int] = []
    for k, r in enumerate(ranks, start=1):
        nxt = ranks[k] if k < len(ranks) else 0
        exponents.extend([k] * (r - nxt))
    return exponents


def power(x, e: int, op, identity):
    """x^e for e >= 0 by binary exponentiation under the group law op."""
    acc = None
    while e:
        if e & 1:
            acc = x if acc is None else op(acc, x)
        e >>= 1
        if e:
            x = op(x, x)
    return identity if acc is None else acc
