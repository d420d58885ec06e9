"""Independent oracles for quadratic fields: fundamental units and class groups.

Units come from the continued fraction of sqrt(m) (or (1+sqrt(m))/2 when
m = 1 mod 4), giving the fundamental unit of the maximal order together with
its norm, which must match the period parity (-1)^l.

Class groups are binary quadratic form groups under Dirichlet composition:
all reduced definite forms for D < 0, cycles of reduced indefinite forms
under the rho step for D > 0 (narrow group, then the wide quotient by the
class of the negated principal form).  Only the order h and the 2-Sylow
subgroup are computed: the reduced forms are counted, and the 2-Sylow is the
small group generated by forms raised to the odd part of h (Cohen, A Course
in Computational Algebraic Number Theory, 5.3-5.4).  No analytic input
anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .abelian import AbelianType, p_part_exponents, power
from .symbols import PrimePair

__all__ = [
    "QuadUnit",
    "BQForm",
    "ClassGroup",
    "ClassGroupError",
    "fundamental_unit",
    "norm_eps",
    "field_discriminant",
    "class_group",
    "class_number",
    "two_part_of_class_group",
    "exponents_mn",
    "DISCRIMINANT_BOUND",
    "DiscriminantBoundError",
]

DISCRIMINANT_BOUND = 10**8


def is_squarefree(m: int) -> bool:
    if m <= 0:
        raise ValueError(f"is_squarefree needs m > 0, got {m}")
    if m % 4 == 0:
        return False
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def field_discriminant(m: int) -> int:
    """Discriminant of Q(sqrt(m)) for squarefree m: m if m = 1 (mod 4), else 4m."""
    return m if m % 4 == 1 else 4 * m


# ---------------------------------------------------------------------------
# Fundamental units by continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadUnit:
    """Fundamental unit (u + v*sqrt(m))/w of the maximal order of Q(sqrt(m))."""

    u: int
    v: int
    w: int  # 1, or 2 when m = 1 (mod 4) and u, v are both odd
    m: int
    norm: int

    def __post_init__(self) -> None:
        assert (self.u * self.u - self.m * self.v * self.v) == self.norm * self.w * self.w
        assert self.norm in (1, -1)
        assert self.u > 0 and self.v > 0

    def __str__(self) -> str:
        body = f"{self.u} + {self.v}*sqrt({self.m})"
        return body if self.w == 1 else f"({body})/2"


@lru_cache(maxsize=None)
def fundamental_unit(m: int) -> QuadUnit:
    """Fundamental unit of O_{Q(sqrt(m))} via the continued fraction expansion.

    Expands omega = (1+sqrt(m))/2 for m = 1 (mod 4), else omega = sqrt(m).
    If l is the period, the convergent p/q ending just before the period
    closes gives eps = p - q*conj(omega), and N(eps) = (-1)^l; both the norm
    identity and the parity law are asserted.
    """
    if m <= 1 or not is_squarefree(m):
        raise ValueError(f"fundamental_unit needs squarefree m > 1, got {m}")
    s = math.isqrt(m)
    half = m % 4 == 1  # omega = (1 + sqrt(m))/2
    P, Q = (1, 2) if half else (0, 1)
    a = (P + s) // Q
    # convergents h_k = a_k h_{k-1} + h_{k-2}
    p1, p2 = 1, 0
    q1, q2 = 0, 1
    first = None
    k = 0
    while True:
        if k >= 1:
            if first is None:
                first = (P, Q)
            elif (P, Q) == first:
                period = k - 1
                break
        p1, p2 = a * p1 + p2, p1
        q1, q2 = a * q1 + q2, q1
        P = a * Q - P
        Q = (m - P * P) // Q
        a = (P + s) // Q
        k += 1
    p, q = p2, q2  # convergent of index period-1 (a_0 included)
    if half:
        # eps = p - q*(1 - sqrt(m))/2
        u, v, w = 2 * p - q, q, 2
        if u % 2 == 0 and v % 2 == 0:
            u, v, w = u // 2, v // 2, 1
    else:
        u, v, w = p, q, 1
    norm = (u * u - m * v * v) // (w * w)
    parity_norm = 1 if period % 2 == 0 else -1
    assert norm == parity_norm, f"norm/period mismatch for m={m}: {norm} vs l={period}"
    return QuadUnit(u, v, w, m, norm)


def norm_eps(m: int) -> int:
    """N(eps_m) in {+1, -1} for the fundamental unit of Q(sqrt(m))."""
    return fundamental_unit(m).norm


# ---------------------------------------------------------------------------
# Binary quadratic forms and Dirichlet composition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BQForm:
    a: int
    b: int
    c: int

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def content(self) -> int:
        return math.gcd(math.gcd(abs(self.a), abs(self.b)), abs(self.c))

    def inverse(self) -> "BQForm":
        return BQForm(self.a, -self.b, self.c)

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def key(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


def principal_form(D: int) -> BQForm:
    k = D % 2
    return BQForm(1, k, (k * k - D) // 4)


def _crt(r1: int, m1: int, r2: int, m2: int) -> int:
    """x = r1 (mod m1), x = r2 (mod m2); moduli positive, need not be coprime."""
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise ValueError("inconsistent congruences")
    if m2 == g:
        return r1 % m1
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g)
    return (r1 + m1 * t) % (m1 // g * m2)


def compose(f1: BQForm, f2: BQForm) -> BQForm:
    """Dirichlet composition of primitive forms of one discriminant.

    f2 is first replaced by a properly equivalent form whose leading
    coefficient is coprime to a1; then the composite is (a1*a2, B, *) with
    B = b1 (mod 2|a1|) and B = b2 (mod 2|a2|) (united-forms construction).
    """
    D = f1.disc()
    assert f2.disc() == D
    f2 = _coprime_representative(f2, f1.a)
    a1, b1 = f1.a, f1.b
    a2, b2 = f2.a, f2.b
    n1, n2 = 2 * abs(a1), 2 * abs(a2)
    B = _crt(b1 % n1, n1, b2 % n2, n2)
    A = a1 * a2
    num = B * B - D
    assert num % (4 * A) == 0
    return BQForm(A, B, num // (4 * A))


def _coprime_representative(f: BQForm, n: int) -> BQForm:
    """A form properly equivalent to f whose leading coefficient is coprime to n.

    Primitive forms represent values coprime to any modulus, so a small search
    over primitive (x, y) always succeeds.
    """
    n = abs(n)
    if math.gcd(f.a, n) == 1:
        return f
    bound = 2
    while bound <= 1 << 20:
        for x in range(0, bound + 1):
            for y in range(-bound, bound + 1):
                if math.gcd(x, y) != 1:
                    continue
                val = f.value(x, y)
                if val != 0 and math.gcd(val, n) == 1:
                    return _transform(f, x, y)
        bound *= 2
    raise AssertionError(f"no representative of {f} coprime to {n}; form primitive?")


def _transform(f: BQForm, x: int, y: int) -> BQForm:
    """Apply the unimodular substitution with first column (x, y), gcd(x, y) = 1."""
    g, u0, v0 = _xgcd(x, y)
    assert g == 1
    u, v = -v0, u0  # det [[x, u], [y, v]] = 1
    a = f.value(x, y)
    b = 2 * (f.a * x * u + f.c * y * v) + f.b * (x * v + y * u)
    c = f.value(u, v)
    out = BQForm(a, b, c)
    assert out.disc() == f.disc()
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# --- definite forms (D < 0): reduction and enumeration ----------------------


def reduce_definite(f: BQForm) -> BQForm:
    a, b, c = f.a, f.b, f.c
    assert a > 0 and f.disc() < 0
    while True:
        if not (-a < b <= a):
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return BQForm(a, b, c)


def _reduced_definite_forms(D: int) -> list[BQForm]:
    """All reduced primitive positive definite forms of discriminant D < 0."""
    forms = []
    b = D & 1
    while 3 * b * b <= -D:
        n = (b * b - D) // 4  # = a*c
        for a in [a for a in range(max(b, 1), math.isqrt(n) + 1) if n % a == 0]:
            c = n // a
            if math.gcd(a, b, c) == 1:
                forms.append(BQForm(a, b, c))
                if 0 < b < a < c:
                    forms.append(BQForm(a, -b, c))
        b += 2
    return forms


# --- indefinite forms (D > 0): rho reduction and cycles ---------------------


def _is_reduced_indefinite(a: int, b: int, s: int) -> bool:
    # reduced <=> |sqrt(D) - 2|a|| < b < sqrt(D); exact via s = isqrt(D)
    return 1 <= b <= s and 2 * abs(a) - b <= s and 2 * abs(a) + b >= s + 1


def rho_step(f: BQForm, s: int) -> BQForm:
    """One rho step; reduces arbitrary forms and walks cycles of reduced ones."""
    D = f.disc()
    c = f.c
    ac = abs(c)
    if ac <= s:  # choose b' = -b (mod 2|c|) maximal below sqrt(D)
        b_new = s - (s + f.b) % (2 * ac)
    else:  # choose b' in (-|c|, |c|]
        b_new = (-f.b) % (2 * ac)
        if b_new > ac:
            b_new -= 2 * ac
    return BQForm(c, b_new, (b_new * b_new - D) // (4 * c))


def reduce_indefinite(f: BQForm) -> BQForm:
    s = math.isqrt(f.disc())
    while not _is_reduced_indefinite(f.a, f.b, s):
        f = rho_step(f, s)
    return f


def _reduced_indefinite_forms(D: int) -> list[BQForm]:
    forms = []
    s = math.isqrt(D)
    b = 2 - (D & 1)
    while b <= s:
        if (D - b * b) % 4 == 0:
            n = (D - b * b) // 4  # = |a*c|, with a*c < 0
            for u in [u for u in range(1, math.isqrt(n) + 1) if n % u == 0]:
                for aa in {u, n // u}:
                    if 2 * aa - b <= s and 2 * aa + b >= s + 1:
                        cc = n // aa
                        if math.gcd(aa, b, cc) == 1:
                            forms.append(BQForm(aa, b, -cc))
                            forms.append(BQForm(-aa, b, cc))
        b += 2
    return forms


# ---------------------------------------------------------------------------
# Class groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassGroup:
    """Order and 2-part of the form class group of discriminant D (wide for D > 0)."""

    D: int
    order: int
    two_part: AbelianType
    narrow_order: int  # = order for D < 0


class ClassGroupError(AssertionError):
    """A class-group self-check failed; an oracle bug, not an unusual input."""


class DiscriminantBoundError(ValueError):
    """|D| exceeds DISCRIMINANT_BOUND, beyond which forms are not enumerated."""


def _validate_disc(D: int) -> None:
    if D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a discriminant (need 0 or 1 mod 4)")
    if D == 0 or (D > 0 and math.isqrt(D) ** 2 == D):
        raise ValueError(f"invalid discriminant {D}: perfect square")
    if abs(D) > DISCRIMINANT_BOUND:
        raise DiscriminantBoundError(f"|D| = {abs(D)} exceeds bound {DISCRIMINANT_BOUND}")


class _DefiniteGroup:
    def __init__(self, D: int):
        forms = _reduced_definite_forms(D)
        self.elements = sorted(forms, key=BQForm.key)
        assert len(set(self.elements)) == len(forms), f"duplicate reduced forms, D={D}"
        self.identity = reduce_definite(principal_form(D))

    def op(self, x: BQForm, y: BQForm) -> BQForm:
        return reduce_definite(compose(x, y))


class _CycleGroup:
    """Narrow class group of D > 0: cycles of reduced forms under rho."""

    def __init__(self, D: int):
        self.s = math.isqrt(D)
        reduced = _reduced_indefinite_forms(D)
        cycle_of: dict[BQForm, int] = {}
        reps: list[BQForm] = []
        for f in reduced:
            if f in cycle_of:
                continue
            idx = len(reps)
            reps.append(f)
            g = f
            while True:
                assert g not in cycle_of or cycle_of[g] == idx
                cycle_of[g] = idx
                g = rho_step(g, self.s)
                if g == f:
                    break
        assert len(cycle_of) == len(reduced), f"rho left the reduced set, D={D}"
        self._cycle_of = cycle_of
        self._reps = reps
        self.elements = list(range(len(reps)))
        self.identity = self.cls(principal_form(D))

    def cls(self, f: BQForm) -> int:
        return self._cycle_of[reduce_indefinite(f)]

    def op(self, x: int, y: int) -> int:
        return self.cls(compose(self._reps[x], self._reps[y]))

    def negated_principal_class(self) -> int:
        D = self._reps[0].disc()
        k = D % 2
        return self.cls(BQForm(-1, k, (D - k * k) // 4))


def _two_sylow(elements, op, identity, h: int) -> list:
    """Elements of the 2-Sylow subgroup of an abelian group of order h = 2^e * u, u odd.

    x -> x^u maps the group onto its 2-Sylow subgroup: the elements' u-th powers
    are adjoined in turn, coset by coset, until the subgroup has 2^e elements.
    Raises ClassGroupError unless it ends on exactly 2^e; each order reached
    divides the next, so an overshoot or an odd factor is never undone.
    """
    target = h & -h
    u = h // target
    sub = [identity]
    members = {identity}
    for x in elements:
        if len(sub) >= target:
            break
        g = power(x, u, op, identity)
        base = list(sub)
        y = g
        while y not in members:  # adjoin the coset y*<sub> for y = g, g^2, ...
            coset = [op(y, s) for s in base]
            sub.extend(coset)
            members.update(coset)
            y = op(y, g)
    if len(sub) != target:
        raise ClassGroupError(f"u-th powers generate {len(sub)} elements, not 2^v2(h) = "
                              f"{target} (h = {h})")
    return sub


def _quotient_by_involution(elements, op, identity, j):
    """Quotient of an abelian group of narrow classes by {identity, j}, j of order <= 2."""
    if j == identity:
        return elements, op, identity
    assert op(j, j) == identity
    rep = {x: min(x, op(x, j)) for x in elements}
    return sorted(set(rep.values())), lambda x, y: rep[op(x, y)], rep[identity]


@lru_cache(maxsize=None)
def class_group(D: int) -> ClassGroup:
    """Order and 2-part of the form class group of discriminant D (wide for D > 0).

    The narrow order is the number of reduced forms (D < 0) or of rho cycles
    (D > 0), and the 2-Sylow subgroup is generated in the narrow group.  For
    D > 0 the wide group is its quotient by the class j of the negated
    principal form; for squarefree radicands j is trivial exactly when
    N(eps) = -1, checked against the unit oracle as an independent cross-check.
    """
    _validate_disc(D)
    grp = _DefiniteGroup(D) if D < 0 else _CycleGroup(D)
    narrow_order = len(grp.elements)
    op, identity = grp.op, grp.identity
    sylow = _two_sylow(grp.elements, op, identity, narrow_order)
    order = narrow_order
    if D > 0:
        j = grp.negated_principal_class()
        m = D if D % 4 == 1 else D // 4
        if is_squarefree(m) and (j == identity) != (norm_eps(m) == -1):
            raise ClassGroupError(f"D={D}: negated-principal class trivial is "
                                  f"{j == identity}, but N(eps) = {norm_eps(m)}")
        if j != identity:
            order //= 2
        sylow, op, identity = _quotient_by_involution(sylow, op, identity, j)
    exponents = p_part_exponents(sylow, op, identity, 2, len(sylow))
    return ClassGroup(D, order, AbelianType(tuple(2**e for e in exponents)), narrow_order)


def class_number(D: int) -> int:
    return class_group(D).order


def two_part_of_class_group(D: int) -> AbelianType:
    return class_group(D).two_part


def exponents_mn(pair: PrimePair) -> tuple[int, int]:
    """(m, n) with 2^(m+1) = h(-p1p2) and 2^n = h(p1p2) as 2-class numbers.

    Fails loudly if the guaranteed bounds m >= 2, n >= 1 are violated; that
    would be an oracle bug, not an unusual pair.
    """
    r = pair.r
    h_minus_two = two_part_of_class_group(field_discriminant(-r)).order()
    h_plus_two = two_part_of_class_group(field_discriminant(r)).order()
    m = h_minus_two.bit_length() - 2
    n = h_plus_two.bit_length() - 1
    if m < 2:
        raise AssertionError(f"m={m} < 2 for pair {pair}; oracle bug")
    if n < 1:
        raise AssertionError(f"n={n} < 1 for pair {pair}; oracle bug")
    return m, n
