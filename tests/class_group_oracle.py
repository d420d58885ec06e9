"""Test-only oracle: form class groups by enumerating every reduced form.

This is the counting path that classtower.quadratic used before it computed
2-Sylow subgroups by genus theory and square roots.  It enumerates all reduced
definite forms (D < 0) or walks every rho cycle of reduced indefinite forms
(D > 0, narrow group), so it costs about |D|^(1/2) and is kept here only to
check the descent against: the order h, the narrow order, the 2-Sylow subgroup
generated by u-th powers (h = 2^e * u, u odd) and the full structure.

continued_fraction_unit is the (P, Q) continued-fraction expansion that
classtower.quadratic used for fundamental units before it read them off the
walk of the principal cycle; it is kept to check that walk against.
full_principal_cycle is the whole walk of the principal cycle that
classtower.quadratic used before it stopped at the cycle's symmetric point; it
is kept to check the half walk against.  signed_principal_cycle is that half
walk as it was before it kept only |a|, |c| and |Y|, and tonelli_shanks the
square root mod p that classtower.symbols.sqrt_mod was before it shared one
power between x and t; both are verbatim copies, kept to check the leaner
kernels against.  recursive_legendre (with squarefree_split), search_square_root
(with odd_prime_prime_to), jacobi_genus_vector and odd_part_two_character are the
recursive Lagrange descent, the square root of a form and the genus characters as
they were before the descent became one loop, the searches read the vector table
directly and the characters came from Euler's criterion and D mod 32; they are
verbatim copies too.
"""

from __future__ import annotations

import math

from classtower.abelian import AbelianType, abelian_structure, factorize, p_part_exponents, power
from classtower.quadratic import (
    BQForm,
    ClassGroupError,
    QuadUnit,
    _reduced_principal,
    _rho,
    _search_vectors,
    _transform,
    compose,
    field_discriminant,
    principal_form,
    reduce_definite,
    reduce_indefinite,
)
from classtower.symbols import is_prime, jacobi, sqrt_mod


def reduced_definite_forms(D: int) -> list[BQForm]:
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


def reduced_indefinite_forms(D: int) -> list[BQForm]:
    """All reduced primitive indefinite forms of discriminant D > 0."""
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


class DefiniteGroup:
    """Class group of D < 0: the reduced forms under composition."""

    def __init__(self, D: int):
        forms = reduced_definite_forms(D)
        self.elements = sorted(forms, key=tuple)
        assert len(set(self.elements)) == len(forms), f"duplicate reduced forms, D={D}"
        self.identity = reduce_definite(principal_form(D))

    def op(self, x: BQForm, y: BQForm) -> BQForm:
        return reduce_definite(compose(x, y))


def disc(f: BQForm) -> int:
    """The discriminant b^2 - 4ac of f."""
    a, b, c = f
    return b * b - 4 * a * c


def rho_step(f: BQForm, s: int) -> BQForm:
    """One rho step; reduces arbitrary forms and walks cycles of reduced ones."""
    return BQForm(f.c, *_rho(f.b, f.c, disc(f), s))


class CycleGroup:
    """Narrow class group of D > 0: cycles of reduced forms under rho."""

    def __init__(self, D: int):
        self.s = math.isqrt(D)
        reduced = reduced_indefinite_forms(D)
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
        D = disc(self._reps[0])
        k = D % 2
        return self.cls(BQForm(-1, k, (D - k * k) // 4))


def two_sylow(elements, op, identity, h: int) -> list:
    """Elements of the 2-Sylow subgroup of an abelian group of order h = 2^e * u, u odd.

    x -> x^u maps the group onto its 2-Sylow subgroup: the elements' u-th powers
    are adjoined in turn, coset by coset, until the subgroup has 2^e elements.
    Raises ClassGroupError unless it ends on exactly 2^e.
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


def quotient_by_involution(elements, op, identity, j):
    """Quotient of an abelian group of narrow classes by {identity, j}, j of order <= 2."""
    if j == identity:
        return elements, op, identity
    assert op(j, j) == identity
    rep = {x: min(x, op(x, j)) for x in elements}
    return sorted(set(rep.values())), lambda x, y: rep[op(x, y)], rep[identity]


def group_law(D: int):
    """(elements, op, identity) of the narrow class group of discriminant D."""
    grp = DefiniteGroup(D) if D < 0 else CycleGroup(D)
    return list(grp.elements), grp.op, grp.identity


def counting_class_group(D: int) -> tuple[int, int, AbelianType]:
    """(h, narrow h, 2-part of the wide group) by counting, as the old class_group did."""
    grp = DefiniteGroup(D) if D < 0 else CycleGroup(D)
    narrow_order = len(grp.elements)
    op, identity = grp.op, grp.identity
    sylow = two_sylow(grp.elements, op, identity, narrow_order)
    order = narrow_order
    if D > 0:
        j = grp.negated_principal_class()
        if j != identity:
            order //= 2
        sylow, op, identity = quotient_by_involution(sylow, op, identity, j)
    exponents = p_part_exponents(sylow, op, identity, 2, len(sylow))
    return order, narrow_order, AbelianType(tuple(2**e for e in exponents))


def full_structure(D: int) -> AbelianType:
    """Full structure of the (wide) class group over every element."""
    elements, op, one = group_law(D)
    if D > 0:
        j = CycleGroup(D).negated_principal_class()
        elements, op, one = quotient_by_involution(elements, op, one, j)
    return abelian_structure(elements, op, one)


def continued_fraction_unit(m: int) -> QuadUnit:
    """Fundamental unit of O_{Q(sqrt(m))} via the continued fraction expansion.

    Expands omega = (1+sqrt(m))/2 for m = 1 (mod 4), else omega = sqrt(m).
    If l is the period, the convergent p/q ending just before the period
    closes gives eps = p - q*conj(omega), and N(eps) = (-1)^l; both the norm
    identity and the parity law are checked (ClassGroupError).
    """
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
    if norm != parity_norm:
        raise ClassGroupError(f"norm/period mismatch for m={m}: {norm} vs l={period}")
    return QuadUnit(u, v, w, m, norm)


def full_principal_cycle(m: int) -> tuple[QuadUnit, int, tuple[int, ...]]:
    """(eps, l, ambiguous) from the whole walk of the principal rho cycle of D = field_discriminant(m).

    The l rho steps from the reduced principal form (1, b_0, c_0) to the first
    form with |a| = 1 are the period.  Starting from (q, q') = (1, 0), every
    step (a, b, c) -> (c, b', c') but the last sets (q, q') to (t q + q', q)
    with t = (b + b')/(2|c|); then eps = (q b_0 + 2q' + q sqrt(D))/2 and
    N(eps) = (-1)^l, which is checked.  ambiguous holds the signed a of the
    ambiguous forms (a | b) among the l forms before the last.
    """
    D = field_discriminant(m)
    s = math.isqrt(D)
    a, b0, c = reduce_indefinite(principal_form(D))
    b, q, q_prev, steps, ambiguous = b0, 1, 0, 0, []
    while True:
        if b % a == 0:
            ambiguous.append(a)
        b_next, c_next = _rho(b, c, D, s)
        steps += 1
        if abs(c) == 1:
            break
        q, q_prev = (b + b_next) // (2 * abs(c)) * q + q_prev, q
        a, b, c = c, b_next, c_next
    # eps = (u + v sqrt(m))/w, as sqrt(D) = sqrt(m) or 2 sqrt(m); w = 1 when u, v are even
    u, v, w = q * b0 + 2 * q_prev, q if D == m else 2 * q, 2
    if u % 2 == v % 2 == 0:
        u, v, w = u // 2, v // 2, 1
    norm = (u * u - m * v * v) // (w * w)
    if norm != (1 if steps % 2 == 0 else -1):
        raise ClassGroupError(f"norm/period mismatch for m={m}: {norm} vs l={steps}")
    return QuadUnit(u, v, w, m, norm), steps, tuple(ambiguous)


def signed_principal_cycle(m: int) -> tuple[QuadUnit, int, tuple[int, ...]]:
    """(eps, l, ambiguous) from half a walk of the principal rho cycle of D = field_discriminant(m).

    The l rho steps from the reduced principal form f_0 = (1, b_0, c_0) back to
    |a| = 1 are the period of the continued fraction of omega (Cohen, A Course
    in Computational Algebraic Number Theory, 5.7).  With f_i = (a_i, b_i, c_i),
    Phi_i = prod_(j<i) (b_j + sqrt(D))/(2 a_j) = (X_i + Y_i sqrt(D))/2 is an
    integer of norm a_i: Y_0 = 0, Y_1 = 1, Y_(i+1) = t_i Y_i - Y_(i-1) with
    t_i = (b_(i-1) + b_i)/(2 a_i), and X_i = sign(Y_i) isqrt(D Y_i^2 + 4 a_i).
    The cycle is a signed palindrome, so the walk stops at its symmetric point,
    whichever comes first: the first i >= 1 with a_i | b_i gives l = 2i,
    eps = +-Phi_i^2 / a_i and the ambiguous forms (1, a_i); the first i >= 0
    with |a_(i+1)| = |a_i| gives l = 2i + 1, eps = +-Phi_(i+1) Phi_i / a_i and
    (1,), the rest of the signed cycle being these forms negated.  A start
    with a != 1, a non-square, an inexact division or N(eps) != (-1)^l raises
    ClassGroupError (norm/period mismatch).
    """
    D = field_discriminant(m)
    s = math.isqrt(D)
    a, b, c = _reduced_principal(D, s)
    if a != 1:
        raise ClassGroupError(f"norm/period mismatch for m={m}: the walk starts at a = {a}")
    t, y_prev, y, i = 0, -1, 0, 0  # t_0 = 0 and Y_(-1) = -1 give Y_1 = 1
    while True:  # eps = +-Phi_j Phi_i / a_i with j = i for even l, j = i + 1 for odd l
        if i and b % a == 0:
            steps, ambiguous, (y_j, a_j, y_i) = 2 * i, (1, a), (y, a, y)
            break
        y_prev, y = y, t * y - y_prev
        if c == -a or c == a:
            steps, ambiguous, (y_j, a_j, y_i) = 2 * i + 1, (1,), (y, c, y_prev)
            break
        # _rho of a reduced form, |c| <= s: b' = s - (s + b) mod 2|c| and t = (b + b')/(2c)
        t, r = divmod(s + b, 2 * abs(c))
        b, t = s - r, t if c > 0 else -t
        a, c, i = c, (b * b - D) // (4 * c), i + 1
    # +-Phi_k = (X_k + |Y_k| sqrt(D))/2 with X_k = isqrt(D Y_k^2 + 4 a_k)
    n_j, n_i, y_j, y_i = D * y_j * y_j + 4 * a_j, D * y_i * y_i + 4 * a, abs(y_j), abs(y_i)
    x_j, x_i = math.isqrt(max(n_j, 0)), math.isqrt(max(n_i, 0))
    (u, ru), (v, rv) = (divmod(x_j * x_i + D * y_j * y_i, 2 * abs(a)),
                        divmod(x_j * y_i + x_i * y_j, 2 * abs(a)))
    # eps = (u + v sqrt(m))/w, as sqrt(D) = sqrt(m) or 2 sqrt(m); w = 1 when u, v are even
    v, w, norm = v if D == m else 2 * v, 2, 1 if steps % 2 == 0 else -1
    if u % 2 == v % 2 == 0:
        u, v, w = u // 2, v // 2, 1
    if x_j * x_j != n_j or x_i * x_i != n_i or ru or rv or not v or u * u - m * v * v != norm * w * w:
        raise ClassGroupError(f"norm/period mismatch for m={m}: the half products give no "
                              f"unit of norm {norm} for l={steps}")
    return QuadUnit(u, v, w, m, norm), steps, ambiguous


def tonelli_shanks(a: int, p: int) -> int:
    """Some x with x^2 = a (mod p) for a prime p, by Tonelli-Shanks.

    Raises ValueError when a is not a square mod p.
    """
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, x = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:  # invariant: x^2 = a*t, and t has order 2^i < 2^s
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == s:
                raise ValueError(f"{p} is not prime")
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    return x


def odd_part_two_character(D: int, primes: list[int]) -> tuple[int, ...]:
    """Residues n mod 8 where the genus character of the prime 2 is -1 (none for odd D).

    D is the product of the prime discriminants (-1)^((q-1)/2) q of its odd
    primes and one of 1, -4, 8, -8.
    """
    odd = 1
    for q in primes:
        if q != 2:
            odd *= q if q % 4 == 1 else -q
    return {1: (), -4: (3, 7), 8: (3, 5), -8: (5, 7)}[D // odd]


def jacobi_genus_vector(f: BQForm, D: int, primes: list[int], two: tuple[int, ...]) -> int:
    """Bit i set when the genus character of primes[i] is -1 on f; the last one dropped.

    The characters are evaluated on a value n of f coprime to D; their product
    is the Kronecker symbol (D/n) = 1, which is checked.
    """
    a, b, c = f
    for x, y in _search_vectors():
        n = a * x * x + b * x * y + c * y * y
        if math.gcd(n, D) == 1:
            break
    vec = 0
    for i, q in enumerate(primes):
        if (n % 8 in two) if q == 2 else jacobi(n, q) == -1:
            vec |= 1 << i
    if vec.bit_count() % 2:
        raise ClassGroupError(f"genus characters of {f} at n = {n} multiply to -1")
    return vec & ~(1 << (len(primes) - 1))


def squarefree_split(n: int) -> tuple[int, int, list[int]]:
    """(s, c, primes of c) with n = s^2 * c and c squarefree, sign(c) = sign(n)."""
    s, c, primes = 1, 1 if n > 0 else -1, []
    for q, e in factorize(abs(n)).items():
        s *= q ** (e // 2)
        if e % 2:
            c *= q
            primes.append(q)
    return s, c, primes


def recursive_legendre(a: int, fa: list[int], b: int, fb: list[int]) -> tuple[int, int, int]:
    """Nonzero (w, x, y) with w^2 = a x^2 + b y^2, for squarefree a, b with primes fa, fb.

    Lagrange's descent: with r^2 = a (mod b) and |r| <= |b|/2, r^2 - a = b s^2 c
    where c is squarefree and |c| < |b|, and a point for (a, c) lifts through the
    norm of r + sqrt(a).  Raises ClassGroupError when the conic has no point.
    """
    if abs(a) > abs(b):
        w, y, x = recursive_legendre(b, fb, a, fa)
        return w, x, y
    if a == 1:
        return 1, 1, 0
    if b == 1:
        return 1, 0, 1
    n = abs(b)
    try:
        r, mod = 0, 1
        for q in fb:  # the CRT step for the coprime moduli mod and q
            r, mod = r + mod * ((sqrt_mod(a, q) - r) * pow(mod, -1, q) % q), mod * q
    except ValueError:
        raise ClassGroupError(f"w^2 = {a} x^2 + {b} y^2 has no rational point") from None
    if n == 1:  # a = b = -1
        raise ClassGroupError("w^2 = -x^2 - y^2 has no rational point")
    if r > n // 2:
        r -= n
    s, c, fc = squarefree_split((r * r - a) // b)
    w, x, y = recursive_legendre(a, fa, c, fc)
    return r * w + a * x, w + r * x, s * c * y


def search_square_root(f: BQForm, m: int, m_primes: list[int]) -> BQForm:
    """A form whose Dirichlet square is properly equivalent to f, for f in the principal genus.

    f is moved to a prime leading coefficient p; a point of the conic
    X^2 - D Y^2 = 4p Z^2 is a representation f(x, y) = z^2, primitive after
    dividing out gcd(x, y), and z is prime to D because a primitive ideal has no
    square ramified factor.  Then f ~ (z^2, B, C) and (z, B, zC) squares to it.
    """
    a, b, c = f
    D = b * b - 4 * a * c
    for x, y in _search_vectors():
        if odd_prime_prime_to(a * x * x + b * x * y + c * y * y, D):
            break
    g = _transform(f, x, y)
    p, b, _ = g
    w, u, v = recursive_legendre(m, m_primes, p, [abs(p)])  # w^2 = m u^2 + p v^2
    X, Y, Z = 2 * w, u if D % 4 == 0 else 2 * u, v  # X^2 - D Y^2 = 4p Z^2
    if not Y:  # then X^2 = 4p Z^2 with p prime: only the zero point
        raise ClassGroupError(f"conic point ({X}, {Y}, {Z}) of {g} has Y = 0")
    k = math.gcd(X, Y, Z)
    X, Y = X // k, Y // k
    if (X - b * Y) % (2 * p):
        X = -X
    if (X - b * Y) % (2 * p):
        raise ClassGroupError(f"conic point ({X}, {Y}) of {g} has p | Y")
    x, y = (X - b * Y) // (2 * p), Y
    k = math.gcd(x, y)
    sq = _transform(g, x // k, y // k)
    z = math.isqrt(sq.a) if sq.a > 0 else 0
    if z * z != sq.a or math.gcd(z, sq.b) != 1:
        raise ClassGroupError(f"conic point gives {sq}, not (z^2, B, C) with gcd(z, B) = 1")
    return BQForm(z, sq.b, z * sq.c)


def odd_prime_prime_to(v: int, D: int) -> bool:
    return abs(v) > 2 and D % v != 0 and is_prime(abs(v))
