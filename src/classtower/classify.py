"""End-to-end decision logic for a prime pair: invariants, predictions, validation.

The flow is invariants() (per pair) -> predict(profile) (cached) ->
cross_validate().  The norm class groups and capitulation kernels are
transcribed decision tables keyed by the symbols (legendre, pi, B, q);
norm_groups_from_symbols() recomputes the same
subgroups from first principles (one quadratic symbol per generator class and
radicand representation, each a product of 12 basic Gaussian symbols) to keep
the transcription honest, and cross_validate() rebuilds everything inside the
concrete group model, where abelianizations and transfer kernels are computed
rather than looked up, and each table's words are tested against its subgroup
by Burnside's basis theorem.  The engine side is cached at two levels: one
presentation and engine table per (m, n, q, psi), and one tuple of checks per
profile, made of shared Check values; the per-pair checks of cross_validate()
are shared values too.

invariants() checks the forced relations in RULES; a failed rule raises
ConsistencyError naming it, and scan reports each rule as a row property.

  rule                  applies to     holds when
  quartic-product-rule  (p1/p2) = +1   (p1/p2)_4 (p2/p1)_4 = pi, and N(eps_r) = +1 if the
                                       quartic symbols differ, -1 if both are -1 (Scholz)
  q-agreement           (p1/p2) = -1   N(eps_r) = -1, q = q_from_symbols(pair),
                                       and (q = 1) <=> (pi = B)
  exponent-coupling     every pair     N(eps_r) = +1 => q = 1;  q = 2 => m = 2;
                                       (p1/p2) = -1 => n = 1, and m >= 3 if q = 1;
                                       (p1/p2) = +1, pi = -1 => q = 1, n = 1, m >= 3;
                                       (p1/p2) = +1, pi = +1 => m = 2, n >= 2

admissible(profile) states the same rules on a Profile, where the sign of N(eps_r) shows
only through psi: (p1/p2) = -1 forces psi = tau-sigma (Dirichlet), pi = -1 with
(p1/p2) = +1 forces psi = sigma (Scholz), and psi = sigma forces q = 1.  A. Scholz,
Math. Z. 39 (1934); F. Lemmermeyer, Reciprocity Laws (2000), ch. 5.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product, starmap
from math import prod
from typing import NamedTuple

from .abelian import AbelianType
from .gaussian import (
    ONE_PLUS_I,
    GaussianInt,
    PrimeSplit,
    gauss_symbol,
    split_prime,
    symbol_B,
    symbol_pi,
)
from .gengroup import (
    CLASS_VECTORS,
    ClassVector,
    EngineTable,
    GPresentation,
    PsiVariant,
    engine_table,
    span,
    vadd,
)
from .quadratic import exponents_mn, norm_eps
from .symbols import PrimePair, quartic_symbol, validate_pair
from .unitindex import q_from_symbols, unit_index_q

__all__ = [
    "ConsistencyError",
    "RULES",
    "Profile",
    "InvariantRecord",
    "KPrediction",
    "LPrediction",
    "PredictionReport",
    "Check",
    "ValidationReport",
    "admissible",
    "presentation_class",
    "invariants",
    "norm_groups",
    "norm_groups_from_symbols",
    "predict",
    "cross_validate",
    "classify_pair",
]


class ConsistencyError(AssertionError):
    """Computed invariants violate a relation that is supposed to be forced.

    rules names the failed entries of RULES; it is empty for other self-checks.
    """

    def __init__(self, message: str, rules: tuple[str, ...] = ()):
        super().__init__(message)
        self.rules = rules


# ---------------------------------------------------------------------------
# Class vectors by name
# ---------------------------------------------------------------------------

_BASIS = {"H0": (1, 0, 0), "H1": (0, 1, 0), "H2": (0, 0, 1)}


def class_vector(name: str) -> ClassVector:
    """Parse 'H0H2' style products of the ideal-class generators."""
    v = (0, 0, 0)
    for i in range(0, len(name), 2):
        v = vadd(v, _BASIS[name[i : i + 2]])
    return v


@lru_cache(maxsize=None)
def subgroup_span(names: tuple[str, ...]) -> frozenset[ClassVector]:
    """The span of the named classes; the tables hold a few dozen name tuples, each parsed once."""
    return span([class_vector(t) for t in names])


def vector_name(v: ClassVector) -> str:
    if v == (0, 0, 0):
        return "1"
    return "".join(n for n, b in zip(("H0", "H1", "H2"), v) if b)


@lru_cache(maxsize=None)
def subspace_names(vs: frozenset[ClassVector]) -> tuple[str, ...]:
    """The sorted class names of vs, a subspace of F_2^3; only its 16 subspaces occur, so each
    is named once."""
    return tuple(sorted(vector_name(v) for v in vs))


# ---------------------------------------------------------------------------
# Invariant record
# ---------------------------------------------------------------------------


class Profile(NamedTuple):
    """The symbols and exponents that key every table, prediction and engine check."""

    legendre: int
    pi: int  # (pi_1/pi_3)
    B: int  # (1+i/pi_1)(1+i/pi_3)
    q: int
    m: int
    n: int
    psi: PsiVariant


class InvariantRecord(NamedTuple):
    pair: PrimePair
    legendre: int
    pi: int  # (pi_1/pi_3)
    B: int  # (1+i/pi_1)(1+i/pi_3)
    m: int
    n: int
    q: int
    norm_eps_r: int
    psi: PsiVariant
    splits: tuple[PrimeSplit, ...]  # (pi_1, pi_3) of the symbols

    @property
    def d(self) -> int:
        return self.pair.d

    @property
    def disc(self) -> int:
        # discriminant of k: the product of its three quadratic subfield discriminants
        return 256 * self.pair.p1**2 * self.pair.p2**2

    def profile(self) -> Profile:
        return Profile(self.legendre, self.pi, self.B, self.q, self.m, self.n, self.psi)


def invariants(pair: PrimePair) -> InvariantRecord:
    """All classification symbols and exponents for a pair, consistency-checked."""
    s1, s2 = split_prime(pair.p1), split_prime(pair.p2)
    legendre = pair.legendre
    pi = symbol_pi(s1, s2)
    b = symbol_B(s1, s2)
    m, n = exponents_mn(pair)
    q = unit_index_q(pair)
    nrm = norm_eps(pair.r)
    psi = (
        PsiVariant.SIGMA_ONLY
        if (legendre == 1 and nrm == 1)
        else PsiVariant.TAU_SIGMA
    )
    record = InvariantRecord(pair, legendre, pi, b, m, n, q, nrm, psi, (s1, s2))
    _check_consistency(record)
    return record


def _quartic_product_holds(rec: InvariantRecord) -> bool:
    a, b = quartic_symbol(rec.pair.p1, rec.pair.p2), quartic_symbol(rec.pair.p2, rec.pair.p1)
    # Scholz: a + b = 0 forces N(eps_r) = +1, a + b = -2 forces -1, a + b = 2 leaves it open
    return a * b == rec.pi and (a + b == 2 or rec.norm_eps_r == -a * b)


def q_matches_pi_b(profile: Profile) -> bool:
    """(q = 1) <=> (pi = B), forced when (p1/p2) = -1."""
    return (profile.q == 1) == (profile.pi == profile.B)


def _q_agrees(rec: InvariantRecord) -> bool:
    return rec.norm_eps_r == -1 and rec.q == q_from_symbols(rec.pair) and q_matches_pi_b(rec.profile())


def exponents_coupled(profile: Profile) -> bool:
    """(legendre, pi, q) constrain m and n."""
    if profile.q == 2 and profile.m != 2:
        return False
    if profile.legendre == -1:
        return profile.n == 1 and (profile.q == 2 or profile.m >= 3)
    if profile.pi == -1:
        return profile.q == 1 and profile.n == 1 and profile.m >= 3
    return profile.m == 2 and profile.n >= 2


def admissible(profile: Profile) -> bool:
    """Some pair has this profile: its exponents couple, (q = 1) <=> (pi = B) when
    (p1/p2) = -1, and psi agrees with the sign of N(eps_r) that the symbols force."""
    sigma = profile.psi is PsiVariant.SIGMA_ONLY
    if profile.legendre == -1:  # Dirichlet: N(eps_r) = -1
        symbols_fit = q_matches_pi_b(profile) and not sigma
    else:  # Scholz: pi = -1 gives N(eps_r) = +1
        symbols_fit = profile.pi == 1 or sigma
    return exponents_coupled(profile) and symbols_fit and (profile.q == 1 or not sigma)


def presentation_class(legendre: int, pi: int, B: int) -> tuple[int, int]:
    """The class of the presentations (m, n, q, psi) a pair with these symbols can have:
    (-1, pi*B) when (p1/p2) = -1, (+1, pi) when (p1/p2) = +1.

    By the rules of admissible the four classes share no presentation:
      (-1, +1)  n = 1, q = 1, m >= 3, psi = tau-sigma
      (-1, -1)  n = 1, q = 2, m = 2,  psi = tau-sigma
      (+1, -1)  n = 1, q = 1, m >= 3, psi = sigma
      (+1, +1)  n >= 2, m = 2
    so pairs of different classes never meet the same engine table.
    """
    return (-1, pi * B) if legendre == -1 else (1, pi)


# name -> (applies to the record, holds for the record)
RULES = {
    "quartic-product-rule": (lambda rec: rec.legendre == 1, _quartic_product_holds),
    "q-agreement": (lambda rec: rec.legendre == -1, _q_agrees),
    # N(eps_r) = +1 forces q = 1; the rest constrains the profile alone
    "exponent-coupling": (
        lambda rec: True,
        lambda rec: (rec.norm_eps_r != 1 or rec.q == 1) and exponents_coupled(rec.profile()),
    ),
}


def applicable_rules(rec: InvariantRecord) -> list[str]:
    return [name for name, (applies, _) in RULES.items() if applies(rec)]


def _check_consistency(rec: InvariantRecord) -> None:
    failed = tuple(
        name for name, (applies, holds) in RULES.items() if applies(rec) and not holds(rec)
    )
    if failed:
        raise ConsistencyError(
            f"pair {rec.pair}: {', '.join(failed)} violated: (legendre, pi, B, N(eps_r), q, m, n) = "
            f"{(rec.legendre, rec.pi, rec.B, rec.norm_eps_r, rec.q, rec.m, rec.n)}",
            failed,
        )


# ---------------------------------------------------------------------------
# Field catalog
# ---------------------------------------------------------------------------

L_FACTORS = {1: (1, 2, 3), 2: (1, 4, 6), 3: (1, 5, 7), 4: (2, 4, 5), 5: (2, 6, 7), 6: (3, 4, 7), 7: (3, 5, 6)}

_K_RADICANDS = {
    1: "p1",
    2: "p2",
    3: "2",
    4: "pi1*pi3",
    5: "pi1*pi4",
    6: "pi2*pi3",
    7: "pi2*pi4",
}


# ---------------------------------------------------------------------------
# Norm class groups: transcribed table and first-principles recomputation
# ---------------------------------------------------------------------------

# legendre = +1; the K4..K7 entries are keyed (pi, B)
_N_PLUS = {
    1: ("H0H1", "H0H2"),
    2: ("H1", "H2"),
    3: ("H0", "H1H2"),
    4: {(-1, 1): ("H0", "H2"), (1, 1): ("H0", "H1"), (-1, -1): ("H2", "H0H1"), (1, -1): ("H1", "H0H2")},
    5: {(-1, 1): ("H2", "H0H1"), (1, 1): ("H1", "H0H2"), (-1, -1): ("H0", "H2"), (1, -1): ("H0", "H1")},
    6: {(-1, 1): ("H1", "H0H2"), (1, 1): ("H2", "H0H1"), (-1, -1): ("H0", "H1"), (1, -1): ("H0", "H2")},
    7: {(-1, 1): ("H0", "H1"), (1, 1): ("H0", "H2"), (-1, -1): ("H1", "H0H2"), (1, -1): ("H2", "H0H1")},
}

# legendre = -1; the K4..K7 entries are keyed (q, pi)
_N_MINUS = {
    1: ("H1", "H2"),
    2: ("H0H1", "H0H2"),
    3: ("H0", "H1H2"),
    4: {(1, -1): ("H1", "H0H2"), (1, 1): ("H0", "H2"), (2, -1): ("H0", "H1"), (2, 1): ("H2", "H0H1")},
    5: {(1, -1): ("H0", "H2"), (1, 1): ("H1", "H0H2"), (2, -1): ("H2", "H0H1"), (2, 1): ("H0", "H1")},
    6: {(1, -1): ("H0", "H1"), (1, 1): ("H2", "H0H1"), (2, -1): ("H1", "H0H2"), (2, 1): ("H0", "H2")},
    7: {(1, -1): ("H2", "H0H1"), (1, 1): ("H0", "H1"), (2, -1): ("H0", "H2"), (2, 1): ("H1", "H0H2")},
}


def _keyed_entries(plus: dict, minus: dict, profile: Profile) -> dict:
    """The entries of the table plus when (p1/p2) = +1, of minus when it is -1; a keyed entry
    is looked up by (pi, B) in plus and by (q, pi) in minus."""
    if profile.legendre == 1:
        table, key = plus, (profile.pi, profile.B)
    else:
        table, key = minus, (profile.q, profile.pi)
    return {j: entry[key] if isinstance(entry, dict) else entry for j, entry in table.items()}


def norm_groups(profile: Profile) -> dict[int, frozenset[ClassVector]]:
    """The norm class groups N_1..N_7 from the transcribed decision table."""
    return {j: subgroup_span(t) for j, t in _keyed_entries(_N_PLUS, _N_MINUS, profile).items()}


# radicand factorizations: each K_j has the two representations delta, d/delta
_RADICAND_FACTORS = {
    1: (("pi1", "pi2"), ("2", "pi3", "pi4")),
    2: (("pi3", "pi4"), ("2", "pi1", "pi2")),
    3: (("2",), ("pi1", "pi2", "pi3", "pi4")),
    4: (("pi1", "pi3"), ("2", "pi2", "pi4")),
    5: (("pi1", "pi4"), ("2", "pi2", "pi3")),
    6: (("pi2", "pi3"), ("2", "pi1", "pi4")),
    7: (("pi2", "pi4"), ("2", "pi1", "pi3")),
}

# (j, the odd representation, the representations that avoid pi1 and pi2) for each K_j
_SYMBOL_FACTORS = tuple(
    (j, next(rep for rep in reps if "2" not in rep),
     *(next(rep for rep in reps if avoid not in rep) for avoid in ("pi1", "pi2")))
    for j, reps in _RADICAND_FACTORS.items()
)

# the plane {v : s0^v0 s1^v1 s2^v2 = 1} of each sign triple (s0, s1, s2) but (1, 1, 1)
_PLANES = {
    signs: frozenset(v for v in CLASS_VECTORS if prod(s for s, b in zip(signs, v) if b) == 1)
    for signs in product((1, -1), repeat=3) if signs != (1, 1, 1)
}

_TWO = GaussianInt(2, 0)


@lru_cache(maxsize=None)
def _conjugate(split: PrimeSplit) -> PrimeSplit:
    """split.conjugate_choice(), built once: split_prime returns one split per prime."""
    return split.conjugate_choice()


def norm_groups_from_symbols(
    record: InvariantRecord,
) -> dict[int, frozenset[ClassVector]]:
    """N_1..N_7 recomputed from first principles, one symbol per generator.

    Membership of [H] in N_j is (delta/H) = 1 for a representation delta of
    the radicand coprime to H.  For H1, H2 that is a single quadratic symbol
    mod pi_1 or pi_2; for H0 (the prime over 1+i) it is the product of
    (1+i/pi) over the Gaussian prime factors of the odd representation.  The
    symbols are multiplicative, so each is a product of at most 12 basic ones:
    (1+i/pi_k) for k = 1..4, and (x/pi_1), (x/pi_2) for the other factors x of
    the radicands, 2 and the pi_k.  Each sign triple picks its plane from _PLANES.
    """
    s1, s2 = record.splits
    moduli = {"pi1": s1, "pi2": _conjugate(s1), "pi3": s2, "pi4": _conjugate(s2)}
    gauss = {"2": _TWO, **{f: s.pi for f, s in moduli.items()}}
    one_plus_i = {f: gauss_symbol(ONE_PLUS_I, s) for f, s in moduli.items()}
    res1, res2 = ({f: gauss_symbol(alpha, moduli[avoid]) for f, alpha in gauss.items() if f != avoid}
                  for avoid in ("pi1", "pi2"))
    out = {}
    for j, odd_rep, rep1, rep2 in _SYMBOL_FACTORS:
        signs = (prod(map(one_plus_i.__getitem__, odd_rep)), prod(map(res1.__getitem__, rep1)),
                 prod(map(res2.__getitem__, rep2)))
        if signs == (1, 1, 1):
            raise ConsistencyError(f"norm group of K{j} came out with index 1")
        out[j] = _PLANES[signs]
    return out


# ---------------------------------------------------------------------------
# Capitulation kernels and abelian types (transcribed predictions)
# ---------------------------------------------------------------------------

# kernels for K4..K7 depend only on B; K3 depends only on q
_KAPPA_B = {
    4: {1: ("H0", "H1"), -1: ("H1", "H0H2")},
    5: {1: ("H1", "H0H2"), -1: ("H0", "H1")},
    6: {1: ("H2", "H0H1"), -1: ("H0", "H2")},
    7: {1: ("H0", "H2"), -1: ("H2", "H0H1")},
}


def kernels(profile: Profile) -> dict[int, frozenset[ClassVector]]:
    out = {
        1: subgroup_span(("H1", "H2")),
        2: subgroup_span(("H0H1", "H0H2")),
        3: subgroup_span(("H0", "H1H2") if profile.q == 1 else ("H0",)),
    }
    for j in range(4, 8):
        out[j] = subgroup_span(_KAPPA_B[j][profile.B])
    return out


# the fixed types of the tables, built once: predict returns 16 types per profile
_T222, _T24, _T28, _T44 = (AbelianType(t) for t in ((2, 2, 2), (2, 4), (2, 8), (4, 4)))


@lru_cache(maxsize=None)
def _two_type(a: int, b: int) -> AbelianType:
    """The type (2^a, 2^b) for exponents a, b >= 0, sorted, a factor 1 dropped; built once for
    each (a, b), since predict asks for six of them per profile."""
    return AbelianType(tuple(1 << e for e in ((a, b) if a <= b else (b, a)) if e))


def k_type(profile: Profile, j: int) -> AbelianType:
    m, n, q = profile.m, profile.n, profile.q
    if j in (1, 2):
        return _T222 if profile.legendre == 1 else _T24
    if j == 3:
        if q == 1:
            return _two_type(m, n + 1)
        return _two_type(min(m, n + 1), max(m + 1, n + 2))
    if profile.legendre == 1:
        return _T222 if profile.pi == -1 else _T24
    # legendre = -1: K4/K7 and K5/K6 pair up, exchanged by the sign of pi
    two_four = {4, 7} if profile.pi == -1 else {5, 6}
    return _T24 if j in two_four else _T222


def l_type(profile: Profile, j: int) -> AbelianType:
    m, n, q = profile.m, profile.n, profile.q
    if j == 1:
        if q == 1:
            return _two_type(n, m)
        return _two_type(min(m, n), max(m + 1, n + 1))
    if j in (2, 3, 4, 5):
        if profile.legendre == 1 and profile.pi == -1:
            return _T222
        return _T24
    # L6 / L7
    if q == 2:
        if profile.legendre == 1:
            return _two_type(1, n + 2)
        flip = (profile.pi == -1) == (j == 6)
        return _T28 if flip else _T44
    b_here = profile.B if j == 6 else -profile.B
    if b_here == 1:
        return _two_type(m - 1, n + 1)
    return _two_type(min(m - 1, n), max(m, n + 1))


def derived_type(profile: Profile) -> AbelianType:
    m, n, q = profile.m, profile.n, profile.q
    if q == 1:
        return _two_type(m - 1, n)
    return _two_type(1, n + 1)


def nilpotency_class_formula(profile: Profile) -> int:
    m, n, q = profile.m, profile.n, profile.q
    return max(n, m - 1) + 1 if q == 1 else max(n + 1, m) + 1


# ---------------------------------------------------------------------------
# Subgroup words from the tables (transcription cross-checks)
# ---------------------------------------------------------------------------

_GJ_PLUS = {
    1: ("s", "tr", "tt"),
    2: ("s", "r", "tt"),
    3: ("t", "s"),
    4: {(-1, 1): ("t", "rs", "ss"), (1, 1): ("t", "r"), (-1, -1): ("st", "tr", "ss"), (1, -1): ("st", "r")},
    5: {(-1, 1): ("st", "tr", "ss"), (1, 1): ("st", "r"), (-1, -1): ("t", "rs", "ss"), (1, -1): ("t", "r")},
    6: {(-1, 1): ("st", "r", "ss"), (1, 1): ("st", "tr"), (-1, -1): ("t", "r", "ss"), (1, -1): ("t", "rs")},
    7: {(-1, 1): ("t", "r", "ss"), (1, 1): ("t", "rs"), (-1, -1): ("st", "r", "ss"), (1, -1): ("st", "tr")},
}

_GJ_MINUS = {
    1: ("s", "r"),
    2: ("s", "tr"),
    3: ("t", "s"),
    4: {(1, -1): ("r", "ts"), (1, 1): ("t", "rs", "ss"), (2, -1): ("t", "r"), (2, 1): ("st", "tr", "ss")},
    5: {(1, -1): ("t", "rs", "ss"), (1, 1): ("r", "st"), (2, -1): ("st", "tr", "ss"), (2, 1): ("t", "r")},
    6: {(1, -1): ("t", "r", "ss"), (1, 1): ("st", "tr"), (2, -1): ("r", "st", "ss"), (2, 1): ("t", "rs")},
    7: {(1, -1): ("st", "tr"), (1, 1): ("r", "t", "ss"), (2, -1): ("t", "rs"), (2, 1): ("r", "st", "ss")},
}

# the keyed L_j entries, like the K_j ones, by (pi, B) in _GL_PLUS and (q, pi) in _GL_MINUS
_GL_PLUS = {
    1: ("tt", "s"),
    2: {(-1, 1): ("str", "ss", "tt"), (1, 1): ("tr", "tt"), (-1, -1): ("tr", "ss", "tt"), (1, -1): ("str", "tt")},
    3: {(-1, 1): ("tr", "ss", "tt"), (1, 1): ("str", "tt"), (-1, -1): ("str", "ss", "tt"), (1, -1): ("tr", "tt")},
    4: {(-1, 1): ("sr", "ss", "tt"), (1, 1): ("r", "tt"), (-1, -1): ("sr", "ss", "tt"), (1, -1): ("r", "tt")},
    5: {(-1, 1): ("r", "ss", "tt"), (1, 1): ("rs", "tt"), (-1, -1): ("r", "ss", "tt"), (1, -1): ("rs", "tt")},
    6: {(-1, 1): ("t", "ss"), (1, 1): ("t", "ss"), (-1, -1): ("st", "ss"), (1, -1): ("st", "ss")},
    7: {(-1, 1): ("st", "ss"), (1, 1): ("st", "ss"), (-1, -1): ("t", "ss"), (1, -1): ("t", "ss")},
}

_GL_MINUS = {
    1: ("tt", "s"),
    2: {(1, -1): ("r", "ss"), (1, 1): ("rs", "ss"), (2, -1): ("r", "ss"), (2, 1): ("rs", "ss")},
    3: {(1, -1): ("rs", "ss"), (1, 1): ("r", "ss"), (2, -1): ("rs", "ss"), (2, 1): ("r", "ss")},
    4: {(1, -1): ("str", "ss"), (1, 1): ("str", "ss"), (2, -1): ("tr", "ss"), (2, 1): ("tr", "ss")},
    5: {(1, -1): ("tr", "ss"), (1, 1): ("tr", "ss"), (2, -1): ("str", "ss"), (2, 1): ("str", "ss")},
    6: {(1, -1): ("st", "tt"), (1, 1): ("t", "ss"), (2, -1): ("t", "ss"), (2, 1): ("st", "ss")},
    7: {(1, -1): ("t", "ss"), (1, 1): ("st", "ss"), (2, -1): ("st", "ss"), (2, 1): ("t", "ss")},
}


# ---------------------------------------------------------------------------
# Prediction report
# ---------------------------------------------------------------------------


class KPrediction(NamedTuple):
    index: int
    radicand: str
    norm_group: frozenset[ClassVector]
    kernel: frozenset[ClassVector]
    cl2: AbelianType
    taussky_A: bool


class LPrediction(NamedTuple):
    index: int
    factors: tuple[int, ...]
    norm_group: frozenset[ClassVector]
    kernel: frozenset[ClassVector]
    cl2: AbelianType


class PredictionReport(NamedTuple):
    group_order: int
    derived: AbelianType  # = Cl2 of the first Hilbert field
    cl2_k3: AbelianType
    coclass: int
    nilpotency_class: int
    k_fields: dict[int, KPrediction]
    l_fields: dict[int, LPrediction]


@lru_cache(maxsize=None)
def predict(profile: Profile) -> PredictionReport:
    profile = Profile(*profile)  # a TypeError for anything that is not a 7-tuple
    m, n, q = profile.m, profile.n, profile.q
    norms, kerns = norm_groups(profile), kernels(profile)
    k_fields = {j: KPrediction(j, _K_RADICANDS[j], norms[j], kerns[j], k_type(profile, j),
                               len(kerns[j] & norms[j]) > 1) for j in range(1, 8)}
    full = frozenset(CLASS_VECTORS)  # each L_j's norm group is the line of its three K factors
    l_fields = {j: LPrediction(j, (a, b, c), norms[a] & norms[b] & norms[c], full,
                               l_type(profile, j)) for j, (a, b, c) in L_FACTORS.items()}
    order_bits = m + n + (2 if q == 1 else 3)
    report = PredictionReport(
        1 << order_bits,
        derived_type(profile),
        k_type(profile, 3),
        3,
        nilpotency_class_formula(profile),
        k_fields,
        l_fields,
    )
    _check_report(profile, report)
    return report


def _check_report(profile: Profile, report: PredictionReport) -> None:
    for j, kf in report.k_fields.items():
        if len(kf.norm_group) != 4:
            raise ConsistencyError(f"norm group of K{j} must have index 2")
        expected = 4 if (j != 3 or profile.q == 1) else 2
        if len(kf.kernel) != expected:
            raise ConsistencyError(f"kernel size of K{j}: {len(kf.kernel)} != {expected}")
        if not kf.taussky_A:
            raise ConsistencyError(f"K{j} fails Taussky condition A")
    for j, lf in report.l_fields.items():
        if len(lf.norm_group) != 2:
            raise ConsistencyError(f"norm group of L{j} must have index 4")
    # h(K3) product rule: |Cl2(K3)| = 2^(n+m+1) for q=1, 2^(n+m+2) for q=2
    expected = 1 << (profile.n + profile.m + (1 if profile.q == 1 else 2))
    if report.cl2_k3.order() != expected:
        raise ConsistencyError(
            f"|Cl2(K3)| = {report.cl2_k3.order()} != {expected} (class number product rule)"
        )


# ---------------------------------------------------------------------------
# Cross-validation against the group engine
# ---------------------------------------------------------------------------


class Check(NamedTuple):
    name: str
    ok: bool
    expected: str
    got: str


class ValidationReport(NamedTuple):
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]


@lru_cache(maxsize=None)
def _fmt_vectors(vs: frozenset[ClassVector]) -> str:
    return "{" + ",".join(subspace_names(vs)) + "}"


@lru_cache(maxsize=None, typed=True)  # typed: True and 1 differ
def _check(name: str, expected, got) -> Check:
    """One check, shared: the 38 classify-deep profiles have 131 distinct checks among 2660,
    and the 903 pairs of scan --max 1000 have 21 distinct norm-group checks among 6321."""
    return Check(name, expected == got, str(expected), str(got))


# the names of each field's checks, formatted once
_K_CHECKS = {j: tuple(f"K{j}:{c}" for c in ("index", "subgroup-words", "type", "kernel", "taussky-A"))
             for j in range(1, 8)}
_L_CHECKS = {j: tuple(f"L{j}:{c}" for c in ("index", "subgroup-words", "type", "kernel-total"))
             for j in range(1, 8)}
_SYMBOL_CHECKS = {j: f"K{j}:norm-group-symbols" for j in range(1, 8)}


@lru_cache(maxsize=None)
def _engine_table(m: int, n: int, q: int, psi: PsiVariant) -> tuple[GPresentation, EngineTable]:
    """The presentation (m, n, q, psi), built and validated once, with its engine table."""
    pres = GPresentation(m, n, q, psi)
    return pres, engine_table(pres)


@lru_cache(maxsize=None)
def _engine_checks(profile: Profile) -> tuple[Check, ...]:
    """The predictions against the engine table: K_j is the subgroup over G' of the plane N_j,
    L_j that of the line of its three K factors, so the profile only picks the labels."""
    report = predict(profile)
    pres, table = _engine_table(profile.m, profile.n, profile.q, profile.psi)
    G, series_length = table.G.H, len(table.series)
    rows = [  # (name, expected, got)
        ("G:order", report.group_order, G.order),
        ("G:derived-generators", True, table.derived_squares),
        ("G:abelianization", _T222, table.G.abelianization),
        ("G:derived-type", report.derived, table.G_derived.abelianization),
        ("G:nilpotency-class", report.nilpotency_class, series_length - 1),
        ("G:coclass", report.coclass, G.order.bit_length() - 1 - (series_length - 1)),
    ]
    k_words = _keyed_entries(_GJ_PLUS, _GJ_MINUS, profile)
    for j, kf in report.k_fields.items():
        K = table.over[kf.norm_group]
        index, words, type_, kernel, taussky = _K_CHECKS[j]
        rows += [
            (index, 2, K.index),
            (words, True, K.generated_by(map(pres.word, k_words[j]))),
            (type_, kf.cl2, K.abelianization),
            (kernel, _fmt_vectors(kf.kernel), _fmt_vectors(K.kernel)),
            (taussky, True, len(K.kernel & kf.norm_group) > 1),
        ]
    rows.append(("K3:class-group", report.cl2_k3,
                 table.over[report.k_fields[3].norm_group].abelianization))
    l_words = _keyed_entries(_GL_PLUS, _GL_MINUS, profile)
    for j, lf in report.l_fields.items():
        L = table.over[lf.norm_group]
        index, words, type_, kernel = _L_CHECKS[j]
        rows += [
            (index, 4, L.index),
            (words, True, L.generated_by(map(pres.word, l_words[j]))),
            (type_, lf.cl2, L.abelianization),
            (kernel, _fmt_vectors(lf.kernel), _fmt_vectors(L.kernel)),
        ]
    return tuple(starmap(_check, rows))


def cross_validate(record: InvariantRecord) -> ValidationReport:
    """Engine-vs-prediction comparison of all 14 extensions plus the globals.

    Everything keyed purely by the symbol profile is cached; the per-pair part
    re-derives the norm groups from first-principles symbols and compares
    against the transcribed table.
    """
    profile = record.profile()
    checks = _engine_checks(profile)
    table, first_principles = predict(profile).k_fields, norm_groups_from_symbols(record)
    return ValidationReport(checks + tuple(
        _check(_SYMBOL_CHECKS[j], _fmt_vectors(table[j].norm_group),
               _fmt_vectors(first_principles[j])) for j in range(1, 8)))


def engine_abelianizations(profile: Profile) -> dict[str, AbelianType]:
    """The 14 subgroup abelianizations for a symbol tuple and exponents.

    profile = (legendre, pi, B, q, m, n, psi), a Profile or a plain tuple;
    raises KeyError when the symbol tuple falls outside the tabulated cases.
    """
    report = predict(profile)
    _, _, _, q, m, n, psi = profile
    table = _engine_table(m, n, q, psi)[1]
    return {f"{kind}{j}": table.over[field.norm_group].abelianization
            for kind, fields in (("K", report.k_fields), ("L", report.l_fields))
            for j, field in fields.items()}


def classify_pair(p1: int, p2: int):
    """Full pipeline: validate, compute invariants, predict, cross-validate."""
    pair = validate_pair(p1, p2)
    record = invariants(pair)
    report = predict(record.profile())
    validation = cross_validate(record)
    return record, report, validation
