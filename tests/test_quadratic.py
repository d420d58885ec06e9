import math
import random
import time
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from class_group_oracle import (
    continued_fraction_unit,
    counting_class_group,
    disc,
    full_principal_cycle,
    full_structure,
    group_law,
    reduced_definite_forms,
    signed_principal_cycle,
    two_sylow,
)
from classtower.abelian import AbelianType
from classtower.quadratic import (
    BQForm,
    ClassGroupError,
    QuadUnit,
    _principal_cycle,
    _transform,
    class_group,
    compose,
    exponents_mn,
    field_discriminant,
    fundamental_unit,
    norm_eps,
    principal_form,
    reduce_definite,
    reduce_indefinite,
    two_part_of_class_group,
)
from classtower.symbols import jacobi, primes_5_mod_8, validate_pair


def pell_brute(m):
    """Smallest unit > 1 of O_{Q(sqrt(m))} by direct search; oracle for small m."""
    import math

    for v in range(1, 10**6):
        candidates = []
        for w in (1, 2) if m % 4 == 1 else (1,):
            mv2 = m * v * v
            for sign in (-1, 1):
                t = mv2 + sign * w * w
                if t <= 0:
                    continue
                u = math.isqrt(t)
                for cand in (u, u + 1):
                    if cand > 0 and cand * cand == t:
                        if w == 2 and (cand % 2) != (v % 2):
                            continue
                        candidates.append((cand, v, w, sign))
        if candidates:
            return min(candidates, key=lambda t: (t[0] + t[1] * m**0.5) / t[2])
    raise AssertionError(f"no unit below bound for m={m}")


SQUAREFREE_SMALL = [m for m in range(2, 60) if all(m % (d * d) for d in range(2, 8))]


def test_fundamental_unit_examples():
    u2 = fundamental_unit(2)
    assert (u2.u, u2.v, u2.w, u2.norm) == (1, 1, 1, -1)
    u65 = fundamental_unit(65)
    assert (u65.u, u65.v, u65.w, u65.norm) == (8, 1, 1, -1)
    u5 = fundamental_unit(5)
    assert (u5.u, u5.v, u5.w, u5.norm) == (1, 1, 2, -1)
    u3 = fundamental_unit(3)
    assert (u3.u, u3.v, u3.w, u3.norm) == (2, 1, 1, 1)
    u94 = fundamental_unit(94)
    assert (u94.u, u94.v, u94.norm) == (2143295, 221064, 1)


def test_fundamental_unit_matches_brute_force():
    for m in SQUAREFREE_SMALL:
        unit = fundamental_unit(m)
        u, v, w, sign = pell_brute(m)
        assert (unit.u, unit.v, unit.w, unit.norm) == (u, v, w, sign), m


def test_fundamental_unit_matches_continued_fraction():
    # the walk of the principal cycle against the (P, Q) expansion of omega; for
    # r = 1 (mod 8), u^2 - r v^2 with u, v odd is 0 mod 8, so eps_r is never half-integral
    ps = primes_5_mod_8(400)
    for i, p1 in enumerate(ps):
        for p2 in ps[i + 1 :]:
            r = p1 * p2
            for m in (r, 2 * r):
                assert fundamental_unit(m) == continued_fraction_unit(m), m
            assert fundamental_unit(r).w == 1, r


def test_half_walk_matches_the_full_walk():
    # the walk stops at the symmetric point of the principal cycle; the whole walk is the
    # oracle, and so is the signed half walk that the walk of |a|, |c| and |Y| replaced
    assert _principal_cycle(290) == (QuadUnit(17, 1, 1, 290, -1), 1, (1,))
    assert _principal_cycle(377) == (QuadUnit(233, 12, 1, 377, 1), 4, (1, 13))
    ps = primes_5_mod_8(500)
    for i, p1 in enumerate(ps):
        for p2 in ps[i + 1 :]:
            for m in (p1 * p2, 2 * p1 * p2):
                assert _principal_cycle(m) == full_principal_cycle(m) == signed_principal_cycle(m), m


def test_fundamental_unit_rejects():
    with pytest.raises(ValueError):
        fundamental_unit(12)
    with pytest.raises(ValueError):
        fundamental_unit(1)


def test_quad_unit_error_names_a_huge_unit():
    # u has over 4300 digits, where str(u) raises ValueError
    with pytest.raises(ClassGroupError, match="16610-bit u"):
        QuadUnit(10**5000, 1, 1, 2, 1)


def test_norm_eps_values():
    assert norm_eps(65) == -1
    assert norm_eps(2) == -1
    assert norm_eps(377) == 1  # pair (13, 29): quartic product is -1
    assert norm_eps(130) == -1  # N(eps) = -1 holds for every d = 2*p1*p2


def test_field_discriminant():
    assert field_discriminant(65) == 65
    assert field_discriminant(-65) == -260
    assert field_discriminant(130) == 520
    assert field_discriminant(-130) == -520


def _two_part(t: AbelianType) -> AbelianType:
    """Each divisor of t replaced by its largest power-of-2 factor, 1s dropped."""
    return AbelianType.from_factors(d & -d for d in t.divisors)


KNOWN_IMAGINARY = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2, -23: 3,
    -24: 2, -31: 3, -35: 2, -39: 4, -40: 2, -43: 1, -47: 5, -52: 2,
    -56: 4, -71: 7, -84: 4, -95: 8, -163: 1, -260: 8,
}


def test_known_imaginary_class_numbers():
    for D, h in KNOWN_IMAGINARY.items():
        assert counting_class_group(D)[0] == h, D
        assert class_group(D).two_part.order() == h & -h, D


def test_known_imaginary_structures():
    known = {-84: (2, 2), -260: (2, 4), -23: (3,), -95: (8,), -39: (4,)}
    for D, divisors in known.items():
        full = full_structure(D)
        assert full == AbelianType(divisors), D
        assert class_group(D).two_part == _two_part(full), D


def _kronecker(D, a):
    """Kronecker symbol (D/a) for a > 0."""
    k = (a & -a).bit_length() - 1
    two = 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
    return two**k * jacobi(D, a >> k)


def _dirichlet_class_number(D):
    """h(D) = -(1/|D|) * sum_{0<a<|D|} (D/a) a for fundamental D < -4."""
    total = sum(_kronecker(D, a) * a for a in range(1, -D))
    h, rem = divmod(-total, -D)
    assert rem == 0
    return h


def test_class_number_matches_dirichlet_sum():
    # form-free oracle: the analytic class number formula as a finite sum
    discs = [D for D in KNOWN_IMAGINARY if D < -4]
    ps = primes_5_mod_8(61)
    for i, p1 in enumerate(ps):
        for p2 in ps[i + 1 :]:
            discs += [field_discriminant(-p1 * p2), field_discriminant(-2 * p1 * p2)]
    for D in discs:
        h = _dirichlet_class_number(D)
        assert counting_class_group(D)[0] == h, D
        assert class_group(D).two_part.order() == h & -h, D


def test_two_part_matches_full_structure_oracle():
    ps = primes_5_mod_8(110)
    for i, p1 in enumerate(ps):
        for p2 in ps[i + 1 :]:
            for k in (1, 2):
                for sign in (1, -1):
                    D = field_discriminant(sign * k * p1 * p2)
                    full = full_structure(D)
                    assert counting_class_group(D)[0] == full.order(), D
                    assert class_group(D).two_part == _two_part(full), D


def test_two_sylow_rejects_wrong_order():
    elements, op, one = group_law(-260)  # type (2, 4), h = 8
    assert len(two_sylow(elements, op, one, 8)) == 8
    with pytest.raises(ClassGroupError):
        two_sylow(elements, op, one, 16)  # 2-Sylow never reaches 16
    elements, op, one = group_law(-23)  # type (3,)
    with pytest.raises(ClassGroupError):
        two_sylow(elements, op, one, 2)  # u = 1 leaves elements of order 3


KNOWN_REAL_WIDE = {5: 1, 8: 1, 12: 1, 13: 1, 40: 2, 60: 2, 65: 2, 136: 2, 229: 3}


def test_known_real_class_numbers():
    for D, h in KNOWN_REAL_WIDE.items():
        assert counting_class_group(D)[0] == h, D
        assert class_group(D).two_part.order() == h & -h, D


def test_narrow_vs_wide():
    # N(eps_3) = +1: narrow group of disc 12 is twice the wide group
    assert counting_class_group(12)[:2] == (1, 2)
    assert class_group(12).two_part == AbelianType(())
    # N(eps_10) = -1: narrow = wide for disc 40
    assert counting_class_group(40)[:2] == (2, 2)
    assert class_group(40).two_part == AbelianType((2,))
    # N(eps_34) = +1 with narrow type (4): the wide quotient by j is (2)
    assert counting_class_group(136)[:2] == (2, 4)
    assert class_group(136).two_part == AbelianType((2,))


def test_class_group_rejects():
    with pytest.raises(ValueError):
        class_group(7)  # 3 mod 4
    with pytest.raises(ValueError):
        class_group(16)  # square
    with pytest.raises(ValueError):
        class_group(10**9)
    for D in (-16, -12, 20, 5 * 9, 4 * 17, -32, -4 * 49, -1004):  # not fundamental
        with pytest.raises(ValueError):
            class_group(D)


def test_reduced_form_count_is_group_order():
    # independent counting check: the 2-Sylow subgroup fills the 2-part of
    # the exact number of reduced definite forms
    for D in (-260, -84, -95, -515, -1012, -10007, -34180):
        h = len(reduced_definite_forms(D))
        assert counting_class_group(D)[0] == h
        assert class_group(D).two_part.order() == h & -h


def test_composition_group_axioms_random():
    rng = random.Random(7)
    for D in (-260, -84, -95, -515, -9912, -99991, 316, 520, 229, 1020, 99928):
        elements, op, one = group_law(D)
        sample = elements if len(elements) <= 6 else rng.sample(elements, 6)
        for f in sample:
            assert op(f, one) == f
            assert any(op(f, g) == one for g in elements)  # inverse exists
            for g in sample:
                assert op(f, g) == op(g, f)
                for h in sample[:3]:
                    assert op(op(f, g), h) == op(f, op(g, h))


def test_definite_inverse_is_b_negation():
    for D in (-260, -84, -95):
        one = reduce_definite(principal_form(D))
        for f in reduced_definite_forms(D):
            assert reduce_definite(compose(f, BQForm(f.a, -f.b, f.c))) == one


def test_exponents_mn_fixture_rows():
    assert exponents_mn(validate_pair(5, 13)) == (2, 1)
    assert exponents_mn(validate_pair(5, 37)) == (3, 1)
    assert exponents_mn(validate_pair(5, 461)) == (2, 4)


def test_genus_two_two_and_shape_constraints_small():
    ps = primes_5_mod_8(150)
    pairs = [(a, b) for i, a in enumerate(ps) for b in ps[i + 1 :]]
    for p1, p2 in pairs:
        pair = validate_pair(p1, p2)
        r, d = pair.r, pair.d
        assert two_part_of_class_group(field_discriminant(d)) == AbelianType((2, 2))
        assert two_part_of_class_group(field_discriminant(-d)) == AbelianType((2, 2))
        minus = two_part_of_class_group(field_discriminant(-r))
        assert minus.rank() == 2 and minus.divisors[0] == 2
        assert minus.divisors[1] >= 4  # m >= 2
        plus = two_part_of_class_group(field_discriminant(r))
        assert plus.is_cyclic() and plus.order() >= 2  # n >= 1
        assert norm_eps(d) == -1


def test_reduce_indefinite_reaches_reduced():
    for D in (316, 520, 229, 1020):
        f = principal_form(D)
        g = reduce_indefinite(f)
        from classtower.quadratic import _is_reduced_indefinite
        import math

        assert _is_reduced_indefinite(g.a, g.b, math.isqrt(D))
        assert disc(g) == D


def test_reduced_principal_form_is_the_reduced_principal_start():
    # the closed form against reducing the principal form, for the D of every walk that
    # scan --max 1000 takes (m = p1 p2 and 2 p1 p2) and every small fundamental D > 0
    from classtower.quadratic import _is_reduced_indefinite, _reduced_principal

    ps = primes_5_mod_8(1000)
    ms = {k * a * b for i, a in enumerate(ps) for b in ps[i + 1 :] for k in (1, 2)}
    squarefree = [m for m in range(2, 400) if all(m % (d * d) for d in range(2, 20))]
    discs = {field_discriminant(m) for m in ms | set(squarefree)}
    assert len(discs) > 2 * 900
    for D in discs:
        s = math.isqrt(D)
        start = _reduced_principal(D, s)
        assert start == tuple(reduce_indefinite(principal_form(D))), D
        assert _is_reduced_indefinite(start[0], start[1], s) and disc(BQForm(*start)) == D


# --- the descent against the counting oracle ---------------------------------

# 2-Sylow subgroups with two cyclic factors of order >= 4 (square roots taken
# at one level differ by 2-torsion of different heights), several with four or
# more primes in D; found with the counting oracle among |D| <= 2*10^5
PINNED_TYPES = {
    12104: (4, 4), 69064: (4, 8), -103727: (8, 32), -152360: (2, 8, 16),
    -159844: (8, 16), 164840: (2, 4, 4), -169176: (2, 2, 4, 4), -187239: (4, 128),
    -198660: (2, 2, 2, 4, 4), -199795: (8, 8),
}


def test_descent_pinned_types():
    for D, divisors in PINNED_TYPES.items():
        assert counting_class_group(D)[2] == AbelianType(divisors), D
        assert class_group(D).two_part == AbelianType(divisors), D


ODD_PRIMES = [q for q in range(3, 400) if all(q % d for d in range(2, math.isqrt(q) + 1))]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.sampled_from([1, -4, 8, -8]),
    st.lists(st.sampled_from(ODD_PRIMES), unique=True, min_size=1, max_size=5),
)
def test_descent_matches_counting_oracle(two, odd_primes):
    # a product of prime discriminants is fundamental, of either sign; primes
    # that would take |D| beyond 2*10^5 are left out
    D = two
    for q in odd_primes:
        q_star = q if q % 4 == 1 else -q
        if abs(D * q_star) <= 200_000:
            D *= q_star
    assert class_group(D).two_part == counting_class_group(D)[2], D


def test_descent_on_deepest_pool_pairs():
    # the three perfbench large_pool.json pairs with the largest m: -4r has
    # 2-part (2, 512), and there h = 1024
    for p1, p2 in [(61, 36229), (149, 11173), (701, 2797)]:
        assert class_group(-4 * p1 * p2).two_part == AbelianType((2, 512))
        for D in (-4 * p1 * p2, p1 * p2):
            assert class_group(D).two_part == counting_class_group(D)[2], D


# --- the form API and the small-vector table ----------------------------------


def test_bqform_api_serves_the_counting_oracle():
    f = BQForm(2, 1, 3)
    assert (f.a, f.b, f.c) == (2, 1, 3) and tuple(f) == (2, 1, 3) and type(tuple(f)) is tuple
    # f's values, as the leading coefficients of the substitutions with first column (x, y)
    assert disc(f) == -23 and _transform(f, 1, 0).a == 2 and _transform(f, -1, 2).a == 12
    assert str(f) == f"{f}" == "(2, 1, 3)"
    assert f == BQForm(2, 1, 3) and f != BQForm(2, -1, 3)
    assert hash(f) == hash(BQForm(2, 1, 3)) and len({f, BQForm(2, 1, 3), BQForm(2, -1, 3)}) == 2
    with pytest.raises(AttributeError):
        f.a = 5
    forms = reduced_definite_forms(-23)
    assert sorted(forms, key=tuple) == [BQForm(1, 1, 6), BQForm(2, -1, 3), f]
    # the oracle's groups keep forms in sets and dicts and compare reduced ones
    assert counting_class_group(-23)[:2] == (3, 3)
    assert counting_class_group(316)[:2] == (3, 6)


def test_small_vector_table_then_tail_is_the_generator():
    from classtower.quadratic import _SMALL_VECTORS, _search_vectors, _small_vectors

    assert len(_SMALL_VECTORS) == 256
    assert list(islice(_search_vectors(), 2000)) == list(islice(_small_vectors(), 2000))


def test_class_groups_with_a_one_entry_table(monkeypatch):
    # cut to its first vector, the table leaves every search but the first step to the
    # generator's tail, and the class groups stay the same
    from classtower import quadratic

    ps = primes_5_mod_8(150)
    discs = [field_discriminant(s * k * a * b) for i, a in enumerate(ps) for b in ps[i + 1 :]
             for s in (-1, 1) for k in (1, 2)]
    expected = {D: class_group(D) for D in discs}
    tail, small_vectors = [], quadratic._small_vectors

    def counted_small_vectors():  # records the vectors read past the one-entry table
        vectors = small_vectors()
        yield next(vectors)
        for xy in vectors:
            tail.append(xy)
            yield xy

    monkeypatch.setattr(quadratic, "_SMALL_VECTORS", quadratic._SMALL_VECTORS[:1])
    monkeypatch.setattr(quadratic, "_small_vectors", counted_small_vectors)
    quadratic.class_group.cache_clear()
    try:
        assert {D: class_group(D) for D in discs} == expected
    finally:
        quadratic.class_group.cache_clear()
    assert len(tail) > len(discs)


def test_descent_levels_are_bounded_by_the_discriminant(monkeypatch):
    # a walk forged to report the ambiguous form (1, -13) for m = 377 sends the descent past
    # every valid level; a 2-Sylow exponent e has 2^e <= h < |D|, so it stops at the bit length
    from classtower import quadratic

    walk = quadratic._principal_cycle
    unit, steps, _ = walk(377)
    monkeypatch.setattr(quadratic, "_principal_cycle",
                        lambda m: (unit, steps, (1, -13)) if m == 377 else walk(m))
    quadratic.class_group.cache_clear()
    start = time.perf_counter()
    try:
        with pytest.raises(ClassGroupError, match="reached level 10 > 9, the bit length of"):
            quadratic.class_group(377)
    finally:
        quadratic.class_group.cache_clear()
    assert time.perf_counter() - start < 5


def test_shared_factorization_is_factorize():
    # _factorize reads the cached factorization of the odd part and adds the power of 2 back:
    # every n up to 5000, and 2r, 4r, 8r for the radicands r of the benchmark's pool
    import json
    from pathlib import Path

    from classtower import quadratic
    from classtower.abelian import factorize

    pool = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "large_pool.json"
    radicands = [row["p1"] * row["p2"] for row in json.loads(pool.read_text(encoding="utf-8"))]
    assert len(radicands) == 240
    for n in [*range(1, 5001), *(k * r for r in radicands for k in (2, 4, 8))]:
        assert quadratic._factorize(n) == factorize(n), n
        assert list(quadratic._factorize(n)) == list(factorize(n)), n  # the same order


def test_descent_matches_the_old_kernels():
    # the loop descent, the direct searches and Euler's criterion give what the recursive
    # descent and the old searches gave (verbatim copies in class_group_oracle): every level's
    # conic point, every square root, genus vector, (exponents, height) and 2-part of the
    # discriminants of -r, r, -2r, 2r with p2 <= 500; tests/certify_kernels.py goes to 1500
    from certify_kernels import descent_report

    ps = primes_5_mod_8(500)
    report = descent_report([validate_pair(a, b) for i, a in enumerate(ps) for b in ps[i + 1 :]])
    assert {name: bad for name, (_, bad) in report.items()} == dict.fromkeys(report, [])
    cases = {name: n for name, (n, _) in report.items()}
    assert cases["2-parts"] == cases["(exponents, height)"] == 4 * 276
    assert cases["conic points, every level of the descent"] > cases["square roots of forms"] > 0
