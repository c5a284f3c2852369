import json
import random
import time
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from sgen2.errors import (ConfigInvalid, IdentityFailed, IndexDivisor,
                          InvariantViolated, NotInLattice, PrimeInS,
                          SgenError, VerificationFailure)
from sgen2.field import FieldElement, NumberField, create_field, integer_rows
from sgen2.generators import build_generators
from sgen2.ideals import ResidueMap, factor_rational_prime, residue_maps
from sgen2.linalg import RatLattice
from sgen2.polys import primes_below
from sgen2.sunits import PrimeSet, s_unit_basis
from sgen2 import cli, ideals, polys, sunits, verification
from sgen2.verification import (VERIFY_DEFAULTS, admissible_primes,
                                elementary_witness, ideal_ladder,
                                identity_suite, image_order,
                                modp_surjectivity, prove_shape, reduce_triple,
                                run_verification)

import oracles
from instances import (ALL, DESK, gaussian_five, gaussian_three, gaussian_two,
                       rational_two, sqrt2_seven, sqrt5_two, zeta5_nofinite)


# The identity windows of VERIFY_DEFAULTS and the exponents n that
# run_verification always checks.
WINDOW = range(-5, 6)
N_RANGE = range(1, 6)


def triple(make, h=1):
    k, S = make()
    return build_generators(k, S, h=h)


def shaped(make, h=1):
    return prove_shape(triple(make, h))


# ---------------------------------------------------------------------------
# Identities.

def test_identity_suite_all_instances():
    for make in ALL:
        t = triple(make)
        rep = identity_suite(prove_shape(t), WINDOW, WINDOW, N_RANGE)
        assert rep["passed"], make.__name__
        assert rep["exponent_identities"] == 246
        if t.case_info.case == 2:
            assert rep["cm_identities"] == 32


def test_identity_suite_h2():
    rep = identity_suite(shaped(sqrt5_two, h=2), WINDOW, WINDOW, N_RANGE)
    assert rep["passed"]


def test_case2_n_identity_value():
    # u gamma^-1 u^-1 gamma = E21((1 - a^2)/t) with a = 1/2, t = i:
    # the entry is -3i/4, multiplied out in the oracle's power-basis
    # products
    t = triple(gaussian_two)
    k = t.field
    g = oracles.pm_rows(t.gamma.rows)
    u = oracles.pm_rows(((k.one, k.zero), (k.theta.inverse(), k.one)))
    lhs = oracles.pm_pow(k, u, 0)
    for m in (u, oracles.pm_pow(k, g, -1), oracles.pm_pow(k, u, -1), g):
        lhs = oracles._pm_mul(k, lhs, m)
    assert lhs == (([1, 0], [0, 0]), ([0, Fraction(-3, 4)], [1, 0]))


def test_case2_identities_hold_for_every_nonzero_h_and_sigma():
    # identity_suite checks neither CM identity: with tau = h sigma, t =
    # 1/tau and c = -tau^2 h both hold entrywise for any nonzero h and
    # sigma in K.  Random draws, multiplied out in the oracle's
    # power-basis products
    rng = random.Random(39)
    for make in (gaussian_two, sqrt5_two, zeta5_nofinite):
        k = make()[0]
        one, zero = k.one, k.zero

        def draw():
            while True:
                x = k.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(k.degree)])
                if x != zero:
                    return x

        def mul(*ms):
            out = ms[0]
            for m in ms[1:]:
                out = oracles._pm_mul(k, out, m)
            return out

        def conj(a, x):
            return mul(a, x, oracles._pm_inv(k, a))

        def e21(x):
            return oracles.pm_rows(((one, zero), (x, one)))

        def e12(x):
            return oracles.pm_rows(((one, x), (zero, one)))

        for _ in range(30):
            sigma, h = draw(), draw()
            tau = h * sigma
            t, c = tau.inverse(), -(tau * tau * h)
            u = e21(t)
            w = mul(oracles.pm_rows(((one, zero), (zero, sigma.inverse()))),
                    e12(t))
            lhs = conj(e12(tau), e21(h))
            assert lhs == oracles.pm_rows(((one + tau * h, c),
                                           (h, one - tau * h)))
            assert lhs == conj(u, e12(c))
            lhs = conj(e21(h), e12(tau))
            assert lhs == oracles.pm_rows(((one - h * tau, tau),
                                           (-(h * h * tau), one + h * tau)))
            assert lhs == conj(w, e21(c))


def tampered(t, **changes):
    """The triple t with some fields replaced."""
    return type(t)(**{k: changes.get(k, getattr(t, k)) for k in t.__slots__})


def h2_tampering():
    # the matrices of h = 1 under the certificate of h = 2
    return tampered(triple(rational_two), h=2)


def test_identity_suite_rejects_tampering():
    # the suite takes a proved shape only, and the proof fails
    with pytest.raises(IdentityFailed) as err:
        prove_shape(h2_tampering())
    assert err.value.instance == {"matrix": "gamma"}


def test_identity_windows_oracle_agrees():
    # the window products, multiplied out by the oracle, hold wherever
    # the shape argument passes, in both cases and at h = 2, and both
    # reject the h = 2 tampering
    cases = 0
    for make, h in [(make, 1) for make in ALL] + [(sqrt5_two, 2)]:
        t = triple(make, h)
        assert oracles.identity_windows(t, WINDOW, WINDOW, N_RANGE) == [], \
            (make.__name__, h)
        assert identity_suite(prove_shape(t), WINDOW, WINDOW,
                              N_RANGE)["passed"]
        cases |= 1 << t.case_info.case
    assert cases == 0b110
    bad = h2_tampering()
    assert oracles.identity_windows(bad, WINDOW, WINDOW, N_RANGE)
    with pytest.raises(IdentityFailed) as err:
        prove_shape(bad)
    assert err.value.instance == {"matrix": "gamma"}


def rows_of(t, rows):
    return type(t.gamma)(t.field, rows)


def test_run_verification_rejects_negated_gamma():
    # -gamma has determinant 1 and conjugates exactly as gamma does
    for make in ALL:
        t = triple(make)
        neg = tuple(tuple(-x for x in r) for r in t.gamma.rows)
        with pytest.raises(IdentityFailed) as err:
            run_verification(tampered(t, gamma=rows_of(t, neg)),
                             VERIFY_DEFAULTS, 0, "search")
        assert err.value.instance == {"matrix": "gamma"}, make.__name__


def test_run_verification_rejects_doubled_psi2():
    # psi2 = E12(2h) still satisfies every conjugation identity read off
    # its own entry
    for make in ALL:
        t = triple(make)
        if t.case_info.case != 1:
            continue
        k = t.field
        psi2 = rows_of(t, ((k.one, k.from_rational(2 * t.h)),
                           (k.zero, k.one)))
        with pytest.raises(IdentityFailed) as err:
            run_verification(tampered(t, psi2=psi2), VERIFY_DEFAULTS, 0,
                             "search")
        assert err.value.instance == {"matrix": "psi2"}, make.__name__


def test_run_verification_names_a_misshapen_matrix():
    t = triple(gaussian_five)
    k = t.field
    (a, _), (_, d) = t.gamma.rows
    upper = rows_of(t, ((a, k.one), (k.zero, d)))
    # determinant 1, lower-left entry h, but not unipotent
    h = k.from_rational(t.h)
    twisted = rows_of(t, ((-k.one, k.zero), (h, -k.one)))
    for name, mat in (("gamma", upper), ("psi1", twisted)):
        with pytest.raises(IdentityFailed) as err:
            run_verification(tampered(t, **{name: mat}), VERIFY_DEFAULTS, 0,
                             "search")
        assert err.value.instance == {"matrix": name}


def with_cert(t, **changes):
    """The triple t whose certificate has some fields replaced."""
    c = t.alpha_cert
    return tampered(t, alpha_cert=type(c)(
        **{k: changes.get(k, getattr(c, k)) for k in c.__slots__}))


def assert_alpha_tampering_rejected(makes, powers):
    for make in makes:
        t = triple(make)
        honest = run_verification(t, VERIFY_DEFAULTS, 0, "search")
        assert honest["passed"], make.__name__
        alpha = t.alpha_cert.alpha
        for bad in powers(alpha):
            with pytest.raises(IdentityFailed) as err:
                run_verification(with_cert(t, alpha=bad), VERIFY_DEFAULTS,
                                 0, "search")
            assert err.value.instance == {"alpha": "alpha_in_K"}, \
                (make.__name__, bad)


def test_run_verification_rejects_a_case1_certificate_alpha():
    # case 1 builds every matrix from alpha_in_K, so a certificate whose
    # alpha is alpha^2 would pass every other check
    for make in (gaussian_five, sqrt2_seven, rational_two):
        assert triple(make).case_info.case == 1
    assert_alpha_tampering_rejected(
        (gaussian_five, sqrt2_seven, rational_two), lambda a: [a * a])


def test_case2_ladder_reads_a_certificate_basis_over_f_and_s_f():
    # the F-side ladder reads the certificate's S(F)-unit basis; the
    # K-side basis, or one of F over another S, is refused
    t = triple(gaussian_three)
    F = t.case_info.case2.F.subfield
    other = s_unit_basis(F, PrimeSet(F, factor_rational_prime(F, 5)))
    for basis in (t.case_info.sbasis, other):
        with pytest.raises(VerificationFailure):
            run_verification(with_cert(t, sbasis=basis), VERIFY_DEFAULTS, 0,
                             "search")


def test_run_verification_rejects_a_case2_certificate_alpha():
    # the F-side ladder reads the certificate's alpha; on zeta5 alpha^2
    # moved it to m = 3, N = 2, M = 8100 and the triple still passed
    for make in (gaussian_two, gaussian_three, zeta5_nofinite):
        assert triple(make).case_info.case == 2
    assert_alpha_tampering_rejected(
        (gaussian_two, gaussian_three, zeta5_nofinite),
        lambda a: [a * a, a * a * a, -a])


def test_identity_suite_work_is_independent_of_the_windows(monkeypatch):
    t = triple(gaussian_two)
    calls = 0
    ib_mul = NumberField.ib_mul

    def counted(self, u, v):
        nonlocal calls
        calls += 1
        return ib_mul(self, u, v)

    monkeypatch.setattr(NumberField, "ib_mul", counted)
    shape = prove_shape(t)
    counts = []
    for window in (range(0, 1), range(-50, 51)):
        calls = 0
        rep = identity_suite(shape, window, window, N_RANGE)
        counts.append(calls)
        assert rep["exponent_identities"] == 4 + 2 * len(window) ** 2
    assert counts == [0, 0]


# ---------------------------------------------------------------------------
# The ladder.

def test_ladder_goldens_case1():
    for make, m in ((rational_two, 1), (gaussian_five, 4),
                    (sqrt2_seven, 4), (sqrt5_two, 1)):
        lad = ideal_ladder(shaped(make), "search")
        assert lad["case"] == 1
        assert lad["m"] == m, make.__name__
        assert lad["m_level"] == 0
        assert lad["containment_checked"]
        assert "N" not in lad


def test_ladder_goldens_case2():
    for make, mM in ((gaussian_two, (1, 1)), (gaussian_three, (1, 1)),
                     (zeta5_nofinite, (1, 100))):
        lad = ideal_ladder(shaped(make), "search")
        assert lad["case"] == 2
        assert (lad["m"], lad["M"]) == mM, make.__name__
        assert lad["N"] == 1 and lad["N_tried"] == [1]
        assert lad["containment_checked"]


def test_shape_spans_are_the_bases_spans():
    # lower (h a^2j) and upper (tau a^2j) come from the S-unit basis,
    # one object when tau = h (case 1)
    for make in (gaussian_five, sqrt2_seven, gaussian_two, gaussian_three):
        shape = shaped(make)
        sbasis = shape.triple.case_info.sbasis
        assert shape.lower is sbasis.span(shape.a2, shape.h)
        assert shape.upper is sbasis.span(shape.a2, shape.tau)
        case1 = shape.triple.case_info.case == 1
        assert (shape.upper is shape.lower) == case1, make.__name__
    # at h = 1 the case-1 ladder reads the certificate's n = 2 span
    shape = shaped(gaussian_five)
    cert = shape.triple.alpha_cert
    assert shape.lower is cert.sbasis.span(cert.alpha ** 2,
                                           cert.sbasis.field.one)


def test_ladder_h2():
    lad = ideal_ladder(shaped(sqrt5_two, h=2), "search")
    assert lad["m"] == 3


def test_ladder_explicit_n():
    lad = ideal_ladder(shaped(gaussian_two), 4)
    assert lad["N"] == 4 and lad["N_tried"] == [4]


@pytest.mark.parametrize("poly, ps, one_over_5", [
    ([-1, 1], (2, 5), False), ([1, 0, 1], (2, 5), False),
    ([1, 0, 1], (2, 5), True), ([-5, 0, 1], (2,), False)],
    ids=["Q-2-5", "Qi-2-5", "Qi-2-(2+i)", "Qsqrt5-2"])
def test_in_s_integers_matches_the_valuation_ladder(poly, ps, one_over_5):
    # x is an S-integer exactly when v_Q(x) >= 0, by the oracle's ladder,
    # at each Q outside S over a prime of x.den; the denominators hold
    # primes over S and outside it, and in Q(i) the prime 2 - i of 5 may
    # lie outside S while 2 + i lies in it
    k = create_field(poly)
    S = PrimeSet(k, [P for p in ps for P in factor_rational_prime(k, p)
                     if not (one_over_5 and p == 5) or P.contains(k.theta + 2)])
    sbasis = s_unit_basis(k, S)
    seen = set()
    for den in (1, 2, 3, 4, 5, 6, 10, 15, 25, 50, 63):
        for num in product(range(-3, 4), repeat=k.degree):
            x = FieldElement(k, num, den)
            inside = all(S.contains(Q) or oracles.valuation_ladder(x, Q) >= 0
                         for p in (2, 3, 5, 7) if x.den % p == 0
                         for Q in factor_rational_prime(k, p))
            assert verification._in_s_integers(sbasis, x) == inside, x.num
            seen.add(inside)
    assert seen == {True, False}


def oracle_level(k, sbasis, level, scale):
    """scale * Lambda_level as (den, rows), from the oracle's power-basis
    products."""
    rows = oracles.level_rows(k, sbasis, level)
    den = lcm(*(x.denominator for r in rows for x in r))
    return den, [[int(x * den) * scale for x in r] for r in rows]


def test_ladder_containment_forms():
    # case 1: m Lambda_k lands inside the Z-span of h a^{2j}
    t = triple(gaussian_five)
    k = t.field
    lad = ideal_ladder(prove_shape(t), "search")
    a2 = t.alpha_in_K ** 2
    gens = [k.from_rational(t.h) * a2 ** j for j in range(9)]
    span = RatLattice(*integer_rows(gens), k.degree)
    assert span.contains(*oracle_level(k, t.case_info.sbasis, 2, lad["m"]))

    # case 2: M Lambda_k lands inside span + sqrt(-d) span
    t = triple(gaussian_two)
    k = t.field
    lad = ideal_ladder(prove_shape(t), "search")
    a2 = t.alpha_in_K ** 2
    d = t.case_info.cm.d_in_K
    delta = t.case_info.cm.sqrt_minus_d
    scale = k.from_rational(t.h ** 3 * lad["m"]) * d
    gens = [scale * a2 ** j for j in range(9)]
    gens += [delta * g for g in gens]
    span = RatLattice(*integer_rows(gens), k.degree)
    assert span.contains(*oracle_level(k, t.case_info.sbasis, 2, lad["M"]))


# ---------------------------------------------------------------------------
# Witness words.

def test_witness_canonical_words():
    shape = shaped(rational_two)
    k = shape.triple.field
    w = elementary_witness(shape, k.from_rational(Fraction(1, 4)), "upper")
    assert w.word == [(1, 1)]
    w = elementary_witness(shape, k.from_rational(Fraction(5, 4)), "upper")
    assert w.word == [(0, 1), (1, 1)]
    w = elementary_witness(shape, k.zero, "upper")
    assert w.word == [] and w.stage == 0


def test_witness_lower_side_sign():
    shape = shaped(rational_two)
    k = shape.triple.field
    w = elementary_witness(shape, k.from_rational(Fraction(3, 4)), "lower")
    assert w.word == [(-1, 3)]


def test_witness_not_in_lattice():
    shape = shaped(rational_two)
    with pytest.raises(NotInLattice):
        elementary_witness(shape, shape.triple.field.from_rational(
            Fraction(1, 3)), "lower")


def test_witness_evaluates_on_quadratic():
    t = triple(gaussian_five)
    shape = prove_shape(t)
    k = t.field
    a2 = t.alpha_in_K ** 2
    for x in (k.one + a2 * 3, a2 * a2 * 2 - k.one, k.theta * 0):
        for side in ("lower", "upper"):
            w = elementary_witness(shape, x, side)
            total = k.zero
            scale = k.from_rational(t.h) if side == "lower" \
                else t.psi2.rows[0][1]
            for j, c in w.word:
                total = total + scale * a2 ** abs(j) * c
            assert total == x


def test_witness_rejects_a_misshapen_triple():
    # the word is read through the shapes, so elementary_witness takes
    # only a proved shape: -gamma and psi1 = E21(2h) conjugate exactly as
    # the constructed matrices do, but are not the constructed matrices
    for make in (rational_two, gaussian_five):
        t = triple(make)
        k = t.field
        neg = rows_of(t, tuple(tuple(-x for x in r) for r in t.gamma.rows))
        psi1 = rows_of(t, ((k.one, k.zero), (k.from_rational(2 * t.h), k.one)))
        for name, mat in (("gamma", neg), ("psi1", psi1)):
            with pytest.raises(IdentityFailed) as err:
                prove_shape(tampered(t, **{name: mat}))
            assert err.value.instance == {"matrix": name}, make.__name__


def test_witness_rejects_a_wrong_sum(monkeypatch):
    # a solve that misses the target is caught by the exact sum
    shape = shaped(gaussian_five)
    monkeypatch.setattr(verification, "_canonical_coeffs",
                        lambda kernel, sol: [c + 1 for c in sol])
    with pytest.raises(VerificationFailure):
        elementary_witness(shape, shape.triple.field.one, "lower")


def test_witness_makes_no_matrix_products():
    # src/sgen2 has no 2x2 product over K to call (source rule readers,
    # rows m2_mul and m2_inv); the words come from the proved shapes
    t = triple(gaussian_five)
    shape = prove_shape(t)
    k = t.field
    a2 = t.alpha_in_K ** 2
    words = 0
    for x in (k.one + a2 * 3, a2 * a2 * 2 - k.one, k.from_rational(t.h)):
        for side in ("lower", "upper"):
            words += len(elementary_witness(shape, x, side).word)
    assert words > 0


def test_witness_serialize():
    shape = shaped(rational_two)
    w = elementary_witness(shape, shape.triple.field.from_rational(
        Fraction(5, 4)), "upper")
    out = w.serialize()
    assert out["side"] == "upper"
    assert out["word"] == [{"conjugator_power": 0, "psi_exponent": 1},
                           {"conjugator_power": 1, "psi_exponent": 1}]


# ---------------------------------------------------------------------------
# Residue fields.

def test_residue_field_tables():
    t = triple(gaussian_two)
    k = t.field
    (R,) = residue_maps(k, 3, 100)
    assert R.q == 9
    zero = R.reduce(k.zero)
    one = R.reduce(k.one)
    th = R.reduce(k.theta)
    assert (zero, one) == (0, 1)
    # i generates F9 over F3
    assert verification._generates(R, [th])
    assert not verification._generates(R, [one, zero])
    # every nonzero element has a working inverse
    for x in range(R.q):
        if x == zero:
            assert R.inv_table[x] is None
        else:
            assert R.mul(x, R.inv_table[x]) == one
    # i^2 = -1
    assert R.mul(th, th) == R.neg_table[one]
    assert R.mul(R.mul(th, th), R.mul(th, th)) == one
    assert R.add(zero, th) == th


def test_residue_field_denominator_guard():
    t = triple(gaussian_two)
    k = t.field
    (R,) = residue_maps(k, 3, 100)
    with pytest.raises(ConfigInvalid):
        R.reduce(k.from_rational(Fraction(1, 3)))
    # denominators supported in S are fine: 1/2 = 2 mod 3, the residue 2
    assert R.reduce(k.from_rational(Fraction(1, 2))) == \
        R.reduce(k.from_rational(2)) == 2
    # (1 + i) / 2 = 2 + 2i mod 3, the residue 2 + 2 * 3
    assert R.reduce((k.one + k.theta) * k.from_rational(Fraction(1, 2))) \
        == 8


def _table_power(mul, x, e):
    """x^e by squaring through the oracle's multiplication table mul."""
    out, base = 1, x
    while e:
        if e & 1:
            out = mul[out][base]
        base = mul[base][base]
        e >>= 1
    return out


def _frobenius_degrees(R, mul):
    """For each x, the least e with x^(p^e) = x, by iterating x -> x^p
    through the oracle's multiplication table mul."""
    step = [_table_power(mul, x, R.p) for x in range(R.q)]
    degrees = []
    for x in range(R.q):
        y, e = step[x], 1
        while y != x:
            y, e = step[y], e + 1
        degrees.append(e)
    return degrees


def test_residue_tables_match_pairwise_construction():
    # the fields of the desk and benchmark-ladder instances, every prime
    # with q <= 150: Q(zeta5) at 2 and 3 gives q = 16 and 81, Q(i) at 11
    # gives q = 121
    fields = [create_field(poly) for poly in
              ([-1, 1], [1, 0, 1], [-2, 0, 1], [-5, 0, 1], [-103, 0, 1])]
    fields += [zeta5_nofinite()[0],
               create_field([-1, -1, 0, 1], datasheet=CUBIC_DATASHEET),
               shanks_cubic(-1)]
    sizes = set()
    for k in fields:
        for p in primes_below(151):
            primes = {P.hnf: P for P in factor_rational_prime(k, p)}
            for R in residue_maps(k, p, 150):
                mul, add, inv, neg = oracles.residue_tables(R, primes[R.hnf])
                where = (k.poly, p, R.q)
                elements = range(R.q)
                assert [[R.mul(x, y) for y in elements]
                        for x in elements] == mul, where
                assert [[R.add(x, y) for y in elements]
                        for x in elements] == add, where
                assert R.inv_table == inv, where
                assert R.neg_table == neg, where
                assert [verification._generates(R, [x])
                        for x in elements] == \
                    [d == R.f for d in _frobenius_degrees(R, mul)], where
                sizes.add((k.degree, R.q))
    # x^3 - x - 1 gives f = 2 at 5 (q = 25), the simplest cubic f = 3
    # at 2, 3 and 5 (q = 8, 27 and 125)
    assert {(4, 16), (4, 81), (2, 121), (2, 4), (3, 8), (3, 25), (3, 27),
            (3, 125)} <= sizes


def test_residue_maps_order_primes_as_factor_rational_prime():
    # under the bound p^n (n the degree) every prime is kept: the ring
    # maps come in the PrimeIdeals' order, with their p, e, f and HNF,
    # for every p <= 150 of the ladder fields and the cubics where p^n
    # stays within 13^3 (the tables take O(q) to build)
    fields = [create_field(poly) for poly in
              ([-1, 1], [1, 0, 1], [-2, 0, 1], [-5, 0, 1], [-103, 0, 1])]
    fields += [zeta5_nofinite()[0],
               create_field([-1, -1, 0, 1], datasheet=CUBIC_DATASHEET)]
    fields += [shanks_cubic(a) for a in (-1, 0, 1, 2, 4, 7, 8)]
    fs = set()
    for k in fields:
        for p in primes_below(151):
            if p ** k.degree > 13 ** 3:
                break
            maps = residue_maps(k, p, p ** k.degree)
            assert [(M.p, M.e, M.f, M.hnf) for M in maps] == \
                [(P.p, P.e, P.f, P.hnf) for P in factor_rational_prime(k, p)]
            fs |= {(k.degree, M.e, M.f) for M in maps}
    assert {(3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 3, 1), (4, 1, 4),
            (4, 4, 1), (2, 2, 1)} <= fs
    # Dedekind's cubic x^3 + x^2 - 2x + 8: 2 divides [O_K : Z[t]]
    k = dedekind_cubic()
    with pytest.raises(IndexDivisor):
        residue_maps(k, 2, 8)
    assert [M.f for M in residue_maps(k, 3, 27)] == [3]  # x^3 + x^2 + x + 2 mod 3


def dedekind_cubic():
    # x^3 + x^2 - 2x + 8: 2 divides [O_K : Z[t]]
    return create_field([8, -2, 1, 1], datasheet={
        "integral_basis": [[1, 0, 0], [0, 1, 0],
                           [0, Fraction(1, 2), Fraction(1, 2)]],
        "fundamental_units": [[-13, -13, -3]], "subfields": [],
        "class_orders": []})


def test_bounded_residue_maps_match_the_full_ones():
    # with a bound, only the factors of degree up to floor(log_p bound)
    # are split off (the squarefree primes) or kept (the others): the
    # same maps as the full factorization filtered by residue field size
    fields = [create_field(poly) for poly in
              ([-1, 1], [1, 0, 1], [-2, 0, 1], [-5, 0, 1], [-103, 0, 1])]
    fields += [zeta5_nofinite()[0],
               create_field([-1, -1, 0, 1], datasheet=CUBIC_DATASHEET)]
    fields += [shanks_cubic(a) for a in (-1, 0, 1, 2, 4, 7, 8)]
    key = lambda primes: [(P.p, P.e, P.f, P.hnf) for P in primes]
    for k in fields:
        for p in primes_below(151):
            full = factor_rational_prime(k, p)
            for bound in (p, p * p, 100, 150):
                assert key(residue_maps(k, p, bound)) == key(
                    [P for P in full if p ** P.f <= bound]), \
                    (k.poly, p, bound)
    k = dedekind_cubic()
    for bound in (2, 4, 100, 150):
        with pytest.raises(IndexDivisor):
            residue_maps(k, 2, bound)
    # x^3 + x^2 + x + 2 is irreducible mod 3: no map under 27
    assert residue_maps(k, 3, 26) == []


def test_admissible_walk_work_count(monkeypatch):
    # one zeta5_nofinite verify, the field's irreducibility screen
    # included.  Factoring every prime of the walk in full took 37
    # pp_powmod and 11 _equal_degree_split calls; capped at floor(log_p
    # q_bound), the primes past 10 read their linear factors by
    # evaluation and run no distinct-degree step, and no split is left.
    # Only the factorization's pp_powmod calls, the screen's and
    # factor_mod_p's, are counted
    counts = {"pp_powmod": 0, "_equal_degree_split": 0}
    factoring = []
    for name in counts:
        def counted(*args, _f=getattr(polys, name), _n=name):
            counts[_n] += bool(factoring)
            return _f(*args)
        monkeypatch.setattr(polys, name, counted)
    for name in ("factor_mod_p", "is_one_simple_factor_mod_p"):
        def factor(*args, _f=getattr(polys, name)):
            factoring.append(1)
            try:
                return _f(*args)
            finally:
                factoring.pop()
        monkeypatch.setattr(polys, name, factor)
    steps = []  # (p, degree cap, distinct-degree steps) per call
    distinct_degree = polys._distinct_degree

    def counted_ddf(f, p, max_degree=None):
        before = counts["pp_powmod"]
        out = distinct_degree(f, p, max_degree)
        steps.append((p, max_degree, counts["pp_powmod"] - before))
        return out
    monkeypatch.setattr(polys, "_distinct_degree", counted_ddf)
    t = build_generators(*zeta5_nofinite())
    rep = run_verification(t, VERIFY_DEFAULTS, 0, "search")
    assert [m["q"] for m in rep["modp"]] == [81] + [11] * 4 + [31] * 4 + [41]
    assert counts == {"pp_powmod": 8, "_equal_degree_split": 0}
    # the screen at 2, then the walk: 2, 3 and 7 (p^2 <= 100) step to
    # the degree of their last factor or to the cap, 5 (x^4 + ... + 1 =
    # (x - 1)^4) takes the full path, and 11 to 41 take no step
    assert steps == [(2, None, 2), (2, 6, 2), (3, 4, 2), (5, None, 0),
                     (7, 2, 2)]
    # factor_mod_p caps only a squarefree f, and no capped call steps
    # past its cap
    assert all(n <= cap for _, cap, n in steps if cap is not None)


def test_residue_map_checks_the_ring_map():
    # Z[i] at 5: i -> 2 is a ring map onto F_5, since 2^2 = -1 mod 5
    k = create_field([1, 0, 1])
    g = [-2 % 5, 1]
    M = ResidueMap(k, 5, g, 1, [[1, 0], [0, 1]], 1)
    assert M.reduce(k.theta) == 2
    assert M.hnf == ((1, 2), (0, 5))
    # a wrong image of i (2 + 2 = 4 or 2 * 2 = 4 under g = x - 2, where
    # 4^2 = 1 != -1) or of 1 is refused; i -> 1 + 2 = 3 is the ring map
    # of the other prime over 5
    assert ResidueMap(k, 5, g, 1, [[1, 0], [1, 1]], 1).hnf == ((1, 3), (0, 5))
    for rows in ([[1, 0], [2, 1]], [[2, 0], [0, 1]], [[1, 0], [0, 2]]):
        with pytest.raises(InvariantViolated):
            ResidueMap(k, 5, g, 1, rows, 1)
    # and so is a wrong image in F_9 = F_3[x] / (x^2 + 1)
    with pytest.raises(InvariantViolated):
        ResidueMap(k, 3, [1, 0, 1], 1, [[1, 0], [1, 1]], 1)
    assert ResidueMap(k, 3, [1, 0, 1], 1, [[1, 0], [0, 1]], 1).f == 2


def test_residue_map_needs_an_irreducible_factor():
    # x^2 + 1 = (x - 2)(x - 3) mod 5: F_5[x] / (x^2 + 1) is no field, and
    # i -> x is a ring map onto it, so only the field's tables catch it
    k = create_field([1, 0, 1])
    with pytest.raises(InvariantViolated, match="no primitive element"):
        ResidueMap(k, 5, [1, 0, 1], 1, [[1, 0], [0, 1]], 1)


def test_residue_field_build_is_linear_in_q(monkeypatch):
    k = create_field([1, 0, 1])
    calls = 0
    powers = ResidueMap.powers

    def counted(M, r):
        nonlocal calls
        for x in powers(M, r):
            calls += 1
            yield x

    monkeypatch.setattr(ResidueMap, "powers", counted)
    (R,) = residue_maps(k, 11, 150)
    assert R.q == 121
    # powers walked by the fixed multiply-by-candidate maps, one product
    # each; the pairwise tables took q(q + 1)/2 = 7381 products
    assert 0 < calls <= 3 * R.q


# ---------------------------------------------------------------------------
# Surjectivity mod P.

def at(t, M):
    """(M, mats) for modp_surjectivity: the triple t at the prime of the
    ring map M."""
    return M, reduce_triple(t, M)


def ideal_of(k, R):
    """The PrimeIdeal of k whose ring map is R, for the oracle."""
    (P,) = [P for P in factor_rational_prime(k, R.p) if P.hnf == R.hnf]
    return P


def test_modp_rational_goldens():
    t = triple(rational_two)
    k = t.field
    (p3,) = residue_maps(k, 3, 100)
    rep = modp_surjectivity(*at(t, p3))
    assert rep["q"] == 3
    assert rep["reached"] == 24 == rep["group_order"]
    assert rep["passed"]
    assert rep["bfs_expansions"] == 144
    (p5,) = residue_maps(k, 5, 100)
    assert modp_surjectivity(*at(t, p5))["reached"] == 120
    (p2,) = residue_maps(k, 2, 100)
    with pytest.raises(PrimeInS):
        reduce_triple(t, p2)


def test_modp_group_orders_against_oracle():
    for q, expect in ((2, 6), (3, 24), (5, 120), (7, 336)):
        assert oracles.sl2_order_prime(q) == expect == q * (q * q - 1)
    # F9 built from x^2 + 1
    assert oracles.sl2_order_quadratic(3, (1, 0)) == 720 == 9 * 80


def test_modp_central_gamma_breaks_surjectivity():
    # alpha^2 = 1 mod 3 makes gamma central in SL2(F9): the closure is
    # the order-120 subgroup, honestly reported as a failure
    t = triple(gaussian_two)
    (p3,) = residue_maps(t.field, 3, 100)
    rep = modp_surjectivity(*at(t, p3))
    assert rep["q"] == 9
    assert rep["group_order"] == 720
    assert rep["reached"] == 120
    assert not rep["passed"]


def test_modp_residue_field_bound():
    # 11 is inert in Z[i]: its residue field of size 121 is past the bound
    k = create_field([1, 0, 1])
    assert residue_maps(k, 11, 100) == []
    assert [M.q for M in residue_maps(k, 11, 121)] == [121]


def test_modp_shared_characteristic():
    t = triple(sqrt2_seven)
    (other,) = [M for M in residue_maps(t.field, 7, 100)
                if not any(P.hnf == M.hnf for P in t.S.finite)]
    with pytest.raises(ConfigInvalid):
        reduce_triple(t, other)


def test_admissible_walk_ends_past_the_bound(monkeypatch):
    # every prime over p has a residue field of size at least p, so the
    # walk for more primes than the bound admits stops after p = 97; it
    # reads each prime through its ring map, never as a PrimeIdeal
    shape = shaped(gaussian_five)
    walked = []

    def maps(field, p, bound):
        walked.append(p)
        return residue_maps(field, p, bound)

    def factor(field, p):
        raise AssertionError(f"the walk factored {p} into PrimeIdeals")

    monkeypatch.setattr(verification, "residue_maps", maps)
    monkeypatch.setattr(ideals, "factor_rational_prime", factor)
    with pytest.raises(ConfigInvalid):
        admissible_primes(shape, 1000, 100)
    assert max(walked) == 97
    assert walked == [p for p in primes_below(98) if p != 5]


def sqrt103_five():
    # a valid case-1 instance whose image at p = 7 (q = 49) is the
    # order-672 subgroup SL2(F_7).<gamma>
    k = create_field([-103, 0, 1])
    return k, PrimeSet(k, list(factor_rational_prime(k, 5)))


def reduced(R, mats):
    return [tuple(tuple(R.reduce(x) for x in row) for row in m.rows)
            for m in mats]


def test_modp_count_matches_bfs_oracle():
    # every admissible prime (q <= 100) of the desk instances and of
    # sqrt103_five, plus gaussian_two at 3, which no filter admits, and
    # sqrt103_five at 7, which the P | m rule skips
    cases = []
    for make in DESK + [sqrt103_five]:
        t = triple(make)
        cases += [(t,) + at(t, R)
                  for R, _ in admissible_primes(prove_shape(t), 10, 100)]
    for make, p in ((gaussian_two, 3), (sqrt103_five, 7)):
        t = triple(make)
        cases += [(t,) + at(t, M) for M in residue_maps(t.field, p, 100)]
    proper = []
    for t, R, mats in cases:
        rep = modp_surjectivity(R, mats)
        assert mats == reduced(R, t.matrices())
        expect = oracles.sl2_image_bfs(R, ideal_of(t.field, R),
                                       reduced(R, t.matrices()))
        assert (rep["reached"], rep["bfs_expansions"]) == expect, \
            (t.field.poly, R.p, rep["q"])
        if not rep["passed"]:
            proper.append((rep["q"], rep["reached"], rep["group_order"]))
    assert sorted(proper) == [(9, 120, 720), (49, 672, 117600)]


def test_case2_filter_keeps_a_proper_image_out_although_m_is_1(tmp_path):
    # Q(i) over 7 (case 2): the ladder gives m = M = 1, yet at the prime
    # over 3 (q = 9) the image is SL2(F_5), 120 of 720 elements.  Only
    # the filter on reduced gamma (central there) keeps the prime out of
    # the mod-P check, so a ladder rule "skip only where p | M" would
    # make this valid instance exit 3.
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps({"field": {"poly": [1, 0, 1]},
                                  "S": [{"p": 7}]}))
    assert cli.main(["verify", "--config", str(config),
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert (rep["verification"]["ladder"]["m"],
            rep["verification"]["ladder"]["M"]) == (1, 1)
    assert 3 not in [e["p"] for e in rep["verification"]["modp"]]
    k = create_field([1, 0, 1])
    t = build_generators(k, PrimeSet(k, list(factor_rational_prime(k, 7))))
    (M,) = residue_maps(k, 3, 9)
    mats = reduce_triple(t, M)
    assert mats[0] == ((1, 0), (0, 1))
    orbit, stabilizer = image_order(M, mats)
    assert orbit * stabilizer == 120
    assert oracles.sl2_image_bfs(M, ideal_of(k, M), mats)[0] == 120


def test_image_order_proper_subgroups():
    def mats_over(R, k, *entries):
        return [tuple(tuple(R.reduce(k.from_rational(v)) for v in row)
                      for row in m) for m in entries]

    k5 = create_field([-1, 1])
    (F5,) = residue_maps(k5, 5, 100)
    e21 = ((1, 0), (1, 1))
    e12 = ((1, 1), (0, 1))
    torus = ((2, 0), (0, 3))
    minus = ((-1, 0), (0, -1))
    k9 = create_field([1, 0, 1])
    (F9,) = residue_maps(k9, 3, 100)
    i = F9.reduce(k9.theta)
    g = F9.reduce(k9.one + k9.theta)  # of order 8
    cases = [
        (F5, k5, mats_over(F5, k5, e21, torus), (4, 5)),   # lower Borel
        (F5, k5, mats_over(F5, k5, e12, torus), (20, 1)),  # upper Borel
        (F5, k5, mats_over(F5, k5, torus), (4, 1)),        # diagonal torus
        (F5, k5, mats_over(F5, k5, minus), (2, 1)),        # {+-1}
        (F9, k9, mats_over(F9, k9, e12, e21), (8, 3)),     # SL2(F_3)
        # E21 of the whole of F_9, spanned by two additive generators
        (F9, k9,
         mats_over(F9, k9, e21) + [((1, 0), (i, 1))],
         (1, 9)),
        # a lower Borel of F_9: the first orbit point already spans the
        # whole stabilizer, and the orbit walk must still reach all of
        # (F_9^*, 0)
        (F9, k9,
         mats_over(F9, k9, e21) + [((1, 0), (i, 1)),
                                   ((g, 0), (0, F9.inv_table[g]))],
         (8, 9)),
    ]
    for R, k, mats, expect in cases:
        assert image_order(R, mats) == expect, (R.q, expect)
        reached, expansions = oracles.sl2_image_bfs(R, ideal_of(k, R), mats)
        assert reached == expect[0] * expect[1]
        assert expansions == 2 * len(mats) * reached


# x^3 - x - 1 (discriminant -23, so Z[t] is maximal; t is the
# fundamental unit): 2 and 3 are inert in it, giving q = 8 and 27, which
# no field of the verify benchmark's ladder has.
CUBIC_DATASHEET = {
    "integral_basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "fundamental_units": [[0, 1, 0]],
    "subfields": [],
    "class_orders": [],
}


def shanks_cubic(a):
    """Shanks' simplest cubic field x^3 - a x^2 - (a + 3) x - 1 on the
    basis 1, t, t^2 with the units t and t + 1, as the census builds it
    (for the a listed there, Z[t] is maximal)."""
    return create_field([-1, -(a + 3), -a, 1], datasheet={
        "integral_basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "fundamental_units": [[0, 1, 0], [1, 1, 0]], "subfields": [],
        "class_orders": []})


def small_residue_fields(bound):
    """(R, P) for every residue field R = O_K / P of size up to bound of
    the verify ladder's fields (Q, Q(i), Q(sqrt 2), Q(sqrt 5), Q(sqrt
    103), Q(zeta5)) and of the cubic field above."""
    fields = [create_field(poly) for poly in
              ([-1, 1], [1, 0, 1], [-2, 0, 1], [-5, 0, 1], [-103, 0, 1])]
    fields += [zeta5_nofinite()[0],
               create_field([-1, -1, 0, 1], datasheet=CUBIC_DATASHEET)]
    return [(R, P) for k in fields for p in primes_below(bound + 1)
            for R in residue_maps(k, p, bound)
            for P in factor_rational_prime(k, p) if P.hnf == R.hnf]


def generating_sets(R, P, rng):
    """Seeded subsets of SL2(R), built on the oracle's pairwise tables:
    1-3 random matrices, lower and upper Borels, a torus, SL2 of each
    subfield k, and SL2(k) diag(a, a^-1) for a generator a of R^* and,
    where one exists, for an a outside k with a^2 in k (the shape of
    the order-672 image at q = 49)."""
    mul, add, inv, _ = oracles.residue_tables(R, P)
    q, one, zero = R.q, 1, 0
    nonzero = [x for x in range(q) if x != zero]

    def power(x, e):
        out = one
        for _ in range(e):
            out = mul[out][x]
        return out

    def order(x):
        return next(e for e in range(1, q) if power(x, e) == one)

    def diag(a):
        return ((a, zero), (zero, inv[a]))

    def e12(x):
        return ((one, x), (zero, one))

    def e21(x):
        return ((one, zero), (x, one))

    def random_sl2():
        a = rng.choice(nonzero)
        b, c = rng.randrange(q), rng.randrange(q)
        return ((a, b), (c, mul[add[one][mul[b][c]]][inv[a]]))

    g = next(x for x in nonzero if order(x) == q - 1)
    x, t = rng.choice(nonzero), rng.choice(nonzero)
    sets = [[random_sl2() for _ in range(n)] for n in (1, 2, 3)]
    sets += [[e21(x), diag(t)], [e12(x), diag(t)], [diag(t)]]
    for e in range(1, R.f + 1):
        if R.f % e:
            continue
        size = R.p ** e
        # w generates k^*, so 1, w, ..., w^(e-1) is an F_p-basis of k
        w = power(g, (q - 1) // (size - 1))
        basis = [power(w, j) for j in range(e)]
        sl2k = [e12(b) for b in basis] + [e21(b) for b in basis]
        sets.append(sl2k)
        if size < q:
            sets.append(sl2k + [diag(g)])
            if (q - 1) // (size - 1) % 2 == 0:
                sets.append(sl2k + [diag(power(g, (q - 1) // (2 * size - 2)))])
    return sets


def test_image_order_matches_bfs_on_seeded_sets():
    rng = random.Random(20)
    sizes = set()
    proper = set()
    for R, P in small_residue_fields(27):
        for mats in generating_sets(R, P, rng):
            orbit, stabilizer = image_order(R, mats)
            reached, expansions = oracles.sl2_image_bfs(R, P, mats)
            assert orbit * stabilizer == reached, (P.field.poly, R.p, R.q,
                                                   mats)
            assert expansions == 2 * len(mats) * reached
            if reached < R.q * (R.q * R.q - 1):
                proper.add((R.q, reached))
        sizes.add(R.q)
    assert {4, 8, 9, 16, 25, 27} <= sizes
    # 2 |SL2(F_p)| at q = p^2, as in the census's exit-3 reports
    assert {(9, 48), (25, 240)} <= proper


def test_modp_count_is_linear_in_q():
    # E21(1) and E12(1) generate SL2(F_p); the tables of the former
    # count had 10^8 entries at p = 10007
    k = create_field([-1, 1])
    for p in (1009, 10007):
        started = time.process_time()
        (R,) = residue_maps(k, p, p)
        orbit, stabilizer = image_order(R, [((1, 0), (1, 1)),
                                            ((1, 1), (0, 1))])
        assert time.process_time() - started < 2, p
        assert (orbit, stabilizer) == (p * p - 1, p)


def test_modp_above_q_100_at_speed():
    # 11 is inert in Z[i]: q = 121, whose group has 1.77 M elements
    t = triple(gaussian_two)
    (p11,) = residue_maps(t.field, 11, 150)
    started = time.process_time()
    rep = modp_surjectivity(*at(t, p11))
    assert time.process_time() - started < 3
    assert rep["q"] == 121
    assert rep["reached"] == rep["group_order"] == 1771440
    assert rep["bfs_expansions"] == 10628640


def test_admissible_prime_goldens():
    expected = {
        rational_two: [3, 5, 7, 11, 13, 17, 19, 23, 29, 31],
        gaussian_two: [5, 5, 49, 13, 13, 17, 17, 29, 29, 37],
        gaussian_three: [2, 5, 5, 49, 13, 13, 17, 17, 29, 29],
        gaussian_five: [2, 9, 49, 13, 13, 17, 17, 29, 29, 37],
        sqrt2_seven: [2, 9, 25, 17, 17, 23, 23, 31, 31, 41],
        sqrt5_two: [9, 5, 49, 11, 11, 19, 19, 29, 29, 31],
        zeta5_nofinite: [81, 11, 11, 11, 11, 31, 31, 31, 31, 41],
    }
    for make, qs in expected.items():
        got = [R.q for R, _ in admissible_primes(shaped(make), 10, 100)]
        assert got == qs, make.__name__


def test_admissible_primes_honor_bound_above_100():
    # the residue fields are built under the caller's bound, so q = 121
    # (11 is inert in Z[i]) is admissible once the bound allows it
    got = [(R.p, R.q) for R, _ in admissible_primes(shaped(gaussian_two), 4,
                                                    150)]
    assert got == [(5, 5), (5, 5), (7, 49), (11, 121)]


def test_admissible_primes_all_pass():
    for make in ALL:
        t = triple(make)
        for R, rep in admissible_primes(prove_shape(t), 10, 100):
            assert rep == modp_surjectivity(*at(t, R))
            assert rep["passed"], (make.__name__, R.p, rep["reached"])


# ---------------------------------------------------------------------------
# The P | m rule of the case-1 walk.

def from_config(raw):
    """The triple of a config as `verify` builds it."""
    cfg = cli.validate_config(raw)
    k = create_field(cfg["field"]["poly"], cfg["field"]["datasheet"])
    return build_generators(k, cli.resolve_prime_set(k, cfg["S"]),
                            h=cfg["h"]), cfg


def walked_maps(t, bound):
    """The ring maps of every prime with q <= bound over a rational p
    that does not divide h and that no member of S lies over (there the
    S-units have p in their denominators, and reduce_triple refuses)."""
    schars = {P.p for P in t.S.finite}
    return [R for p in primes_below(bound + 1)
            if p not in schars and t.h % p
            for R in residue_maps(t.field, p, bound)]


def frobenius_degree(R, x):
    """The least e with x^(p^e) = x, by repeated products alone."""
    y, e = x, 0
    while True:
        z = 1
        for _ in range(R.p):
            z = R.mul(z, y)
        y, e = z, e + 1
        if y == x:
            return e


# the case-1 instances of the verify benchmark's ladder, which hold the
# desk instances of that case, and Q(sqrt 94) over 5
LEMMA_CONFIGS = [{"field": {"poly": poly}, "S": [{"p": p} for p in ps]}
                 for poly, ps in (
                     ([-1, 1], (2,)), ([1, 0, 1], (5,)), ([-5, 0, 1], (2,)),
                     ([1, 0, 1], (5, 13, 17, 29)), ([-2, 0, 1], (7, 17, 23)),
                     ([-1, 1], (2, 3, 5, 7, 11, 13)), ([-103, 0, 1], (5,)),
                     ([-94, 0, 1], (5,)))]
LEMMA_CONFIGS.append({"field": {"poly": [-2, 0, 1]},
                      "S": [{"p": 7, "select": {"generator": [3, 1]}}]})


def test_case1_lemma_gives_every_image_order():
    # the image is SL2(k) <gamma> with k = F_p(a^2): |SL2(k)| when a is
    # in k, twice that otherwise, at every prime with q <= 100
    primes = proper = 0
    for raw in LEMMA_CONFIGS:
        t, _ = from_config(raw)
        assert t.case_info.case == 1, raw
        for R in walked_maps(t, 100):
            mats = reduce_triple(t, R)
            a = mats[0][0][0]
            e = frobenius_degree(R, R.mul(a, a))
            s = R.p ** e
            order = s * (s * s - 1) * (1 if frobenius_degree(R, a) == e
                                       else 2)
            orbit, stabilizer = image_order(R, mats)
            assert orbit * stabilizer == order, (raw, R.p, R.q)
            primes += 1
            proper += order < R.q * (R.q * R.q - 1)
    # the two proper images are those of order 2 |SL2(F_7)| = 672 (a not
    # in k = F_7) of Q(sqrt 103) and Q(sqrt 94) at q = 49
    assert (primes, proper) == (199, 2)


def test_wrong_m_still_raises_at_a_prime_not_dividing_m(monkeypatch):
    # with the ladder's index cut to m / 7 the prime over 7 (q = 49, not
    # onto) no longer divides m, so the walk must raise, not skip
    t = triple(sqrt103_five)
    m, lvl, seq = prove_shape(t).lower.index()
    assert m % 7 == 0 and (m // 7) % 7
    monkeypatch.setattr(sunits.PowerSpan, "index",
                        lambda self: (m // 7, lvl, seq))
    with pytest.raises(VerificationFailure,
                       match=r"prime over 7 \(q = 49\) is not surjective: "
                             r"672 of 117600"):
        admissible_primes(prove_shape(t), 10, 100)
    with pytest.raises(VerificationFailure, match="prime over 7"):
        run_verification(t, VERIFY_DEFAULTS, 0, "search")


# The case-2 census rows whose image at the prime over 3 (q = 9) is 120
# of 720, SL2(F_5), although 3 does not divide the ladder's M (ROADMAP
# item 21).  Census rules: the list grows only with the grid (the two
# Q(zeta12) rows came with its degree-4 rows), and a fix that proves the
# right ideal removes its rows.
CASE2_OVER_3 = [
    "Q(sqrt -1) over 2",
    "Q(sqrt -1) over 2,7",
    "Q(sqrt -1) over 7",
    "Q(sqrt -10) over 2",
    "Q(sqrt -10) over 2,5",
    "Q(sqrt -10) over 5",
    "Q(sqrt -13) over 2",
    "Q(sqrt -13) over 2,5",
    "Q(sqrt -13) over 5",
    "Q(sqrt -19) over 2",
    "Q(sqrt -22) over 2",
    "Q(sqrt -22) over 2,5",
    "Q(sqrt -22) over 2,7",
    "Q(sqrt -22) over 5",
    "Q(sqrt -22) over 7",
    "Q(sqrt -34) over 2",
    "Q(sqrt -37) over 2",
    "Q(sqrt -37) over 2,5",
    "Q(sqrt -37) over 2,7",
    "Q(sqrt -37) over 5",
    "Q(sqrt -37) over 7",
    "Q(sqrt -43) over 2",
    "Q(sqrt -43) over 2,5",
    "Q(sqrt -43) over 2,7",
    "Q(sqrt -43) over 5",
    "Q(sqrt -43) over 7",
    "Q(sqrt -46) over 2",
    "Q(sqrt -46) over 2,7",
    "Q(sqrt -46) over 7",
    "Q(sqrt -55) over 5",
    "Q(sqrt -58) over 2",
    "Q(sqrt -58) over 2,5",
    "Q(sqrt -58) over 2,7",
    "Q(sqrt -58) over 5",
    "Q(sqrt -58) over 7",
    "Q(sqrt -7) over 5",
    "Q(sqrt -7) over 7",
    "Q(zeta12) over 11",
    "Q(zeta12) over 2",
]


def test_non_onto_images_sit_at_primes_dividing_the_ladder():
    # every census row whose ladder completes, every prime with q <= 50:
    # an image that is not onto needs p | m (case 1) or p | M (case 2)
    import census
    cases, exceptions = [], []
    for name, raw in census.rows():
        try:
            t, cfg = from_config(raw)
            lad = ideal_ladder(prove_shape(t), cfg["N"])
        except SgenError:
            continue
        cases.append(lad["case"])
        n = lad["m"] if lad["case"] == 1 else lad["M"]
        for R in walked_maps(t, 50):
            if n % R.p:
                orbit, stabilizer = image_order(R, reduce_triple(t, R))
                if orbit * stabilizer < R.q * (R.q * R.q - 1):
                    exceptions.append((name, lad["case"], R.q,
                                       orbit * stabilizer))
    assert (cases.count(1), cases.count(2)) == (493, 171)
    assert sorted(exceptions) == [(name, 2, 9, 120) for name in CASE2_OVER_3]


# ---------------------------------------------------------------------------
# The combined run.

def test_run_verification_gaussian_two():
    rep = run_verification(triple(gaussian_two), VERIFY_DEFAULTS, 0,
                           "search")
    assert rep["passed"]
    assert rep["witnesses"]["count"] == 10
    for item in rep["witnesses"]["items"]:
        assert item["side"] in ("lower", "upper")
    assert len(rep["modp"]) == 10
    assert rep["ladder"]["N"] == 1
    assert rep["identities"]["passed"]


def test_run_verification_respects_explicit_n():
    verify = dict(VERIFY_DEFAULTS, primes=2, witness_samples=2)
    rep = run_verification(triple(gaussian_two), verify, 0, 7)
    assert rep["ladder"]["N"] == 7
    assert rep["identities"]["n_values"] == [1, 2, 3, 4, 5, 7]


# The desk instances of tests/instances.py as verify configs.
DESK_CONFIGS = [
    {"field": {"poly": [-1, 1]}, "S": [{"p": 2}]},
    {"field": {"poly": [1, 0, 1]}, "S": [{"p": 2}]},
    {"field": {"poly": [1, 0, 1]}, "S": [{"p": 3}]},
    {"field": {"poly": [1, 0, 1]}, "S": [{"p": 5}]},
    {"field": {"poly": [-2, 0, 1]},
     "S": [{"p": 7, "select": {"generator": [3, 1]}}]},
    {"field": {"poly": [-5, 0, 1]}, "S": [{"p": 2}]},
]


def test_shape_proved_once_per_report(tmp_path, monkeypatch):
    # every check of a report reads the one Shape run_verification
    # proves, however many witnesses it draws
    proved = []
    prove = verification.prove_shape

    def counted(t):
        proved.append(t)
        return prove(t)

    monkeypatch.setattr(verification, "prove_shape", counted)
    config = tmp_path / "config.json"
    out = tmp_path / "report.json"
    cases = set()
    for cfg in DESK_CONFIGS + [dict(DESK_CONFIGS[3],
                                    verify={"witness_samples": 200})]:
        config.write_text(json.dumps(cfg))
        proved.clear()
        assert cli.main(["verify", "--config", str(config),
                         "--out", str(out)]) == 0, cfg
        assert len(proved) == 1, cfg
        rep = json.loads(out.read_text())
        cases.add(rep["analysis"]["classification"]["case"])
        assert rep["verification"]["witnesses"]["count"] == \
            cfg.get("verify", VERIFY_DEFAULTS)["witness_samples"]
    assert cases == {1, 2}
