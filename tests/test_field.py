import random
from fractions import Fraction
from math import gcd

import oracles
import pytest

from sgen2 import linalg, polys
from sgen2.errors import (DatasheetInvalid, DatasheetRequired, DivisionByZero,
                          NotMonic, Reducible)
from sgen2.field import (create_field, format_rational, fundamental_unit,
                         parse_rational)

# x^4 + x^3 + x^2 + x + 1; power basis is already integral, disc 125,
# golden unit -t^2 - t^3 has square 1 + golden, subfield generated by
# -1 - 2t^2 - 2t^3 (a square root of 5)
ZETA5_DATASHEET = {
    "integral_basis": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "fundamental_units": [[0, 0, -1, -1]],
    "subfields": [{"poly": [-5, 0, 1], "embedding": [-1, 0, -2, -2]}],
    "class_orders": [],
}


def QQ():
    return create_field([-1, 1])


def QI():
    return create_field([1, 0, 1])


def test_rationals():
    k = QQ()
    assert k.degree == 1
    assert k.signature == (1, 0)
    assert k.field_discriminant == 1
    assert k.integral_basis == ((Fraction(1),),)
    x = k.from_rational(Fraction(3, 4))
    assert x * x == k.from_rational(Fraction(9, 16))
    assert x.norm() == Fraction(3, 4)
    assert x.trace() == Fraction(3, 4)
    assert not x.is_integral()
    assert k.from_rational(7).is_integral()


def test_gaussian_field():
    k = QI()
    assert k.signature == (0, 1)
    assert k.field_discriminant == -4
    assert k.integral_basis == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    i = k.theta
    assert i * i == k.from_rational(-1)
    assert (1 + 2 * i).norm() == 5
    assert (1 + 2 * i).trace() == 2
    assert (1 + i).is_integral()
    assert ((1 + i) * Fraction(1, 2)).is_integral() is False


def test_sqrt5_integral_basis():
    k = create_field([-5, 0, 1])
    assert k.field_discriminant == 5
    # second basis row is (1 + sqrt 5)/2
    omega = k.basis_element(1)
    assert omega.minimal_poly() == (Fraction(-1), Fraction(-1), Fraction(1))
    assert omega.is_integral()
    assert (k.theta * Fraction(1, 2)).is_integral() is False
    half = (k.one + k.theta) * Fraction(1, 2)
    assert half.is_integral()


def test_sqrt2_field():
    k = create_field([-2, 0, 1])
    assert k.field_discriminant == 8
    assert k.signature == (2, 0)
    assert k.integral_basis[1] == (Fraction(0), Fraction(1))


def test_nonmaximal_power_basis_detected():
    # x^2 - 45: disc 180 = 36 * 5, maximal order has (3 + sqrt45)/6... the
    # basis element is (1 + sqrt 5)/2 = (3 + t)/6 with t = sqrt 45
    k = create_field([-45, 0, 1])
    assert k.field_discriminant == 5
    w = k.basis_element(1)
    assert w.minimal_poly() == (Fraction(-1), Fraction(-1), Fraction(1))


def test_discriminant_golden_values():
    for poly, disc in [([1, 0, 1], -4), ([-2, 0, 1], 8), ([-5, 0, 1], 5),
                       ([5, 0, 1], -20), ([3, 0, 1], -3), ([-3, 0, 1], 12),
                       ([1, 1, 1], -3), ([2, 2, 1], -4)]:
        assert create_field(poly).field_discriminant == disc


def test_element_arithmetic_field_axioms():
    k = create_field([-5, 0, 1])
    rng = random.Random(2)

    def rand_el():
        return k.element([Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                          for _ in range(2)])

    for _ in range(25):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - a).is_zero()
        if not a.is_zero():
            assert a * a.inverse() == k.one
            assert (a ** -2) * (a ** 2) == k.one


def test_norm_trace_multiplicative_additive():
    k = create_field([1, 0, 1])
    rng = random.Random(4)
    for _ in range(20):
        a = k.element([rng.randint(-9, 9), rng.randint(-9, 9)])
        b = k.element([rng.randint(-9, 9), rng.randint(-9, 9)])
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a + b).trace() == a.trace() + b.trace()


def test_minimal_poly():
    k = create_field([-2, 0, 1])
    x = k.one + k.theta  # 1 + sqrt 2
    assert x.minimal_poly() == (Fraction(-1), Fraction(-2), Fraction(1))
    assert k.from_rational(3).minimal_poly() == (Fraction(-3), Fraction(1))
    # norm and trace agree with the quadratic minimal polynomial
    assert x.norm() == -1
    assert x.trace() == 2


def test_division_by_zero():
    k = QI()
    with pytest.raises(DivisionByZero):
        k.zero.inverse()
    with pytest.raises(DivisionByZero):
        k.one / k.zero


def test_rejects_bad_polynomials():
    with pytest.raises(NotMonic):
        create_field([1, 2])
    with pytest.raises(NotMonic):
        create_field([5])
    with pytest.raises(NotMonic):
        create_field([Fraction(1, 2), 1])
    with pytest.raises(Reducible):
        create_field([-1, 0, 1])
    with pytest.raises(Reducible):
        create_field([0, 0, 1])       # square factor
    with pytest.raises(Reducible):
        create_field([-6, 11, -6, 1])
    with pytest.raises(Reducible):
        create_field([2, 3, 1])       # (x+1)(x+2)


def test_datasheet_required_for_higher_degree():
    with pytest.raises(DatasheetRequired):
        create_field([1, 1, 1, 1, 1])


def test_datasheet_field_zeta5():
    k = create_field([1, 1, 1, 1, 1], datasheet=ZETA5_DATASHEET)
    assert k.degree == 4
    assert k.signature == (0, 2)
    assert k.field_discriminant == 125
    assert k.tier == "datasheet"
    assert k.irreducibility == "proved"
    z = k.theta
    assert z ** 5 == k.one
    unit = k.datasheet["fundamental_units"][0]
    assert abs(unit.norm()) == 1
    # unit is (1 + sqrt 5)/2 under the declared embedding of sqrt 5
    g = k.element([-1, 0, -2, -2])
    assert g * g == k.from_rational(5)
    assert unit * 2 - 1 == g


def test_datasheet_rejects_bad_basis():
    bad = dict(ZETA5_DATASHEET, integral_basis=[[1, 0, 0, 0], [0, 2, 0, 0],
                                                [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(DatasheetInvalid):
        create_field([1, 1, 1, 1, 1], datasheet=bad)   # does not contain Z[t]
    bad = dict(ZETA5_DATASHEET, integral_basis=[[0, 1, 0, 0], [1, 0, 0, 0],
                                                [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(DatasheetInvalid):
        create_field([1, 1, 1, 1, 1], datasheet=bad)   # first row not 1
    bad = dict(ZETA5_DATASHEET,
               integral_basis=[[1, 0, 0, 0], [0, Fraction(1, 2), 0, 0],
                               [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(DatasheetInvalid):
        create_field([1, 1, 1, 1, 1], datasheet=bad)   # not closed / not integral
    bad = dict(ZETA5_DATASHEET, fundamental_units=[])
    with pytest.raises(DatasheetInvalid):
        create_field([1, 1, 1, 1, 1], datasheet=bad)   # unit rank mismatch
    bad = dict(ZETA5_DATASHEET, subfields=[{"poly": [-7, 0, 1],
                                            "embedding": [-1, 0, -2, -2]}])
    with pytest.raises(DatasheetInvalid):
        create_field([1, 1, 1, 1, 1], datasheet=bad)   # wrong minimal poly


def test_structure_constants_match_direct_products():
    # dual route: integral-basis structure constants and the trace Gram
    # read off them vs the power-basis oracle's products and traces
    for poly, ds in [([1, 0, 1], None), ([-5, 0, 1], None),
                     ([-45, 0, 1], None), ([1, 1, 1, 1, 1], ZETA5_DATASHEET)]:
        k = create_field(poly, datasheet=ds)
        n = k.degree
        basis = k.integral_basis
        gram = k.trace_gram()
        for i in range(n):
            for j in range(n):
                direct = oracles.pb_mul(k, basis[i], basis[j])
                assert oracles.pb_to_ib(k, direct) == list(k.mult_table[i][j])
                assert gram[i][j] == oracles.pb_trace(k, direct)
        # ib_mul on random integral and rational coordinate vectors
        rng = random.Random(n)
        for _ in range(20):
            u = [rng.randint(-9, 9) for _ in range(n)]
            v = [rng.randint(-9, 9) for _ in range(n)]
            w = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
            for a, b in ((u, v), (w, u)):
                direct = oracles.pb_mul(k, linalg.vec_mat(a, basis),
                                        linalg.vec_mat(b, basis))
                assert oracles.pb_to_ib(k, direct) == k.ib_mul(a, b)


ORACLE_FIELDS = [([-1, 1], None), ([1, 0, 1], None), ([-5, 0, 1], None),
                 ([1, 1, 1], None), ([-45, 0, 1], None),
                 ([1, 1, 1, 1, 1], ZETA5_DATASHEET)]


def test_elements_match_power_basis_oracle():
    """Sums, products, inverses, norms, traces, minimal polynomials and
    serialized coordinates of random elements against Fraction
    arithmetic in the power basis; every element in lowest terms, and
    equal elements equal and hashed alike whichever way they were made."""
    rng = random.Random(8)
    for poly, ds in ORACLE_FIELDS:
        k = create_field(poly, datasheet=ds)
        n = k.degree

        def rand_coords():
            return [Fraction(rng.randint(-7, 7), rng.randint(1, 4))
                    for _ in range(n)]

        def check(x, coords):
            assert x.den > 0 and gcd(x.den, *x.num) == 1
            assert list(x.power_coords()) == list(coords)
            assert x.serialize() == [format_rational(c) for c in coords]
            same = (k.element(coords), k.from_ib(oracles.pb_to_ib(k, coords)))
            for y in same:
                assert y == x and hash(y) == hash(x)
                assert (y.num, y.den) == (x.num, x.den)

        for _ in range(12):
            ca, cb = rand_coords(), rand_coords()
            a, b = k.element(ca), k.element(cb)
            check(a, ca)
            check(a + b, [p + q for p, q in zip(ca, cb)])
            check(a - b, [p - q for p, q in zip(ca, cb)])
            check(a * b, oracles.pb_mul(k, ca, cb))
            check(a * Fraction(-3, 2), [c * Fraction(-3, 2) for c in ca])
            assert a.norm() == oracles.pb_norm(k, ca)
            assert a.trace() == oracles.pb_trace(k, ca)
            assert a.minimal_poly() == oracles.pb_minimal_poly(k, ca)
            if not a.is_zero():
                check(a.inverse(), oracles.pb_inverse(k, ca))
                check(b / a, oracles.pb_mul(k, cb, oracles.pb_inverse(k, ca)))
            check(a - a, [0] * n)
        e0 = [1] + [0] * (n - 1)
        ones = {k.one, k.element(e0), k.from_ib(e0), k.from_rational(1),
                k.theta * k.theta.inverse(), k.theta / k.theta}
        assert len(ones) == 1


def test_trace_gram_discriminant_cross_check():
    for poly in ([1, 0, 1], [-2, 0, 1], [-5, 0, 1], [5, 0, 1], [-45, 0, 1]):
        k = create_field(poly)
        gram = k.trace_gram()
        assert int(linalg.mat_det(gram)) == k.field_discriminant


def test_fundamental_unit_golden():
    # one continued-fraction period over the discriminant D, so the unit
    # of the maximal order: (1 + sqrt 5)/2, not (1 + sqrt 5)/2 cubed
    cases = {
        (-2, 0, 1): [1, 1],                 # 1 + sqrt 2
        (-3, 0, 1): [2, 1],                 # 2 + sqrt 3
        (-5, 0, 1): None,                   # (1 + sqrt 5)/2, checked below
        (-29, 0, 1): None,                  # (5 + sqrt 29)/2
        (-94, 0, 1): [2143295, 221064],     # large continued fraction
        (-13, 0, 1): None,                  # (3 + sqrt 13)/2
    }
    k5 = create_field([-5, 0, 1])
    u = fundamental_unit(k5)
    assert u == (k5.one + k5.theta) * Fraction(1, 2)
    assert u.norm() == -1
    k29 = create_field([-29, 0, 1])
    u29 = fundamental_unit(k29)
    assert u29 * 2 - 5 == k29.theta
    assert u29.norm() == -1
    k13 = create_field([-13, 0, 1])
    u13 = fundamental_unit(k13)
    assert u13 * 2 - 3 == k13.theta
    for poly, xy in cases.items():
        if xy is None:
            continue
        k = create_field(list(poly))
        u = fundamental_unit(k)
        assert u == k.from_rational(xy[0]) + k.from_rational(xy[1]) * k.theta
        assert abs(u.norm()) == 1


def test_fundamental_unit_matches_brute_force():
    # against the oracle's search for the smallest y with D y^2 +- 4 a
    # square: every real quadratic field x^2 - m, m < 1000, whose unit it
    # reaches within y <= 2000, and the three large units of the
    # principal-ideal tests
    checked = 0
    for m in range(2, 1000):
        if polys.squarefree_part(m) != m:
            continue
        k = create_field([-m, 0, 1])
        D = k.field_discriminant
        xy = oracles.fundamental_unit_brute(D, 221064 if m in (67, 94, 118)
                                            else 2000)
        if xy is None:
            continue
        x, y = xy
        # t = sqrt m, and sqrt D is t (D = m) or 2t (D = 4m)
        want = (Fraction(x, 2), Fraction(y, 2) * (1 if D % 2 else 2))
        assert fundamental_unit(k).power_coords() == want, m
        checked += 1
    assert checked == 352


def test_fundamental_unit_is_a_unit_always():
    for m in (2, 3, 6, 7, 10, 11, 13, 17, 19, 21, 29, 33, 37, 41, 53, 61, 94):
        part = m
        k = create_field([-part, 0, 1])
        u = fundamental_unit(k)
        assert u.is_integral()
        assert abs(u.norm()) == 1
        assert u.inverse().is_integral()


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(5) == 5
    assert parse_rational("-7") == -7
    with pytest.raises(DatasheetInvalid):
        parse_rational("x")
    with pytest.raises(DatasheetInvalid):
        parse_rational(True)
