import json
import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import oracles
import pytest

from sgen2 import field, linalg, polys
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
    assert (k._ib_den, k._ib_rows) == (1, [[1]])
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
    assert (k._ib_den, k._ib_rows) == (1, [[1, 0], [0, 1]])
    i = k.theta
    assert i * i == k.from_rational(-1)
    assert (1 + 2 * i).norm() == 5
    assert (1 + 2 * i).trace() == 2
    assert (1 + i).is_integral()
    assert ((1 + i) * Fraction(1, 2)).is_integral() is False
    assert i.is_root_of_unity() and (-i).is_root_of_unity()
    assert not (1 + i).is_root_of_unity()
    assert not k.from_rational(2).is_root_of_unity()
    # the sixth roots of unity of Q(sqrt -3): powers of (1 + sqrt -3)/2,
    # of order 6; the field's trace bound stops 1 + sqrt -3 at once
    k3 = create_field([3, 0, 1])
    zeta6 = (k3.one + k3.theta) * Fraction(1, 2)
    assert all((zeta6 ** j).is_root_of_unity() for j in range(6))
    assert not (k3.one + k3.theta).is_root_of_unity()


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
    assert (k._ib_den, k._ib_rows[1]) == (1, [0, 1])


# d of the fields Q(sqrt d) the analyze_sweep benchmark runs (besides Q)
# and of the desk instances
SWEEP_AND_DESK_D = (-1, -2, -3, -7, -11, -19, -43, -67, -163, 2, 3, 5, 13)
# Dedekind's cubic on 1, t, (t + t^2)/2, its basis given as strings
DEDEKIND_SHEET = {"integral_basis": [[1, 0, 0], [0, 1, 0], [0, "1/2", "1/2"]],
                  "fundamental_units": [[-13, -13, -3]]}


def test_integral_basis_is_one_set_of_integer_rows():
    # the basis is held once, as integer rows over the least common
    # denominator, and reports print those rows over it: for x^2 - d,
    # 1 and (1 + t)/2 when d = 1 mod 4, else 1 and t
    def held(k):
        return k._ib_den, k._ib_rows, k.serialize()["integral_basis"]

    assert held(QQ()) == (1, [[1]], [["1"]])
    for d in SWEEP_AND_DESK_D:
        if d % 4 == 1:
            want = (2, [[2, 0], [1, 1]], [["1", "0"], ["1/2", "1/2"]])
        else:
            want = (1, [[1, 0], [0, 1]], [["1", "0"], ["0", "1"]])
        assert held(create_field([-d, 0, 1])) == want, d
    # every census datasheet and Dedekind's cubic: the sheet's rational
    # rows cleared to one denominator
    import census
    sheets = {json.dumps(cfg["field"], sort_keys=True): cfg["field"]
              for _, cfg in census.rows() if "datasheet" in cfg["field"]}
    sheets = list(sheets.values()) + [{"poly": [8, -2, 1, 1],
                                       "datasheet": DEDEKIND_SHEET}]
    rejected = 0
    for f in sheets:
        basis = [[Fraction(x) for x in row]
                 for row in f["datasheet"]["integral_basis"]]
        den = lcm(*(x.denominator for row in basis for x in row))
        want = (den, [[int(x * den) for x in row] for row in basis],
                [[format_rational(x) for x in row] for row in basis])
        try:
            k = create_field(f["poly"], f["datasheet"])
        except DatasheetInvalid:
            rejected += 1  # Q(zeta5) with a unit of finite order
            continue
        assert held(k) == want, f
    assert (len(sheets), rejected, want[0]) == (128, 2, 2)


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
    # the ten roots of unity +-zeta5^j, of orders 1, 2, 5 and 10
    assert all((s * z ** j).is_root_of_unity()
               for s in (1, -1) for j in range(5))
    (unit,) = k.sheet_units
    assert abs(unit.norm()) == 1
    assert not unit.is_root_of_unity() and not (-unit).is_root_of_unity()
    assert not k.from_rational(2).is_root_of_unity()
    # unit is (1 + sqrt 5)/2 under the declared embedding of sqrt 5
    g = k.element([-1, 0, -2, -2])
    assert g * g == k.from_rational(5)
    assert unit * 2 - 1 == g


def test_datasheet_read_once_into_typed_attributes():
    sheet = dict(ZETA5_DATASHEET, class_orders=[ZETA5_CLASS_ORDER])
    k = create_field([1, 1, 1, 1, 1], datasheet=sheet)
    assert k.sheet_units == (k.element([0, 0, -1, -1]),)
    ((sub, emb),) = k.sheet_subfields
    assert sub.poly == (-5, 0, 1) and emb == k.element([-1, 0, -2, -2])
    hnf = tuple(tuple(r) for r in ZETA5_CLASS_ORDER["ideal"])
    assert k.sheet_class_orders == {hnf: (1, k.element([1, -1, 0, 0]))}
    # the caller's sheet is left as it was
    assert sheet["fundamental_units"] == [[0, 0, -1, -1]]
    q = create_field([-2, 1])
    assert (q.sheet_units, q.sheet_subfields, q.sheet_class_orders) == \
        ((), (), {})


def screen(f):
    return field._irreducibility_screen(f, polys.sturm_chain(f))


def test_irreducibility_screen_reads_one_factor_mod_p():
    # Phi_5 is irreducible mod 2; x^4 + 1 is irreducible over Q but
    # splits mod every prime, so no prime proves it
    assert screen([1, 1, 1, 1, 1]) == "proved"
    assert screen([1, 0, 0, 0, 1]) == "asserted"


@pytest.mark.parametrize("poly, g", [
    ([1, -2, 1], [-1, 1]), ([1, 0, -2, 0, 1], [-1, 0, 1]),
    ([-1, 3, -3, 1], [1, -2, 1]), ([9, 0, -6, 0, 1], [-3, 0, 1])])
def test_square_factor_names_the_gcd_with_the_derivative(poly, g):
    with pytest.raises(Reducible) as err:
        create_field(poly)
    assert str(err.value) == f"square factor detected: gcd with derivative {g}"


# x^3 - 3x + 1, the maximal order Z[t], with the units t and t + 2
CUBIC_SHEET = {"integral_basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
               "fundamental_units": [[0, 1, 0], [2, 1, 0]]}


@pytest.mark.parametrize("poly, sheet, prems, fields", [
    ([-2, 0, 1], None, 2, 1), ([-1, 1], None, 1, 1),
    ([1, -3, 0, 1], CUBIC_SHEET, 3, 1),
    # with its Q(sqrt 5) subfield
    ([1, 1, 1, 1, 1], ZETA5_DATASHEET, 5, 2)],
    ids=["sqrt2", "rationals", "cubic", "zeta5"])
def test_create_field_builds_one_chain_and_one_basis_hnf(
        monkeypatch, poly, sheet, prems, fields):
    # one signed PRS of (f, f') per field, and one HNF of its integral
    # basis for the inverse basis: the HNFs made inside _build_ib_inv are
    # counted, not those of the solves (an embedding's minimal polynomial)
    calls, inside = [], []
    prem, hnf = polys.prem, linalg.hnf
    build = field.NumberField._build_ib_inv
    monkeypatch.setattr(polys, "prem",
                        lambda *a: calls.append("prem") or prem(*a))
    monkeypatch.setattr(linalg, "hnf", lambda *a: calls.append(
        "basis hnf" if inside else "hnf") or hnf(*a))

    def counted_build(self):
        inside.append(self)
        calls.append("basis")
        try:
            return build(self)
        finally:
            inside.pop()
    monkeypatch.setattr(field.NumberField, "_build_ib_inv", counted_build)
    create_field(poly, datasheet=sheet)
    assert (calls.count("prem"), calls.count("basis"),
            calls.count("basis hnf")) == (prems, fields, fields)


def test_irreducibility_screen_needs_no_equal_degree_split(monkeypatch):
    # Phi_32 = x^16 + 1 splits mod every odd prime into factors of one
    # degree below 16; the distinct-degree split shows that without
    # splitting them apart
    calls = []
    split = polys._equal_degree_split
    monkeypatch.setattr(polys, "_equal_degree_split",
                        lambda *a: calls.append(a) or split(*a))
    phi32 = [1] + [0] * 15 + [1]
    assert screen(phi32) == "asserted"
    assert screen([1, 1, 1, 1, 1]) == "proved"
    assert calls == []
    # the counter is live: factoring Phi_32 mod 3 splits
    assert len(polys.factor_mod_p(phi32, 3)[0]) > 1 and calls


def test_serialize_is_format_rational_of_power_coords():
    # integer coordinates against the Fraction path, with negative
    # numerators over denominators from the element and from the
    # integral basis (Q(sqrt 5)'s omega = (1 + t) / 2)
    rng = random.Random(18)
    fields = (QQ(), QI(), create_field([-5, 0, 1]),
              create_field([1, 1, 1, 1, 1], datasheet=ZETA5_DATASHEET))
    for k in fields:
        samples = [k.basis_element(k.degree - 1),
                   field.FieldElement(k, [-3] * k.degree, 4)]
        samples += [field.FieldElement(k, [rng.randint(-40, 40)
                                           for _ in range(k.degree)],
                                       rng.randint(1, 24))
                    for _ in range(60)]
        for x in samples:
            assert x.serialize() == [format_rational(c)
                                     for c in oracles.pb_coords(x)]
        assert any("/" in c and c.startswith("-")
                   for x in samples for c in x.serialize())
    assert create_field([-5, 0, 1]).basis_element(1).serialize() == \
        ["1/2", "1/2"]


def test_omega_minpoly_is_norm_and_minus_trace():
    # omega's minimal polynomial read off D agrees with the norm and
    # trace of the second integral basis element
    checked = 0
    for d in range(-60, 61):
        if d in (0, 1) or polys.squarefree_part(d) != d:
            continue
        k = create_field([-d, 0, 1])
        w = k.basis_element(1)
        assert k.omega_minpoly() == (w.norm(), -w.trace()), d
        checked += 1
    assert checked == 73


# the prime above 5 in Q(zeta5), in integral-basis rows, generated by 1 - t
ZETA5_CLASS_ORDER = {"ideal": [[1, 0, 0, 4], [0, 1, 0, 4], [0, 0, 1, 4],
                               [0, 0, 0, 5]],
                     "order": 1, "generator": [1, -1, 0, 0]}


def zeta5_with(key, **entry):
    """The Q(zeta5) sheet with its one subfield or class-order entry
    changed."""
    base = {"subfields": ZETA5_DATASHEET["subfields"][0],
            "class_orders": ZETA5_CLASS_ORDER}[key]
    return dict(ZETA5_DATASHEET, **{key: [dict(base, **entry)]})


# Sheets that load must reject: each coordinate list holds exactly n = 4
# rationals, polynomials and ideal rows hold integers (a bool is neither
# an integer nor an order), an ideal has full rank and is listed once, a
# class-order generator is a nonzero algebraic integer, and a unit has
# infinite order.
MALFORMED_ZETA5_SHEETS = [
    dict(ZETA5_DATASHEET, fundamental_units=[5]),
    dict(ZETA5_DATASHEET, fundamental_units=[[0, 0, -1, -1, 0]]),
    dict(ZETA5_DATASHEET, fundamental_units=[[0, 0, -1]]),
    dict(ZETA5_DATASHEET, fundamental_units=[[0, 1, 0, 0]]),      # zeta5
    dict(ZETA5_DATASHEET, fundamental_units=[[-1, 0, 0, 0]]),     # -1
    zeta5_with("subfields", embedding=5),
    zeta5_with("subfields", embedding=[-1, 0, -2, -2, 0]),
    zeta5_with("subfields", poly=["-5/1", 0, 1]),
    zeta5_with("subfields", poly=[-5.5, 0, 1]),
    zeta5_with("subfields", poly=[-5, 0, True]),
    zeta5_with("class_orders", ideal=5),
    zeta5_with("class_orders", ideal=[[1, 0, 0, 4], [0, 1, 0, 4],
                                       [0, 0, 1, "4"], [0, 0, 0, 5]]),
    zeta5_with("class_orders", ideal=[[1, 0, 0, 4], [0, 1, 0, 4],
                                       [0, 0, 1, 4]]),
    zeta5_with("class_orders", generator=5),
    zeta5_with("class_orders", generator=[1, -1, 0]),
    zeta5_with("class_orders", generator=[1, -1, 0, 0, 0]),
    zeta5_with("class_orders", generator=[0, 0, 0, 0]),
    zeta5_with("class_orders", order=True),
    zeta5_with("class_orders", extra=1),
    dict(ZETA5_DATASHEET, class_orders=[ZETA5_CLASS_ORDER] * 2),
]


def test_datasheet_rejects_bad_basis():
    bad = dict(ZETA5_DATASHEET, integral_basis=[[1, 0, 0, 0], [0, 2, 0, 0],
                                                [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(DatasheetInvalid, match="does not contain Z"):
        create_field([1, 1, 1, 1, 1], datasheet=bad)
    bad = dict(ZETA5_DATASHEET, integral_basis=[[1, 0, 0, 0], [0, 1, 0, 0],
                                                [0, 1, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(DatasheetInvalid, match="integral basis is singular"):
        create_field([1, 1, 1, 1, 1], datasheet=bad)
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
    # a subfield of degree 4 is the field itself, not a proper subfield:
    # the entry is rejected before it is built
    bad = dict(ZETA5_DATASHEET, subfields=[{"poly": [1, 1, 1, 1, 1],
                                            "embedding": [0, 1, 0, 0]}])
    with pytest.raises(DatasheetInvalid, match="has K's degree 4"):
        create_field([1, 1, 1, 1, 1], datasheet=bad)
    for sheet in MALFORMED_ZETA5_SHEETS:
        with pytest.raises(DatasheetInvalid):
            create_field([1, 1, 1, 1, 1], datasheet=sheet)



def test_structure_constants_match_direct_products():
    # dual route: integral-basis structure constants and the trace Gram
    # read off them vs the power-basis oracle's products and traces
    for poly, ds in [([1, 0, 1], None), ([-5, 0, 1], None),
                     ([-45, 0, 1], None), ([1, 1, 1, 1, 1], ZETA5_DATASHEET)]:
        k = create_field(poly, datasheet=ds)
        n = k.degree
        basis = oracles.pb_basis(k)
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
    """Sums, products, powers, inverses, norms, traces, minimal polynomials
    and serialized coordinates of random elements against Fraction
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
            assert oracles.pb_coords(x) == list(coords)
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
            for e in range(10):
                check(a ** e, oracles.pb_pow(k, ca, e))
            if not a.is_zero():
                inv = oracles.pb_inverse(k, ca)
                check(a.inverse(), inv)
                check(b / a, oracles.pb_mul(k, cb, inv))
                for e in range(1, 4):
                    check(a ** -e, oracles.pb_pow(k, inv, e))
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
    for poly in cases:
        u = fundamental_unit(create_field(list(poly)))
        assert not u.is_root_of_unity() and not (-u).is_root_of_unity()


def test_continued_fraction_step_takes_the_floor_for_either_sign():
    # a = floor((P + sqrt D) / Q) means a Q - P <= sqrt D < (a + 1) Q - P
    # for Q > 0, reversed for Q < 0; x < sqrt D is x < 0 or x^2 < D
    def below_sqrt(x, D):
        return x < 0 or x * x < D

    checked = 0
    for D in (5, 8, 12, 13, 21, 28, 229, 4 * 94):
        r = isqrt(D)
        for Q in [q for q in range(-40, 41) if q]:
            for P in range(-50, 51):
                if (D - P * P) % Q:
                    continue
                a, P2, Q2 = field.continued_fraction_step(P, Q, D, r)
                lo, hi = a * Q - P, (a + 1) * Q - P
                if Q < 0:
                    lo, hi = hi, lo
                assert below_sqrt(lo, D) and not below_sqrt(hi, D)
                assert P2 == a * Q - P and Q * Q2 == D - P2 * P2
                checked += 1
    assert checked > 1000


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
        assert tuple(oracles.pb_coords(fundamental_unit(k))) == want, m
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
        assert not u.is_root_of_unity()


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(5) == 5
    assert parse_rational("-7") == -7
    with pytest.raises(DatasheetInvalid):
        parse_rational("x")
    with pytest.raises(DatasheetInvalid):
        parse_rational(True)
