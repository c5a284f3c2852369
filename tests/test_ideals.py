import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from sgen2 import ideals, linalg, polys
from sgen2.errors import (ConfigInvalid, DatasheetInvalid, IndexDivisor,
                          OrderBoundExceeded)
from sgen2.field import create_field, fundamental_unit
from sgen2.ideals import (IntegralIdeal, PrimeIdeal, class_order,
                          factor_rational_prime)
from sgen2.linalg import RatLattice
from sgen2.sunits import PrimeSet, s_unit_basis

import oracles
from test_field import ZETA5_DATASHEET, zeta5_with


def QI():
    return create_field([1, 0, 1])


def test_principal_ideal_products():
    # (a)(b) = (ab) for random integral a, b: the ideal product runs on
    # structure constants, the element product on the power basis
    rng = random.Random(11)
    for poly, ds in [([1, 0, 1], None), ([-5, 0, 1], None), ([3, 0, 1], None),
                     ([5, 0, 1], None), ([1, 1, 1, 1, 1], ZETA5_DATASHEET)]:
        k = create_field(poly, datasheet=ds)
        done = 0
        while done < 8:
            a, b = (k.from_ib([rng.randint(-6, 6) for _ in range(k.degree)])
                    for _ in range(2))
            if a.is_zero() or b.is_zero():
                continue
            prod = IntegralIdeal.principal(k, a) * IntegralIdeal.principal(k, b)
            assert prod == IntegralIdeal.principal(k, a * b), (poly, a, b)
            assert prod.norm == abs(a.norm() * b.norm())
            done += 1


def test_gaussian_two_ramifies():
    k = QI()
    (p2,) = factor_rational_prime(k, 2)
    assert (p2.e, p2.f) == (2, 1)
    assert p2.norm == 2
    # the prime is (1 + i)
    assert p2 == IntegralIdeal.principal(k, k.one + k.theta)
    assert p2.two_element[0] == 2
    # p^2 = (2)
    assert p2 ** 2 == IntegralIdeal.principal(k, k.from_rational(2))


def test_gaussian_five_splits():
    k = QI()
    pa, pb = factor_rational_prime(k, 5)
    assert (pa.e, pa.f) == (1, 1) and (pb.e, pb.f) == (1, 1)
    assert pa != pb
    assert pa.hnf == ((1, 2), (0, 5))
    assert pb.hnf == ((1, 3), (0, 5))
    assert pa * pb == IntegralIdeal.principal(k, k.from_rational(5))
    # two-element presentations are theta-based: i - 2 and i + 2
    assert pb.two_element[1] == k.theta + 2
    assert pa.two_element[1] == k.theta - 2


def test_gaussian_inert_primes():
    k = QI()
    for p in (3, 7, 11, 19):
        (q,) = factor_rational_prime(k, p)
        assert (q.e, q.f) == (1, 2)
        assert q.norm == p * p
        assert q.two_element[1].is_zero()


def test_sqrt5_splitting_golden():
    k = create_field([-5, 0, 1])
    (q2,) = factor_rational_prime(k, 2)     # 5 = 5 mod 8: 2 inert
    assert (q2.e, q2.f) == (1, 2)
    (q5,) = factor_rational_prime(k, 5)     # ramified
    assert (q5.e, q5.f) == (2, 1)
    qa, qb = factor_rational_prime(k, 11)   # 11 = +-1 mod 5: splits
    assert (qa.f, qb.f) == (1, 1)
    (q3,) = factor_rational_prime(k, 3)
    assert q3.f == 2


def test_sqrt2_seven_splits():
    k = create_field([-2, 0, 1])
    qa, qb = factor_rational_prime(k, 7)
    assert qa.norm == 7 and qb.norm == 7
    assert qa * qb == IntegralIdeal.principal(k, k.from_rational(7))
    # 3 + sqrt2 generates one of them
    g = IntegralIdeal.principal(k, k.from_rational(3) + k.theta)
    assert g in (qa, qb)


def test_index_divisor_handled_not_misfactored():
    # x^2 - 45 has index 6 in its maximal order; 2 and 3 must still
    # factor correctly (automatic tier never consults Z[theta])
    k = create_field([-45, 0, 1])
    (q2,) = factor_rational_prime(k, 2)  # disc 5: 2 inert
    assert (q2.e, q2.f) == (1, 2)
    (q3,) = factor_rational_prime(k, 3)  # 3 splits iff 5 is a QR mod 3: no
    assert (q3.e, q3.f) == (1, 2)
    (q5,) = factor_rational_prime(k, 5)
    assert (q5.e, q5.f) == (2, 1)


def old_rule_generator(k, prime):
    """The generator the quadratic factorization used to pick by search:
    theta - lift(r) for the first r in range(p) with (p, theta - lift(r))
    equal to the prime, else w - lift(rho) for the first rho with
    (p, w - lift(rho)) equal to it."""
    p = prime.p
    for gen in (k.theta, k.basis_element(1)):
        for r in range(p):
            pi = gen - k.from_rational(r if r <= p // 2 else r - p)
            if IntegralIdeal.from_elements(k, [k.from_rational(p), pi]) == prime:
                return pi
    return None


def test_quadratic_prime_generator_matches_search():
    # a grid of x^2 + b x + c, with non-maximal Z[theta] (x^2 + 3, x^2 - 45,
    # and x^2 + 28, x^2 - 68, where 2 splits and divides v in
    # theta = u + v w)
    polys_ = [[3, 0, 1], [-45, 0, 1], [28, 0, 1], [-68, 0, 1]]
    polys_ += [[c, b, 1] for b in range(-2, 3) for c in range(-12, 13)
               if b * b - 4 * c < 0 or isqrt(b * b - 4 * c) ** 2 != b * b - 4 * c]
    kinds = {"theta": 0, "omega": 0}
    for poly in polys_:
        k = create_field(poly)
        for p in (2, 3, 5, 7, 11, 13):
            for prime in factor_rational_prime(k, p):
                if prime.f == 2:
                    continue
                pi = prime.two_element[1]
                assert pi == old_rule_generator(k, prime)
                kinds["theta" if k.theta.num[1] % p else "omega"] += 1
    assert min(kinds.values()) >= 5, kinds


def test_sum_ef_battery():
    for poly in ([1, 0, 1], [-2, 0, 1], [-5, 0, 1]):
        k = create_field(poly)
        for p in [q for q in range(50) if q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)]:
            primes = factor_rational_prime(k, p)
            assert sum(q.e * q.f for q in primes) == k.degree
            prod = primes[0] ** 0
            for q in primes:
                prod = prod * q ** q.e
            assert prod == IntegralIdeal.principal(k, k.from_rational(p))


def test_datasheet_factorization_zeta5():
    k = create_field([1, 1, 1, 1, 1], datasheet=ZETA5_DATASHEET)
    (q5,) = factor_rational_prime(k, 5)    # totally ramified
    assert (q5.e, q5.f) == (4, 1)
    primes11 = factor_rational_prime(k, 11)  # 11 = 1 mod 5: splits completely
    assert len(primes11) == 4
    assert all(q.f == 1 for q in primes11)
    (q2,) = factor_rational_prime(k, 2)    # order of 2 mod 5 is 4: inert
    assert (q2.e, q2.f) == (1, 4)
    primes19 = factor_rational_prime(k, 19)  # order of 19 = order of 4 mod 5 is 2
    assert sorted(q.f for q in primes19) == [2, 2]


def test_index_divisor_raises_in_datasheet_tier():
    # the classic essential index divisor: x^3 + x^2 - 2x + 8 at p = 2
    ds = {
        "integral_basis": [[1, 0, 0], [0, 1, 0], [0, Fraction(1, 2), Fraction(1, 2)]],
        "fundamental_units": [[-13, -13, -3]],
        "subfields": [],
        "class_orders": [],
    }
    k = create_field([8, -2, 1, 1], datasheet=ds)
    assert k.field_discriminant == -503
    with pytest.raises(IndexDivisor):
        factor_rational_prime(k, 2)
    # other primes factor fine
    primes = factor_rational_prime(k, 3)
    assert sum(q.e * q.f for q in primes) == 3


def test_factor_rejects_nonprime():
    k = QI()
    with pytest.raises(ConfigInvalid):
        factor_rational_prime(k, 6)
    with pytest.raises(ConfigInvalid):
        factor_rational_prime(k, 1)


def test_datasheet_class_order_checks_the_declared_power():
    # an order a declared with generator (1 - t)^a holds for each a (its
    # minimality is taken on faith) and one with (1 - t)^(a + 1) fails;
    # the witness is kept on the prime, a refused order is not
    k0 = create_field([1, 1, 1, 1, 1], datasheet=ZETA5_DATASHEET)
    for a in range(1, 10):
        for e in (a, a + 1):
            gen = [int(c) for c in oracles.pb_coords((k0.one - k0.theta) ** e)]
            k = create_field([1, 1, 1, 1, 1], datasheet=zeta5_with(
                "class_orders", order=a, generator=gen))
            (q5,) = factor_rational_prime(k, 5)
            if e == a:
                w = class_order(q5)
                assert (w.order, w.minimal_verified) == (a, False)
                assert w.generator == k.element(gen)
                assert class_order(q5) is w
            else:
                for _ in range(2):
                    with pytest.raises(DatasheetInvalid):
                        class_order(q5)


def test_class_order_principal_cases():
    k = QI()
    (p2,) = factor_rational_prime(k, 2)
    w = class_order(p2)
    assert w.order == 1
    assert w.minimal_verified
    assert IntegralIdeal.principal(k, w.generator) == p2
    assert w.generator == k.one + k.theta
    pa, pb = factor_rational_prime(k, 5)
    wa = class_order(pa)
    assert wa.order == 1
    assert wa.generator == k.one + 2 * k.theta


def test_class_order_sqrt_minus5(monkeypatch):
    # Q(sqrt -5) has class number 2; the prime over 2 is not principal
    k = create_field([5, 0, 1])
    (p2,) = factor_rational_prime(k, 2)
    assert (p2.e, p2.f) == (2, 1)
    w = class_order(p2)
    assert w.order == 2
    assert w.generator == k.from_rational(2)
    assert p2 ** 2 == IntegralIdeal.principal(k, k.from_rational(2))
    assert class_order(p2) is w
    # the witness is kept on the prime: the bound applies to a new one
    monkeypatch.setattr(ideals, "CLASS_ORDER_BOUND", 1)
    (p2,) = factor_rational_prime(create_field([5, 0, 1]), 2)
    with pytest.raises(OrderBoundExceeded):
        class_order(p2)


def test_class_order_real_quadratic():
    k = create_field([-2, 0, 1])
    qa, qb = factor_rational_prime(k, 7)
    for q in (qa, qb):
        w = class_order(q)
        assert w.order == 1
        assert IntegralIdeal.principal(k, w.generator) == q
    # membership matters: norm 7 elements exist in both primes' conjugates
    g = class_order(qa).generator
    assert qa.contains(g)
    assert not qb.contains(g)


def test_class_order_sqrt_minus23():
    # class number 3; prime over 2 has order 3
    k = create_field([23, 0, 1])
    assert k.field_discriminant == -23
    p2a, p2b = factor_rational_prime(k, 2)
    w = class_order(p2a)
    assert w.order == 3
    assert abs(w.generator.norm()) == 8


# class numbers 2, 3, 5 and 7 (imaginary), 2, 2, 3 and 4 (real)
CLASS_ORDER_FIELDS = (-5, -23, -47, -71, 10, 15, 79, 82)


def test_principal_rows_match_box_walk():
    # the class-order oracle solves the box row by row; on every box of
    # up to ORACLE_POINTS points it returns what the point-by-point walk
    # returns
    checked = Counter()
    for d in CLASS_ORDER_FIELDS:
        k = create_field([-d, 0, 1])
        for p in polys.primes_below(14):
            for prime in factor_rational_prime(k, p):
                power = prime
                for _ in range(3):
                    xmax, ymax = oracles.principal_box(power)
                    if (xmax + 1) * (2 * ymax + 1) <= ORACLE_POINTS:
                        got = oracles.principal_generator_rows(power)
                        assert got == oracles.principal_generator_box(power)
                        checked[got is None] += 1
                    power = power * prime
    assert min(checked[True], checked[False]) >= 20, checked


def test_class_order_matches_box_oracle():
    """Order and generator of every prime over p < 30 of fields with
    class number > 1 agree with the least power the box finds a
    generator for, the powers formed by ideal products."""
    for d in CLASS_ORDER_FIELDS:
        k = create_field([-d, 0, 1])
        orders = set()
        for p in polys.primes_below(30):
            for prime in factor_rational_prime(k, p):
                w = class_order(prime)
                assert (w.order, w.generator) == \
                    oracles.class_order_box(prime, 10), (d, prime)
                orders.add(w.order)
        assert max(orders) > 1, d


def test_class_order_and_valuation_form_no_ideal_power(monkeypatch):
    # class number 10: the two primes over 3 cost at most 2 log2(10) + 2
    # ideal products in all (the membership ladder took one per power,
    # 18), and the S-unit basis reads its valuations off the witnesses
    # with none
    k = create_field([119, 0, 1])
    primes = factor_rational_prime(k, 3)
    products = Counter()
    multiply = IntegralIdeal.__mul__

    def counted(a, b):
        products["mul"] += 1
        return multiply(a, b)

    monkeypatch.setattr(IntegralIdeal, "__mul__", counted)
    witnesses = [class_order(P) for P in primes]
    assert [w.order for w in witnesses] == [10, 10]
    assert products["mul"] <= 2 * (10).bit_length() + 2
    products.clear()
    sb = s_unit_basis(k, PrimeSet(k, primes))
    assert sb.valuation_matrix == ((10, 0), (0, 10))
    assert products["mul"] == 0


def test_ideal_mul_norm_multiplicative():
    k = create_field([5, 0, 1])
    rng = random.Random(6)
    for _ in range(10):
        a = k.from_ib((rng.randint(1, 6), rng.randint(0, 4)))
        b = k.from_ib((rng.randint(1, 6), rng.randint(0, 4)))
        if a.is_zero() or b.is_zero():
            continue
        ia, ib_ = IntegralIdeal.principal(k, a), IntegralIdeal.principal(k, b)
        assert (ia * ib_).norm == ia.norm * ib_.norm
        assert ia.norm == abs(a.norm())


def test_ideal_powers_match_repeated_products(monkeypatch):
    # P^e by the shared square-and-multiply against P * P * ... * P for
    # e = 0..9: e.bit_length() - 1 squares and popcount(e) - 1 further
    # products, none by the unit ideal and no square after the last bit
    fields = [(create_field([1, 0, 1]), (2, 3, 5)),
              (create_field([19, 0, 1]), (2, 5, 7)),
              (create_field([-2, 0, 1]), (2, 3, 7)),
              (create_field([1, 1, 1, 1, 1], datasheet=ZETA5_DATASHEET),
               (5, 11))]
    products = []
    mul = IntegralIdeal.__mul__

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    checked = 0
    for k, ps in fields:
        unit = IntegralIdeal.principal(k, k.one)
        for P in (P for p in ps for P in factor_rational_prime(k, p)):
            want = unit
            for e in range(10):
                products.clear()
                with monkeypatch.context() as m:
                    m.setattr(IntegralIdeal, "__mul__", counted)
                    got = P ** e
                assert got == want and got.norm == P.norm ** e, (k, P, e)
                assert len(products) == (
                    e.bit_length() + bin(e).count("1") - 2 if e else 0)
                assert all(unit not in ab for ab in products)
                want = want * P
                checked += 1
    assert checked == 10 * 18  # 18 primes


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def lattice_index(l1_rows, l2_rows):
    """[L1 : L2] for L2 inside L1, read as [L2 + L1 : L2]."""
    return RatLattice(1, l2_rows, len(l2_rows[0])).sum_index(1, l1_rows)


def test_lattice_index_known_values():
    # index of Z[sqrt 5] inside the maximal order of Q(sqrt 5) is 2
    k = create_field([-5, 0, 1])
    maximal = [[1, 0], [0, 1]]
    # Z[sqrt5] has Z-basis {1, sqrt5}
    sub = [list(k.one.num), list(k.theta.num)]
    assert lattice_index(maximal, sub) == 2


def test_lattice_index_multiplicative_battery():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 3)
        l1 = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if linalg.int_det(l1) == 0:
            continue
        m1 = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        m2 = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if linalg.int_det(m1) == 0 or linalg.int_det(m2) == 0:
            continue
        l2 = mat_mul(m1, l1)
        l3 = mat_mul(m2, l2)
        assert lattice_index(l1, l3) == lattice_index(l1, l2) * lattice_index(l2, l3)


def test_prime_serialization():
    k = QI()
    (p2,) = factor_rational_prime(k, 2)
    s = p2.serialize()
    assert s["p"] == 2 and s["e"] == 2 and s["f"] == 1
    assert s["hnf"] == [[1, 1], [0, 2]]


# Both shapes of omega (m = 1 mod 4 and not, with m = 5 mod 8 among the
# first), class numbers 1 to 10, and real fields with units up to 4e6.
ORACLE_FIELDS = (-1, -2, -3, -5, -23, -119, 2, 5, 13, 67, 94, 118)
# The oracle (a Fraction determinant per point, about 0.1 ms) may walk
# at most ORACLE_POINTS points, except for the cheapest pair of each
# field.
ORACLE_POINTS = 1000


def _walk_points(ideal, found):
    """How many box points the oracle visits before it returns found."""
    xmax, ymax = oracles.principal_box(ideal)
    if found is None:
        return (xmax + 1) * (2 * ymax + 1)
    x, y = found.num
    return x * (2 * ymax + 1) + 2 * abs(y) + 1


def test_principal_search_matches_box_oracle():
    """The search by reduction returns the very element the
    point-by-point box walk returns, or None with it, on the primes
    above p <= 31 and their powers 1..4.  A pair is checked when the walk
    reaches the search's answer within ORACLE_POINTS points, which
    covers every box of that size in full, so a search that misses a
    generator is caught on every small box; the real fields with large
    units have no such pair and are checked on their cheapest one."""
    nonprincipal = set()
    for d in ORACLE_FIELDS:
        k = create_field([-d, 0, 1])
        pairs = []
        for p in polys.primes_below(32):
            for prime in factor_rational_prime(k, p):
                for e in range(1, 5):
                    ideal = prime ** e
                    got = ideals._principal_generator_quadratic(ideal)
                    pairs.append((_walk_points(ideal, got), ideal, got))
        pairs.sort(key=lambda pair: pair[0])
        for _, ideal, got in ([pair for pair in pairs
                               if pair[0] <= ORACLE_POINTS] or pairs[:1]):
            want = oracles.principal_generator_box(ideal)
            assert (got is None) == (want is None), (d, ideal)
            if got is None:
                nonprincipal.add(d)
            else:
                assert got == want, (d, ideal)
    assert nonprincipal == {-5, -23, -119}


def test_principal_search_matches_box_oracle_on_products():
    """The same cross-check on ideals that are not prime powers: products
    of primes over two different p, and ideals with content p > 1, (p) P
    and P P' Q for the two primes P, P' over a split p.  Q(sqrt 2),
    Q(sqrt 5) and Q(sqrt 13) have units of norm -1, so generators of
    norm -N occur; Q(sqrt -5) and Q(sqrt -23) have non-principal
    products.  Only pairs the walk finishes within ORACLE_POINTS points
    are checked."""
    kinds = {"two p": 0, "content": 0}
    norm_minus_n, nonprincipal = set(), set()
    for d in (-1, -5, -23, 2, 5, 13):
        k = create_field([-d, 0, 1])
        primes = {p: factor_rational_prime(k, p)
                  for p in polys.primes_below(8)}
        cases = []
        for p, q in ((p, q) for p in primes for q in primes if p < q):
            cases += [("two p", P * Q) for P in primes[p] for Q in primes[q]]
            principal_p = IntegralIdeal.principal(k, k.from_rational(p))
            cases += [("content", principal_p * Q) for Q in primes[q]]
            if len(primes[p]) == 2:
                cases += [("content", primes[p][0] * primes[p][1] * Q)
                          for Q in primes[q]]
        for kind, ideal in cases:
            got = ideals._principal_generator_quadratic(ideal)
            if _walk_points(ideal, got) > ORACLE_POINTS:
                continue
            want = oracles.principal_generator_box(ideal)
            assert got == want, (d, kind, ideal)
            kinds[kind] += 1
            if got is None:
                nonprincipal.add(d)
            elif oracles.pb_norm(k, oracles.pb_coords(got)) < 0:
                norm_minus_n.add(d)
    assert min(kinds.values()) >= 20, kinds
    assert nonprincipal == {-5, -23}
    assert norm_minus_n == {2, 5, 13}


# Real fields whose fundamental unit has norm -1 (the first four) and +1.
UNIT_SIGN_FIELDS = (2, 5, 13, 29, 3, 6, 7, 94)
# Rows the row-by-row oracle may solve per box (one isqrt per row).
ORACLE_ROWS = 40000


def test_real_generator_matches_row_oracle():
    """On the prime powers P, P^2 and P^3 over p < 50 of real fields
    with either sign of N(eps), the descent along eps^2 returns the
    least generator of the box that the row oracle (cross-checked
    against the point walk by test_principal_rows_match_box_walk) solves
    row by row.  Boxes of more than ORACLE_ROWS rows are left out.
    Descending by eps alone stops early when N(eps) = -1."""
    checked = Counter()
    for d in UNIT_SIGN_FIELDS:
        k = create_field([-d, 0, 1])
        assert fundamental_unit(k).norm() == (-1 if d in (2, 5, 13, 29)
                                              else 1)
        for p in polys.primes_below(50):
            for prime in factor_rational_prime(k, p):
                power = prime
                for _ in range(3):
                    if 2 * oracles.principal_box(power)[1] < ORACLE_ROWS:
                        got = ideals._principal_generator_quadratic(power)
                        want = oracles.principal_generator_rows(power)
                        assert got is not None and got == want, (d, power)
                        checked[d] += 1
                    power = power * prime
    assert min(checked.values()) >= 30, checked
