import random
from fractions import Fraction

import pytest

from sgen2 import polys
from sgen2.errors import InvariantViolated


def _rand_poly(rng, deg, lead):
    return [rng.randint(-9, 9) for _ in range(deg)] + [lead]


def test_divmod_roundtrip():
    rng = random.Random(11)
    for case in range(40):
        q = _rand_poly(rng, rng.randint(0, 4), rng.choice([1, -1, 2, -3, 5]))
        if case % 2 and abs(q[-1]) != 1:
            # an exact factor: p = q * s, any lead
            s = _rand_poly(rng, rng.randint(0, 3), rng.choice([1, -2, 3]))
            p = polys.pmul(q, s)
        else:
            # a monic divisor (up to sign): any integer p
            q[-1] = rng.choice([1, -1])
            p = _rand_poly(rng, rng.randint(0, 6), rng.randint(1, 9))
        quo, rem = polys.pdivmod(p, q)
        assert polys.padd(polys.pmul(quo, q), rem) == polys.trim(p)
        assert polys.degree(rem) < polys.degree(q) or not rem
        assert all(isinstance(c, int) for c in quo + rem)
        if case % 2 and abs(q[-1]) != 1:
            assert quo == polys.trim(s) and rem == []
    # an inexact step raises instead of flooring
    with pytest.raises(InvariantViolated):
        polys.pdivmod([1, 0, 1], [1, 2])          # (x^2 + 1) / (2x + 1)
    with pytest.raises(InvariantViolated):
        polys.pdivmod([3, 1], [2])


def test_prem_keeps_sign():
    # |lead q|^e p - prem(p, q) is an integer multiple of q, e = deg p -
    # deg q + 1, so prem is the remainder of p times a positive factor
    rng = random.Random(3)
    for _ in range(40):
        p = _rand_poly(rng, rng.randint(0, 6), rng.randint(-5, 5) or 1)
        q = _rand_poly(rng, rng.randint(0, 3), rng.choice([2, -3, 4, -1]))
        r = polys.prem(p, q)
        e = max(polys.degree(p) - polys.degree(q) + 1, 0)
        scaled = [c * abs(q[-1]) ** e for c in p]
        _, rem = polys.pdivmod(polys.psub(scaled, r), q)
        assert rem == [] and polys.degree(r) < polys.degree(q)


def test_gcd_of_multiples():
    a = polys.pmul([1, 1], [-2, 0, 1])      # (x + 1)(x^2 - 2)
    b = polys.pmul([1, 1], [3, 1])          # (x + 1)(x + 3)
    assert polys.pgcd(a, b) == [1, 1]
    # primitive, positive lead, whatever the contents and signs
    g = [3, -1, 2]
    assert polys.pgcd(polys.pmul([-6], polys.pmul(g, [1, 4])),
                      polys.pmul([4], polys.pmul(g, [5, 0, -3]))) == g


def test_real_root_counts():
    assert polys.count_real_roots([1, 0, 1]) == 0          # x^2 + 1
    assert polys.count_real_roots([-2, 0, 1]) == 2         # x^2 - 2
    assert polys.count_real_roots([-2, 0, 0, 1]) == 1      # x^3 - 2
    assert polys.count_real_roots([1, 1, 1, 1, 1]) == 0    # 5th cyclotomic
    assert polys.count_real_roots([-1, -1, 0, 1]) == 1     # x^3 - x - 1
    assert polys.count_real_roots([-1, -3, 0, 1]) == 3     # x^3 - 3x - 1
    assert polys.count_real_roots([-5, 0, 1]) == 2


def test_real_root_counts_of_known_products():
    # products of linear factors a x - b (rational roots b/a, lead a),
    # some repeated, times x^2 + b x + c with b^2 < 4c (no real roots),
    # times a nonzero constant: the distinct real roots are known
    rng = random.Random(7)
    for _ in range(200):
        f = [rng.choice([1, -1, 2, -3, 7])]
        roots = set()
        for _ in range(rng.randint(0, 4)):
            a = rng.choice([1, 1, 2, 3, -4, 5])
            b = rng.randint(-12, 12)
            roots.add(Fraction(b, a))
            f = polys.pmul(f, [-b, a])
            if rng.random() < 0.3:
                f = polys.pmul(f, [-b, a])          # a repeated factor
        for _ in range(rng.randint(0, 2)):
            b = rng.randint(-3, 3)
            f = polys.pmul(f, [rng.randint(b * b // 4 + 1, 30), b, 1])
        if polys.degree(f) < 1:
            continue
        assert polys.count_real_roots(f) == len(roots), f
        chain = polys.sturm_chain(f)
        bound = polys.root_bound(f)
        assert all(-bound < r < bound for r in roots)
        lo, hi = rng.randint(-15, 0), rng.randint(0, 15)
        inside = sum(1 for r in roots if lo < r <= hi)
        assert polys.count_roots_in(chain, lo, hi) == inside, (f, lo, hi)


def test_isolation_brackets_each_root():
    # roots of (x^2 - 2)(x - 3): -sqrt(2), sqrt(2), 3
    p = polys.pmul([-2, 0, 1], [-3, 1])
    ivs = polys.isolate_real_roots(p, precision_bits=40)
    assert len(ivs) == 3
    for lo, hi in ivs:
        assert hi - lo <= Fraction(1, 2 ** 40)
        assert polys.peval(p, lo) * polys.peval(p, hi) < 0
    # sorted and disjoint
    for (a, b), (c, d) in zip(ivs, ivs[1:]):
        assert b < c
    assert ivs[0][0] < -1 < ivs[0][1] + 1  # first root near -1.414
    assert ivs[2][0] < 3 < ivs[2][1]


def test_isolation_exact_rational_root():
    ivs = polys.isolate_real_roots([-1, 1], precision_bits=20)  # x - 1
    assert len(ivs) == 1
    lo, hi = ivs[0]
    assert lo < 1 < hi


def test_irreducible_mod_p():
    assert polys.is_irreducible_mod_p([1, 1, 1], 2)        # x^2+x+1 mod 2
    assert not polys.is_irreducible_mod_p([1, 0, 1], 2)    # (x+1)^2 mod 2
    assert polys.is_irreducible_mod_p([1, 0, 1], 3)        # x^2+1 mod 3
    assert not polys.is_irreducible_mod_p([1, 0, 1], 5)
    assert polys.is_irreducible_mod_p([1, 1, 0, 0, 1], 2)  # x^4+x+1 mod 2
    assert not polys.is_irreducible_mod_p([1, 0, 0, 0, 1], 7)  # x^4+1 never irred


def test_factor_mod_p_recomposes():
    rng = random.Random(5)
    for p in (2, 3, 5, 13):
        for _ in range(25):
            f = [rng.randrange(p) for _ in range(rng.randint(2, 7))] + [1]
            fac = polys.factor_mod_p(f, p)
            prod = [1]
            for g, mult in fac:
                assert g[-1] == 1
                assert polys.is_irreducible_mod_p(g, p)
                for _ in range(mult):
                    prod = polys.pp_mul(prod, g, p)
            assert prod == polys.pp_monic(f, p)


def test_factor_mod_p_known_splits():
    assert polys.roots_mod_p([1, 0, 1], 5) == [2, 3]       # x^2+1 mod 5
    assert polys.roots_mod_p([1, 0, 1], 3) == []
    assert polys.roots_mod_p([1, 0, 1], 2) == [1]
    # x^4 + 1 mod 7 = product of two irreducible quadratics
    fac = polys.factor_mod_p([1, 0, 0, 0, 1], 7)
    assert [polys.degree(g) for g, _ in fac] == [2, 2]


def test_factor_mod_p_deterministic():
    f = [3, 1, 4, 1, 5, 9, 2, 1]
    assert polys.factor_mod_p(f, 13) == polys.factor_mod_p(f, 13)


def test_squarefree_part():
    assert polys.squarefree_part(8) == 2
    assert polys.squarefree_part(-4) == -1
    assert polys.squarefree_part(-20) == -5
    assert polys.squarefree_part(45) == 5
    assert polys.squarefree_part(1) == 1
    assert polys.squarefree_part(30) == 30


def test_integer_roots():
    assert polys.integer_roots([-6, 11, -6, 1]) == [1, 2, 3]
    assert polys.integer_roots([0, 0, 1]) == [0]
    assert polys.integer_roots([1, 0, 1]) == []
    assert polys.integer_roots([6, -5, 1]) == [2, 3]
    assert polys.integer_roots([0, 7, 1]) == [-7, 0]
    assert polys.integer_roots([-2, 0, 1]) == []
    # monic quadratics take the closed form, not trial division to 10^20
    assert polys.integer_roots([-10 ** 40, 0, 1]) == [-10 ** 20, 10 ** 20]
    assert polys.integer_roots([-(10 ** 20 + 39), 0, 1]) == []
    # other degrees bisect with a Sturm chain, not trial division to 10^10
    assert polys.integer_roots([-(10 ** 20 + 39), 0, 0, 1]) == []
    assert polys.integer_roots([-(10 ** 21), 0, 0, 1]) == [10 ** 7]
    # repeated roots, and roots on the bisection endpoints: (x - 3)^2 (x + 4) x
    f = polys.pmul(polys.pmul([-3, 1], [-3, 1]), polys.pmul([4, 1], [0, 1]))
    assert polys.integer_roots(f) == [-4, 0, 3]
    rng = random.Random(11)
    for _ in range(200):
        f = [rng.randint(-20, 20) for _ in range(rng.randint(2, 5))] + [1]
        expect = [r for r in range(-25, 26) if polys.peval(f, r) == 0]
        assert polys.integer_roots(f) == expect


def test_is_prime():
    small = [n for n in range(200) if polys.is_prime(n)]
    assert small == polys.primes_below(200)
    assert polys.is_prime(2 ** 31 - 1)
    assert not polys.is_prime(2 ** 32 + 1)


def test_sqrt_upper_is_upper():
    for n in (2, 3, 5, 29, 10 ** 6 + 3):
        u = polys.sqrt_upper(n)
        assert u * u >= n
        assert (u - Fraction(1, 100)) ** 2 < n
