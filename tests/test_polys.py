import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sgen2 import polys
from sgen2.errors import BisectionBoundExceeded, InvariantViolated, SgenError

import oracles


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
    # a square factor g is divided out: chain[0] = p / g with g the
    # gcd of p and p' made primitive with a positive lead, whatever the
    # contents and signs
    g = [3, -1, 2]
    for c, h in (([-6], [1, 4]), ([4], [5, 0, -3]), ([1], [1])):
        p = polys.pmul(c, polys.pmul(polys.pmul(g, g), h))
        assert polys.sturm_chain(p)[0] == polys.pmul(c, polys.pmul(g, h))
    a = polys.pmul([1, 1], [-2, 0, 1])      # (x + 1)(x^2 - 2), squarefree
    assert polys.sturm_chain(a)[0] == a
    # -(x + 1)^2 (x^2 - 2): the square factor is x + 1, not -x - 1
    assert polys.sturm_chain(polys.pmul([-1, -1], a))[0] == polys.pmul([-1], a)


def real_roots(f):
    bound = polys.root_bound(f)
    return polys.count_roots_in(polys.sturm_chain(f), -bound, bound)


def test_real_root_counts():
    assert real_roots([1, 0, 1]) == 0          # x^2 + 1
    assert real_roots([-2, 0, 1]) == 2         # x^2 - 2
    assert real_roots([-2, 0, 0, 1]) == 1      # x^3 - 2
    assert real_roots([1, 1, 1, 1, 1]) == 0    # 5th cyclotomic
    assert real_roots([-1, -1, 0, 1]) == 1     # x^3 - x - 1
    assert real_roots([-1, -3, 0, 1]) == 3     # x^3 - 3x - 1
    assert real_roots([-5, 0, 1]) == 2


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
        chain = polys.sturm_chain(f)
        bound = polys.root_bound(f)
        assert polys.count_roots_in(chain, -bound, bound) == len(roots), f
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


def test_isolation_stops_at_its_bisection_bound(monkeypatch):
    # x^16 - 2 (2^100 x - 1)^2 has two roots about 2^-900 apart near
    # 2^-100; separating them takes about 2,200 Sturm counts, seconds
    # of work, so the bound ends the isolation with a named error
    f = [-2, 2 ** 102, -2 ** 201] + [0] * 13 + [1]
    counts = []
    count = polys.count_roots_in
    monkeypatch.setattr(polys, "count_roots_in",
                        lambda *a: counts.append(1) or count(*a))
    start = time.perf_counter()
    with pytest.raises(BisectionBoundExceeded) as err:
        polys.isolate_real_roots(f, precision_bits=0)
    assert time.perf_counter() - start < 0.5
    assert len(counts) == polys.MAX_BISECTIONS
    assert err.value.exit_code == 2 and isinstance(err.value, SgenError)


def one_factor(f, p):
    """Irreducibility mod p read off the full factorization: factor_mod_p
    returns one factor of multiplicity 1."""
    fac, rest = polys.factor_mod_p(f, p)
    return len(fac) == 1 and fac[0][1] == 1 and rest == [1]


def test_irreducible_mod_p():
    for f, p, irreducible in (
            ([1, 1, 1], 2, True),            # x^2+x+1 mod 2
            ([1, 0, 1], 2, False),           # (x+1)^2 mod 2
            ([1, 0, 1], 3, True),            # x^2+1 mod 3
            ([1, 0, 1], 5, False),
            ([1, 1, 0, 0, 1], 2, True),      # x^4+x+1 mod 2
            ([1, 0, 0, 0, 1], 7, False)):    # x^4+1 never irreducible
        assert one_factor(f, p) == irreducible, (f, p)
        assert polys.is_one_simple_factor_mod_p(f, p) == irreducible, (f, p)
        assert oracles.irreducible_mod_p(f, p) == irreducible, (f, p)


def recompose(fac, rest, p):
    prod = rest
    for g, mult in fac:
        for _ in range(mult):
            prod = polys.pp_mul(prod, g, p)
    return prod


def test_factor_mod_p_recomposes():
    rng = random.Random(5)
    cases = [(p, [rng.randrange(p) for _ in range(rng.randint(2, 7))] + [1])
             for p in (2, 3, 5, 13) for _ in range(25)]
    # degree 2 to 6 below 100, for the capped factorization
    cases += [(p, [rng.randrange(p) for _ in range(rng.randint(2, 6))] + [1])
              for p in (7, 31, 61, 89, 97) for _ in range(12)]
    for p, f in cases:
        fac, rest = polys.factor_mod_p(f, p)
        assert rest == [1]
        # the screen's shortcut agrees with the full factorization
        assert polys.is_one_simple_factor_mod_p(f, p) == (
            len(fac) == 1 and fac[0][1] == 1), (f, p)
        for g, mult in fac:
            assert g[-1] == 1
            # the oracle tries every monic divisor up to half the degree:
            # every factor at p <= 13 is checked, at the larger primes
            # only those of degree <= 3 (degree <= 5 at p = 31)
            if p ** ((len(g) - 1) // 2) <= 13 ** 3:
                assert oracles.irreducible_mod_p(g, p)
        assert recompose(fac, rest, p) == polys.pp_monic(f, p)
        squarefree = all(mult == 1 for _, mult in fac)
        for cap in range(len(f)):
            # capped at degree cap: a squarefree f lists its factors up
            # to it and leaves the others as one rest; any other f is
            # factored in full
            capped, rest = polys.factor_mod_p(f, p, cap)
            assert capped == ([(g, m) for g, m in fac if len(g) - 1 <= cap]
                              if squarefree else fac), (f, p, cap)
            assert recompose(capped, rest, p) == polys.pp_monic(f, p)


def test_factor_mod_p_splits_equal_degrees_over_f2_by_the_trace():
    # x^6 + ... + 1 = (x^3 + x + 1)(x^3 + x^2 + 1) over F_2.  r = x is
    # prime to it, so only the trace map splits it: Tr(x) = x + x^2 + x^4
    # is 0 at the roots of x^3 + x + 1 and 1 at those of x^3 + x^2 + 1
    draws = iter([0, 1, 0, 0, 0, 0])
    r_is_x = SimpleNamespace(randrange=lambda p: next(draws))
    assert polys._equal_degree_split([1] * 7, 3, 2, r_is_x) == [1, 1, 0, 1]
    # the seeded splitter separates the two cubics through the trace too
    assert polys.factor_mod_p([1] * 7, 2) == (
        [([1, 0, 1, 1], 1), ([1, 1, 0, 1], 1)], [1])
    # seeded polynomials of degree 4 to 10 over F_2 and F_3 (five of the
    # F_2 ones take the trace too): monic factors that the oracle's
    # divisor search finds irreducible, whose product is f
    rng = random.Random(3)
    for p in (2, 3):
        for _ in range(150):
            f = [rng.randrange(p) for _ in range(rng.randint(4, 10))] + [1]
            fac, rest = polys.factor_mod_p(f, p)
            assert rest == [1]
            for g, _ in fac:
                assert g[-1] == 1 and oracles.irreducible_mod_p(g, p), (f, p)
            assert recompose(fac, rest, p) == polys.pp_monic(f, p)


def linear_factors(f, p):
    """(root, multiplicity) for each linear factor x - root of f mod p."""
    return [((-g[0]) % p, mult) for g, mult in polys.factor_mod_p(f, p)[0]
            if polys.degree(g) == 1]


def test_factor_mod_p_known_splits():
    assert sorted(linear_factors([1, 0, 1], 5)) == [(2, 1), (3, 1)]  # x^2+1
    assert linear_factors([1, 0, 1], 3) == []
    assert linear_factors([1, 0, 1], 2) == [(1, 2)]
    # x^4 + 1 mod 7 = product of two irreducible quadratics
    fac, rest = polys.factor_mod_p([1, 0, 0, 0, 1], 7)
    assert [polys.degree(g) for g, _ in fac] == [2, 2] and rest == [1]
    # capped at degree 1, the two quadratics stay one unsplit quartic
    assert polys.factor_mod_p([1, 0, 0, 0, 1], 7, 1) == ([], [1, 0, 0, 0, 1])


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
    def roots(f):
        return polys.integer_roots(f, polys.sturm_chain(f))

    assert roots([-6, 11, -6, 1]) == [1, 2, 3]
    assert roots([0, 0, 1]) == [0]
    assert roots([1, 0, 1]) == []
    assert roots([6, -5, 1]) == [2, 3]
    assert roots([0, 7, 1]) == [-7, 0]
    assert roots([-2, 0, 1]) == []
    # quadratics bisect with the Sturm chain, not trial division to 10^20
    assert roots([-10 ** 40, 0, 1]) == [-10 ** 20, 10 ** 20]
    assert roots([-(10 ** 20 + 39), 0, 1]) == []
    # other degrees bisect with a Sturm chain, not trial division to 10^10
    assert roots([-(10 ** 20 + 39), 0, 0, 1]) == []
    assert roots([-(10 ** 21), 0, 0, 1]) == [10 ** 7]
    # repeated roots, and roots on the bisection endpoints: (x - 3)^2 (x + 4) x
    f = polys.pmul(polys.pmul([-3, 1], [-3, 1]), polys.pmul([4, 1], [0, 1]))
    assert roots(f) == [-4, 0, 3]
    # whose chain starts at the squarefree part (x - 3)(x + 4) x
    assert polys.sturm_chain(f)[0] == polys.pmul([-3, 1], [0, 4, 1])
    rng = random.Random(11)
    for _ in range(200):
        f = [rng.randint(-20, 20) for _ in range(rng.randint(2, 5))] + [1]
        expect = [r for r in range(-25, 26) if polys.peval(f, r) == 0]
        assert roots(f) == expect


def test_integer_roots_of_planted_products():
    """Monic polynomials of degree 1-5: planted integer roots (repeats
    allowed) times a monic cofactor with coefficients in [-5, 5].  Every
    real root lies in [-9, 9] or inside the cofactor's bound 6, so a scan
    of [-10, 10] finds all integer roots."""
    rng = random.Random(42)
    for _ in range(3000):
        degree = rng.randint(1, 5)
        planted = [rng.randint(-9, 9) for _ in range(rng.randint(0, degree))]
        f = [rng.randint(-5, 5) for _ in range(degree - len(planted))] + [1]
        for r in planted:
            f = polys.pmul(f, [-r, 1])
        expect = [r for r in range(-10, 11) if polys.peval(f, r) == 0]
        assert set(planted) <= set(expect)
        assert polys.integer_roots(f, polys.sturm_chain(f)) == expect, f


def test_is_prime():
    small = [n for n in range(200) if polys.is_prime(n)]
    assert small == polys.primes_below(200)
    assert polys.is_prime(2 ** 31 - 1)
    assert not polys.is_prime(2 ** 32 + 1)
    # psi_12, a strong pseudoprime to the 12 prime bases up to 37, fails
    # to base 41; psi_13 = PRIME_BOUND passes all 13 bases
    assert not polys.is_prime(399165290221 * 798330580441)
    assert polys.is_prime(polys.PRIME_BOUND)
    assert polys.PRIME_BOUND == 1287836182261 * 2575672364521


def test_sqrt_mod_p():
    # every residue class of the odd primes below 300 (p - 1 has up to
    # 2^6 in it at 193), then squares modulo 65537 = 2^16 + 1,
    # 2^61 - 1 and 9 * 2^63 + 1
    for p in polys.primes_below(300)[1:]:
        squares = {x * x % p for x in range(p)}
        for a in range(-p, p):
            r = polys.sqrt_mod_p(a, p)
            if a % p in squares:
                assert r is not None and r * r % p == a % p, (a, p)
            else:
                assert r is None, (a, p)
    rng = random.Random(5)
    for p in (65537, 2 ** 61 - 1, 9 * 2 ** 63 + 1):
        assert polys.is_prime(p)
        for _ in range(20):
            x = rng.randrange(1, p)
            r = polys.sqrt_mod_p(x * x, p)
            assert r in (x, p - x)
