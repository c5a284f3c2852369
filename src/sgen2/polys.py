"""Dense univariate polynomials, constant coefficient first.

Coefficients are integers.  Division is exact (by a monic divisor or
an exact factor), and gcds and Sturm chains run on signed primitive
pseudo-remainders, so no rational arithmetic is needed; only the
interval endpoints of isolate_real_roots and the bound of sqrt_upper
are fractions.Fraction.  Mod-p work uses plain ints with a prime
modulus.  No floating point anywhere.
"""

import random
from fractions import Fraction
from math import gcd, isqrt

from .errors import InvariantViolated


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p):
    return len(trim(p)) - 1


def padd(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def psub(p, q):
    return padd(p, [-c for c in q])


def pmul(p, q):
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def peval(p, x):
    acc = 0
    for c in reversed(trim(p)):
        acc = acc * x + c
    return acc


def pderiv(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def pdivmod(p, q):
    """Quotient and remainder of integer polynomials.

    q must be monic or an exact factor of p, so that every step divides
    exactly; an inexact step raises InvariantViolated.
    """
    p, q = trim(p), trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [0] * max(len(p) - len(q) + 1, 0)
    rem = p[:]
    while rem and len(rem) >= len(q):
        c, r = divmod(rem[-1], q[-1])
        if r:
            raise InvariantViolated(f"{q} does not divide {p} over Z")
        k = len(rem) - len(q)
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem = trim(rem)
    return trim(quo), rem


def prem(p, q):
    """Pseudo-remainder: the remainder of |lead q|^(deg p - deg q + 1) p
    by q, an integer polynomial with the sign of the true remainder."""
    scale = abs(trim(q)[-1]) ** max(degree(p) - degree(q) + 1, 0)
    return pdivmod([c * scale for c in trim(p)], q)[1]


def _signed_prs(a, b):
    """a, b, then each next -prem(prev2, prev1) divided by its positive
    content, up to the last nonzero one (Cohen, GTM 138, 3.3): a Sturm
    sequence up to positive factors, ending in a gcd of a and b."""
    seq = [trim(a), trim(b)]
    while seq[-1]:
        r = prem(seq[-2], seq[-1])
        g = gcd(*r)
        seq.append([-(c // g) for c in r])
    return seq[:-1]


def pgcd(p, q):
    """Primitive gcd of integer polynomials, with positive leading
    coefficient."""
    g = _signed_prs(p, q)[-1]
    c = gcd(*g) if g[-1] > 0 else -gcd(*g)
    return [x // c for x in g]


# ---------------------------------------------------------------------------
# Sturm chains and real root isolation.

def sturm_chain(p):
    """Sturm chain of the squarefree part p / gcd(p, p') of an integer
    polynomial; the squarefree part is chain[0]."""
    p = trim(p)
    g = pgcd(p, pderiv(p))
    if degree(g) > 0:
        p, _ = pdivmod(p, g)
    return _signed_prs(p, pderiv(p))


def variations_at(chain, x):
    signs = [v > 0 for v in (peval(f, x) for f in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in(chain, a, b):
    """Number of distinct real roots in (a, b]."""
    return variations_at(chain, a) - variations_at(chain, b)


def root_bound(p):
    """Integer B with every real root of the integer polynomial p
    strictly inside (-B, B) (Cauchy's bound, as |lead p| >= 1)."""
    return 1 + max((abs(c) for c in trim(p)[:-1]), default=0)


def count_real_roots(p):
    """Number of distinct real roots of an integer polynomial."""
    if degree(p) < 1:
        return 0
    bound = root_bound(p)
    return count_roots_in(sturm_chain(p), -bound, bound)


def isolate_real_roots(p, precision_bits=32):
    """Disjoint rational intervals (lo, hi), one per distinct real root.

    Each interval has width at most 2**-precision_bits and the
    squarefree part of p changes sign across it.
    """
    chain = sturm_chain(p)
    p = chain[0]
    if degree(p) < 1:
        return []
    width_cap = Fraction(1, 2 ** precision_bits)
    bound = root_bound(p)
    todo, out = [(Fraction(-bound), Fraction(bound))], []
    while todo:
        lo, hi = todo.pop()
        count = count_roots_in(chain, lo, hi)
        if count == 0 or (count == 1 and hi - lo <= width_cap):
            out += [(lo, hi)] * count
            continue
        mid = (lo + hi) / 2
        while peval(p, mid) == 0:
            # nudge off an exact root, so that no endpoint is a root and
            # a one-root interval of the squarefree p changes sign
            mid += (hi - lo) / 64
        todo += [(lo, mid), (mid, hi)]
    return sorted(out)


# ---------------------------------------------------------------------------
# Arithmetic mod a prime p.

def pp_trim(p, m):
    p = [c % m for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def pp_mul(a, b, m):
    a, b = pp_trim(a, m), pp_trim(b, m)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % m
    return pp_trim(out, m)


def pp_divmod(a, b, m):
    a, b = pp_trim(a, m), pp_trim(b, m)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], m - 2, m)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    rem = a[:]
    while rem and len(rem) >= len(b):
        c = rem[-1] * inv_lead % m
        k = len(rem) - len(b)
        quo[k] = c
        for i, y in enumerate(b):
            rem[k + i] = (rem[k + i] - c * y) % m
        rem = pp_trim(rem, m)
    return pp_trim(quo, m), rem


def pp_monic(a, m):
    a = pp_trim(a, m)
    if not a:
        return []
    inv = pow(a[-1], m - 2, m)
    return pp_trim([c * inv for c in a], m)


def pp_gcd(a, b, m):
    a, b = pp_trim(a, m), pp_trim(b, m)
    while b:
        _, r = pp_divmod(a, b, m)
        a, b = b, r
    return pp_monic(a, m)


def pp_powmod(base, e, mod, m):
    """base**e reduced mod the polynomial `mod`, coefficients mod m."""
    result = [1]
    base = pp_divmod(base, mod, m)[1]
    while e:
        if e & 1:
            result = pp_divmod(pp_mul(result, base, m), mod, m)[1]
        base = pp_divmod(pp_mul(base, base, m), mod, m)[1]
        e >>= 1
    return result


def is_irreducible_mod_p(f, p):
    """Rabin's test; f need not be monic but must be nonconstant."""
    f = pp_monic(f, p)
    n = degree(f)
    if n < 1:
        return False
    if n == 1:
        return True
    x = [0, 1]
    h = pp_powmod(x, p ** n, f, p)
    if pp_trim(psub(h, x), p):
        return False
    for q in prime_divisors(n):
        h = pp_powmod(x, p ** (n // q), f, p)
        g = pp_gcd(psub(h, x), f, p)
        if degree(g) != 0:
            return False
    return True


def prime_divisors(n):
    """The distinct primes dividing a positive integer, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def squarefree_part(n):
    """Largest squarefree divisor, carrying the sign of n."""
    if n == 0:
        return 0
    sign = 1 if n > 0 else -1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                out *= d
        d += 1
    return sign * out * n


def _squarefree_decomposition(f, p):
    """[(g, multiplicity)] with f = prod g^mult, each g squarefree, over F_p."""
    f = pp_monic(f, p)
    out = []

    def walk(f, scale):
        if degree(f) < 1:
            return
        d = pp_trim(pderiv(f), p)
        if not d:
            # f is a p-th power: f(x) = g(x^p) = g(x)^p over F_p
            g = [f[i] for i in range(0, len(f), p)]
            walk(g, scale * p)
            return
        w = pp_gcd(f, d, p)
        v, _ = pp_divmod(f, w, p)
        mult = 1
        while degree(v) > 0:
            nv = pp_gcd(v, w, p)
            piece, _ = pp_divmod(v, nv, p)
            if degree(piece) > 0:
                out.append((pp_monic(piece, p), mult * scale))
            v = nv
            w, _ = pp_divmod(w, nv, p)
            mult += 1
        if degree(w) > 0:
            walk(w, scale)

    walk(f, 1)
    return out


def _distinct_degree(f, p):
    """[(product-of-factors, degree)] for squarefree monic f over F_p."""
    out = []
    x = [0, 1]
    h = x[:]
    rest = f[:]
    d = 0
    while degree(rest) >= 2 * (d + 1):
        d += 1
        h = pp_powmod(h, p, rest, p)
        g = pp_gcd(psub(h, x), rest, p)
        if degree(g) > 0:
            out.append((g, d))
            rest, _ = pp_divmod(rest, g, p)
            h = pp_divmod(h, rest, p)[1] if degree(rest) > 0 else h
    if degree(rest) > 0:
        out.append((rest, degree(rest)))
    return out


def _equal_degree_split(f, d, p, rng):
    """One nontrivial monic factor of f, where f is a product of >=2
    irreducibles all of degree d (Cantor-Zassenhaus)."""
    n = degree(f)
    while True:
        r = [rng.randrange(p) for _ in range(n)]
        r = pp_trim(r, p)
        if degree(r) < 1:
            continue
        g = pp_gcd(r, f, p)
        if 0 < degree(g) < n:
            return g
        if p == 2:
            # trace map sum r^(2^i)
            t = r[:]
            acc = r[:]
            for _ in range(d - 1):
                t = pp_powmod(t, 2, f, p)
                acc = pp_trim(padd(acc, t), p)
            g = pp_gcd(acc, f, p)
        else:
            e = (p ** d - 1) // 2
            h = pp_powmod(r, e, f, p)
            g = pp_gcd(psub(h, [1]), f, p)
        if 0 < degree(g) < n:
            return g


def factor_mod_p(f, p):
    """Full monic factorization over F_p: sorted [(factor, multiplicity)].

    Deterministic: the equal-degree splitting RNG is seeded from
    (f, p) only.
    """
    f = pp_monic(f, p)
    if degree(f) < 1:
        return []
    mix = p
    for c in f:
        mix = (mix * 1000003 + c) & 0xFFFFFFFFFFFF
    rng = random.Random(mix)
    out = {}
    for g, mult in _squarefree_decomposition(f, p):
        for h, d in _distinct_degree(g, p):
            pieces = [h]
            done = []
            while pieces:
                q = pieces.pop()
                if degree(q) == d:
                    done.append(q)
                    continue
                split = _equal_degree_split(q, d, p, rng)
                rest, _ = pp_divmod(q, split, p)
                pieces.extend([split, rest])
            for q in done:
                key = tuple(q)
                out[key] = out.get(key, 0) + mult
    return sorted((list(k), v) for k, v in out.items())


def roots_mod_p(f, p):
    """Sorted roots in F_p (without multiplicity)."""
    return sorted((-g[0]) % p for g, _ in factor_mod_p(f, p) if degree(g) == 1)


# ---------------------------------------------------------------------------
# Rational integer helpers.

def primes_below(n):
    sieve = bytearray([1]) * n
    if n > 0:
        sieve[0:1] = b"\0"
    if n > 1:
        sieve[1:2] = b"\0"
    for p in range(2, isqrt(max(n - 1, 0)) + 1):
        if sieve[p]:
            sieve[p * p::p] = b"\0" * len(sieve[p * p::p])
    return [i for i in range(n) if sieve[i]]


def is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_roots(f):
    """All integer roots of an integer polynomial.

    Monic quadratics take the closed form; other polynomials bisect the
    root bound on integer endpoints with a Sturm chain, so the work
    grows with the logarithm of the coefficients, not their square root.
    """
    f = trim(f)
    if degree(f) < 1:
        return []
    if len(f) == 3 and f[2] == 1:
        disc = f[1] * f[1] - 4 * f[0]
        r = isqrt(max(disc, 0))
        if r * r != disc:
            return []
        # r = f[1] mod 2, so both roots are integers
        return sorted({(-f[1] + r) // 2, (-f[1] - r) // 2})
    chain = sturm_chain(f)
    b = root_bound(f)
    out = []
    # (lo, hi] with the sign variations of the chain at both ends, so
    # each bisection point is evaluated once
    todo = [(-b, b, variations_at(chain, -b), variations_at(chain, b))]
    while todo:
        lo, hi, vlo, vhi = todo.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if peval(f, hi) == 0:
                out.append(hi)
            continue
        mid = (lo + hi) // 2
        vmid = variations_at(chain, mid)
        todo += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return sorted(out)


def sqrt_upper(n):
    """Rational upper bound for sqrt(n), n >= 0, within 10**-6."""
    scale = 10 ** 6
    return Fraction(isqrt(n * scale * scale) + 1, scale)
