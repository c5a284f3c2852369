"""Dense univariate polynomials, constant coefficient first.

Rational work uses fractions.Fraction throughout; mod-p work uses
plain ints with a prime modulus.  No floating point anywhere.
"""

import random
from fractions import Fraction
from math import isqrt


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


def pneg(p):
    return [-c for c in p]


def psub(p, q):
    return padd(p, pneg(q))


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
    """Quotient and remainder over the rationals.  q must be nonzero."""
    p, q = [Fraction(c) for c in trim(p)], [Fraction(c) for c in trim(q)]
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    rem = p[:]
    while rem and len(rem) >= len(q):
        c = rem[-1] / q[-1]
        k = len(rem) - len(q)
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem = trim(rem)
    return trim(quo), rem


def monic(p):
    p = trim(p)
    if not p:
        return []
    lead = p[-1]
    return [Fraction(c) / lead for c in p]


def pgcd(p, q):
    """Monic gcd over the rationals."""
    a, b = trim(p), trim(q)
    while b:
        _, r = pdivmod(a, b)
        a, b = b, r
    return monic(a)


# ---------------------------------------------------------------------------
# Sturm chains and real root isolation.

def sturm_chain(p):
    p = [Fraction(c) for c in trim(p)]
    g = pgcd(p, pderiv(p))
    if degree(g) > 0:
        p, _ = pdivmod(p, g)
    chain = [p, pderiv(p)]
    while degree(chain[-1]) > 0:
        _, r = pdivmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(pneg(r))
    return chain


def _sign(x):
    return (x > 0) - (x < 0)


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def variations_at(chain, x):
    return _variations([_sign(peval(f, x)) for f in chain])


def variations_at_infinity(chain, sign):
    # leading term dominates; sign=-1 gives the limit at minus infinity
    out = []
    for f in chain:
        f = trim(f)
        if not f:
            out.append(0)
        else:
            s = _sign(f[-1])
            if sign < 0 and (len(f) - 1) % 2 == 1:
                s = -s
            out.append(s)
    return _variations(out)


def count_real_roots(p):
    p = trim(p)
    if degree(p) < 1:
        return 0
    chain = sturm_chain(p)
    return variations_at_infinity(chain, -1) - variations_at_infinity(chain, +1)


def count_roots_in(chain, a, b):
    """Number of distinct real roots in (a, b]."""
    return variations_at(chain, a) - variations_at(chain, b)


def root_bound(p):
    """Rational B with every real root strictly inside (-B, B)."""
    p = trim(p)
    lead = p[-1]
    m = max((abs(Fraction(c)) for c in p[:-1]), default=Fraction(0))
    return 1 + m / abs(Fraction(lead))


def isolate_real_roots(p, precision_bits=32):
    """Disjoint rational intervals (lo, hi), one per distinct real root.

    Each interval has width at most 2**-precision_bits and the
    squarefree part of p changes sign across it.
    """
    p = [Fraction(c) for c in trim(p)]
    if degree(p) < 1:
        return []
    g = pgcd(p, pderiv(p))
    if degree(g) > 0:
        p, _ = pdivmod(p, g)
    chain = sturm_chain(p)
    bound = root_bound(p)
    width_cap = Fraction(1, 2 ** precision_bits)

    def split(lo, hi, count):
        if count == 0:
            return []
        if count == 1:
            return [(lo, hi)]
        mid = (lo + hi) / 2
        while peval(p, mid) == 0:
            # nudge off an exact root so both halves have clean endpoints
            mid += (hi - lo) / 64
        left = count_roots_in(chain, lo, mid)
        return split(lo, mid, left) + split(mid, hi, count - left)

    total = count_roots_in(chain, -bound, bound)
    out = []
    for lo, hi in split(-bound, bound, total):
        while hi - lo > width_cap or peval(p, lo) == 0 or _sign(peval(p, lo)) == _sign(peval(p, hi)):
            mid = (lo + hi) / 2
            if peval(p, mid) == 0:
                mid += (hi - lo) / 64
            if count_roots_in(chain, lo, mid) == 1:
                hi = mid
            else:
                lo = mid
        out.append((lo, hi))
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
    b = int(root_bound(f)) + 1
    out = []
    todo = [(-b, b)]
    while todo:
        lo, hi = todo.pop()
        if count_roots_in(chain, lo, hi) == 0:
            continue
        if hi - lo == 1:
            if peval(f, hi) == 0:
                out.append(hi)
            continue
        mid = (lo + hi) // 2
        todo += [(lo, mid), (mid, hi)]
    return sorted(out)


def sqrt_upper(n):
    """Rational upper bound for sqrt(n), n >= 0, within 10**-6."""
    scale = 10 ** 6
    return Fraction(isqrt(n * scale * scale) + 1, scale)
