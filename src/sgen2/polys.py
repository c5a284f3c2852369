"""Dense univariate polynomials, constant coefficient first.

Coefficients are integers.  Division is exact (by a monic divisor or
an exact factor), and a Sturm chain, one signed primitive
pseudo-remainder sequence, is built once per polynomial and handed to
its readers, so no rational arithmetic is needed; only the
interval endpoints of isolate_real_roots are fractions.Fraction.  Mod-p
work uses plain ints with a prime modulus.  factor_mod_p (squarefree,
distinct-degree, then Cantor-Zassenhaus equal-degree splits) is the one
mod-p factorization; with a degree cap on a squarefree polynomial it
reads the linear factors off by evaluation, stops the distinct-degree
steps at the cap and leaves the factors above it as one unsplit rest.
is_one_simple_factor_mod_p runs only its first two steps.  is_prime is
a strong-pseudoprime test to the 13 prime bases up to 41, proved below
PRIME_BOUND.  No floating point anywhere.
"""

import random
from fractions import Fraction
from math import gcd, isqrt

from .errors import BisectionBoundExceeded, InvariantViolated

# Work bound: Sturm counts, one per interval, of one real-root isolation.
# Three roots at 40 bits take about 260; x^16 - 2 (2^100 x - 1)^2, whose
# two roots near 2^-100 lie about 2^-900 apart, would take about 2,200
# counts on ever longer fractions.
MAX_BISECTIONS = 512


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


# ---------------------------------------------------------------------------
# Sturm chains and real root isolation.

def sturm_chain(p):
    """Sturm chain of the squarefree part chain[0] of an integer
    polynomial p: p, p', then each -prem(prev2, prev1) over its positive
    content, to the last nonzero one, a gcd g of p and p' (Cohen, GTM 138,
    3.3).  Only if deg g > 0 is p divided by g, made primitive with a
    positive lead, and the chain built again."""
    chain = [trim(p), pderiv(p)]
    while chain[-1]:
        r = prem(chain[-2], chain[-1])
        c = gcd(*r)
        chain.append([-(x // c) for x in r])
    chain.pop()
    g = chain[-1]
    if degree(g) < 1:
        return chain
    c = gcd(*g) if g[-1] > 0 else -gcd(*g)
    return sturm_chain(pdivmod(chain[0], [x // c for x in g])[0])


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


def isolate_real_roots(p, precision_bits=32):
    """Disjoint rational intervals (lo, hi), one per distinct real root.

    Each interval has width at most 2**-precision_bits and the
    squarefree part of p changes sign across it.  BisectionBoundExceeded
    once more than MAX_BISECTIONS intervals would be counted.
    """
    chain = sturm_chain(p)
    p = chain[0]
    if degree(p) < 1:
        return []
    width_cap = Fraction(1, 2 ** precision_bits)
    bound = root_bound(p)
    todo, out = [(Fraction(-bound), Fraction(bound))], []
    steps = 0
    while todo:
        steps += 1
        if steps > MAX_BISECTIONS:
            raise BisectionBoundExceeded(
                f"root isolation needs more than {MAX_BISECTIONS} "
                f"bisection steps")
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
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return pp_trim(out, m)


def pp_divmod(a, b, m):
    rem, b = pp_trim(a, m), pp_trim(b, m)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], m - 2, m)
    quo = [0] * max(len(rem) - len(b) + 1, 0)
    # each step cancels the top coefficient of rem, which is then dropped
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        c = quo[k] = rem.pop() * inv_lead % m
        for i in range(len(b) - 1):
            rem[k + i] -= c * b[i]
    return pp_trim(quo, m), pp_trim(rem, m)


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


def squarefree_part(n):
    """The squarefree core: the product of the primes dividing n to an
    odd power, with the sign of n, so that n is it times a square."""
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
        if len(w) == 1:
            out.append((f, scale))
            return
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


def _distinct_degree(f, p, max_degree=None):
    """([(product-of-factors, degree)], rest) for squarefree monic f over
    F_p.  With a max_degree, the steps stop there: the parts list only
    the factors of degree up to it, and rest is the product of all
    others, unsplit; rest is [1] when every factor is in the parts."""
    out = []
    x = [0, 1]
    h = x[:]
    rest = f[:]
    d = 0
    cap = degree(f) if max_degree is None else max_degree
    while degree(rest) >= 2 * (d + 1) and d < cap:
        d += 1
        h = pp_powmod(h, p, rest, p)
        g = pp_gcd(psub(h, x), rest, p)
        if degree(g) > 0:
            out.append((g, d))
            rest, _ = pp_divmod(rest, g, p)
            h = pp_divmod(h, rest, p)[1] if degree(rest) > 0 else h
    # below 2(d + 1), rest has no two factors of degree above d: it is
    # irreducible, or 1; past the cap it holds no factor up to the cap
    if 0 < degree(rest) <= cap:
        out.append((rest, degree(rest)))
        rest = [1]
    return out, rest


def _roots(f, p):
    """The roots of f in F_p, by evaluation at 0, 1, ..., p - 1."""
    points = range(p)
    values = [0] * p
    for c in reversed(f):
        values = [(v * a + c) % p for v, a in zip(values, points)]
    return [a for a, v in zip(points, values) if not v]


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


def factor_mod_p(f, p, max_degree=None):
    """Monic factorization over F_p: (sorted [(factor, multiplicity)],
    rest), f = rest * prod factor^multiplicity.

    Without a max_degree, or when f is not squarefree mod p, every
    factor is listed and rest is [1].  For a squarefree f with a
    max_degree, only the factors of degree up to it are listed and rest
    is the product of the others, unsplit: the linear factors are read
    off by evaluating f at every residue, O(p deg f) (a cap d >= 1 comes
    from a bound of at least p^d), and the distinct-degree steps stop at
    max_degree.

    Deterministic: the equal-degree splitting RNG is seeded from
    (f, p) only.
    """
    f = pp_monic(f, p)
    if degree(f) < 1:
        return [], [1]
    mix = p
    for c in f:
        mix = (mix * 1000003 + c) & 0xFFFFFFFFFFFF
    rng = random.Random(mix)
    parts = _squarefree_decomposition(f, p)
    if max_degree is None or parts != [(f, 1)]:
        rest = [1]
        ddf = [(h, d, mult) for g, mult in parts
               for h, d in _distinct_degree(g, p)[0]]
    else:
        linear = [[-a % p, 1] for a in _roots(f, p)] if max_degree else []
        for g in linear:
            f = pp_divmod(f, g, p)[0]
        ddf, rest = (_distinct_degree(f, p, max_degree) if max_degree > 1
                     else ([], f))
        ddf = [(g, 1, 1) for g in linear] + [(h, d, 1) for h, d in ddf]
    out = {}
    for h, d, mult in ddf:
        pieces = [h]
        while pieces:
            q = pieces.pop()
            if degree(q) == d:
                out[tuple(q)] = out.get(tuple(q), 0) + mult
                continue
            split = _equal_degree_split(q, d, p, rng)
            pieces.extend([split, pp_divmod(q, split, p)[0]])
    return sorted((list(k), v) for k, v in out.items()), rest


def is_one_simple_factor_mod_p(f, p):
    """Whether factor_mod_p(f, p) is one factor of multiplicity 1 (f
    irreducible mod p), without its equal-degree splits: f must be
    squarefree mod p with one distinct-degree part, of degree deg f."""
    parts = _squarefree_decomposition(f, p)
    if len(parts) != 1 or parts[0][1] != 1:
        return False
    g = parts[0][0]
    return _distinct_degree(g, p)[0] == [(g, degree(g))]


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


# psi_13, the least strong pseudoprime to every prime base up to 41
# (Sorenson and Webster, Math. Comp. 86, 2017): is_prime is proved below it.
PRIME_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Exact for n < PRIME_BOUND; the bases up to 37 alone would pass
    psi_12 = 318665857834031151167461 = 399165290221 * 798330580441."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
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


def sqrt_mod_p(a, p):
    """A square root of a modulo the odd prime p, or None when a is not
    a square (Tonelli-Shanks; Cohen, GTM 138, Alg. 1.5.1)."""
    a %= p
    if a == 0 or pow(a, (p - 1) // 2, p) != 1:
        return None if a else 0
    e = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^e q with q odd
    q = (p - 1) >> e
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    y, x, b = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while b != 1:
        m = next(m for m in range(1, e) if pow(b, 1 << m, p) == 1)
        t = pow(y, 1 << (e - m - 1), p)
        y, e, x, b = t * t % p, m, x * t % p, b * t * t % p
    return x


def integer_roots(f, chain):
    """All integer roots of an integer polynomial f with Sturm chain chain.

    Every degree bisects the root bound on integer endpoints with the
    chain, so the work grows with the logarithm of the coefficients, not
    their square root.  An interval with one root bisects on the sign of
    the squarefree chain[0] alone, one evaluation per step.
    """
    f, g = trim(f), chain[0]
    b = root_bound(f)
    out = []
    # (lo, hi] with the sign variations of the chain at both ends, so
    # each bisection point is evaluated once
    todo = [(-b, b, variations_at(chain, -b), variations_at(chain, b))]
    while todo:
        lo, hi, vlo, vhi = todo.pop()
        if vlo == vhi:
            continue
        if vlo - vhi == 1:
            # g changes sign at its one simple root r in (lo, hi]; read
            # the sign at hi, since g(lo) is 0 when lo is the root of the
            # interval to the left
            v = peval(g, hi)
            while v and hi - lo > 1:
                mid = (lo + hi) // 2
                w = peval(g, mid)
                if not w or (w > 0) == (v > 0):
                    hi, v = mid, w
                else:
                    lo = mid
            if not v:
                out.append(hi)
            continue
        if hi - lo == 1:
            if peval(f, hi) == 0:
                out.append(hi)
            continue
        mid = (lo + hi) // 2
        vmid = variations_at(chain, mid)
        todo += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return sorted(out)
