"""Nonzero integral ideals of the maximal order.

An ideal is stored as the canonical HNF of its Z-lattice in
integral-basis coordinates, so equality of ideals is equality of
matrices and sorting by matrix gives a canonical prime ordering.

Prime factorization is complete for degree <= 2 (the maximal order is
Z[omega], so the splitting of p mirrors the factorization of omega's
minimal polynomial mod p for every p; NumberField.omega_minpoly reads
that polynomial off the discriminant, and a square root mod p splits
it).  In the datasheet tier the same statement needs p coprime to the
index of Z[t] in the maximal order; the Dedekind criterion detects the
bad primes and IndexDivisor reports them as out of scope.
"""

from math import isqrt

from . import linalg, polys
from .errors import (ConfigInvalid, DatasheetInvalid, DatasheetRequired,
                     IndexDivisor, InvariantViolated, OrderBoundExceeded,
                     ZeroElement)
from .field import FieldElement, fundamental_unit

# Largest power a tried by class_order before giving up.
CLASS_ORDER_BOUND = 10000


class IntegralIdeal:
    __slots__ = ("field", "hnf", "_norm", "_powers")

    def __init__(self, field, rows):
        self.field = field
        h = linalg.hnf(rows)
        if len(h) != field.degree:
            raise ValueError("not a full-rank (nonzero) ideal lattice")
        self.hnf = tuple(h)
        self._norm = None
        self._powers = None

    @classmethod
    def from_elements(cls, field, elements):
        return cls(field, _ideal_rows(field, elements))

    @classmethod
    def principal(cls, field, element):
        return cls.from_elements(field, [element])

    @property
    def norm(self):
        if self._norm is None:
            n = 1
            for i, row in enumerate(self.hnf):
                n *= row[i]
            self._norm = n
        return self._norm

    def contains(self, element):
        return element.den == 1 and linalg.in_lattice(self.hnf, element.num)

    def __mul__(self, other):
        if not isinstance(other, IntegralIdeal):
            return NotImplemented
        f = self.field
        return IntegralIdeal(f, [f.ib_mul(a, b) for a in self.hnf
                                 for b in other.hnf])

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        if e == 0:
            return IntegralIdeal(self.field,
                                 [[int(i == j) for j in range(self.field.degree)]
                                  for i in range(self.field.degree)])
        if self._powers is None:
            self._powers = [self ** 0, self]
        while len(self._powers) <= e:
            self._powers.append(self._powers[-1] * self)
        return self._powers[e]

    def __eq__(self, other):
        return (isinstance(other, IntegralIdeal) and self.field is other.field
                and self.hnf == other.hnf)

    def __hash__(self):
        return hash((id(self.field), self.hnf))

    def sort_key(self):
        return self.hnf

    def serialize(self):
        return {"hnf": [list(r) for r in self.hnf], "norm": self.norm}

    def __repr__(self):
        return f"IntegralIdeal({[list(r) for r in self.hnf]})"


class PrimeIdeal(IntegralIdeal):
    __slots__ = ("p", "e", "f", "two_element")

    def __init__(self, field, rows, p, e, f, two_element):
        super().__init__(field, rows)
        self.p = p
        self.e = e
        self.f = f
        self.two_element = two_element

    @property
    def residue_size(self):
        return self.p ** self.f

    def serialize(self):
        out = super().serialize()
        out.update({
            "p": self.p, "e": self.e, "f": self.f,
            "two_element": [self.two_element[0],
                            self.two_element[1].serialize()],
        })
        return out

    def __repr__(self):
        return f"PrimeIdeal(p={self.p}, e={self.e}, f={self.f}, pi={self.two_element[1]!r})"


class ClassOrderWitness:
    __slots__ = ("order", "generator", "minimal_verified")

    def __init__(self, order, generator, minimal_verified):
        self.order = order
        self.generator = generator
        self.minimal_verified = minimal_verified


# ---------------------------------------------------------------------------
# Factoring rational primes.

def _check_invariant(holds, message):
    # a raise, not an assert, so that the check survives python -O
    if not holds:
        raise InvariantViolated(message)


def _symmetric_lift(r, p):
    r %= p
    return r if r <= p // 2 else r - p


def factor_rational_prime(field, p):
    """All primes above p, canonically ordered, with e and f attached.

    The tuple is kept on the field, so every later call for the same p
    returns the same prime objects.
    """
    if not isinstance(p, int) or not polys.is_prime(p):
        raise ConfigInvalid(f"not a rational prime: {p}")
    if p in field._primes_above:
        return field._primes_above[p]
    n = field.degree
    if n == 1:
        primes = [PrimeIdeal(field, [[p]], p, 1, 1, (p, field.zero))]
    elif field.tier == "automatic":
        # roots of x^2 + b x + s mod p: none (inert), one double or two
        s, b = field.omega_minpoly()
        if p == 2:
            roots = [x for x in (0, 1) if (x * x + b * x + s) % 2 == 0]
        else:
            r = polys.sqrt_mod_p(b * b - 4 * s, p)
            half = (p + 1) // 2  # the inverse of 2 mod p
            roots = [] if r is None else sorted(
                {(r - b) * half % p, (-r - b) * half % p})
        if not roots:
            rows = [[p if i == j else 0 for j in range(2)] for i in range(2)]
            primes = [PrimeIdeal(field, rows, p, 1, 2, (p, field.zero))]
        else:
            # each root rho gives the prime (p, w - rho); with theta =
            # u + v w, theta is u + v rho modulo it, so when p does not
            # divide v, theta - lift(u + v rho) generates it with p
            u, v = field.theta.num
            mult = 2 if len(roots) == 1 else 1
            primes = []
            for rho in roots:
                if v % p:
                    pi = field.theta - field.from_rational(
                        _symmetric_lift(u + v * rho, p))
                else:
                    pi = field.basis_element(1) - field.from_rational(
                        _symmetric_lift(rho, p))
                rows = _ideal_rows(field, [field.from_rational(p), pi])
                primes.append(PrimeIdeal(field, rows, p, mult, 1, (p, pi)))
    else:
        fac = polys.factor_mod_p(list(field.poly), p)
        if _dedekind_index_divisor(field.poly, fac, p):
            raise IndexDivisor(
                f"p = {p} divides the index of Z[t]; factorization out of scope")
        primes = []
        for g, mult in fac:
            # pi = (lift of the factor) evaluated at theta
            pi = field.zero
            for k, c in enumerate(_symmetric_lift(ci, p) for ci in g):
                if c:
                    pi = pi + field.theta ** k * c
            rows = _ideal_rows(field, [field.from_rational(p), pi])
            primes.append(PrimeIdeal(field, rows, p, mult, polys.degree(g), (p, pi)))

    primes.sort(key=lambda q: q.sort_key())
    check = primes[0] ** 0
    total = 0
    prod = check
    for q in primes:
        total += q.e * q.f
        prod = prod * (q ** q.e)
    _check_invariant(total == n, "sum of e*f must equal the degree")
    _check_invariant(
        prod == IntegralIdeal.from_elements(field, [field.from_rational(p)]),
        "product of prime powers must be (p)")
    field._primes_above[p] = tuple(primes)
    return field._primes_above[p]


def _ideal_rows(field, elements):
    """Integral-basis rows of every generator times every basis element."""
    n = field.degree
    rows = []
    for e in elements:
        if e.den != 1:
            raise ValueError(f"generator {e!r} is not integral")
        rows += [field.ib_mul(e.num, [int(i == j) for j in range(n)])
                 for i in range(n)]
    return rows


def _dedekind_index_divisor(poly, fac, p):
    """True iff p divides [O_K : Z[t]] (Dedekind's criterion)."""
    gbar = [1]
    hbar = [1]
    for g, mult in fac:
        gbar = polys.pp_mul(gbar, g, p)
        for _ in range(mult - 1):
            hbar = polys.pp_mul(hbar, g, p)
    gl = [_symmetric_lift(c, p) for c in gbar]
    hl = [_symmetric_lift(c, p) for c in hbar]
    prod = polys.pmul(gl, hl)
    diff = polys.psub(prod, list(poly))
    T = [c // p for c in diff]
    _check_invariant(all(c % p == 0 for c in diff),
                     "the lifted factorization does not reduce to f mod p")
    d = polys.pp_gcd(polys.pp_gcd(polys.pp_trim(T, p), gbar, p), hbar, p)
    return polys.degree(d) > 0


# ---------------------------------------------------------------------------
# Valuations.

def valuation(x, prime):
    """v_P(x) for x in K*, via the prime-power membership ladder."""
    if not isinstance(x, FieldElement):
        raise TypeError("element expected")
    if x.is_zero():
        raise ZeroElement("valuation of zero")
    vp_den = 0
    d = x.den
    while d % prime.p == 0:
        d //= prime.p
        vp_den += 1
    k = 0
    while linalg.in_lattice((prime ** (k + 1)).hnf, x.num):
        k += 1
    return k - prime.e * vp_den


# ---------------------------------------------------------------------------
# Class-group orders by exhaustive principality testing.

def _principal_generator_quadratic(ideal):
    """A generator of the ideal if principal, else None.  Exhaustive: the
    coordinate box 0 <= x <= xmax, |y| <= ymax (y >= 0 when x = 0) of
    integral-basis coordinates provably covers some generator x + y*w
    whenever one exists.

    Imaginary case: a generator has norm exactly N, so both embeddings
    are constrained and the box is tight.  Real case: every generator
    has an associate whose two embeddings lie below sqrt(N * eps) in
    absolute value, eps the fundamental unit; the box uses a rational
    upper bound for that with a safety factor of 4 on each side.

    The norm is the integer form x^2 + t*x*y + s*y^2, with t = D mod 2
    and s = (t - D) / 4 the trace and norm of w, so for each y the points
    of norm +-N are the integer roots of a monic quadratic in x.  Of
    those inside the box, the first in the order (x, |y|, y < 0) that
    lies in the ideal is returned.
    """
    field = ideal.field
    N = ideal.norm
    D = field.field_discriminant
    t = D % 2
    m = field.quadratic_core()
    if m < 0:
        am = -m
        if t:  # omega = (1 + sqrt m)/2
            ymax = isqrt(4 * N // am)
        else:
            ymax = isqrt(N // am)
        xmax = isqrt(N) + ymax + 1
    else:
        eps = fundamental_unit(field)
        # |theta| <= (|b| + sqrt(disc of the defining poly)) / 2
        b, c = field.poly[1], field.poly[0]
        theta_up = (abs(b) + polys.sqrt_upper(b * b - 4 * c)) / 2
        e0, e1 = eps.power_coords()
        bound = abs(e0) + abs(e1) * theta_up
        B = 4 * (isqrt(int(N * bound) + 1) + 1)
        xmax = B
        ymax = B // isqrt(m) + 1
    points = set()
    for y in range(ymax + 1):
        for target in (N, -N):
            # x^2 + t*y*x + s*y^2 - target = 0 has discriminant
            # (t^2 - 4 s) y^2 + 4*target = D*y^2 + 4*target, congruent
            # to (t*y)^2 mod 4, so both roots are integers when it is a
            # square
            disc = D * y * y + 4 * target
            if disc < 0:
                continue
            r = isqrt(disc)
            if r * r != disc:
                continue
            for yy in ((y, -y) if y else (0,)):
                for x in ((-t * yy + r) // 2, (-t * yy - r) // 2):
                    if 0 <= x <= xmax and (x or yy >= 0):
                        points.add((x, yy))
    for x, y in sorted(points, key=lambda q: (q[0], abs(q[1]), q[1] < 0)):
        el = field.from_ib((x, y))
        if ideal.contains(el):
            return el
    return None


def _principal_generator(ideal):
    field = ideal.field
    if field.degree == 1:
        return field.from_rational(ideal.hnf[0][0])
    return _principal_generator_quadratic(ideal)


def _power_by_squaring(ideal, e):
    """ideal^e for e >= 1 in O(log e) products, caching no power on the
    ideal (IntegralIdeal.__pow__ keeps every power up to e)."""
    power, square = None, ideal
    while True:
        if e & 1:
            power = square if power is None else power * square
        e >>= 1
        if not e:
            return power
        square = square * square


def class_order(ideal):
    """Smallest a >= 1 with ideal^a principal, plus a verified generator.

    Automatic tier: exhaustive, so minimality is proved.  Datasheet
    tier: the field's sheet_class_orders entry for the ideal is verified
    to be an order of at most CLASS_ORDER_BOUND (the power is principal
    with the declared generator); its minimality is taken on faith.
    """
    field = ideal.field
    if field.tier == "automatic":
        for a in range(1, CLASS_ORDER_BOUND + 1):
            power = ideal ** a
            gen = _principal_generator(power)
            if gen is not None:
                _check_invariant(IntegralIdeal.principal(field, gen) == power,
                                 "the principal generator does not generate "
                                 "the ideal power")
                return ClassOrderWitness(a, gen, True)
        raise OrderBoundExceeded(
            f"no principal power up to {CLASS_ORDER_BOUND}")

    entry = field.sheet_class_orders.get(ideal.hnf)
    if entry is None:
        raise DatasheetRequired(
            f"no class_orders entry for the ideal with HNF {[list(r) for r in ideal.hnf]}")
    a, gen = entry
    if not (a <= CLASS_ORDER_BOUND
            and _power_by_squaring(ideal, a)
            == IntegralIdeal.principal(field, gen)):
        raise DatasheetInvalid(f"declared class order {a} is above "
                               f"{CLASS_ORDER_BOUND} or not witnessed")
    return ClassOrderWitness(a, gen, False)

