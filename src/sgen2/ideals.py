"""Nonzero integral ideals of the maximal order, and its primes as ring
maps.

An ideal is stored as the canonical HNF of its Z-lattice in
integral-basis coordinates, so equality of ideals is equality of
matrices and sorting by matrix gives a canonical prime ordering.  The
lattice of an ideal with given generators is spanned by the rows of
their multiplication matrices (FieldElement._num_rows).

The primes above p come from the factorization of a polynomial mod p
(residue_maps): each monic irreducible factor g gives the ring map O_K
-> F_p[x] / (g) of one prime (ResidueMap), whose kernel is the prime.
This is complete for degree <= 2 (the maximal order is Z[omega], and
NumberField.omega_minpoly reads omega's minimal polynomial off the
discriminant; a square root mod p splits it).  In the datasheet tier it
needs p coprime to the index of Z[t] in the maximal order; the Dedekind
criterion detects the bad primes and IndexDivisor reports them as out
of scope.  A prime that S or a report reads is a PrimeIdeal
(factor_rational_prime); the mod-P check reads only the ring map,
which is also the residue field: it builds log tables from one
primitive element (the F_p[x] arithmetic of polys reduces mod g only
on that walk) and then multiplies and adds residues by table lookups.
No other module reads the residues' base-p encoding.

Reduction decides whether a quadratic ideal is principal
(_reduced_generator), and the reported generator is the least associate
in the order (x, |y|, y < 0), found with no coordinate box
(_principal_generator_quadratic).

The S-unit path forms at most one ideal power per prime and computes no
valuation (sunits reads each off a class-order witness or a lying-over
table).  A class order composes the reduced binary quadratic form of
the prime with itself, and only the principal power it finds is formed,
by IntegralIdeal ** (class_order); each prime keeps its witness.
Otherwise ideal products serve the check that the primes over p
multiply to (p) and the datasheet tier's declared orders.
"""

import operator
from math import gcd, isqrt, prod

from . import linalg, polys
from .errors import (ConfigInvalid, DatasheetInvalid, DatasheetRequired,
                     IndexDivisor, InvariantViolated, OrderBoundExceeded)
from .field import (FieldElement, _torsion_units, continued_fraction_step,
                    fundamental_unit, square_and_multiply)

# Largest power a tried by class_order before giving up.
CLASS_ORDER_BOUND = 10000


class IntegralIdeal:
    __slots__ = ("field", "hnf")

    def __init__(self, field, rows):
        self.field = field
        h = linalg.hnf(rows)
        if len(h) != field.degree:
            raise ValueError("not a full-rank (nonzero) ideal lattice")
        self.hnf = tuple(h)

    @classmethod
    def from_elements(cls, field, elements):
        return cls(field, _ideal_rows(elements))

    @classmethod
    def principal(cls, field, element):
        return cls.from_elements(field, [element])

    @property
    def norm(self):
        return prod(row[i] for i, row in enumerate(self.hnf))

    def contains(self, element):
        return element.den == 1 and linalg.in_lattice(self.hnf, element.num)

    def __mul__(self, other):
        if not isinstance(other, IntegralIdeal):
            return NotImplemented
        f = self.field
        return IntegralIdeal(f, [f.ib_mul(a, b) for a in self.hnf
                                 for b in other.hnf])

    def __pow__(self, e):
        """self^e in O(log e) ideal products."""
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        if e == 0:
            return IntegralIdeal(self.field,
                                 [[int(i == j) for j in range(self.field.degree)]
                                  for i in range(self.field.degree)])
        return square_and_multiply(self, e)

    def __eq__(self, other):
        return (isinstance(other, IntegralIdeal) and self.field is other.field
                and self.hnf == other.hnf)

    def __hash__(self):
        return hash((id(self.field), self.hnf))

    def serialize(self):
        return {"hnf": [list(r) for r in self.hnf], "norm": self.norm}

    def __repr__(self):
        return f"IntegralIdeal({[list(r) for r in self.hnf]})"


class PrimeIdeal(IntegralIdeal):
    """A prime over p with its ramification index e, its residue degree
    f and its ClassOrderWitness (_witness, built by the first
    class_order)."""

    __slots__ = ("p", "e", "f", "two_element", "_witness")

    def __init__(self, field, rows, p, e, f, two_element):
        super().__init__(field, rows)
        self.p, self.e, self.f = p, e, f
        self.two_element = two_element
        self._witness = None

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


class ResidueMap:
    """The prime P over p of a monic irreducible factor g of the defining
    polynomial mod p (omega's minimal polynomial on the automatic tier),
    p prime to [O_K : Z[t]], as the ring map O_K -> O_K / P = F_p[x] / (g)
    sending t (omega) to x (Kummer-Dedekind; Cohen, GTM 138, 4.8), and as
    that residue field of size q = p^f.  A residue 0, ..., q - 1 (0 the
    zero, 1 the one) is the sum c_k p^k of its coordinates over 1, x, ...,
    x^(f - 1).  _cols[k][i] is c_k of the image of the integral-basis
    element b_i.

    Arithmetic runs on the logs to one primitive element w, the first
    residue whose powers, walked by the fixed map powers, reach every
    nonzero one (O(q) steps; none does when g is reducible, and then
    InvariantViolated is raised).  Only O(q) lists are kept: exp, log,
    the Zech logs Z[k] = log(1 + w^k) and the inverse and negation
    tables; w^i w^j = w^(i + j), w^i + w^j = w^(i + Z[j - i]), and -w^i =
    w^(i + (q - 1)/2) for odd q (-x = x for even q).  The map is checked
    to be a ring map on the tables (1 maps to 1, b_i b_j to the image of
    sum_k c_ijk b_k), or InvariantViolated is raised; hnf, its kernel's
    canonical HNF, sorts the maps as the PrimeIdeals sort."""

    __slots__ = ("p", "g", "e", "f", "q", "hnf", "inv_table", "neg_table",
                 "_cols", "_exp", "_log", "_zech")

    def __init__(self, field, p, g, e, rows, den):
        # b_i is sum_k rows[i][k] t^k / den, with p prime to den
        self.p, self.g, self.e, self.f = p, g, e, len(g) - 1
        self.q = q = p ** self.f
        _check_invariant(den % p, "the integral basis has p in a denominator")
        m = q - 1
        # powers of a rejected candidate are never primitive: skip them
        seen = bytearray(q)
        for w in range(1, q):
            if seen[w]:
                continue
            exp = [1]
            for x in self.powers(w):
                if x == 1 or len(exp) == q:
                    break
                exp.append(x)
                seen[x] = 1
            if len(exp) == m:
                break
        else:
            raise InvariantViolated("O_K/P has no primitive element")
        # the zero has log 2m and _exp reads 0 at every k >= 2m, so a sum
        # of two logs needs neither a reduction nor a test for zero
        self._log = log = [2 * m] * q
        for k, x in enumerate(exp):
            log[x] = k
        # x + 1 adds 1 to the constant coordinate only
        self._zech = [log[x - x % p + (x + 1) % p] for x in exp]
        self.inv_table = [None] + [exp[-li] for li in log[1:]]
        self._exp = exp = exp + exp + [0] * (2 * m + 1)
        half = m // 2 if q % 2 else 0
        self.neg_table = [exp[li + half] for li in log]
        inv = pow(den, -1, p)
        b = [self._number([c * inv for c in row]) for row in rows]
        images = [self._digits(r) for r in b]
        self._cols = list(zip(*images))
        n = field.degree
        _check_invariant(
            self._residue(field.one.num) == 1
            and all(self.mul(b[i], b[j]) == self._residue(field.mult_table[i][j])
                    for i in range(n) for j in range(i, n)),
            "the basis images do not make a ring map")
        self.hnf = _kernel_hnf(images, p)

    def _digits(self, r):
        # the coordinates c_0, ..., c_(f - 1) of the residue r
        p, out = self.p, []
        for _ in range(self.f):
            r, c = divmod(r, p)
            out.append(c)
        return out

    def _number(self, c):
        # the residue of the integer polynomial c, reduced mod (p, g)
        p, out = self.p, 0
        for x in reversed(polys.pp_divmod(c, self.g, p)[1]):
            out = out * p + x
        return out

    def _residue(self, vec):
        p, out = self.p, 0
        for col in reversed(self._cols):
            out = out * p + sum(map(operator.mul, vec, col)) % p
        return out

    def reduce(self, x):
        """The residue of an element x whose denominator is prime to p:
        the map is F_p-linear, so that of den^-1 mod p times x.num."""
        if x.den == 1:
            return self._residue(x.num)
        if x.den % self.p == 0:
            raise ConfigInvalid(
                "element denominator shares the residue characteristic")
        inv = pow(x.den, -1, self.p)
        return self._residue([c * inv for c in x.num])

    def mul(self, r, s):
        """The residue of a product, from the residues of its factors."""
        return self._exp[self._log[r] + self._log[s]]

    def add(self, r, s):
        """The residue of a sum, from the residues of its terms."""
        if not (r and s):
            return r or s
        lr = self._log[r]
        # a negative difference wraps modulo q - 1
        return self._exp[lr + self._zech[self._log[s] - lr]]

    def powers(self, r):
        """The residues of r, r^2, r^3, ..., without end, each the last
        times r by one fixed F_p-linear map on the coordinates: the f x f
        matrix whose column k holds those of r x^k (each the last times
        x: shifted up and reduced).  No product is reduced per step."""
        p, f = self.p, self.f
        x = r
        if f == 1:
            while True:
                yield x
                x = x * r % p
        cols, y = [], r
        for _ in range(f):
            cols.append(self._digits(y))
            y = self._number([0] + cols[-1])
        rows = list(zip(*cols))
        weights = [p ** k for k in range(f)]
        col = cols[0]
        while True:
            yield x
            col = [sum(map(operator.mul, col, row)) % p for row in rows]
            x = sum(map(operator.mul, col, weights))


def _kernel_hnf(images, p):
    """The canonical HNF of {v : sum v_i images_i = 0 mod p}.  From the
    last column: column i has pivot p (the row p e_i) when images_i is
    outside the span of the later pivot-p images, and otherwise pivot 1,
    with the row e_i - sum_j c_j e_j for images_i = sum_j c_j images_j."""
    n = len(images)
    rows = [None] * n
    echelon = []  # (pivot, w, c) with w = sum_j c_j images_j, w[pivot] = 1
    for i in reversed(range(n)):
        w, combo = images[i], [0] * n
        for piv, v, comb in echelon:
            c = w[piv]
            w = [(x - c * y) % p for x, y in zip(w, v)]
            combo = [(x + c * y) % p for x, y in zip(combo, comb)]
        if any(w):
            rows[i] = tuple(p * (j == i) for j in range(n))
            piv = next(k for k, x in enumerate(w) if x)
            d = pow(w[piv], -1, p)
            echelon.append((piv, [d * x % p for x in w],
                            [d * (j == i) - d * x for j, x in enumerate(combo)]))
        else:
            rows[i] = tuple(1 if j == i else -combo[j] % p for j in range(n))
    return tuple(rows)


def _kummer_factors(field, p, max_degree=None):
    """(rows, den, factors) for the primes above p: the integral basis
    b_i = sum_k rows[i][k] t^k / den in powers of t (of omega on the
    automatic tier), and [(g, e)], one monic irreducible factor g of the
    defining polynomial (of omega's minimal polynomial) mod p per prime,
    with e = its multiplicity and f = deg g.  The datasheet tier first
    runs Dedekind's criterion and raises IndexDivisor when p divides
    [O_K : Z[t]].  With a max_degree, the factors of degree above it
    may be left out: polys.factor_mod_p leaves them as one unsplit rest
    when the defining polynomial is squarefree mod p (then p is prime
    to its discriminant, so to the index), and the checks count it.
    """
    n = field.degree
    rest = [1]
    if n == 1:
        rows, den, fac = [[1]], 1, [([0, 1], 1)]
    elif field.tier == "automatic":
        # roots of x^2 + b x + s mod p: none (inert), one double or two
        s, b = field.omega_minpoly()
        rows, den = [[1, 0], [0, 1]], 1
        if p == 2:
            roots = [x for x in (0, 1) if (x * x + b * x + s) % 2 == 0]
        else:
            r = polys.sqrt_mod_p(b * b - 4 * s, p)
            half = (p + 1) // 2  # the inverse of 2 mod p
            roots = [] if r is None else sorted(
                {(r - b) * half % p, (-r - b) * half % p})
        mult = 2 if len(roots) == 1 else 1
        fac = ([([-rho % p, 1], mult) for rho in roots]
               or [([s % p, b % p, 1], 1)])
    else:
        rows, den = field._ib_rows, field._ib_den
        fac, rest = polys.factor_mod_p(list(field.poly), p, max_degree)
        if _dedekind_index_divisor(field.poly, fac, rest, p):
            raise IndexDivisor(
                f"p = {p} divides the index of Z[t]; factorization out of scope")
    _check_invariant(
        sum(e * (len(g) - 1) for g, e in fac) + len(rest) - 1 == n,
        "sum of e*f, with the unsplit rest's degree, must equal the degree")
    return rows, den, fac


def residue_maps(field, p, bound):
    """The ResidueMaps of the primes above the rational prime p whose
    residue fields have size up to bound, that is degree f up to
    floor(log_p bound), in canonical (HNF) order: no factor of higher
    degree is split off."""
    max_degree = 0
    while p ** (max_degree + 1) <= bound:
        max_degree += 1
    rows, den, fac = _kummer_factors(field, p, max_degree)
    return sorted((ResidueMap(field, p, g, e, rows, den) for g, e in fac
                   if len(g) - 1 <= max_degree), key=lambda M: M.hnf)


def factor_rational_prime(field, p):
    """All primes above p as PrimeIdeals, canonically ordered, each
    generated by p and an element pi that its factor g gives (a lift of
    g at t on the datasheet tier); the primes must multiply to (p).

    The tuple is kept on the field, so every later call for the same p
    returns the same prime objects.
    """
    if not isinstance(p, int) or not polys.is_prime(p):
        raise ConfigInvalid(f"not a rational prime: {p}")
    if p in field._primes_above:
        return field._primes_above[p]
    primes = []
    for g, e in _kummer_factors(field, p)[2]:
        f = len(g) - 1
        pi = field.zero  # for Q and for an inert p on the automatic tier
        if field.tier == "datasheet":
            pi = sum((field.theta ** k * _symmetric_lift(c, p)
                      for k, c in enumerate(g)), pi)
        elif f < field.degree:
            # the root rho of g gives the prime (p, w - rho); with theta
            # = u + v w, theta is u + v rho modulo it, so when p does not
            # divide v, theta - lift(u + v rho) generates it with p
            rho = -g[0] % p
            u, v = field.theta.num
            if v % p:
                pi = field.theta - field.from_rational(
                    _symmetric_lift(u + v * rho, p))
            else:
                pi = field.basis_element(1) - field.from_rational(
                    _symmetric_lift(rho, p))
        primes.append(PrimeIdeal(
            field, _ideal_rows([field.from_rational(p), pi]), p, e, f,
            (p, pi)))
    primes.sort(key=lambda q: q.hnf)
    product = primes[0] ** primes[0].e
    for q in primes[1:]:
        product = product * (q ** q.e)
    _check_invariant(
        product == IntegralIdeal.from_elements(field, [field.from_rational(p)]),
        "product of prime powers must be (p)")
    field._primes_above[p] = tuple(primes)
    return field._primes_above[p]


def _ideal_rows(elements):
    """Integral-basis rows of every generator times every basis element."""
    rows = []
    for e in elements:
        if e.den != 1:
            raise ValueError(f"generator {e!r} is not integral")
        rows += e._num_rows()
    return rows


def _dedekind_index_divisor(poly, fac, rest, p):
    """True iff p divides [O_K : Z[t]] (Dedekind's criterion): with f =
    rest * prod g^e mod p, some g with e > 1 divides (f - lift(rest)
    prod lift(g)^e) / p.  rest, the product of the factors left unsplit,
    is squarefree and prime to every g."""
    lifted = [_symmetric_lift(c, p) for c in rest]
    for g, e in fac:
        for _ in range(e):
            lifted = polys.pmul(lifted, [_symmetric_lift(c, p) for c in g])
    diff = polys.psub(list(poly), lifted)
    _check_invariant(all(c % p == 0 for c in diff),
                     "the lifted factorization does not reduce to f mod p")
    T = [c // p for c in diff]
    return any(e > 1 and not polys.pp_divmod(T, g, p)[1] for g, e in fac)


# ---------------------------------------------------------------------------
# Class-group orders by reduction of binary quadratic forms.

def _primitive_part(ideal):
    """(g, A, x0) for a quadratic ideal g J, g its content and J = [A,
    x0 + w] primitive of norm A: the content is the least y coordinate
    in the ideal (u row_0 + v row_1 has y = g), and that element over g
    is x0 + w."""
    (h00, h01), (_, h11) = ideal.hnf
    g = gcd(h01, h11)
    A = ideal.norm // (g * g)
    return g, A, pow(h01 // g, -1, h11 // g) * h00 // g % A


def _reduced_generator(x0, A, D, s):
    """(beta, f): beta = (x, y) with x + y w generating J = [A, x0 + w],
    or None when J is not principal, and then f = (a, b) a reduced form
    of J's class (w the second integral-basis element, D the field
    discriminant, s = N(w); forms as in _compose).

    J carries the form f(X, Y) = N(X a1 + Y a2) / A of discriminant D in
    its basis (a1, a2) = (A, x0 + w), and a basis change in SL2(Z) moves
    the form with it; a basis vector a1 with f(1, 0) = +-1 has norm +-A
    and generates J.

    Imaginary fields: Gauss reduction in O(log A) steps (translate b
    into (-a, a], swap while a > c) ends with |b| <= a <= c, so a is
    the least value of f; J is principal exactly when that is 1.

    Real fields: J = (Q/2) [1, xi] with xi = (P + sqrt D) / Q, P = 2 x0
    + Tr(w), Q = 2A.  If xi = [a_0; ..., a_(k-1), xi_k], p/q the
    convergent [a_0; ..., a_(k-1)] and q' the denominator before q, then
    [1, xi] = [1, xi_k] / (q xi_k + q') and q xi - p = +-1 / (q xi_k +
    q'); so when xi_k has |Q_k| = 2, [1, xi_k] is O_K and q (x0 + w) -
    p A generates J.  The expansion is periodic from its first reduced
    complete quotient on, after O(log A) steps, and by Serret's theorem
    its period holds every reduced quotient GL2(Z)-equivalent to xi;
    (b + sqrt D) / 2, of O_K, is one exactly when J is principal.  So one
    period decides (Cohen, GTM 138, 5.2-5.8).  Going once around it
    multiplies [1, xi] by the fundamental unit eps, and q at least
    doubles every two steps, so the period has at most about 2 log2 eps
    steps, like the walk of field.fundamental_unit, which the caller has
    run: MAX_UNIT_DIGITS bounds both.
    """
    t = D % 2
    if D < 0:
        a, b, c = A, 2 * x0 + t, (x0 * x0 + t * x0 + s) // A
        u, v = (A, 0), (x0, 1)
        while True:
            k = (a - b) // (2 * a)
            if k:
                c += (a * k + b) * k
                b += 2 * a * k
                v = (v[0] + k * u[0], v[1] + k * u[1])
            if a <= c:
                return (u, None) if a == 1 else (None, (a, b))
            a, b, c = c, -b, a
            u, v = v, (-u[0], -u[1])
    r = isqrt(D)
    P, Q = 2 * x0 + t, 2 * A
    p0, p1, q0, q1 = 0, 1, 1, 0
    start = None
    while abs(Q) != 2:
        if start is None and 0 < P <= r and r - P < Q <= r + P:
            start = (P, Q)
        a, P, Q = continued_fraction_step(P, Q, D, r)
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        if (P, Q) == start:
            return None, (Q // 2, P)
    return (q1 * x0 - p1 * A, q1), None


def _unit_rows(field):
    """The rows of multiplication by eps, the fundamental unit of a real
    quadratic field, by eta = eps^2 and by eta^-1, built once and kept on
    the field: coordinates v times eps are v eps_rows, and so on."""
    if field._unit_rows is None:
        eps = fundamental_unit(field)
        eta = eps * eps
        field._unit_rows = (eps._num_rows(), eta._num_rows(),
                            eta.inverse()._num_rows())
    return field._unit_rows


def _principal_generator_quadratic(ideal):
    """A generator of the ideal if principal, else None: written in
    integral-basis coordinates x + y w and normalized by sign to x > 0,
    or x = 0 and y >= 0, the first of all its generators in the order
    (x, |y|, y < 0).

    The ideal is g J with g its content and J = [A, x0 + w] primitive;
    _reduced_generator decides whether J is principal and gives a
    generator beta, in O(log N) steps for imaginary fields and one
    period of the cycle of reduced ideals for real ones.  Every
    generator is g beta zeta, zeta one of at most six roots of unity,
    or +-g beta eps^k, eps the fundamental unit.  An imaginary field
    compares all of them.

    Up to sign, a real field's generators lie on the two orbits g beta
    eta^j and g beta eps eta^j, eta = eps^2.  N(eta) = 1 whatever N(eps)
    is, so gamma eta^j has embeddings s1 eta1^j and s2 eta1^-j (eta1 >
    1), and its x = (w1 s2 - w2 s1) / (w1 - w2) is a eta1^j + b eta1^-j
    with a, b nonzero: |x| falls, then rises, with at most one tie
    between neighbours.  So descending by the order, one direction and
    then the other, ends at an orbit's least element, and the lesser
    of the two ends is the least generator.  Stepping by eps alone
    fails for N(eps) = -1, where the eps1^-k term alternates in sign.
    """
    field = ideal.field
    D = field.field_discriminant
    g, A, x0 = _primitive_part(ideal)
    beta = _reduced_generator(x0, A, D, field.omega_minpoly()[0])[0]
    if beta is None:
        return None
    beta = [g * beta[0], g * beta[1]]

    def key(v):
        # the order on v normalized by sign
        x, y = v
        if x < 0 or not x and y < 0:
            x, y = -x, -y
        return x, abs(y), y < 0, y

    def times(v, rows):
        # the coordinates of v times the element whose num rows are rows
        return (v[0] * rows[0][0] + v[1] * rows[1][0],
                v[0] * rows[0][1] + v[1] * rows[1][1])

    if D < 0:
        order, zeta = _torsion_units(field)
        # zeta^(order / 2) = -1, and -gamma is compared with gamma
        found = [beta]
        for _ in range(order // 2 - 1):
            found.append(field.ib_mul(found[-1], zeta.num))
    else:
        eps, up, down = _unit_rows(field)
        found = []
        for v in (beta, times(beta, eps)):
            least = key(v)
            for rows in (up, down):
                while True:
                    w = times(v, rows)
                    k = key(w)
                    if k >= least:
                        break
                    v, least = w, k
            found.append(v)
    x, _, _, y = min(map(key, found))
    return FieldElement(field, (x, y))


def _principal_generator(ideal):
    field = ideal.field
    if field.degree == 1:
        return field.from_rational(ideal.hnf[0][0])
    return _principal_generator_quadratic(ideal)


def _compose(f1, f2, D):
    """The composition of the primitive forms f1 = (a1, b1) and f2 = (a2,
    b2) of discriminant D, a form (a, b) being a x^2 + b x y + c y^2
    with c = (b^2 - D) / 4a and a > 0, the form of the ideal [a, (b +
    sqrt D) / 2].  With e = gcd(a1, a2, (b1 + b2) / 2) = u a1 + v a2 + w
    (b1 + b2) / 2, it is (a1 a2 / e^2, (u a1 b2 + v a2 b1 + w (b1 b2 +
    D) / 2) / e), b taken modulo 2a: Dirichlet's composition (Cohen,
    GTM 138, 5.4; Buchmann-Vollmer, Binary Quadratic Forms, 2007)."""
    (a1, b1), (a2, b2) = f1, f2
    d, u, v = linalg.xgcd(a1, a2)
    e, x, w = linalg.xgcd(d, (b1 + b2) // 2)
    a = a1 * a2 // (e * e)
    b = (x * (u * a1 * b2 + v * a2 * b1) + w * ((b1 * b2 + D) // 2)) // e
    return a, b % (2 * a)


def _class_order_by_forms(prime):
    """(a, prime^a) for a prime that is not principal, a the order of its
    class, at most CLASS_ORDER_BOUND, or OrderBoundExceeded.

    Such a prime is primitive, [A, x0 + w] with the form f = (A, 2 x0 +
    Tr w), and a is the least k with f^k principal.  Each power is f
    times the last, reduced by _reduced_generator, which decides its
    principality too, so every form stays about sqrt |D| in size (Cohen,
    GTM 138, 5.4 and 5.6); prime^a is then formed once by squaring.  A
    real field's unit is found first: MAX_UNIT_DIGITS bounds each period
    walk."""
    field = prime.field
    D = field.field_discriminant
    t = D % 2
    s = field.omega_minpoly()[0]
    if D > 0:
        fundamental_unit(field)
    _, A, x0 = _primitive_part(prime)
    form = power = (A, 2 * x0 + t)
    for a in range(2, CLASS_ORDER_BOUND + 1):
        a2, b2 = _compose(power, form, D)
        beta, power = _reduced_generator((b2 - t) // 2, a2, D, s)
        if beta is not None:
            return a, prime ** a
    raise OrderBoundExceeded(f"no principal power up to {CLASS_ORDER_BOUND}")


def class_order(prime):
    """Smallest a >= 1 with prime^a principal, plus a verified generator,
    as a ClassOrderWitness built once and kept on the prime.

    Automatic tier: a prime that is principal has order 1; otherwise
    composing reduced forms finds the order, which proves minimality,
    and the generator is that of prime^a, formed once by squaring
    (_class_order_by_forms).  Datasheet tier: the field's
    sheet_class_orders entry for the prime is verified to be an order of
    at most CLASS_ORDER_BOUND (the power is principal with the declared
    generator); its minimality is taken on faith.
    """
    if prime._witness is not None:
        return prime._witness
    field = prime.field
    if field.tier == "automatic":
        a, power, gen = 1, prime, _principal_generator(prime)
        if gen is None:
            a, power = _class_order_by_forms(prime)
            gen = _principal_generator(power)
        _check_invariant(gen is not None
                         and IntegralIdeal.principal(field, gen) == power,
                         "the principal generator does not generate the "
                         "ideal power")
        prime._witness = ClassOrderWitness(a, gen, True)
        return prime._witness

    entry = field.sheet_class_orders.get(prime.hnf)
    if entry is None:
        raise DatasheetRequired(
            f"no class_orders entry for the ideal with HNF {[list(r) for r in prime.hnf]}")
    a, gen = entry
    if not (a <= CLASS_ORDER_BOUND
            and prime ** a == IntegralIdeal.principal(field, gen)):
        raise DatasheetInvalid(f"declared class order {a} is above "
                               f"{CLASS_ORDER_BOUND} or not witnessed")
    prime._witness = ClassOrderWitness(a, gen, False)
    return prime._witness
