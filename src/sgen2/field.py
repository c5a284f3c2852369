"""Number fields K = Q[x]/(f) with exact integer arithmetic.

A field carries an integral basis b_0 = 1, b_1, ..., b_(n-1) of its
maximal order, given as the power-basis coordinates (in 1, t, ...,
t^(n-1), t a fixed root of the monic defining polynomial f) of each b_i,
and the integer structure constants mult_table of that basis, built once
as polynomial products reduced mod f.  An element is num / den: integer
integral-basis coordinates over one positive denominator, in lowest
terms, so equal elements have equal num and den.  Every product, of
elements as of the coordinate vectors that ideals, filtration levels,
power spans and residue tables use, is NumberField.ib_mul.  Power-basis
coordinates appear only at the boundary: configs and datasheets
(element), reports (serialize), and evaluation at a subfield embedding.

Linear algebra on elements clears them to integer rows over one
denominator (integer_rows) and solves through linalg.solve, on the
integer Hermite form: span_solve gives minimal polynomials and the CM
split, and the inverse of the integral basis (power-basis coordinates
to integral-basis ones) is solved once per field, which also checks
that the basis is nonsingular and contains Z[t].

Degree <= 2 fields get their integral basis and discriminant computed
from scratch.  A quadratic field is then its discriminant D and its
second basis element omega = (D mod 2 + sqrt D) / 2: the squarefree
core m, sqrt(m) and, for real fields, the fundamental unit (one
continued-fraction period over D) are read off these two.  Higher
degree fields must supply a datasheet carrying the integral basis and
the other global data that cannot be recomputed here.  Everything a
datasheet asserts is either verified exactly on load or verified at
first use.  Three quantities are accepted as asserted: the two that
cannot be checked without analytic input (multiplicative independence
of the declared units, minimality of declared class orders), and the
maximality of the order the declared basis spans, which is checked to
be an order but not to be maximal (ROADMAP item 6).
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from . import linalg, polys
from .errors import (ConfigInvalid, DatasheetInvalid, DatasheetRequired,
                     DivisionByZero, InvariantViolated, NotMonic, Reducible)

# Largest |b^2 - 4c| of a quadratic x^2 + b x + c that the automatic tier
# factors to find its squarefree core: trial division up to the square
# root, at most about 10^6 trial divisions.
MAX_QUADRATIC_DISCRIMINANT = 10 ** 12


def parse_rational(v):
    """Accept ints, Fractions, and 'p/q' strings."""
    if isinstance(v, bool):
        raise DatasheetInvalid(f"not a rational: {v!r}")
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise DatasheetInvalid(f"not a rational: {v!r}") from None
    raise DatasheetInvalid(f"not a rational: {v!r}")


def format_rational(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class FieldElement:
    """num / den with num the integer integral-basis coordinates, den > 0
    and gcd(den, *num) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=1):
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [x // g for x in num]
            den //= g
        self.field = field
        self.num = tuple(num)
        self.den = den

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self.den, o.den
        return FieldElement(self.field,
                            [a * e + b * d for a, b in zip(self.num, o.num)],
                            d * e)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self.den, o.den
        return FieldElement(self.field,
                            [a * e - b * d for a, b in zip(self.num, o.num)],
                            d * e)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.ib_mul(self.num, o.num),
                            self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def _num_rows(self):
        """The integer matrix whose row i holds the coordinates of num * b_i."""
        f = self.field
        n = f.degree
        return [f.ib_mul(self.num, [int(i == j) for j in range(n)])
                for i in range(n)]

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        # Cramer's rule gives integers c with c M = (det M) e_0, and e_0
        # is the element 1, so the element num has inverse c / det M
        m = self._num_rows()
        e0 = [1] + [0] * (len(m) - 1)
        c = [linalg.int_det(m[:j] + [e0] + m[j + 1:]) for j in range(len(m))]
        return FieldElement(self.field, [x * self.den for x in c],
                            linalg.int_det(m))

    def is_zero(self):
        return not any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.field is other.field and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((id(self.field), self.num, self.den))

    def norm(self):
        return Fraction(linalg.int_det(self._num_rows()),
                        self.den ** self.field.degree)

    def trace(self):
        m = self._num_rows()
        return Fraction(sum(m[i][i] for i in range(len(m))), self.den)

    def minimal_poly(self):
        """Monic minimal polynomial, constant coefficient first."""
        powers = [self.field.one]
        for _ in range(self.field.degree):
            cur = powers[-1] * self
            c = span_solve(powers, cur)
            if c is not None:
                return tuple([-x for x in c] + [1])
            powers.append(cur)
        raise InvariantViolated("no dependence among n+1 powers")

    def power_coords(self):
        """Rational coordinates with respect to the power basis."""
        f = self.field
        den = self.den * f._ib_den
        return tuple(Fraction(x, den)
                     for x in linalg.vec_mat(self.num, f._ib_rows))

    def is_integral(self):
        return self.den == 1

    def serialize(self):
        return [format_rational(c) for c in self.power_coords()]

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.power_coords()):
            if c == 0:
                continue
            if i == 0:
                terms.append(format_rational(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    terms.append(var)
                elif c == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{format_rational(c)}*{var}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def integer_rows(elements):
    """(den, rows): the integral-basis coordinates of the elements as
    integer rows over one common denominator den."""
    den = lcm(*(e.den for e in elements))
    return den, [[x * (den // e.den) for x in e.num] for e in elements]


def span_solve(elements, x):
    """Rational c with sum c_i elements_i = x, or None when x is outside
    their rational span."""
    _, rows = integer_rows(list(elements) + [x])
    return linalg.solve(rows[:-1], rows[-1])


class NumberField:
    def __init__(self, poly, integral_basis, signature, field_discriminant,
                 tier, irreducibility, datasheet=None):
        self.poly = tuple(int(c) for c in poly)
        self.degree = len(self.poly) - 1
        self.integral_basis = tuple(tuple(Fraction(x) for x in row) for row in integral_basis)
        self.signature = signature
        self.field_discriminant = field_discriminant
        self.tier = tier
        self.irreducibility = irreducibility
        self.datasheet = datasheet
        n = self.degree
        # the integral basis as integer rows _ib_rows over one denominator
        # _ib_den, and its inverse
        self._ib_den = lcm(*(x.denominator for r in self.integral_basis
                             for x in r))
        self._ib_rows = [[int(x * self._ib_den) for x in r]
                         for r in self.integral_basis]
        self._ib_inv = self._build_ib_inv()
        # integer structure constants over the integral basis, and for
        # ib_mul the nonzero (k, c) of each b_i * b_j
        self.mult_table = self._build_mult_table()
        self._terms = [[[(k, c) for k, c in enumerate(prod) if c]
                        for prod in row] for row in self.mult_table]
        self.zero = FieldElement(self, [0] * n)
        self.one = self.from_rational(1)
        self.theta = self.element([0, 1] + [0] * (n - 2)) if n >= 2 else self.one
        self._fund_unit = None
        self._subfields = None  # set by sunits.default_subfields
        self._primes_above = {}  # p -> primes, set by ideals.factor_rational_prime

    def ib_mul(self, u, v):
        """Integral-basis coordinates of the product of two elements given
        by integral-basis coordinates (integers or rationals)."""
        out = [0] * self.degree
        for i, a in enumerate(u):
            if a:
                row = self._terms[i]
                for j, b in enumerate(v):
                    if b:
                        ab = a * b
                        for k, c in row[j]:
                            out[k] += ab * c
        return out

    def _build_ib_inv(self):
        """Row i holds the integral-basis coordinates of t^i; integers,
        since the integral basis must contain Z[t]."""
        n = self.degree
        inv = [linalg.solve(self._ib_rows, [self._ib_den * (i == j)
                                            for j in range(n)])
               for i in range(n)]
        if None in inv:
            raise DatasheetInvalid("integral basis is singular")
        if any(x.denominator != 1 for row in inv for x in row):
            raise DatasheetInvalid("integral basis does not contain Z[t]")
        return [[int(x) for x in row] for row in inv]

    def _build_mult_table(self):
        """table[i][j] holds the integral-basis coordinates of b_i * b_j:
        the product of the integer rows den b_i and den b_j reduced mod
        the monic f, in integral-basis coordinates, divided by den^2."""
        n = self.degree
        den2 = self._ib_den ** 2
        table = []
        for ri in self._ib_rows:
            row = []
            for rj in self._ib_rows:
                rem = polys.pdivmod(polys.pmul(ri, rj), self.poly)[1]
                c = linalg.vec_mat(rem + [0] * (n - len(rem)), self._ib_inv)
                if any(x % den2 for x in c):
                    raise DatasheetInvalid(
                        "integral basis not closed under multiplication")
                row.append(tuple(x // den2 for x in c))
            table.append(row)
        return table

    # -- constructors --------------------------------------------------------

    def from_ib(self, coords):
        """The element with these integral-basis coordinates (integers or
        rationals)."""
        qs = [Fraction(c) for c in coords]
        den = lcm(*(q.denominator for q in qs))
        return FieldElement(self, [q.numerator * (den // q.denominator)
                                   for q in qs], den)

    def element(self, coords):
        """The element with these power-basis coordinates (integers or
        rationals), as configs and datasheets give them."""
        return self.from_ib(linalg.vec_mat(list(coords), self._ib_inv))

    def from_rational(self, q):
        q = Fraction(q)
        return FieldElement(self, [q.numerator] + [0] * (self.degree - 1),
                            q.denominator)

    def basis_element(self, i):
        return FieldElement(self, [int(i == j) for j in range(self.degree)])

    # -- global data ---------------------------------------------------------

    def trace_gram(self):
        """Tr(b_i b_j) = sum_k c_ijk Tr(b_k), with Tr(b_k) = sum_l c_kll
        the trace of multiplication by b_k."""
        table = self.mult_table
        n = self.degree
        tr = [sum(table[k][l][l] for l in range(n)) for k in range(n)]
        return [[sum(c * t for c, t in zip(table[i][j], tr)) for j in range(n)]
                for i in range(n)]

    def is_quadratic_real(self):
        return self.degree == 2 and self.signature == (2, 0)

    def quadratic_core(self):
        """For degree 2: the squarefree core m of the discriminant D."""
        D = self.field_discriminant
        return D if D % 2 else D // 4

    def sqrt_disc_core(self):
        """For degree 2: the element sqrt(m), m the squarefree core; that
        is 2 omega - 1 when D = m is odd, omega itself when D = 4m."""
        return self.from_ib((-1, 2) if self.field_discriminant % 2 else (0, 1))

    def serialize(self):
        return {
            "poly": list(self.poly),
            "degree": self.degree,
            "signature": list(self.signature),
            "discriminant": self.field_discriminant,
            "integral_basis": [[format_rational(x) for x in row]
                               for row in self.integral_basis],
            "tier": self.tier,
            "irreducibility": self.irreducibility,
        }

    def __repr__(self):
        return f"NumberField({list(self.poly)})"


# ---------------------------------------------------------------------------
# Construction.

def _irreducibility_screen(poly):
    """"proved" or "asserted"; raises Reducible when a factor is found."""
    n = len(poly) - 1
    if n == 1:
        return "proved"
    g = polys.pgcd(poly, polys.pderiv(poly))
    if polys.degree(g) > 0:
        raise Reducible(f"square factor detected: gcd with derivative {g}")
    roots = polys.integer_roots(list(poly))
    if roots:
        raise Reducible(f"integer root {roots[0]}")
    if n <= 3:
        # a reducible monic integer quadratic or cubic has an integer root
        return "proved"
    for p in polys.primes_below(100):
        fp = polys.pp_trim(list(poly), p)
        if polys.degree(fp) != n:
            continue
        d = polys.pp_gcd(fp, polys.pp_trim(polys.pderiv(fp), p), p)
        if polys.degree(d) != 0:
            continue
        if polys.is_irreducible_mod_p(list(poly), p):
            return "proved"
    return "asserted"


def _quadratic_integral_data(poly):
    """(integral_basis_rows, field_disc) for x^2 + b x + c."""
    b, c = poly[1], poly[0]
    disc_poly = b * b - 4 * c
    if abs(disc_poly) > MAX_QUADRATIC_DISCRIMINANT:
        raise ConfigInvalid(
            f"|discriminant| {abs(disc_poly)} of the quadratic exceeds "
            f"{MAX_QUADRATIC_DISCRIMINANT}, the largest the automatic "
            f"tier factors")
    m = polys.squarefree_part(disc_poly)
    f_theta = isqrt(disc_poly // m)
    if m % 4 == 1:
        # omega = (1 + sqrt(m)) / 2, sqrt(m) = (2 t + b) / f_theta
        row = (Fraction(f_theta + b, 2 * f_theta), Fraction(1, f_theta))
        disc = m
    else:
        row = (Fraction(b, f_theta), Fraction(2, f_theta))
        disc = 4 * m
    basis = [(Fraction(1), Fraction(0)), row]
    return basis, disc


def _validate_datasheet_shape(ds):
    if not isinstance(ds, dict):
        raise DatasheetInvalid("datasheet must be an object")
    allowed = {"integral_basis", "fundamental_units", "subfields", "class_orders"}
    extra = set(ds) - allowed
    if extra:
        raise DatasheetInvalid(f"unknown datasheet keys: {sorted(extra)}")
    if "integral_basis" not in ds:
        raise DatasheetInvalid("datasheet lacks integral_basis")


def create_field(poly, datasheet=None):
    """Build a NumberField from a monic integer polynomial.

    Degree 1 and 2 need no datasheet.  Higher degrees require one; its
    integral basis is verified (unit first row, contains Z[t], closed
    under multiplication, nonsingular trace Gram with determinant of the
    right sign).  The Gram is integral without a check: integer structure
    constants make the basis span an order, whose elements have integer
    traces.
    """
    try:
        coeffs = [Fraction(c) for c in poly]
    except (TypeError, ValueError):
        raise NotMonic("coefficients must be integers") from None
    if any(c.denominator != 1 for c in coeffs):
        raise NotMonic("coefficients must be integers")
    poly = polys.trim([int(c) for c in coeffs])
    if len(poly) < 2:
        raise NotMonic("degree must be at least 1")
    if poly[-1] != 1:
        raise NotMonic(f"leading coefficient {poly[-1]}")
    n = len(poly) - 1

    irreducibility = _irreducibility_screen(poly)

    r1 = polys.count_real_roots(poly)
    if (n - r1) % 2:
        raise InvariantViolated("signature parity")
    sig = (r1, (n - r1) // 2)

    if n == 1:
        basis = [(Fraction(1),)]
        disc = 1
        tier = "automatic"
        ds_norm = None
    elif n == 2:
        basis, disc = _quadratic_integral_data(poly)
        tier = "automatic"
        ds_norm = None
    else:
        if datasheet is None:
            raise DatasheetRequired(f"degree {n} needs a datasheet")
        _validate_datasheet_shape(datasheet)
        datasheet = dict(datasheet)  # never mutate caller data
        basis = []
        raw = datasheet["integral_basis"]
        if not (isinstance(raw, list) and len(raw) == n):
            raise DatasheetInvalid("integral_basis must have one row per degree")
        for row in raw:
            if not (isinstance(row, list) and len(row) == n):
                raise DatasheetInvalid("integral_basis rows must have length n")
            basis.append(tuple(parse_rational(x) for x in row))
        if basis[0] != tuple([Fraction(1)] + [Fraction(0)] * (n - 1)):
            raise DatasheetInvalid("first basis row must be 1")
        disc = None  # computed from the trace Gram below
        tier = "datasheet"
        ds_norm = datasheet

    field = NumberField(poly, basis, sig, disc, tier, irreducibility,
                        datasheet=ds_norm)

    gram_det = linalg.int_det(field.trace_gram())
    if gram_det == 0:
        raise DatasheetInvalid("trace Gram is singular")
    if disc is None:
        field.field_discriminant = gram_det
    elif gram_det != disc:
        raise InvariantViolated("discriminant mismatch between rule and trace Gram")
    if (field.field_discriminant < 0) != (sig[1] % 2 == 1):
        raise DatasheetInvalid("discriminant sign inconsistent with signature")

    if ds_norm is not None:
        _validate_datasheet_content(field, ds_norm)
    return field


def _validate_datasheet_content(field, ds):
    n = field.degree
    units = ds.get("fundamental_units", [])
    if not isinstance(units, list):
        raise DatasheetInvalid("fundamental_units must be a list")
    expected = field.signature[0] + field.signature[1] - 1
    if len(units) != expected:
        raise DatasheetInvalid(
            f"expected {expected} fundamental units, got {len(units)}")
    parsed_units = []
    for u in units:
        el = field.element([parse_rational(x) for x in u])
        if not el.is_integral() or abs(el.norm()) != 1:
            raise DatasheetInvalid(f"not a unit: {u}")
        parsed_units.append(el)
    ds["fundamental_units"] = parsed_units

    subs = ds.get("subfields", [])
    if not isinstance(subs, list):
        raise DatasheetInvalid("subfields must be a list")
    for s in subs:
        if not isinstance(s, dict) or set(s) - {"poly", "embedding"} or \
                "poly" not in s or "embedding" not in s:
            raise DatasheetInvalid("subfield entries need poly and embedding")
        g = field.element([parse_rational(x) for x in s["embedding"]])
        mp = g.minimal_poly()
        declared = [int(c) for c in s["poly"]]
        if list(mp) != declared:
            raise DatasheetInvalid(
                f"embedding does not satisfy the declared polynomial {s['poly']}")
        if (len(declared) - 1) == 0 or n % (len(declared) - 1):
            raise DatasheetInvalid("subfield degree must divide the field degree")

    orders = ds.get("class_orders", [])
    if not isinstance(orders, list):
        raise DatasheetInvalid("class_orders must be a list")
    for entry in orders:
        if not isinstance(entry, dict) or set(entry) != {"ideal", "order", "generator"}:
            raise DatasheetInvalid("class_orders entries need ideal, order, generator")
        if not isinstance(entry["order"], int) or entry["order"] < 1:
            raise DatasheetInvalid("class order must be a positive integer")


# ---------------------------------------------------------------------------
# Fundamental unit of a real quadratic field.

def fundamental_unit(field):
    """The fundamental unit of a real quadratic field, normalized > 1.

    One period of the continued fraction of w = (b + sqrt D) / 2, b the
    largest integer below sqrt D with b = D mod 2 (Cohen, GTM 138, 5.7):
    w is reduced, so its expansion is purely periodic, and with q0, q1
    the last two convergent denominators of the period, q1 w + q0 is the
    fundamental unit of Z[w], the maximal order.  The complete quotients
    are (P + sqrt D) / Q; the walk stops when (P, Q) returns to (b, 2).
    """
    if not field.is_quadratic_real():
        raise ValueError("fundamental_unit needs a real quadratic field")
    if field._fund_unit is not None:
        return field._fund_unit
    D = field.field_discriminant
    r = isqrt(D)
    b = r if (r - D) % 2 == 0 else r - 1
    P, Q = b, 2
    q0, q1 = 1, 0
    while True:
        a = (P + r) // Q
        q0, q1 = q1, a * q1 + q0
        P = a * Q - P
        Q = (D - P * P) // Q
        if (P, Q) == (b, 2):
            break
    # w = omega + (b - D mod 2) / 2, and b - D mod 2 is even
    field._fund_unit = field.from_ib((q0 + q1 * (b - D % 2) // 2, q1))
    return field._fund_unit


# One Q, the rational subfield of every field of degree > 1.  Its caches
# (the primes above p, their powers) fill across runs; each cached value
# depends on p alone.
RATIONALS = create_field([-1, 1])
