"""Number fields K = Q[x]/(f) with exact integer arithmetic.

A field carries an integral basis b_0 = 1, b_1, ..., b_(n-1) of its
maximal order once, as integer rows over one denominator: row i holds
den * (the power-basis coordinates of b_i in 1, t, ..., t^(n-1), t a
fixed root of the monic defining polynomial f).  It also carries the
integer structure constants mult_table of that basis, built once as
polynomial products reduced mod f.  An element is num / den: integer
integral-basis coordinates over one positive denominator, in lowest
terms, so equal elements have equal num and den.  Every product, of
elements as of the coordinate vectors that ideals, filtration levels,
power spans and residue tables use, is NumberField.ib_mul, one walk over
a flat list of the nonzero structure constants c_ijk as (i, j, k, c).
The field keeps the basis traces Tr(b_k) = sum_l c_kll, so a trace is
one dot product with num, and trace_gram reads them.  Elements and
ideals take powers through the one square_and_multiply.  Power-basis
coordinates appear only at the boundary: configs and datasheets
(element, a subfield's integral basis, cleared once to integer rows),
reports (serialize, which repr prints).

Linear algebra on elements clears them to integer rows over one
denominator (integer_rows) and solves through linalg.solve, on the
integer Hermite form: span_solve gives minimal polynomials and the CM
split.  The inverse of the integral basis (power-basis coordinates to
integral-basis ones) is read off one HNF of the basis rows per field,
which also checks that the basis is nonsingular and contains Z[t].

create_field reads a square factor, the integer roots and the signature
off one Sturm chain of f (polys.sturm_chain).  The irreducibility
screen proves f irreducible above degree 3 by a prime mod which f is
one simple factor (polys.is_one_simple_factor_mod_p), else asserts it.
Degree <= 2 fields get their integral basis and discriminant computed
from scratch.  A quadratic field is then its discriminant D and its
second basis element omega = (D mod 2 + sqrt D) / 2: the squarefree
core m, sqrt(m), omega's minimal polynomial and, for real fields, the
fundamental unit (one continued-fraction period over D) are read off
these two.  Higher
degree fields must supply a datasheet carrying the integral basis and
the other global data that cannot be recomputed here.  create_field is
the one reader of a sheet: it checks every entry's shape (each
coordinate list holds exactly n rationals) and keeps the units,
subfields and class orders as typed sheet_ attributes of the field.
Everything a datasheet asserts is verified exactly on load (a unit of
finite order is rejected) or at first use (a class order, when its
ideal enters S).  Three quantities are accepted as asserted: the
multiplicative independence of the declared units, which residue-field
logs could prove exactly but are not used for yet (ROADMAP item 8;
only their fundamentality needs a regulator bound), the minimality of
declared class orders, and the maximality of the order the declared
basis spans, which is checked to be an order but not to be maximal
(ROADMAP item 6).
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from . import linalg, polys
from .errors import (ConfigInvalid, DatasheetInvalid, DatasheetRequired,
                     DivisionByZero, InvariantViolated, NotMonic, Reducible,
                     UnitTooLarge)

# Largest |b^2 - 4c| of a quadratic x^2 + b x + c that the automatic tier
# factors to find its squarefree core: trial division up to the square
# root, at most about 10^6 trial divisions.
MAX_QUADRATIC_DISCRIMINANT = 10 ** 12

# Most decimal digits a coordinate of the fundamental unit of a real
# quadratic field may have (Q(sqrt 1000003)'s has 251); a larger unit is
# UnitTooLarge.  A fixed constant, so that whether a field is accepted
# does not depend on the interpreter's int-to-str limit.
MAX_UNIT_DIGITS = 1000


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
        o = (other if type(other) is FieldElement and other.field is self.field
             else self._coerce(other))
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
        o = (other if type(other) is FieldElement and other.field is self.field
             else self._coerce(other))
        if o is None:
            return NotImplemented
        d, e = self.den, o.den
        return FieldElement(self.field,
                            [a * e - b * d for a, b in zip(self.num, o.num)],
                            d * e)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = (other if type(other) is FieldElement and other.field is self.field
             else self._coerce(other))
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
        return square_and_multiply(self, e) if e else self.field.one

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
        return Fraction(sum(map(mul, self.num, self.field.basis_traces)),
                        self.den)

    def is_root_of_unity(self):
        """Whether some power of self is 1.  A root of unity of order k
        in degree n has sqrt(k / 2) <= phi(k) <= n, and its powers have
        every conjugate of absolute value 1, so |trace| <= n."""
        n = self.field.degree
        power = self
        for _ in range(2 * n * n):
            if power == self.field.one:
                return True
            if abs(power.trace()) > n:
                return False
            power = power * self
        return False

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

    def is_integral(self):
        return self.den == 1

    def serialize(self):
        """format_rational of each power-basis coordinate, in integers."""
        f = self.field
        den = self.den * f._ib_den
        out = []
        for x in linalg.vec_mat(self.num, f._ib_rows):
            g = gcd(x, den)
            out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return out

    def __repr__(self):
        return f"FieldElement({self.serialize()})"


def square_and_multiply(x, e):
    """x^e for an integer e >= 1, squaring from the low bit, without the
    product by one the first set bit would take or a square after the
    last bit: the one power routine of elements and ideals."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else result * x
        e >>= 1
        if not e:
            return result
        x = x * x


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
    def __init__(self, poly, ib_den, ib_rows, signature, field_discriminant,
                 tier, irreducibility):
        self.poly = tuple(int(c) for c in poly)
        self.degree = len(self.poly) - 1
        self.signature = signature
        self.field_discriminant = field_discriminant
        self.tier = tier
        self.irreducibility = irreducibility
        # what a datasheet declares, read once by create_field: units,
        # (subfield, embedding) pairs, and ideal HNF -> (order, generator)
        self.sheet_units = ()
        self.sheet_subfields = ()
        self.sheet_class_orders = {}
        n = self.degree
        # the integral basis: b_i is the integer row _ib_rows[i] of
        # power-basis coordinates over the one denominator _ib_den, the
        # least that clears every row; and its inverse
        self._ib_den = ib_den
        self._ib_rows = ib_rows
        self._ib_inv = self._build_ib_inv()
        # integer structure constants over the integral basis, for
        # ib_mul each nonzero c_ijk as (i, j, k, c), and the traces
        # Tr(b_k) = sum_l c_kll of the basis elements
        self.mult_table = self._build_mult_table()
        self._terms = [(i, j, k, c) for i, row in enumerate(self.mult_table)
                       for j, prod in enumerate(row)
                       for k, c in enumerate(prod) if c]
        self.basis_traces = tuple(sum(self.mult_table[k][l][l]
                                      for l in range(n)) for k in range(n))
        self.zero = FieldElement(self, [0] * n)
        self.one = self.from_rational(1)
        self.theta = self.element([0, 1] + [0] * (n - 2)) if n >= 2 else self.one
        self._fund_unit = None
        self._unit_rows = None  # set by ideals._unit_rows
        self._subfields = None  # set by sunits.default_subfields
        self._primes_above = {}  # p -> primes, set by ideals.factor_rational_prime

    def ib_mul(self, u, v):
        """Integral-basis coordinates of the product of two elements given
        by integral-basis coordinates (integers or rationals)."""
        out = [0] * self.degree
        for i, j, k, c in self._terms:
            out[k] += u[i] * v[j] * c
        return out

    def _build_ib_inv(self):
        """Row i holds the integral-basis coordinates of t^i; integers,
        since the integral basis must contain Z[t]: den t^i = c @ H for
        an integer c, H = T @ _ib_rows the basis HNF, and t^i = c @ T."""
        n = self.degree
        H, T, _ = linalg.hnf_with_transform(self._ib_rows)
        if len(H) < n:
            raise DatasheetInvalid("integral basis is singular")
        inv = [linalg.solve_hnf(H, [self._ib_den * (i == j) for j in range(n)])
               for i in range(n)]
        if None in inv:
            raise DatasheetInvalid("integral basis does not contain Z[t]")
        return [linalg.vec_mat(c, T) for c in inv]

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
        if type(q) is int:
            return FieldElement(self, [q] + [0] * (self.degree - 1))
        q = Fraction(q)
        return FieldElement(self, [q.numerator] + [0] * (self.degree - 1),
                            q.denominator)

    def basis_element(self, i):
        return FieldElement(self, [int(i == j) for j in range(self.degree)])

    # -- global data ---------------------------------------------------------

    def trace_gram(self):
        """Tr(b_i b_j) = sum_k c_ijk Tr(b_k)."""
        return [[sum(map(mul, prod, self.basis_traces)) for prod in row]
                for row in self.mult_table]

    def is_quadratic_real(self):
        return self.degree == 2 and self.signature == (2, 0)

    def quadratic_core(self):
        """For degree 2: the squarefree core m of the discriminant D."""
        D = self.field_discriminant
        return D if D % 2 else D // 4

    def omega_minpoly(self):
        """For degree 2: (constant, linear coefficient) of x^2 - r x +
        (r - D) / 4, the minimal polynomial of omega = (r + sqrt D) / 2,
        r = D mod 2 (Cohen, GTM 138, 5.2)."""
        D = self.field_discriminant
        r = D % 2
        return (r - D) // 4, -r

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
            "integral_basis": [self.basis_element(i).serialize()
                               for i in range(self.degree)],
            "tier": self.tier,
            "irreducibility": self.irreducibility,
        }

    def __repr__(self):
        return f"NumberField({list(self.poly)})"


# ---------------------------------------------------------------------------
# Construction.

def _irreducibility_screen(poly, chain):
    """"proved" or "asserted"; raises Reducible when a factor of f = poly,
    of Sturm chain `chain`, is found.  Above degree 3, "proved" means f is
    one simple factor mod some p < 100.  chain[0] = f / gcd(f, f') is
    monic, as f is."""
    n = len(poly) - 1
    if n == 1:
        return "proved"
    if polys.degree(chain[0]) < n:
        g = polys.pdivmod(poly, chain[0])[0]
        raise Reducible(f"square factor detected: gcd with derivative {g}")
    roots = polys.integer_roots(poly, chain)
    if roots:
        raise Reducible(f"integer root {roots[0]}")
    if n <= 3:
        # a reducible monic integer quadratic or cubic has an integer root
        return "proved"
    for p in polys.primes_below(100):
        if polys.is_one_simple_factor_mod_p(list(poly), p):
            return "proved"
    return "asserted"


def _quadratic_integral_data(poly):
    """(den, rows, field_disc) for x^2 + b x + c: the integral basis 1,
    omega as integer power-basis rows over the least denominator."""
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
        # omega = (1 + sqrt(m)) / 2, sqrt(m) = (2 t + b) / f_theta; b has
        # the parity of f_theta, as b^2 = f_theta^2 m mod 4
        return f_theta, [[f_theta, 0], [(f_theta + b) // 2, 1]], m
    # omega = sqrt(m) = (2 t + b) / f_theta, and b^2 - 4 c = f_theta^2 m
    # with m = 2, 3 mod 4 makes f_theta and b even
    return f_theta // 2, [[f_theta // 2, 0], [b // 2, 1]], 4 * m


def create_field(poly, datasheet=None):
    """Build a NumberField from a monic integer polynomial.

    Degree 1 and 2 need no datasheet.  Higher degrees require one, read
    here and nowhere else.  Its integral basis is verified (unit first
    row, contains Z[t], closed under multiplication, nonsingular trace
    Gram with determinant of the right sign).  The Gram is integral
    without a check: integer structure constants make the basis span an
    order, whose elements have integer traces.
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

    chain = polys.sturm_chain(poly)
    irreducibility = _irreducibility_screen(poly, chain)

    bound = polys.root_bound(poly)
    r1 = polys.count_roots_in(chain, -bound, bound)
    if (n - r1) % 2:
        raise InvariantViolated("signature parity")
    sig = (r1, (n - r1) // 2)

    if n == 1:
        den, rows, disc = 1, [[1]], 1
        tier = "automatic"
    elif n == 2:
        den, rows, disc = _quadratic_integral_data(poly)
        tier = "automatic"
    else:
        if datasheet is None:
            raise DatasheetRequired(f"degree {n} needs a datasheet")
        if not (isinstance(datasheet, dict) and "integral_basis" in datasheet):
            raise DatasheetInvalid("datasheet must be an object with an "
                                   "integral_basis")
        extra = set(datasheet) - {"integral_basis", "fundamental_units",
                                  "subfields", "class_orders"}
        if extra:
            raise DatasheetInvalid(f"unknown datasheet keys: {sorted(extra)}")
        basis = [_sheet_row(row, "an integral_basis row", n)
                 for row in _sheet_list(datasheet, "integral_basis")]
        if len(basis) != n or basis[0] != [1] + [0] * (n - 1):
            raise DatasheetInvalid("integral_basis must have one row per "
                                   "degree, the first one 1")
        # cleared once to integer rows over the least common denominator
        den = lcm(*(x.denominator for row in basis for x in row))
        rows = [[x.numerator * (den // x.denominator) for x in row]
                for row in basis]
        disc = None  # computed from the trace Gram below
        tier = "datasheet"

    field = NumberField(poly, den, rows, sig, disc, tier, irreducibility)

    gram_det = linalg.int_det(field.trace_gram())
    if gram_det == 0:
        raise DatasheetInvalid("trace Gram is singular")
    if disc is None:
        field.field_discriminant = gram_det
    elif gram_det != disc:
        raise InvariantViolated("discriminant mismatch between rule and trace Gram")
    if (field.field_discriminant < 0) != (sig[1] % 2 == 1):
        raise DatasheetInvalid("discriminant sign inconsistent with signature")

    if tier == "datasheet":
        _read_sheet(field, datasheet)
    return field


def _sheet_list(ds, key, keys=None):
    """ds[key] or []: a list, of objects with exactly these keys if given."""
    entries = ds.get(key, [])
    if not (isinstance(entries, list) and (keys is None or all(
            isinstance(e, dict) and set(e) == keys for e in entries))):
        raise DatasheetInvalid(f"{key} must be a list" + (
            f" of objects with exactly the keys {sorted(keys)}" if keys else ""))
    return entries


def _sheet_row(v, what, n=None, integers=False):
    """A list of n (any number if n is None) rationals, or of integers."""
    if not (isinstance(v, list) and len(v) == (n or len(v))
            and (not integers or all(type(c) is int for c in v))):
        raise DatasheetInvalid(f"{what} must be a list of {f'{n} ' if n else ''}"
                               f"{'integers' if integers else 'rationals'}")
    return v if integers else [parse_rational(c) for c in v]


def _read_sheet(field, ds):
    """Check the sheet's units, subfields and class orders on the built
    field and keep them as its sheet_ attributes.  An embedding with the
    declared minimal polynomial makes the subfield's degree divide n."""
    n = field.degree
    for raw in _sheet_list(ds, "fundamental_units"):
        u = field.element(_sheet_row(raw, "a fundamental unit", n))
        if not u.is_integral() or abs(u.norm()) != 1:
            raise DatasheetInvalid(f"not a unit: {raw}")
        if u.is_root_of_unity():
            raise DatasheetInvalid(f"unit {raw} has finite order")
        field.sheet_units += (u,)
    expected = field.signature[0] + field.signature[1] - 1
    if len(field.sheet_units) != expected:
        raise DatasheetInvalid(f"expected {expected} fundamental units, "
                               f"got {len(field.sheet_units)}")

    for s in _sheet_list(ds, "subfields", {"poly", "embedding"}):
        sub_poly = _sheet_row(s["poly"], "a subfield poly", integers=True)
        if len(sub_poly) == n + 1:
            raise DatasheetInvalid(f"subfield {sub_poly} has K's degree {n}")
        g = field.element(_sheet_row(s["embedding"], "a subfield embedding", n))
        if list(g.minimal_poly()) != sub_poly:
            raise DatasheetInvalid(
                f"embedding does not satisfy the declared polynomial {sub_poly}")
        field.sheet_subfields += ((create_field(sub_poly), g),)

    orders = field.sheet_class_orders
    for e in _sheet_list(ds, "class_orders", {"ideal", "order", "generator"}):
        hnf = tuple(linalg.hnf([_sheet_row(r, "a class_orders ideal row", n,
                                           integers=True)
                                for r in _sheet_list(e, "ideal")]))
        if len(hnf) != n or hnf in orders:
            raise DatasheetInvalid("each class_orders ideal must have full "
                                   "rank and be listed once")
        gen = field.element(_sheet_row(e["generator"],
                                       "a class_orders generator", n))
        if (type(e["order"]) is not int or e["order"] < 1 or gen.is_zero()
                or not gen.is_integral()):
            raise DatasheetInvalid("a class order must be a positive integer "
                                   "and its generator a nonzero integral element")
        orders[hnf] = (e["order"], gen)


# ---------------------------------------------------------------------------
# Roots of unity, and the fundamental unit of a real quadratic field.

def _torsion_units(field):
    """(order, generator) for the roots of unity.

    A root of unity of order n has degree phi(n), and phi(n) <= 2 only
    for n in {1, 2, 3, 4, 6}; orders 4 and 6 need Q(i) (D = -4) and
    Q(sqrt -3) (D = -3), where omega itself is i and (1 + sqrt -3) / 2.
    Every other field of degree <= 2 has exactly +-1.  Datasheet fields
    get (2, -1) too: a generator of a finite-index subgroup of their
    torsion, which is all the downstream constructions need.
    """
    order = {-4: 4, -3: 6}.get(field.field_discriminant)
    if order is None:
        return 2, -field.one
    return order, field.basis_element(1)


def continued_fraction_step(P, Q, D, r):
    """One step of the continued fraction of xi = (P + sqrt D) / Q, for D
    not a square, r = isqrt(D) and Q dividing D - P^2: (a, P', Q') with
    a = floor(xi) and 1 / (xi - a) = (P' + sqrt D) / Q', Q' again
    dividing D - P'^2.  sqrt D lies strictly between r and r + 1, so a
    is (P + r) // Q for Q > 0 and (P + r + 1) // Q for Q < 0."""
    a = (P + r + (Q < 0)) // Q
    P = a * Q - P
    return a, P, (D - P * P) // Q


def fundamental_unit(field):
    """The fundamental unit of a real quadratic field, normalized > 1.

    One period of the continued fraction of w = (b + sqrt D) / 2, b the
    largest integer below sqrt D with b = D mod 2 (Cohen, GTM 138, 5.7):
    w is reduced, so its expansion is purely periodic, and with q0, q1
    the last two convergent denominators of the period, q1 w + q0 is the
    fundamental unit of Z[w], the maximal order.  The complete quotients
    are (P + sqrt D) / Q; the walk stops when (P, Q) returns to (b, 2).

    q1 is the unit's omega coordinate and at least doubles every two
    steps, so the walk stops with UnitTooLarge after at most about 6,650
    steps, as soon as q1, or at the end the other coordinate, passes
    MAX_UNIT_DIGITS digits.
    """
    if not field.is_quadratic_real():
        raise ValueError("fundamental_unit needs a real quadratic field")
    if field._fund_unit is not None:
        return field._fund_unit
    D = field.field_discriminant
    r = isqrt(D)
    b = r if (r - D) % 2 == 0 else r - 1
    limit = 10 ** MAX_UNIT_DIGITS
    P, Q = b, 2
    q0, q1 = 1, 0
    while True:
        a, P, Q = continued_fraction_step(P, Q, D, r)
        q0, q1 = q1, a * q1 + q0
        if (P, Q) == (b, 2) or q1 >= limit:
            break
    # w = omega + (b - D mod 2) / 2, and b - D mod 2 is even
    coords = (q0 + q1 * (b - D % 2) // 2, q1)
    if max(coords) >= limit:
        raise UnitTooLarge(
            f"the fundamental unit of the field of discriminant {D} has a "
            f"coordinate of more than {MAX_UNIT_DIGITS} digits")
    field._fund_unit = field.from_ib(coords)
    return field._fund_unit


# One Q, the rational subfield of every field of degree > 1.  Its caches
# (the primes above p, each with its class-order witness) fill across
# runs; each cached value depends on p alone.
RATIONALS = create_field([-1, 1])
