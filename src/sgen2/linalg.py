"""Exact linear algebra: integer row lattices and rational solves.

Matrices are lists of row lists.  Lattices are spans of integer rows;
the canonical form is the row Hermite normal form (echelon, positive
pivots, entries above a pivot reduced into [0, pivot)), which is unique
per row span, so equality of spans is equality of forms.

Two eliminations do all the work (Cohen, GTM 138, sections 2.2 and
2.4):

- the integer Hermite step ``_insert``, one row into a triangle of
  echelon rows, modulo its determinant D once that holds D * Z^n (HNF
  modulo the determinant, section 2.4.2).  Where a carrier's pivot
  divides the row's entry, the step subtracts that multiple from the
  row and leaves the carrier alone; else a unimodular step puts the gcd
  of the two entries in the carrier.  ``hnf`` folds rows into an empty
  triangle with it and reduces each row above its pivot.  No transform
  is formed: rows with a unit vector carried beside them come out of
  ``hnf`` with their transform (the carried part of the rows with a
  pivot in the leading columns) and the canonical HNF of their
  relations (the rows with a pivot in the carried columns) at once.
  ``remainder`` reduces a vector down echelon rows, each pivot entry
  into [0, pivot): zero exactly on their span, and one vector per coset
  of it.  ``solve`` reads c @ rows = target off the relation of
  [target; rows] with its pivot in the target's column; the integral
  basis inverse and the witness words read coefficients off the
  carried part of one remainder.  A ``RatLattice`` is its kept
  triangle, over one denominator and never reduced above its pivots or
  by its content: ``extend`` copies it and inserts only the new rows,
  modulo D once the triangle has full rank, and ``sum_index`` is the
  ratio of the determinants before and after an ``extend``.  It has no
  canonical form and no ``==``: its readers ask for an index or for
  containment;
- ``int_det``, the fraction-free Bareiss determinant.

Callers hand in integer rows (``field.integer_rows`` clears a list of
field elements to one denominator), so no elimination runs on
``Fraction`` entries.  No lattice is intersected: [A : A cap B] is
[B + A : B] (``B.sum_index(den, rows)``), A's rows in B's triangle.
``mat_det``, the rational determinant through ``int_det``, has no
caller in ``src/``: the benchmark's tracer still binds it, and it goes
when the tracer reads spans instead (ROADMAP item 4).
"""

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul


def xgcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# Hermite normal form.

def _pivot(row):
    for i, x in enumerate(row):
        if x:
            return i
    return None


def _insert(tri, row, mod=0):
    """Fold an integer row into tri (echelon rows by pivot column, None
    where there is none) in place.  With mod > 0, tri is full and holds
    mod * Z^n, so entries past the current column are reduced mod `mod`:
    mod * e_j is a combination of the untouched rows with pivot >= j."""
    if mod:
        row = [x % mod for x in row]
    for col, carrier in enumerate(tri):
        x = row[col]
        if not x:
            continue
        if carrier is None:
            tri[col] = row if x > 0 else [-y for y in row]
            return
        q, r = divmod(x, carrier[col])
        if not r:
            # the carrier's pivot divides x: one subtraction clears it
            # and leaves the carrier as it is
            if mod:
                row = [(y - q * z) % mod for z, y in zip(carrier, row)]
            else:
                row = [y - q * z for z, y in zip(carrier, row)]
            continue
        # s * a + t * b = 1: a unimodular step that leaves the gcd of
        # the two entries at col in the carrier and 0 in the row
        g = gcd(carrier[col], x)
        a, b = carrier[col] // g, x // g
        s = pow(a, -1, abs(b))
        t = (1 - s * a) // b
        if mod:
            tri[col] = [(s * z + t * y) % mod for z, y in zip(carrier, row)]
            row = [(a * y - b * z) % mod for z, y in zip(carrier, row)]
        else:
            tri[col] = [s * z + t * y for z, y in zip(carrier, row)]
            row = [a * y - b * z for z, y in zip(carrier, row)]


def hnf(rows):
    """Canonical HNF of the span of the given integer rows (zero rows
    dropped): the rows folded into one triangle, then each reduced above
    its pivot by the rows below it."""
    tri = [None] * (len(rows[0]) if rows else 0)
    for r in rows:
        _insert(tri, list(map(int, r)))
    result = []
    for col, carrier in enumerate(tri):
        if carrier is None:
            continue
        piv = carrier[col]
        for i, row in enumerate(result):
            q = row[col] // piv
            if q:
                result[i] = [x - q * y for x, y in zip(row, carrier)]
        result.append(carrier)
    return [tuple(r) for r in result]


def remainder(H, vec):
    """vec reduced down the echelon rows H (positive pivots, canonical or
    not): each pivot entry put into [0, pivot).  It is zero exactly when
    vec lies in the span of H, and the same vector for every member of
    vec + span(H)."""
    v = list(vec)
    for row in H:
        c = _pivot(row)
        q = v[c] // row[c]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return v


def in_lattice(H, vec):
    return not any(remainder(H, vec))


def solve(rows, target):
    """Rational coefficients c with c @ rows = target, or None.

    rows and target are integer.  A kernel vector x of [target; rows]
    with x_0 != 0 gives c = -x[1:] / x_0, and one exists exactly when
    target lies in the rational span of rows: then the HNF of [target;
    rows] with the identity carried beside it has a row whose pivot is
    the target's carried column, and its carried part is such an x.
    """
    n, m = len(target), len(rows) + 1
    H = hnf([list(r) + [int(i == k) for k in range(m)]
             for i, r in enumerate([target, *rows])])
    x = next((r[n:] for r in H if _pivot(r) == n), None)
    if x is None:
        return None
    return [Fraction(-v, x[0]) for v in x[1:]]


# ---------------------------------------------------------------------------
# Determinants.

def int_det(mat):
    """Determinant of a square integer matrix (Bareiss)."""
    a = [list(map(int, r)) for r in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def mat_det(mat):
    """Determinant of a square rational matrix, as a Fraction."""
    rows = [[Fraction(x) for x in r] for r in mat]
    dens = [lcm(*(x.denominator for x in r)) for r in rows]
    scaled = [[int(x * d) for x in r] for r, d in zip(rows, dens)]
    return Fraction(int_det(scaled), prod(dens))


# ---------------------------------------------------------------------------
# Matrix products.

def vec_mat(v, m):
    return [sum(map(mul, v, col)) for col in zip(*m)]


# ---------------------------------------------------------------------------
# Rational lattices: integer row lattices scaled by a common denominator.

class RatLattice:
    """Finitely generated subgroup of Q^n, kept as its triangle: tri[c]
    the integer echelon row over den whose pivot is column c (None where
    no row has it) and D the product of the diagonal, 0 below full rank.

    The triangle is one basis of the subgroup, neither reduced above its
    pivots nor normalized by content, so rows only ever go in.  It has no
    canonical form and no ==: its readers ask for indices and containment.
    """

    __slots__ = ("den", "tri", "D")

    def __init__(self, den, rows, ncols):
        """span(rows) / den, the rows inserted into an empty triangle."""
        self.den, self.tri, self.D = den, [None] * ncols, 0
        self._fold(rows, 1)

    def _fold(self, rows, g):
        """Insert g * r for each r into tri, modulo D once it has full
        rank: D * Z^n then lies in the span."""
        tri = self.tri
        for r in rows:
            _insert(tri, [g * x for x in r], self.D)
            if None not in tri:
                self.D = prod(r[c] for c, r in enumerate(tri))

    def extend(self, den, rows):
        """self + span(rows) / den: self's triangle copied over the common
        denominator, with only the new rows inserted."""
        d = lcm(self.den, den)
        f, n = d // self.den, len(self.tri)
        out = RatLattice(d, (), n)
        out.tri = [r if f == 1 or r is None else [f * x for x in r]
                   for r in self.tri]
        out.D = self.D * f ** n
        out._fold(rows, d // den)
        return out

    def sum_index(self, den, rows):
        """[self + span(rows) / den : self], or None below full rank: over
        the common denominator, self's determinant over that of self
        extended by the rows."""
        if not self.D:
            return None
        out = self.extend(den, rows)
        return self.D * (out.den // self.den) ** len(self.tri) // out.D

    def contains(self, den, rows):
        """Whether span(rows) / den lies in self: over the common
        denominator each row reduces to zero down the triangle."""
        d = lcm(self.den, den)
        f, g = d // self.den, d // den
        H = [[f * x for x in r] for r in self.tri if r is not None]
        return all(in_lattice(H, [g * x for x in r]) for r in rows)
