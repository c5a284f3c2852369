"""Exact linear algebra: integer row lattices and rational solves.

Matrices are lists of row lists.  Lattices are spans of integer rows;
the canonical form is the row Hermite normal form (echelon, positive
pivots, entries above a pivot reduced into [0, pivot)), which is unique
per row span, so equality of spans is equality of forms.

Two eliminations do all the work (Cohen, GTM 138, sections 2.2 and
2.4):

- the integer Hermite elimination, ``_echelon`` behind ``hnf``,
  ``hnf_with_transform`` and ``solve`` (c @ rows = target is read off
  an integer kernel vector of [target; rows]), and ``_insert``, one row
  into a kept triangle, modulo its determinant D once that holds D * Z^n
  (HNF modulo the determinant, section 2.4.2);
- ``int_det``, the fraction-free Bareiss determinant.

Callers hand in integer rows (``field.integer_rows`` clears a list of
field elements to one denominator), so no elimination runs on
``Fraction`` entries.  No lattice is intersected: [A : A cap B] is
[A + B : B] (``RatLattice.sum_index``), A's rows in B's triangle.
``mat_det``, the rational determinant through ``int_det``, has no
caller in ``src/``: the benchmark's tracer still binds it, and it goes
when the tracer reads spans instead (ROADMAP item 4).
"""

from fractions import Fraction
from math import gcd, lcm, prod


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


def _reduce_above(pivoted):
    """Canonical HNF of echelon rows given as (pivot column, row) pairs."""
    result = []
    for col, carrier in pivoted:
        piv = carrier[col]
        for i, row in enumerate(result):
            q = row[col] // piv
            if q:
                result[i] = [x - q * y for x, y in zip(row, carrier)]
        result.append(carrier)
    return result


def _echelon(rows, ncols):
    """Hermite elimination on the first ncols columns of integer rows.

    Columns past ncols are carried along by the same row operations.
    Returns (H, zero): H the rows of the canonical HNF of the first
    ncols columns, each with its carried columns, and zero the rows
    whose first ncols entries were eliminated (all-zero rows dropped).
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    pivoted = []
    for col in range(ncols):
        rest = []
        carrier = None
        for r in work:
            if r[col] == 0:
                rest.append(r)
            elif carrier is None:
                carrier = r
            else:
                g, s, t = xgcd(carrier[col], r[col])
                a, b = carrier[col] // g, r[col] // g
                left = [a * y - b * x for x, y in zip(carrier, r)]
                carrier = [s * x + t * y for x, y in zip(carrier, r)]
                if any(left):
                    rest.append(left)
        if carrier is not None:
            if carrier[col] < 0:
                carrier = [-x for x in carrier]
            pivoted.append((col, carrier))
        work = rest
    return _reduce_above(pivoted), work


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
    """Canonical HNF of the span of the given integer rows (zero rows dropped)."""
    H, _ = _echelon(rows, len(rows[0]) if rows else 0)
    return [tuple(r) for r in H]


def hnf_with_transform(rows):
    """(H, T, kernel): H = canonical HNF, T integer rows with T @ rows = H,
    kernel = basis of {x : x @ rows = 0}."""
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    H, zero = _echelon([list(r) + [int(i == k) for k in range(m)]
                        for i, r in enumerate(rows)], ncols)
    return ([tuple(r[:ncols]) for r in H], [tuple(r[ncols:]) for r in H],
            [tuple(r[ncols:]) for r in zero])


def solve_hnf(H, vec):
    """Integer coefficients over the rows of an HNF matrix, or None."""
    v = list(map(int, vec))
    coeffs = [0] * len(H)
    for i, row in enumerate(H):
        pc = _pivot(row)
        if v[pc] % row[pc]:
            return None
        q = v[pc] // row[pc]
        coeffs[i] = q
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return coeffs if not any(v) else None


def in_lattice(H, vec):
    return solve_hnf(H, vec) is not None


def solve(rows, target):
    """Rational coefficients c with c @ rows = target, or None.

    rows and target are integer.  A kernel vector x of [target; rows]
    with x_0 != 0 gives c = -x[1:] / x_0, and one exists exactly when
    target lies in the rational span of rows.
    """
    _, _, kernel = hnf_with_transform([target] + list(rows))
    x = next((x for x in kernel if x[0]), None)
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
    return [sum(x * row[j] for x, row in zip(v, m)) for j in range(len(m[0]))]


# ---------------------------------------------------------------------------
# Rational lattices: integer row lattices scaled by a common denominator.

class RatLattice:
    """Finitely generated subgroup of Q^n, stored as hnf_rows / den.

    The stored pair is normalized (gcd of den and all entries is 1), so
    equal subgroups have equal representations.
    """

    __slots__ = ("den", "rows", "ncols")

    def __init__(self, den, rows, ncols):
        g = den
        for r in rows:
            for x in r:
                g = gcd(g, x)
        if g > 1:
            den //= g
            rows = [tuple(x // g for x in r) for r in rows]
        self.den = den
        self.rows = tuple(tuple(r) for r in rows)
        self.ncols = ncols

    def _common(self, other):
        if self.ncols != other.ncols:
            raise ValueError("ambient dimension mismatch")
        d = lcm(self.den, other.den)
        f, g = d // self.den, d // other.den
        return ([[f * x for x in r] for r in self.rows],
                [[g * x for x in r] for r in other.rows])

    def extend(self, den, rows):
        """self + span(rows) / den, the integer rows inserted into self's
        triangle over the common denominator."""
        d = lcm(self.den, den)
        f, g = d // self.den, d // den
        tri = [None] * self.ncols
        for r in self.rows:
            tri[_pivot(r)] = [f * x for x in r]
        D = prod(r[c] if r else 0 for c, r in enumerate(tri))
        for r in rows:
            _insert(tri, [g * x for x in r], D)
        return RatLattice(d, _reduce_above(
            [(c, r) for c, r in enumerate(tri) if r is not None]), self.ncols)

    def sum_index(self, other):
        """[self + other : other] = [self : self cap other], or None when
        other has rank below the ambient dimension.  Over the common
        denominator other's triangle has determinant D and holds D * Z^n;
        the index is D over its diagonal with self's rows inserted."""
        if len(other.rows) < self.ncols:
            return None
        a, tri = self._common(other)
        D = prod(r[c] for c, r in enumerate(tri))
        for r in a:
            _insert(tri, r, D)
        return D // prod(r[c] for c, r in enumerate(tri))

    def contains(self, other):
        # over the common denominator self's rows are still an HNF
        a, b = self._common(other)
        return all(in_lattice(a, r) for r in b)

    def __eq__(self, other):
        return (isinstance(other, RatLattice) and self.den == other.den
                and self.rows == other.rows and self.ncols == other.ncols)

    def __hash__(self):
        return hash((self.den, self.rows, self.ncols))

    def __repr__(self):
        return f"RatLattice(1/{self.den} * {[list(r) for r in self.rows]})"
