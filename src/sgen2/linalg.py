"""Exact linear algebra: integer row lattices and rational solves.

Matrices are lists of row lists.  Lattices are spans of integer rows;
the canonical form is the row Hermite normal form (echelon, positive
pivots, entries above a pivot reduced into [0, pivot)), which is unique
per row span, so equality of spans is equality of forms.

Two eliminations do all the work (Cohen, GTM 138, sections 2.2 and
2.4):

- ``_echelon``, the integer Hermite elimination behind ``hnf``,
  ``hnf_with_transform`` and everything built on them, ``solve``
  included: a rational solution of c @ rows = target is read off an
  integer kernel vector of [target; rows];
- ``int_det``, the fraction-free Bareiss determinant.

Callers hand in integer rows (``field.integer_rows`` clears a list of
field elements to one denominator), so no elimination runs on
``Fraction`` entries.  No lattice is intersected: an index
[A : A cap B] is [A + B : B] (``RatLattice.sum_index``), one HNF of the
stacked rows.  ``mat_det``, the rational determinant through
``int_det``, has no caller in ``src/``: the benchmark's tracer still
binds it, and it goes when the tracer reads spans instead (ROADMAP
item 4).
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


def _echelon(rows, ncols):
    """Hermite elimination on the first ncols columns of integer rows.

    Columns past ncols are carried along by the same row operations.
    Returns (H, zero): H the rows of the canonical HNF of the first
    ncols columns, each with its carried columns, and zero the rows
    whose first ncols entries were eliminated (all-zero rows dropped).
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    result = []
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
            piv = carrier[col]
            if piv < 0:
                carrier, piv = [-x for x in carrier], -piv
            # reduce the entries above the new pivot into [0, pivot)
            for i, row in enumerate(result):
                q = row[col] // piv
                if q:
                    result[i] = [x - q * y for x, y in zip(row, carrier)]
            result.append(carrier)
        work = rest
    return result, work


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


def lattice_index_hnf(H1, H2):
    """[span H1 : span H2] for HNF inputs.

    Returns a positive int, the string "infinite" on a rank drop, or
    None when H2 is not contained in H1.  A contained lattice of equal
    rank has the same pivot columns, so the index is the ratio of the
    pivot products.
    """
    if any(solve_hnf(H1, row) is None for row in H2):
        return None
    if len(H2) < len(H1):
        return "infinite"
    return (prod(r[_pivot(r)] for r in H2)
            // prod(r[_pivot(r)] for r in H1))


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
        d = self.den * other.den // gcd(self.den, other.den)
        a = [[x * (d // self.den) for x in r] for r in self.rows]
        b = [[x * (d // other.den) for x in r] for r in other.rows]
        return a, b

    def sum_index(self, other):
        """[self + other : other], or None when other has rank below the
        ambient dimension.

        By the second isomorphism theorem this is [self : self cap
        other], so no intersection is formed: the rows of other, over
        the common denominator, stay an HNF, and their pivot product
        over that of the HNF of the stacked rows is the index.
        """
        if len(other.rows) < self.ncols:
            return None
        a, b = self._common(other)
        return lattice_index_hnf(hnf(a + b), b)

    def contains(self, other):
        a, b = self._common(other)
        ha = hnf(a)
        return all(in_lattice(ha, r) for r in b)

    def __eq__(self, other):
        return (isinstance(other, RatLattice) and self.den == other.den
                and self.rows == other.rows and self.ncols == other.ncols)

    def __hash__(self):
        return hash((self.den, self.rows, self.ncols))

    def __repr__(self):
        return f"RatLattice(1/{self.den} * {[list(r) for r in self.rows]})"
