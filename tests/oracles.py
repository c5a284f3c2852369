"""Independent cross-checks used to freeze expected values in the tests.

The ring-index oracle builds Lambda_k from power-basis products and
computes [Lambda_k : M cap Lambda_k] as [Lambda_k + M : M] (second
isomorphism), via the Smith invariant factors (computed here, by the
oracle's own elimination) of M's coordinates over the sum lattice,
with a Bareiss determinant cross-check.  The library builds its levels
by structure constants and divides the Hermite pivot products of M and
of the sum, so the two share only the HNF of the sum.  Two spans are
equal (same_span) when they and their sum have the same Smith
invariants; the library's lattices have no equality of their own.

The matrix-group oracle counts |SL2| over tiny fields by direct
enumeration of quadruples, and finds the subgroup that reduced matrices
generate inside SL2 of a residue field by walking all of its elements
breadth first, where the library counts it on the projective line by
orbit and Borel stabilizer.  Its residue arithmetic is a q x q table
built pair by pair from coset representatives below the prime's own
HNF (residue_tables), where the library reduces through the ring map
O_K -> F_p[x] / (g), walks the powers of a primitive element and adds by
Zech logs.

The principal-ideal oracle walks a coordinate box that holds a
generator of every principal quadratic ideal point by point, taking a
Fraction determinant norm at each, where the library reduces binary
quadratic forms and, for a real field, descends along eps^2.  The box
of a real field needs the fundamental unit, which the oracle finds by
trying y = 1, 2, ... until D y^2 +- 4 is a square, where the library
walks a continued fraction.

The class-order oracle multiplies a prime by itself with the ideal
product and asks the same box, solved row by row (one isqrt per row
where the walk takes a determinant per point; the two agree on every
small box), for a generator of each power, where the library composes
reduced binary quadratic forms.  The valuation oracle climbs the same
ideal powers and tests membership with its own Gauss-Jordan solve,
where the library reads each valuation it needs off a class-order
witness and, for a subfield's S-units, the lying-over table.

The identity oracle multiplies the triple's defining identities out
over exponent windows, with 2x2 products of power-basis coordinates,
where the library proves them for every exponent from the matrices'
shapes.

The irreducibility oracle decides whether a polynomial is irreducible
mod p by trial division by every monic polynomial of degree up to half
its own, where the library reads the answer off its Cantor-Zassenhaus
factorization.

The power-basis oracle does field arithmetic on Fraction coordinates in
1, t, ..., t^(n-1), reducing products by f term by term, where the
library keeps integer integral-basis numerators and multiplies by
structure constants.  It reads an element in the power basis itself
(pb_coords: its numerators times the field's integer basis rows, over
both denominators).  Everything above that needs field products takes
them from it.  Inverses, norms, minimal polynomials and the change to
integral-basis coordinates go through the oracle's own Gauss-Jordan
elimination over Q (gauss_jordan), where the library solves through
the integer Hermite form and takes norms by Bareiss determinants.  Of
sgen2.linalg the oracle uses only hnf and int_det, for the ring-index
union lattice and its determinant cross-check; it reads coordinates
over that lattice by its own back-substitution (hnf_coords).
"""

from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt

from sgen2 import linalg
from sgen2.sunits import s_unit_basis


def snf_invariants(mat):
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix."""
    a = [list(map(int, r)) for r in mat]
    a = [r for r in a if any(r)]
    if not a:
        return []
    diag = []
    while a and any(any(r) for r in a):
        # move a minimal nonzero entry to (0, 0)
        best = None
        for i, r in enumerate(a):
            for j, x in enumerate(r):
                if x and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        i0, j0 = best
        a[0], a[i0] = a[i0], a[0]
        for r in a:
            r[0], r[j0] = r[j0], r[0]
        # clear row and column; restart if a remainder shrinks the pivot
        dirty = True
        while dirty:
            dirty = False
            piv = a[0][0]
            for i in range(1, len(a)):
                if a[i][0]:
                    q = a[i][0] // piv
                    a[i] = [x - q * y for x, y in zip(a[i], a[0])]
                    if a[i][0]:
                        a[0], a[i] = a[i], a[0]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(1, len(a[0])):
                if a[0][j]:
                    q = a[0][j] // piv
                    for r in a:
                        r[j] -= q * r[0]
                    if a[0][j]:
                        for r in a:
                            r[0], r[j] = r[j], r[0]
                        dirty = True
                        break
        diag.append(abs(a[0][0]))
        a = [r[1:] for r in a[1:]]
        a = [r for r in a if any(r)]
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            if diag[i + 1] % diag[i]:
                g = gcd(diag[i], diag[i + 1])
                diag[i], diag[i + 1] = g, diag[i] * diag[i + 1] // g
                changed = True
    return diag


def same_span(a, b):
    """Whether two (den, integer rows) pairs span one subgroup of Q^n.
    Over a common denominator A and B lie in A + B, and a sublattice of
    the same rank and the same Smith invariants is the whole lattice, so
    A = B exactly when A, B and A + B stacked have equal invariants."""
    (da, ra), (db, rb) = a, b
    d = da * db // gcd(da, db)
    A = [[x * (d // da) for x in r] for r in ra]
    B = [[x * (d // db) for x in r] for r in rb]
    return snf_invariants(A) == snf_invariants(A + B) == snf_invariants(B)


def level_rows(field, sbasis, k):
    """Integral-basis rows of B^-k w_i, B the product of the S-generators
    and w_i the integral basis: generators of Lambda_k, by power-basis
    products, where the library multiplies by structure constants."""
    b = pb_one(field)
    for g in sbasis.s_gens:
        b = pb_mul(field, b, pb_coords(g))
    scale = pb_pow(field, pb_inverse(field, b), k)
    return [pb_to_ib(field, pb_mul(field, scale, row))
            for row in pb_basis(field)]


def hnf_coords(H, vec):
    """Integer coefficients c with c @ H = vec over the rows of an HNF,
    by back-substitution down the pivots, or None."""
    v, coeffs = list(vec), []
    for row in H:
        piv = next(j for j, x in enumerate(row) if x)
        q, r = divmod(v[piv], row[piv])
        if r:
            return None
        coeffs.append(q)
        v = [x - q * y for x, y in zip(v, row)]
    return coeffs if not any(v) else None


def coset_index(field, sbasis, gens, k):
    """[Lambda_k : span(gens) cap Lambda_k] or None if infinite; gens are
    power-basis coordinate vectors."""
    lam = level_rows(field, sbasis, k)
    grows = [pb_to_ib(field, g) for g in gens]
    den = 1
    for r in lam + grows:
        for x in r:
            den = den * x.denominator // gcd(den, x.denominator)
    lam_i = [[int(x * den) for x in r] for r in lam]
    g_i = [[int(x * den) for x in r] for r in grows]
    union = linalg.hnf(lam_i + g_i)
    coords = []
    for r in g_i:
        c = hnf_coords(union, r)
        assert c is not None
        coords.append(c)
    n = len(union)
    inv = snf_invariants(coords)
    inv = [v for v in inv if v]
    if len(inv) < n:
        return None
    idx = 1
    for v in inv:
        idx *= v
    # cross-check: the index is also |det| of any n independent coord rows
    square = linalg.hnf(coords)
    if len(square) == n:
        assert abs(linalg.int_det(square)) == idx
    return idx


def zalpha_levels(field, S, alpha, n, kmax, extra_gens=()):
    """Per-level indices [Lambda_k : M_J cap Lambda_k] with J = k + 2,
    computed entirely through the oracle route."""
    sbasis = s_unit_basis(field, S)
    a = pb_pow(field, pb_coords(alpha), n)
    extra = [pb_coords(g) for g in extra_gens]
    out = []
    for k in range(kmax + 1):
        pows = [pb_one(field)]
        for _ in range(k + 2):
            pows.append(pb_mul(field, pows[-1], a))
        gens = list(pows)
        for g in extra:
            gens.extend(pb_mul(field, g, p) for p in pows)
        out.append(coset_index(field, sbasis, gens, k))
    return out


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination over Q.

def gauss_jordan(mat, ncols):
    """Gauss-Jordan elimination over Q on the first ncols columns.

    Columns past ncols are carried along.  Returns (rows, pivots, det):
    the reduced rows; the pivot column of each of the first len(pivots)
    rows, the remaining rows being zero on the first ncols columns; and
    the product of the pivots, signed by the row swaps, which is the
    determinant of a square matrix of full rank.
    """
    a = [[Fraction(x) for x in r] for r in mat]
    pivots = []
    det = Fraction(1)
    for col in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            det = -det
        det *= a[row][col]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for i in range(len(a)):
            if i != row and a[i][col]:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[row])]
        pivots.append(col)
    return a, pivots, det


def gj_inverse(mat):
    """Inverse of a square rational matrix, or None if singular."""
    n = len(mat)
    a, pivots, _ = gauss_jordan([list(r) + [int(i == j) for j in range(n)]
                                 for i, r in enumerate(mat)], n)
    return [r[n:] for r in a] if len(pivots) == n else None


def gj_det(mat):
    """Determinant of a square rational matrix."""
    _, pivots, det = gauss_jordan(mat, len(mat))
    return det if len(pivots) == len(mat) else Fraction(0)


def gj_solve(rows, target):
    """Rational coefficients c with sum c_i rows_i = target, or None;
    free coefficients are 0."""
    m = len(rows)
    # solve rows^T c = target by elimination on the augmented transpose
    a, pivots, _ = gauss_jordan([[r[j] for r in rows] + [t]
                                 for j, t in enumerate(target)], m)
    if any(r[m] for r in a[len(pivots):]):
        return None
    out = [Fraction(0)] * m
    for r, col in zip(a, pivots):
        out[col] = r[m]
    return out


# ---------------------------------------------------------------------------
# Field arithmetic in the power basis.

def _pb_reduction(field):
    """Power-basis coordinates of t^n, ..., t^(2n-2), by f."""
    n = field.degree
    red = [[-Fraction(c) for c in field.poly[:-1]]]
    for _ in range(n - 2):
        prev = red[-1]
        nxt = [Fraction(0)] + prev[:-1]
        red.append([a + prev[-1] * b for a, b in zip(nxt, red[0])])
    return red


def pb_one(field):
    return [Fraction(1)] + [Fraction(0)] * (field.degree - 1)


def pb_mul(field, a, b):
    """Product of two power-basis coordinate vectors: the polynomial
    product, with t^(n+k) replaced term by term."""
    n = field.degree
    conv = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            x = Fraction(x)
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    out, high = conv[:n], conv[n:]
    if any(high):
        for c, row in zip(high, _pb_reduction(field)):
            if c:
                out = [o + c * r for o, r in zip(out, row)]
    return out


def pb_mult_matrix(field, a):
    """Rows are the power-basis coordinates of a * t^i."""
    rows = [[Fraction(x) for x in a]]
    t = [Fraction(int(i == 1)) for i in range(field.degree)]
    for _ in range(field.degree - 1):
        rows.append(pb_mul(field, rows[-1], t))
    return rows


def pb_inverse(field, a):
    """y with y * a = 1: the first row of the inverse multiplication
    matrix (Gauss-Jordan over Q)."""
    inv = gj_inverse(pb_mult_matrix(field, a))
    assert inv is not None, "zero has no inverse"
    return list(inv[0])


def pb_pow(field, a, e):
    out = pb_one(field)
    for _ in range(e):
        out = pb_mul(field, out, a)
    return out


def pb_norm(field, a):
    return gj_det(pb_mult_matrix(field, a))


def pb_trace(field, a):
    m = pb_mult_matrix(field, a)
    return sum(m[i][i] for i in range(field.degree))


def pb_minimal_poly(field, a):
    """The first linear dependence among 1, a, a^2, ... (monic, constant
    coefficient first)."""
    powers = [pb_one(field)]
    while True:
        cur = pb_mul(field, powers[-1], a)
        c = gj_solve(powers, cur)
        if c is not None:
            return tuple([-x for x in c] + [Fraction(1)])
        powers.append(cur)


def pb_basis(field):
    """The integral basis b_i as Fraction power-basis rows, read off the
    field's integer rows over their one denominator."""
    return [[Fraction(x, field._ib_den) for x in row]
            for row in field._ib_rows]


def pb_coords(x):
    """Power-basis coordinates of a field element, sum_i (num_i / den)
    b_i: the oracle's own view of the library's integral-basis
    numerators."""
    basis = pb_basis(x.field)
    return [sum(Fraction(c, x.den) * row[j] for c, row in zip(x.num, basis))
            for j in range(x.field.degree)]


def pb_to_ib(field, a):
    """Integral-basis coordinates of a power-basis coordinate vector."""
    inv = gj_inverse(pb_basis(field))
    n = field.degree
    return [sum(Fraction(x) * inv[i][j] for i, x in enumerate(a))
            for j in range(n)]


# ---------------------------------------------------------------------------
# The triple's identities multiplied out over exponent windows.

def _pm_mul(field, x, y):
    """Product of 2x2 matrices of power-basis coordinate vectors."""
    def dot(p, q, r, s):
        return [u + v for u, v in zip(pb_mul(field, p, q), pb_mul(field, r, s))]
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((dot(a, e, b, g), dot(a, f, b, h)),
            (dot(c, e, d, g), dot(c, f, d, h)))


def _pm_det(field, x):
    (a, b), (c, d) = x
    return [u - v for u, v in zip(pb_mul(field, a, d), pb_mul(field, b, c))]


def _pm_inv(field, x):
    (a, b), (c, d) = x
    inv = pb_inverse(field, _pm_det(field, x))
    return ((pb_mul(field, d, inv), pb_mul(field, [-v for v in b], inv)),
            (pb_mul(field, [-v for v in c], inv), pb_mul(field, a, inv)))


def _pm_conj(field, A, x):
    return _pm_mul(field, A, _pm_mul(field, x, _pm_inv(field, A)))


def pm_rows(rows):
    """A 2x2 matrix over K, given as rows of field elements, with each
    entry read through pb_coords."""
    return tuple(tuple(pb_coords(x) for x in row) for row in rows)


def pm_pow(field, m, k):
    """m^k by repeated squaring of m, or of its inverse when k < 0."""
    one, zero = pb_one(field), [Fraction(0)] * field.degree
    out = ((one, zero), (zero, one))
    base = m if k >= 0 else _pm_inv(field, m)
    k = abs(k)
    while k:
        if k & 1:
            out = _pm_mul(field, out, base)
        base = _pm_mul(field, base, base)
        k >>= 1
    return out


def identity_windows(triple, r_range, s_range, n_range):
    """The (identity, instance) pairs of the triple's defining identities
    that fail inside the windows, [] when all hold: the determinants,
    the non-commutation of psi1 and psi2, gamma^r psi^s gamma^-r for
    every (r, s), and in case 2 the CM identities for every s and the N
    identities for every N, each multiplied out with power-basis
    products.  a = alpha^h and tau (h, or h sqrt(-d) in case 2) come
    from the certificate; the matrices' entries are read only through
    pb_coords."""
    field = triple.field
    n = field.degree
    one = pb_one(field)
    zero = [Fraction(0)] * n

    def scale(c, v):
        return [Fraction(c) * x for x in v]

    def e21(x):
        return ((one, zero), (x, one))

    def e12(x):
        return ((one, x), (zero, one))

    def power(base, inverse, k):
        return pb_pow(field, base if k >= 0 else inverse, abs(k))

    g, p1, p2 = (pm_rows(m.rows) for m in triple.matrices())
    h = scale(triple.h, one)
    a = pb_pow(field, pb_coords(triple.alpha_in_K), triple.h)
    a_inv = pb_inverse(field, a)
    case2 = triple.case_info.case == 2
    if case2:
        delta = pb_coords(triple.case_info.cm.sqrt_minus_d)
        tau = scale(triple.h, delta)
    else:
        tau = h
    failed = []

    def check(ok, name, instance):
        if not ok:
            failed.append((name, instance))

    for m, name in ((g, "gamma"), (p1, "psi1"), (p2, "psi2")):
        check(_pm_det(field, m) == one, "determinant", {"matrix": name})
    check(_pm_mul(field, p1, p2) != _pm_mul(field, p2, p1),
          "non-commutation", {"matrices": ["psi1", "psi2"]})
    p1_pows = {s: pm_pow(field, p1, s) for s in s_range}
    p2_pows = {s: pm_pow(field, p2, s) for s in s_range}
    for r in r_range:
        gr, grm = pm_pow(field, g, r), pm_pow(field, g, -r)
        a2r = power(a, a_inv, 2 * r)
        a2r_inv = power(a, a_inv, -2 * r)
        for s in s_range:
            lhs = _pm_mul(field, gr, _pm_mul(field, p1_pows[s], grm))
            check(lhs == e21(scale(s, pb_mul(field, h, a2r_inv))),
                  "gamma^r psi1^s gamma^-r", {"r": r, "s": s})
            lhs = _pm_mul(field, gr, _pm_mul(field, p2_pows[s], grm))
            check(lhs == e12(scale(s, pb_mul(field, tau, a2r))),
                  "gamma^r psi2^s gamma^-r", {"r": r, "s": s})
    if not case2:
        return failed

    t = pb_inverse(field, tau)
    u = e21(t)
    w = ((one, t), (zero, pb_inverse(field, delta)))
    # h^2 d with d = -sqrt(-d)^2
    h2d = scale(-triple.h * triple.h, pb_mul(field, delta, delta))
    for s in s_range:
        x = scale(s, h)
        c = pb_mul(field, h2d, x)
        check(_pm_conj(field, p2, e21(x)) == _pm_conj(field, u, e12(c)),
              "psi2 E21 psi2^-1 = u E12 u^-1", {"s": s})
        check(_pm_conj(field, p1, e12(pb_mul(field, x, delta)))
              == _pm_conj(field, w, e21(c)),
              "psi1 E12 psi1^-1 = w E21 w^-1", {"s": s})
    h_inv = pb_inverse(field, h)
    for N in n_range:
        gN, gNm = pm_pow(field, g, N), pm_pow(field, g, -N)
        one_minus = [x - y for x, y in zip(one, power(a, a_inv, 2 * N))]
        lhs = _pm_mul(field, u, _pm_mul(field, gNm,
                                        _pm_mul(field, _pm_inv(field, u), gN)))
        check(lhs == e21(pb_mul(field, one_minus, t)),
              "u gamma^-N u^-1 gamma^N", {"N": N})
        lhs = _pm_mul(field, w, _pm_mul(field, gN,
                                        _pm_mul(field, _pm_inv(field, w), gNm)))
        check(lhs == e12(pb_mul(field, one_minus, h_inv)),
              "w gamma^N w^-1 gamma^-N", {"N": N})
    return failed


# ---------------------------------------------------------------------------
# |SL2| over tiny fields by raw enumeration.

def sl2_order_prime(p):
    count = 0
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p == 1:
                        count += 1
    return count


def _gf_elements(p, red):
    """Pairs (x, y) = x + y*t in F_p[t]/(t^2 + red[1] t + red[0])."""
    return [(x, y) for x in range(p) for y in range(p)]


def _gf_mul(u, v, p, red):
    x1, y1 = u
    x2, y2 = v
    c0 = x1 * x2
    c1 = x1 * y2 + y1 * x2
    c2 = y1 * y2
    # reduce t^2 = -red[1] t - red[0]
    c1 -= c2 * red[1]
    c0 -= c2 * red[0]
    return (c0 % p, c1 % p)


def _gf_sub(u, v, p):
    return ((u[0] - v[0]) % p, (u[1] - v[1]) % p)


def sl2_order_quadratic(p, red):
    """|SL2(F_{p^2})| with the field presented by t^2 + red[1] t + red[0]."""
    els = _gf_elements(p, red)
    one = (1, 0)
    count = 0
    for a in els:
        for b in els:
            for c in els:
                for d in els:
                    det = _gf_sub(_gf_mul(a, d, p, red), _gf_mul(b, c, p, red), p)
                    if det == one:
                        count += 1
    return count


def residue_tables(R, P):
    """mul, add, inv and neg of the residue field R = O_K / P built the
    direct way, indexed by R's residues: the coset representatives below
    the Hermite rows of P (linalg.hnf of its generators p and pi times
    the integral basis), one ib_mul and one reduction per pair.

    Raises AssertionError unless R.reduce sends P's rows to zero and the
    representatives one to one onto 0, ..., q - 1, and carries their sum
    and product to R.add and R.mul: then R's arithmetic is that of
    O_K / P.
    """
    k = P.field
    n = k.degree
    p, pi = P.two_element
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    rows = linalg.hnf([[p * x for x in e] for e in unit]
                      + [k.ib_mul(pi.num, e) for e in unit])
    reps = [()]
    for i in range(n):
        reps = [r + (v,) for r in reps for v in range(rows[i][i])]
    index = {r: i for i, r in enumerate(reps)}
    image = [R.reduce(k.from_ib(r)) for r in reps]

    def coset(vec):
        # R's index of the coset of vec
        v = list(vec)
        for i in range(n):
            f = v[i] // rows[i][i]
            if f:
                for j in range(i, n):
                    v[j] -= f * rows[i][j]
        return image[index[tuple(v)]]

    if (sorted(image) != list(range(R.q))
            or any(R.reduce(k.from_ib(r)) != R.reduce(k.zero)
                   for r in rows)):
        raise AssertionError(f"R.reduce is not O_K / P at {P!r}")
    q, one = R.q, R.reduce(k.one)
    mul = [[None] * q for _ in range(q)]
    add = [[None] * q for _ in range(q)]
    inv = [None] * q
    for i, a in enumerate(reps):
        x = image[i]
        for j in range(i, q):
            b = reps[j]
            y = image[j]
            mul[x][y] = mul[y][x] = coset(k.ib_mul(a, b))
            add[x][y] = add[y][x] = coset([s + t for s, t in zip(a, b)])
            if (mul[x][y], add[x][y]) != (R.mul(x, y), R.add(x, y)):
                raise AssertionError(f"R's arithmetic is not O_K / P at "
                                     f"{P!r}: {x}, {y}")
            if mul[x][y] == one:
                inv[x], inv[y] = y, x
    neg = [None] * q
    for i, a in enumerate(reps):
        neg[image[i]] = coset([-c for c in a])
    return mul, add, inv, neg


def sl2_image_bfs(R, P, mats):
    """(reached, expansions): the order of the subgroup that mats (2x2
    tuples of indices of the residue field R = O_K / P) generate inside
    SL2(R), found by a breadth-first walk over its elements that expands
    each element once per generator and inverse.  The arithmetic comes
    from residue_tables, not from the library's log tables."""
    q = R.q
    mul, add, _, neg = residue_tables(R, P)
    inv_mats = []
    for (a, b), (c, d) in mats:
        inv_mats.append(((d, neg[b]), (neg[c], a)))

    row_maps = []
    for (ma, mb), (mc, md) in mats + inv_mats:
        tab = [0] * (q * q)
        for x in range(q):
            xa = mul[x][ma]
            xb = mul[x][mb]
            for y in range(q):
                nx = add[xa][mul[y][mc]]
                ny = add[xb][mul[y][md]]
                tab[x * q + y] = nx * q + ny
        row_maps.append(tab)

    q2 = q * q
    one, zero = R.reduce(P.field.one), R.reduce(P.field.zero)
    start = (one * q + zero) * q2 + (zero * q + one)
    seen = {start}
    frontier = deque([start])
    expansions = 0
    while frontier:
        state = frontier.popleft()
        r0, r1 = divmod(state, q2)
        for tab in row_maps:
            nxt = tab[r0] * q2 + tab[r1]
            expansions += 1
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen), expansions


# ---------------------------------------------------------------------------
# Principal generators of quadratic ideals by walking the whole box.

@lru_cache(maxsize=None)
def fundamental_unit_brute(D, ymax):
    """(x, y) with (x + y sqrt D) / 2 the fundamental unit of the real
    quadratic field of discriminant D: the smallest y >= 1 for which
    D y^2 - 4 or D y^2 + 4 is a square x^2 (the smaller x first).  None
    when no y <= ymax qualifies."""
    for y in range(1, ymax + 1):
        for t in (D * y * y - 4, D * y * y + 4):
            x = isqrt(t)
            if x * x == t:
                return x, y
    return None


def principal_box(ideal):
    """(xmax, ymax) of the box 0 <= x <= xmax, |y| <= ymax that the
    oracle walks; it holds a generator of every principal ideal."""
    field = ideal.field
    N = ideal.norm
    D = field.field_discriminant
    m = D if D % 2 else D // 4
    if m < 0:
        am = -m
        if field.field_discriminant % 2:  # omega = (1 + sqrt m)/2
            ymax = isqrt(4 * N // am)
        else:
            ymax = isqrt(N // am)
        xmax = isqrt(N) + ymax + 1
    else:
        x, y = fundamental_unit_brute(D, 10 ** 6)
        # |theta| <= (|b| + sqrt(disc of the defining poly)) / 2, the
        # square root taken from above within 10^-6
        b, c = field.poly[1], field.poly[0]
        scale = 10 ** 6
        theta_up = (abs(b) + Fraction(isqrt((b * b - 4 * c) * scale * scale)
                                      + 1, scale)) / 2
        # sqrt D = (2 theta + b) / k with k^2 = (b^2 - 4c) / D, so the
        # unit (x + y sqrt D) / 2 is e0 + e1 theta
        k = isqrt((b * b - 4 * c) // D)
        e0, e1 = Fraction(x * k + y * b, 2 * k), Fraction(y, k)
        bound = abs(e0) + abs(e1) * theta_up
        B = 4 * (isqrt(int(N * bound) + 1) + 1)
        xmax = B
        ymax = B // isqrt(m) + 1
    return xmax, ymax


def principal_generator_box(ideal):
    """The first element of norm +-N in the ideal, visiting the box in
    the order x ascending, then |y| ascending, y before -y; None if the
    box holds none."""
    field = ideal.field
    N = ideal.norm
    xmax, ymax = principal_box(ideal)
    for x in range(xmax + 1):
        for y in range(ymax + 1):
            for xx, yy in ((x, y), (x, -y)) if x and y else ((x, y),):
                el = field.from_ib((xx, yy))
                if abs(pb_norm(field, pb_coords(el))) != N:
                    continue
                if ideal.contains(el):
                    return el
    return None


def principal_generator_rows(ideal):
    """principal_generator_box's answer, found row by row: for each y
    with |y| <= ymax, the x of N(x + y w) = x^2 + t x y + s y^2 = +-N (t
    = Tr w, s = N(w)) are the integer roots of a quadratic, one isqrt
    per row and sign, so a box of about N points costs about sqrt(N)
    steps.  The first element in the box's visiting order is the least
    by (x, |y|, y < 0), and x = 0 is visited with y >= 0 only."""
    field = ideal.field
    N = ideal.norm
    D = field.field_discriminant
    t = D % 2
    s = (t - D) // 4
    xmax, ymax = principal_box(ideal)
    found = []
    for y in range(-ymax, ymax + 1):
        for n in (N, -N):
            disc = t * t * y * y - 4 * (s * y * y - n)
            r = isqrt(disc) if disc >= 0 else -1
            if r * r != disc:
                continue
            for twice_x in {r - t * y, -r - t * y}:
                x = twice_x // 2
                if (twice_x % 2 == 0 and 0 <= x <= xmax
                        and (x or y >= 0)
                        and ideal.contains(field.from_ib((x, y)))):
                    found.append((x, abs(y), y < 0, y))
    if not found:
        return None
    x, _, _, y = min(found)
    return field.from_ib((x, y))


def class_order_box(prime, bound):
    """(a, generator) for the least a <= bound for which the box finds a
    generator of prime^a, each power the last times the prime by
    IntegralIdeal products; None past the bound."""
    power = prime
    for a in range(1, bound + 1):
        gen = principal_generator_rows(power)
        if gen is not None:
            return a, gen
        power = power * prime
    return None


# ---------------------------------------------------------------------------
# Valuations by the prime-power membership ladder.

def valuation_ladder(x, prime):
    """v_P(x): the largest k with the numerator of x in P^k, each power
    the last times P by IntegralIdeal products and membership read off
    the oracle's own Gauss-Jordan solve, minus e v_p(den)."""
    p, d, vp_den = prime.p, x.den, 0
    while d % p == 0:
        d //= p
        vp_den += 1
    k, power = 0, prime
    while all(c.denominator == 1
              for c in gj_solve([list(r) for r in power.hnf], list(x.num))):
        k += 1
        power = power * prime
    return k - prime.e * vp_den


# ---------------------------------------------------------------------------
# Irreducibility mod p by trial division.

def irreducible_mod_p(f, p):
    """True iff the nonconstant integer polynomial f is irreducible over
    F_p: no monic polynomial of degree 1 to n/2 leaves remainder zero
    (n the degree of f mod p)."""
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    n = len(f) - 1
    if n < 1:
        return False
    for d in range(1, n // 2 + 1):
        for low in product(range(p), repeat=d):
            g = list(low) + [1]
            rem = list(f)
            for k in range(n - d, -1, -1):
                c = rem[k + d]
                if c:
                    for i, b in enumerate(g):
                        rem[k + i] = (rem[k + i] - c * b) % p
            if not any(rem):
                return False
    return True
