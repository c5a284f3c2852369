"""Exact verification of the generating triple.

run_verification proves the triple's shape once (prove_shape).  The
Shape is the only input of the checks below, so none of them can run on
an unproved triple.  Four checks, each falsifiable on its own:

  * identity_suite derives the conjugation identities for every
    exponent from the proved shapes, and checks each Bruhat-style
    rewriting identity of the CM case as one matrix equation over K.
  * ideal_ladder recomputes the ring indices behind the elementary
    subgroup argument on the levels of the S-unit basis, the ones the
    alpha certificate's index table read in case 1, and checks the
    Lagrange containments they imply.
  * elementary_witness writes a requested elementary matrix as an
    explicit word in the triple and evaluates the word exactly through
    the proved shapes.
  * modp_surjectivity takes the triple reduced modulo an admissible prime
    (reduce_triple, once per prime) and counts the generated subgroup of
    SL2 of the residue field as the orbit of the row vector (1, 0) times
    its stabilizer, which Schreier's lemma presents as an additive
    subgroup of the residue field; O(q^2) table lookups per prime.  The
    count is compared against the group order q(q^2 - 1).  Each report
    entry still carries bfs_expansions, now generators (with inverses) x
    |image|, so that reports keep their bytes until the modp entries
    change shape.
"""

from math import gcd

from .errors import (ConfigInvalid, IdentityFailed, InvariantViolated,
                     NotInLattice, PrimeInS, ResidueFieldTooLarge,
                     VerificationFailure)
from .field import FieldElement, integer_rows
from .generators import m2_det, m2_eq, m2_inv, m2_mul
from .ideals import factor_rational_prime, valuation
from .linalg import RatLattice, hnf, hnf_with_transform, solve_hnf, vec_mat
from .polys import is_prime, prime_divisors
from .sunits import (PowerSpan, contract_prime_set, s_unit_basis,
                     stabilized_index)

# Work bounds: the orders N of a^2 that the case-2 ladder tries, and the
# stages J of the witness module searched for a word.
N_BOUND = 24
J_BOUND = 16

# The verify section of a config when it sets nothing: mod-P checks at
# the first `primes` admissible primes with residue field size up to
# q_bound, identity windows r and s (as [lo, hi], sizing the report
# only), and the number of elementary witnesses.
VERIFY_DEFAULTS = {
    "primes": 10,
    "q_bound": 100,
    "r": [-5, 5],
    "s": [-5, 5],
    "witness_samples": 10,
}


# ---------------------------------------------------------------------------
# Matrix identities.

def _e21(field, x):
    return ((field.one, field.zero), (x, field.one))


def _e12(field, x):
    return ((field.one, x), (field.zero, field.one))


class Shape:
    """A triple with the shapes prove_shape checked: h, tau, a2 = a^2 and
    the witness modules lower (spanned by h a^2j) and upper (tau a^2j).
    Only prove_shape builds one."""

    __slots__ = ("triple", "h", "a2", "tau", "lower", "upper")

    def __init__(self, triple, h, a2, tau):
        self.triple = triple
        self.h = h
        self.a2 = a2
        self.tau = tau
        self.lower = PowerSpan(a2, h)
        self.upper = PowerSpan(a2, tau)


def prove_shape(triple):
    """The Shape of triple, once alpha_in_K is the certificate's alpha
    (in case 2 its image in K), gamma = diag(a, a^-1) with a = alpha^h,
    psi1 = E21(h) and psi2 = E12(tau), tau = h (case 1) or h sqrt(-d)
    (case 2), are checked exactly: the one place that ties the triple to
    the certificate.  IdentityFailed names alpha_in_K or the first part
    of another shape."""
    field = triple.field
    h = field.from_rational(triple.h)
    alpha = triple.alpha_cert.alpha
    tau = h
    if triple.case_info.case == 2:
        alpha = triple.case_info.case2_subfield.map_element(alpha)
        tau = h * triple.case_info.cm.sqrt_minus_d
    if triple.alpha_in_K != alpha:
        raise IdentityFailed("alpha_in_K is not the certificate's alpha",
                             instance={"alpha": "alpha_in_K"})
    a = alpha ** triple.h
    shapes = {"gamma": ((a, field.zero), (field.zero, a.inverse())),
              "psi1": _e21(field, h), "psi2": _e12(field, tau)}
    for name, mat in zip(shapes, triple.matrices()):
        if not m2_eq(mat.rows, shapes[name]):
            raise IdentityFailed(f"{name} does not have the constructed "
                                 f"shape", instance={"matrix": name})
    return Shape(triple, h, a * a, tau)


def identity_suite(shape, r_range, s_range, n_range):
    """Prove every defining identity of the proved triple for all
    exponents; raises IdentityFailed with the offending instance.

    With the shapes prove_shape checked, gamma^r psi1^s gamma^-r =
    E21(h s a^-2r) and gamma^r psi2^s gamma^-r = E12(tau s a^2r) for all
    r and s.  In case 2, with t = 1/tau, u = E21(t) and w = diag(1,
    sqrt(-d)^-1) E12(t), u gamma^-N u^-1 gamma^N = E21((1 - a^2N) t) and
    w gamma^N w^-1 gamma^-N = E12((1 - a^2N) / h) for all N, as gamma is
    diagonal.  A CM identity A E(x) A^-1 = B E'(c x) B^-1 is I + x (a
    fixed matrix) on both sides, so it is checked once, at x = h.  The
    windows only size the report: its counts are the window instances
    the argument covers.
    """
    triple = shape.triple
    field = triple.field
    p1 = triple.psi1.rows
    p2 = triple.psi2.rows

    def ensure(ok, name, instance):
        if not ok:
            raise IdentityFailed(f"identity {name} failed", instance=instance)

    for mat, name in zip(triple.matrices(), ("gamma", "psi1", "psi2")):
        ensure(m2_det(mat.rows) == field.one, "determinant", {"matrix": name})
    ensure(not m2_eq(m2_mul(p1, p2), m2_mul(p2, p1)), "non-commutation",
           {"matrices": ["psi1", "psi2"]})
    report = {"exponent_identities": 4 + 2 * len(r_range) * len(s_range),
              "r_range": [min(r_range), max(r_range)],
              "s_range": [min(s_range), max(s_range)]}

    if triple.case_info.case == 2:
        # at x = h, h^2 d x = -tau^2 h
        h, tau = shape.h, shape.tau
        t = tau.inverse()
        u = _e21(field, t)
        w = ((field.one, t),
             (field.zero, triple.case_info.cm.sqrt_minus_d.inverse()))
        c = -(tau * tau * h)

        def conj(A, x):
            return m2_mul(A, m2_mul(x, m2_inv(A)))

        ensure(m2_eq(conj(p2, _e21(field, h)), conj(u, _e12(field, c))),
               "psi2 E21 psi2^-1 = u E12 u^-1", {"s": 1})
        ensure(m2_eq(conj(p1, _e12(field, tau)), conj(w, _e21(field, c))),
               "psi1 E12 psi1^-1 = w E21 w^-1", {"s": 1})
        report["cm_identities"] = 2 * len(s_range) + 2 * len(n_range)
        report["n_values"] = sorted(n_range)

    report["passed"] = True
    return report


# ---------------------------------------------------------------------------
# Ring indices behind the elementary subgroup argument.

def _checked_index(sbasis, span, escapes):
    """(index, level, per-level values but None) of stabilized_index,
    with the Lagrange containment rechecked: index * Lambda_level must
    land in stage level + 4 of span, which stabilized_index already
    built, or VerificationFailure(escapes) is raised."""
    index, level, seq = stabilized_index(sbasis, span)
    lam = sbasis.level(level)
    scaled = RatLattice(lam.den, [[index * x for x in r] for r in lam.rows],
                        lam.ncols)
    if not span.lattice(level + 4).contains(scaled):
        raise VerificationFailure(escapes)
    return index, level, [v for v in seq if v is not None]


def _in_s_integers(field, S, x):
    """Exact membership of x in the ring of S-integers: every prime of
    the denominator outside S must see a nonnegative valuation."""
    for p in prime_divisors(x.den):
        for q in factor_rational_prime(field, p):
            if not S.contains(q) and valuation(x, q) < 0:
                return False
    return True


def ideal_ladder(shape, n_select):
    """The index data for the elementary subgroup argument on the proved
    triple.

    Case 1: m = [O_S : h Z[a^2]] with a = alpha^h, giving the O_S-ideal
    (m) inside h Z[a^2].  Case 2 additionally works on the F side (m and
    the order N of a^2 modulo m) and extends the K-side ring by
    sqrt(-d), giving q_ideal = (M).  Every index is a stabilized
    filtration limit (stabilized_index over the levels of the S-unit
    basis) and the Lagrange containment is rechecked on a stage the
    index search already built.

    n_select is either "search" (try N = 1, ..., N_BOUND and keep the
    first that works) or an explicit positive integer to test alone.
    The case 2 report records every N tried.
    """
    triple = shape.triple
    h = triple.h
    sbasis = triple.case_info.sbasis

    if triple.case_info.case == 1:
        # h Z[a^2] is the lower witness module
        m, lvl, seq = _checked_index(sbasis, shape.lower,
                                     "m * Lambda_k escapes h Z[a^2]")
        return {
            "case": 1,
            "m": m,
            "m_level": lvl,
            "m_per_level": seq,
            "a_ideal": {"generator": str(m), "meaning": "m * O_S"},
            "containment_checked": True,
        }

    field = triple.field
    cm = triple.case_info.cm
    Fd = triple.case_info.case2_subfield
    F = Fd.subfield
    SF = contract_prime_set(triple.S, Fd)
    sbF = s_unit_basis(F, SF)
    aF2 = triple.alpha_cert.alpha ** (2 * h)
    hF = F.from_rational(h)
    mF, lvlF, seqF = _checked_index(sbF, PowerSpan(aF2, hF),
                                    "m * Lambda_k escapes h Z[a^2] over F")
    # order of a^2 modulo m O_{S(F)}: h (a^{2N} - 1) must fall inside
    if n_select == "search":
        candidates = range(1, N_BOUND + 1)
    else:
        candidates = [int(n_select)]
    big_n = None
    tried = []
    for N in candidates:
        tried.append(N)
        z = (aF2 ** N - F.one) * hF
        y = FieldElement(F, z.num, z.den * mF)
        if _in_s_integers(F, SF, y):
            big_n = N
            break
    if big_n is None:
        raise VerificationFailure(
            f"no N in {tried} with h (a^{{2N}} - 1) in m O_S(F)")
    scale_K = shape.h ** 3 * cm.d_in_K * field.from_rational(mF)
    M, lvlK, seqK = _checked_index(
        sbasis, PowerSpan(shape.a2, scale_K, extra=(cm.sqrt_minus_d,)),
        "M * Lambda_k escapes the extended ring")
    return {
        "case": 2,
        "m": mF,
        "m_level": lvlF,
        "m_per_level": seqF,
        "a_ideal": {"generator": str(mF), "meaning": "m * O_S(F)"},
        "N": big_n,
        "N_tried": tried,
        "b_ideal": {"scale": f"h^2 d m = {h * h} * d * {mF}",
                    "meaning": "h^2 d m * O_S(F)"},
        "M": M,
        "M_level": lvlK,
        "M_per_level": seqK,
        "q_ideal": {"generator": str(M), "meaning": "M * O_S"},
        "containment_checked": True,
    }


# ---------------------------------------------------------------------------
# Explicit words for elementary matrices.

class Witness:
    __slots__ = ("side", "target", "word", "stage")

    def __init__(self, side, target, word, stage):
        self.side = side
        self.target = target
        self.word = word
        self.stage = stage

    def serialize(self):
        return {"side": self.side, "target": self.target.serialize(),
                "stage": self.stage,
                "word": [{"conjugator_power": j, "psi_exponent": c}
                         for j, c in self.word]}


def _canonical_coeffs(kernel, sol):
    """Reduce a solution modulo the relation kernel of the generator
    rows so that the trailing coefficients are the small canonical
    digits (only the j = 0 coefficient is left unbounded)."""
    out = list(reversed(sol))
    for row in hnf([list(reversed(v)) for v in kernel]):
        j = next(i for i, v in enumerate(row) if v)
        q = out[j] // row[j]
        if q:
            out = [o - q * r for o, r in zip(out, row)]
    return list(reversed(out))


def elementary_witness(shape, x, side):
    """A word in gamma and psi producing E21(x) (side "lower") or
    E12(x) (side "upper"), verified by exact evaluation.

    E21(x) needs x in shape.lower, the Z-span of h a^{2j}; gamma^-j
    psi1^c gamma^j contributes c h a^{2j}.  The upper side runs on tau
    a^{2j} with conjugator powers of the opposite sign.  Raises
    NotInLattice when x is outside every stage up to J_BOUND.

    The word is evaluated through the proved shapes rather than by
    multiplying matrices: gamma = diag(a, a^-1) gives gamma^j E21(y)
    gamma^-j = E21(a^-2j y) and gamma^j E12(y) gamma^-j = E12(a^2j y),
    and E(u) E(v) = E(u + v), so the word is E(sum of c scale a^(2|j|))
    and is exact when that sum is x.
    """
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    span = getattr(shape, side)
    for J in range(J_BOUND + 1):
        _, int_rows = integer_rows(span.elements(J) + [x])
        H, T, kernel = hnf_with_transform(int_rows[:-1])
        y = solve_hnf(H, int_rows[-1])
        if y is not None:
            coeffs = _canonical_coeffs(kernel, vec_mat(y, T))
            break
    else:
        raise NotInLattice(
            f"target entry is outside stage {J_BOUND} of the witness module")

    total = sum((g * c for g, c in zip(span.elements(J), coeffs)),
                shape.triple.field.zero)
    if total != x:
        raise VerificationFailure("witness word does not evaluate to the target")
    sign = -1 if side == "lower" else 1
    return Witness(side, x, [(sign * j, c) for j, c in enumerate(coeffs) if c],
                   J)


# ---------------------------------------------------------------------------
# Surjectivity modulo admissible primes.

class ResidueField:
    """O_K / P as explicit tables, elements indexed by canonical coset
    representatives below the Hermite rows of P.  The tables are index
    arithmetic on the logs to one primitive element g, the first
    representative whose powers reach every nonzero element (O(q)
    products in O_K find and walk it): g^i g^j = g^(i + j), -g^i =
    g^(i + (q - 1)/2) for odd q, and with the Zech logs
    Z[k] = log(1 + g^k), g^i + g^j = g^(i + Z[j - i])."""

    def __init__(self, field, prime, bound):
        q = prime.residue_size
        if q > bound:
            raise ResidueFieldTooLarge(f"residue field of size {q} > {bound}")
        self.field = field
        self.prime = prime
        self.q = q
        self.p = prime.p
        self._rows = rows = [list(r) for r in prime.hnf]
        reps = [()]
        for i in range(field.degree):
            reps = [r + (v,) for r in reps for v in range(rows[i][i])]
        if len(reps) != q:
            raise InvariantViolated("coset representatives do not match |O_K/P|")
        self.reps = reps
        self._index = {r: i for i, r in enumerate(reps)}
        self.zero = 0  # the zero tuple is the first representative
        self.one = one = self.reduce_ints(field.one.num)
        m = q - 1
        # powers of a rejected candidate are never primitive: skip them
        seen = bytearray(q)
        for g in range(1, q):
            if seen[g]:
                continue
            exp, x = [one], g
            while x != one and len(exp) < q:
                exp.append(x)
                seen[x] = 1
                x = self.reduce_ints(field.ib_mul(reps[x], reps[g]))
            if len(exp) == m:
                break
        else:
            raise InvariantViolated("O_K/P has no primitive element")
        # the zero has log 2m, and exp2 reads 0 at every k >= 2m
        self._log = log = [2 * m] * q
        for k, x in enumerate(exp):
            log[x] = k
        exp2 = exp + exp + [0] * m
        zech = [log[self.reduce_ints(map(sum, zip(reps[x], reps[one])))]
                for x in exp]
        logs = log[1:]
        self.mul_table = [[0] * q] + [[0] + [exp2[li + lj] for lj in logs]
                                      for li in logs]
        # zech[lj - li] wraps a negative difference modulo m
        self.add_table = [list(range(q))] + [
            [i] + [exp2[li + zech[lj - li]] for lj in logs]
            for i, li in enumerate(logs, 1)]
        self.inv_table = [None] + [exp[-li] for li in logs]
        half = m // 2 if q % 2 else 0
        self.neg_table = [0] + [exp2[li + half] for li in logs]

    def reduce_ints(self, vec):
        v = list(vec)
        n = len(v)
        for i in range(n):
            f = v[i] // self._rows[i][i]
            if f:
                for j in range(i, n):
                    v[j] -= f * self._rows[i][j]
        return self._index[tuple(v)]

    def reduce_element(self, x):
        if gcd(x.den, self.p) != 1:
            raise ConfigInvalid(
                "element denominator shares the residue characteristic")
        i_num = self.reduce_ints(x.num)
        i_den = self.reduce_ints([x.den] + [0] * (self.field.degree - 1))
        return self.mul_table[i_num][self.inv_table[i_den]]

    def element_degree(self, i):
        """Degree over the prime field: the least e with x^(p^e) = x,
        that is, with p^e = 1 modulo the multiplicative order of x."""
        m = self.q - 1
        order = m // gcd(self._log[i], m)
        return next(e for e in range(1, self.prime.f + 1)
                    if (self.p ** e - 1) % order == 0)


def reduce_triple(triple, prime, bound):
    """(R, mats): the residue field R = O_K / prime, of size at most
    bound, and the triple's matrices reduced into it as 2x2 tuples of
    residue indices.  The prime must lie outside S and over a rational
    prime that no member of S lies over."""
    if triple.S.contains(prime):
        raise PrimeInS(f"{prime.p} lies in S")
    for P in triple.S.finite:
        if P.p == prime.p:
            raise ConfigInvalid(
                "prime shares its residue characteristic with a member of S")
    R = ResidueField(triple.field, prime, bound)
    mats = [tuple(tuple(R.reduce_element(m.entry(i, j)) for j in range(2))
                  for i in range(2)) for m in triple.matrices()]
    return R, mats


def admissible_primes(shape, count, bound):
    """The first primes where the surjectivity check is meaningful, in
    canonical order, each as the pair (R, mats) of reduce_triple that
    modp_surjectivity counts.  The walk ends at the first rational prime
    past bound (ConfigInvalid if fewer than count were found).

    Requirements: residue field size <= bound; rational characteristic
    away from S (so reduction never divides by zero); both psi entries
    nonzero mod P; the reduced entries of the triple generating the full
    residue field (entries of every word stay inside the subfield they
    generate, so anything less can never be onto); and, over a non-prime
    residue field, a non-central reduced gamma.  Over the prime field
    two opposite nontrivial unipotents already generate everything, but
    when f >= 2 a central gamma freezes the conjugation orbits and the
    image genuinely drops (finite index notwithstanding), so such primes
    say nothing about the construction.
    """
    triple = shape.triple
    field = triple.field
    schars = {P.p for P in triple.S.finite}
    x = shape.a2 - field.one
    num = x * x.den
    out = []
    p = 2
    while len(out) < count:
        while not is_prime(p) or p in schars:
            p += 1
        if p > bound:
            # a prime over p has a residue field of size at least p
            raise ConfigInvalid(
                f"not enough admissible primes with residue field size "
                f"up to {bound}")
        for P in factor_rational_prime(field, p):
            if P.residue_size > bound:
                continue
            if triple.h % p == 0 or P.contains(shape.tau):
                continue
            if P.f > 1 and P.contains(num):
                continue
            R, mats = reduce_triple(triple, P, bound)
            deg = 1
            for e in (R.element_degree(v) for m in mats for r in m for v in r):
                deg = deg * e // gcd(deg, e)
            if deg != P.f:
                continue
            out.append((R, mats))
            if len(out) == count:
                break
        p += 1
    return out


def image_order(R, mats):
    """(|orbit|, |stabilizer|) of the row vector (1, 0) under the group
    generated by mats inside SL2(R); mats are 2x2 tuples of residue
    indices, and the group order is the product of the two.

    The orbit walk keeps, for each orbit point v, the second row of a
    transversal matrix T_v (a product of generators with first row v).
    By Schreier's lemma the stabilizer of (1, 0) is generated by the
    T_v s T_{vs}^-1 over orbit points v and generators s.  Each has
    first row (1, 0) and determinant 1, so it is E21(c) and the
    stabilizer is the additive subgroup of R spanned by these c.  The
    walk needs no inverse generators, because a finite group is also
    generated by its generators as a monoid.  The orbit walk always runs
    to the end; the Schreier generators are read only until their span
    is all of R, which no stabilizer can exceed, so both counts stay
    exact.  The work is O(q^2) table lookups, where enumerating the
    group would cost q(q^2 - 1).
    """
    q = R.q
    mul = R.mul_table
    add = R.add_table
    neg = R.neg_table
    # (x, y) s = (x a + y c, x b + y d), built one row x at a time over
    # the pairs (y c, y d), which depend on the generator alone
    row_maps = []
    for (ma, mb), (mc, md) in mats:
        cols = list(zip([m[mc] for m in mul], [m[md] for m in mul]))
        tab = []
        for m in mul:
            xa = add[m[ma]]
            xb = add[m[mb]]
            tab += [xa[yc] * q + xb[yd] for yc, yd in cols]
        row_maps.append(tab)

    # second[v] is the second row of T_v, or -1 off the orbit so far
    start = R.one * q + R.zero
    second = [-1] * (q * q)
    second[start] = R.zero * q + R.one
    frontier = [start]
    for v in frontier:
        w = second[v]
        for tab in row_maps:
            u = tab[v]
            if second[u] < 0:
                second[u] = tab[w]
                frontier.append(u)

    # T_v s has rows (vs, x) and T_{vs} has rows (vs, y); the second row
    # of T_v s T_{vs}^-1 is (x0 y1 - x1 y0, 1).  An additive subgroup H
    # of R is an F_p-space, so H + <c> is the union of the cosets H + k c
    # for k < p; once H is all of R no Schreier generator can add to it.
    stab = {R.zero}
    for v in frontier:
        if len(stab) == q:
            break
        w = second[v]
        for tab in row_maps:
            x0, x1 = divmod(tab[w], q)
            y0, y1 = divmod(second[tab[v]], q)
            c = add[mul[x0][y1]][neg[mul[x1][y0]]]
            if c not in stab:
                coset = stab
                for _ in range(R.p - 1):
                    coset = {add[x][c] for x in coset}
                    stab = stab | coset
    return len(frontier), len(stab)


def modp_surjectivity(R, mats):
    """Count the subgroup that the reduced triple mats (from reduce_triple)
    generates inside SL2 of the residue field R by orbit and stabilizer
    (image_order), comparing against the group order q(q^2 - 1).

    bfs_expansions is (number of generators and their inverses) x
    |image|, the count an enumeration of the image expanding each element
    once per generator would make; the key stays so that reports keep
    their bytes until the modp entries change shape.
    """
    q = R.q
    for (a, b), (c, d) in mats:
        det = R.add_table[R.mul_table[a][d]][R.neg_table[R.mul_table[b][c]]]
        if det != R.one:
            raise VerificationFailure("reduced matrix leaves SL2")
    orbit, stabilizer = image_order(R, mats)
    reached = orbit * stabilizer
    order = q * (q * q - 1)
    return {
        "p": R.p,
        "f": R.prime.f,
        "q": q,
        "reached": reached,
        "group_order": order,
        "passed": reached == order,
        "bfs_expansions": 2 * len(mats) * reached,
    }


# ---------------------------------------------------------------------------
# Orchestration.

def run_verification(triple, verify, seed, n_select):
    """Prove the triple's shape once and run every check on it; raises
    on the first failure, otherwise returns the combined report.

    verify is a config's validated verify section (VERIFY_DEFAULTS
    updated by the config): the identity windows r and s as [lo, hi]
    (sizing the report only), the number of mod-P primes and their bound
    q_bound, and the number of witness_samples, drawn with the seed.
    n_select is as for ideal_ladder.

    The N identities hold for every N, so the ladder's N needs no
    recheck; n_values lists it only so that reports keep their bytes.
    """
    import random
    shape = prove_shape(triple)
    report = {}
    report["ladder"] = ideal_ladder(shape, n_select)
    n_range = range(1, 6)
    if triple.case_info.case == 2:
        n_range = sorted(set(n_range) | {report["ladder"]["N"]})
    r_lo, r_hi = verify["r"]
    s_lo, s_hi = verify["s"]
    report["identities"] = identity_suite(shape, range(r_lo, r_hi + 1),
                                          range(s_lo, s_hi + 1), n_range)

    rng = random.Random(seed)
    witnesses = []
    for side in ("lower", "upper"):
        span = getattr(shape, side)
        for _ in range(verify["witness_samples"] // 2):
            pows = span.elements(rng.randrange(1, 4) - 1)
            x = sum((g * rng.randrange(-3, 4) for g in pows),
                    triple.field.zero)
            if x.is_zero():
                x = pows[0]
            witnesses.append(elementary_witness(shape, x, side).serialize())
    report["witnesses"] = {"count": len(witnesses), "items": witnesses}

    modp = []
    for R, mats in admissible_primes(shape, verify["primes"],
                                     verify["q_bound"]):
        res = modp_surjectivity(R, mats)
        modp.append(res)
        if not res["passed"]:
            raise VerificationFailure(
                f"reduction mod the prime over {R.p} (q = {res['q']}) is "
                f"not surjective: {res['reached']} of {res['group_order']}")
    report["modp"] = modp
    report["passed"] = True
    return report
