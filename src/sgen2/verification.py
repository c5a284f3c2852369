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
    (reduce_triple, once per prime, through the prime's ring map O_K ->
    F_p[x] / (g), ideals.ResidueMap: no ideal HNF and no coset table; the
    residue field keeps only O(q) log, Zech-log, inverse and negation
    lists, built after every cheap filter) and counts the generated
    subgroup of SL2 of the residue field on the projective line: the
    orbit of the point (1 : 0) times its stabilizer, a subgroup of the
    Borel group that Schreier's lemma presents and that is counted as
    torus part times unipotent part; O(q) residue operations per prime.
    The count is compared against the group order q(q^2 - 1).  Each
    report entry still carries bfs_expansions, now generators (with
    inverses) x |image|, so that reports keep their bytes until the
    modp entries change shape.
"""

from .errors import (ConfigInvalid, IdentityFailed, InvariantViolated,
                     NotInLattice, PrimeInS, ResidueFieldTooLarge,
                     VerificationFailure)
from .field import FieldElement, integer_rows
from .generators import m2_eq, m2_inv, m2_mul
from .ideals import factor_rational_prime, residue_maps, valuation
from .linalg import (RatLattice, hnf, hnf_with_transform, solve_hnf, vec_mat,
                     xgcd)
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
    shapes also settle the determinants (det diag(a, a^-1) = det E(x) =
    1) and the non-commutation of psi1 and psi2 (h tau != 0), so neither
    is checked again.  The windows only size the report: its counts are
    the window instances the argument covers.
    """
    triple = shape.triple
    report = {"exponent_identities": 4 + 2 * len(r_range) * len(s_range),
              "r_range": [min(r_range), max(r_range)],
              "s_range": [min(s_range), max(s_range)]}

    if triple.case_info.case == 2:
        field = triple.field
        p1 = triple.psi1.rows
        p2 = triple.psi2.rows

        def ensure(ok, name, instance):
            if not ok:
                raise IdentityFailed(f"identity {name} failed",
                                     instance=instance)

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
    land in stage level + 4 of span, whose triangle stabilized_index
    already built, or VerificationFailure(escapes) is raised."""
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
    """O_K / P = F_p[x] / (g) through P's ring map M (ideals.ResidueMap):
    the elements are M's residues 0, ..., q - 1, the integers sum c_k p^k
    of their coordinates over 1, x, ..., x^(f - 1), and reduce_element is
    M.reduce.  Arithmetic is index arithmetic on the logs to one
    primitive element g, the first residue whose powers reach every
    nonzero element (O(q) products in F_p[x] / (g) find and walk it).
    Only lists of length O(q) are kept: exp and log, the Zech logs Z[k]
    = log(1 + g^k), and the inverse and negation tables.  Then g^i g^j =
    g^(i + j), g^i + g^j = g^(i + Z[j - i]), and -g^i = g^(i + (q - 1)/2)
    for odd q (-x = x when q is even)."""

    def __init__(self, M, bound):
        q = M.residue_size
        if q > bound:
            raise ResidueFieldTooLarge(f"residue field of size {q} > {bound}")
        self.prime = M
        self.q, self.p = q, M.p
        self.reduce_element = M.reduce
        self.zero, self.one = 0, 1
        m = q - 1
        # powers of a rejected candidate are never primitive: skip them
        seen, mul = bytearray(q), M.mul
        for g in range(1, q):
            if seen[g]:
                continue
            exp, x = [1], g
            while x != 1 and len(exp) < q:
                exp.append(x)
                seen[x] = 1
                x = mul(x, g)
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
        p = self.p
        self._zech = [log[x - x % p + (x + 1) % p] for x in exp]
        self.inv_table = [None] + [exp[-li] for li in log[1:]]
        self._exp = exp = exp + exp + [0] * (2 * m + 1)
        half = m // 2 if q % 2 else 0
        self.neg_table = [exp[li + half] for li in log]

    def mul(self, i, j):
        return self._exp[self._log[i] + self._log[j]]

    def add(self, i, j):
        if not (i and j):
            return i or j
        li = self._log[i]
        # a negative difference wraps modulo q - 1
        return self._exp[li + self._zech[self._log[j] - li]]


def reduce_triple(triple, M):
    """The triple's matrices reduced by the ring map M of a prime outside
    S, over a rational prime that no member of S lies over, as 2x2
    tuples of residues."""
    for P in triple.S.finite:
        if P.p == M.p:
            if P.hnf == M.hnf:
                raise PrimeInS(f"{M.p} lies in S")
            raise ConfigInvalid(
                "prime shares its residue characteristic with a member of S")
    return [tuple(tuple(M.reduce(m.entry(i, j)) for j in range(2))
                  for i in range(2)) for m in triple.matrices()]


def _generates(M, residues):
    """Whether the residues generate F_q over F_p, that is, lie together
    in no maximal proper subfield F_(p^(f/r)), r a prime dividing f: the
    fixed field of x -> x^(p^(f/r)).  The residues below p, the prime
    field, lie in every subfield."""
    residues = {v for v in residues if v >= M.p}
    for r in prime_divisors(M.f):
        k = M.p ** (M.f // r)
        if all(M.power(v, k) == v for v in residues):
            return False
    return True


def admissible_primes(shape, count, bound):
    """The first primes where the surjectivity check is meaningful, in
    canonical order, each as the pair (R, mats) that modp_surjectivity
    counts: the residue field R and the triple reduced into it.  The
    walk ends at the first rational prime past bound (ConfigInvalid if
    fewer than count were found).  Each prime is read through its ring
    map (ideals.residue_maps), and R is built only for a prime that
    every requirement admits.

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
        while not is_prime(p) or p in schars or triple.h % p == 0:
            p += 1
        if p > bound:
            # a prime over p has a residue field of size at least p
            raise ConfigInvalid(
                f"not enough admissible primes with residue field size "
                f"up to {bound}")
        for M in residue_maps(field, p, bound):
            if not M.reduce(shape.tau) or M.f > 1 and not M.reduce(num):
                continue
            mats = reduce_triple(triple, M)
            if not _generates(M, [v for m in mats for r in m for v in r]):
                continue
            out.append((ResidueField(M, bound), mats))
            if len(out) == count:
                break
        p += 1
    return out


def _borel_order(R, elements):
    """(|T|, |V|) for the group H generated by elements, pairs (t, c)
    of residue indices standing for ((t, 0), (c, t^-1)) in the lower
    Borel subgroup of SL2(R): T is the image of H under (t, c) -> t and
    V = H cap {E21(c)} its kernel, so |H| = |T| |V|.

    T is cyclic: g^d generates it, with d the gcd of q - 1 and the logs
    of the t read so far, and b* in H is kept with image exactly g^d.
    Conjugation by (t, c) scales E21(x) to E21(t^-2 x), so V is an
    F_p(T^2)-space, spanned by the kernel parts of the generators: b
    b*^-k for each b with t = g^(dk).  When a b grows T, an extended gcd
    over the logs gives b*' = b*^x b^y mapping onto the larger T, and V
    gains the kernel parts of b and of the old b* over b*' (the first
    growth adds b*'^-|T| this way; later ones keep b*'^|T| in the span).
    The elements are read only until T = R^* and V = R, past which
    nothing can grow.
    """
    q, m = R.q, R.q - 1
    mul, add, neg, inv, log = R.mul, R.add, R.neg_table, R.inv_table, R._log
    one, zero = R.one, R.zero

    def bmul(x, y):
        (t, c), (u, e) = x, y
        return mul(t, u), add(mul(c, u), mul(inv[t], e))

    def bpow(x, k):
        if k < 0:
            x, k = (inv[x[0]], neg[x[1]]), -k
        out = (one, zero)
        while k:
            if k & 1:
                out = bmul(out, x)
            x = bmul(x, x)
            k >>= 1
        return out

    # V as a membership mask, its members and an F_p-basis
    span = bytearray(q)
    span[zero] = 1
    members = [zero]
    basis = []

    def grow(x, lam):
        # V + F_p[lam] x: add x, lam x, lam^2 x, ... until one is in V,
        # each as the p - 1 new cosets V + k x of the F_p-space V
        while not span[x]:
            basis.append(x)
            multiples = [x]
            for _ in range(R.p - 2):
                multiples.append(add(multiples[-1], x))
            new = [add(v, w) for w in multiples for v in members]
            for v in new:
                span[v] = 1
            members.extend(new)
            x = mul(x, lam)

    d, bstar, lam = m, (one, zero), one
    for b in elements:
        lt = log[b[0]]
        if lt % d == 0:
            # b*^|T| is in V, so the nearer of k and k - |T| will do
            k = lt // d
            if 2 * k > m // d:
                k -= m // d
            grow(bmul(b, bpow(bstar, -k))[1], lam)
        else:
            g, x, y = xgcd(d, lt)
            grown = bmul(bpow(bstar, x), bpow(b, y))
            rel = (bmul(bstar, bpow(grown, -(d // g))),
                   bmul(b, bpow(grown, -(lt // g))))
            d, bstar = g, grown
            lam = mul(grown[0], grown[0])
            for v in list(basis):
                grow(mul(v, lam), lam)
            for v in rel:
                grow(v[1], lam)
        if d == 1 and len(members) == q:
            break
    return m // d, len(members)


def _m2_mul(R, A, B):
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    mul, add = R.mul, R.add
    return ((add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h))),
            (add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h))))


def _point_map(R, mat):
    """The action of mat on the projective line over R, as the list of
    images of the points (1 : y), indexed by y, and then of (0 : 1),
    with the point (1 : y) written y and (0 : 1) written q:
    (1 : y) mat = (a + y c : b + y d) and (0 : 1) mat = (c : d)."""
    q, m = R.q, R.q - 1
    exp, log, zech = R._exp, R._log, R._zech

    def line(a, c):
        # a + y c for every y, by logs: y c = g^(log y + log c)
        yc = [exp[ly + log[c]] for ly in log]
        if not a:
            return yc
        la = log[a]
        return [exp[la + zech[log[w] - la]] if w else a for w in yc]

    (a, b), (c, d) = mat
    # z / x = g^(log z - log x) for x != 0; a zero z has log 2m
    pts = [exp[log[z] + m - log[x]] if x else q
           for x, z in zip(line(a, c), line(b, d))]
    pts.append(exp[log[d] + m - log[c]] if c else q)
    return pts


def image_order(R, mats):
    """(|orbit|, |stabilizer|) of the row vector (1, 0) under the group G
    generated by mats inside SL2(R); mats are 2x2 tuples of residue
    indices, and the group order is the product of the two.

    G is counted on the projective line: |G| = |orbit of (1 : 0)| |G cap
    B|, with B = {((t, 0), (c, t^-1))} the stabilizer of (1 : 0) in SL2.
    The orbit walk has at most q + 1 points and one O(q) point map per
    generator; it keeps, for each point, the edge that reached it, so
    that a transversal matrix T_P (a product of generators taking
    (1 : 0) to P) is multiplied out only when it is read.  By Schreier's
    lemma G cap B is generated by the T_P s T_Ps^-1 over orbit points P
    and generators s; no inverse generators are needed, because a finite
    group is also generated by its generators as a monoid.  They are
    read lazily in walk order and counted by _borel_order as |T| |V|,
    with V = G cap {E21(c)} the stabilizer of the vector (1, 0), so the
    orbit of that vector has |orbit of (1 : 0)| |T| points.  The work is
    O(q) residue operations, where enumerating G would cost q(q^2 - 1).
    """
    q = R.q
    mul, add, neg = R.mul, R.add, R.neg_table
    maps = [_point_map(R, mat) for mat in mats]

    # edge[u] = (v, s): u is the image of the earlier point v under mats[s]
    start = R.zero
    edge = [None] * (q + 1)
    edge[start] = (start, -1)
    orbit = [start]
    for v in orbit:
        for s, pts in enumerate(maps):
            u = pts[v]
            if edge[u] is None:
                edge[u] = (v, s)
                orbit.append(u)

    trans = [None] * (q + 1)
    trans[start] = ((R.one, R.zero), (R.zero, R.one))

    def transversal(u):
        path = []
        while trans[u] is None:
            path.append(u)
            u = edge[u][0]
        t = trans[u]
        for w in reversed(path):
            t = trans[w] = _m2_mul(R, t, mats[edge[w][1]])
        return t

    def schreier():
        # the (t, c) entries of T_v s T_u^-1, u = v s; tree edges give 1
        for v in orbit:
            for s, pts in enumerate(maps):
                u = pts[v]
                if edge[u] == (v, s):
                    continue
                (x0, x1), (x2, x3) = _m2_mul(R, transversal(v), mats[s])
                (y0, y1), (y2, y3) = transversal(u)
                yield (add(mul(x0, y3), neg[mul(x1, y2)]),
                       add(mul(x2, y3), neg[mul(x3, y2)]))

    torus, unipotent = _borel_order(R, schreier())
    return len(orbit) * torus, unipotent


def modp_surjectivity(R, mats):
    """Count the subgroup that the reduced triple mats (from reduce_triple)
    generates inside SL2 of the residue field R on the projective line
    (image_order: orbit of (1 : 0) times the Borel stabilizer), after
    checking that each matrix has determinant 1, and compare the count
    against the group order q(q^2 - 1).

    bfs_expansions is (number of generators and their inverses) x
    |image|, the count an enumeration of the image expanding each element
    once per generator would make; the key stays so that reports keep
    their bytes until the modp entries change shape.
    """
    q = R.q
    for (a, b), (c, d) in mats:
        if R.add(R.mul(a, d), R.neg_table[R.mul(b, c)]) != R.one:
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
