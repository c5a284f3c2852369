"""Exact verification of the generating triple.

run_verification proves the triple's shape once (prove_shape).  The
Shape is the only input of what follows, so nothing below can run on an
unproved triple.  identity_suite derives every conjugation identity (in
case 2 also both Bruhat-style rewritings, entrywise in h and sqrt(-d))
from the proved shapes, so no 2x2 matrix over K is multiplied.  Three
checks, each falsifiable on its own:

  * ideal_ladder asks the S-unit basis for the ring indices behind the
    elementary subgroup argument (SUnitBasis.span, PowerSpan.index,
    which finds each once and rechecks its Lagrange containment), so a
    span the alpha certificate's index table already read is not read
    again; in case 2 S(F) is the one classification contracted.
  * elementary_witness writes a requested elementary matrix as an
    explicit word in the triple and evaluates the word exactly through
    the proved shapes, solving against the presentation that the span
    keeps for each stage (one HNF per span and stage, not per word).
  * modp_surjectivity takes the triple reduced modulo a prime
    (reduce_triple, once per prime, through the prime's ring map O_K ->
    F_p[x] / (g), ideals.ResidueMap, which is also the residue field: no
    ideal HNF and no coset table, only the map's O(q) log, Zech-log,
    inverse and negation lists) and counts the generated
    subgroup of SL2 of the residue field on the projective line: the
    orbit of the point (1 : 0) times its stabilizer, a subgroup of the
    Borel group that Schreier's lemma presents and that is counted as
    torus part times unipotent part; O(q) residue operations per prime.
    The count is compared against the group order q(q^2 - 1).  Each
    report entry still carries bfs_expansions, now generators (with
    inverses) x |image|, so that reports keep their bytes until the
    modp entries change shape.  admissible_primes, the walk that reports
    primes, counts each walked prime once; in case 1 that count decides
    the prime under the rule P not dividing the ladder's m: reported if
    onto, skipped with a stderr line if P | m, VerificationFailure else.
"""

import sys
from math import lcm

from .errors import (ConfigInvalid, IdentityFailed, NotInLattice, PrimeInS,
                     VerificationFailure)
from .field import FieldElement
from .generators import e12, e21
from .ideals import residue_maps
from .linalg import solve_hnf, vec_mat, xgcd
from .polys import is_prime

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

class Shape:
    """A triple with the shapes prove_shape checked: h, tau, a2 = a^2 and
    the witness modules lower (spanned by h a^2j) and upper (tau a^2j),
    the S-unit basis's spans, one object in case 1 (tau = h).  Only
    prove_shape builds one."""

    __slots__ = ("triple", "h", "a2", "tau", "lower", "upper")

    def __init__(self, triple, h, a2, tau):
        self.triple = triple
        self.h = h
        self.a2 = a2
        self.tau = tau
        self.lower = triple.case_info.sbasis.span(a2, h)
        self.upper = triple.case_info.sbasis.span(a2, tau)


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
        alpha = triple.case_info.case2.F.map_element(alpha)
        tau = h * triple.case_info.cm.sqrt_minus_d
    if triple.alpha_in_K != alpha:
        raise IdentityFailed("alpha_in_K is not the certificate's alpha",
                             instance={"alpha": "alpha_in_K"})
    a = alpha ** triple.h
    shapes = {"gamma": ((a, field.zero), (field.zero, a.inverse())),
              "psi1": e21(field, h), "psi2": e12(field, tau)}
    for name, mat in zip(shapes, triple.matrices()):
        if mat.rows != shapes[name]:
            raise IdentityFailed(f"{name} does not have the constructed "
                                 f"shape", instance={"matrix": name})
    return Shape(triple, h, a * a, tau)


def identity_suite(shape, r_range, s_range, n_range):
    """Every defining identity of the proved triple, for all exponents;
    the windows only size the report, and no check is left to fail.

    With the shapes prove_shape checked, gamma^r psi1^s gamma^-r =
    E21(h s a^-2r) and gamma^r psi2^s gamma^-r = E12(tau s a^2r) for all
    r and s.  In case 2, tau = h sigma, sigma = sqrt(-d); with t = 1/tau
    and c = -tau^2 h, both CM identities hold entrywise for every
    nonzero h and sigma:

        E12(tau) E21(h) E12(tau)^-1 = [[1 + tau h, -tau^2 h], [h, 1 - tau h]]
                                    = u E12(c) u^-1, u = E21(t);
        E21(h) E12(tau) E21(h)^-1 = [[1 - h tau, tau], [-h^2 tau, 1 + h tau]]
                                  = w E21(c) w^-1, w = diag(1, 1/sigma) E12(t).

    As gamma is diagonal, u gamma^-N u^-1 gamma^N = E21((1 - a^2N) t) and
    w gamma^N w^-1 gamma^-N = E12((1 - a^2N) / h) for all N.  The shapes
    also settle the determinants (det diag(a, a^-1) = det E(x) = 1) and
    the non-commutation of psi1 and psi2 (h tau != 0).  So no matrix is
    multiplied here; tests/oracles.identity_windows multiplies the
    window instances out as the reference.
    """
    report = {"exponent_identities": 4 + 2 * len(r_range) * len(s_range),
              "r_range": [min(r_range), max(r_range)],
              "s_range": [min(s_range), max(s_range)]}
    if shape.triple.case_info.case == 2:
        report["cm_identities"] = 2 * len(s_range) + 2 * len(n_range)
        report["n_values"] = sorted(n_range)
    report["passed"] = True
    return report


# ---------------------------------------------------------------------------
# Ring indices behind the elementary subgroup argument.

def _in_s_integers(sbasis, x):
    """Exact membership of x in the ring of S-integers.

    class_order proved (beta_i) = P_i^{a_i} with a_i >= 1, so B = prod
    beta_i (SUnitBasis.product) has v_P(B) >= 1 at every P in S and
    v_Q(B) = 0 elsewhere.  As x.den x is integral, v_P(x) >= -e_P
    v_p(x.den) at P over p.  So x is an S-integer exactly when x B^K is
    integral, K the largest e_P v_p(x.den) over P in S; x.den is never
    factored."""
    k = 0
    for P in sbasis.S.finite:
        d, v = x.den, 0
        while d % P.p == 0:
            d, v = d // P.p, v + 1
        k = max(k, P.e * v)
    return (x * sbasis.product() ** k).is_integral()


def ideal_ladder(shape, n_select):
    """The index data for the elementary subgroup argument on the proved
    triple.

    Case 1: m = [O_S : h Z[a^2]] with a = alpha^h, giving the O_S-ideal (m)
    inside h Z[a^2].  Case 2 additionally works on the F side (m and the
    order N of a^2 modulo m) and extends the K-side ring by sqrt(-d), giving
    q_ideal = (M); the F side reads the S(F)-unit basis of the alpha
    certificate, checked against classification's F and S(F).  Every index
    is PowerSpan.index of a span of the S-unit basis: a stabilized
    filtration limit over its levels, its Lagrange containment rechecked,
    each found once per basis (at h = 1 the ladder's first index is the
    certificate's [O_S : Z[a^2]]).

    n_select is either "search" (try N = 1, ..., N_BOUND and keep the
    first that works) or an explicit positive integer to test alone.
    The case 2 report records every N tried.
    """
    triple = shape.triple
    h = triple.h

    if triple.case_info.case == 1:
        # h Z[a^2] is the lower witness module
        m, lvl, seq = shape.lower.index()
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
    F, SF = triple.case_info.case2.F.subfield, triple.case_info.case2.SF
    # the certificate's basis, whose spans its index table has read, must
    # be over F and the S(F) that classification contracted
    sbF = triple.alpha_cert.sbasis
    if not (sbF.field is F and sbF.S.finite == SF.finite):
        raise VerificationFailure("the alpha certificate's S-unit basis is "
                                  "not over F and S(F)")
    aF2 = triple.alpha_cert.alpha ** (2 * h)
    hF = F.from_rational(h)
    mF, lvlF, seqF = sbF.span(aF2, hF).index()
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
        if _in_s_integers(sbF, y):
            big_n = N
            break
    if big_n is None:
        raise VerificationFailure(
            f"no N in {tried} with h (a^{{2N}} - 1) in m O_S(F)")
    scale_K = shape.h ** 3 * cm.d_in_K * field.from_rational(mF)
    M, lvlK, seqK = triple.case_info.sbasis.span(
        shape.a2, scale_K, extra=(cm.sqrt_minus_d,)).index()
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
    """Reduce a solution modulo the relations of the generators (K of
    PowerSpan.presentation) so that the trailing coefficients are the
    small canonical digits (only the j = 0 coefficient is unbounded)."""
    out = list(reversed(sol))
    for row in kernel:
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
    NotInLattice when x is outside every stage up to J_BOUND.  A stage
    is read through PowerSpan.presentation (in case 1 both sides are one
    span): if x.den does not divide its den it cannot hold x, else x is
    solved against the kept HNF and reduced by the kept relations.

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
        den, H, T, kernel = span.presentation(J)
        if den % x.den:
            continue
        y = solve_hnf(H, [c * (den // x.den) for c in x.num])
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
    return [tuple(tuple(M.reduce(x) for x in row) for row in m.rows)
            for m in triple.matrices()]


def _degree(M, r):
    """The degree over F_p of the residue r: the least e dividing f with
    its log (2(q - 1) for the zero) a multiple of (q - 1)/(p^e - 1)."""
    return next(e for e in range(1, M.f + 1) if M.f % e == 0
                and M._log[r] % ((M.q - 1) // (M.p ** e - 1)) == 0)


def _generates(M, residues):
    """Whether the residues generate F_q over F_p: together they generate
    the subfield whose degree is the lcm of theirs."""
    return lcm(*{_degree(M, v) for v in residues}) == M.f


def admissible_primes(shape, count, bound):
    """The first primes that the mod-P check reports, in canonical order,
    each as (M, entry): the prime's ring map M (ideals.residue_maps),
    which is its residue field, and the modp_surjectivity entry of the
    triple reduced by M, one count per walked prime.  Walked primes have
    q <= bound and a rational characteristic away from S (so reduction
    never divides by zero) and from h; the walk ends at the first
    rational prime past bound (ConfigInvalid if fewer were reported).

    Case 1 decides by the count, under the rule P not dividing m.  The
    ladder proves m O_S inside h Z[a^2], and the proved shapes put E21(x)
    and E12(x) in the group for x in h Z[a^2, a^-2]; so if P does not
    divide m the image holds E21(F_q) and E12(F_q), is SL2(F_q), and a
    smaller count raises VerificationFailure.  If P | m (p | m) the
    case-1 lemma gives the image: with k = F_p(a^2), the gamma-conjugates
    of psi1 = E21(h) and psi2 = E12(h) give E21(h k) and E12(h k),
    conjugate under diag(h, 1) to E21(k) and E12(k), which generate
    SL2(k) (Lang, Algebra, XIII 8); the image is SL2(k) <gamma>, of order
    |SL2(k)| if a is in k and twice that otherwise (Dickson's list;
    Huppert, Endliche Gruppen I, II.8).  Such a prime is skipped with one
    stderr line naming p, q, the image order, deg k and "P | m".

    Case 2 keeps three filters until its ladder proves what it claims
    (ROADMAP item 21): psi2's entry tau nonzero mod P; the reduced
    entries generating F_q (every word stays in the subfield they
    generate); over a non-prime field, a non-central reduced gamma.  A
    kept prime that is not onto raises.
    """
    triple = shape.triple
    # case 1's rule reads the ladder's m; case 2 (m None) keeps its filters
    m = shape.lower.index()[0] if triple.case_info.case == 1 else None
    schars = {P.p for P in triple.S.finite}
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
        for M in residue_maps(triple.field, p, bound):
            mats = reduce_triple(triple, M)
            # the corners of gamma = diag(a, a^-1) and psi2 = E12(tau)
            a, tau = mats[0][0][0], mats[2][0][1]
            if m is None and not (
                    tau and not (M.f > 1 and M.mul(a, a) == 1)
                    and _generates(M, [v for g in mats for r in g
                                       for v in r])):
                continue
            entry = modp_surjectivity(M, mats)
            if entry["passed"]:
                out.append((M, entry))
                if len(out) == count:
                    break
            elif m is not None and m % p == 0:
                print(f"skipped the prime over {p} (q = {M.q}): image "
                      f"{entry['reached']} of {entry['group_order']}, deg k "
                      f"= {_degree(M, M.mul(a, a))}, P | m", file=sys.stderr)
            else:
                raise VerificationFailure(
                    f"reduction mod the prime over {p} (q = {M.q}) is not "
                    f"surjective: {entry['reached']} of {entry['group_order']}")
        p += 1
    return out


def _borel_order(R, elements):
    """(|T|, |V|) for the group H generated by elements, pairs (t, c)
    of residue indices standing for ((t, 0), (c, t^-1)) in the lower
    Borel subgroup of SL2(R): T is the image of H under (t, c) -> t and
    V = H cap {E21(c)} its kernel, so |H| = |T| |V|.

    T is cyclic: w^d generates it, with d the gcd of q - 1 and the logs
    of the t read so far, and b* in H is kept with image exactly w^d.
    Conjugation by (t, c) scales E21(x) to E21(t^-2 x), so V is an
    F_p(T^2)-space, spanned by the kernel parts of the generators: b
    b*^-k for each b with t = w^(dk).  When a b grows T, an extended gcd
    over the logs gives b*' = b*^x b^y mapping onto the larger T, and V
    gains the kernel parts of b and of the old b* over b*' (the first
    growth adds b*'^-|T| this way; later ones keep b*'^|T| in the span).
    The elements are read only until T = R^* and V = R, past which
    nothing can grow.
    """
    q, m = R.q, R.q - 1
    mul, add, neg, inv, log = R.mul, R.add, R.neg_table, R.inv_table, R._log

    def bmul(x, y):
        (t, c), (u, e) = x, y
        return mul(t, u), add(mul(c, u), mul(inv[t], e))

    def bpow(x, k):
        if k < 0:
            x, k = (inv[x[0]], neg[x[1]]), -k
        out = (1, 0)
        while k:
            if k & 1:
                out = bmul(out, x)
            x = bmul(x, x)
            k >>= 1
        return out

    # V as a membership mask, its members and an F_p-basis
    span = bytearray(q)
    span[0] = 1
    members = [0]
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

    d, bstar, lam = m, (1, 0), 1
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


def _matmul(R, A, B):
    """A B for 2x2 tuples of residue indices of R."""
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
        # a + y c for every y, by logs: y c = w^(log y + log c)
        yc = [exp[ly + log[c]] for ly in log]
        if not a:
            return yc
        la = log[a]
        return [exp[la + zech[log[w] - la]] if w else a for w in yc]

    (a, b), (c, d) = mat
    # z / x = w^(log z - log x) for x != 0; a zero z has log 2m
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
    start = 0
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
    trans[start] = ((1, 0), (0, 1))

    def transversal(u):
        path = []
        while trans[u] is None:
            path.append(u)
            u = edge[u][0]
        t = trans[u]
        for w in reversed(path):
            t = trans[w] = _matmul(R, t, mats[edge[w][1]])
        return t

    def schreier():
        # the (t, c) entries of T_v s T_u^-1, u = v s; tree edges give 1
        for v in orbit:
            for s, pts in enumerate(maps):
                u = pts[v]
                if edge[u] == (v, s):
                    continue
                (x0, x1), (x2, x3) = _matmul(R, transversal(v), mats[s])
                (y0, y1), (y2, y3) = transversal(u)
                yield (add(mul(x0, y3), neg[mul(x1, y2)]),
                       add(mul(x2, y3), neg[mul(x3, y2)]))

    torus, unipotent = _borel_order(R, schreier())
    return len(orbit) * torus, unipotent


def modp_surjectivity(R, mats):
    """Count the subgroup that the reduced triple mats (from reduce_triple)
    generates inside SL2 of the residue field R, a prime's ring map
    (ideals.ResidueMap), on the projective line (image_order: orbit of
    (1 : 0) times the Borel stabilizer), after checking that each matrix
    has determinant 1, and compare the count against the group order
    q(q^2 - 1).

    bfs_expansions is (number of generators and their inverses) x
    |image|, the count an enumeration of the image expanding each element
    once per generator would make; the key stays so that reports keep
    their bytes until the modp entries change shape.
    """
    q = R.q
    for (a, b), (c, d) in mats:
        if R.add(R.mul(a, d), R.neg_table[R.mul(b, c)]) != 1:
            raise VerificationFailure("reduced matrix leaves SL2")
    orbit, stabilizer = image_order(R, mats)
    reached = orbit * stabilizer
    order = q * (q * q - 1)
    return {
        "p": R.p,
        "f": R.f,
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

    report["modp"] = [entry for _, entry in admissible_primes(
        shape, verify["primes"], verify["q_bound"])]
    report["passed"] = True
    return report
