"""Exact verification of the generating triple.

Four independent checks, each falsifiable on its own:

  * identity_suite multiplies the matrices out and compares against the
    closed forms the construction promises (conjugation of the
    elementary generators by powers of gamma, plus the Bruhat-style
    rewriting identities in the CM case), entry by entry over K.
  * ideal_ladder recomputes the ring indices behind the elementary
    subgroup argument on the level filtration and checks the Lagrange
    containments they imply.
  * elementary_witness writes a requested elementary matrix as an
    explicit word in the triple and evaluates the word exactly.
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
from .generators import m2_eq, m2_identity, m2_inv, m2_mul, m2_pow
from .ideals import factor_rational_prime, valuation
from .linalg import RatLattice, hnf, hnf_with_transform, solve_hnf, vec_mat
from .polys import is_prime, prime_divisors
from .sunits import (LevelFiltration, PowerSpan, contract_prime_set,
                     s_unit_basis, stabilized_index)

# Work bounds: the orders N of a^2 that the case-2 ladder tries, and the
# stages J of the witness module searched for a word.
N_BOUND = 24
J_BOUND = 16

# The verify section of a config when it sets nothing: mod-P checks at
# the first `primes` admissible primes with residue field size up to
# q_bound, identity windows r and s (as [lo, hi]), and the number of
# elementary witnesses.
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


def identity_suite(triple, r_range, s_range, n_range):
    """Check every defining identity of the triple over the given
    exponent windows; raises IdentityFailed with the offending instance."""
    field = triple.field
    g = triple.gamma.rows
    p1 = triple.psi1.rows
    p2 = triple.psi2.rows
    a = triple.alpha_in_K ** triple.h
    h = field.from_rational(triple.h)
    tau = triple.psi2.entry(0, 1)
    checked = 0

    def ensure(ok, name, instance):
        if not ok:
            raise IdentityFailed(f"identity {name} failed", instance=instance)

    for mat, name in ((g, "gamma"), (p1, "psi1"), (p2, "psi2")):
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        ensure(det == field.one, "determinant", {"matrix": name})
        checked += 1

    ensure(not m2_eq(m2_mul(p1, p2), m2_mul(p2, p1)), "non-commutation",
           {"matrices": ["psi1", "psi2"]})
    checked += 1

    p1_pows = {s: m2_pow(p1, s, field) for s in s_range}
    p2_pows = {s: m2_pow(p2, s, field) for s in s_range}
    for r in r_range:
        gr = m2_pow(g, r, field)
        grm = m2_pow(g, -r, field)
        a2r = a ** (2 * r)
        a2r_inv = a2r.inverse()
        for s in s_range:
            lhs1 = m2_mul(gr, m2_mul(p1_pows[s], grm))
            rhs1 = _e21(field, h * s * a2r_inv)
            ensure(m2_eq(lhs1, rhs1), "gamma^r psi1^s gamma^-r",
                   {"r": r, "s": s})
            lhs2 = m2_mul(gr, m2_mul(p2_pows[s], grm))
            rhs2 = _e12(field, tau * s * a2r)
            ensure(m2_eq(lhs2, rhs2), "gamma^r psi2^s gamma^-r",
                   {"r": r, "s": s})
            checked += 2

    report = {"exponent_identities": checked,
              "r_range": [min(r_range), max(r_range)],
              "s_range": [min(s_range), max(s_range)]}

    if triple.case_info.case == 2:
        cm = triple.case_info.cm
        delta = cm.sqrt_minus_d
        dK = -(delta * delta)
        t_inv = (h * delta).inverse()
        u = _e21(field, t_inv)
        u_inv = m2_inv(u)
        w = ((field.one, t_inv), (field.zero, delta.inverse()))
        w_inv = m2_inv(w)
        p1_inv = m2_inv(p1)
        p2_inv = m2_inv(p2)
        h2d = h * h * dK
        cm_checked = 0
        for s in s_range:
            x = h * s
            lhs = m2_mul(p2, m2_mul(_e21(field, x), p2_inv))
            rhs = m2_mul(u, m2_mul(_e12(field, h2d * x), u_inv))
            ensure(m2_eq(lhs, rhs), "psi2 E21 psi2^-1 = u E12 u^-1", {"s": s})
            lhs = m2_mul(p1, m2_mul(_e12(field, x * delta), p1_inv))
            rhs = m2_mul(w, m2_mul(_e21(field, h2d * x), w_inv))
            ensure(m2_eq(lhs, rhs), "psi1 E12 psi1^-1 = w E21 w^-1", {"s": s})
            cm_checked += 2
        for N in n_range:
            gN = m2_pow(g, N, field)
            gNm = m2_pow(g, -N, field)
            a2N = a ** (2 * N)
            lhs = m2_mul(u, m2_mul(gNm, m2_mul(u_inv, gN)))
            rhs = _e21(field, (field.one - a2N) * t_inv)
            ensure(m2_eq(lhs, rhs), "u gamma^-N u^-1 gamma^N", {"N": N})
            lhs = m2_mul(w, m2_mul(gN, m2_mul(w_inv, gNm)))
            rhs = _e12(field, (field.one - a2N) * h.inverse())
            ensure(m2_eq(lhs, rhs), "w gamma^N w^-1 gamma^-N", {"N": N})
            cm_checked += 2
        report["cm_identities"] = cm_checked
        report["n_values"] = sorted(n_range)

    report["passed"] = True
    return report


# ---------------------------------------------------------------------------
# Ring indices behind the elementary subgroup argument.

def _check_scaled_containment(filt, index, span, level):
    """index * Lambda_level must land in stage level + 4 of the
    PowerSpan (Lagrange)."""
    lam = filt.level(level)
    scaled = RatLattice(lam.den, [[index * x for x in r] for r in lam.rows],
                        lam.ncols)
    return span.lattice(level + 4).contains(scaled)


def _in_s_integers(field, S, x):
    """Exact membership of x in the ring of S-integers: every prime of
    the denominator outside S must see a nonnegative valuation."""
    for p in prime_divisors(x.den):
        for q in factor_rational_prime(field, p):
            if not S.contains(q) and valuation(x, q) < 0:
                return False
    return True


def ideal_ladder(triple, n_select):
    """The index data for the elementary subgroup argument.

    Case 1: m = [O_S : h Z[a^2]] with a = alpha^h, giving the O_S-ideal
    (m) inside h Z[a^2].  Case 2 additionally works on the F side (m and
    the order N of a^2 modulo m) and extends the K-side ring by
    sqrt(-d), giving q_ideal = (M).  Every index is a stabilized
    filtration limit and the Lagrange containment is rechecked.

    n_select is either "search" (try N = 1, ..., N_BOUND and keep the
    first that works) or an explicit positive integer to test alone.
    The case 2 report records every N tried.
    """
    field = triple.field
    h = triple.h
    hK = field.from_rational(h)
    a = triple.alpha_in_K ** h
    a2 = a * a
    filt = LevelFiltration(field, triple.case_info.sbasis)

    if triple.case_info.case == 1:
        span = PowerSpan(a2, hK)
        m, lvl, seq = stabilized_index(filt, span)
        if not _check_scaled_containment(filt, m, span, lvl):
            raise VerificationFailure("m * Lambda_k escapes h Z[a^2]")
        return {
            "case": 1,
            "m": m,
            "m_level": lvl,
            "m_per_level": [v for v in seq if v is not None],
            "a_ideal": {"generator": str(m), "meaning": "m * O_S"},
            "containment_checked": True,
        }

    cm = triple.case_info.cm
    Fd = triple.case_info.case2_subfield
    F = Fd.subfield
    SF = contract_prime_set(triple.S, Fd)
    sbF = s_unit_basis(F, SF)
    filtF = LevelFiltration(F, sbF)
    aF = triple.alpha_cert.alpha ** h
    aF2 = aF * aF
    hF = F.from_rational(h)
    spanF = PowerSpan(aF2, hF)
    mF, lvlF, seqF = stabilized_index(filtF, spanF)
    if not _check_scaled_containment(filtF, mF, spanF, lvlF):
        raise VerificationFailure("m * Lambda_k escapes h Z[a^2] over F")
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
    dK = cm.d_in_K
    delta = cm.sqrt_minus_d
    scale_K = hK * hK * hK * dK * field.from_rational(mF)
    spanK = PowerSpan(a2, scale_K, extra=(delta,))
    M, lvlK, seqK = stabilized_index(filt, spanK)
    if not _check_scaled_containment(filt, M, spanK, lvlK):
        raise VerificationFailure("M * Lambda_k escapes the extended ring")
    return {
        "case": 2,
        "m": mF,
        "m_level": lvlF,
        "m_per_level": [v for v in seqF if v is not None],
        "a_ideal": {"generator": str(mF), "meaning": "m * O_S(F)"},
        "N": big_n,
        "N_tried": tried,
        "b_ideal": {"scale": f"h^2 d m = {h * h} * d * {mF}",
                    "meaning": "h^2 d m * O_S(F)"},
        "M": M,
        "M_level": lvlK,
        "M_per_level": [v for v in seqK if v is not None],
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


def elementary_witness(triple, x, side):
    """A word in gamma and psi producing E21(x) (side "lower") or
    E12(x) (side "upper"), verified by exact evaluation.

    E21(x) needs x in the Z-span of h a^{2j}; gamma^-j psi1^c gamma^j
    contributes c h a^{2j}.  The upper side runs on tau a^{2j} with
    conjugator powers of the opposite sign.  Raises NotInLattice when x
    is outside every stage up to J_BOUND.
    """
    field = triple.field
    a = triple.alpha_in_K ** triple.h
    a2 = a * a
    if side == "lower":
        unit_scale = field.from_rational(triple.h)
        base_mat = triple.psi1
        make = _e21
        sign = -1
    elif side == "upper":
        unit_scale = triple.psi2.entry(0, 1)
        base_mat = triple.psi2
        make = _e12
        sign = 1
    else:
        raise ValueError("side must be 'lower' or 'upper'")

    coeffs = None
    stage = None
    span = PowerSpan(a2, unit_scale)
    for J in range(J_BOUND + 1):
        _, int_rows = integer_rows(span.elements(J) + [x])
        H, T, kernel = hnf_with_transform(int_rows[:-1])
        y = solve_hnf(H, int_rows[-1])
        if y is not None:
            coeffs = _canonical_coeffs(kernel, vec_mat(y, T))
            stage = J
            break
    if coeffs is None:
        raise NotInLattice(
            f"target entry is outside stage {J_BOUND} of the witness module")

    word = [(sign * j, c) for j, c in enumerate(coeffs) if c]
    gamma = triple.gamma
    acc_rows = m2_identity(field)
    for j, c in word:
        letter = ((gamma ** j) * (base_mat ** c) * (gamma ** -j)).rows
        acc_rows = m2_mul(acc_rows, letter)
    target = make(field, x)
    if not m2_eq(acc_rows, target):
        raise VerificationFailure("witness word does not evaluate to the target")
    return Witness(side, x, word, stage)


# ---------------------------------------------------------------------------
# Surjectivity modulo admissible primes.

class ResidueField:
    """O_K / P as explicit tables, elements indexed by canonical coset
    representatives below the Hermite rows of P."""

    def __init__(self, field, prime, bound):
        q = prime.residue_size
        if q > bound:
            raise ResidueFieldTooLarge(f"residue field of size {q} > {bound}")
        self.field = field
        self.prime = prime
        self.q = q
        self.p = prime.p
        n = field.degree
        rows = [list(r) for r in prime.hnf]
        self._rows = rows
        self._diag = [rows[i][i] for i in range(n)]
        reps = [()]
        for d in self._diag:
            reps = [r + (v,) for r in reps for v in range(d)]
        if len(reps) != q:
            raise InvariantViolated("coset representatives do not match |O_K/P|")
        self.reps = reps
        self._index = {r: i for i, r in enumerate(reps)}
        self.zero = self._index[tuple([0] * n)]
        self.one = self.reduce_ints(field.one.num)
        # both tables are symmetric: fill j >= i and mirror
        self.mul_table = [[0] * q for _ in range(q)]
        self.add_table = [[0] * q for _ in range(q)]
        self.inv_table = [None] * q
        for i, ra in enumerate(reps):
            for j in range(i, q):
                rb = reps[j]
                ab = self.reduce_ints(field.ib_mul(ra, rb))
                self.mul_table[i][j] = self.mul_table[j][i] = ab
                if ab == self.one:
                    self.inv_table[i] = j
                    self.inv_table[j] = i
                self.add_table[i][j] = self.add_table[j][i] = self.reduce_ints(
                    [x + y for x, y in zip(ra, rb)])

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

    def neg(self, i):
        rep = self.reps[i]
        return self.reduce_ints([-c for c in rep])

    def pow(self, i, e):
        out = self.one
        base = i
        while e:
            if e & 1:
                out = self.mul_table[out][base]
            base = self.mul_table[base][base]
            e >>= 1
        return out

    def element_degree(self, i):
        """Degree over the prime field (least e with x^{p^e} = x)."""
        y = self.pow(i, self.p)
        e = 1
        while y != i:
            y = self.pow(y, self.p)
            e += 1
        return e


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


def admissible_primes(triple, count, bound):
    """The first primes where the surjectivity check is meaningful, in
    canonical order, each as the pair (R, mats) of reduce_triple that
    modp_surjectivity counts.

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
    field = triple.field
    schars = {P.p for P in triple.S.finite}
    x = triple.alpha_in_K ** (2 * triple.h) - field.one
    num = x * x.den
    tau = triple.psi2.entry(0, 1)
    out = []
    p = 2
    while len(out) < count:
        while not is_prime(p) or p in schars:
            p += 1
        for P in factor_rational_prime(field, p):
            if P.residue_size > bound:
                continue
            if triple.h % p == 0 or P.contains(tau):
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
        if p > 10000:
            raise ConfigInvalid("not enough admissible primes below 10000")
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
    generated by its generators as a monoid.  The work is O(q^2) table
    lookups, where enumerating the group would cost q(q^2 - 1).
    """
    q = R.q
    mul = R.mul_table
    add = R.add_table
    neg = [R.neg(x) for x in range(q)]
    row_maps = []
    for (ma, mb), (mc, md) in mats:
        tab = [0] * (q * q)
        for x in range(q):
            xa = mul[x][ma]
            xb = mul[x][mb]
            for y in range(q):
                tab[x * q + y] = (add[xa][mul[y][mc]] * q
                                  + add[xb][mul[y][md]])
        row_maps.append(tab)

    start = R.one * q + R.zero
    second = {start: R.zero * q + R.one}
    frontier = [start]
    for v in frontier:
        w = second[v]
        for tab in row_maps:
            u = tab[v]
            if u not in second:
                second[u] = tab[w]
                frontier.append(u)

    # T_v s has rows (vs, x) and T_{vs} has rows (vs, y); the second row
    # of T_v s T_{vs}^-1 is (x0 y1 - x1 y0, 1).
    shifts = set()
    for v, w in second.items():
        for tab in row_maps:
            x0, x1 = divmod(tab[w], q)
            y0, y1 = divmod(second[tab[v]], q)
            shifts.add(add[mul[x0][y1]][neg[mul[x1][y0]]])

    # an additive subgroup H of R is an F_p-space, so H + <c> is the
    # union of the cosets H + k c for k < p
    stab = {R.zero}
    for c in shifts:
        if c not in stab:
            coset = stab
            for _ in range(R.p - 1):
                coset = {add[x][c] for x in coset}
                stab = stab | coset
    return len(second), len(stab)


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
        det = R.add_table[R.mul_table[a][d]][R.neg(R.mul_table[b][c])]
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
    """Run every check; raises on the first failure, otherwise returns
    the combined report.

    verify is a config's validated verify section (VERIFY_DEFAULTS
    updated by the config): the identity windows r and s as [lo, hi],
    the number of mod-P primes and their bound q_bound, and the number
    of witness_samples, drawn with the seed.  n_select is as for
    ideal_ladder.

    The ladder runs first so that the identity suite can re-verify the
    conjugation identities at whichever N the ladder settled on.
    """
    import random
    report = {}
    report["ladder"] = ideal_ladder(triple, n_select)
    n_range = range(1, 6)
    if triple.case_info.case == 2:
        n_range = sorted(set(n_range) | {report["ladder"]["N"]})
    r_lo, r_hi = verify["r"]
    s_lo, s_hi = verify["s"]
    report["identities"] = identity_suite(triple, range(r_lo, r_hi + 1),
                                          range(s_lo, s_hi + 1), n_range)

    field = triple.field
    a2 = (triple.alpha_in_K ** triple.h) ** 2
    rng = random.Random(seed)
    witnesses = []
    for side in ("lower", "upper"):
        scale = (field.from_rational(triple.h) if side == "lower"
                 else triple.psi2.entry(0, 1))
        for _ in range(verify["witness_samples"] // 2):
            x = field.zero
            pw = scale
            for _ in range(rng.randrange(1, 4)):
                x = x + pw * rng.randrange(-3, 4)
                pw = pw * a2
            if x.is_zero():
                x = scale
            witnesses.append(elementary_witness(triple, x, side).serialize())
    report["witnesses"] = {"count": len(witnesses), "items": witnesses}

    modp = []
    for R, mats in admissible_primes(triple, verify["primes"],
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
