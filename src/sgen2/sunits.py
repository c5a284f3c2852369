"""S-unit groups, CM detection, and the choice of the S-unit alpha.

The finite-prime data of a set S comes with class-order witnesses: for
each prime q_i in S a minimal a_i and generator beta_i with
q_i^{a_i} = (beta_i).  Together with the fundamental units and a
torsion generator these give a finite-index subgroup of O_S^* in which
all searches below run.  For fields of degree <= 2 the unit part is the
whole unit group: the roots of unity are read off the discriminant in
closed form and the fundamental unit comes from field.fundamental_unit.
Datasheet fields may declare less (their torsion is taken as +-1),
which only shrinks the search space, never breaks exactness.

A subfield F is a SubfieldDescriptor, which pairs each prime of F
above p with the primes of K above it (lying_over); contract_prime_set
and SubfieldRank both read that one table.

Alpha is selected by exhaustive shell search over exponent vectors,
rejecting vectors that fall into the rational span of the unit groups
of intermediate fields (the W test) and vectors that miss a required
negative valuation (the V test, automatic here because every finite
exponent is >= 1).  Every property of the returned certificate is
verified exactly before it is emitted.

O_S itself is exhausted by the levels Lambda_k = B^-k O_K, B = prod
beta_i, which the S-unit basis builds once each (SUnitBasis.level):
indices [O_S : Z[alpha^n]] are read per level as [Lambda_k + L_J : L_J],
L_J a stage of the power span (its triangle, grown from stage J - 1,
with Lambda_k's rows inserted), and accepted once three consecutive
levels and a degree enlargement agree.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

from .errors import (CardinalityTooSmall, HypothesisFails,
                     InvariantViolated, NotStabilized, SearchExhausted)
from .field import (RATIONALS, format_rational, fundamental_unit,
                    integer_rows, span_solve)
from .ideals import class_order, factor_rational_prime, valuation
from .linalg import RatLattice, hnf
from .polys import count_roots_in, root_bound, sturm_chain

# Work bounds: alpha-search exponent shells, the n of the [O_S : Z[alpha^n]]
# table, filtration levels, the window of the unit discrete log, and the
# largest order of a root of unity that the torsion test tries.
MAX_SHELL = 32
INDEX_EXPONENTS = (1, 2, 3)
LEVEL_BOUND = 12
DLOG_BOUND = 64
MAX_ROOT_ORDER = 24


class PrimeSet:
    """All infinite places plus a canonically sorted set of finite primes."""

    __slots__ = ("field", "finite", "infinite_count")

    def __init__(self, field, finite, min_card=2):
        self.field = field
        by_key = {p.hnf: p for p in finite}
        self.finite = tuple(sorted(by_key.values(), key=lambda p: p.hnf))
        self.infinite_count = field.signature[0] + field.signature[1]
        if self.card < min_card:
            raise CardinalityTooSmall(
                f"card(S) = {self.card}, need at least {min_card}")

    @property
    def card(self):
        return self.infinite_count + len(self.finite)

    def contains(self, prime):
        return any(p.hnf == prime.hnf for p in self.finite)

    def serialize(self):
        return {
            "infinite_places": self.infinite_count,
            "finite": [p.serialize() for p in self.finite],
            "card": self.card,
        }

    def __repr__(self):
        return f"PrimeSet(inf={self.infinite_count}, finite={list(self.finite)})"


# ---------------------------------------------------------------------------
# Torsion.

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
        return 2, field.from_rational(-1)
    return order, field.basis_element(1)


# ---------------------------------------------------------------------------
# S-unit bases.

class SUnitBasis:
    __slots__ = ("field", "S", "torsion_order", "torsion_gen", "fund_units",
                 "s_gens", "class_witnesses", "valuation_matrix", "_levels",
                 "_binv", "_scale")

    def __init__(self, field, S, torsion_order, torsion_gen, fund_units,
                 s_gens, class_witnesses, valuation_matrix):
        self.field = field
        self.S = S
        self.torsion_order = torsion_order
        self.torsion_gen = torsion_gen
        self.fund_units = tuple(fund_units)
        self.s_gens = tuple(s_gens)
        self.class_witnesses = tuple(class_witnesses)
        self.valuation_matrix = tuple(tuple(r) for r in valuation_matrix)
        self._levels = []
        self._binv = None  # B^-1, B the product of the S-generators
        self._scale = None  # B^-k for the next level k

    @property
    def rank(self):
        return len(self.fund_units) + len(self.s_gens)

    def level(self, k):
        """Lambda_k = B^-k O_K in integral-basis coordinates; the union
        over k is O_S.  Each level is built once and kept on the basis."""
        f = self.field
        if self._binv is None:
            b = f.one
            for g in self.s_gens:
                b = b * g
            self._binv = b.inverse()
            self._scale = f.one
        while len(self._levels) <= k:
            self._levels.append(element_lattice(
                [self._scale * f.basis_element(i) for i in range(f.degree)]))
            self._scale = self._scale * self._binv
        return self._levels[k]

    def serialize(self):
        return {
            "torsion_order": self.torsion_order,
            "torsion_generator": self.torsion_gen.serialize(),
            "fundamental_units": [u.serialize() for u in self.fund_units],
            "s_generators": [{"element": b.serialize(),
                              "class_order": w.order,
                              "minimal_verified": w.minimal_verified}
                             for b, w in zip(self.s_gens, self.class_witnesses)],
            "rank": self.rank,
            "valuation_matrix": [list(r) for r in self.valuation_matrix],
        }


def _fund_units_of(F):
    return [fundamental_unit(F)] if F.is_quadratic_real() else list(F.sheet_units)


def s_unit_basis(field, S):
    """Torsion, fundamental units, and class-order generators for S.

    The valuation matrix (rows: generators, columns: finite primes of
    S) is rebuilt from scratch with the membership-ladder valuation and
    checked against what the class orders promise.
    """
    w, zeta = _torsion_units(field)
    fund = _fund_units_of(field)
    witnesses = [class_order(P) for P in S.finite]
    s_gens = [wit.generator for wit in witnesses]

    vmat = []
    for u in fund:
        row = [valuation(u, P) for P in S.finite]
        if any(row):
            raise InvariantViolated("fundamental unit has a finite S-valuation")
        vmat.append(row)
    for i, (b, wit) in enumerate(zip(s_gens, witnesses)):
        row = [valuation(b, P) for P in S.finite]
        # q_i^{a_i} = (beta_i) forces v_{q_i}(beta_i) = a_i and v = 0 at
        # the other members of S (primes of S over the same p are distinct)
        if row[i] != wit.order:
            raise InvariantViolated("generator valuation inconsistent with class order")
        for j, v in enumerate(row):
            if j != i and v != 0:
                raise InvariantViolated("generator has a stray valuation inside S")
        vmat.append(row)
    basis = SUnitBasis(field, S, w, zeta, fund, s_gens, witnesses, vmat)
    if field.tier == "automatic" and basis.rank != S.card - 1:
        raise InvariantViolated("S-unit rank must be |S| - 1")
    return basis


# ---------------------------------------------------------------------------
# Subfields.

class SubfieldDescriptor:
    """A proper subfield F of K given by the image of its generator g,
    with the images 1, g, ..., g^(k-1) of F's power basis (powers) and,
    per rational prime, the lying-over table, each built once.  The pair
    is Q with 1 or a sheet subfield, which create_field has checked."""

    __slots__ = ("field", "subfield", "embedding", "powers", "_lying_over")

    def __init__(self, field, subfield, embedding):
        self.field = field
        self.subfield = subfield
        self.embedding = embedding
        self.powers = [embedding ** i for i in range(subfield.degree)]
        self._lying_over = {}

    def map_element(self, x):
        """Image in K of an element of F (power coordinates evaluated
        at the embedding)."""
        acc = self.field.zero
        for g, c in zip(self.powers, x.power_coords()):
            if c:
                acc = acc + g * c
        return acc

    def lying_over(self, p):
        """[(q, primes of K above q)] for the primes q = (p, pi) of F: P
        lies over q when it contains the image of pi, and every P above p
        must lie over exactly one q (InvariantViolated otherwise)."""
        if p not in self._lying_over:
            table = [(q, self.map_element(q.two_element[1]), [])
                     for q in factor_rational_prime(self.subfield, p)]
            for P in factor_rational_prime(self.field, p):
                below = [Ps for _, pi, Ps in table
                         if pi.is_zero() or P.contains(pi)]
                if len(below) != 1:
                    raise InvariantViolated(
                        "a K-prime lies over exactly one F-prime")
                below[0].append(P)
            self._lying_over[p] = tuple((q, tuple(Ps)) for q, _, Ps in table)
        return self._lying_over[p]

    def serialize(self):
        return {"poly": list(self.subfield.poly),
                "embedding": self.embedding.serialize()}

    def __repr__(self):
        return f"SubfieldDescriptor({list(self.subfield.poly)})"


def rational_subfield(field):
    return SubfieldDescriptor(field, RATIONALS, field.one)


def default_subfields(field):
    """The proper subfields consulted by the searches: nothing for Q,
    Q for quadratics, Q plus every declared subfield for datasheet fields.
    Built once per field and kept on it."""
    if field._subfields is None:
        out = [rational_subfield(field)] if field.degree > 1 else []
        out += [SubfieldDescriptor(field, sub, emb)
                for sub, emb in field.sheet_subfields]
        field._subfields = tuple(out)
    return field._subfields


def contract_prime_set(S, F_desc):
    """S(F): the primes of F below the finite primes of S."""
    finite = [q for p in {P.p for P in S.finite}
              for q, above in F_desc.lying_over(p)
              if any(S.contains(P) for P in above)]
    return PrimeSet(F_desc.subfield, finite, min_card=1)


# ---------------------------------------------------------------------------
# CM structure.

class CMStructure:
    """K = F(sqrt(-d)) with F totally real and d totally positive in F."""

    __slots__ = ("F", "d_in_F", "d_in_K", "sqrt_minus_d")

    def __init__(self, F, d_in_F, d_in_K, sqrt_minus_d):
        self.F = F
        self.d_in_F = d_in_F
        self.d_in_K = d_in_K
        self.sqrt_minus_d = sqrt_minus_d

    def serialize(self):
        return {
            "subfield": self.F.serialize(),
            "d": self.d_in_F.serialize(),
            "sqrt_minus_d": self.sqrt_minus_d.serialize(),
        }


def _totally_positive(x):
    """Exact check that every real conjugate of x is positive."""
    mp = x.minimal_poly()
    den = lcm(*(c.denominator for c in mp))
    mp = [c.numerator * (den // c.denominator) for c in mp]
    if mp[0] == 0:
        return False
    return count_roots_in(sturm_chain(mp), 0, root_bound(mp)) == len(mp) - 1


def is_cm(field):
    """The CM structure of K, or None.

    Degree 2: signature (0, 1) means K = Q(sqrt(-d)) outright.  Higher
    degree: K must be totally imaginary with a declared totally real
    subfield of index 2; theta is split into its F-trace part and a
    square root of a totally positive element of F.
    """
    n = field.degree
    if n == 1 or field.signature[0] != 0:
        return None
    if n == 2:
        F = default_subfields(field)[0]
        d = -field.quadratic_core()
        return CMStructure(F, F.subfield.from_rational(d),
                           field.from_rational(d), field.sqrt_disc_core())
    for F in default_subfields(field):
        if (2 * F.subfield.degree != n
                or F.subfield.signature != (F.subfield.degree, 0)):
            continue
        cm = _split_off_sqrt(field, F)
        if cm is not None:
            return cm
    return None


def _split_off_sqrt(field, F_desc):
    """K-side linear algebra in integral-basis coordinates; the
    coefficients over the powers of F's generator are power-basis
    coordinates in F."""
    n = field.degree
    k = n // 2
    g_powers = F_desc.powers
    sol = span_solve(g_powers + [field.theta * g for g in g_powers],
                     field.theta * field.theta)
    if sol is None:
        return None
    # theta^2 = A + B theta with A, B in F, so delta = theta - B/2 has
    # delta^2 = A + B^2/4 in F
    delta = field.theta - F_desc.map_element(
        F_desc.subfield.element(sol[k:])) / 2
    # clear denominators and content so that delta is a primitive integer
    g = gcd(*delta.num)
    delta = field.from_ib([x // g for x in delta.num])
    d_K = -(delta * delta)
    coeffs = span_solve(g_powers, d_K)
    if coeffs is None:
        raise InvariantViolated("-delta^2 must lie in the subfield")
    d_F = F_desc.subfield.element(coeffs)
    if not _totally_positive(d_F):
        return None
    return CMStructure(F_desc, d_F, d_K, delta)


# ---------------------------------------------------------------------------
# Rank of the intersection with a subfield's S-units.

class SubfieldRank:
    """A subfield F with S contracted to it, the primes of K above each
    finite prime of S(F), and the rank of the intersection: rank(O_F^*)
    plus the number of finite primes of S(F) all of whose K-primes lie
    in S."""

    __slots__ = ("F", "SF", "above", "qualifying", "rank")

    def __init__(self, S, F_desc):
        self.F = F_desc
        self.SF = contract_prime_set(S, F_desc)
        self.above = [dict(F_desc.lying_over(q.p))[q] for q in self.SF.finite]
        self.qualifying = [q for q, above in zip(self.SF.finite, self.above)
                           if all(S.contains(P) for P in above)]
        r1, r2 = F_desc.subfield.signature
        self.rank = r1 + r2 - 1 + len(self.qualifying)

    def unsplit(self):
        """True when no finite prime of S(F) splits in K: each has a
        single prime of K above it, the member of S it came from, so each
        also qualifies."""
        return all(len(above) == 1 for above in self.above)

    def unit_vectors(self, sbasis):
        """Exponent vectors spanning (over Q) the S-units of K coming
        from units of the S(F)-integers of F."""
        vectors = []
        labels = []
        for u in _fund_units_of(self.F.subfield):
            w = self.F.map_element(u)
            vectors.append(exponent_vector(sbasis, w))
            labels.append({"kind": "subfield_unit", "element": w.serialize()})
        for q in self.qualifying:
            w = self.F.map_element(class_order(q).generator)
            vectors.append(exponent_vector(sbasis, w))
            labels.append({"kind": "subfield_class_generator",
                           "p": q.p, "element": w.serialize()})
        return vectors, labels


def rank_of_intersection(S, F_desc):
    """rank of (units of the S(F)-integers of F that remain S-units)."""
    return SubfieldRank(S, F_desc).rank


# ---------------------------------------------------------------------------
# Exponent vectors of S-units over a basis.

def _is_root_of_unity(field, t):
    power = t
    for _ in range(MAX_ROOT_ORDER):
        if power == field.one:
            return True
        power = power * t
    return False


def exponent_vector(sbasis, w):
    """Rational exponents (over fund_units + s_gens) of an S-unit w,
    modulo torsion.  Exact: the residual after stripping the beta part
    is resolved by bounded search with exact equality."""
    field = sbasis.field
    beta_exps = []
    for P, wit in zip(sbasis.S.finite, sbasis.class_witnesses):
        v = valuation(w, P)
        beta_exps.append(Fraction(v, wit.order))
    M = 1
    for e in beta_exps:
        M = M * e.denominator // gcd(M, e.denominator)
    r = w ** M
    for b, e in zip(sbasis.s_gens, beta_exps):
        r = r * b ** (-int(e * M))
    if not (r.is_integral() and abs(r.norm()) == 1):
        raise InvariantViolated("residual must be a unit")
    nf = len(sbasis.fund_units)
    if nf == 1:
        eps = sbasis.fund_units[0]
        for k in range(DLOG_BOUND + 1):
            for kk in ((k, -k) if k else (0,)):
                t = r * eps ** (-kk)
                if _is_root_of_unity(field, t):
                    return (Fraction(kk, M),) + tuple(beta_exps)
        raise SearchExhausted("unit discrete log out of range")
    for combo in itertools.product(range(-8, 9), repeat=nf):
        t = r
        for e, eps in zip(combo, sbasis.fund_units):
            t = t * eps ** (-e)
        if _is_root_of_unity(field, t):
            return tuple(Fraction(e, M) for e in combo) + tuple(beta_exps)
    raise SearchExhausted("unit discrete log out of range")


# ---------------------------------------------------------------------------
# The alpha search.

class AlphaCertificate:
    __slots__ = ("field", "S", "sbasis", "alpha", "torsion_exp", "fund_exps",
                 "beta_exps", "neg_valuations", "minpoly", "avoidance",
                 "index_table", "unit_part")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def serialize(self):
        return {
            "alpha": self.alpha.serialize(),
            "exponents": {
                "torsion": self.torsion_exp,
                "fundamental_units": list(self.fund_exps),
                "s_generators": list(self.beta_exps),
            },
            "negative_valuations": [
                {"p": p.p, "hnf": [list(r) for r in p.hnf], "v": v}
                for p, v in self.neg_valuations],
            "minimal_poly": [format_rational(c) for c in self.minpoly],
            "degree": len(self.minpoly) - 1,
            "avoidance": self.avoidance,
            "index_table": [{"n": n, "index": str(i), "level": l}
                            for n, i, l in self.index_table],
            "power_identity": self.unit_part,
        }


def _fund_exponent_sequence(shell):
    out = [0]
    for k in range(1, shell + 1):
        out.extend((k, -k))
    return out


def choose_alpha(field, S, sbasis, ranks):
    """Search for alpha in O_S^* with negative valuation at every finite
    prime of S, avoiding every intermediate field's S-unit span, and
    generating K; returns a fully verified certificate.

    sbasis is the S-unit basis of field over S, and ranks the
    SubfieldRank of each subfield to avoid.

    Deterministic: candidates are enumerated by max-exponent shells,
    with inverse class-generator exponents >= 1 throughout (which settles
    the V-type conditions), fundamental-unit exponents in the order
    0, 1, -1, 2, -2, ..., and the torsion exponent last.
    """
    rank = sbasis.rank
    for sr in ranks:
        if sr.rank >= rank:
            raise HypothesisFails(f"rank of the intersection with {sr.F!r} "
                                  f"is {sr.rank}, not below {rank}")
    spans = []
    for sr in ranks:
        vectors, labels = sr.unit_vectors(sbasis)
        if len(vectors) != sr.rank:
            raise InvariantViolated("span generators must realize the rank")
        # rational rank is blind to row scaling: clear once, rank by HNF
        den = lcm(*(x.denominator for v in vectors for x in v))
        rows = [[int(x * den) for x in v] for v in vectors]
        spans.append((sr.F, vectors, rows, len(hnf(rows)), labels))

    nf, nb = len(sbasis.fund_units), len(sbasis.s_gens)
    w = sbasis.torsion_order
    tried = 0
    rejected_span = 0
    rejected_degree = 0
    for shell in range(1, MAX_SHELL + 1):
        for cb in itertools.product(range(1, shell + 1), repeat=nb):
            for cf in itertools.product(_fund_exponent_sequence(shell), repeat=nf):
                top = max([abs(c) for c in cf] + list(cb) + [0])
                if top != shell:
                    continue
                tried += 1
                vec = list(cf) + [-c for c in cb]
                if any(len(hnf(rows + [vec])) == span_rank
                       for _, _, rows, span_rank, _ in spans):
                    rejected_span += 1
                    continue
                for c0 in range(w):
                    alpha = sbasis.torsion_gen ** c0
                    for e, u in zip(cf, sbasis.fund_units):
                        alpha = alpha * u ** e
                    for e, b in zip(cb, sbasis.s_gens):
                        alpha = alpha * b ** (-e)
                    mp = alpha.minimal_poly()
                    if len(mp) - 1 != field.degree:
                        rejected_degree += 1
                        continue
                    return _certify_alpha(field, S, sbasis, alpha, c0, cf, cb,
                                          mp, spans, vec, tried, rejected_span,
                                          rejected_degree)
    raise SearchExhausted(f"no alpha within exponent shells up to {MAX_SHELL}")


def _certify_alpha(field, S, sbasis, alpha, c0, cf, cb, mp, spans, vec,
                   tried, rejected_span, rejected_degree):
    neg = []
    for P in S.finite:
        v = valuation(alpha, P)
        if v >= 0:
            raise InvariantViolated("alpha must have negative valuation inside S")
        neg.append((P, v))
    # exact power identity: alpha * prod beta^{c_i} is the absorbed unit
    u = sbasis.torsion_gen ** c0
    for e, fu in zip(cf, sbasis.fund_units):
        u = u * fu ** e
    check = alpha
    for e, b in zip(cb, sbasis.s_gens):
        check = check * b ** e
    if check != u:
        raise InvariantViolated("power identity must hold exactly")
    avoidance = {
        "candidates_tried": tried,
        "rejected_by_subfield_span": rejected_span,
        "rejected_by_degree": rejected_degree,
        "exponent_vector": [format_rational(x) for x in vec],
        "subfields": [],
        "single_prime_removals": [
            {"p": P.p, "hnf": [list(r) for r in P.hnf], "valuation": v}
            for P, v in neg],
    }
    for F, vectors, rows, span_rank, labels in spans:
        avoidance["subfields"].append({
            "poly": list(F.subfield.poly),
            "span_vectors": [[format_rational(x) for x in row] for row in vectors],
            "span_rank": span_rank,
            "rank_with_alpha": len(hnf(rows + [vec])),
            "generators": labels,
        })
    index_table = [(ne, *zalpha_index(sbasis, alpha, ne))
                   for ne in INDEX_EXPONENTS]
    unit_part = {
        "m": 1,
        "beta_exponents": list(cb),
        "unit": u.serialize(),
        "identity": "alpha^m * prod(beta_i^{b_i}) = unit",
    }
    return AlphaCertificate(field=field, S=S, sbasis=sbasis, alpha=alpha,
                            torsion_exp=c0, fund_exps=list(cf),
                            beta_exps=[-c for c in cb],
                            neg_valuations=neg, minpoly=mp,
                            avoidance=avoidance, index_table=index_table,
                            unit_part=unit_part)


# ---------------------------------------------------------------------------
# Ring indices over the levels Lambda_k of the S-unit basis.

def element_lattice(elements):
    """The Z-span of field elements, in integral-basis coordinates."""
    den, rows = integer_rows(elements)
    return RatLattice(den, hnf(rows), elements[0].field.degree)


class PowerSpan:
    """Stage J is the Z-span of scale * base^j, j = 0..J, and of their
    multiples by each element of extra; each power is computed once and
    stage J is stage J - 1 with the new rows inserted."""

    def __init__(self, base, scale, extra=()):
        self.base = base
        self.extra = extra
        self._pows = [scale]
        self._stages = [RatLattice(1, (), base.field.degree)]  # stage -1: zero

    def _power(self, j):
        while len(self._pows) <= j:
            self._pows.append(self._pows[-1] * self.base)
        return self._pows[j]

    def elements(self, J):
        """The stage-J generators, powers first."""
        pows = [self._power(j) for j in range(J + 1)]
        return pows + [g * p for g in self.extra for p in pows]

    def lattice(self, J):
        while len(self._stages) <= J + 1:
            p = self._power(len(self._stages) - 1)
            self._stages.append(self._stages[-1].extend(
                *integer_rows([p] + [g * p for g in self.extra])))
        return self._stages[J + 1]


def stabilized_index(sbasis, span):
    """Index [O_S : span] by per-level agreement over the levels of sbasis.

    Level k reads [Lambda_k : Lambda_k cap L_J] = [Lambda_k + L_J : L_J]
    with L_J the stage J = k + 2 of the PowerSpan (None while L_J has
    rank below the degree).  A value is accepted when levels k, k+1,
    k+2 agree and enlarging the degree at level k does not change it.
    """
    per_level = []

    def idx(k, J):
        return sbasis.level(k).sum_index(span.lattice(J))

    for k in range(LEVEL_BOUND + 1):
        per_level.append(idx(k, k + 2))
        if k >= 2:
            k0 = k - 2
            v = per_level[k0]
            if v is not None and per_level[k0 + 1] == v and per_level[k0 + 2] == v:
                if idx(k0, k0 + 3) == v:
                    return v, k0, per_level
    raise NotStabilized(
        f"index did not stabilize within {LEVEL_BOUND} filtration levels")


def zalpha_index(sbasis, alpha, n):
    """(index, level): [O_S : Z[alpha^n]] with its stabilization level, S
    the prime set of sbasis."""
    v, lvl, _ = stabilized_index(sbasis, PowerSpan(alpha ** n, sbasis.field.one))
    return v, lvl
