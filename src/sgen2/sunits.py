"""S-unit groups, CM detection, and the choice of the S-unit alpha.

The finite-prime data of a set S comes with class-order witnesses: for
each prime q_i in S a minimal a_i and generator beta_i with
q_i^{a_i} = (beta_i).  Together with the fundamental units and a
torsion generator these give a finite-index subgroup of O_S^* in which
all searches below run.  The valuation matrix and alpha's negative
valuations are read off the witnesses, and a subfield's S-units take
theirs from the lying-over table (SubfieldRank.unit_vectors), so no
valuation is computed.  For fields of degree <= 2 the unit part
is the whole unit group: the roots of unity are read off the
discriminant in closed form (field._torsion_units) and the fundamental
unit comes from field.fundamental_unit.
Datasheet fields may declare less (their torsion is taken as +-1),
which only shrinks the search space, never breaks exactness.

A subfield F is a SubfieldDescriptor, which maps F into K through the
images of F's integral basis and pairs each prime of F above p with the
primes of K above it (lying_over); SubfieldRank reads S(F) off it.

Exponent vectors of S-units are read modulo torsion: the unit left
after the discrete log is torsion when FieldElement.is_root_of_unity
says so, the one finite-order test of the package.

One walk enumerates exponent vectors by shells of largest |exponent|
(_exponent_shells): the unit discrete log reads shells 0 .. DLOG_BOUND
(one unit) or 0 .. 8 (more), the alpha search shells 1 .. MAX_SHELL.

Alpha is selected by exhaustive shell search over exponent vectors,
rejecting vectors that fall into the rational span of the unit groups
of intermediate fields (the W test) and vectors that miss a required
negative valuation (the V test, automatic here because every finite
exponent c_i is >= 1, so v_{q_i}(alpha) = -c_i a_i < 0).  Every
property of the returned certificate is proved before it is emitted,
the power identity by an exact product.

O_S itself is exhausted by the levels Lambda_k = B^-k O_K, B = prod
beta_i, which the S-unit basis builds once each (SUnitBasis.level) as
the n rows of B^-k times the integral basis, with no HNF, as it builds
each power span (SUnitBasis.span), one kept triangle per stage.
PowerSpan.index, the one home of ring indices, reads [O_S : span] per
level as [L_J + Lambda_k : L_J], the level's rows inserted into a copy
of stage J's triangle, accepts it once three consecutive levels and a
degree enlargement agree, and rechecks its Lagrange containment.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import (CardinalityTooSmall, HypothesisFails,
                     InvariantViolated, NotStabilized, SearchExhausted)
from .field import (RATIONALS, FieldElement, _torsion_units,
                    format_rational, fundamental_unit, integer_rows,
                    span_solve)
from .ideals import class_order, factor_rational_prime
from .linalg import RatLattice, hnf, hnf_with_transform, vec_mat
from .polys import count_roots_in, root_bound, sturm_chain

# Work bounds: alpha-search exponent shells, the n of the [O_S : Z[alpha^n]]
# table, filtration levels, and the unit discrete log's shells for rank 1.
MAX_SHELL = 32
INDEX_EXPONENTS = (1, 2, 3)
LEVEL_BOUND = 12
DLOG_BOUND = 64


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
# S-unit bases.

class SUnitBasis:
    """Torsion, fundamental units and class-order witnesses over S.  The
    S-generators and the valuation matrix are read off the witnesses:
    class_order proved (beta_i) = P_i^{a_i}, and the P_i are distinct
    (PrimeSet), so beta_i's row is a_i e_i; a unit's row is zero."""

    __slots__ = ("field", "S", "torsion_order", "torsion_gen", "fund_units",
                 "s_gens", "class_witnesses", "valuation_matrix", "_levels",
                 "_product", "_binv", "_scale", "_spans")

    def __init__(self, field, S, torsion_order, torsion_gen, fund_units,
                 class_witnesses):
        self.field = field
        self.S = S
        self.torsion_order = torsion_order
        self.torsion_gen = torsion_gen
        self.fund_units = tuple(fund_units)
        self.class_witnesses = tuple(class_witnesses)
        self.s_gens = tuple(w.generator for w in self.class_witnesses)
        n = len(self.class_witnesses)
        self.valuation_matrix = (
            ((0,) * n,) * len(self.fund_units)
            + tuple(tuple(w.order if j == i else 0 for j in range(n))
                    for i, w in enumerate(self.class_witnesses)))
        self._levels = []
        self._product = self._binv = None  # B and B^-1
        self._scale = None  # B^-k for the next level k
        self._spans = {}

    @property
    def rank(self):
        return len(self.fund_units) + len(self.s_gens)

    def product(self):
        """B = prod beta_i, built once: v_P(B) = a_i >= 1 at the prime
        P_i of S and 0 at every prime outside S."""
        if self._product is None:
            self._product = prod(self.s_gens, start=self.field.one)
        return self._product

    def level(self, k):
        """Lambda_k = B^-k O_K as (den, rows): the n rows of B^-k times the
        integral basis, over B^-k's denominator; the union over k is O_S.
        Each level is built once and kept on the basis."""
        if self._binv is None:
            self._binv = self.product().inverse()
            self._scale = self.field.one
        while len(self._levels) <= k:
            s = self._scale
            self._levels.append((s.den, s._num_rows()))
            self._scale = s * self._binv
        return self._levels[k]

    def span(self, base, scale, extra=()):
        """The PowerSpan of scale * base^j (and its multiples by extra)
        over these levels, built once per key and kept on the basis."""
        key = (base, scale, tuple(extra))
        if key not in self._spans:
            self._spans[key] = PowerSpan(self, base, scale, extra)
        return self._spans[key]

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
    """Torsion, fundamental units, and class-order witnesses for S; the
    valuation matrix comes with the witnesses (SUnitBasis)."""
    w, zeta = _torsion_units(field)
    basis = SUnitBasis(field, S, w, zeta, _fund_units_of(field),
                       [class_order(P) for P in S.finite])
    if field.tier == "automatic" and basis.rank != S.card - 1:
        raise InvariantViolated("S-unit rank must be |S| - 1")
    return basis


# ---------------------------------------------------------------------------
# Subfields.

class SubfieldDescriptor:
    """A proper subfield F of K given by the image of its generator g,
    with the images in K of F's integral basis (basis, integer rows over
    one denominator) and, per rational prime, the lying-over table, each
    built once.  The pair is Q with 1 or a checked sheet subfield."""

    __slots__ = ("field", "subfield", "embedding", "basis", "_lying_over")

    def __init__(self, field, subfield, embedding):
        self.field = field
        self.subfield = subfield
        self.embedding = embedding
        # b_i = sum_j row_ij g^j / den over F's integer basis rows
        powers = [embedding ** i for i in range(subfield.degree)]
        images = [sum((g * c for g, c in zip(powers, row) if c), field.zero)
                  for row in subfield._ib_rows]
        self.basis = integer_rows([
            FieldElement(field, x.num, x.den * subfield._ib_den)
            for x in images])
        self._lying_over = {}

    def map_element(self, x):
        """Image in K of an element of F, through the basis rows."""
        den, rows = self.basis
        return FieldElement(self.field, vec_mat(x.num, rows), den * x.den)

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
    coefficients over the images of F's integral basis (F_desc.basis)
    are integral-basis coordinates in F."""
    F = F_desc.subfield
    den, rows = F_desc.basis
    basis = [FieldElement(field, r, den) for r in rows]
    sol = span_solve(basis + [field.theta * b for b in basis],
                     field.theta * field.theta)
    if sol is None:
        return None
    # theta^2 = A + B theta with A, B in F, so delta = theta - B/2 has
    # delta^2 = A + B^2/4 in F
    delta = field.theta - F_desc.map_element(F.from_ib(sol[F.degree:])) / 2
    # clear denominators and content so that delta is a primitive integer
    g = gcd(*delta.num)
    delta = field.from_ib([x // g for x in delta.num])
    d_K = -(delta * delta)
    coeffs = span_solve(basis, d_K)
    if coeffs is None:
        raise InvariantViolated("-delta^2 must lie in the subfield")
    d_F = F.from_ib(coeffs)
    if not _totally_positive(d_F):
        return None
    return CMStructure(F_desc, d_F, d_K, delta)


# ---------------------------------------------------------------------------
# Rank of the intersection with a subfield's S-units.

class SubfieldRank:
    """A subfield F with, from one pass over its lying-over table, each
    prime q of F below a prime of S mapped to the primes of K above it
    (above), S contracted to F (SF, those q), the qualifying (q, primes
    of K above q), those all of whose K-primes lie in S, and the rank of
    the intersection: rank(O_F^*) plus the number of qualifying q."""

    __slots__ = ("F", "SF", "above", "qualifying", "rank")

    def __init__(self, S, F_desc):
        self.F = F_desc
        self.above = {q: above for p in {P.p for P in S.finite}
                      for q, above in F_desc.lying_over(p)
                      if any(S.contains(P) for P in above)}
        self.SF = PrimeSet(F_desc.subfield, self.above, min_card=1)
        self.qualifying = [(q, self.above[q]) for q in self.SF.finite
                           if all(S.contains(P) for P in self.above[q])]
        r1, r2 = F_desc.subfield.signature
        self.rank = r1 + r2 - 1 + len(self.qualifying)

    def unsplit(self):
        """True when no finite prime of S(F) splits in K: each has a
        single prime of K above it, the member of S it came from, so each
        also qualifies."""
        return all(len(above) == 1 for above in self.above.values())

    def unit_vectors(self, sbasis):
        """Exponent vectors spanning (over Q) the S-units of K coming
        from units of the S(F)-integers of F.  Their valuations at S: 0
        for a unit; for the generator of q^a, a e(P|q) = a e(P|p) /
        e(q|p) at each P over q (ramification indices multiply in towers;
        Cohen, GTM 138, 4.8) and 0 elsewhere."""
        finite = sbasis.S.finite
        vectors = []
        labels = []
        for u in _fund_units_of(self.F.subfield):
            w = self.F.map_element(u)
            vectors.append(exponent_vector(sbasis, w, [0] * len(finite)))
            labels.append({"kind": "subfield_unit", "element": w.serialize()})
        for q, above in self.qualifying:
            witness = class_order(q)
            valuations = [0] * len(finite)
            for P in above:
                valuations[finite.index(P)] = witness.order * P.e // q.e
            w = self.F.map_element(witness.generator)
            vectors.append(exponent_vector(sbasis, w, valuations))
            labels.append({"kind": "subfield_class_generator",
                           "p": q.p, "element": w.serialize()})
        return vectors, labels


def rank_of_intersection(S, F_desc):
    """rank of (units of the S(F)-integers of F that remain S-units)."""
    return SubfieldRank(S, F_desc).rank


# ---------------------------------------------------------------------------
# Exponent vectors of S-units over a basis.

def exponent_vector(sbasis, w, valuations):
    """Rational exponents (over fund_units + s_gens) of an S-unit w,
    modulo torsion, given its valuations v_i at the primes P_i of S.
    Exact: with e_i = v_i / a_i, the residual w^M prod beta_i^(-e_i M)
    has valuation M (v_(P_i)(w) - v_i) at P_i and 0 outside S, so it is a
    unit, or InvariantViolated is raised, exactly when every v_i is
    right.  The unit is resolved by exact equality over the shells 0 ..
    DLOG_BOUND (one fundamental unit) or 0 .. 8 (more) of the alpha
    search's walk; the units are independent (asserted for datasheet
    fields), so at most one vector passes, whatever the order."""
    beta_exps = [Fraction(v, wit.order)
                 for v, wit in zip(valuations, sbasis.class_witnesses)]
    M = lcm(*(e.denominator for e in beta_exps))
    r = w ** M
    for b, e in zip(sbasis.s_gens, beta_exps):
        r = r * b ** (-int(e * M))
    if not (r.is_integral() and abs(r.norm()) == 1):
        raise InvariantViolated("residual must be a unit")
    nf = len(sbasis.fund_units)
    for cf, _ in _exponent_shells(nf, 0, 0, DLOG_BOUND if nf == 1 else 8):
        t = prod((u ** -e for e, u in zip(cf, sbasis.fund_units)), start=r)
        if t.is_root_of_unity():
            return tuple(Fraction(e, M) for e in cf) + tuple(beta_exps)
    raise SearchExhausted("unit discrete log out of range")


# ---------------------------------------------------------------------------
# The alpha search.

class AlphaCertificate:
    __slots__ = ("sbasis", "alpha", "torsion_exp", "fund_exps",
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


def _exponent_shells(nf, nb, first, last):
    """The one exponent walk: (cf, cb) over shells first .. last, shell s
    holding the vectors whose largest |exponent| is s, cb in [1, s]^nb
    outer, cf inner, each cf_i in the order 0, 1, -1, ..., s, -s."""
    for shell in range(first, last + 1):
        seq = [0] + [k * sign for k in range(1, shell + 1) for sign in (1, -1)]
        for cb in itertools.product(range(1, shell + 1), repeat=nb):
            for cf in itertools.product(seq, repeat=nf):
                if max(map(abs, cf + cb), default=0) == shell:
                    yield cf, cb


def choose_alpha(info):
    """Search for alpha in O_S^* with negative valuation at every finite
    prime of S, avoiding every intermediate field's S-unit span, and
    generating K; returns a fully verified certificate.

    info is classify_case's CaseInfo for K over S (case 1): its S-unit
    basis is searched, and each subfield of its rank table avoided.

    Deterministic: candidates are enumerated by _exponent_shells over
    shells 1 .. MAX_SHELL, with inverse class-generator exponents >= 1
    throughout (which settles the V-type conditions), fundamental-unit
    exponents in the order 0, 1, -1, 2, -2, ..., and the torsion exponent
    last.
    """
    sbasis = info.sbasis
    if info.case != 1:
        raise HypothesisFails(f"rank of the intersection with {info.case2.F!r}"
                              f" attains the S-unit rank {sbasis.rank}")
    field = sbasis.field
    spans = []
    for sr in info.subfields:
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
    for cf, cb in _exponent_shells(nf, nb, 1, MAX_SHELL):
        tried += 1
        vec = list(cf) + [-c for c in cb]
        if any(len(hnf(rows + [vec])) == span_rank
               for _, _, rows, span_rank, _ in spans):
            rejected_span += 1
            continue
        units, beta_part = field.one, field.one
        for e, fu in zip(cf, sbasis.fund_units):
            units = units * fu ** e
        for e, b in zip(cb, sbasis.s_gens):
            beta_part = beta_part * b ** (-e)
        for c0 in range(w):
            u = sbasis.torsion_gen ** c0 * units
            alpha = u * beta_part
            mp = alpha.minimal_poly()
            if len(mp) - 1 != field.degree:
                rejected_degree += 1
                continue
            return _certify_alpha(sbasis, alpha, u, c0, cf, cb, mp, spans,
                                  vec, tried, rejected_span, rejected_degree)
    raise SearchExhausted(f"no alpha within exponent shells up to {MAX_SHELL}")


def _certify_alpha(sbasis, alpha, u, c0, cf, cb, mp, spans, vec, tried,
                   rejected_span, rejected_degree):
    # v_{P_i}(alpha) = -c_i a_i < 0 (u a unit, rows of SUnitBasis, c_i >= 1)
    neg = [(P, -c * wit.order)
           for P, c, wit in zip(sbasis.S.finite, cb, sbasis.class_witnesses)]
    # exact power identity: alpha * prod beta^{c_i} is the absorbed unit
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
    for F, vectors, _, span_rank, labels in spans:
        avoidance["subfields"].append({
            "poly": list(F.subfield.poly),
            "span_vectors": [[format_rational(x) for x in row] for row in vectors],
            "span_rank": span_rank,
            "rank_with_alpha": span_rank + 1,  # vec passed the span test
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
    return AlphaCertificate(sbasis=sbasis, alpha=alpha,
                            torsion_exp=c0, fund_exps=list(cf),
                            beta_exps=[-c for c in cb],
                            neg_valuations=neg, minpoly=mp,
                            avoidance=avoidance, index_table=index_table,
                            unit_part=unit_part)


# ---------------------------------------------------------------------------
# Ring indices over the levels Lambda_k of the S-unit basis.

class PowerSpan:
    """Stage J is the Z-span of scale * base^j, j = 0..J, and of their
    multiples by each element of extra; each power is computed once and
    stage J is stage J - 1's triangle with only the new rows inserted
    (SUnitBasis.span)."""

    def __init__(self, sbasis, base, scale, extra=()):
        self.sbasis = sbasis
        self.base = base
        self.extra = extra
        self._pows = [scale]
        self._stages = [RatLattice(1, (), base.field.degree)]  # stage -1: zero
        self._presentations = {}
        self._index = None

    def _power(self, j):
        while len(self._pows) <= j:
            self._pows.append(self._pows[-1] * self.base)
        return self._pows[j]

    def elements(self, J):
        """The stage-J generators, powers first."""
        pows = [self._power(j) for j in range(J + 1)]
        return pows + [g * p for g in self.extra for p in pows]

    def presentation(self, J):
        """(den, H, T, K) for stage J, built on first use: den the common
        denominator of the stage generators, H = T @ rows the HNF of their
        integer rows over den, and K the canonical HNF of their relations
        on reversed coordinates (verification._canonical_coeffs)."""
        if J not in self._presentations:
            den, rows = integer_rows(self.elements(J))
            H, T, kernel = hnf_with_transform(rows)
            self._presentations[J] = (
                den, H, T, hnf([list(reversed(v)) for v in kernel]))
        return self._presentations[J]

    def lattice(self, J):
        while len(self._stages) <= J + 1:
            p = self._power(len(self._stages) - 1)
            new = (integer_rows([p] + [g * p for g in self.extra])
                   if self.extra else (p.den, [p.num]))
            self._stages.append(self._stages[-1].extend(*new))
        return self._stages[J + 1]

    def index(self):
        """(index, level, per-level values but None): [O_S : span], found
        once.  Level k reads [Lambda_k : Lambda_k cap L_J] = [L_J +
        Lambda_k : L_J], L_J stage J = k + 2 (None below full rank).  A
        value is accepted when levels k, k+1, k+2 agree and enlarging the
        degree at level k does not change it; then the Lagrange
        containment index * Lambda_k in stage k + 4, already built, is
        rechecked."""
        if self._index is None:
            level, per_level = self.sbasis.level, []
            for k in range(LEVEL_BOUND + 1):
                per_level.append(self.lattice(k + 2).sum_index(*level(k)))
                lvl = k - 2
                v = per_level[lvl] if lvl >= 0 else None
                if (v is not None and per_level[lvl:] == [v] * 3
                        and self.lattice(lvl + 3).sum_index(*level(lvl)) == v):
                    break
            else:
                raise NotStabilized(f"index did not stabilize within "
                                    f"{LEVEL_BOUND} filtration levels")
            den, rows = level(lvl)
            if not self.lattice(lvl + 4).contains(
                    den, [[v * x for x in r] for r in rows]):
                raise InvariantViolated("index * Lambda_k escapes the span")
            self._index = v, lvl, [x for x in per_level if x is not None]
        return self._index


def zalpha_index(sbasis, alpha, n):
    """(index, level): [O_S : Z[alpha^n]] with its stabilization level, S
    the prime set of sbasis."""
    return sbasis.span(alpha ** n, sbasis.field.one).index()[:2]
