import random
from fractions import Fraction

import pytest

from sgen2.errors import (CardinalityTooSmall, HypothesisFails,
                          NotStabilized, SearchExhausted)
from sgen2.field import create_field
from sgen2.generators import build_generators
from sgen2.ideals import factor_rational_prime, valuation
from sgen2.linalg import RatLattice
from sgen2 import linalg, sunits, verification
from sgen2.sunits import (PowerSpan, PrimeSet, SubfieldRank,
                          contract_prime_set, default_subfields,
                          element_lattice, exponent_vector, is_cm,
                          rank_of_intersection,
                          rational_subfield, s_unit_basis, zalpha_index)

import oracles
from instances import (ALL, DESK, gaussian_five, gaussian_two, rational_two,
                       search_alpha, sqrt2_seven, sqrt5_two, zeta5_nofinite)


# ---------------------------------------------------------------------------
# Prime sets.

def test_prime_set_is_canonical():
    k, S = gaussian_five()
    assert S.card == 3
    assert S.infinite_count == 1
    assert [p.hnf for p in S.finite] == [((1, 2), (0, 5)), ((1, 3), (0, 5))]
    # order of the input does not matter, duplicates collapse
    pa, pb = factor_rational_prime(k, 5)
    again = PrimeSet(k, [pb, pa, pb])
    assert [p.hnf for p in again.finite] == [p.hnf for p in S.finite]


def test_prime_set_cardinality_floor():
    q = create_field([-1, 1])
    with pytest.raises(CardinalityTooSmall):
        PrimeSet(q, [])
    qi = create_field([1, 0, 1])
    with pytest.raises(CardinalityTooSmall):
        PrimeSet(qi, [])
    # two infinite places alone are enough
    k, S = zeta5_nofinite()
    assert S.card == 2 and not S.finite


def test_prime_set_contains():
    k, S = sqrt2_seven()
    inside = S.finite[0]
    (outside,) = [p for p in factor_rational_prime(k, 7) if p.hnf != inside.hnf]
    assert S.contains(inside) and not S.contains(outside)


# ---------------------------------------------------------------------------
# Bases: torsion, fundamental units, class-order generators.

def test_basis_rational():
    k, S = rational_two()
    sb = s_unit_basis(k, S)
    assert (sb.torsion_order, sb.torsion_gen) == (2, -k.one)
    assert sb.fund_units == ()
    assert [b.serialize() for b in sb.s_gens] == [["2"]]
    assert sb.rank == 1 == S.card - 1
    assert sb.valuation_matrix == ((1,),)


def test_basis_gaussian_five():
    k, S = gaussian_five()
    sb = s_unit_basis(k, S)
    assert sb.torsion_order == 4
    assert sb.torsion_gen == k.theta
    assert sb.fund_units == ()
    assert [b.serialize() for b in sb.s_gens] == [["1", "2"], ["1", "-2"]]
    assert [w.order for w in sb.class_witnesses] == [1, 1]
    assert sb.valuation_matrix == ((1, 0), (0, 1))
    assert sb.rank == 2 == S.card - 1


def test_basis_gaussian_two():
    k, S = gaussian_two()
    sb = s_unit_basis(k, S)
    assert sb.torsion_order == 4
    # the ramified prime is principal with generator 1 + i
    assert [b.serialize() for b in sb.s_gens] == [["1", "1"]]
    assert sb.valuation_matrix == ((1,),)
    assert sb.rank == 1


def test_basis_sqrt2():
    k, S = sqrt2_seven()
    sb = s_unit_basis(k, S)
    assert (sb.torsion_order, sb.torsion_gen) == (2, -k.one)
    assert [u.serialize() for u in sb.fund_units] == [["1", "1"]]
    assert [b.serialize() for b in sb.s_gens] == [["1", "-2"]]
    assert sb.valuation_matrix == ((0,), (1,))
    assert sb.rank == 2 == S.card - 1


def test_basis_sqrt5():
    k, S = sqrt5_two()
    sb = s_unit_basis(k, S)
    assert [u.serialize() for u in sb.fund_units] == [["1/2", "1/2"]]
    # the inert prime (2) shows up with the associate 1 + sqrt 5 = 2 omega
    assert [b.serialize() for b in sb.s_gens] == [["1", "1"]]
    assert sb.valuation_matrix == ((0,), (1,))
    assert sb.rank == 2


def test_torsion_closed_form():
    # frozen from an enumeration of the norm-1 integral elements.  Most
    # polynomials here have a discriminant b^2 - 4c other than the
    # field's D, and a root t other than omega, so a closed form keyed on
    # the polynomial, or returning t for omega, fails
    for poly, want in (
            ([1, 0, 1], (4, ["0", "1"])),
            ([4, 0, 1], (4, ["0", "1/2"])),
            ([2, 2, 1], (4, ["1", "1"])),
            ([3, 0, 1], (6, ["1/2", "1/2"])),
            ([1, 1, 1], (6, ["1", "1"])),
            ([7, 0, 1], (2, ["-1", "0"])),
            ([163, 0, 1], (2, ["-1", "0"])),
            ([-5, 0, 1], (2, ["-1", "0"])),
            ([-1, 1], (2, ["-1"]))):
        k = create_field(poly)
        w, zeta = sunits._torsion_units(k)
        assert (w, zeta.serialize()) == want, poly
        power = zeta
        for _ in range(w - 1):
            assert power != k.one, poly
            power = power * zeta
        assert power == k.one, poly


def test_basis_zeta5():
    k, S = zeta5_nofinite()
    sb = s_unit_basis(k, S)
    # datasheet tier: torsion defaults to {1, -1}, which only shrinks
    # the search subgroup
    assert (sb.torsion_order, sb.torsion_gen) == (2, -k.one)
    assert [u.serialize() for u in sb.fund_units] == [["0", "0", "-1", "-1"]]
    assert sb.s_gens == () and sb.rank == 1 == S.card - 1
    assert sb.valuation_matrix == ((),)


def test_basis_valuations_recomputed():
    # the valuation matrix matches independent per-prime valuations
    for make in (gaussian_five, sqrt2_seven, sqrt5_two):
        k, S = make()
        sb = s_unit_basis(k, S)
        for i, g in enumerate(sb.fund_units + sb.s_gens):
            for j, P in enumerate(S.finite):
                assert sb.valuation_matrix[i][j] == valuation(g, P)


# ---------------------------------------------------------------------------
# Subfields, contraction, intersection ranks.

def test_rational_subfield_maps_constants():
    k = create_field([1, 0, 1])
    F = rational_subfield(k)
    assert F.subfield.degree == 1
    assert F.powers == [k.one]
    img = F.map_element(F.subfield.from_rational(Fraction(3, 7)))
    assert img == k.from_rational(Fraction(3, 7))


def test_default_subfields():
    k, _ = gaussian_five()
    subs = default_subfields(k)
    assert [F.subfield.poly for F in subs] == [(-1, 1)]
    kz, _ = zeta5_nofinite()
    subs = default_subfields(kz)
    assert [F.subfield.poly for F in subs] == [(-1, 1), (-5, 0, 1)]


def test_contraction():
    k, S = gaussian_five()
    F = rational_subfield(k)
    SF = contract_prime_set(S, F)
    assert SF.card == 2
    assert [q.p for q in SF.finite] == [5]
    # zeta5: contraction to Q keeps only the infinite place; card 1 is
    # fine for contracted sets
    kz, Sz = zeta5_nofinite()
    SQ = contract_prime_set(Sz, rational_subfield(kz))
    assert SQ.card == 1 and not SQ.finite


def test_lying_over_partitions_the_primes_above_p():
    # Q(i) over Q at the ramified 2, the inert 3 and the split 5, and
    # Q(zeta5) over Q(sqrt 5) at the ramified 5 and the split 11
    k = create_field([1, 0, 1])
    kz, _ = zeta5_nofinite()
    shapes = {}
    for F, p in ((rational_subfield(k), 2), (rational_subfield(k), 3),
                 (rational_subfield(k), 5), (default_subfields(kz)[1], 5),
                 (default_subfields(kz)[1], 11)):
        table = F.lying_over(p)
        assert [q for q, _ in table] == list(
            factor_rational_prime(F.subfield, p))
        listed = [P for _, above in table for P in above]
        assert sorted(P.hnf for P in listed) == sorted(
            P.hnf for P in factor_rational_prime(F.field, p))
        index = F.field.degree // F.subfield.degree
        for q, above in table:
            assert sum(P.e * P.f for P in above) == index * q.e * q.f
        shapes[(F.field.degree, p)] = [len(above) for _, above in table]
        assert F.lying_over(p) is table
    assert shapes == {(2, 2): [1], (2, 3): [1], (2, 5): [2], (4, 5): [1],
                      (4, 11): [2, 2]}


def test_rank_of_intersection_goldens():
    k, S = gaussian_two()
    assert rank_of_intersection(S, rational_subfield(k)) == 1

    k, S = gaussian_five()
    assert rank_of_intersection(S, rational_subfield(k)) == 1

    k, S = sqrt2_seven()
    # the other prime above 7 is outside S, so (7) does not qualify
    assert rank_of_intersection(S, rational_subfield(k)) == 0

    k, S = sqrt5_two()
    assert rank_of_intersection(S, rational_subfield(k)) == 1

    kz, Sz = zeta5_nofinite()
    ranks = {tuple(F.subfield.poly): rank_of_intersection(Sz, F)
             for F in default_subfields(kz)}
    assert ranks == {(-1, 1): 0, (-5, 0, 1): 1}


# ---------------------------------------------------------------------------
# CM detection.

def test_is_cm_quadratic():
    k, _ = gaussian_two()
    cm = is_cm(k)
    assert cm is not None
    assert cm.d_in_K == k.one
    assert cm.sqrt_minus_d == k.theta
    assert cm.sqrt_minus_d ** 2 == -cm.d_in_K
    for make in (rational_two, sqrt2_seven, sqrt5_two):
        f, _ = make()
        assert is_cm(f) is None


def test_is_cm_zeta5():
    kz, _ = zeta5_nofinite()
    cm = is_cm(kz)
    assert cm is not None
    assert cm.F.subfield.poly == (-5, 0, 1)
    assert cm.d_in_F.serialize() == ["5/2", "1/2"]
    assert cm.d_in_K.serialize() == ["2", "0", "-1", "-1"]
    assert cm.sqrt_minus_d.serialize() == ["1", "2", "1", "1"]
    assert cm.sqrt_minus_d ** 2 == -cm.d_in_K
    assert cm.F.map_element(cm.d_in_F) == cm.d_in_K


# ---------------------------------------------------------------------------
# Exponent vectors.

def test_exponent_vector_strips_torsion():
    k, S = gaussian_five()
    sb = s_unit_basis(k, S)
    w = sb.s_gens[0] * sb.s_gens[1] ** 2 * k.theta
    assert exponent_vector(sb, w) == (Fraction(1), Fraction(2))


def test_exponent_vector_with_fundamental_part():
    k, S = sqrt5_two()
    sb = s_unit_basis(k, S)
    w = sb.fund_units[0] ** 3 * sb.s_gens[0] ** 2 * (-1)
    assert exponent_vector(sb, w) == (Fraction(3), Fraction(2))
    assert exponent_vector(sb, sb.fund_units[0] ** -5) == (Fraction(-5),
                                                           Fraction(0))


def test_subfield_unit_vectors_sqrt5():
    k, S = sqrt5_two()
    sb = s_unit_basis(k, S)
    vecs, labels = SubfieldRank(S, rational_subfield(k)).unit_vectors(sb)
    # 2 = beta * omega^-1, so the span of units from Q is (-1, 1)
    assert vecs == [(Fraction(-1), Fraction(1))]
    assert labels[0]["kind"] == "subfield_class_generator"


def test_subfield_unit_vectors_sqrt2_empty():
    k, S = sqrt2_seven()
    sb = s_unit_basis(k, S)
    vecs, _ = SubfieldRank(S, rational_subfield(k)).unit_vectors(sb)
    assert vecs == []


# ---------------------------------------------------------------------------
# The alpha search.

def test_alpha_rational():
    k, S = rational_two()
    cert = search_alpha(k, S)
    assert cert.alpha == k.from_rational(Fraction(1, 2))
    assert (cert.torsion_exp, cert.fund_exps, cert.beta_exps) == (0, [], [-1])
    assert [(p.p, v) for p, v in cert.neg_valuations] == [(2, -1)]
    assert cert.minpoly == (Fraction(-1, 2), Fraction(1))
    assert cert.avoidance["candidates_tried"] == 1
    assert cert.index_table == [(1, 1, 0), (2, 1, 0), (3, 1, 0)]


def test_alpha_gaussian_five():
    k, S = gaussian_five()
    cert = search_alpha(k, S)
    assert cert.alpha.serialize() == ["1/25", "2/25"]
    assert cert.beta_exps == [-1, -2]
    # valuation vector (-1, -2) is not proportional to the W span (1, 1)
    assert [(p.p, v) for p, v in cert.neg_valuations] == [(5, -1), (5, -2)]
    assert cert.minpoly == (Fraction(1, 125), Fraction(-2, 25), Fraction(1))
    assert len(cert.minpoly) - 1 == k.degree
    # the shell-1 candidate (1, 1) fell into the span from Q
    assert cert.avoidance["candidates_tried"] == 2
    assert cert.avoidance["rejected_by_subfield_span"] == 1
    assert cert.index_table == [(1, 2, 0), (2, 4, 0), (3, 2, 0)]


def test_alpha_sqrt2():
    k, S = sqrt2_seven()
    cert = search_alpha(k, S)
    assert cert.alpha.serialize() == ["-1/7", "-2/7"]
    assert (cert.fund_exps, cert.beta_exps) == ([0], [-1])
    assert cert.avoidance["candidates_tried"] == 1
    assert cert.index_table == [(1, 2, 0), (2, 4, 0), (3, 22, 0)]


def test_alpha_sqrt5():
    k, S = sqrt5_two()
    cert = search_alpha(k, S)
    assert cert.alpha.serialize() == ["-1/4", "1/4"]
    assert (cert.fund_exps, cert.beta_exps) == ([0], [-1])
    # (0, -1) is independent of the span vector (-1, 1): first try wins
    assert cert.avoidance["candidates_tried"] == 1
    assert cert.avoidance["rejected_by_subfield_span"] == 0
    assert cert.index_table == [(1, 1, 0), (2, 1, 0), (3, 1, 0)]


def test_alpha_certificate_identities():
    # alpha^m * prod beta^{b_i} is a unit of O_K, exactly
    for make in (rational_two, gaussian_five, sqrt2_seven, sqrt5_two):
        k, S = make()
        cert = search_alpha(k, S)
        w = cert.alpha
        for b, bexp in zip(s_unit_basis(k, S).s_gens, cert.unit_part["beta_exponents"]):
            w = w * b ** bexp
        assert w.is_integral() and abs(w.norm()) == 1
        for P, v in cert.neg_valuations:
            assert v < 0 and valuation(cert.alpha, P) == v


def test_alpha_hypothesis_fails_on_cm_equality():
    with pytest.raises(HypothesisFails):
        search_alpha(*gaussian_two())
    with pytest.raises(HypothesisFails):
        search_alpha(*zeta5_nofinite())


def test_alpha_search_exhausted(monkeypatch):
    k, S = gaussian_five()
    monkeypatch.setattr(sunits, "MAX_SHELL", 0)
    with pytest.raises(SearchExhausted):
        search_alpha(k, S)


# ---------------------------------------------------------------------------
# The filtration index, against the independent oracle.

def test_zalpha_oracle_agreement():
    for make, table in (
            (rational_two, {1: 1, 2: 1, 3: 1}),
            (gaussian_five, {1: 2, 2: 4, 3: 2}),
            (sqrt2_seven, {1: 2, 2: 4, 3: 22}),
            (sqrt5_two, {1: 1, 2: 1, 3: 1})):
        k, S = make()
        cert = search_alpha(k, S)
        for n, expect in table.items():
            index, _ = zalpha_index(cert.sbasis, cert.alpha, n)
            assert index == expect
            assert oracles.zalpha_levels(k, S, cert.alpha, n, 4) == [expect] * 5


def test_zalpha_not_stabilized():
    # Z[i] has infinite index in O_S once denominators at 5 exist
    k, S = gaussian_five()
    with pytest.raises(NotStabilized):
        zalpha_index(s_unit_basis(k, S), k.theta, 1)


def test_sunit_basis_levels_rational():
    k, S = rational_two()
    sb = s_unit_basis(k, S)
    for j in range(4):
        lam = sb.level(j)
        assert lam.contains(RatLattice(2 ** j, [[1]], 1))
        assert not lam.contains(RatLattice(2 ** (j + 1), [[1]], 1))
    # each level is built once and kept on the basis
    assert sb.level(2) is sb.level(2)


def test_level_index_matches_coset_oracle():
    # [Lambda_k : Lambda_k cap L_J] at J = k + 2 for L_J the span of
    # x^(n j), j <= J, read through the sum lattice, against the oracle's
    # power-basis levels and Smith form
    def levels(sb, x, n):
        k = sb.field
        span = PowerSpan(x ** n, k.one)
        out = []
        for lvl in range(5):
            J = lvl + 2
            gens = [oracles.pb_pow(k, x.power_coords(), n * j)
                    for j in range(J + 1)]
            got = sb.level(lvl).sum_index(span.lattice(J))
            assert got == oracles.coset_index(k, sb, gens, lvl)
            out.append(got)
        return out

    k, S = gaussian_five()
    sb = s_unit_basis(k, S)
    assert levels(sb, k.theta, 1) == [25 ** lvl for lvl in range(5)]
    assert levels(sb, k.from_rational(2), 1) == [None] * 5  # rank 1
    for make in DESK:
        cert = build_generators(*make()).alpha_cert
        for n in (1, 2, 3):
            assert None not in levels(cert.sbasis, cert.alpha, n)


def _over(poly, *primes):
    k = create_field(poly)
    return k, PrimeSet(k, [P for p in primes
                           for P in factor_rational_prime(k, p)])


def _bare_alpha(monkeypatch, k, S):
    """The alpha the search picks, without the certificate's index table
    (which raises NotStabilized on some of these fields)."""
    with monkeypatch.context() as m:
        m.setattr(sunits, "INDEX_EXPONENTS", ())
        return search_alpha(k, S)


def _oracle_stage(k, scale, base, extra, J):
    """Power-basis coordinates of the stage-J generators of
    PowerSpan(base, scale, extra), from the oracle's products."""
    pows = [scale.power_coords()]
    for _ in range(J):
        pows.append(oracles.pb_mul(k, pows[-1], base.power_coords()))
    return pows + [oracles.pb_mul(k, g.power_coords(), p)
                   for g in extra for p in pows]


def _case2_span(t):
    """The K-side span of the case-2 ladder of triple t, with the shape."""
    shape = verification.prove_shape(t)
    mF = verification.ideal_ladder(shape, "search")["m"]
    cm = t.case_info.cm
    scale = shape.h ** 3 * cm.d_in_K * t.field.from_rational(mF)
    return shape, scale, PowerSpan(shape.a2, scale,
                                   extra=(cm.sqrt_minus_d,))


def test_power_span_stages_match_scratch():
    # stage J grows from stage J - 1 by inserting its new rows; it must
    # equal the lattice of all stage-J generators eliminated from scratch
    def check(span):
        span.lattice(8)
        for J in range(9):
            assert span.lattice(J) == element_lattice(span.elements(J)), J

    for make in DESK:
        cert = build_generators(*make()).alpha_cert
        for n in (1, 2, 3):
            check(PowerSpan(cert.alpha ** n, cert.field.one))
    shape = verification.prove_shape(build_generators(*gaussian_five()))
    assert shape.triple.case_info.case == 1
    check(shape.lower)
    check(shape.upper)
    t = build_generators(*gaussian_two())
    assert t.case_info.case == 2
    check(_case2_span(t)[2])


def test_level_index_matches_oracle_beyond_desk(monkeypatch):
    # [Lambda_k + L_{k+2} : L_{k+2}] for k <= 4 against the oracle's
    # Smith form, on fields and prime sets outside the desk instances
    def check(k, sb, span, base, scale, extra=()):
        out = []
        for lvl in range(5):
            J = lvl + 2
            got = sb.level(lvl).sum_index(span.lattice(J))
            gens = _oracle_stage(k, scale, base, extra, J)
            assert got == oracles.coset_index(k, sb, gens, lvl), lvl
            out.append(got)
        return out

    cases = {"Q over 2, 3": ([-1, 1], (2, 3)),
             "Q(sqrt 2) over 7, 17": ([-2, 0, 1], (7, 17)),
             "Q(sqrt 13) over 3": ([-13, 0, 1], (3,)),
             "Q(sqrt -3) over 2, 13": ([1, 1, 1], (2, 13))}
    seen = {}
    for name, (poly, primes) in cases.items():
        k, S = _over(poly, *primes)
        cert = _bare_alpha(monkeypatch, k, S)
        for n in (1, 2, 3):
            a = cert.alpha ** n
            seen[name, n] = check(k, cert.sbasis, PowerSpan(a, k.one), a,
                                  k.one)
    assert seen["Q(sqrt 2) over 7, 17", 3] == [5] * 5
    assert seen["Q(sqrt 13) over 3", 3] == [10] * 5
    # the per-level values of alpha itself agree, but enlarging the
    # degree at each level changes them: still no stabilized index
    k, S = _over([1, 1, 1], 2, 13)
    cert = _bare_alpha(monkeypatch, k, S)
    assert seen["Q(sqrt -3) over 2, 13", 1] == [2] * 5
    with pytest.raises(NotStabilized):
        zalpha_index(cert.sbasis, cert.alpha, 1)
    # the quartic sheet: four-row triangles on its case-2 K-side span
    t = build_generators(*zeta5_nofinite())
    shape, scale, span = _case2_span(t)
    assert check(t.field, t.case_info.sbasis, span, shape.a2, scale,
                 (t.case_info.cm.sqrt_minus_d,)) == [100] * 5


def test_alpha_index_table_work_count(monkeypatch):
    # the three zalpha_index calls of an alpha report on Q(sqrt 118)
    # over 5: one elimination per level Lambda_0..2 (kept on the basis),
    # then only row insertions, one per stage row and one per level row
    # of each (level, stage) pair; eliminating every pair from scratch
    # took 24 eliminations
    counts = {"_echelon": 0, "_insert": 0}
    inside = []
    for name in counts:
        def counted(*args, _f=getattr(linalg, name), _n=name):
            counts[_n] += bool(inside)
            return _f(*args)
        monkeypatch.setattr(linalg, name, counted)

    def zalpha(sbasis, alpha, n):
        inside.append(n)
        try:
            return zalpha_index(sbasis, alpha, n)
        finally:
            inside.pop()
    monkeypatch.setattr(sunits, "zalpha_index", zalpha)
    cert = search_alpha(*_over([-118, 0, 1], 5))
    assert [row[1:] for row in cert.index_table] == [
        (28254, 0), (17343265836, 0), (2129177248229394, 0)]
    assert counts == {"_echelon": 3, "_insert": 39}


def test_random_s_units_have_integer_exponents():
    rng = random.Random(11)
    k, S = gaussian_five()
    sb = s_unit_basis(k, S)
    for _ in range(25):
        e1, e2 = rng.randrange(-4, 5), rng.randrange(-4, 5)
        tz = rng.randrange(4)
        w = sb.s_gens[0] ** e1 * sb.s_gens[1] ** e2 * sb.torsion_gen ** tz
        assert exponent_vector(sb, w) == (Fraction(e1), Fraction(e2))
