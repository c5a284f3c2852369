from fractions import Fraction

import pytest

from sgen2 import cli, generators
from sgen2.errors import InconsistentCM
from sgen2.field import create_field
from sgen2.generators import SL2Element, build_generators, classify_case
from sgen2.ideals import factor_rational_prime
from sgen2.sunits import (PrimeSet, SubfieldRank, default_subfields,
                          rational_subfield, s_unit_basis)

from instances import (ALL, gaussian_five, gaussian_two, rational_two,
                       sqrt2_seven, sqrt5_two, zeta5_nofinite)
from test_field import ZETA5_DATASHEET


# ---------------------------------------------------------------------------
# SL2 elements.

def test_sl2_determinant_enforced():
    k = create_field([1, 0, 1])
    with pytest.raises(ValueError):
        SL2Element(k, ((k.one, k.zero), (k.zero, k.from_rational(2))))


# ---------------------------------------------------------------------------
# Classification.

def test_classification_goldens():
    expected = {
        rational_two: (1, 1, None),
        gaussian_two: (2, 1, (-1, 1)),
        gaussian_five: (1, 2, None),
        sqrt2_seven: (1, 2, None),
        sqrt5_two: (1, 2, None),
        zeta5_nofinite: (2, 1, (-5, 0, 1)),
    }
    for make, (case, rank, f_poly) in expected.items():
        k, S = make()
        info = classify_case(k, S)
        assert info.case == case, make.__name__
        assert info.sbasis.rank == rank
        if f_poly is None:
            assert info.case2 is None
        else:
            assert info.case2.F.subfield.poly == f_poly


def test_classification_rank_table():
    k, S = zeta5_nofinite()
    info = classify_case(k, S)
    assert [(sr.F.subfield.poly, sr.rank) for sr in info.subfields] == \
        [((-1, 1), 0), ((-5, 0, 1), 1)]


def test_split_prime_check():
    k, S = gaussian_five()
    # 5 splits: its contraction has two primes of K above it
    assert not SubfieldRank(S, rational_subfield(k)).unsplit()
    k, S = gaussian_two()
    assert SubfieldRank(S, rational_subfield(k)).unsplit()
    kz, Sz = zeta5_nofinite()
    assert SubfieldRank(Sz, default_subfields(kz)[1]).unsplit()


def test_classification_guard_on_mismatched_basis(monkeypatch):
    k = create_field([1, 0, 1])
    small = PrimeSet(k, list(factor_rational_prime(k, 2)))
    big = PrimeSet(k, list(factor_rational_prime(k, 2))
                   + list(factor_rational_prime(k, 5)))
    monkeypatch.setattr(generators, "s_unit_basis",
                        lambda field, S: s_unit_basis(field, small))
    with pytest.raises(InconsistentCM):
        classify_case(k, big)


def zeta5_conjugate_sqrt5():
    # Q(zeta5) declaring sqrt 5 through the conjugate root
    # 1 + 2 zeta^2 + 2 zeta^3 instead of the usual -(1 + 2 zeta^2 + 2 zeta^3)
    sheet = dict(ZETA5_DATASHEET,
                 subfields=[{"poly": [-5, 0, 1], "embedding": [1, 0, 2, 2]}])
    k = create_field([1, 1, 1, 1, 1], datasheet=sheet)
    return k, PrimeSet(k, [])


def zeta8_sqrt2_twice():
    # Q(zeta8) declaring Q(sqrt 2) twice, through sqrt 2 = t - t^3 and
    # through -sqrt 2; S is the infinite places alone
    import census
    _, poly, units, _ = census.CLASS_NUMBER_ONE[0]
    k = create_field(poly, census._sheet(
        poly, units, [([-2, 0, 1], [0, 1, 0, -1]),
                      ([-2, 0, 1], [0, -1, 0, 1])], ()))
    return k, PrimeSet(k, [])


def test_cm_subfield_matched_by_identity():
    # the CM subfield is the descriptor is_cm returns, one of those the
    # rank table ranks: a descriptor through the conjugate root of x^2 - 5
    # classifies like the usual one
    kz, Sz = zeta5_conjugate_sqrt5()
    info = classify_case(kz, Sz)
    assert info.case == 2
    assert info.case2.F is info.cm.F
    assert info.case2.F.embedding.serialize() == ["1", "0", "2", "2"]
    # Q(sqrt 2) twice: both attain the rank, and the one is_cm returns,
    # the first, is chosen
    k, S = zeta8_sqrt2_twice()
    info = classify_case(k, S)
    _, first, second = default_subfields(k)
    assert [sr.rank for sr in info.subfields] == [0, 1, 1]
    assert info.case == 2
    assert info.case2.F is info.cm.F is first
    assert second.embedding == -first.embedding


# ---------------------------------------------------------------------------
# The triples.

def test_triple_rational():
    k, S = rational_two()
    t = build_generators(k, S)
    half = k.from_rational(Fraction(1, 2))
    assert t.gamma.rows == ((half, k.zero), (k.zero, k.from_rational(2)))
    assert t.psi1.rows == ((k.one, k.zero), (k.one, k.one))
    assert t.psi2.rows == ((k.one, k.one), (k.zero, k.one))
    assert t.case_info.case == 1 and t.h == 1
    assert t.alpha_in_K == half


def test_triple_gaussian_two_case2():
    k, S = gaussian_two()
    t = build_generators(k, S)
    half = k.from_rational(Fraction(1, 2))
    # alpha lives in Q and maps up; psi2 carries h * sqrt(-d) = i
    assert t.alpha_cert.sbasis.field.degree == 1
    assert t.alpha_in_K == half
    assert t.gamma.rows[0][0] == half
    assert t.gamma.rows[1][1] == k.from_rational(2)
    assert t.psi2.rows == ((k.one, k.theta), (k.zero, k.one))
    assert t.psi1.rows == ((k.one, k.zero), (k.one, k.one))


def test_triple_gaussian_five():
    k, S = gaussian_five()
    t = build_generators(k, S)
    assert t.alpha_in_K.serialize() == ["1/25", "2/25"]
    assert t.gamma.rows[0][0] == t.alpha_in_K
    assert t.gamma.rows[1][1] == t.alpha_in_K.inverse()
    assert t.gamma.rows[1][1].serialize() == ["5", "-10"]
    assert t.psi2.rows[0][1] == k.one


def test_triple_zeta5():
    kz, Sz = zeta5_nofinite()
    t = build_generators(kz, Sz)
    assert t.case_info.case == 2
    # alpha is the fundamental unit of the real subfield, mapped up
    assert t.alpha_cert.alpha.serialize() == ["1/2", "1/2"]
    assert t.alpha_in_K.serialize() == ["0", "0", "-1", "-1"]
    assert t.psi2.rows[0][1] == t.case_info.cm.sqrt_minus_d
    assert t.psi2.rows[0][1].serialize() == ["1", "2", "1", "1"]
    # gamma's entries are units: no finite primes in S at all
    assert t.alpha_in_K.is_integral()
    assert abs(t.alpha_in_K.norm()) == 1


def test_triple_h_exponent():
    k, S = sqrt5_two()
    t = build_generators(k, S, h=2)
    assert t.gamma.rows[0][0].serialize() == ["3/8", "-1/8"]
    assert t.gamma.rows[1][1].serialize() == ["6", "2"]
    assert t.psi1.rows[1][0] == k.from_rational(2)
    assert t.psi2.rows[0][1] == k.from_rational(2)
    with pytest.raises(ValueError):
        build_generators(k, S, h=0)


def test_triple_determinants():
    for make in ALL:
        k, S = make()
        t = build_generators(k, S)
        for m in t.matrices():
            d = m.rows[0][0] * m.rows[1][1] - m.rows[0][1] * m.rows[1][0]
            assert d == k.one


def test_triple_conjugate_descriptor_builds():
    t = build_generators(*zeta5_conjugate_sqrt5())
    assert t.alpha_in_K.serialize() == ["1", "0", "1", "1"]
    assert abs(t.alpha_in_K.norm()) == 1


def test_serialize_shape():
    # the triple section of a case-2 verify report, whose repeats of the
    # analysis and alpha sections are the same objects
    rep = cli.run_instance(cli.validate_config(
        {"field": {"poly": [1, 0, 1]}, "S": [{"p": 2}]}), "verify")
    out = rep["triple"]
    assert out["case"] == 2
    assert out["alpha_in_K"] == ["1/2", "0"]
    assert set(out) >= {"case", "h", "classification", "alpha",
                        "gamma", "psi1", "psi2"}
    assert rep["triple"]["alpha"] is rep["alpha"]["certificate"]
    assert rep["triple"]["classification"] is \
        rep["analysis"]["classification"]
    assert rep["analysis"]["classification"]["cm"] is rep["analysis"]["cm"]
