"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line with the measured values
(written through the capture so it shows up in a plain pytest run) and
then asserts.  Everything is exact arithmetic; the only tolerances are
the stated wall clock budgets.
"""

import random
import time

from sgen2.generators import build_generators, classify_case
from sgen2.ideals import factor_rational_prime
from sgen2.linalg import RatLattice, int_det
from sgen2.sunits import (choose_alpha, default_subfields,
                          rank_of_intersection, s_unit_basis, zalpha_index)
from sgen2.verification import (admissible_primes, elementary_witness,
                                identity_suite, modp_surjectivity,
                                prove_shape, reduce_triple)

from instances import (ALL, DESK, gaussian_five, gaussian_two, rational_two,
                       sqrt2_seven, sqrt5_two)
from oracles import _pm_mul, pm_pow, pm_rows, valuation_ladder, zalpha_levels

CASE_ONE = [rational_two, gaussian_five, sqrt2_seven, sqrt5_two]

PRIMES_BELOW_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _report(capsys, ok, line):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n{tag} {line}")
    assert ok, line


def test_criterion_1_example_i(capsys):
    t0 = time.monotonic()
    field, S = gaussian_two()
    info = classify_case(field, S)
    sb = info.sbasis
    fq = default_subfields(field)[0]
    ri = rank_of_intersection(S, fq)
    dt = time.monotonic() - t0
    ok = (S.card == 2 and sb.rank == 1 and ri == 1 and info.case == 2
          and dt < 1.0)
    _report(capsys, ok,
            f"criterion 1: gaussian field over 2: card={S.card} "
            f"s_unit_rank={sb.rank} intersection_rank={ri} "
            f"case={info.case} in {dt:.3f}s (budget 1s)")


def test_criterion_2_example_ii(capsys):
    t0 = time.monotonic()
    field, S = gaussian_five()
    info = classify_case(field, S)
    sb = info.sbasis
    (row,) = info.subfields  # Q's row of the rank table, with S(Q)
    sq = row.SF
    dt = time.monotonic() - t0
    ok = (row.F is default_subfields(field)[0]
          and S.card == 3 and sb.rank == 2 and sq.card - 1 == 1
          and info.case == 1 and dt < 1.0)
    _report(capsys, ok,
            f"criterion 2: gaussian field over 5: card={S.card} "
            f"s_unit_rank={sb.rank} subfield_rank={sq.card - 1} "
            f"case={info.case} in {dt:.3f}s (budget 1s)")


def test_criterion_3_generator_suite(capsys):
    t0 = time.monotonic()
    identity_total = 0
    modp_total = 0
    rational_reached = {}
    for build in DESK:
        field, S = build()
        t = build_generators(field, S)
        shape = prove_shape(t)
        rep = identity_suite(shape, range(-5, 6), range(-5, 6), range(1, 6))
        assert rep["passed"], build.__name__
        identity_total += rep["exponent_identities"]
        for R, m in admissible_primes(shape, 10, 100):
            assert m == modp_surjectivity(R, reduce_triple(t, R))
            assert m["passed"], (build.__name__, m["q"])
            modp_total += 1
            if build is rational_two:
                rational_reached[m["q"]] = m["reached"]
    dt = time.monotonic() - t0
    ok = (rational_reached[3] == 24 and rational_reached[5] == 120
          and modp_total == 10 * len(DESK) and dt < 60.0)
    _report(capsys, ok,
            f"criterion 3: {len(DESK)} desk instances, "
            f"{identity_total} exponent identities, {modp_total} residue "
            f"surjectivity checks (q=3 reached {rational_reached[3]}, "
            f"q=5 reached {rational_reached[5]}) in {dt:.1f}s (budget 60s)")


def test_criterion_4_alpha_certificates(capsys):
    instances = 0
    oracle_checks = 0
    for build in CASE_ONE:
        field, S = build()
        info = classify_case(field, S)
        cert = choose_alpha(info)
        # the negative valuations read off the witnesses are alpha's
        assert [P for P, _ in cert.neg_valuations] == list(S.finite)
        for P, v in cert.neg_valuations:
            assert v < 0 and valuation_ladder(cert.alpha, P) == v, \
                build.__name__
        assert len(cert.minpoly) - 1 == field.degree, build.__name__
        for n in (1, 2, 3):
            index, _ = zalpha_index(info.sbasis, cert.alpha, n)
            assert isinstance(index, int) and index >= 1
            levels = zalpha_levels(field, S, cert.alpha, n, 4)
            assert levels == [index] * 5, (build.__name__, n)
            oracle_checks += 5
        instances += 1
    _report(capsys, True,
            f"criterion 4: {instances} case-1 certificates, negative "
            f"valuations and minpoly degrees verified, {oracle_checks} "
            f"oracle level comparisons all exact")


def test_criterion_5_witness_suite(capsys):
    field, S = gaussian_five()
    t = build_generators(field, S)
    shape = prove_shape(t)
    k = t.field
    a2 = t.alpha_in_K ** 2
    gamma, psi1 = pm_rows(t.gamma.rows), pm_rows(t.psi1.rows)
    rng = random.Random(2026)
    t0 = time.monotonic()
    found = 0
    for _ in range(100):
        c0, c1, c2 = (rng.randrange(-5, 6) for _ in range(3))
        x = (k.one * c0 + a2 * c1 + a2 * a2 * c2) * t.h
        w = elementary_witness(shape, x, "lower")
        # the word multiplied out in the oracle's power-basis products
        acc = pm_pow(k, gamma, 0)
        for j, c in w.word:
            for factor in (pm_pow(k, gamma, j), pm_pow(k, psi1, c),
                           pm_pow(k, gamma, -j)):
                acc = _pm_mul(k, acc, factor)
        assert acc == pm_rows(((k.one, k.zero), (x, k.one)))
        found += 1
    dt = time.monotonic() - t0
    ok = found == 100 and dt < 10.0
    _report(capsys, ok,
            f"criterion 5: witness words for {found}/100 sampled targets, "
            f"each evaluated exactly, in {dt:.2f}s (budget 10s)")


def _random_square(rng, n, spread):
    return [[rng.randrange(-spread, spread + 1) for _ in range(n)]
            for _ in range(n)]


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def test_criterion_6_invariant_battery(capsys):
    # rank(O_S^*) = card(S) - 1 on every automatic-tier instance
    for build in DESK:
        field, S = build()
        assert s_unit_basis(field, S).rank == S.card - 1, build.__name__

    # index multiplicativity on nested lattice triples
    rng = random.Random(6)
    triples = 0
    while triples < 50:
        n = rng.randrange(2, 5)
        a = _random_square(rng, n, 4)
        m = _random_square(rng, n, 3)
        w = _random_square(rng, n, 3)
        if int_det(a) == 0 or int_det(m) == 0 or int_det(w) == 0:
            continue
        b = _mat_mul(m, a)
        c = _mat_mul(w, b)
        # a > b > c, so [a : b] = [b + a : b] and so on
        lb, lc = (RatLattice(1, x, n) for x in (b, c))
        ab = lb.sum_index(1, a)
        bc = lc.sum_index(1, b)
        ac = lc.sum_index(1, a)
        assert ab == abs(int_det(m)) and bc == abs(int_det(w))
        assert ac == ab * bc
        triples += 1

    # sum of e_i f_i equals the degree, all p < 50, quadratic fields
    splittings = 0
    for build in (gaussian_two, sqrt2_seven, sqrt5_two):
        field, _ = build()
        for p in PRIMES_BELOW_50:
            factors = factor_rational_prime(field, p)
            assert sum(P.e * P.f for P in factors) == 2, (build.__name__, p)
            splittings += 1

    # determinant 1 for every emitted matrix
    matrices = 0
    for build in ALL:
        field, S = build()
        t = build_generators(field, S)
        for mat in (t.gamma, t.psi1, t.psi2):
            (a, b), (c, d) = mat.rows
            det = a * d - b * c
            assert det == field.one, build.__name__
            matrices += 1

    _report(capsys, True,
            f"criterion 6: rank identity on {len(DESK)} instances, "
            f"index multiplicativity on {triples} lattice triples, "
            f"{splittings} prime splittings, det checked on "
            f"{matrices} matrices, zero failures")
