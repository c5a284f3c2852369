"""End-to-end command line tests.

Everything goes through cli.main(argv) with configs written to disk and
reports read back via --out, the way a user drives the tool.  Exit codes
under test: 0 success, 1 malformed input, 2 hypothesis failure, 3 a
verification check failed.
"""

import hashlib
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from sgen2 import cli, generators, ideals, linalg, sunits, verification
from sgen2 import field as field_module
from sgen2.errors import ConfigInvalid
from test_field import ZETA5_CLASS_ORDER, ZETA5_DATASHEET, zeta5_with

RATIONAL_TWO = {"field": {"poly": [0, 1]}, "S": [{"p": 2}]}
GAUSSIAN_TWO = {"field": {"poly": [1, 0, 1]}, "S": [{"p": 2}]}
GAUSSIAN_FIVE = {"field": {"poly": [1, 0, 1]}, "S": [{"p": 5}]}
SQRT2_7_17_23 = {"field": {"poly": [-2, 0, 1]},
                 "S": [{"p": 7}, {"p": 17}, {"p": 23}]}
SQRT118_FIVE = {"field": {"poly": [-118, 0, 1]}, "S": [{"p": 5}]}
SQRT5_TWO = {"field": {"poly": [-5, 0, 1]}, "S": [{"p": 2}]}
# fundamental units 2143295 + 221064 sqrt 94 and
# 1728148040 + 140634693 sqrt 151
SQRT94_FIVE = {"field": {"poly": [-94, 0, 1]}, "S": [{"p": 5}]}
SQRT103_FIVE = {"field": {"poly": [-103, 0, 1]}, "S": [{"p": 5}]}
SQRT151_FIVE = {"field": {"poly": [-151, 0, 1]}, "S": [{"p": 5}]}
# fundamental units of 16 and 251 digits
SQRT331_THREE = {"field": {"poly": [-331, 0, 1]}, "S": [{"p": 3}]}
SQRT1000003_TWO = {"field": {"poly": [-1000003, 0, 1]}, "S": [{"p": 2}]}
# class number 10, ideal norms up to 31^10
SQRTM119_3_11_31 = {"field": {"poly": [119, 0, 1]},
                    "S": [{"p": 3}, {"p": 11}, {"p": 31}]}
# the primes over 3 have class order 9974
SQRTM99999989_THREE = {"field": {"poly": [99999989, 0, 1]}, "S": [{"p": 3}]}
# the benchmark's table of every report it runs, keyed "command config"
GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, cfg, command, extra=()):
    out = tmp_path / "report.json"
    code = cli.main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out), *extra])
    report = json.loads(out.read_text()) if code == 0 else None
    return code, report


def test_malformed_configs_exit_1(tmp_path, capsys):
    bad = [
        {"field": {"poly": [0, 1]}, "S": [{"p": 2}], "extra": 1},
        {"S": [{"p": 2}]},
        {"field": {"poly": [1]}, "S": [{"p": 2}]},
        {"field": {"poly": [1, 0, "1"]}, "S": [{"p": 2}]},
        {"field": {"poly": [0, 1], "typo": 1}, "S": [{"p": 2}]},
        {"field": {"poly": [0, 1]}, "S": {"p": 2}},
        {"field": {"poly": [0, 1]}, "S": [{"p": 1}]},
        {"field": {"poly": [0, 1]}, "S": [{"p": 4}]},
        {"field": {"poly": [0, 1]}, "S": [{"p": 2, "select": "some"}]},
        {"field": {"poly": [1, 0, 1]},
         "S": [{"p": 5, "select": {"index": 2}}]},
        {"field": {"poly": [1, 0, 1]},
         "S": [{"p": 5, "select": {"generator": ["x"]}}]},
        # 5 lies in both primes above it, 1 in neither
        {"field": {"poly": [1, 0, 1]},
         "S": [{"p": 5, "select": {"generator": [5]}}]},
        {"field": {"poly": [1, 0, 1]},
         "S": [{"p": 5, "select": {"generator": [1]}}]},
        {"field": {"poly": [0, 1]}, "S": [{"p": 2}], "h": 0},
        {"field": {"poly": [0, 1]}, "S": [{"p": 2}], "N": 0},
        {"field": {"poly": [0, 1]}, "S": [{"p": 2}], "N": "maybe"},
        {"field": {"poly": [0, 1]}, "S": [{"p": 2}], "seed": -1},
        {"field": {"poly": [0, 1]}, "S": [{"p": 2}],
         "verify": {"qbound": 10}},
        {"field": {"poly": [0, 1]}, "S": [{"p": 2}],
         "verify": {"r": [5, -5]}},
        {"field": {"poly": [0, 1]}, "S": [{"p": 2}],
         "verify": {"q_bound": 151}},
    ]
    for cfg in bad:
        code, _ = run(tmp_path, cfg, "analyze")
        assert code == 1, cfg
    # sizes past the caps, each of which ran for more than 15 s before
    # the caps existed
    hostile = [
        {"field": {"poly": [-1, 1]}, "S": [{"p": 2}, {"p": 3}],
         "verify": {"r": [-3000, 3000]}},
        {"field": {"poly": [1, 0, 1]}, "S": [{"p": 2}], "N": 100000000},
        {"field": {"poly": [1, 0, 1]}, "S": [{"p": 5}], "h": 100000000},
        {"field": {"poly": [1, 0, 1]}, "S": [{"p": 5}],
         "verify": {"witness_samples": 1000000}},
        # degree 80, and degree 4 with 2000-digit coefficients: without
        # the caps the irreducibility screen ran for 12 s on each
        {"field": {"poly": [(-1) ** k * (k % 7 + 1) for k in range(80)] + [1]},
         "S": [{"p": 2}]},
        {"field": {"poly": [-(10 ** 2000 + 1), 0, 0, 0, 1]},
         "S": [{"p": 2}]},
        # more admissible primes than q_bound allows: the prime walk
        # ends at the first prime past q_bound
        {"field": {"poly": [1, 0, 1]}, "S": [{"p": 5}],
         "verify": {"primes": 1000}},
    ]
    for cfg in hostile:
        started = time.monotonic()
        code, _ = run(tmp_path, cfg, "verify")
        assert code == 1, cfg
        assert time.monotonic() - started < 2, cfg
        assert "error: ConfigInvalid" in capsys.readouterr().err, cfg


def test_unreadable_or_invalid_config_exits_1(tmp_path, capsys):
    code = cli.main(["analyze", "--config", str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error: ConfigInvalid" in captured.err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["analyze", "--config", str(broken)]) == 1


def test_config_past_json_limits_exits_1_without_traceback(tmp_path,
                                                          capsys):
    # json.load raises a plain ValueError for an integer past int's digit
    # limit and RecursionError for nesting past the recursion limit
    texts = ['{"field": {"poly": [1, 0, 1], "datasheet": {"x": '
             + "[" * 100000 + "]" * 100000 + '}}, "S": [{"p": 2}]}']
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        texts.append('{"field": {"poly": [1, 0, 1], "datasheet": {"x": '
                     + "7" * (limit + 1) + '}}, "S": [{"p": 2}]}')
    for text in texts:
        path = tmp_path / "config.json"
        path.write_text(text)
        assert cli.main(["analyze", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error: ConfigInvalid: config cannot be read" in err
        assert "Traceback" not in err


def test_usage_errors_exit_1(tmp_path):
    cp = write_config(tmp_path, RATIONAL_TWO)
    assert cli.main(["analyze"]) == 1
    assert cli.main([]) == 1
    assert cli.main(["frobnicate", "--config", cp]) == 1
    assert cli.main(["generate", "--config", cp, "--h", "x"]) == 1
    # h and N are config keys only: a flag is not known
    assert cli.main(["verify", "--config", cp, "--N", "2"]) == 1


def test_too_few_places_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, {"field": {"poly": [1, 0, 1]}, "S": []}, "analyze")
    assert code == 2
    assert "error: CardinalityTooSmall" in capsys.readouterr().err
    code, _ = run(tmp_path, {"field": {"poly": [0, 1]}, "S": []}, "analyze")
    assert code == 2


def test_hostile_quadratic_exits_1_quickly(tmp_path, capsys):
    # trial division up to the square root of 4 * 10^20 would not end
    cfg = {"field": {"poly": [-100000000000000000039, 0, 1]},
           "S": [{"p": 2}]}
    started = time.monotonic()
    code, _ = run(tmp_path, cfg, "analyze")
    assert time.monotonic() - started < 1
    assert code == 1
    assert "error: ConfigInvalid" in capsys.readouterr().err


def test_long_s_exits_1_quickly(tmp_path, capsys):
    # the alpha search's subfield-span test meets 2^(number of primes)
    # candidates in its second shell: Q(i) over the first 30 primes took
    # 15.8 s, over the first 100 it did not end in 120 s
    primes = [p for p in range(2, 114) if all(p % d for d in range(2, p))]
    assert len(primes) == 30
    cfg = {"field": {"poly": [1, 0, 1]}, "S": [{"p": p} for p in primes]}
    started = time.monotonic()
    code, _ = run(tmp_path, cfg, "alpha")
    assert time.monotonic() - started < 1
    assert code == 1
    assert "error: ConfigInvalid" in capsys.readouterr().err
    cfg["S"] = cfg["S"][:cli.MAX_S_ENTRIES]
    assert len(cli.validate_config(cfg)["S"]) == cli.MAX_S_ENTRIES
    cfg["S"] = cfg["S"] + [{"p": 113}]
    with pytest.raises(ConfigInvalid):
        cli.validate_config(cfg)


# psi_12 = 399165290221 * 798330580441 passes the strong-pseudoprime test
# to the 12 prime bases up to 37 and fails to base 41; psi_13 passes all
# 13 bases up to 41, past the bound below which the test is proved
@pytest.mark.parametrize("psi, message", [
    (318665857834031151167461, "not a rational prime"),
    (3317044064679887385961981, "S[0].p must be below"),
], ids=["psi12", "psi13"])
def test_strong_pseudoprime_s_prime_exits_1(tmp_path, capsys, psi, message):
    cfg = {"field": {"poly": [1, 0, 1]}, "S": [{"p": psi}, {"p": 3}]}
    code, _ = run(tmp_path, cfg, "verify")
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: ConfigInvalid: {message}" in err, err
    assert "Traceback" not in err


def test_case2_large_s_prime_verifies_quickly(tmp_path):
    # the case-2 ladder's denominators hold powers of the S primes, which
    # trial division up to the square root of 10^9 + 7 would not end
    for poly, primes in (([1, 0, 1], [1000000007]),
                         ([1, 0, 1], [2, 1000000007]),
                         ([3, 0, 1], [1000000007])):
        cfg = {"field": {"poly": poly}, "S": [{"p": p} for p in primes]}
        started = time.monotonic()
        code, report = run(tmp_path, cfg, "verify")
        assert time.monotonic() - started < 5
        assert code == 0, (poly, primes)
        assert report["verification"]["ladder"]["N"] == 1


def test_hostile_cubic_exits_1_quickly(tmp_path, capsys):
    # the integer-root screen bisects instead of trial-dividing to 10^10;
    # a polynomial at both caps of validate_config ends in the time that
    # README states
    rng = random.Random(10)
    bound = 2 ** cli.MAX_COEFF_BITS
    at_caps = [bound - 1] + [rng.randrange(-bound + 1, bound)
                             for _ in range(cli.MAX_DEGREE - 1)] + [1]
    for poly, seconds in (([-100000000000000000039, 0, 0, 1], 5),
                          (at_caps, 2)):
        cfg = {"field": {"poly": poly}, "S": [{"p": 2}]}
        started = time.monotonic()
        code, _ = run(tmp_path, cfg, "analyze")
        assert time.monotonic() - started < seconds
        assert code == 1
        assert "error: DatasheetRequired" in capsys.readouterr().err


def test_failed_invariant_exits_3_without_traceback(tmp_path, monkeypatch,
                                                    capsys):
    # a principal-ideal search that returns a wrong generator is caught
    # by the class-order check, which survives python -O
    monkeypatch.setattr(ideals, "_principal_generator",
                        lambda ideal: ideal.field.one)
    code, _ = run(tmp_path, GAUSSIAN_TWO, "analyze")
    assert code == 3
    err = capsys.readouterr().err
    assert "error: InvariantViolated" in err
    assert "Traceback" not in err


def test_failed_guard_exits_3_without_traceback(tmp_path, monkeypatch,
                                                capsys):
    # the guards are raises of InvariantViolated, not asserts, so they
    # also hold under python -O; here the subfield span loses a generator
    monkeypatch.setattr(sunits.SubfieldRank, "unit_vectors",
                        lambda self, sbasis: ([], []))
    code, _ = run(tmp_path, SQRT5_TWO, "alpha")
    assert code == 3
    err = capsys.readouterr().err
    assert "error: InvariantViolated: span generators must realize the rank" in err
    assert "Traceback" not in err


def test_wrong_ring_index_exits_3_without_traceback(tmp_path, monkeypatch,
                                                    capsys):
    # a sum lattice index that answers 1 stabilizes at once; the Lagrange
    # containment recheck of PowerSpan.index catches it on every reported
    # index, the alpha certificate's index table included
    monkeypatch.setattr(linalg.RatLattice, "sum_index",
                        lambda self, den, rows: 1)
    for cfg, command in ((SQRT118_FIVE, "alpha"), (GAUSSIAN_FIVE, "verify")):
        code, _ = run(tmp_path, cfg, command)
        assert code == 3
        err = capsys.readouterr().err
        assert "error: InvariantViolated: index * Lambda_k escapes" in err
        assert "Traceback" not in err


def test_verify_reads_the_certificates_ring_indices(tmp_path, monkeypatch):
    # each span's index is found once per S-unit basis: at h = 1 the
    # case-1 ladder's [O_S : Z[a^2]] is the index table's n = 2 row, so
    # verify makes no sum_index call that alpha does not, and in case 2
    # it adds only the K-side M
    calls = []
    sum_index = linalg.RatLattice.sum_index

    def counted(self, den, rows):
        calls.append(self)
        return sum_index(self, den, rows)
    monkeypatch.setattr(linalg.RatLattice, "sum_index", counted)

    def count(cfg, command):
        calls.clear()
        assert run(tmp_path, cfg, command)[0] == 0
        return len(calls)
    for cfg in (GAUSSIAN_FIVE, SQRT2_7_17_23):
        assert count(cfg, "alpha") == count(cfg, "verify") == 12
    assert count(GAUSSIAN_TWO, "alpha") == 12
    assert count(GAUSSIAN_TWO, "verify") == 16


# verify reports at h != 1, outside bench/golden.json: the ladder's spans
# of h a^2h must not be mistaken for the index table's spans of alpha^n
H_ABOVE_ONE = [
    ({**GAUSSIAN_TWO, "h": 2},
     "5501d216b1e0b4919ba9ab93e9d14bf6c4fca6987873317e230d246cd1c57abd"),
    ({"field": {"poly": [-2, 0, 1]}, "S": [{"p": 7}], "h": 3},
     "27443bad268962fb8b5bea9b9f01ee3325ab5f08dda765b51bf684fee79092ec"),
    ({"field": {"poly": [1, 0, 1]}, "S": [{"p": 3}], "h": 3},
     "34fd085e7f62cea907aa5ed15cc1ec330524b9b8328742739ced4a77a2003454"),
]


@pytest.mark.parametrize("cfg, digest", H_ABOVE_ONE,
                         ids=["Qi-2-h2", "Qsqrt2-7-h3", "Qi-3-h3"])
def test_verify_bytes_at_h_above_one(tmp_path, cfg, digest):
    code, _ = run(tmp_path, cfg, "verify")
    assert code == 0
    blob = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_big_unit_fields(tmp_path):
    # the principal-ideal search must not walk a box of side sqrt(eps)
    for cfg, commands in ((SQRT94_FIVE, ("analyze", "generate")),
                          (SQRT151_FIVE, ("generate",)),
                          (SQRT331_THREE, ("analyze",)),
                          (SQRT1000003_TWO, ("analyze",))):
        for command in commands:
            started = time.monotonic()
            code, rep = run(tmp_path, cfg, command)
            assert code == 0, (cfg, command)
            assert time.monotonic() - started < 10, (cfg, command)
            assert rep["analysis"]["classification"]["case"] == 1


def test_class_number_ten_over_three_primes(tmp_path):
    # ideal powers of norm up to 31^10: reduction, not a box of side
    # sqrt(N / 119); the section is the one the box search printed
    started = time.monotonic()
    code, rep = run(tmp_path, SQRTM119_3_11_31, "analyze")
    assert code == 0
    assert time.monotonic() - started < 10
    assert rep["analysis"]["s_units"] == {
        "fundamental_units": [], "rank": 5,
        "s_generators": [
            {"class_order": 10, "element": ["107", "-20"],
             "minimal_verified": True},
            {"class_order": 10, "element": ["22283935", "-1647648"],
             "minimal_verified": True},
            {"class_order": 10, "element": ["22283935", "1647648"],
             "minimal_verified": True},
            {"class_order": 10, "element": ["107", "20"],
             "minimal_verified": True},
            {"class_order": 1, "element": ["11", "0"],
             "minimal_verified": True}],
        "torsion_generator": ["-1", "0"], "torsion_order": 2,
        "valuation_matrix": [[10, 0, 0, 0, 0], [0, 10, 0, 0, 0],
                             [0, 0, 10, 0, 0], [0, 0, 0, 10, 0],
                             [0, 0, 0, 0, 1]]}


def test_class_order_in_the_thousands(tmp_path, capsys):
    # the primes over 3 of Q(sqrt -99999989) have class order 9974 (a
    # separate forms count agrees): composing reduced forms keeps each
    # power small, where raising HNF powers ran past 60 s, and no
    # valuation of a generator of about 4,760 digits is recomputed
    started = time.monotonic()
    code, rep = run(tmp_path, SQRTM99999989_THREE, "analyze")
    assert time.monotonic() - started < 1.5
    assert code == 0
    assert [g["class_order"] for g in
            rep["analysis"]["s_units"]["s_generators"]] == [9974, 9974]
    assert "Traceback" not in capsys.readouterr().err


def test_s_unit_path_computes_no_valuation(tmp_path, monkeypatch):
    # s_unit_basis reads the valuation matrix, and _certify_alpha alpha's
    # negative valuations, off the class-order witnesses, and
    # SubfieldRank.unit_vectors a subfield S-unit's off the lying-over
    # table: the library has no valuation routine.  Recomputing them
    # took 20,141 products on the order-9974 analyze
    assert not hasattr(ideals, "valuation")
    assert not hasattr(sunits, "valuation")
    products = 0
    ib_mul = field_module.NumberField.ib_mul

    def counted(self, u, v):
        nonlocal products
        products += 1
        return ib_mul(self, u, v)

    monkeypatch.setattr(field_module.NumberField, "ib_mul", counted)
    code, _ = run(tmp_path, SQRTM99999989_THREE, "analyze")
    assert code == 0
    assert products <= 300
    # alpha over orders 10 and over a datasheet (case 2, alpha in Q(sqrt 5))
    for cfg in ({"field": {"poly": [119, 0, 1]}, "S": [{"p": 3}]},
                zeta5_config(dict(ZETA5_DATASHEET,
                                  class_orders=[ZETA5_CLASS_ORDER]))):
        code, _ = run(tmp_path, cfg, "alpha")
        assert code == 0


def test_class_order_past_the_bound_exits_2(tmp_path, capsys):
    # the class of the prime over 3 of Q(sqrt -1000000061) has order
    # 15814, past ideals.CLASS_ORDER_BOUND = 10000
    cfg = {"field": {"poly": [1000000061, 0, 1]}, "S": [{"p": 3}]}
    started = time.monotonic()
    code, _ = run(tmp_path, cfg, "analyze")
    assert time.monotonic() - started < 2
    assert code == 2
    err = capsys.readouterr().err
    assert "error: OrderBoundExceeded" in err and "Traceback" not in err


def test_huge_fundamental_unit_exits_1_without_traceback(tmp_path, capsys):
    # the unit of Q(sqrt 9999999967) has about 50,000 digits; the walk
    # stops at field.MAX_UNIT_DIGITS instead of printing it
    cfg = {"field": {"poly": [-9999999967, 0, 1]}, "S": []}
    started = time.monotonic()
    code, _ = run(tmp_path, cfg, "analyze")
    assert time.monotonic() - started < 5
    assert code == 1
    err = capsys.readouterr().err
    assert "error: UnitTooLarge" in err
    assert "Traceback" not in err


def test_analyze_gaussian_over_two(tmp_path):
    code, rep = run(tmp_path, GAUSSIAN_TWO, "analyze")
    assert code == 0
    assert rep["schema"] == 1
    assert rep["command"] == "analyze"
    a = rep["analysis"]
    assert a["S"]["card"] == 2
    assert a["s_units"]["rank"] == 1
    assert a["rank_table"][0]["rank_of_intersection"] == 1
    assert a["classification"]["case"] == 2
    assert "alpha" not in rep and "triple" not in rep
    echo = rep["instance"]
    assert echo["h"] == 1 and echo["N"] == "search" and echo["seed"] == 0
    assert echo["verify"] == cli.VERIFY_DEFAULTS


def test_prime_selection_by_index_and_generator(tmp_path):
    by_index = {"field": {"poly": [1, 0, 1]},
                "S": [{"p": 5, "select": {"index": 0}}]}
    by_gen = {"field": {"poly": [1, 0, 1]},
              "S": [{"p": 5, "select": {"generator": [1, 2]}}]}
    code1, rep1 = run(tmp_path, by_index, "analyze")
    code2, rep2 = run(tmp_path, by_gen, "analyze")
    assert code1 == 0 and code2 == 0
    finite = rep1["analysis"]["S"]["finite"]
    assert rep2["analysis"]["S"]["finite"] == finite
    assert len(finite) == 1 and finite[0]["hnf"] == [[1, 2], [0, 5]]
    assert rep1["analysis"]["S"]["card"] == 2
    # dropping one of the split primes kills the rational intersection
    assert rep1["analysis"]["classification"]["case"] == 1
    assert rep2["instance"]["S"][0]["select"] == {"generator": ["1", "2"]}


def test_generator_echo_is_normalized(tmp_path, capsys):
    # the validated config is the echo: generator coordinates come back
    # as normalized rational strings, and a non-rational one is a config
    # error
    cfg = {"field": {"poly": [1, 0, 1]},
           "S": [{"p": 5, "select": {"generator": ["2/2", 2]}}]}
    code, rep = run(tmp_path, cfg, "analyze")
    assert code == 0
    assert rep["instance"]["S"][0]["select"] == {"generator": ["1", "2"]}
    cfg["S"][0]["select"]["generator"] = ["x"]
    code, _ = run(tmp_path, cfg, "analyze")
    assert code == 1
    assert ("error: ConfigInvalid: S[0].select.generator: not a rational"
            in capsys.readouterr().err)


def test_alpha_command_sections(tmp_path):
    code, rep = run(tmp_path, GAUSSIAN_TWO, "alpha")
    assert code == 0
    assert "triple" not in rep and "verification" not in rep
    assert sorted(rep["alpha"]) == ["alpha_in_K", "certificate",
                                    "search_field"]
    assert rep["alpha"]["search_field"] == [-1, 1]
    assert rep["alpha"]["certificate"]["alpha"] == ["1/2"]
    assert rep["alpha"]["alpha_in_K"] == ["1/2", "0"]

    code, rep = run(tmp_path, RATIONAL_TWO, "alpha")
    assert code == 0
    # case 1 searches in the field itself, no embedding to report
    assert sorted(rep["alpha"]) == ["certificate", "search_field"]
    assert rep["alpha"]["search_field"] == [0, 1]


def test_generate_rational_golden(tmp_path):
    code, rep = run(tmp_path, RATIONAL_TWO, "generate")
    assert code == 0
    t = rep["triple"]
    assert t["gamma"] == [[["1/2"], ["0"]], [["0"], ["2"]]]
    assert t["psi1"] == [[["1"], ["0"]], [["1"], ["1"]]]
    assert t["psi2"] == [[["1"], ["1"]], [["0"], ["1"]]]
    assert rep["alpha"]["certificate"]["alpha"] == ["1/2"]
    assert "verification" not in rep


def test_verify_rational_small_windows(tmp_path):
    cfg = dict(RATIONAL_TWO)
    cfg["verify"] = {"primes": 3, "q_bound": 30, "witness_samples": 3,
                     "r": [-2, 2], "s": [-2, 2]}
    code, rep = run(tmp_path, cfg, "verify")
    assert code == 0
    v = rep["verification"]
    assert v["passed"] is True
    assert [r["q"] for r in v["modp"]] == [3, 5, 7]
    assert all(r["passed"] for r in v["modp"])
    assert v["identities"]["exponent_identities"] == 54
    assert v["ladder"] == {"a_ideal": {"generator": "1",
                                       "meaning": "m * O_S"},
                           "case": 1, "containment_checked": True,
                           "m": 1, "m_level": 0, "m_per_level": [1, 1, 1]}
    # witness samples are split across the lower and upper sides
    w = v["witnesses"]
    assert w["count"] == 2 and len(w["items"]) == 2
    work = rep["timings"]["work"]
    assert work["identity_checks"] == 54
    assert work["modp_primes"] == 3
    assert work["modp_bfs_expansions"] == 2880
    assert rep["timings"]["deterministic"] is True


def test_h_and_n_overrides(tmp_path):
    code, rep = run(tmp_path, {**RATIONAL_TWO, "h": 2}, "generate")
    assert code == 0
    assert rep["instance"]["h"] == 2
    assert rep["triple"]["gamma"][0][0] == ["1/4"]
    assert rep["triple"]["psi2"][0][1] == ["2"]

    code, rep = run(tmp_path, {**GAUSSIAN_TWO, "N": 2}, "verify")
    assert code == 0
    assert rep["instance"]["N"] == 2
    ladder = rep["verification"]["ladder"]
    assert ladder["N"] == 2 and ladder["N_tried"] == [2]
    # the chosen N is folded into the conjugation identity range
    assert rep["verification"]["identities"]["n_values"] == [1, 2, 3, 4, 5]

    code, rep = run(tmp_path, {**GAUSSIAN_TWO, "N": "search"}, "alpha")
    assert code == 0 and rep["instance"]["N"] == "search"

    code, _ = run(tmp_path, {**RATIONAL_TWO, "h": 0}, "generate")
    assert code == 1
    # the config keys meet their caps
    code, _ = run(tmp_path, {**RATIONAL_TWO, "h": cli.MAX_H + 1}, "generate")
    assert code == 1
    code, _ = run(tmp_path, {**GAUSSIAN_TWO, "N": cli.MAX_N + 1}, "verify")
    assert code == 1


def test_reports_are_byte_identical_and_sorted(tmp_path, capsys):
    cp = write_config(tmp_path, GAUSSIAN_TWO)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert cli.main(["verify", "--config", cp, "--out", str(out1)]) == 0
    assert cli.main(["verify", "--config", cp, "--out", str(out2)]) == 0
    blob = out1.read_bytes()
    assert blob == out2.read_bytes()
    text = blob.decode()
    assert text.endswith("\n")
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"
    # wall clock stays out of the report
    assert "done in" in capsys.readouterr().err


def test_report_on_stdout_without_out(tmp_path, capsys):
    cp = write_config(tmp_path, RATIONAL_TWO)
    code = cli.main(["analyze", "--config", cp])
    captured = capsys.readouterr()
    assert code == 0
    rep = json.loads(captured.out)
    assert rep["command"] == "analyze"
    assert "done in" in captured.err


def test_unwritable_out_exits_1_without_traceback(tmp_path, capsys):
    missing = tmp_path / "missing"
    cp = write_config(tmp_path, RATIONAL_TWO)
    for argv in (["analyze", "--config", cp], ["examples"]):
        code = cli.main(argv + ["--out", str(missing / "report.json")])
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert "error: ConfigInvalid: cannot write report: " in captured.err
        assert "done in" not in captured.err
    assert not missing.exists()


def test_datasheet_field_through_cli(tmp_path):
    cfg = {"field": {"poly": [1, 1, 1, 1, 1], "datasheet": ZETA5_DATASHEET},
           "S": []}
    code, rep = run(tmp_path, cfg, "analyze")
    assert code == 0
    a = rep["analysis"]
    assert a["S"]["card"] == 2
    info = a["classification"]
    assert info["case"] == 2
    assert info["cm"]["subfield"]["poly"] == [-5, 0, 1]


def zeta5_config(sheet, primes=(5,)):
    return {"field": {"poly": [1, 1, 1, 1, 1], "datasheet": sheet},
            "S": [{"p": p} for p in primes]}


def test_malformed_datasheet_exits_1_without_traceback(tmp_path, capsys):
    # a unit that is not a list and an ideal that is not a list crashed
    # on first use, and zeta5 and -1 (norm 1, finite order) were taken as
    # fundamental units; all four now end at load
    for sheet in (dict(ZETA5_DATASHEET, fundamental_units=[5]),
                  zeta5_with("class_orders", ideal=5),
                  dict(ZETA5_DATASHEET, fundamental_units=[[0, 1, 0, 0]]),
                  dict(ZETA5_DATASHEET, fundamental_units=[[-1, 0, 0, 0]])):
        for command in ("analyze", "verify"):
            code, _ = run(tmp_path, zeta5_config(sheet), command)
            assert code == 1
            err = capsys.readouterr().err
            assert "error: DatasheetInvalid" in err and "Traceback" not in err


def test_sheet_naming_k_as_its_own_subfield_exits_1(tmp_path, capsys):
    # a subfields entry of degree n is K itself: the sheet is rejected
    # before anything is built, instead of the entry being built as a
    # field without a sheet (DatasheetRequired)
    own = {"poly": [1, 1, 1, 1, 1], "embedding": [0, 1, 0, 0]}
    sheet = dict(ZETA5_DATASHEET,
                 subfields=ZETA5_DATASHEET["subfields"] + [own])
    for command in ("analyze", "verify"):
        code, _ = run(tmp_path, zeta5_config(sheet, ()), command)
        assert code == 1
        err = capsys.readouterr().err
        assert ("error: DatasheetInvalid: subfield [1, 1, 1, 1, 1] has K's "
                "degree 4") in err
        assert "Traceback" not in err


def test_datasheet_class_order_path(tmp_path, capsys):
    # Q(zeta5) over 5: the prime above 5 is (1 - t), declared of order 1
    cfg = zeta5_config(dict(ZETA5_DATASHEET, class_orders=[ZETA5_CLASS_ORDER]))
    for command in ("analyze", "alpha", "generate", "verify"):
        code, rep = run(tmp_path, cfg, command)
        assert code == 0, command
        assert rep["analysis"]["classification"]["case"] == 2
        assert rep["analysis"]["s_units"]["s_generators"] == [
            {"element": ["1", "-1", "0", "0"], "class_order": 1,
             "minimal_verified": False}]
    # a wrong order is caught by the principal-power check, an order
    # past ideals.CLASS_ORDER_BOUND before any power is formed, and a
    # missing entry asks for the sheet
    started = time.monotonic()
    for sheet, error in ((zeta5_with("class_orders", order=2),
                          "DatasheetInvalid"),
                         (zeta5_with("class_orders", order=20000),
                          "DatasheetInvalid"),
                         (ZETA5_DATASHEET, "DatasheetRequired")):
        code, _ = run(tmp_path, zeta5_config(sheet), "analyze")
        assert code == 1
        assert f"error: {error}" in capsys.readouterr().err
    assert time.monotonic() - started < 2


def test_datasheet_class_order_bound_checked_by_squaring(tmp_path, capsys,
                                                         monkeypatch):
    # the largest declared order accepted costs about 2 log2 of it in
    # ideal products (a handful more come before class_order), not one
    # product per power
    products = Counter()
    multiply = ideals.IntegralIdeal.__mul__

    def counted(a, b):
        products["mul"] += 1
        return multiply(a, b)

    monkeypatch.setattr(ideals.IntegralIdeal, "__mul__", counted)
    cfg = zeta5_config(zeta5_with("class_orders",
                                  order=ideals.CLASS_ORDER_BOUND))
    code, _ = run(tmp_path, cfg, "analyze")
    assert code == 1
    err = capsys.readouterr().err
    assert "error: DatasheetInvalid" in err and "Traceback" not in err
    assert 0 < products["mul"] <= 2 * ideals.CLASS_ORDER_BOUND.bit_length()


def test_float_in_datasheet_exits_1_without_traceback(tmp_path, capsys):
    # a report echoes the datasheet, and a float (NaN included) has no
    # report text; create_field reads no sheet below degree 3, so the
    # config check refuses it on every field
    quadratic = {"poly": [1, 0, 1]}
    configs = [
        {"field": dict(quadratic, datasheet={"x": 1.5}), "S": [{"p": 2}]},
        {"field": dict(quadratic, datasheet={"x": [[0, {"y": -2.0}]]}),
         "S": [{"p": 2}]},
        {"field": {"poly": [0, 1], "datasheet": {"x": float("nan")}},
         "S": [{"p": 2}, {"p": 3}]},
        zeta5_config(zeta5_with("subfields", poly=[-5.5, 0, 1])),
    ]
    for cfg in configs:
        code, _ = run(tmp_path, cfg, "analyze")
        assert code == 1, cfg
        err = capsys.readouterr().err
        assert "error: ConfigInvalid: datasheet numbers" in err
        assert "Traceback" not in err
    # a sheet without floats on a quadratic field is still echoed, also
    # nested 800 deep
    deep = [1, "1/2", None]
    for _ in range(800):
        deep = [deep]
    cfg = {"field": dict(quadratic, datasheet={"x": deep}), "S": [{"p": 2}]}
    code, report = run(tmp_path, cfg, "analyze")
    assert code == 0
    assert report["instance"]["field"]["datasheet"] == {"x": deep}
    assert (tmp_path / "report.json").read_text() == dumps(report) + "\n"


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def test_report_writer_matches_json_dumps_on_every_golden_report():
    reports = [cli.run_examples()]
    for key, entry in json.loads(GOLDEN.read_text())["reports"].items():
        if entry["exit"] == 0:
            command, config = key.split(" ", 1)
            reports.append(cli.run_instance(
                cli.validate_config(json.loads(config)), command))
    assert len(reports) == 601
    assert Counter(r["command"] for r in reports) == {
        "examples": 1, "analyze": 294, "alpha": 293, "generate": 3,
        "verify": 10}
    for report in reports:
        assert cli.write_report(report) == dumps(report)


def test_report_writer_edge_trees():
    big = 10 ** 299 + 7
    trees = [
        {}, [], (), {"a": {}, "b": [], "c": ()},
        [[], {}, [[]], [{}], ((),)], ("x", (1, ("y",)), [], {}),
        {"z": [1, {"b": [True, None], "a": ()}], "a": ([], {"y": {}})},
        {"\u00e9": "\u00fcn\u00ef\u20ac\U0001f600",
         "ctl": "\x00\x01\x1f\t\n\r\b\f\x7f",
         "quote": 'say "hi"', "slash": "a\\b/c\\", "": ""},
        [True, False, 1, 0, None, -1, big, -big],
        {"t": True, "one": 1, "f": False, "zero": 0, "none": None,
         "big": big},
        "top", 0, True, None, big,
    ]
    # 800 levels: the writer takes one frame per level, as json.dumps's
    # encoder does, so it nests as deep
    deep_list, deep_dict = [1], {"a": None}
    for _ in range(800):
        deep_list, deep_dict = [deep_list], {"a": deep_dict}
    trees += [deep_list, deep_dict]
    for tree in trees:
        assert cli.write_report(tree) == dumps(tree)
    assert len(str(big)) == 300
    for bad in (1.5, [1, 2.0], {"a": {"b": 0.5}}, ("x", {1, 2}),
                {1: "a"}, {"a": 1, 2: "b"}, {True: 0}, {("k",): 0}):
        with pytest.raises(TypeError):
            cli.write_report(bad)


def test_examples_command(tmp_path):
    out = tmp_path / "examples.json"
    assert cli.main(["examples", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == 1
    assert rep["command"] == "examples"
    names = [e["name"] for e in rep["examples"]]
    assert names == ["gaussian-over-2", "gaussian-over-5"]
    assert all(e["matched"] for e in rep["examples"])
    for e in rep["examples"]:
        assert e["got"] == e["expected"]


def test_examples_mismatch_exits_3(monkeypatch, capsys):
    tampered = json.loads(json.dumps(cli.BUILTIN_EXAMPLES))
    tampered[0]["expected"]["case"] = 1
    monkeypatch.setattr(cli, "BUILTIN_EXAMPLES", tampered)
    code = cli.main(["examples"])
    assert code == 3
    assert "error: VerificationFailure" in capsys.readouterr().err


def record_calls(monkeypatch, fn):
    """Wrap fn at every sgen2 module binding that holds it (the package
    imports with ``from .x import y``) and return the list that collects
    the positional arguments of each call."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "sgen2" or name.startswith("sgen2."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


def test_each_stage_runs_once(tmp_path, monkeypatch):
    sunit_calls = record_calls(monkeypatch, sunits.s_unit_basis)
    classify_calls = record_calls(monkeypatch, generators.classify_case)
    cm_calls = record_calls(monkeypatch, sunits.is_cm)

    def pairs(calls):
        out = Counter((tuple(field.poly), tuple(P.hnf for P in S.finite))
                      for field, S in calls)
        calls.clear()
        return out

    # case 1: one S-unit basis, of K over S, and one classification
    code, _ = run(tmp_path, SQRT5_TWO, "generate")
    assert code == 0
    want = {((-5, 0, 1), (((2, 0), (0, 2)),)): 1}
    assert pairs(sunit_calls) == pairs(classify_calls) == want
    assert len(cm_calls) == 1

    # case 2: K over S and Q over S(Q) = {2} are each classified once,
    # with one S-unit basis each: the verifier's ladder reads the one the
    # alpha certificate carries
    code, _ = run(tmp_path, GAUSSIAN_TWO, "verify")
    assert code == 0
    want = {((1, 0, 1), (((1, 1), (0, 2)),)): 1, ((-1, 1), (((2,),),)): 1}
    assert pairs(sunit_calls) == pairs(classify_calls) == want
    assert len(cm_calls) == 3


def test_each_repeated_section_is_serialized_once(tmp_path, monkeypatch):
    # a case-2 verify report holds the alpha certificate twice and cm
    # three times, each one shared object serialized once
    counts = Counter()
    for cls in (sunits.AlphaCertificate, sunits.CMStructure):
        def counted(self, serialize=cls.serialize, name=cls.__name__):
            counts[name] += 1
            return serialize(self)
        monkeypatch.setattr(cls, "serialize", counted)
    code, report = run(tmp_path, GAUSSIAN_TWO, "verify")
    assert code == 0 and report["analysis"]["cm"] is not None
    assert counts == {"AlphaCertificate": 1, "CMStructure": 1}


SKIP_OVER_7 = ("skipped the prime over 7 (q = 49): image 672 of 117600, "
               "deg k = 1, P | m")


def test_case1_primes_dividing_m_are_skipped_with_a_reason(tmp_path, capsys):
    # Q(sqrt 94) and Q(sqrt 103) over 5 are valid case-1 instances whose
    # image at the prime over 7 is SL2(F_7) <gamma>, 672 of 117600; 7
    # divides the ladder's m, so verify skips that prime, says so on
    # stderr, and reports ten others
    for cfg in (SQRT94_FIVE, SQRT103_FIVE):
        code, report = run(tmp_path, cfg, "verify")
        captured = capsys.readouterr()
        assert code == 0
        assert [line for line in captured.err.splitlines()
                if not line.startswith("done in")] == [SKIP_OVER_7]
        assert captured.out == ""
        ver = report["verification"]
        assert ver["passed"] and ver["ladder"]["m"] % 7 == 0
        assert len(ver["modp"]) == 10
        assert 7 not in [e["p"] for e in ver["modp"]]
        assert cli.main(["verify", "--config",
                         write_config(tmp_path, cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.out == (tmp_path / "report.json").read_text()
        assert SKIP_OVER_7 in captured.err.splitlines()


def test_verify_counts_each_prime_once_and_solves_each_stage_once(
        tmp_path, monkeypatch):
    # one image count per walked prime (in case 1 every walked prime is
    # counted: ten reported, one skipped), and one HNF with transform per
    # witness span and stage, the stages 0 .. J of each span a word
    # reached; in case 1 the two sides are one span
    counts = record_calls(monkeypatch, verification.image_order)
    walked = record_calls(monkeypatch, verification.reduce_triple)
    hnfs = record_calls(monkeypatch, linalg.hnf_with_transform)
    per_word = []
    witness = verification.elementary_witness

    def counted(*args):
        before = len(hnfs)
        try:
            return witness(*args)
        finally:
            per_word.append(len(hnfs) - before)

    monkeypatch.setattr(verification, "elementary_witness", counted)
    for cfg, case in ((SQRT103_FIVE, 1), (GAUSSIAN_TWO, 2)):
        for calls in (counts, walked, per_word):
            calls.clear()
        code, report = run(tmp_path, cfg, "verify")
        assert code == 0
        ver = report["verification"]
        stages = {}
        for item in ver["witnesses"]["items"]:
            span = "both" if case == 1 else item["side"]
            stages[span] = max(stages.get(span, 0), item["stage"] + 1)
        assert sum(per_word) == sum(stages.values())
        assert len(counts) == len(ver["modp"]) + (case == 1)
        if case == 1:
            assert len(walked) == len(counts) == 11


def test_one_field_per_run(tmp_path, monkeypatch):
    # the rational subfield of K is the one shared Q, not a new field
    field_calls = record_calls(monkeypatch, field_module.create_field)
    code, _ = run(tmp_path, {"field": {"poly": [1, 0, 1]}, "S": [{"p": 5}]},
                  "analyze")
    assert code == 0
    assert field_calls == [([1, 0, 1], None)]


def test_main_reuses_one_parser(tmp_path, monkeypatch, capsys):
    def no_new_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_new_parser)
    cp = write_config(tmp_path, GAUSSIAN_TWO)
    out = tmp_path / "report.json"
    runs = []
    for _ in range(3):
        for argv in (["alpha", "--config", cp, "--out", str(out)],
                     ["alpha", "--config", cp, "--h", "x"],
                     ["analyze", "--config", cp, "--out", str(out)]):
            if out.exists():
                out.unlink()
            code = cli.main(argv)
            runs.append((code, out.read_bytes() if out.exists() else None,
                         capsys.readouterr().out))
    assert [code for code, _, _ in runs] == [0, 1, 0] * 3
    assert runs[:3] == runs[3:6] == runs[6:]
    assert runs[0][1] != runs[2][1]
