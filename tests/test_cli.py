"""End-to-end command line tests.

Everything goes through cli.main(argv) with configs written to disk and
reports read back via --out, the way a user drives the tool.  Exit codes
under test: 0 success, 1 malformed input, 2 hypothesis failure, 3 a
verification check failed.
"""

import json
import random
import sys
import time
from collections import Counter

from sgen2 import cli, generators, ideals, sunits
from sgen2 import field as field_module
from test_field import ZETA5_DATASHEET

RATIONAL_TWO = {"field": {"poly": [0, 1]}, "S": [{"p": 2}]}
GAUSSIAN_TWO = {"field": {"poly": [1, 0, 1]}, "S": [{"p": 2}]}
SQRT5_TWO = {"field": {"poly": [-5, 0, 1]}, "S": [{"p": 2}]}
# fundamental units 2143295 + 221064 sqrt 94 and
# 1728148040 + 140634693 sqrt 151
SQRT94_FIVE = {"field": {"poly": [-94, 0, 1]}, "S": [{"p": 5}]}
SQRT151_FIVE = {"field": {"poly": [-151, 0, 1]}, "S": [{"p": 5}]}


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


def test_usage_errors_exit_1(tmp_path):
    cp = write_config(tmp_path, RATIONAL_TWO)
    assert cli.main(["analyze"]) == 1
    assert cli.main([]) == 1
    assert cli.main(["frobnicate", "--config", cp]) == 1
    assert cli.main(["generate", "--config", cp, "--h", "x"]) == 1


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


def test_big_unit_fields(tmp_path):
    # the principal-ideal search must not walk a box of side sqrt(eps)
    for cfg, commands in ((SQRT94_FIVE, ("analyze", "generate")),
                          (SQRT151_FIVE, ("generate",))):
        for command in commands:
            started = time.monotonic()
            code, rep = run(tmp_path, cfg, command)
            assert code == 0, (cfg, command)
            assert time.monotonic() - started < 10, (cfg, command)
            assert rep["analysis"]["classification"]["case"] == 1


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
    code, rep = run(tmp_path, RATIONAL_TWO, "generate", ("--h", "2"))
    assert code == 0
    assert rep["instance"]["h"] == 2
    assert rep["triple"]["gamma"][0][0] == ["1/4"]
    assert rep["triple"]["psi2"][0][1] == ["2"]

    code, rep = run(tmp_path, GAUSSIAN_TWO, "verify", ("--N", "2"))
    assert code == 0
    assert rep["instance"]["N"] == 2
    ladder = rep["verification"]["ladder"]
    assert ladder["N"] == 2 and ladder["N_tried"] == [2]
    # the chosen N is folded into the conjugation identity range
    assert rep["verification"]["identities"]["n_values"] == [1, 2, 3, 4, 5]

    code, rep = run(tmp_path, GAUSSIAN_TWO, "alpha", ("--N", "search"))
    assert code == 0 and rep["instance"]["N"] == "search"

    code, _ = run(tmp_path, RATIONAL_TWO, "generate", ("--h", "0"))
    assert code == 1
    # the overrides meet the same caps as the config keys
    code, _ = run(tmp_path, RATIONAL_TWO, "generate",
                  ("--h", str(cli.MAX_H + 1)))
    assert code == 1
    code, _ = run(tmp_path, GAUSSIAN_TWO, "verify",
                  ("--N", str(cli.MAX_N + 1)))
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

    def pairs():
        out = Counter((tuple(field.poly), tuple(P.hnf for P in S.finite))
                      for field, S in sunit_calls)
        sunit_calls.clear()
        return out

    # case 1: one S-unit basis, of K over S
    code, _ = run(tmp_path, SQRT5_TWO, "generate")
    assert code == 0
    assert pairs() == {((-5, 0, 1), (((2, 0), (0, 2)),)): 1}
    assert len(classify_calls) == 1 and len(cm_calls) == 1

    # case 2: the K-side basis once; the basis of Q over 2 is built once
    # to choose alpha and once more by the verifier, which rechecks the
    # triple from scratch instead of trusting the alpha certificate
    code, _ = run(tmp_path, GAUSSIAN_TWO, "verify")
    assert code == 0
    assert pairs() == {((1, 0, 1), (((1, 1), (0, 2)),)): 1,
                       ((-1, 1), (((2,),),)): 2}
    assert len(classify_calls) == 2 and len(cm_calls) == 2


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
