"""Command line interface.

Five subcommands, each a strict superset of the previous one's work:

* ``analyze``   field and S invariants, unit ranks, CM data, case
* ``alpha``     analyze plus the certified unit the construction uses
* ``generate``  alpha plus the triple (gamma, psi1, psi2)
* ``verify``    generate plus the full verification report
* ``examples``  two built-in instances checked against stored values

All commands except ``examples`` read a JSON config via ``--config``.
The report is JSON with ``"schema": 1``, its sections all built here
(run_instance, analysis_section) with each repeated one a shared object,
written to stdout (or ``--out``) by write_report, in the bytes of
``json.dumps(report, indent=2, sort_keys=True)``; it is byte-identical
across runs of the same config: wall clock goes to stderr.  Exit codes:
0 success, 1 malformed input, 2 a hypothesis or search genuinely fails,
3 a verification check fails.
"""

import argparse
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from .errors import ConfigInvalid, DatasheetInvalid, SgenError
from .field import create_field, format_rational, parse_rational
from .generators import build_generators, classify_case
from .ideals import factor_rational_prime
from .polys import PRIME_BOUND
from .sunits import PrimeSet
from .verification import VERIFY_DEFAULTS, run_verification

# Largest verify.q_bound accepted.  A residue field of size q is held as
# O(q) log, Zech-log, inverse and negation tables, and its primitive
# element is found and walked in O(q) products.
MAX_Q_BOUND = 150
# Size caps on the other numeric inputs, so that every accepted config
# ends in seconds: the identity windows verify.r and verify.s (|bound|),
# the exponent h, an explicit order N, and verify.witness_samples.
MAX_WINDOW = 50
MAX_H = 64
MAX_N = 1000
MAX_WITNESS_SAMPLES = 200
# Caps on field.poly: its degree and the bit length of each coefficient.
# The irreducibility screen (integer Sturm chain, integer-root bisection,
# mod-p tests) runs before a datasheet is asked for, and at both caps it
# ends in under a second.
MAX_DEGREE = 16
MAX_COEFF_BITS = 256
# Cap on the number of entries of S.  The alpha search's subfield-span
# test meets 2^(number of S-generators) candidates in its second shell.
MAX_S_ENTRIES = 16


# ---------------------------------------------------------------------------
# Config loading and validation.

def _require(cond, msg):
    if not cond:
        raise ConfigInvalid(msg)


def _int_in(value, name, low=None, high=None):
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name} must be an integer")
    if low is not None:
        _require(value >= low, f"{name} must be >= {low}")
    if high is not None:
        _require(value <= high, f"{name} must be <= {high}")
    return value


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigInvalid(f"cannot read config: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigInvalid(f"config is not valid JSON: {e}") from None
    except (ValueError, RecursionError) as e:
        # an integer past int's digit limit, or nesting past the
        # recursion limit
        raise ConfigInvalid(f"config cannot be read: {e}") from None
    return validate_config(cfg)


def validate_config(cfg):
    """Normalize a raw config dict, rejecting anything out of shape; the
    result is the report's instance echo, generator coordinates as strings."""
    _require(isinstance(cfg, dict), "config must be a JSON object")
    allowed = {"field", "S", "h", "N", "verify", "seed"}
    unknown = set(cfg) - allowed
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    _require("field" in cfg, "config needs a field section")
    fld = cfg["field"]
    _require(isinstance(fld, dict), "field must be an object")
    _require(set(fld) <= {"poly", "datasheet"},
             "field takes only poly and datasheet")
    _require("poly" in fld, "field needs poly")
    poly = fld["poly"]
    _require(isinstance(poly, list) and len(poly) >= 2
             and all(isinstance(c, int) and not isinstance(c, bool)
                     for c in poly),
             "poly must be a list of at least two integers")
    _require(len(poly) <= MAX_DEGREE + 1,
             f"poly must have degree at most {MAX_DEGREE}")
    _require(all(abs(c).bit_length() <= MAX_COEFF_BITS for c in poly),
             f"poly coefficients must be below 2^{MAX_COEFF_BITS} in "
             f"absolute value")
    datasheet = fld.get("datasheet")
    _require(datasheet is None or isinstance(datasheet, dict),
             "datasheet must be an object")
    # the report echoes the datasheet and write_report writes no float;
    # create_field reads a sheet only above degree 2, so look at it here
    nodes = [datasheet]
    while nodes:
        node = nodes.pop()
        _require(not isinstance(node, float), "datasheet numbers must be "
                 "integers (rationals are \"p/q\" strings)")
        if isinstance(node, dict):
            nodes.extend(node.values())
        elif isinstance(node, list):
            nodes.extend(node)

    _require("S" in cfg, "config needs an S section")
    raw_s = cfg["S"]
    _require(isinstance(raw_s, list), "S must be a list")
    _require(len(raw_s) <= MAX_S_ENTRIES,
             f"S must have at most {MAX_S_ENTRIES} entries")
    entries = []
    for k, ent in enumerate(raw_s):
        _require(isinstance(ent, dict), f"S[{k}] must be an object")
        _require(set(ent) <= {"p", "select"}, f"S[{k}] takes only p and select")
        _require("p" in ent, f"S[{k}] needs p")
        p = _int_in(ent["p"], f"S[{k}].p", 2)
        _require(p < PRIME_BOUND, f"S[{k}].p must be below {PRIME_BOUND}, "
                 f"where primality is proved")
        sel = ent.get("select", "all")
        if sel == "all":
            pass
        elif isinstance(sel, dict) and set(sel) == {"index"}:
            _int_in(sel["index"], f"S[{k}].select.index", 0)
        elif isinstance(sel, dict) and set(sel) == {"generator"}:
            gen = sel["generator"]
            _require(isinstance(gen, list) and gen,
                     f"S[{k}].select.generator must be a nonempty list")
            try:
                sel = {"generator": [format_rational(parse_rational(c))
                                     for c in gen]}
            except DatasheetInvalid as e:
                raise ConfigInvalid(f"S[{k}].select.generator: {e}") from None
        else:
            raise ConfigInvalid(
                f"S[{k}].select must be \"all\", {{\"index\": i}} or "
                f"{{\"generator\": [...]}}")
        entries.append({"p": p, "select": sel})

    h = _int_in(cfg.get("h", 1), "h", 1, MAX_H)
    big_n = cfg.get("N", "search")
    if big_n != "search":
        _int_in(big_n, "N", 1, MAX_N)
    seed = _int_in(cfg.get("seed", 0), "seed", 0)

    verify = dict(VERIFY_DEFAULTS)
    raw_v = cfg.get("verify", {})
    _require(isinstance(raw_v, dict), "verify must be an object")
    unknown = set(raw_v) - set(VERIFY_DEFAULTS)
    _require(not unknown, f"unknown verify keys: {sorted(unknown)}")
    verify.update(raw_v)
    _int_in(verify["primes"], "verify.primes", 0)
    _int_in(verify["q_bound"], "verify.q_bound", 2, MAX_Q_BOUND)
    _int_in(verify["witness_samples"], "verify.witness_samples", 0,
            MAX_WITNESS_SAMPLES)
    for key in ("r", "s"):
        win = verify[key]
        _require(isinstance(win, list) and len(win) == 2
                 and all(isinstance(v, int) and not isinstance(v, bool)
                         for v in win)
                 and win[0] <= win[1],
                 f"verify.{key} must be [lo, hi] with lo <= hi")
        _require(-MAX_WINDOW <= win[0] and win[1] <= MAX_WINDOW,
                 f"verify.{key} must lie within [-{MAX_WINDOW}, {MAX_WINDOW}]")

    return {
        "field": {"poly": list(poly), "datasheet": datasheet},
        "S": entries,
        "h": h,
        "N": big_n,
        "seed": seed,
        "verify": verify,
    }


def resolve_prime_set(field, entries):
    """Turn config S entries into the canonical PrimeSet."""
    chosen = []
    for k, ent in enumerate(entries):
        factors = factor_rational_prime(field, ent["p"])
        sel = ent["select"]
        if sel == "all":
            chosen.extend(factors)
        elif "index" in sel:
            i = sel["index"]
            _require(i < len(factors),
                     f"S[{k}]: index {i} out of range, {ent['p']} has "
                     f"{len(factors)} primes above it")
            chosen.append(factors[i])
        else:
            coords = [parse_rational(c) for c in sel["generator"]]
            _require(len(coords) <= field.degree,
                     f"S[{k}]: generator has more than {field.degree} "
                     f"coordinates")
            coords += [0] * (field.degree - len(coords))
            g = field.element(coords)
            matches = [P for P in factors if P.contains(g)]
            _require(len(matches) == 1,
                     f"S[{k}]: generator lies in {len(matches)} of the "
                     f"primes above {ent['p']}, need exactly 1")
            chosen.append(matches[0])
    return PrimeSet(field, chosen)


# ---------------------------------------------------------------------------
# Report assembly.

def analysis_section(field, S, info):
    """The analysis section: rank_table rows extend classification's."""
    s_units = info.sbasis.serialize()
    ranks = [{"poly": list(sr.F.subfield.poly),
              "rank_of_intersection": sr.rank} for sr in info.subfields]
    rank_table = [dict(row, subfield_s_unit_rank=sr.SF.card - 1)
                  for row, sr in zip(ranks, info.subfields)]
    cm = info.cm.serialize() if info.cm is not None else None
    classification = {"case": info.case, "s_unit_rank": s_units["rank"],
                      "subfield_ranks": ranks}
    if cm is not None:
        classification["cm"] = cm
    return {
        "field": field.serialize(),
        "S": S.serialize(),
        "s_units": s_units,
        "rank_table": rank_table,
        "cm": cm,
        "classification": classification,
    }


def work_counters(report):
    """Deterministic effort summary assembled from the report itself;
    identity_checks counts identities established, not products."""
    c = {}
    alpha = report.get("alpha")
    if alpha is not None:
        cert = alpha["certificate"]
        c["alpha_candidates_tried"] = cert["avoidance"]["candidates_tried"]
        c["alpha_index_levels"] = sum(row["level"] + 1
                                      for row in cert["index_table"])
    ver = report.get("verification")
    if ver is not None:
        ident = ver["identities"]
        c["identity_checks"] = (ident["exponent_identities"]
                                + ident.get("cm_identities", 0))
        ladder = ver["ladder"]
        c["ladder_levels"] = (len(ladder["m_per_level"])
                              + len(ladder.get("M_per_level", [])))
        c["witness_words"] = ver["witnesses"]["count"]
        c["modp_primes"] = len(ver["modp"])
        c["modp_bfs_expansions"] = sum(r["bfs_expansions"]
                                       for r in ver["modp"])
    return c


def run_instance(cfg, command):
    """The report of command on the validated config cfg.  What schema 1
    repeats (triple.classification, triple.alpha, triple.alpha_in_K and
    classification.cm) is one shared object, serialized once."""
    field = create_field(cfg["field"]["poly"], cfg["field"]["datasheet"])
    S = resolve_prime_set(field, cfg["S"])
    if command == "analyze":
        info = classify_case(field, S)
    else:
        triple = build_generators(field, S, h=cfg["h"])
        info = triple.case_info

    analysis = analysis_section(field, S, info)
    report = {
        "schema": 1,
        "command": command,
        "instance": cfg,
        "analysis": analysis,
    }
    if command != "analyze":
        alpha = {
            "certificate": triple.alpha_cert.serialize(),
            "search_field": list(triple.alpha_cert.sbasis.field.poly),
        }
        if info.case == 2:
            alpha["alpha_in_K"] = triple.alpha_in_K.serialize()
        report["alpha"] = alpha
    if command in ("generate", "verify"):
        report["triple"] = section = {
            "case": info.case,
            "h": triple.h,
            "classification": analysis["classification"],
            "alpha": alpha["certificate"],
            "gamma": triple.gamma.serialize(),
            "psi1": triple.psi1.serialize(),
            "psi2": triple.psi2.serialize(),
        }
        if info.case == 2:
            section["alpha_in_K"] = alpha["alpha_in_K"]
    if command == "verify":
        report["verification"] = run_verification(
            triple, cfg["verify"], cfg["seed"], cfg["N"])
    report["timings"] = {
        "deterministic": True,
        "note": "abstract work counts; wall clock is printed to stderr",
        "work": work_counters(report),
    }
    return report


# ---------------------------------------------------------------------------
# Built-in examples.

BUILTIN_EXAMPLES = [
    {
        "name": "gaussian-over-2",
        "config": {"field": {"poly": [1, 0, 1]},
                   "S": [{"p": 2, "select": "all"}]},
        "expected": {"card": 2, "s_unit_rank": 1,
                     "rank_of_intersection_over_Q": 1, "case": 2},
    },
    {
        "name": "gaussian-over-5",
        "config": {"field": {"poly": [1, 0, 1]},
                   "S": [{"p": 5, "select": "all"}]},
        "expected": {"card": 3, "s_unit_rank": 2,
                     "subfield_s_unit_rank_over_Q": 1,
                     "rank_of_intersection_over_Q": 1, "case": 1},
    },
]


def run_examples():
    from .errors import VerificationFailure
    out = []
    for ex in BUILTIN_EXAMPLES:
        cfg = validate_config(ex["config"])
        report = run_instance(cfg, "analyze")
        analysis = report["analysis"]
        row_q = analysis["rank_table"][0]
        got = {
            "card": analysis["S"]["card"],
            "s_unit_rank": analysis["s_units"]["rank"],
            "rank_of_intersection_over_Q": row_q["rank_of_intersection"],
            "case": analysis["classification"]["case"],
        }
        if "subfield_s_unit_rank_over_Q" in ex["expected"]:
            got["subfield_s_unit_rank_over_Q"] = row_q["subfield_s_unit_rank"]
        matched = got == ex["expected"]
        out.append({
            "name": ex["name"],
            "instance": report["instance"],
            "analysis": analysis,
            "expected": ex["expected"],
            "got": got,
            "matched": matched,
        })
        if not matched:
            raise VerificationFailure(
                f"example {ex['name']}: got {got}, expected {ex['expected']}")
    return {"schema": 1, "command": "examples", "examples": out}


# ---------------------------------------------------------------------------
# Report writer.

# json.dumps(obj, indent=2, sort_keys=True) runs CPython's pure-Python
# encoder (the C encoder does not indent); write_report gives the same
# bytes for the types a report holds, each scalar by the text json.dumps
# writes for it.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def write_report(obj):
    """json.dumps(obj, indent=2, sort_keys=True) for dicts with str keys,
    lists, tuples, str, int, bool and None; TypeError on anything else."""
    out = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, newline, out):
    """Append obj's text to out; newline is the line break and indent of
    obj's own level.  Pieces go to one list, joined once, so a deep tree
    is not copied once per level; one frame per level, as in the encoder
    of json.dumps, lets it nest as deep."""
    scalar = _SCALAR_TEXT.get(type(obj))
    if scalar is not None:
        out.append(scalar(obj))
        return
    inner = newline + "  "
    if type(obj) is dict:
        if not obj:
            out.append("{}")
            return
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif type(obj) is list or type(obj) is tuple:
        if not obj:
            out.append("[]")
            return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"a report holds no {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Entry point.

class _Parser(argparse.ArgumentParser):
    # bad usage is malformed input, keep it on exit code 1
    def error(self, message):
        raise ConfigInvalid(message)


def build_parser():
    p = _Parser(prog="sgen2",
                description="Generators for the S-integral special linear "
                            "group of a number field, with verification.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, desc in (("analyze", "ranks, CM data and case"),
                       ("alpha", "analyze plus the certified unit"),
                       ("generate", "alpha plus the matrix triple"),
                       ("verify", "generate plus all checks")):
        # no prefix matching: "--h" would otherwise read as "--help"
        sp = sub.add_parser(name, help=desc, allow_abbrev=False)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    ex = sub.add_parser("examples", help="run the built-in sample instances",
                        allow_abbrev=False)
    ex.add_argument("--out", default=None)
    return p


# Built once: parse_args keeps no state between calls.
PARSER = build_parser()


def main(argv=None):
    started = time.monotonic()
    try:
        args = PARSER.parse_args(argv)
        if args.command == "examples":
            report = run_examples()
        else:
            report = run_instance(load_config(args.config), args.command)
        text = write_report(report) + "\n"
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as e:
                raise ConfigInvalid(f"cannot write report: {e}") from None
        else:
            sys.stdout.write(text)
    except SgenError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return e.exit_code
    elapsed = time.monotonic() - started
    print(f"done in {elapsed:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
