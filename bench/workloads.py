"""The benchmark's workloads: each is a list of reports built from a seed.

A report is one ``sgen2 <command> --config <file>`` run.  The program
receives only the config of each report; the names and the golden table
belong to the benchmark.  README.md in this directory says why each
workload was chosen.
"""

import itertools
import json
import random
from collections import namedtuple

Report = namedtuple("Report", "name command config")

# The quartic Q(zeta5) with S = infinite places only; the same sheet the
# test suite uses.
ZETA5_DATASHEET = {
    "integral_basis": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                       [0, 0, 0, 1]],
    "fundamental_units": [[0, 0, -1, -1]],
    "subfields": [{"poly": [-5, 0, 1], "embedding": [-1, 0, -2, -2]}],
    "class_orders": [],
}


def _over(*primes):
    return [{"p": p, "select": "all"} for p in primes]


def _config(poly, s_entries, datasheet=None):
    field = {"poly": list(poly)}
    if datasheet is not None:
        field["datasheet"] = datasheet
    return {"field": field, "S": s_entries}


# (name, poly, S).  The first six are the desk instances of
# tests/instances.py.  sqrt103_5 is a valid case-1 instance that the
# admissible-prime filter rejects at p = 7 today: it stays in the ladder
# so the defect shows as a failed report until it is fixed.
VERIFY_LADDER = [
    ("rational_two", [-1, 1], _over(2)),
    ("gaussian_two", [1, 0, 1], _over(2)),
    ("gaussian_three", [1, 0, 1], _over(3)),
    ("gaussian_five", [1, 0, 1], _over(5)),
    ("sqrt2_seven", [-2, 0, 1], [{"p": 7, "select": {"generator": [3, 1]}}]),
    ("sqrt5_two", [-5, 0, 1], _over(2)),
    ("gauss_4p", [1, 0, 1], _over(5, 13, 17, 29)),
    ("sqrt2_3p", [-2, 0, 1], _over(7, 17, 23)),
    ("rational_6p", [-1, 1], _over(2, 3, 5, 7, 11, 13)),
    ("zeta5_nofinite", [1, 1, 1, 1, 1], []),
    ("sqrt103_5", [-103, 0, 1], _over(5)),
]

# generate runs whose time goes to the principal-ideal box search:
# fundamental units near 1e5 and 6e5, and class number 10.
PRINCIPAL_IDEALS = [
    ("sqrt67_5", [-67, 0, 1], _over(5)),
    ("sqrt118_5", [-118, 0, 1], _over(5)),
    ("sqrtm119_3", [119, 0, 1], _over(3)),
]

# Q and the quadratic fields Q(sqrt d) of class number 1 in the pool.
SWEEP_FIELDS = (1, -1, -2, -3, -7, -11, -19, -43, -67, -163, 2, 3, 5, 13)
SWEEP_PRIMES = (2, 3, 5, 7, 11, 13)
SWEEP_COMMANDS = ("analyze", "alpha")


def _sweep_poly(d):
    return [-1, 1] if d == 1 else [-d, 0, 1]


def _sweep_report(d, primes, command):
    name = f"{command}_d{d}_S{'-'.join(map(str, primes))}"
    return Report(name, command,
                  _config(_sweep_poly(d), _over(*primes)))


def verify_ladder(seed):
    reports = [Report(name, "verify",
                      _config(poly, s, ZETA5_DATASHEET if len(poly) == 5
                              else None))
               for name, poly, s in VERIFY_LADDER]
    random.Random(seed).shuffle(reports)
    return reports


def principal_ideals(seed):
    reports = [Report(name, "generate", _config(poly, s))
               for name, poly, s in PRINCIPAL_IDEALS]
    random.Random(seed).shuffle(reports)
    return reports


def sweep_pool():
    """Every analyze/alpha report on the pool: each field with S over
    one or two of the primes."""
    sets = ([(p,) for p in SWEEP_PRIMES]
            + list(itertools.combinations(SWEEP_PRIMES, 2)))
    return [_sweep_report(d, ps, command) for d in SWEEP_FIELDS
            for ps in sets for command in SWEEP_COMMANDS]


def analyze_sweep(seed):
    # The whole pool, in an order drawn from the seed.  Drawing a subset
    # instead made the p95 report time move 5-13 % from seed to seed,
    # by which of the few slow (field, S) pairs were drawn.
    reports = sweep_pool()
    random.Random(seed).shuffle(reports)
    return reports


WORKLOADS = {
    "verify_ladder": verify_ladder,
    "principal_ideals": principal_ideals,
    "analyze_sweep": analyze_sweep,
}

SWEEP_DESCRIPTION = {
    "fields_d": list(SWEEP_FIELDS),
    "primes": list(SWEEP_PRIMES),
    "commands": list(SWEEP_COMMANDS),
    "primes_per_S": [1, 2],
}


def golden_key(report):
    """The golden table is keyed by what the program receives."""
    return report.command + " " + json.dumps(
        report.config, sort_keys=True, separators=(",", ":"))
