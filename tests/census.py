"""Census of small instances: `verify` on every row, each outcome and the
digests of its output compared with the frozen table
tests/census_expected.json.

    PYTHONPATH=src python3 tests/census.py            # check the table
    PYTHONPATH=src python3 tests/census.py --freeze   # rewrite it

Each row runs in-process through cli.main, stopped after LIMIT_S seconds;
the SLOWEST slowest rows are printed with their seconds after the tally.
Its outcome is the exit code and the error class that cli.main names on
stderr, [0, null] for a report and [null, "Timeout"] past the limit,
followed by the sha256 of its stdout (the report) and of its stderr
without the wall-clock "done in" line (null, null past the limit).  So
a row that keeps its exit code but changes a byte of its report or of a
stderr line is named too.  The file is not collected by the tier-1
suite.

The table keeps today's failures as failures.  A fix flips its rows to
exit 0 in the same change; no row may go from exit 0 to another code,
and the grid is never shrunk to drop a failing row.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import signal
import sys
import tempfile
import time

from sgen2 import cli
from sgen2.field import create_field
from sgen2.ideals import factor_rational_prime

from test_field import ZETA5_CLASS_ORDER, ZETA5_DATASHEET

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "census_expected.json")
LIMIT_S = 5
SLOWEST = 5  # rows whose seconds follow the tally line
PRIME_SETS = [(2,), (3,), (5,), (7,), (2, 3), (2, 5), (3, 5), (2, 7)]
IDENTITY_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
IDENTITY_4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
# Shanks' simplest cubics x^3 - a x^2 - (a + 3) x - 1 (conductors 7, 9,
# 13, 19, 37, 79, 97), each over one prime or two small primes
SHANKS_A = (-1, 0, 1, 2, 4, 7, 8)
SHANKS_PRIME_SETS = ([(p,) for p in (2, 3, 5, 7, 11, 13)]
                     + list(itertools.combinations((2, 3, 5, 7), 2)))
# Fields of class number 1 on the basis 1, t, ..., over the Shanks prime
# sets: (row name, poly, fundamental units, subfields as (poly,
# embedding)).  The two cyclotomic quartics are CM; x^3 - x - 1 (disc
# -23, Z[t] maximal) is the non-Galois cubic with unit t.
CLASS_NUMBER_ONE = [
    ("Q(zeta8)", [1, 0, 0, 0, 1], [[1, 1, 0, -1]],  # 1 + sqrt 2
     [([-2, 0, 1], [0, 1, 0, -1]), ([1, 0, 1], [0, 0, 1, 0]),
      ([2, 0, 1], [0, 1, 0, 1])]),
    ("Q(zeta12)", [1, 0, -1, 0, 1], [[1, -1, 0, 0]],
     [([-3, 0, 1], [0, 2, 0, -1]), ([1, 0, 1], [0, 0, 0, 1]),
      ([3, 0, 1], [-1, 0, 2, 0])]),
    ("x^3 - x - 1", [-1, -1, 0, 1], [[0, 1, 0]], []),
]
# the first 16 primes; Q(i) is run over the first n of them for each n
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
FIRST_PRIMES_COUNTS = (12, 13, 14, 15, 16)
# class-order generators are searched shell by shell: the coordinate
# vectors whose largest |coordinate| is r, for r up to this radius
GENERATOR_RADIUS = 6


def _squarefree(d):
    return all(d % (p * p) for p in range(2, abs(d) + 1))


def _config(poly, primes, datasheet=None):
    field = {"poly": poly}
    if datasheet is not None:
        field["datasheet"] = datasheet
    return {"field": field, "S": [{"p": p} for p in primes]}


def _shells(n):
    """The integer vectors of length n by shells: largest |coordinate| r =
    0, 1, ..., GENERATOR_RADIUS, each shell in increasing order."""
    for r in range(GENERATOR_RADIUS + 1):
        yield from sorted(c for c in itertools.product(range(-r, r + 1),
                                                       repeat=n)
                          if max(map(abs, c)) == r)


def _sheet(poly, units, subfields, primes):
    """The datasheet of poly on the basis 1, t, ..., t^(n-1) with these
    fundamental units and subfields, over the given primes.

    The field must have class number 1.  Each prime P over the given
    primes gets class order 1 with a generator: p itself when p is
    inert, otherwise the first element of norm +-N(P) in P by _shells.
    A prime with no generator there is left out, and create_field then
    names it.
    """
    n = len(poly) - 1
    sheet = {"integral_basis": [[int(i == j) for j in range(n)]
                                for i in range(n)],
             "fundamental_units": units,
             "subfields": [{"poly": f, "embedding": e} for f, e in subfields]}
    field = create_field(poly, dict(sheet, class_orders=[]))
    orders = []
    for p in primes:
        for P in factor_rational_prime(field, p):
            candidates = [(p,) + (0,) * (n - 1)] if P.f == n else _shells(n)
            for coords in candidates:
                x = field.element(coords)
                if abs(x.norm()) == P.norm and P.contains(x):
                    orders.append({"ideal": [list(r) for r in P.hnf],
                                   "order": 1, "generator": list(coords)})
                    break
    return dict(sheet, class_orders=orders)


def _shanks_sheet(a, primes):
    """The datasheet of x^3 - a x^2 - (a + 3) x - 1 over the given primes:
    disc f_a = (a^2 + 3a + 9)^2 is the field discriminant for these a, so
    1, t, t^2 is an integral basis, and t, t + 1 are fundamental units
    (Thomas 1979)."""
    return _sheet([-1, -(a + 3), -a, 1], [[0, 1, 0], [1, 1, 0]], [], primes)


def rows():
    """(name, config) for every census row, in a fixed order."""
    out = []
    for d in range(-60, 61):
        if d in (0, 1) or not _squarefree(d):
            continue
        for primes in PRIME_SETS:
            out.append((f"Q(sqrt {d}) over {','.join(map(str, primes))}",
                        _config([-d, 0, 1], primes)))
    zeta5 = [1, 1, 1, 1, 1]
    out += [
        ("zeta5_nofinite", _config(zeta5, (), ZETA5_DATASHEET)),
        ("Q(cbrt 2), unit t - 1",
         _config([-2, 0, 0, 1], (), {"integral_basis": IDENTITY_3,
                                     "fundamental_units": [[-1, 1, 0]]})),
        ("x^4 + 16 on 1, t, t^2, t^3",
         _config([16, 0, 0, 0, 1], (),
                 {"integral_basis": IDENTITY_4,
                  "fundamental_units": [[577, 204, 0, -51]]})),
        ("Q(i) over 5,13,17,29,37,41,53,61",
         _config([1, 0, 1], (5, 13, 17, 29, 37, 41, 53, 61))),
        ("zeta5 over 5, class order declared",
         _config(zeta5, (5,), dict(ZETA5_DATASHEET,
                                   class_orders=[ZETA5_CLASS_ORDER]))),
        ("zeta5, unit zeta5",
         _config(zeta5, (), dict(ZETA5_DATASHEET,
                                 fundamental_units=[[0, 1, 0, 0]]))),
        ("zeta5, unit -1",
         _config(zeta5, (), dict(ZETA5_DATASHEET,
                                 fundamental_units=[[-1, 0, 0, 0]]))),
    ]
    for a in SHANKS_A:
        for primes in SHANKS_PRIME_SETS:
            out.append((f"simplest cubic a = {a} over "
                        f"{','.join(map(str, primes))}",
                        _config([-1, -(a + 3), -a, 1], primes,
                                _shanks_sheet(a, primes))))
    for name, poly, units, subfields in CLASS_NUMBER_ONE:
        for primes in SHANKS_PRIME_SETS:
            out.append((f"{name} over {','.join(map(str, primes))}",
                        _config(poly, primes,
                                _sheet(poly, units, subfields, primes))))
    # 2 + sqrt 3 = -t (1 - t)^-2: a square up to a root of unity, so not
    # a fundamental unit
    name, poly, _, subfields = CLASS_NUMBER_ONE[1]
    out.append((f"{name} over 5, unit 2 + sqrt 3",
                _config(poly, (5,), _sheet(poly, [[2, 2, 0, -1]], subfields,
                                           (5,)))))
    # Q(i) over the first n primes, up to MAX_S_ENTRIES of them
    for n in FIRST_PRIMES_COUNTS:
        out.append((f"Q(i) over the first {n} primes",
                    _config([1, 0, 1], FIRST_PRIMES[:n])))
    return out


class _Timeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise _Timeout


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(cfg, workdir):
    """[exit code, error class or None, sha256 of stdout, sha256 of
    stderr but its "done in" line] of `verify` on cfg."""
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--config", path])
    except _Timeout:
        return [None, "Timeout", None, None]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    lines = [line for line in err.getvalue().splitlines()
             if not line.startswith("done in ")]
    names = [line.split(":")[1].strip() for line in lines
             if line.startswith("error: ")]
    return [code, names[0] if names else None, _sha256(out.getvalue()),
            _sha256("\n".join(lines))]


def main(argv):
    signal.signal(signal.SIGALRM, _on_alarm)
    started = time.monotonic()
    got, seconds = {}, {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, cfg in rows():
            row_started = time.monotonic()
            got[name] = outcome(cfg, workdir)
            seconds[name] = time.monotonic() - row_started
    elapsed = time.monotonic() - started
    if "--freeze" in argv:
        with open(EXPECTED, "w") as fh:
            fh.write("{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                                        for k, v in got.items()) + "\n}\n")
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    tally = {}
    for code, error, _, _ in got.values():
        key = f"exit {code}" + (f" {error}" if error else "")
        tally[key] = tally.get(key, 0) + 1
    print(f"{len(got)} rows in {elapsed:.1f}s: "
          + ", ".join(f"{n} {k}" for k, n in sorted(tally.items(), key=str)))
    print("slowest rows: " + "; ".join(
        f"{name} {seconds[name]:.2f}s"
        for name in sorted(seconds, key=seconds.get, reverse=True)[:SLOWEST]))
    bad = []
    for name in sorted(set(expected) | set(got)):
        want, have = expected.get(name), got.get(name)
        if want is None or have is None or want[:2] != have[:2]:
            bad.append(f"{name}: expected {want and want[:2]}, "
                       f"got {have and have[:2]}")
        elif want != have:
            streams = [s for s, w, h in zip(("stdout", "stderr"), want[2:],
                                            have[2:]) if w != h]
            bad.append(f"{name}: {' and '.join(streams)} bytes differ")
    print("\n".join(bad) or "every row matches the frozen table")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
