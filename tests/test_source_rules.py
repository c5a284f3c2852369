"""The source rules of sgen2: each is a function of one walk over
src/sgen2, bench and tests/oracles.py that returns its findings as
"path:line: what".  It must find nothing on the tree and must flag each
of its MUTANTS lines, appended to the end of a file."""
import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def sources():
    paths = (sorted(ROOT.glob("src/sgen2/*.py"))
             + sorted(ROOT.glob("bench/*.py")) + [ROOT / "tests/oracles.py"])
    return {p.relative_to(ROOT).as_posix(): p.read_text() for p in paths}


def walk(texts):
    """{path: [(node, the definitions around it, outermost first)]}"""
    def visit(node, owners):
        for child in ast.iter_child_nodes(node):
            yield child, owners
            yield from visit(child, owners + (child,)
                             if isinstance(child, DEFS) else owners)
    return {path: list(visit(ast.parse(text, path), ()))
            for path, text in texts.items()}


def library(tree):
    return [(p, nodes) for p, nodes in tree.items() if p.startswith("src/")]


def where(path, owners):  # "module.Class.function"
    return ".".join([Path(path).stem] + [o.name for o in owners])


def reads(node):
    """The names a node reads: a name; an attribute, also as ".attr" and,
    on a name x, as "x.attr"; an imported name, also as "module.name"."""
    if isinstance(node, (ast.Name, ast.alias)):
        return {node.id if isinstance(node, ast.Name) else node.name}
    if isinstance(node, ast.Attribute):
        on = f"{node.value.id}." if isinstance(node.value, ast.Name) else "."
        return {node.attr, "." + node.attr, on + node.attr}
    if isinstance(node, ast.ImportFrom) and node.module:
        return {f"{node.module}.{a.name}" for a in node.names}
    return set()


def loads(nodes):
    """{a definition, or None for the whole file: the names read in it}"""
    read = {}
    for n, owners in nodes:
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            for o in (None,) + owners:
                read.setdefault(o, set()).add(n.id)
    return read


def stdlib_only(tree):
    """src/sgen2 imports only the standard library."""
    return [f"{p}:{n.lineno}: imports {m}" for p, nodes in library(tree)
            for n, _ in nodes for m in (
                [a.name for a in n.names] if isinstance(n, ast.Import) else
                [n.module] if isinstance(n, ast.ImportFrom) and not n.level
                else []) if m.split(".")[0] not in sys.stdlib_module_names]


def no_assert(tree):
    """No assert in src/sgen2: python -O removes it, so it guards nothing."""
    return [f"{p}:{n.lineno}: assert" for p, nodes in library(tree)
            for n, _ in nodes if isinstance(n, ast.Assert)]


# What tests/oracles.py cross-checks, so may not read (".x": as an
# attribute): class orders, valuations, forms, principal generators and
# units, and ResidueMap's tables, basis images and residue arithmetic.
# It takes ORACLE_LINALG of sgen2.linalg and nothing of ORACLE_MODULES.
ORACLE_BANNED = {
    "valuation", "class_order", "_class_order", "_class_order_by_forms",
    "_compose", "_primitive_part", "_witness",
    "_reduced_generator", "_principal_generator", "_unit_rows",
    "_principal_generator_quadratic", "_torsion_units", "fundamental_unit",
    ".mul_table", ".add_table", ".neg_table", ".inv_table", "._log", "._exp",
    "._zech", "._cols", "._digits", "._number", "._residue"}
ORACLE_LINALG = {"hnf", "int_det"}
ORACLE_MODULES = {"sgen2.field", "sgen2.generators", "sgen2.polys", "polys"}


def oracle_independent(tree):
    """tests/oracles.py shares no code with what it checks."""
    return [f"tests/oracles.py:{n.lineno}: reads {name}"
            for n, _ in tree["tests/oracles.py"] for name in sorted(reads(n))
            for module, _, attr in [name.rpartition(".")]
            if name in ORACLE_BANNED or name in ORACLE_MODULES
            or module in ORACLE_MODULES | {"sgen2.linalg"}
            or module == "linalg" and attr not in ORACLE_LINALG]


# the only functions of src/sgen2 that name Fraction: the boundary
FRACTION = {
    "field.parse_rational", "field.format_rational", "field.create_field",
    "field.FieldElement._coerce", "field.FieldElement.__eq__",
    "field.FieldElement.norm", "field.FieldElement.trace",
    "field.NumberField.from_ib", "field.NumberField.from_rational",
    "linalg.solve", "linalg.mat_det", "polys.isolate_real_roots",
    "sunits.exponent_vector"}


def fraction_boundary(tree):
    """Fraction is named only at the boundary (FRACTION)."""
    return [f"{p}:{n.lineno}: Fraction in {where(p, owners)}"
            for p, nodes in library(tree) for n, owners in nodes
            if isinstance(n, (ast.Name, ast.Attribute))
            and "Fraction" in reads(n) and where(p, owners) not in FRACTION]


def mentioned(tree):
    """Every class and function of src/sgen2 (not __init__, not a dunder)
    is mentioned in src/sgen2 or bench outside its own body: by a name,
    an attribute, or an identifier in a string, dotted ones split.  A
    method counts as mentioned only by an attribute or a string, not by
    a local name that happens to share its name."""
    defined, mentions = {}, {}
    for p, nodes in tree.items():
        for n, owners in nodes:
            if (isinstance(n, DEFS) and p.startswith("src/")
                    and not p.endswith("__init__.py")
                    and not n.name[:2] == n.name[-2:] == "__"):
                method = bool(owners) and isinstance(owners[-1], ast.ClassDef)
                defined.setdefault(n.name, []).append((p, n, method))
            words = ([n.id] if isinstance(n, ast.Name) else
                     [n.attr] if isinstance(n, ast.Attribute) else
                     n.value.split(".") if isinstance(n, ast.Constant)
                     and isinstance(n.value, str) else [])
            for w in words:
                if w.isidentifier() and p != "tests/oracles.py":
                    mentions.setdefault(w, []).append(
                        (owners, isinstance(n, ast.Name)))
    return [f"{p}:{n.lineno}: {name} is not mentioned outside its own body"
            for name, defs in defined.items() for p, n, _ in defs[:1]
            if not any(d not in owners
                       for owners, by_name in mentions.get(name, ())
                       for _, d, method in defs if not (method and by_name))]


def unused_import(tree):
    """Each module of src/sgen2 but __init__ reads every name it imports."""
    return [f"{p}:{n.lineno}: {name} is imported but never read"
            for p, nodes in library(tree) if not p.endswith("__init__.py")
            for read in [loads(nodes).get(None, set())]
            for n, _ in nodes if isinstance(n, ast.alias)
            for name in [n.asname or n.name.split(".")[0]] if name not in read]


def unused_parameter(tree):
    """Each function of src/sgen2 reads each parameter but self, cls, _x."""
    return [f"{p}:{n.lineno}: {n.name} never reads {q.arg}"
            for p, nodes in library(tree) for read in [loads(nodes)]
            for n, _ in nodes
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            for q in ast.walk(n.args) if isinstance(q, ast.arg)
            and q.arg not in ("self", "cls") and not q.arg.startswith("_")
            and q.arg not in read.get(n, ())]


# name (in the forms of reads()) -> where in src/sgen2 it may be read:
# "module.function" (a nested function reads on its own account), or
# "module[.function] import".  An import under another name hides its
# reads, so it is never allowed.
READERS = {
    "factor_mod_p": {"ideals._kummer_factors"},
    "valuation": set(),  # the library computes no valuation
    # no 2x2 product over K: the identities follow from the proved shapes
    "m2_mul": set(), "m2_inv": set(),
    "Shape": {"verification.prove_shape"},
    "prove_shape": {"__init__ import", "verification.run_verification"},
    ".datasheet": set(),  # create_field alone reads the sheet
    # ring indices: the S-unit basis builds each power span once, and
    # PowerSpan.index alone runs the rule; it and recheck, the one
    # Lagrange containment check, read the levels
    "PowerSpan": {"sunits.SUnitBasis.span"},
    "LEVEL_BOUND": {"sunits", "sunits.PowerSpan.index"},
    ".level": {"sunits.PowerSpan.index", "sunits.PowerSpan.recheck"},
    # the index rechecks what it found, and the case-1 prime walk, which
    # decides primes by the ladder's m, rechecks that m
    ".recheck": {"sunits.PowerSpan.index", "verification.admissible_primes"},
    ".sum_index": {"sunits.PowerSpan.index"},
    "json.dump": set(), "json.dumps": set(),  # cli.write_report alone
    # one Sturm chain per polynomial, handed to its readers, not rebuilt
    "sturm_chain": {"polys.sturm_chain", "polys.isolate_real_roots",
                    "field.create_field", "sunits import",
                    "sunits._totally_positive"},
    # one Hermite form: a transform or a kernel is the carried part of
    # hnf's rows, so no elimination with a transform comes back
    "hnf_with_transform": set(),
    # one HNF per witness span and stage, which the span keeps and the
    # witness words alone read
    ".presentation": {"verification.elementary_witness"},
    # one image count per walked prime, in the walk that reports primes
    "modp_surjectivity": {"verification.admissible_primes", "__init__ import"},
    # one exponent walk, which the alpha search and the unit discrete log
    # share; the discrete log alone reads its radius
    "itertools.product": {"sunits._exponent_shells"},
    "DLOG_BOUND": {"sunits", "sunits.exponent_vector"},
    # one classification per S-unit basis: classify_case alone builds the
    # basis and the rank table, for K and for F, and choose_alpha reads
    # both off the CaseInfo it returns
    "s_unit_basis": {"__init__ import", "generators import",
                     "generators.classify_case"},
    "SubfieldRank": {"generators import", "generators.classify_case",
                     "sunits.rank_of_intersection"},
}


def readers(tree):
    """Each name of READERS is read only where READERS says."""
    return [f"{p}:{n.lineno}: {name} read in {at}"
            for p, nodes in library(tree) for n, owners in nodes
            for names in [reads(n) & READERS.keys()] if names
            for at in [where(p, owners) + (
                "" if not isinstance(n, ast.alias) else
                " import" if n.asname in (None, n.name) else " as")]
            for name in sorted(names) if at not in READERS[name]]


# rule -> "file: line", file a module of src/sgen2 or oracles: the line,
# appended alone to the file, must be flagged
MUTANTS = {
    stdlib_only: ["cli: import numpy", "cli: from yaml import safe_load"],
    no_assert: ["field: assert True"],
    oracle_independent: ["oracles: " + line for line in (
        "linalg.solve(rows, target)", "from sgen2.linalg import hnf",
        "from sgen2.field import create_field", "from sgen2 import field",
        "from sgen2.generators import m2_mul", "from sgen2 import generators",
        "import sgen2.generators", "R.neg_table", "R._zech", "R.prime._cols",
        "R._digits", "from sgen2.ideals import valuation",
        "ideals.class_order(P)", "ideals._compose(f, g)",
        "ideals._reduced_generator(I)", "ideals._principal_generator(I)",
        "ideals._principal_generator_quadratic(I)", "ideals._unit_rows(K)",
        "from sgen2.field import _torsion_units", "fundamental_unit(K)",
        "from sgen2 import polys", "import sgen2.polys",
        "from sgen2.polys import is_prime", "polys.is_prime(7)")],
    fraction_boundary: ["polys: def pdivmod(a, b): return Fraction(a, b)",
                        "polys: def sqrt_upper(n): return Fraction(n)"],
    mentioned: ["linalg: def integer_kernel(r): return integer_kernel(r)",
                "linalg: class ResidueFieldTooLarge(ValueError): pass",
                # a method of RatLattice, the class linalg ends with, that
                # only the local name entry of ideals.class_order names
                "linalg:     def entry(self, i, j): return self.tri[i][j]"],
    unused_import: ["verification: from .generators import m2_identity"],
    unused_parameter: ["sunits: def _f(field, S): return S"],
    readers: [
        "ideals: def factor(f, p): return polys.factor_mod_p(f, p)",
        "sunits: def s_unit_basis(K, S): return valuation(K.one, S)",
        "sunits: def _certify_alpha(a, P): return valuation(a, P)",
        "sunits: from .ideals import valuation as v",
        "verification: def reduce_triple(t, R): return m2_mul(t, R)",
        "verification: from .generators import m2_mul",
        "verification: def identity_suite(s): return m2_inv(s)",
        "verification: def elementary_witness(s): return prove_shape(s)",
        "verification: def admissible_primes(t): return Shape(t, 1, 1, 1)",
        "verification: def run_verification(t): return isinstance(t, Shape)",
        "cli: generators.m2_inv", "cli: text = json.dumps(report)",
        "cli: from json import dumps", "sunits: k = K.datasheet",
        "verification: PowerSpan(a2, h)", "verification: sbasis.level(0)",
        "sunits: def zalpha_index(b, a, n): return b.level(n)",
        "verification: def ideal_ladder(s): return s.lower.recheck(1, 0)",
        "cli: span.recheck(m, 0)",
        "verification: lam.sum_index(span.lattice(2))",
        "sunits: def map_element(x): return x.sum_index(1, [])",
        "verification: from .sunits import PowerSpan",
        "cli: from .sunits import LEVEL_BOUND",
        "sunits: def zalpha_index(b, a, n): return PowerSpan(b, a, 1).index()",
        "generators: for k in range(sunits.LEVEL_BOUND): pass",
        "polys: def integer_roots(f): return sturm_chain(f)",
        "field: def _irreducibility_screen(p): return polys.sturm_chain(p)",
        "verification: def elementary_witness(s, x): return "
        "hnf_with_transform(x)",
        "verification: from .linalg import hnf_with_transform",
        "verification: def prove_shape(t): return hnf_with_transform(t.rows)",
        "sunits: def zalpha_index(b, a, n): return hnf_with_transform(b)",
        "field: def _build_ib_inv(f): return linalg.hnf_with_transform(f)",
        "sunits: from .linalg import hnf_with_transform",
        "linalg: def solve(rows, t): return hnf_with_transform([t] + rows)",
        "verification: def ideal_ladder(s): return s.lower.presentation(0)",
        "sunits: def zalpha_index(b, a, n): return b.span(a).presentation(n)",
        "cli: den, H = span.presentation(1)",
        "verification: def run_verification(t): return modp_surjectivity(t)",
        "verification: def reduce_triple(t, M): return modp_surjectivity(M, t)",
        "cli: from .verification import modp_surjectivity",
        "sunits: def exponent_vector(b, w, v): "
        "return itertools.product(range(-8, 9), repeat=2)",
        "sunits: def choose_alpha(f, n): return itertools.product(f, repeat=n)",
        "verification: from itertools import product",
        "sunits: def choose_alpha(f, S): return DLOG_BOUND",
        "generators: for k in range(sunits.DLOG_BOUND): pass",
        "cli: from .sunits import DLOG_BOUND",
        "generators: def build_generators(F, SF): return s_unit_basis(F, SF)",
        "verification: from .sunits import s_unit_basis",
        "generators: def build_generators(F, SF): return SubfieldRank(SF, F)",
        "sunits: def choose_alpha(S, F): return SubfieldRank(S, F).rank"],
}


@pytest.fixture(scope="module")
def tree():
    return walk(sources())


@pytest.mark.parametrize("rule", MUTANTS, ids=lambda r: r.__name__)
def test_rule_finds_nothing_on_the_tree(tree, rule):
    assert rule(tree) == []


@pytest.mark.parametrize("rule, mutant", [
    (r, m) for r, mutants in MUTANTS.items() for m in mutants],
    ids=[f"{r.__name__}:{m}" for r, ms in MUTANTS.items() for m in ms])
def test_rule_flags_an_appended_line(tree, rule, mutant):
    stem, line = mutant.split(": ", 1)
    path = "tests/oracles.py" if stem == "oracles" else f"src/sgen2/{stem}.py"
    lines = (ROOT / path).read_text().splitlines() + [line]
    found = rule(dict(tree, **walk({path: "\n".join(lines) + "\n"})))
    assert any(f.startswith(f"{path}:{len(lines)}:") for f in found), found
