"""Per-layer tracing from outside the program.

The tracer replaces public functions of sgen2 by wrappers at every
module binding that holds them (sgen2 imports with ``from .x import y``,
so each importing module has its own binding).  Spans are kept in memory
as (name, start, end, parent, report) and written out at the end; hot
leaf functions are only counted, because a span per call would cost more
memory than the run itself.
"""

import json
import sys
import time

# Timed functions: metric prefix -> (module, attribute).
SPANNED = {
    "cli.validate_config": ("cli", "validate_config"),
    "cli.resolve_prime_set": ("cli", "resolve_prime_set"),
    "cli.analysis_section": ("cli", "analysis_section"),
    "cli.run_instance": ("cli", "run_instance"),
    "field.create_field": ("field", "create_field"),
    "polys.isolate_real_roots": ("polys", "isolate_real_roots"),
    "ideals.factor_rational_prime": ("ideals", "factor_rational_prime"),
    "ideals.class_order": ("ideals", "class_order"),
    "sunits.s_unit_basis": ("sunits", "s_unit_basis"),
    "sunits.rank_of_intersection": ("sunits", "rank_of_intersection"),
    "sunits.is_cm": ("sunits", "is_cm"),
    "sunits.choose_alpha": ("sunits", "choose_alpha"),
    "sunits.zalpha_index": ("sunits", "zalpha_index"),
    "generators.classify_case": ("generators", "classify_case"),
    "generators.build_generators": ("generators", "build_generators"),
    "verification.run_verification": ("verification", "run_verification"),
    "verification.ideal_ladder": ("verification", "ideal_ladder"),
    "verification.identity_suite": ("verification", "identity_suite"),
    "verification.elementary_witness": ("verification",
                                        "elementary_witness"),
    "verification.admissible_primes": ("verification", "admissible_primes"),
    "verification.modp_surjectivity": ("verification", "modp_surjectivity"),
}

# Counted only: called up to hundreds of thousands of times per report.
COUNTED = {
    "field.norm": ("field", "FieldElement.norm"),
    "linalg.mat_det": ("linalg", "mat_det"),
    "linalg.hnf": ("linalg", "hnf"),
}

# Work counters the reports carry in timings.work -> per-layer metric.
REPORT_WORK = {
    "alpha_candidates_tried": "sunits.alpha_candidates_tried",
    "identity_checks": "verification.identity_checks",
    "witness_words": "verification.witness_words",
    "ladder_levels": "verification.ladder_levels",
}

# Per-layer metrics in the order they are printed, with unit and
# direction.  BENCHMARK.json lists the same names.
PER_LAYER = [
    ("field.create_field_s", "s", "lower"),
    ("field.create_field_calls", "count", "lower"),
    ("polys.isolate_real_roots_s", "s", "lower"),
    ("ideals.factor_rational_prime_s", "s", "lower"),
    ("ideals.class_order_s", "s", "lower"),
    ("ideals.class_order_calls", "count", "lower"),
    ("field.norm_calls", "count", "lower"),
    ("linalg.mat_det_calls", "count", "lower"),
    ("linalg.hnf_calls", "count", "lower"),
    ("sunits.s_unit_basis_s", "s", "lower"),
    ("sunits.s_unit_basis_calls", "count", "lower"),
    ("sunits.s_unit_basis_repeat_share", "share", "lower"),
    ("generators.classify_case_calls", "count", "lower"),
    ("sunits.rank_of_intersection_s", "s", "lower"),
    ("sunits.is_cm_s", "s", "lower"),
    ("sunits.choose_alpha_s", "s", "lower"),
    ("sunits.alpha_candidates_tried", "count", "lower"),
    ("sunits.zalpha_index_s", "s", "lower"),
    ("generators.build_generators_self_s", "s", "lower"),
    ("verification.modp_surjectivity_s", "s", "lower"),
    ("verification.modp_bfs_expansions", "count", "lower"),
    ("verification.modp_expansions_per_s", "1/s", "higher"),
    ("verification.modp_primes", "count", "lower"),
    ("verification.admissible_primes_s", "s", "lower"),
    ("verification.identity_suite_s", "s", "lower"),
    ("verification.identity_checks", "count", "lower"),
    ("verification.elementary_witness_s", "s", "lower"),
    ("verification.witness_words", "count", "lower"),
    ("verification.ideal_ladder_s", "s", "lower"),
    ("verification.ladder_levels", "count", "lower"),
    ("cli.validate_config_s", "s", "lower"),
    ("cli.resolve_prime_set_s", "s", "lower"),
    ("cli.analysis_section_s", "s", "lower"),
    ("cli.serialize_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


class _JsonWithTimedDumps:
    """Stands in for the json module inside sgen2.cli so that report
    serialization is timed; everything else is json's own."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Wrappers over the functions in SPANNED and COUNTED of one import
    of sgen2 (package_modules: short name -> module).  install() puts
    them in place at every binding, uninstall() restores the originals,
    so traced and untraced reports can alternate on the same modules."""

    def __init__(self, package_modules):
        self.spans = []          # (name, start, end, parent, report, outer)
        self.stack = []          # indices of open spans
        self.active = {}         # name -> open spans of that name
        self.calls = {}          # name -> calls, spanned and counted
        self.report = None       # id of the report being run
        self.bfs_expansions = 0
        self.sunit_keys = set()
        self.sunit_repeats = 0
        self.report_work = dict.fromkeys(REPORT_WORK.values(), 0)
        self.report_bytes = 0
        self.swaps = []          # (owner, attribute, original, wrapper)
        for name, (mod, attr) in COUNTED.items():
            self._plan(package_modules, mod, attr, self._counter(name))
        for name, (mod, attr) in SPANNED.items():
            self._plan(package_modules, mod, attr, self._span(name))
        cli = package_modules["cli"]
        self.swaps.append((cli, "json", cli.json, _JsonWithTimedDumps(
            self._span("cli.serialize")(json.dumps))))

    def _plan(self, package_modules, mod, attr, make_wrapper):
        owner = package_modules[mod]
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])
        wrapper = make_wrapper(original)
        if len(path) > 1:
            self.swaps.append((owner, path[-1], original, wrapper))
            return
        for module in package_modules.values():
            for key, value in vars(module).items():
                if value is original:
                    self.swaps.append((module, key, original, wrapper))

    def install(self):
        for owner, key, _, wrapper in self.swaps:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self.swaps:
            setattr(owner, key, original)

    def _counter(self, name):
        calls = self.calls
        calls[name] = 0

        def make(fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted
        return make

    def _span(self, name):
        self.calls[name] = 0
        clock = time.thread_time

        def make(fn):
            def spanned(*args, **kwargs):
                self.calls[name] += 1
                if name == "sunits.s_unit_basis":
                    self._note_s_unit_basis(*args)
                parent = self.stack[-1] if self.stack else -1
                index = len(self.spans)
                self.spans.append(None)
                self.stack.append(index)
                outer = not self.active.get(name)
                self.active[name] = self.active.get(name, 0) + 1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    self.active[name] -= 1
                    self.stack.pop()
                    self.spans[index] = (name, start, end, parent,
                                         self.report, outer)
                if name == "verification.modp_surjectivity":
                    self.bfs_expansions += result["bfs_expansions"]
                return result
            spanned.__wrapped__ = fn
            return spanned
        return make

    def _note_s_unit_basis(self, field, S, *_, **__):
        key = (self.report, tuple(field.poly),
               tuple(P.hnf for P in S.finite))
        if key in self.sunit_keys:
            self.sunit_repeats += 1
        self.sunit_keys.add(key)

    # -- per-report inputs --------------------------------------------

    def add_report(self, report_json, nbytes):
        """Fold in the work counters and size of one finished report."""
        self.report_bytes += nbytes
        if report_json is None:
            return
        work = report_json.get("timings", {}).get("work", {})
        for key, metric in REPORT_WORK.items():
            self.report_work[metric] += work.get(key, 0)

    # -- results ------------------------------------------------------

    def counts(self):
        """Every exact count the trace holds; repeats run to run."""
        out = dict(self.calls)
        out["verification.modp_bfs_expansions"] = self.bfs_expansions
        out["sunits.s_unit_basis_repeats"] = self.sunit_repeats
        out.update(self.report_work)
        return out

    def metrics(self, traced_s, untraced_s, scales):
        """Per-layer metrics.  `scales` maps a report id to the factor
        that turns its CPU seconds into reference seconds."""
        inclusive = {}
        length = [(end - start) * scales.get(report, 1.0)
                  for _, start, end, _, report, _ in self.spans]
        children = [0.0] * len(self.spans)
        for i, (name, _, _, parent, _, outer) in enumerate(self.spans):
            if outer:
                inclusive[name] = inclusive.get(name, 0.0) + length[i]
            if parent >= 0:
                children[parent] += length[i]
        build_self = sum(length[i] - children[i]
                         for i, span in enumerate(self.spans)
                         if span[0] == "generators.build_generators")

        def secs(name):
            return inclusive.get(name, 0.0)

        modp_s = secs("verification.modp_surjectivity")
        sunit_calls = self.calls["sunits.s_unit_basis"]
        values = {
            "generators.build_generators_self_s": build_self,
            "sunits.s_unit_basis_repeat_share":
                self.sunit_repeats / sunit_calls if sunit_calls else 0.0,
            "verification.modp_bfs_expansions": self.bfs_expansions,
            "verification.modp_expansions_per_s":
                self.bfs_expansions / modp_s if modp_s else 0.0,
            "verification.modp_primes":
                self.calls["verification.modp_surjectivity"],
            "cli.report_bytes": self.report_bytes,
            "trace.overhead_share": traced_s / untraced_s,
        }
        values.update(self.report_work)
        out = {}
        for metric, unit, _ in PER_LAYER:
            if metric in values:
                value = values[metric]
            elif metric.endswith("_calls"):
                value = self.calls[metric[:-len("_calls")]]
            else:
                value = secs(metric[:-len("_s")])
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, stamp):
        with open(path, "w") as fh:
            fh.write(json.dumps({"stamp": stamp}) + "\n")
            for name, start, end, parent, report, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "report": report}) + "\n")


def sgen2_modules():
    """The imported sgen2 modules, by short name."""
    mods = {"sgen2": sys.modules["sgen2"]}
    for full, module in sys.modules.items():
        if full.startswith("sgen2."):
            mods[full[len("sgen2."):]] = module
    return mods
