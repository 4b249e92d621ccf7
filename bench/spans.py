"""Span recorder for the traced run.

Wraps partabel's public functions and methods from outside the package:
every module binding that refers to a wrapped function is replaced, so
names that ``pipeline`` or ``reptheory`` imported at load time are traced
too.  Spans stay in memory as ``[name, start, end, parent, op, tag]`` and
are turned into per-layer metrics when the run ends.  Hot scalar and word
operations are only counted, not spanned.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, function) pairs that get a span; a tag hook receives
# (args, result) and returns a value stored with the span
SPANNED_FUNCTIONS = [
    ("linalg", "dense_rank"), ("linalg", "nullspace"), ("linalg", "solve_linear"),
    ("freeproduct", "words_up_to"),
    ("quotient", "closure_certificate"), ("quotient", "spanning_monomials_rank"),
    ("quotient", "stabilization_scan"),
    ("reptheory", "intersect_conics"), ("reptheory", "build_rho"),
    ("reptheory", "irreducibility"), ("reptheory", "wedderburn_verify"),
    ("reptheory", "determinantal_cubic"), ("reptheory", "split_determinantal_cubic"),
    ("reptheory", "split_into_lines"),
    ("classify", "classify_p3"),
    ("pipeline", "certify_point"), ("pipeline", "certify_quadric_point"),
    ("pipeline", "sample_generic_points"),
]
SPANNED_METHODS = [
    ("linalg", "SparseEchelon", "add_row"), ("linalg", "SparseEchelon", "reduce"),
    ("quotient", "IdealSpan", "extend_to_window"), ("quotient", "IdealSpan", "normal_forms"),
]
COUNTED_FUNCTIONS = [("freeproduct", "concat_words")]
DOMAIN_OPS = ("add", "sub", "mul", "div", "inv")
DOMAIN_CLASSES = ("RationalField", "PrimeField")

TAGS = {
    "linalg.SparseEchelon.add_row": lambda args, out: out is not None,
    "quotient.closure_certificate": lambda args, out: True,
    "reptheory.intersect_conics":
        lambda args, out: "_".join(str(d) for d in out.factor_degrees),
    "reptheory.split_determinantal_cubic": lambda args, out: bool(out.splits),
    "reptheory.split_into_lines": lambda args, out: bool(out.splits),
}

NAME, START, END, PARENT, OP, TAG = range(6)


class Tracer:
    """Installs wrappers on ``install`` and removes them on ``uninstall``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: object = None
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def close(self, rec: list):
        rec[END] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name: str, fn):
        tracer, tag = self, TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            if name == "quotient.IdealSpan.extend_to_window":
                rec[TAG] = (args[0].window, args[1])  # windows before, after
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if tag is not None:
                rec[TAG] = tag(args, out)
            return out
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self):
        pkg = "partabel"
        mods = {k: v for k, v in sys.modules.items()
                if k == pkg or k.startswith(pkg + ".")}
        for mod, fname in SPANNED_FUNCTIONS:
            self._patch_function(mods, mod, fname, self._spanned)
        for mod, fname in COUNTED_FUNCTIONS:
            self._patch_function(mods, mod, fname, self._counted)
        for mod, cls, meth in SPANNED_METHODS:
            self._patch_method(mods, mod, cls, meth, f"{mod}.{cls}.{meth}", self._spanned)
        for cls in DOMAIN_CLASSES:
            for meth in DOMAIN_OPS:
                self._patch_method(mods, "scalars", cls, meth, "scalars.domain_ops",
                                   self._counted)

    def _patch_function(self, mods, mod, fname, make):
        orig = getattr(mods.get(f"partabel.{mod}"), fname, None)
        if orig is None:
            self.missing.append(f"{mod}.{fname}")
            return
        wrapped = make(f"{mod}.{fname}", orig)
        # replace every binding of the function, wherever a caller looks it up
        for m in mods.values():
            for attr, val in list(vars(m).items()):
                if val is orig:
                    self._undo.append((m, attr, True, orig))
                    setattr(m, attr, wrapped)

    def _patch_method(self, mods, mod, clsname, meth, name, make):
        cls = getattr(mods.get(f"partabel.{mod}"), clsname, None)
        orig = getattr(cls, meth, None)
        if orig is None:
            self.missing.append(f"{mod}.{clsname}.{meth}")
            return
        self._undo.append((cls, meth, meth in vars(cls), orig))
        setattr(cls, meth, make(name, orig))

    def uninstall(self):
        for obj, attr, had, orig in reversed(self._undo):
            if had:
                setattr(obj, attr, orig)
            else:
                delattr(obj, attr)
        self._undo.clear()

    def dump(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps([sid, *rec], default=str) + "\n")


# -- metrics from spans ----------------------------------------------------------

def _durations(spans):
    total: Counter = Counter()
    calls: Counter = Counter()
    child: Counter = Counter()  # time covered by direct children, per span id
    for rec in spans:
        d = rec[END] - rec[START]
        calls[rec[NAME]] += 1
        if rec[PARENT] is not None:
            child[rec[PARENT]] += d
        # inclusive time counts only the outermost span of a name
        p = rec[PARENT]
        while p is not None and spans[p][NAME] != rec[NAME]:
            p = spans[p][PARENT]
        if p is None:
            total[rec[NAME]] += d
    self_time: Counter = Counter()
    for sid, rec in enumerate(spans):
        self_time[rec[NAME]] += rec[END] - rec[START] - child[sid]
    return total, self_time, calls


WINDOWS = range(2, 11)
FACTOR_PATTERNS = ("3", "1_2", "1_1_1")

# per-layer metric -> (unit, "better", the end-to-end metric it should move, where)
LAYER_METRICS: dict[str, tuple] = {
    "scalars.domain_ops.calls": ("count", "lower", "op_s.p50", "anchors_rational"),
    "linalg.add_row.calls": ("count", "lower", "op_s.p50", "growth_scan most, theorem_prime a little"),
    "linalg.add_row.pivots": ("count", "lower", "peak_rss_mb", "growth_scan"),
    "linalg.add_row.zero": ("count", "lower", "op_s.p50", "growth_scan"),
    "linalg.add_row.useful_ratio": ("ratio", "higher", "op_s.p50", "growth_scan"),
    "linalg.add_row.s": ("s", "lower", "op_s.p50", "growth_scan most, theorem_prime a little"),
    "linalg.reduce.calls": ("count", "lower", "nothing", "no workload (only verify_reduction_identity calls it)"),
    "linalg.reduce.s": ("s", "lower", "nothing", "no workload (only verify_reduction_identity calls it)"),
    "linalg.dense_rank.calls": ("count", "lower", "op_s.p50", "anchors_rational, then theorem_prime; not growth_scan"),
    "linalg.dense_rank.s": ("s", "lower", "op_s.p50", "anchors_rational, then theorem_prime; not growth_scan"),
    "linalg.nullspace.s": ("s", "lower", "op_s.p50", "anchors_rational, then theorem_prime; not growth_scan"),
    "linalg.solve_linear.s": ("s", "lower", "op_s.p50", "anchors_rational, then theorem_prime; not growth_scan"),
    "freeproduct.concat_words.calls": ("count", "lower", "op_s.p50", "growth_scan"),
    "freeproduct.words_up_to.s": ("s", "lower", "op_s.p50", "growth_scan"),
    **{f"quotient.window_{w}.{k}": (u, "lower", "op_s.p50", "growth_scan (windows 8-10)")
       for w in WINDOWS for k, u in (("s", "s"), ("rows", "count"), ("pivots", "count"))},
    "quotient.extend_to_window.s": ("s", "lower", "op_s.p50", "growth_scan; closure share of theorem_prime, anchors_rational"),
    "quotient.closure_attempts": ("count", "lower", "op_s.p50", "theorem_prime, anchors_rational, growth_scan"),
    "quotient.normal_forms.s": ("s", "lower", "op_s.p50", "theorem_prime, anchors_rational, growth_scan"),
    "quotient.closure_found": ("count", "higher", "op_s.p50", "theorem_prime, anchors_rational, strata_mix"),
    "quotient.closure_certificate.s": ("s", "lower", "op_s.p50", "theorem_prime, anchors_rational, growth_scan"),
    "quotient.spanning_monomials_rank.s": ("s", "lower", "op_s.p50", "theorem_prime, anchors_rational"),
    "quotient.stabilization_scan.s": ("s", "lower", "op_s.p50", "growth_scan"),
    "reptheory.intersect_conics.s": ("s", "lower", "op_s.p50", "theorem_prime, anchors_rational, strata_mix"),
    "reptheory.build_rho.s": ("s", "lower", "op_s.p50", "theorem_prime, anchors_rational"),
    "reptheory.irreducibility.s": ("s", "lower", "op_s.p50", "theorem_prime, anchors_rational"),
    "reptheory.wedderburn_verify.s": ("s", "lower", "op_s.p50", "anchors_rational, theorem_prime"),
    "reptheory.determinantal_cubic.s": ("s", "lower", "op_s.p50", "strata_mix only"),
    "reptheory.split_determinantal_cubic.s": ("s", "lower", "op_s.p50", "strata_mix only"),
    "reptheory.split_into_lines.s": ("s", "lower", "op_s.p50", "strata_mix only"),
    **{f"reptheory.factor_pattern.{p}": ("count", "lower", "op_s.p50", "theorem_prime, anchors_rational, strata_mix")
       for p in FACTOR_PATTERNS},
    "reptheory.split.exact_only": ("count", "lower", "op_s.p50", "strata_mix only"),
    "reptheory.split.numeric_only": ("count", "lower", "op_s.p50", "strata_mix only"),
    "classify.classify_p3.calls": ("count", "lower", "op_s.p50", "strata_mix"),
    "classify.classify_p3.s": ("s", "lower", "op_s.p50", "strata_mix"),
    "pipeline.certify_point.s": ("s", "lower", "op_s.p50", "theorem_prime, anchors_rational"),
    "pipeline.certify_point.calls": ("count", "lower", "op_s.p50", "theorem_prime, anchors_rational"),
    "pipeline.certify_quadric_point.s": ("s", "lower", "op_s.p50", "strata_mix"),
    "pipeline.sample_generic_points.s": ("s", "lower", "setup_s", "every workload"),
    "trace.overhead_ratio": ("ratio", "lower", "none (measurement cost)", "every workload"),
}

# times reported as self time: the span minus its traced children
SELF_TIMED = {"quotient.closure_certificate", "reptheory.wedderburn_verify",
              "pipeline.certify_point"}

def is_count(name: str) -> bool:
    """Counts must repeat exactly across traced runs of one seed."""
    return LAYER_METRICS[name][0] == "count"


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    spans = tracer.spans
    total, self_time, calls = _durations(spans)
    m: dict[str, float] = {}

    def timed(metric: str, span_name: str):
        m[metric] = (self_time if span_name in SELF_TIMED else total)[span_name]

    m["scalars.domain_ops.calls"] = tracer.counts["scalars.domain_ops"]
    add_rows = [r for r in spans if r[NAME] == "linalg.SparseEchelon.add_row"]
    pivots = sum(1 for r in add_rows if r[TAG])
    m["linalg.add_row.calls"] = len(add_rows)
    m["linalg.add_row.pivots"] = pivots
    m["linalg.add_row.zero"] = len(add_rows) - pivots
    m["linalg.add_row.useful_ratio"] = pivots / len(add_rows) if add_rows else 0.0
    timed("linalg.add_row.s", "linalg.SparseEchelon.add_row")
    m["linalg.reduce.calls"] = calls["linalg.SparseEchelon.reduce"]
    timed("linalg.reduce.s", "linalg.SparseEchelon.reduce")
    m["linalg.dense_rank.calls"] = calls["linalg.dense_rank"]
    for fn in ("dense_rank", "nullspace", "solve_linear"):
        timed(f"linalg.{fn}.s", f"linalg.{fn}")
    m["freeproduct.concat_words.calls"] = tracer.counts["freeproduct.concat_words"]
    timed("freeproduct.words_up_to.s", "freeproduct.words_up_to")

    # one extend_to_window call that did work is named by the window it reached
    win = {w: [0.0, 0, 0] for w in WINDOWS}
    ext_ids = {}
    for sid, rec in enumerate(spans):
        if rec[NAME] == "quotient.IdealSpan.extend_to_window":
            before, target = rec[TAG]
            if target > before and target in win:
                ext_ids[sid] = target
                win[target][0] += rec[END] - rec[START]
    for rec in add_rows:
        target = ext_ids.get(rec[PARENT])
        if target is not None:
            win[target][1] += 1
            win[target][2] += 1 if rec[TAG] else 0
    for w, (s, rows, piv) in win.items():
        m[f"quotient.window_{w}.s"] = s
        m[f"quotient.window_{w}.rows"] = rows
        m[f"quotient.window_{w}.pivots"] = piv
    timed("quotient.extend_to_window.s", "quotient.IdealSpan.extend_to_window")
    m["quotient.closure_attempts"] = calls["quotient.IdealSpan.normal_forms"]
    timed("quotient.normal_forms.s", "quotient.IdealSpan.normal_forms")
    m["quotient.closure_found"] = sum(
        1 for r in spans if r[NAME] == "quotient.closure_certificate" and r[TAG])
    for fn in ("closure_certificate", "spanning_monomials_rank", "stabilization_scan"):
        timed(f"quotient.{fn}.s", f"quotient.{fn}")

    for fn in ("intersect_conics", "build_rho", "irreducibility", "wedderburn_verify",
               "determinantal_cubic", "split_determinantal_cubic", "split_into_lines"):
        timed(f"reptheory.{fn}.s", f"reptheory.{fn}")
    patterns = Counter(r[TAG] for r in spans
                       if r[NAME] == "reptheory.intersect_conics" and r[TAG])
    for p in FACTOR_PATTERNS:
        m[f"reptheory.factor_pattern.{p}"] = patterns[p]
    exact_only = numeric_only = 0
    for op, verdicts in _split_verdicts(spans).items():
        exact, numeric = verdicts.get("exact", False), verdicts.get("numeric", False)
        exact_only += exact and not numeric
        numeric_only += numeric and not exact
    m["reptheory.split.exact_only"] = exact_only
    m["reptheory.split.numeric_only"] = numeric_only

    m["classify.classify_p3.calls"] = calls["classify.classify_p3"]
    timed("classify.classify_p3.s", "classify.classify_p3")
    timed("pipeline.certify_point.s", "pipeline.certify_point")
    m["pipeline.certify_point.calls"] = calls["pipeline.certify_point"]
    timed("pipeline.certify_quadric_point.s", "pipeline.certify_quadric_point")
    timed("pipeline.sample_generic_points.s", "pipeline.sample_generic_points")
    m["trace.overhead_ratio"] = overhead_ratio
    if set(m) != set(LAYER_METRICS):
        raise RuntimeError(f"metric table out of step: {set(m) ^ set(LAYER_METRICS)}")
    return m


def _split_verdicts(spans) -> dict:
    out: dict = {}
    for rec in spans:
        kind = {"reptheory.split_determinantal_cubic": "exact",
                "reptheory.split_into_lines": "numeric"}.get(rec[NAME])
        if kind is not None and rec[TAG]:
            out.setdefault(rec[OP], {})[kind] = True
    return out
