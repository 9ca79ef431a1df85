"""Per-layer tracing of daha from outside the package.

:class:`Tracer` replaces daha's public functions and operators with wrappers
for the length of a ``with`` block and restores them on exit.  A wrapper is
installed at every binding of the original: the class attribute (and its
aliases, such as ``__rmul__ = __mul__``) and every module-level name in the
``daha`` package that refers to it, because modules bind each other's
functions with ``from .x import y``.  ``src/daha`` itself is not edited.

Two kinds of wrapper:

* Span wrappers (laurent, polyrep, skein, verify, words) record one span per
  call: id, parent span id, case id, name, start and end.  Spans are kept in
  memory and written out after the run.
* Scalar wrappers (``ScalarPoly`` ring operations) record no span.  There are
  millions of these calls per run and a span each would distort every layer
  above, so they count calls and add their wall time to one aggregate busy
  time, and to the enclosing span's scalar time so that it leaves that span's
  self time.

Self time of a span is its duration minus the durations of its child spans
and the scalar time inside it.
"""

from __future__ import annotations

import fnmatch
import json
import sys
import time
from collections import Counter
from pathlib import Path

from daha import laurent, polyrep, skein, verify, words
from daha.laurent import LaurentPoly
from daha.scalars import ScalarPoly
from daha.skein import SkeinElement
from daha.words import GeneratorWord

SCALAR_TARGETS = [
    ("scalars.add", ScalarPoly, "__add__"),
    ("scalars.neg", ScalarPoly, "__neg__"),
    ("scalars.mul", ScalarPoly, "__mul__"),
    ("scalars.substitute_d_eq_s", ScalarPoly, "substitute_d_eq_s"),
]

SPAN_TARGETS = [
    ("laurent.add", LaurentPoly, "__add__"),
    ("laurent.sub", LaurentPoly, "__sub__"),
    ("laurent.neg", LaurentPoly, "__neg__"),
    ("laurent.mul", LaurentPoly, "__mul__"),
    ("laurent.scale", LaurentPoly, "scale"),
    ("laurent.swap_variables", laurent, "swap_variables"),
    ("laurent.rotate_variables", laurent, "rotate_variables"),
    ("laurent.rotate_variables_inverse", laurent, "rotate_variables_inverse"),
    ("laurent.exact_divide", laurent, "exact_divide"),
    ("polyrep.act_x", polyrep, "act_x"),
    ("polyrep.act_sigma", polyrep, "act_sigma"),
    ("polyrep.act_sigma_inv", polyrep, "act_sigma_inv"),
    ("polyrep.act_y1", polyrep, "act_y1"),
    ("polyrep.act_y1_inv", polyrep, "act_y1_inv"),
    ("polyrep.act_word", polyrep, "act_word"),
    ("skein.add", SkeinElement, "__add__"),
    ("skein.sub", SkeinElement, "__sub__"),
    ("skein.neg", SkeinElement, "__neg__"),
    ("skein.scale", SkeinElement, "scale"),
    ("skein.shift_exponents", SkeinElement, "shift_exponents"),
    ("skein.multiply_by_a_poly", SkeinElement, "multiply_by_a_poly"),
    ("skein.substitute_d_eq_s", SkeinElement, "substitute_d_eq_s"),
    ("skein.act_x", skein, "act_x"),
    ("skein.act_sigma_base", skein, "act_sigma_base"),
    ("skein.push", skein, "push_sigma_past_monomial"),
    ("skein.act_sigma", skein, "act_sigma"),
    ("skein.act_sigma_inv", skein, "act_sigma_inv"),
    ("skein.act_y1", skein, "act_y1"),
    ("skein.act_y1_inv", skein, "act_y1_inv"),
    ("skein.act_word", skein, "act_word"),
    ("verify.check_relations", verify, "check_relations"),
    ("verify.check_intertwiner", verify, "check_intertwiner"),
    ("verify.symmetrize", verify, "symmetrize"),
    ("words.expand_y", words, "expand_y"),
    ("words.inverse", GeneratorWord, "inverse"),
    ("words.str", GeneratorWord, "__str__"),
]

WRAPPED = [name for name, _, _ in SCALAR_TARGETS + SPAN_TARGETS]
MODULES = ("scalars", "laurent", "polyrep", "skein", "verify", "words")

# (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    ("scalars.mul.calls", "count", "lower"),
    ("scalars.add.calls", "count", "lower"),
    ("scalars.self_s", "s", "lower"),
    ("laurent.mul.calls", "count", "lower"),
    ("laurent.mul.self_s", "s", "lower"),
    ("laurent.add.calls", "count", "lower"),
    ("laurent.exact_divide.calls", "count", "lower"),
    ("laurent.exact_divide.self_s", "s", "lower"),
    ("laurent.exact_divide.certify_s", "s", "lower"),
    ("laurent.swap_variables.calls", "count", "lower"),
    ("laurent.self_s", "s", "lower"),
    ("polyrep.act_sigma.calls", "count", "lower"),
    ("polyrep.act_sigma.total_s", "s", "lower"),
    ("polyrep.act_y1.calls", "count", "lower"),
    ("polyrep.act_word.terms_out", "terms", "lower"),
    ("polyrep.self_s", "s", "lower"),
    ("skein.push.calls", "count", "lower"),
    ("skein.push.total_s", "s", "lower"),
    ("skein.push.letters", "letters", "lower"),
    ("skein.push.key_reuse", "ratio", "higher"),
    ("skein.push.max_abs_exp", "exponent", "lower"),
    ("skein.act_sigma.calls", "count", "lower"),
    ("skein.act_sigma.total_s", "s", "lower"),
    ("skein.multiply_by_a_poly.calls", "count", "lower"),
    ("skein.act_y1.calls", "count", "lower"),
    ("skein.act_word.terms_out", "terms", "lower"),
    ("skein.self_s", "s", "lower"),
    ("skein.add.calls", "count", "lower"),
    ("skein.add.terms_copied", "terms", "lower"),
    ("verify.symmetrize.calls", "count", "lower"),
    ("verify.symmetrize.total_s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("words.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    """Install the wrappers inside ``with tracer:``; read results after."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        # (id, parent id or None, case id, name, start, end, scalar seconds)
        self.spans: list[tuple] = []
        self.case = -1
        self.scalar_busy = 0.0
        self.push_letters = 0
        self.push_keys: set[tuple[int, int]] = set()
        self.push_max_abs_exp = 0
        self.terms_out: Counter[str] = Counter()
        self.terms_copied = 0
        self._stack: list[list] = []  # [span id, scalar seconds inside]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, after):
        stack, spans, calls = self._stack, self.spans, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.case, name, start, end, frame[1]))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _scalar_wrapper(self, name, fn):
        stack, calls = self._stack, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.scalar_busy += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _after_push(self, args, result):
        i, exps = args[0], args[1]
        self.push_letters += sum(abs(e) for e in exps)
        self.push_keys.add((i, exps[i - 1] - exps[i]))
        self.push_max_abs_exp = max(self.push_max_abs_exp, max(abs(e) for e in exps))

    def _after_skein_add(self, args, result):
        self.terms_copied += args[0].term_count()

    def _after_act_word(self, module):
        def after(args, result):
            self.terms_out[module] += result.term_count()
        return after

    def _hooks(self):
        return {
            "skein.push": self._after_push,
            "skein.add": self._after_skein_add,
            "polyrep.act_word": self._after_act_word("polyrep"),
            "skein.act_word": self._after_act_word("skein"),
        }

    # -- installation ----------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every binding of ``original`` in daha at ``replacement``."""
        owners = [m for n, m in list(sys.modules.items()) if n == "daha" or n.startswith("daha.")]
        owners += [ScalarPoly, LaurentPoly, SkeinElement, GeneratorWord]
        found = False
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._saved.append((owner, key, value))
                    setattr(owner, key, replacement)
                    found = True
        if not found:
            raise RuntimeError(f"no binding of {original!r} found in daha")

    def __enter__(self) -> "Tracer":
        hooks = self._hooks()
        try:
            for name, owner, attr in SCALAR_TARGETS:
                fn = vars(owner)[attr]
                self._rebind(fn, self._scalar_wrapper(name, fn))
            for name, owner, attr in SPAN_TARGETS:
                fn = vars(owner)[attr]
                self._rebind(fn, self._span_wrapper(name, fn, hooks.get(name)))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def missing_calls(self, unreached: tuple[str, ...]) -> list[str]:
        """Wrapped functions that recorded no call although the workload
        must reach them: a binding the wrappers missed, or a workload that
        stopped exercising a layer."""
        return [
            name for name in WRAPPED
            if self.calls[name] == 0 and not any(fnmatch.fnmatchcase(name, p) for p in unreached)
        ]

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        names = {span[0]: span[3] for span in self.spans}
        child_s: Counter[int] = Counter()
        self_s: Counter[str] = Counter()
        total_s: Counter[str] = Counter()
        certify_s = 0.0
        # Spans are appended on exit, so children precede their parent.
        for span_id, parent, _case, name, start, end, scalar_s in self.spans:
            duration = end - start
            self_s[name] += duration - child_s.pop(span_id, 0.0) - scalar_s
            total_s[name] += duration
            if parent is not None:
                child_s[parent] += duration
                if name == "laurent.mul" and names[parent] == "laurent.exact_divide":
                    certify_s += duration
        module_self = Counter({"scalars": self.scalar_busy})
        for name, value in self_s.items():
            module_self[name.split(".")[0]] += value
        calls = self.calls
        push_calls = calls["skein.push"]
        values = {
            "scalars.mul.calls": calls["scalars.mul"],
            "scalars.add.calls": calls["scalars.add"],
            "laurent.mul.calls": calls["laurent.mul"],
            "laurent.mul.self_s": self_s["laurent.mul"],
            "laurent.add.calls": calls["laurent.add"],
            "laurent.exact_divide.calls": calls["laurent.exact_divide"],
            "laurent.exact_divide.self_s": self_s["laurent.exact_divide"],
            "laurent.exact_divide.certify_s": certify_s,
            "laurent.swap_variables.calls": calls["laurent.swap_variables"],
            "polyrep.act_sigma.calls": calls["polyrep.act_sigma"],
            "polyrep.act_sigma.total_s": total_s["polyrep.act_sigma"],
            "polyrep.act_y1.calls": calls["polyrep.act_y1"] + calls["polyrep.act_y1_inv"],
            "polyrep.act_word.terms_out": self.terms_out["polyrep"],
            "skein.push.calls": push_calls,
            "skein.push.total_s": total_s["skein.push"],
            "skein.push.letters": self.push_letters,
            "skein.push.key_reuse": 1 - len(self.push_keys) / push_calls if push_calls else 0.0,
            "skein.push.max_abs_exp": self.push_max_abs_exp,
            "skein.act_sigma.calls": calls["skein.act_sigma"],
            "skein.act_sigma.total_s": total_s["skein.act_sigma"],
            "skein.multiply_by_a_poly.calls": calls["skein.multiply_by_a_poly"],
            "skein.act_y1.calls": calls["skein.act_y1"] + calls["skein.act_y1_inv"],
            "skein.act_word.terms_out": self.terms_out["skein"],
            "skein.add.calls": calls["skein.add"],
            "skein.add.terms_copied": self.terms_copied,
            "verify.symmetrize.calls": calls["verify.symmetrize"],
            "verify.symmetrize.total_s": total_s["verify.symmetrize"],
            "trace.overhead_ratio": overhead_ratio,
        }
        for module in MODULES:
            values[f"{module}.self_s"] = module_self[module]
        return {name: values[name] for name, _, _ in PER_LAYER}

    def write_spans(self, path: Path, meta: dict) -> None:
        """Write ``# <meta json>``, a header row, then one CSV row per span.
        Times are microseconds since the first span started; a span
        without a parent has an empty parent field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[4] for span in self.spans), default=0.0)
        with path.open("w") as out:
            out.write("# " + json.dumps(meta) + "\n")
            out.write("id,parent,case,name,start_us,end_us\n")
            for span_id, parent, case, name, start, end, _scalar_s in self.spans:
                out.write(f"{span_id},{'' if parent is None else parent},{case},{name},"
                          f"{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f}\n")
