"""Spans around calls into the package's layers, recorded from outside.

The tracer replaces each public function of the layer modules with a
wrapper, in its defining module and in every package module that
imported it by name, plus a few public methods and the verify-paper
checks.  Helpers called once per digit or per integer are left alone,
because a span per digit would time the tracer instead of the layer.
Spans stay in memory: (name, start, end, parent index, job id).
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "verify", "sources", "radix", "stats", "moments", "measure", "exact")

# called once per digit, per integer or per grouped value
PER_ITEM = {"validate_base", "int_to_digits", "digits_to_int", "digit_token", "xorshift64_step"}

METHODS = {
    "radix": {"DigitStream": ("take", "fork")},
    "sources": {"SourceSpec": ("stream",), "DigitFile": ("stream",)},
    "moments": {"MomentPolynomial": ("evaluate",)},
}

SOURCE_CONSTRUCTORS = {
    "sources.rational_stream", "sources.champernowne_stream", "sources.random_stream",
    "sources.file_digit_stream", "sources.SourceSpec.stream", "sources.DigitFile.stream",
    "radix.expand_rational",
}

COUNTS = {
    "sources.stream_calls": "sources.SourceSpec.stream",
    "radix.take_calls": "radix.DigitStream.take",
    "radix.regroup_calls": "radix.regroup_to_power_base",
    "radix.expand_rational_calls": "radix.expand_rational",
    "moments.operator_calls": "moments.scaled_moment_via_operator",
    "moments.frequency_moment_calls": "moments.frequency_fourth_moment",
    "measure.deviation_set_calls": "measure.deviation_set_measure",
    "exact.binomial_row_calls": "exact.binomial_row",
    "exact.decimal_approx_calls": "exact.decimal_approx",
    "cli.calls": "cli.main",
}
HOOK_COUNTS = ("sources.digits_generated", "stats.deviation_entries",
               "stats.battery_views", "verify.checks_failed")
INCLUSIVE = {
    "sources.stream_s": "sources.SourceSpec.stream",
    "sources.parse_s": "sources.parse_source_spec",
    "stats.count_block_s": "stats.count_block",
    "radix.take_s": "radix.DigitStream.take",
    "radix.expand_rational_s": "radix.expand_rational",
    "radix.format_bracket_s": "radix.format_bracket",
    "moments.operator_s": "moments.scaled_moment_via_operator",
    "moments.evaluate_s": "moments.MomentPolynomial.evaluate",
    "moments.apply_operator_s": "moments.apply_euler_operator",
    "moments.closed_form_check_s": "moments.verify_operator_closed_form",
    "moments.frequency_moment_s": "moments.frequency_fourth_moment",
    "measure.deviation_set_s": "measure.deviation_set_measure",
    "measure.admissible_counts_s": "measure.admissible_counts",
    "measure.bruteforce_s": "measure.deviation_set_measure_bruteforce",
    "measure.monte_carlo_s": "measure.monte_carlo_deviation",
    "exact.binomial_row_s": "exact.binomial_row",
    "exact.decimal_approx_s": "exact.decimal_approx",
}
SELF = {
    "stats.report_self_s": "stats.simple_normality_report",
}


def count_metric_names() -> list[str]:
    return sorted([*COUNTS, *HOOK_COUNTS])


def time_metric_names(check_ids) -> list[str]:
    return sorted([*INCLUSIVE, *SELF, "cli.self_s", "trace.overhead_s",
                   *(f"verify.check_s.{c}" for c in check_ids)])


class Tracer:
    """Collects spans for one run; `job` tags every span with the job id."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack: list[int] = []
        self._streams: dict[int, object] = {}
        self.hooks: dict[int, dict[str, int]] = defaultdict(lambda: dict.fromkeys(HOOK_COUNTS, 0))

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # result hooks

    def _keep_stream(self, result) -> None:
        stream = getattr(result, "fractional", result)
        self._streams[id(stream)] = stream

    def _count(self, key: str, amount: int) -> None:
        self.hooks[self.job][key] += amount

    def end_job(self) -> None:
        """Close the current job: streams it built report digits generated."""
        self._count("sources.digits_generated",
                    sum(s.position for s in self._streams.values()))
        self._streams.clear()

    def _hook_for(self, name: str):
        if name in SOURCE_CONSTRUCTORS:
            return self._keep_stream
        if name == "stats.simple_normality_report":
            return lambda report: self._count("stats.deviation_entries", len(report.deviations))
        if name == "stats.normality_battery":
            return lambda cells: self._count("stats.battery_views", len(cells))
        if name == "verify.run_checks":
            return lambda results: self._count(
                "verify.checks_failed", sum(r.status == "fail" for r in results))
        return None

    def install(self, package: str) -> None:
        """Wrap the layers of an imported package in place."""
        modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
        holders = [sys.modules[package], *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or attr in PER_ITEM or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn, self._hook_for(name))
                for holder in holders:
                    for other, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, other, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    name = f"{layer}.{cls_name}.{method}"
                    setattr(cls, method, self.wrap(name, getattr(cls, method), self._hook_for(name)))
        checks = modules["verify"]._CHECKS
        for i, (check_id, fn) in enumerate(checks):
            checks[i] = (check_id, self.wrap(f"verify.check.{check_id}", fn))

    def write(self, path, jobs: list[str]) -> None:
        """Write every span, and what each job id ran, as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"jobs": jobs, "fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, job_ids, check_ids) -> dict[str, float]:
    """Per-layer counts and times over the spans of the given jobs."""
    wanted = set(job_ids)
    spans = tracer.spans
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for name, start, end, parent, job in spans:
        if job not in wanted:
            continue
        duration = end - start
        calls[name] += 1
        inclusive[name] += duration
        self_time[name] += duration
        layer_self[name.split(".", 1)[0]] += duration
        if parent >= 0:
            parent_name = spans[parent][0]
            self_time[parent_name] -= duration
            layer_self[parent_name.split(".", 1)[0]] -= duration
    out: dict[str, float] = {key: calls[name] for key, name in COUNTS.items()}
    for key in HOOK_COUNTS:
        out[key] = sum(tracer.hooks[j][key] for j in wanted)
    out.update({key: inclusive[name] for key, name in INCLUSIVE.items()})
    out.update({key: self_time[name] for key, name in SELF.items()})
    out["cli.self_s"] = layer_self["cli"]
    for check_id in check_ids:
        out[f"verify.check_s.{check_id}"] = inclusive[f"verify.check.{check_id}"]
    return out
