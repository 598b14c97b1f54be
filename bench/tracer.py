"""Spans around pbmrf's public functions, recorded from outside the package.

:class:`Tracer` replaces each listed function in every loaded ``pbmrf``
module namespace that holds it (``pbmrf.elimination.fstar_scores`` as well
as ``pbmrf.approx.fstar_scores``), so calls between modules are seen
without editing the package.  Each call records a span
``[name, start, end, parent, op]``; spans stay in memory until
:meth:`Tracer.write`.  Counts come only from public values: call
arguments, ``EliminationResult.per_step``, ``RejectionResult`` and the
other returned results.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

# (module, function) -> span name.  Functions that share a name share a
# layer metric; model_from_config reaches the builders through a dict that
# keeps the originals, so a config build is one span.
SPAN_NAMES = {
    ("models", "build_ising"): "models.build",
    ("models", "build_higher_order"): "models.build",
    ("models", "model_from_config"): "models.build",
    ("pbf", "zeta_transform"): "pbf.transform",
    ("pbf", "moebius_transform"): "pbf.transform",
    ("pbf", "evaluate_many"): "pbf.evaluate_many",
    ("pbf", "add_scaled"): "pbf.poly_build",
    ("pbf", "scale"): "pbf.poly_build",
    ("pbf", "interactions_from_values"): "pbf.poly_build",
    ("approx", "fstar_scores"): "approx.partner_score",
    ("approx", "soir_removal_updates"): "approx.soir",
    ("approx", "bound_removal_updates"): "approx.clamp",
    ("approx", "fstar_choice"): "approx.pivot",
    ("elimination", "eliminate"): "elimination.eliminate",
    ("pomm", "sample"): "pomm.sample",
    ("pomm", "log_density_many"): "pomm.log_density",
    ("apps", "gibbs_sampler"): "apps.gibbs",
    ("apps", "rejection_sampler"): "apps.reject",
    ("apps", "mle_bracket"): "apps.mle",
    ("cli", "main"): "cli.main",
}


def _count_transform(counts, fn, args, kwargs, result):
    counts["pbf.transform_entries"] += len(args[0])


def _count_evaluate(counts, fn, args, kwargs, result):
    counts["pbf.evaluate_rows"] += len(result)


def _count_eliminate(counts, fn, args, kwargs, result):
    for step in result.per_step:
        counts["elimination.table_entries"] += 1 << step.eta_after
        counts["elimination.max_eta"] = max(counts["elimination.max_eta"], step.eta_after)
        counts["elimination.removals"] += len(step.partners)
        counts["elimination.fallback_partners"] += step.fallback_partners
        counts["approx.splits"] += step.splits


def _count_sample(counts, fn, args, kwargs, result):
    counts["pomm.sample_rows"] += result.count


def _count_gibbs(counts, fn, args, kwargs, result):
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    a = call.arguments
    counts["apps.gibbs_site_updates"] += a["sweeps"] * a["chains"] * a["mrf"].n


def _count_reject(counts, fn, args, kwargs, result):
    counts["apps.reject_trials"] += result.trials
    counts["apps.reject_accepted"] += round(result.acceptance_rate * result.trials)
    counts["apps.reject_returned"] += result.samples.count


def _count_mle(counts, fn, args, kwargs, result):
    counts["apps.mle_grid_points"] += sum(len(rnd.grid) for rnd in result.rounds)


COUNTERS = {
    "pbf.transform": _count_transform,
    "pbf.evaluate_many": _count_evaluate,
    "elimination.eliminate": _count_eliminate,
    "pomm.sample": _count_sample,
    "apps.gibbs": _count_gibbs,
    "apps.reject": _count_reject,
    "apps.mle": _count_mle,
}


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, fn, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("pbmrf")]
        wrappers = {}
        for (module, attr), name in SPAN_NAMES.items():
            fn = getattr(sys.modules[f"pbmrf.{module}"], attr)
            wrappers[id(fn)] = self._wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def write(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )

    def layer_totals(self) -> tuple[Counter, Counter, Counter]:
        """(inclusive seconds, self seconds, calls) per span name.

        A span's self time is its duration minus its direct children's;
        one thread runs every call, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        total, own, calls = Counter(), Counter(), Counter()
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[index]
            calls[name] += 1
        return total, own, calls
