"""Spans and counters around chainequiv's public functions, from outside the program.

Each wrapper replaces a function at the name its calling module looks it up
under (``chainequiv.cli.crf_posterior_marginals``,
``chainequiv.crf.chain_log_marginals``, a class attribute such as
``HmcModel.__post_init__``...), so the program's own code runs unchanged.
Spans are kept in memory; :meth:`Tracer.layer_metrics` reduces them and
:meth:`Tracer.write` dumps them when the run ends.
"""

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager

# Every per-layer metric, with its unit.  Times and counts are per traced round.
LAYER_METRICS = {
    "tables.chain_calls": "count",
    "tables.chain_s": "s",
    "tables.pair_cells": "count",
    "tables.cells_per_s": "cells/s",
    "tables.log_sum_exp_calls": "count",
    "crf.marginals_calls": "count",
    "crf.marginals_self_s": "s",
    "crf.model_build_s": "s",
    "hmc.marginals_calls": "count",
    "hmc.marginals_self_s": "s",
    "hmc.model_build_s": "s",
    "equivalence.convert_calls": "count",
    "equivalence.psi_s": "s",
    "equivalence.phi_s": "s",
    "equivalence.beta_s": "s",
    "equivalence.convert_self_s": "s",
    "oracle.enumerate_s": "s",
    "oracle.labelings_scored": "count",
    "oracle.marginals_s": "s",
    "cli.parse_s": "s",
    "cli.format_s": "s",
    "cli.read_sequences_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead": "ratio",
}


class Tracer:
    """In-memory span recorder.

    A span is ``(name, round, start, end, self_seconds, depth)``; self time is
    the span's duration minus the time its direct child spans cover.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.round = 0
        self._stack = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span named ``name``; ``count(args, kwargs)`` adds to counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                for key, value in count(args, kwargs):
                    self.counts[key] += value
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][0] += duration
                self.spans.append((name, self.round, start, end, duration - frame[0],
                                   len(self._stack)))

        return traced

    def counter(self, key: str, fn):
        """``fn`` counting its calls under ``key``, with no span (for very hot helpers)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, patches):
        """Apply ``(owner, attribute, replacement)`` patches; restore them on exit."""
        saved = [(owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
                 for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self, rounds: int, bytes_out: float, overhead: float) -> dict:
        """Per-round layer metrics from the recorded spans and counters."""
        inclusive = Counter()
        self_time = Counter()
        open_until = {}
        for name, _, start, end, self_s, _ in sorted(self.spans, key=lambda s: s[2]):
            self_time[name] += self_s
            # Nested spans of one name (a model built inside a model build)
            # count once, through their outermost span.
            if start >= open_until.get(name, float("-inf")):
                inclusive[name] += end - start
                open_until[name] = end
        c = self.counts
        values = {
            "tables.chain_calls": c["tables.chain_calls"],
            "tables.chain_s": inclusive["tables.chain"],
            "tables.pair_cells": c["tables.pair_cells"],
            "tables.log_sum_exp_calls": c["tables.log_sum_exp_calls"],
            "crf.marginals_calls": c["crf.marginals_calls"],
            "crf.marginals_self_s": self_time["crf.marginals"],
            "crf.model_build_s": inclusive["crf.model_build"],
            "hmc.marginals_calls": c["hmc.marginals_calls"],
            "hmc.marginals_self_s": self_time["hmc.marginals"],
            "hmc.model_build_s": inclusive["hmc.model_build"],
            "equivalence.convert_calls": c["equivalence.convert_calls"],
            "equivalence.psi_s": inclusive["equivalence.psi"],
            "equivalence.phi_s": inclusive["equivalence.phi"],
            "equivalence.beta_s": inclusive["equivalence.beta"],
            "equivalence.convert_self_s": self_time["equivalence.convert"],
            "oracle.enumerate_s": inclusive["oracle.enumerate"],
            "oracle.labelings_scored": c["oracle.labelings_scored"],
            "oracle.marginals_s": inclusive["oracle.marginals"],
            "cli.parse_s": inclusive["cli.parse"],
            "cli.format_s": inclusive["cli.format"],
            "cli.read_sequences_s": inclusive["cli.read_sequences"],
            "cli.self_s": self_time["cli.main"],
            "cli.bytes_out": bytes_out,
        }
        values = {name: v / rounds for name, v in values.items()}
        chain_s = values["tables.chain_s"]
        values["tables.cells_per_s"] = values["tables.pair_cells"] / chain_s if chain_s else 0.0
        values["trace.overhead"] = overhead
        # Counts of identical rounds average to whole numbers; print them so.
        return {name: {"value": int(values[name]) if unit in ("count", "bytes") and values[name].is_integer()
                       else values[name], "unit": unit}
                for name, unit in LAYER_METRICS.items()}

    def write(self, path):
        """Write the spans as JSON lines: name, round, start, end, self seconds, depth."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def program_patches(tracer: Tracer):
    """The wrappers for every layer, as ``(owner, attribute, replacement)`` triples."""
    from chainequiv import cli, crf, equivalence, hmc, oracle, tables

    def chain_work(args, kwargs):
        first, steps = args[0], args[1]
        k, columns = first.shape
        return (("tables.chain_calls", 1), ("tables.pair_cells", len(steps) * k * k * columns))

    def calls(key):
        return lambda args, kwargs: ((key, 1),)

    def labelings(args, kwargs):
        model, ys = args[0], args[1]
        return (("oracle.labelings_scored", len(ys) * model.hidden.size ** model.length),)

    def to_model_span(original):
        crf_span = tracer.wrap("crf.model_build", original)
        hmc_span = tracer.wrap("hmc.model_build", original)

        def to_model(self):
            return (crf_span if self.kind == "crf" else hmc_span)(self)

        return to_model

    def method(cls, attr, name, count=None):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            return cls, attr, classmethod(tracer.wrap(name, original.__func__, count))
        return cls, attr, tracer.wrap(name, original, count)

    patches = []
    for module in (crf, hmc):
        for attr in ("chain_log_marginals", "chain_log_totals"):
            patches.append((module, attr, tracer.wrap("tables.chain", getattr(module, attr), chain_work)))
    for module in (tables, hmc, equivalence):
        patches.append((module, "log_sum_exp",
                        tracer.counter("tables.log_sum_exp_calls", module.log_sum_exp)))
    crf_marginals = calls("crf.marginals_calls")
    hmc_marginals = calls("hmc.marginals_calls")
    patches += [
        (cli, "crf_posterior_marginals",
         tracer.wrap("crf.marginals", cli.crf_posterior_marginals, crf_marginals)),
        (crf, "crf_posterior_marginals_batch",
         tracer.wrap("crf.marginals", crf.crf_posterior_marginals_batch, crf_marginals)),
        (cli, "hmc_posterior_marginals",
         tracer.wrap("hmc.marginals", cli.hmc_posterior_marginals, hmc_marginals)),
        (hmc, "hmc_posterior_marginals_batch",
         tracer.wrap("hmc.marginals", hmc.hmc_posterior_marginals_batch, hmc_marginals)),
        method(crf.CrfModel, "__post_init__", "crf.model_build"),
        method(hmc.HmcModel, "__post_init__", "hmc.model_build"),
        (cli.ModelFile, "to_model", to_model_span(cli.ModelFile.__dict__["to_model"])),
    ]
    convert = calls("equivalence.convert_calls")
    for module in (cli, equivalence):
        for attr in ("crf_to_hmc", "crf_to_hmc_generalized"):
            patches.append((module, attr, tracer.wrap("equivalence.convert", getattr(module, attr), convert)))
    for attr, name in (("build_psi", "psi"), ("build_phi", "phi"), ("build_beta", "beta")):
        patches.append((equivalence, attr, tracer.wrap(f"equivalence.{name}", getattr(equivalence, attr))))
    patches += [
        (cli, "enumerate_crf_posterior_batch",
         tracer.wrap("oracle.enumerate", oracle.enumerate_crf_posterior_batch, labelings)),
        (cli, "enumerate_hmc_posterior_batch",
         tracer.wrap("oracle.enumerate", oracle.enumerate_hmc_posterior_batch, labelings)),
        (cli, "all_sequences", tracer.wrap("oracle.enumerate", cli.all_sequences)),
        (cli, "posterior_matrix_marginals",
         tracer.wrap("oracle.marginals", cli.posterior_matrix_marginals)),
        (cli, "main", tracer.wrap("cli.main", cli.main)),
        method(cli.ModelFile, "load", "cli.parse"),
        method(cli.ModelFile, "dump", "cli.format"),
        method(cli.ModelFile, "from_hmc", "cli.format"),
        (cli, "read_sequences", tracer.wrap("cli.read_sequences", cli.read_sequences)),
    ]
    return patches
