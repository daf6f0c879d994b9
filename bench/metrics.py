"""Metric definitions and their aggregation over a run's rounds.

End-to-end metrics come from untraced rounds; per-layer metrics from the
spans of traced rounds.  Every timing is a median over rounds (end to end)
or a count, p50 and max over calls (per layer).  The benchmark runs one
client in a closed loop and nothing queues, so no wait-time metric exists.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import self_times

LAYERS = ("diagram_core", "jones_wenzl", "qpoly", "representation", "fock", "cli")

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer timings: metric stem -> span name.
TIMINGS = {
    "diagram_core.multiply_s": "diagram_core.multiply",
    "diagram_core.presentation_s": "diagram_core.presentation",
    "jones_wenzl.tower_s": "jones_wenzl.tower",
    "jones_wenzl.report_s": "jones_wenzl.report",
    "jones_wenzl.qk_s": "jones_wenzl.qk",
    "jones_wenzl.uniqueness_s": "jones_wenzl.uniqueness",
    "qpoly.phi_s": "qpoly.phi",
    "representation.relations_s": "representation.relations",
    "representation.span_s": "representation.span",
    "representation.eval_element_s": "representation.eval_element",
    "fock.build_s": "fock.build",
    "fock.ranks_s": "fock.ranks",
    "fock.toeplitz_s": "fock.toeplitz",
    "fock.matrix_units_s": "fock.matrix_units",
    "fock.reverse_s": "fock.reverse",
    "fock.limit_s": "fock.limit",
    "fock.ideal_s": "fock.ideal",
    "fock.coassoc_s": "fock.coassoc",
    "cli.command_s": "cli.command",
    "cli.check_all_s": "cli.check_all",
    "cli.startup_s": "cli.startup",
}

# Per-round sums (or maxima) of span attributes:
# metric -> (span names, attribute, unit, better, how).
CLI_SPANS = ("cli.command", "cli.check_all")
ATTRIBUTES = {
    "diagram_core.compositions": (("diagram_core.multiply",), "compositions", "count", "lower", "sum"),
    "jones_wenzl.tower_terms": (("jones_wenzl.tower",), "terms", "count", "lower", "sum"),
    "representation.relation_instances": (("representation.relations",), "instances", "count", "higher", "sum"),
    "representation.matmul_gflop": (("representation.relations",), "gflop", "GFLOP", "lower", "sum"),
    "representation.span_dim": (("representation.span",), "dimension", "count", "higher", "max"),
    "representation.cross_check_residual": (("representation.eval_element",), "cross_check_residual", "norm", "lower", "max"),
    "fock.frame_mb": (("fock.build",), "frame_mb", "MB", "lower", "sum"),
    "fock.fock_dim": (("fock.build",), "fock_dim", "count", "higher", "sum"),
    "fock.idempotent_residual_max": (("fock.build",), "idempotent_residual_max", "norm", "lower", "max"),
    "fock.rounding_max": (("fock.build",), "rounding_max", "norm", "lower", "max"),
    "fock.toeplitz_relations": (("fock.toeplitz",), "relations", "count", "higher", "sum"),
    "cli.output_bytes": (CLI_SPANS, "output_bytes", "bytes", "lower", "sum"),
    "cli.nonzero_exits": (CLI_SPANS, "nonzero_exit", "count", "lower", "sum"),
}


def per_layer_specs() -> list[tuple[str, str, str]]:
    specs = []
    for stem in TIMINGS:
        specs += [(f"{stem}.count", "count", "higher"),
                  (f"{stem}.p50", "s", "lower"),
                  (f"{stem}.max", "s", "lower")]
    specs += [("diagram_core.compositions_per_s", "1/s", "higher"),
              ("diagram_core.merge_ratio", "ratio", "lower")]
    specs += [(name, unit, better) for name, (_, _, unit, better, _) in ATTRIBUTES.items()]
    for layer in LAYERS:
        specs += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.checks_failed", "count", "lower")]
    specs += [("bench.self_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return specs


PER_LAYER = tuple(per_layer_specs())


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    """Medians over untraced rounds (set-up: over every set-up sample),
    each with its sample count."""
    samples = {name: [r[name] for r in rounds] for name, _, _ in END_TO_END}
    samples["setup_s"] = setups
    return {
        name: {"value": median(samples[name]), "unit": unit, "samples": len(samples[name])}
        for name, unit, _ in END_TO_END
    }


def check_counts(rounds: list[dict]) -> tuple[int, int, int]:
    """Checks attempted, checks failed, and the failures of known defects
    among them."""
    attempted = failed = known = 0
    for r in rounds:
        for entry in r["checks"]["layers"].values():
            attempted += entry["attempted"]
            failed += entry["failed"]
            known += entry["known"]
    return attempted, failed, known


def residual_margin_log10(rounds: list[dict]):
    """Median over rounds of log10(max residual / tol) over passed numeric
    checks; None when the workload makes no numeric check."""
    ratios = [r["checks"]["residual_ratio_max"] for r in rounds]
    logs = [math.log10(x) for x in ratios if x]
    return statistics.median(logs) if logs else None


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics from the spans of traced rounds.

    ``traced[i]`` and ``untraced[i]`` ran the same inputs; their wall-time
    difference is the tracing overhead.  A layer a workload does not call
    reads 0.
    """
    durations = defaultdict(list)
    per_round = defaultdict(list)
    for r in traced:
        spans = r["spans"]
        selfs = self_times(spans)
        sums = defaultdict(float)
        for s in spans:
            d = s["end"] - s["start"]
            durations[s["name"]].append(d)
            layer = s["name"].split(".")[0]
            sums[f"{layer}.self_s"] += selfs[s["id"]]
        for name, (names, attr, _, _, how) in ATTRIBUTES.items():
            vals = [s["attrs"][attr] for s in spans if s["name"] in names and attr in s["attrs"]]
            sums[name] = (sum(vals) if how == "sum" else max(vals, default=0.0))
        for layer in LAYERS:
            sums[f"{layer}.checks_failed"] = r["checks"]["layers"].get(layer, {}).get("failed", 0)
        for key, value in sums.items():
            per_round[key].append(value)

    out = {}
    for stem, span in TIMINGS.items():
        ds = durations.get(span, [])
        out[f"{stem}.count"] = len(ds)
        out[f"{stem}.p50"] = median(ds)
        out[f"{stem}.max"] = max(ds, default=0.0)
    compositions = sum(s["attrs"]["compositions"] for r in traced for s in r["spans"]
                       if s["name"] == "diagram_core.multiply")
    results = sum(s["attrs"].get("result_terms", 0) for r in traced for s in r["spans"]
                  if s["name"] == "diagram_core.multiply")
    busy = sum(durations.get("diagram_core.multiply", []))
    out["diagram_core.compositions_per_s"] = compositions / busy if busy else 0.0
    out["diagram_core.merge_ratio"] = results / compositions if compositions else 0.0
    for name, how in ((n, spec[4]) for n, spec in ATTRIBUTES.items()):
        vals = per_round.get(name, [])
        out[name] = max(vals, default=0.0) if how == "max" else median(vals)
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = median(per_round.get(f"{layer}.self_s", []))
    for layer in LAYERS:
        out[f"{layer}.checks_failed"] = median(per_round.get(f"{layer}.checks_failed", []))
    out["trace.overhead_s"] = median(
        [t["wall_s"] - u["wall_s"] for t, u in zip(traced, untraced)]
    )
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": out[name], "unit": units[name]} for name, _, _ in PER_LAYER}
