"""Per-layer metrics of a traced replay.

Inputs: the spans the traced server wrote (see ``spans.py``), the
client-side records of the traced and the untraced replay of the same
operations, how far the server's ``GET /stats`` counters moved during the
traced replay and where they ended, the client-side decode time, and a
function giving a record's latency in reference seconds (see
``hostspeed``).  Layers a workload does not exercise read 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from spans import outermost, self_times

ROUTES = ("query", "batch", "aggregate", "search", "integrate", "feedback")

#: The per-layer metrics as BENCHMARK.json declares them (name, unit,
#: better), in its order; this module only computes them.
PER_LAYER = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)["per_layer"]

_LITERAL_TABLE = ("literal", "conjunction", "product")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(spans: list, window: tuple, traced: list, untraced: list,
            delta: dict, after: dict, decode_ns: int, reference_latency) -> dict:
    spans = _within(spans, *window)
    own = self_times(spans)
    ops = len(traced)

    def named(*names):
        return [i for i, s in enumerate(spans) if s[0].split(":", 1)[1] in names]

    def total_ms(indices):
        return sum(spans[i][2] - spans[i][1] for i in indices) / 1e6

    def per_call(indices):
        return _ratio(total_ms(indices), len(indices))

    def self_ms(indices):
        return sum(own[i] for i in indices) / 1e6

    def layer(name):
        return outermost(spans, name)

    values = {}
    for route in ROUTES:
        latencies = [r.latency for r in untraced
                     if r.op.route == route and not isinstance(r.result, Exception)]
        values[f"server.app.{route}_p50_ms"] = (
            statistics.median(latencies) * 1e3 if latencies else 0.0)
    roots = [i for i, s in enumerate(spans)
             if s[0].startswith("dbms.service:") and s[3] is None]
    client_ms = sum(r.latency for r in traced) * 1e3
    values["server.http.overhead_ms_per_op"] = _ratio(client_ms - total_ms(roots), ops)
    values["server.wire.encode_ms_per_op"] = _ratio(total_ms(layer("server.wire")), ops)
    values["server.wire.response_bytes_per_op"] = _ratio(
        sum(spans[i][5] for i in named("json_response")), ops)
    values["server.client.decode_ms_per_op"] = _ratio(decode_ns / 1e6, ops)
    fan_outs = named("DataspaceService.query_all")
    values["dbms.service.query_all_self_ms_per_call"] = _ratio(self_ms(fan_outs), len(fan_outs))
    compiles = layer("query.plan")
    values["query.plan.compile_ms_per_op"] = _ratio(total_ms(compiles), ops)
    values["query.plan.compiles_per_op"] = _ratio(len(compiles), ops)
    values["dbms.cache_store.get_ms_per_call"] = per_call(
        named("AnswerCacheStore.get", "AnswerCacheStore.get_aggregate"))
    values["dbms.cache_store.put_ms_per_call"] = per_call(
        named("AnswerCacheStore.put", "AnswerCacheStore.put_aggregate"))
    hits = delta.get("persistent_hits", 0) + delta.get("persistent_aggregate_hits", 0)
    misses = delta.get("persistent_misses", 0) + delta.get("persistent_aggregate_misses", 0)
    values["dbms.cache_store.hit_ratio"] = _ratio(hits, hits + misses)
    values["dbms.cache_store.rows_written_per_op"] = _ratio(len(named(
        "AnswerCacheStore.put", "AnswerCacheStore.put_aggregate",
        "AnswerCacheStore.remember_plan")), ops)
    values["dbms.cache_store.invalidations_per_op"] = _ratio(
        delta.get("persistent_invalidations", 0), ops)
    values["dbms.cache_store.busy_retries"] = float(delta.get("persistent_busy_retries", 0))
    values["dbms.store.get_ms_per_call"] = per_call(named("DocumentStore.get"))
    values["dbms.store.put_ms_per_call"] = per_call(named("DocumentStore.put"))
    values["core.engine.integrate_ms_per_call"] = per_call(layer("core.engine"))
    values["pxml.simplify.ms_per_call"] = per_call(layer("pxml.simplify"))
    values["feedback.conditioning.ms_per_call"] = per_call(layer("feedback.conditioning"))
    answer_events = named("ProbQueryEngine.answer_events")
    values["query.engine.answer_events_ms_per_call"] = per_call(answer_events)
    values["query.engine.event_variables_mean"] = _ratio(
        sum(spans[i][5][1] for i in answer_events),
        sum(spans[i][5][0] for i in answer_events))
    pricing = layer("pxml.events_cache")
    values["pxml.events_cache.pricing_ms_per_call"] = per_call(pricing)
    # A memo miss is the probability() call that compiles its event.
    lookups = named("EventProbabilityCache.probability")
    missed = {spans[i][3] for i in named("compile_event")}
    values["pxml.events_cache.memo_hit_ratio"] = _ratio(
        sum(1 for i in lookups if i not in missed), len(lookups))
    values["pxml.events_cache.memo_entries"] = float(after.get("memory_entries", 0))
    values["pxml.events_cache.evictions"] = float(after.get("memory_evictions", 0))
    values["pxml.events.event_probability_self_ms_per_op"] = _ratio(
        self_ms(named("event_probability")), ops)
    values["pxml.events_compile.compiled_probability_self_ms_per_op"] = _ratio(
        self_ms(named("compiled_probability")), ops)
    plans = named("compile_event")
    values["pxml.events_compile.atom_plan_share"] = _ratio(
        sum(spans[i][5] for i in plans), len(plans))
    table_hits = sum(delta.get(f"literal_table_{k}_hits", 0) for k in _LITERAL_TABLE)
    table_misses = sum(delta.get(f"literal_table_{k}_misses", 0) for k in _LITERAL_TABLE)
    values["pxml.events_compile.literal_table_hit_ratio"] = _ratio(
        table_hits, table_hits + table_misses)
    values["pxml.events_compile.literal_table_rows"] = float(
        sum(after.get(f"literal_table_{k}_rows", 0) for k in _LITERAL_TABLE))
    ranking = layer("query.ranking")
    values["query.ranking.self_ms_per_call"] = _ratio(
        self_ms(named("ranked_from_events", "ranked_from_probabilities")), len(ranking))
    values["query.aggregates.distribution_ms_per_call"] = per_call(layer("query.aggregates"))
    values["query.fusion.fuse_ms_per_call"] = per_call(layer("query.fusion"))
    # Both replays send the same operations in the same order, so each
    # operation is compared with itself; the median of those ratios is
    # not swung by a stall in either replay, as a ratio of sums was.
    values["trace.overhead_share"] = 1.0 - statistics.median(
        reference_latency(u) / reference_latency(t) for t, u in zip(traced, untraced))
    declared = {metric["name"] for metric in PER_LAYER}
    if declared != set(values):
        raise RuntimeError(
            "per-layer metrics computed and declared in BENCHMARK.json differ:"
            f" {sorted(declared ^ set(values))}")
    return {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in PER_LAYER}


def _within(spans: list, start: int, end: int) -> list:
    """The spans inside ``[start, end]``, parent indices re-pointed into the
    kept list (a parent outside it becomes None)."""
    keep = [i for i, span in enumerate(spans) if start <= span[1] and span[2] <= end]
    position = {old: new for new, old in enumerate(keep)}
    return [[*spans[i][:3], position.get(spans[i][3]), *spans[i][4:]] for i in keep]

