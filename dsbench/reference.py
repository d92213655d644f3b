"""The correctness gate: every served answer against an in-process reference.

The reference is an in-process ``DataspaceService`` over documents parsed
from the very texts the server was given, replaying the same requests in
the same order (no HTTP, no wire codec, no persistent cache).  On a seeded
sample of the (document, plan) pairs small enough to enumerate, the
reference itself is checked against per-world enumeration; a run with
fewer such pairs than the sample fails.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from repro.dbms.service import DataspaceService
from repro.experiments import standard_rules
from repro.pxml.build import certain_document
from repro.pxml.serialize import parse_pxml
from repro.pxml.stats import tree_stats
from repro.query.aggregates import aggregate_distribution_enumerated
from repro.query.engine import query_enumeration
from repro.query.fusion import FusedAnswer
from repro.query.ranking import RankedAnswer
from repro.server import wire
from repro.xmlkit.nodes import XDocument

#: Documents with more possible worlds than this are not enumerated.
ENUMERATION_WORLDS = 2000
#: (document, plan) pairs per run checked against enumeration.
ENUMERATION_SAMPLE = 3


def _evaluate(service: DataspaceService, op):
    kwargs = {k: v for k, v in op.kwargs.items() if k != "deadline_ms"}
    if op.route == "query":
        return service.query(*op.args)
    if op.route == "batch":
        return service.run_batch(*op.args)
    if op.route == "aggregate":
        return service.aggregate(*op.args, **kwargs)
    if op.route == "search":
        return service.query_all(op.args[0], **kwargs)
    if op.route == "integrate":
        rules = standard_rules(*[rule for rule in kwargs["rules"].split(",") if rule])
        report = service.integrate(*op.args, rules=rules)
        return json.loads(json.dumps(wire.encode_report(report)))
    if op.route == "feedback":
        step = service.feedback(*op.args, correct=kwargs["correct"])
        encoded = json.loads(json.dumps(wire.encode_feedback_step(step)))
        encoded["prior"] = step.prior
        return encoded
    raise ValueError(f"unknown route {op.route!r}")


def _probabilities(result) -> list:
    if isinstance(result, RankedAnswer):
        return [item.probability for item in result]
    if isinstance(result, FusedAnswer):
        return [item.score for item in result] + [
            source.probability for item in result for source in item.sources]
    if isinstance(result, list):
        return [p for answer in result for p in _probabilities(answer)]
    if isinstance(result, dict) and "prior" in result:
        return [result["prior"]]
    if isinstance(result, dict) and "summary" not in result:
        return list(result.values())  # aggregate distribution
    return []


def _same(served, expected) -> bool:
    """Equal, and every served probability an exact Fraction."""
    return served == expected and all(
        type(p) is Fraction for p in _probabilities(served))


def _world_count(document) -> int:
    if isinstance(document, XDocument):
        return 1
    return tree_stats(document).world_count


def _enumerable(texts: dict, records: list) -> list:
    """Indices of the query, batch and aggregate records whose document
    had at most ENUMERATION_WORLDS worlds when the request was served.

    A document's count comes from its text, or from the served report of
    the integration that last wrote it; feedback conditions a document
    and never adds worlds, so the count stays an upper bound."""
    worlds: dict = {}
    found = []
    for index, record in enumerate(records):
        op = record.op
        if op.route == "integrate" and not record.failed:
            worlds[op.args[2]] = record.result["world_count"]
        if op.route not in ("query", "batch", "aggregate") or record.failed:
            continue
        name = op.args[0]
        if name not in worlds:
            kind, text = texts.get(name, ("xml", ""))
            worlds[name] = _world_count(parse_pxml(text)) if kind == "pxml" else 1
        if worlds[name] <= ENUMERATION_WORLDS:
            found.append(index)
    return found


def _enumerated(service: DataspaceService, op) -> list:
    """Mismatches of the reference against per-world enumeration."""
    document = service.store.get(op.args[0])
    if isinstance(document, XDocument):
        document = certain_document(document)
    problems = []
    if _world_count(document) > ENUMERATION_WORLDS:
        return [f"{op.args[0]} has more than {ENUMERATION_WORLDS} worlds"
                " where fewer were expected"]
    if op.route == "aggregate":
        kwargs = {k: v for k, v in op.kwargs.items() if k != "deadline_ms"}
        expected = aggregate_distribution_enumerated(document, *op.args[1:], **kwargs)
        if service.aggregate(*op.args, **kwargs) != expected:
            problems.append(f"reference {op.key()} differs from enumeration")
        return problems
    plans = op.args[1] if op.route == "batch" else [op.args[1]]
    for plan in plans:
        exact = [(i.value, i.probability) for i in query_enumeration(document, plan)]
        priced = [(i.value, i.probability) for i in service.query(op.args[0], plan)]
        if exact != priced:
            problems.append(f"reference {op.args[0]} {plan!r} differs from enumeration")
    return problems


def check(texts: dict, records: list, *, memoize: bool, seed: int) -> tuple:
    """Replay ``records`` (set-up requests first) in process.

    Returns ``(mismatches, enumerated)``: problem messages, and how many
    records were also checked against enumeration.
    """
    service = DataspaceService()
    loaded: set = set()

    def ensure(names) -> None:
        for name in names:
            if name in loaded or name not in texts:
                continue
            kind, text = texts[name]
            if kind == "pxml":
                service.load_document(name, parse_pxml(text))
            else:
                service.load(name, text)
            loaded.add(name)

    candidates = _enumerable(texts, records)
    sampled = set(random.Random(seed * 7919 + 17).sample(
        candidates, min(ENUMERATION_SAMPLE, len(candidates))))
    problems: list = []
    memo: dict = {}
    enumerated = 0
    for index, record in enumerate(records):
        if record.failed:
            continue  # counted as a failed operation, which fails the run
        op = record.op
        if op.route in ("search", "integrate"):
            ensure(texts)
        else:
            ensure([op.args[0]])
        key = op.key()
        if key in memo:
            expected = memo[key]
        else:
            expected = _evaluate(service, op)
            if memoize:
                memo[key] = expected
        if index in sampled:
            problems += _enumerated(service, op)
            enumerated += 1
        if not _same(record.result, expected):
            problems.append(f"served answer of {key} differs from the reference")
    service.close()
    if enumerated < ENUMERATION_SAMPLE:
        problems.append(f"only {enumerated} records could be checked against world"
                        f" enumeration (expected {ENUMERATION_SAMPLE})")
    return problems, enumerated
