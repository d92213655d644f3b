"""In-memory span recording for the traced run.

A :class:`Recorder` wraps callables so that every call records one span
``[name, start_ns, end_ns, parent, request, extra]``.  The parent is the
innermost open span on the calling thread; a span opened on a thread with
no open span (a fan-out worker, the event loop encoding a response) takes
the open *request root* as its parent instead.  Request roots are the
``DataspaceService`` entry points.  The benchmark drives the server over
one connection in a closed loop, so at most one request root is open at
any time and that hand-off is unambiguous.

:func:`install` patches the server's layers in place and is imported by
``traced_serve.py`` inside the server process.  :func:`load` and
:func:`self_times` are the analysis half, used by the benchmark process.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# (module, class, methods, layer).  Methods are looked up on the class at
# call time, so patching the class attribute reaches every caller.
METHODS = (
    ("repro.dbms.service", "DataspaceService",
     ("query", "run_batch", "aggregate", "query_all", "integrate", "feedback"),
     "dbms.service"),
    ("repro.dbms.store", "DocumentStore", ("get", "put"), "dbms.store"),
    ("repro.query.engine", "ProbQueryEngine", ("answer_events",), "query.engine"),
    ("repro.pxml.events_cache", "EventProbabilityCache",
     ("probability", "probabilities_of"), "pxml.events_cache"),
    ("repro.dbms.cache_store", "AnswerCacheStore",
     ("get", "put", "get_aggregate", "put_aggregate", "invalidate_document",
      "remember_plan"),
     "dbms.cache_store"),
    ("repro.core.engine", "Integrator", ("integrate",), "core.engine"),
    ("repro.feedback.conditioning", "FeedbackSession", ("confirm", "reject"),
     "feedback.conditioning"),
)

# (module, function, layer).  ``from .events import event_probability``
# binds a second name in the importing module, so these are replaced in
# every loaded ``repro`` module that holds the same function object.
FUNCTIONS = (
    ("repro.query.plan", "compile_plan", "query.plan"),
    ("repro.pxml.events", "event_probability", "pxml.events"),
    ("repro.pxml.events_compile", "compile_event", "pxml.events_compile"),
    ("repro.pxml.events_compile", "compiled_probability", "pxml.events_compile"),
    ("repro.query.ranking", "ranked_from_events", "query.ranking"),
    ("repro.query.ranking", "ranked_from_probabilities", "query.ranking"),
    ("repro.query.aggregates", "aggregate_distribution", "query.aggregates"),
    ("repro.query.fusion", "fuse_answers", "query.fusion"),
    ("repro.pxml.simplify", "simplify", "pxml.simplify"),
    ("repro.pxml.simplify", "simplify_fixpoint", "pxml.simplify"),
)

# (module, names, layer).  Encoders are shared between the wire and the
# cache rows, so they are patched only in the namespace whose callers
# belong to the layer: the app reaches the wire codec as ``wire.encode_*``
# and the JSON body through ``json_response``; the cache store calls its
# row codecs ``_encode_*`` by module-global name.
ATTRIBUTES = (
    ("repro.server.wire",
     ("encode_answer", "encode_fused_answer", "encode_aggregate_distribution",
      "encode_feedback_step", "encode_report"),
     "server.wire"),
    ("repro.server.app", ("json_response",), "server.wire"),
    ("repro.dbms.cache_store", ("_encode_answer", "_encode_aggregate"),
     "dbms.cache_store.encode"),
)

# Modules imported before patching, so every binding exists to be found.
PRELOAD = (
    "repro.cli", "repro.server.app", "repro.server.http", "repro.server.wire",
    "repro.dbms.service", "repro.feedback.conditioning", "repro.core.incremental",
)


class Recorder:
    """Collects spans from wrapped callables, from any thread."""

    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()
        self._root: object = None
        self._request = 0

    def wrap(self, name, fn, *, root=False, extra=None):
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            owns_root = False
            if stack:
                parent = stack[-1]
            elif root and self._root is None:
                parent = None
                owns_root = True
                self._request += 1
            else:
                parent = self._root
            record = [name, clock(), 0, parent, self._request, None]
            if owns_root:
                self._root = record
            spans.append(record)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    record[5] = extra(result)
                return result
            finally:
                record[2] = clock()
                stack.pop()
                if owns_root:
                    self._root = None

        return traced

    def dump(self, path: str) -> None:
        """Write every span as one JSON list; parents become indices."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [
            [name, start, end,
             index.get(id(parent)) if parent is not None else None,
             request, extra]
            for name, start, end, parent, request, extra in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


def _event_variables(answer_events) -> list:
    return [len(answer_events), sum(len(event.vars) for event, _ in answer_events.values())]


def install(recorder: Recorder) -> None:
    """Wrap every traced layer of the already-importable ``repro`` package."""
    for module in PRELOAD:
        importlib.import_module(module)
    from repro.pxml.events_compile import C_ATOM

    extras = {
        "ProbQueryEngine.answer_events": _event_variables,
        "compile_event": lambda plan: int(plan.kind == C_ATOM),
        "json_response": lambda response: len(response.body),
    }
    for module_name, class_name, methods, layer in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            qualified = f"{class_name}.{method}"
            setattr(cls, method, recorder.wrap(
                f"{layer}:{qualified}", getattr(cls, method),
                root=layer == "dbms.service", extra=extras.get(qualified),
            ))
    loaded = [
        module for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]
    for module_name, function_name, layer in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), function_name)
        wrapped = recorder.wrap(
            f"{layer}:{function_name}", original, extra=extras.get(function_name)
        )
        for module in loaded:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped
    for module_name, names, layer in ATTRIBUTES:
        module = importlib.import_module(module_name)
        for attribute in names:
            setattr(module, attribute, recorder.wrap(
                f"{layer}:{attribute}", getattr(module, attribute),
                extra=extras.get(attribute),
            ))


# -- analysis (benchmark process) ------------------------------------------


def load(path) -> list:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def self_times(spans: list) -> list:
    """Per span: its duration minus the union of its children's intervals
    (children on other threads may overlap each other), in nanoseconds."""
    children: dict = {}
    for index, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(index)
    result = []
    for index, (_, start, end, _, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda i: spans[i][1]):
            child_start = max(spans[child][1], cursor)
            child_end = min(spans[child][2], end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append(end - start - covered)
    return result


def outermost(spans: list, layer: str) -> list:
    """Indices of the spans of ``layer`` not nested in a span of the same
    layer (so a layer calling itself is counted once per entry)."""
    prefix = layer + ":"
    found = []
    for index, span in enumerate(spans):
        if not span[0].startswith(prefix):
            continue
        parent = span[3]
        nested = False
        while parent is not None:
            if spans[parent][0].startswith(prefix):
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            found.append(index)
    return found
