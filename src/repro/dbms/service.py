"""The dataspace service: concurrent, cache-persistent query serving.

This is the Figure 4 stack assembled for the heavy-traffic path the
ROADMAP aims at.  :class:`DataspaceService` composes

* a thread-safe :class:`~repro.dbms.store.DocumentStore` (per-name
  sharded locks, optional LRU bound on materialized documents),
* the in-memory amortization layers — compiled
  :class:`~repro.query.plan.QueryPlan`\\ s and per-document
  :class:`~repro.pxml.events_cache.EventProbabilityCache`\\ s — and
* an optional persistent :class:`~repro.dbms.cache_store.AnswerCacheStore`
  so priced answers survive process restarts,

behind one facade safe for many threads: :meth:`query`,
:meth:`run_batch`, :meth:`query_all` / :meth:`aggregate_all` (the
dataspace-wide fan-out with rank fusion — see
:mod:`repro.query.fusion`), :meth:`integrate`, :meth:`feedback`.

Serving discipline:

1. a query is keyed by ``(document name, content digest, plan
   fingerprint digest)`` — both digest halves are stable across
   processes (see :mod:`repro.dbms.cache_store`);
2. a persistent **hit** deserializes exact Fractions straight from disk:
   no tree walk, no Shannon expansion, no engine, no per-name lock —
   hits from any number of threads proceed in parallel;
3. a **miss** takes the document's shard lock, evaluates through the
   shared :class:`~repro.query.engine.QueryEngine` (populating the
   in-memory event cache), persists the priced answer, and returns it.
   Misses on *different* documents still run in parallel;
4. every mutation (:meth:`load`, :meth:`integrate`, :meth:`feedback`,
   :meth:`delete`) bumps the persistent cache's per-name version and
   drops the name's rows.  Correctness never depends on that purge — the
   content digest changes with the content — it bounds cache growth and
   fences concurrent writers;
5. when several *processes* share one cache directory (``imprecise serve
   --workers N``), the per-name version doubles as a **cross-process
   fence**: each cache-keyed read first compares the persistent version
   against the one this instance last observed, and on movement drops
   the name's in-memory state (materialized document, content digest,
   engine) so a mutation applied by a sibling process is re-read from
   disk instead of served from a stale materialization.
"""

from __future__ import annotations

import os
import threading
import zlib
from collections import OrderedDict
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

from ..core.engine import IntegrationReport
from ..core.oracle import Oracle
from ..core.rules import Rule
from ..deadline import Deadline, active
from ..errors import (
    CacheBusyError,
    DeadlineExceededError,
    MissingDocumentError,
    QueryError,
    StoreError,
)
from ..feedback.conditioning import FeedbackStep
from ..pxml.build import certain_document
from ..pxml.model import PXDocument
from ..pxml.stats import NodeStats
from ..query.aggregates import (
    AggregateDistribution,
    AggregateSpec,
    aggregate_distribution,
    compile_aggregate,
)
from ..query.engine import QueryEngine, QueryLike
from ..query.fusion import (
    DEFAULT_RRF_K,
    FusedAnswer,
    WeightLike,
    fuse_aggregates,
    fuse_answers,
)
from ..query.plan import QueryPlan, compile_plan
from ..query.ranking import RankedAnswer
from ..xmlkit.dtd import DTD
from ..xmlkit.nodes import XDocument
from .cache_store import AnswerCacheStore
from .module import ImpreciseModule
from .store import DocumentStore

__all__ = ["DataspaceService", "format_cache_stats"]

_SERVICE_SHARDS = 16


def format_cache_stats(stats: dict) -> str:
    """Render a :meth:`DataspaceService.cache_stats` dict, one sorted
    ``key: value`` line per counter.

    This is the single formatting path for cache diagnostics: the
    ``imprecise serve`` CLI (``cache-stats`` protocol command and
    ``--cache-stats`` exit report) prints exactly this, and ``GET
    /stats`` on the HTTP front serves the same dict as JSON — the two
    surfaces cannot drift because neither picks its own counters.
    """
    return "\n".join(f"{key}: {value:,}" for key, value in sorted(stats.items()))


class DataspaceService:  # impreciselint: guarded-by=_mu
    """Concurrent query/integration service over a document store.

    >>> service = DataspaceService()
    >>> service.load("a", "<r><x>1</x></r>")
    >>> service.query("a", "//x").values()
    ['1']

    Construct over a store directory and a cache directory to get the
    persistent, warm-restartable configuration::

        service = DataspaceService(directory="store/", cache_dir="cache/")

    All public methods are thread-safe; concurrent queries return exactly
    the answers serial execution would (same Fractions).
    """

    def __init__(
        self,
        store: Optional[DocumentStore] = None,
        *,
        directory: Optional[Union[str, Path]] = None,
        cache_store: Optional[AnswerCacheStore] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        max_cached_documents: Optional[int] = None,
        cache_max_rows: Optional[int] = None,
        fanout_workers: Optional[int] = None,
    ):
        if store is not None and directory is not None:
            raise StoreError("pass either store= or directory=, not both")
        if cache_store is not None and cache_dir is not None:
            raise StoreError("pass either cache_store= or cache_dir=, not both")
        if cache_max_rows is not None and cache_dir is None:
            # Silently dropping the bound would leave the caller believing
            # the cache is bounded (or exists at all).
            raise StoreError(
                "cache_max_rows requires cache_dir=; for an explicit"
                " cache_store=, configure its max_rows directly instead"
            )
        self.store = (
            store
            if store is not None
            else DocumentStore(directory, max_cached=max_cached_documents)
        )
        if cache_store is None and cache_dir is not None:
            cache_store = AnswerCacheStore(cache_dir, max_rows=cache_max_rows)
        self.cache: Optional[AnswerCacheStore] = cache_store
        self._module = ImpreciseModule(self.store)
        #: name -> (content digest, engine over that content); LRU-bounded
        #: by the store's max_cached so engines (which hold their document
        #: strongly) cannot defeat the store's materialization bound.
        self._engines: "OrderedDict[str, tuple[str, QueryEngine]]" = OrderedDict()
        self._max_engines = self.store.max_cached
        self._mu = threading.Lock()
        self._shards = [threading.RLock() for _ in range(_SERVICE_SHARDS)]
        if fanout_workers is not None and fanout_workers < 1:
            raise StoreError(
                f"fanout_workers must be >= 1, got {fanout_workers}"
            )
        self._fanout_workers = fanout_workers
        self._pool: Optional[ThreadPoolExecutor] = None  # lazy; see _fanout_pool
        self._closed = False
        #: Persistent-cache writes absorbed under pathological write-lock
        #: contention (see :meth:`_cache_put_guarded`): each one cost
        #: warmth (the answer was served uncached), never the request.
        self.cache_write_failures = 0
        #: name -> persistent cache version last observed by this
        #: instance — the cross-process invalidation fence (see
        #: :meth:`_fence_check`).
        self._observed_versions: dict[str, int] = {}

    # -- internals ----------------------------------------------------------

    def _name_lock(self, name: str) -> threading.RLock:
        return self._shards[zlib.crc32(name.encode("utf-8")) % _SERVICE_SHARDS]

    def _engine(self, name: str, digest: str) -> QueryEngine:
        """The shared engine over ``name``'s current content (rebuilt when
        the digest moved; least-recently-used entries evicted beyond the
        store's ``max_cached`` bound)."""
        with self._mu:
            entry = self._engines.get(name)
            if entry is not None and entry[0] == digest:
                self._engines.move_to_end(name)
                return entry[1]
        document = self.store.get(name)
        if isinstance(document, XDocument):
            document = certain_document(document)
        engine = QueryEngine(document)
        with self._mu:
            entry = self._engines.get(name)
            if entry is not None and entry[0] == digest:
                self._engines.move_to_end(name)
                return entry[1]  # lost the race; share the winner's engine
            self._engines[name] = (digest, engine)
            self._engines.move_to_end(name)
            if self._max_engines is not None:
                while len(self._engines) > self._max_engines:
                    self._engines.popitem(last=False)
        return engine

    def _cache_put_guarded(self, write: Callable[[], None]) -> None:
        """Run one persistent-cache write, absorbing
        :class:`~repro.errors.CacheBusyError`.

        By the time a write runs, the answer is already computed; a
        cache row is warmth, never correctness — so pathological
        write-lock contention (N sibling processes in a writer convoy)
        must cost the row, not the request that did the work.  Absorbed
        writes tick ``cache_write_failures`` (surfaced by
        :meth:`cache_stats`).  This is the *only* sanctioned absorb
        point: reads and mutations let the typed error propagate."""
        try:
            write()
        # impreciselint: disable=no-swallow -- the sanctioned absorb point this rule exists to make unique; counted, documented above
        except CacheBusyError:
            with self._mu:
                self.cache_write_failures += 1

    def _plan_and_digest(
        self, expression: QueryLike
    ) -> tuple[Optional[QueryPlan], str]:
        """Resolve the plan-digest half of the cache key, compiling only
        when the persistent plan memo cannot answer."""
        if (
            self.cache is not None
            and isinstance(expression, str)
        ):
            known = self.cache.plan_digest(expression)
            if known is not None:
                return None, known
        plan = compile_plan(expression)
        if self.cache is not None and isinstance(expression, str):
            self._cache_put_guarded(
                lambda: self.cache.remember_plan(
                    expression, plan.fingerprint_digest
                )
            )
        return plan, plan.fingerprint_digest

    def _fanout_pool(self) -> ThreadPoolExecutor:
        """The lazily-created thread pool fan-outs price documents on
        (created on first :meth:`query_all`/:meth:`aggregate_all`, shut
        down by :meth:`close`).

        Raises :class:`StoreError` after :meth:`close` — silently
        recreating the pool would leak threads past the lifecycle the
        caller thought it had ended."""
        with self._mu:
            if self._closed:
                raise StoreError(
                    "DataspaceService is closed; fan-out is no longer available"
                )
            if self._pool is None:
                workers = self._fanout_workers
                if workers is None:
                    workers = min(32, (os.cpu_count() or 1) + 4)
                self._pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="dataspace-fanout"
                )
            return self._pool

    @staticmethod
    def _collect_fanout(
        futures: Sequence[tuple[str, "Future"]]
    ) -> dict:
        """Drain a fan-out with error containment.

        Futures are resolved in submission (pinned sorted-name) order.
        On the first failure every not-yet-started future is cancelled
        and every already-running one is *awaited* before the error
        propagates — no priced-but-orphaned work keeps running behind
        the caller's back, and the surfaced error is deterministically
        the first failing document in name order regardless of which
        future happened to finish first.
        """
        results: dict = {}
        first_error: Optional[BaseException] = None
        for name, future in futures:
            if first_error is not None:
                # No-op for futures already running; result() below then
                # waits for them, so nothing outlives this call.
                future.cancel()
            try:
                results[name] = future.result()
            except CancelledError:
                continue
            # impreciselint: disable=no-swallow -- captured into first_error and re-raised after the drain loop
            except Exception as error:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return results

    @staticmethod
    def _collect_fanout_bounded(
        futures: Sequence[tuple[str, "Future"]],
        deadline: Deadline,
        allow_partial: bool,
        *,
        what: str,
    ) -> tuple[dict, tuple]:
        """Drain a fan-out against a deadline.

        Like :meth:`_collect_fanout` but each wait is capped at the
        budget's remainder.  Once the budget expires, not-yet-started
        futures are cancelled and running stragglers are *abandoned*,
        not awaited — they carry the same deadline on their own threads,
        so their engine checkpoints terminate them promptly; blocking on
        them here would turn a bounded request into an unbounded one.
        Documents that finished in budget are kept either way; without
        ``allow_partial`` any omission raises the typed error.
        """
        results: dict = {}
        omitted: list = []
        expired = deadline.expired()
        for name, future in futures:
            if expired and not future.done():
                future.cancel()
                omitted.append(name)
                continue
            try:
                results[name] = future.result(
                    timeout=max(deadline.remaining_seconds(), 0.0)
                )
            except CancelledError:
                omitted.append(name)
            except FuturesTimeout:
                future.cancel()  # a running straggler self-terminates
                omitted.append(name)
                expired = True
            # impreciselint: disable=no-swallow -- converted to the collective typed raise below (omitted bookkeeping)
            except DeadlineExceededError:
                omitted.append(name)
                expired = True
            except Exception:
                # A real (non-timing) failure outranks partial results:
                # stop the rest and surface it, as _collect_fanout does.
                for _, pending in futures:
                    pending.cancel()
                raise
        if omitted and not allow_partial:
            raise DeadlineExceededError(
                f"{what}: deadline of {deadline.budget_ms}ms exceeded with"
                f" {len(omitted)} of {len(futures)} documents unfinished"
            )
        if omitted and not results:
            raise DeadlineExceededError(
                f"{what}: deadline of {deadline.budget_ms}ms exceeded before"
                f" any of {len(futures)} documents finished"
            )
        return results, tuple(omitted)

    def _select_names(
        self,
        names: Optional[Sequence[str]],
        glob: Optional[str],
        *,
        what: str,
    ) -> list[str]:
        """Resolve a fan-out membership to a pinned sorted name list.

        ``names=None, glob=None`` selects the whole store; explicit
        names are deduplicated, sorted, and checked to exist up front
        (better one clean error than a half-submitted fan-out)."""
        if names is not None and glob is not None:
            raise StoreError(f"{what}: pass either names= or glob=, not both")
        if names is not None:
            selected = sorted(set(names))
            for name in selected:
                if name not in self.store:
                    raise MissingDocumentError(f"no document named {name!r}")
        elif glob is not None:
            selected = self.store.glob(glob)
        else:
            selected = self.store.list()
        if not selected:
            raise MissingDocumentError(
                f"{what} selected no documents"
                + (f" (glob {glob!r})" if glob is not None else "")
            )
        return selected

    def _invalidate(self, name: str) -> None:
        with self._mu:
            self._engines.pop(name, None)
        if self.cache is not None:
            before = self.cache.version(name)
            self.cache.invalidate_document(name)
            after = self.cache.version(name)
            with self._mu:
                if after == before + 1:
                    # Only our own bump: the in-memory state (we just
                    # wrote it) is current, so record the version and
                    # keep the materialization warm.
                    self._observed_versions[name] = after
                else:
                    # A sibling process interleaved a mutation — forget
                    # what we observed so the next read refreshes.
                    self._observed_versions.pop(name, None)

    def _fence_check(self, name: str) -> None:
        """The cross-process invalidation fence (serving-discipline
        point 5): compare the persistent per-name version against the
        one this instance last observed and, on movement, drop every
        piece of in-memory state derived from the old content — the
        shared engine and the store's materialization + content digest
        — so a mutation committed by a sibling process is re-read from
        disk instead of served from a stale materialization.

        Version 0 with nothing observed means the name was never
        invalidated anywhere, so whatever we hold came straight from
        disk and is current.  A request racing the sibling's mutation
        itself may still price the pre-mutation content — that answer
        is keyed by the *old* content digest and stamped with a stale
        version, so it is never served to anyone reading the new state.
        """
        if self.cache is None:
            return
        current = self.cache.version(name)
        with self._mu:
            known = self._observed_versions.get(name)
            if known == current or (known is None and current == 0):
                self._observed_versions[name] = current
                return
            self._observed_versions[name] = current
            self._engines.pop(name, None)
        self.store.refresh(name)

    # -- loading ------------------------------------------------------------

    def load(self, name: str, xml_text: str) -> None:
        """Parse and store a plain XML source document."""
        with self._name_lock(name):
            self._module.load(name, xml_text)
            self._invalidate(name)

    def load_document(
        self, name: str, document: Union[XDocument, PXDocument]
    ) -> None:
        """Store an already-built document under ``name``."""
        with self._name_lock(name):
            self._module.load_document(name, document)
            self._invalidate(name)

    def delete(self, name: str) -> None:
        """Remove a document and every answer cached for it."""
        with self._name_lock(name):
            self.store.delete(name)
            self._invalidate(name)

    def list(self) -> list[str]:
        """All stored document names, sorted."""
        return self.store.list()

    def documents(self) -> list[dict]:
        """``[{"name": ..., "kind": "xml" | "pxml"}, ...]``, sorted by
        name — the listing surface the CLI and the HTTP front share.
        A name deleted concurrently between the listing and its kind
        lookup is skipped, not an error."""
        entries = []
        for name in self.store.list():
            try:
                entries.append({"name": name, "kind": self.store.kind(name)})
            except StoreError:
                continue  # deleted mid-listing by another thread
        return entries

    # -- querying -----------------------------------------------------------

    def query(
        self,
        name: str,
        expression: QueryLike,
        *,
        deadline: Optional[Deadline] = None,
    ) -> RankedAnswer:
        """Ranked probabilistic answer of an XPath query over ``name``.

        Served from the persistent cache when the (content, plan) pair
        has been priced before — by this process or any earlier one.

        ``deadline=`` bounds wall-clock, never precision: it is
        activated on this thread for the duration of the call, the
        engine's evaluation loops poll it, and expiry raises the typed
        :class:`DeadlineExceededError` — the answer is exact or absent,
        never approximate.
        """
        if deadline is None:
            return self._query_unbounded(name, expression)
        with active(deadline):
            deadline.check()
            return self._query_unbounded(name, expression)

    def _query_unbounded(self, name: str, expression: QueryLike) -> RankedAnswer:
        self._fence_check(name)
        plan, plan_digest = self._plan_and_digest(expression)
        if self.cache is not None:
            # Optimistic lock-free fast path: hits deserialize in parallel.
            hit = self.cache.get(name, self.store.digest(name), plan_digest)
            if hit is not None:
                return hit
        with self._name_lock(name):
            # Mutations hold this same lock, so the digest is stable for
            # the whole evaluate-and-persist step below.
            digest = self.store.digest(name)
            if self.cache is not None:
                # Re-check under the lock (a racing miss may have landed);
                # record=False — the optimistic probe already counted.
                hit = self.cache.get(name, digest, plan_digest, record=False)
                if hit is not None:
                    return hit
            # Version observed before evaluating: if another *process*
            # invalidates meanwhile, our row is stamped stale and ignored.
            observed = self.cache.version(name) if self.cache is not None else 0
            engine = self._engine(name, digest)
            answer = engine.run(plan if plan is not None else expression)
            if self.cache is not None:
                self._cache_put_guarded(
                    lambda: self.cache.put(
                        name,
                        digest,
                        plan_digest,
                        answer,
                        expression=expression
                        if isinstance(expression, str)
                        else None,
                        version=observed,
                    )
                )
        return answer

    def run_batch(
        self,
        name: str,
        expressions: Sequence[QueryLike],
        *,
        deadline: Optional[Deadline] = None,
    ) -> list[RankedAnswer]:
        """Evaluate a workload over ``name``; answers align with inputs.

        Persistent hits are deserialized; the misses go through
        :meth:`QueryEngine.run_batch` in one bulk pricing pass, then land
        in the persistent cache.  Fraction-identical to serial
        :meth:`query` calls.  ``deadline=`` behaves as in :meth:`query`
        — the batch either completes exactly or raises typed.
        """
        if deadline is not None:
            with active(deadline):
                deadline.check()
                return self._run_batch_unbounded(name, expressions)
        return self._run_batch_unbounded(name, expressions)

    def _run_batch_unbounded(
        self, name: str, expressions: Sequence[QueryLike]
    ) -> list[RankedAnswer]:
        self._fence_check(name)
        resolved: list[tuple[QueryLike, Optional[QueryPlan], str]] = []
        answers: list[Optional[RankedAnswer]] = [None] * len(expressions)
        misses: list[int] = []
        fast_digest = self.store.digest(name) if self.cache is not None else ""
        for index, expression in enumerate(expressions):
            plan, plan_digest = self._plan_and_digest(expression)
            resolved.append((expression, plan, plan_digest))
            if self.cache is not None:
                hit = self.cache.get(name, fast_digest, plan_digest)
                if hit is not None:
                    answers[index] = hit
                    continue
            misses.append(index)
        if misses:
            with self._name_lock(name):
                digest = self.store.digest(name)
                observed = (
                    self.cache.version(name) if self.cache is not None else 0
                )
                engine = self._engine(name, digest)
                computed = engine.run_batch(
                    [
                        resolved[index][1]
                        if resolved[index][1] is not None
                        else resolved[index][0]
                        for index in misses
                    ]
                )
                for index, answer in zip(misses, computed):
                    answers[index] = answer
                    if self.cache is not None:
                        expression = resolved[index][0]
                        plan_digest = resolved[index][2]
                        self._cache_put_guarded(
                            lambda answer=answer,
                            expression=expression,
                            plan_digest=plan_digest: self.cache.put(
                                name,
                                digest,
                                plan_digest,
                                answer,
                                expression=expression
                                if isinstance(expression, str)
                                else None,
                                version=observed,
                            )
                        )
        return answers  # type: ignore[return-value]

    def query_all(
        self,
        expression: QueryLike,
        *,
        names: Optional[Sequence[str]] = None,
        glob: Optional[str] = None,
        strategy: str = "prob",
        weights: Optional[Mapping[str, WeightLike]] = None,
        rrf_k: Union[int, str, Fraction] = DEFAULT_RRF_K,
        deadline: Optional[Deadline] = None,
        allow_partial: bool = False,
    ) -> FusedAnswer:
        """Fan one query across many documents and fuse the per-document
        answers into a single ranked result (ROADMAP item 2: querying
        the dataspace *as a whole*).

        ``deadline=`` bounds the whole fan-out end-to-end: per-document
        workers carry the same budget (their engine checkpoints stop
        stragglers), and when it expires the call either raises the
        typed :class:`DeadlineExceededError` or — with
        ``allow_partial=True`` — returns the fusion of the documents
        that finished, with the unfinished names recorded in the
        answer's ``omitted`` marker (``FusedAnswer.partial`` is then
        true).  Every per-document answer that *is* fused remains exact.

        The membership is the whole store by default, or ``names=``
        (explicit list) / ``glob=`` (shell-style pattern, see
        :meth:`DocumentStore.glob`) — always resolved to the pinned
        sorted order, so fused ranks are reproducible across platforms
        and argument orders.  The plan is compiled **once** and each
        document is priced through the full serving stack —
        per-document persistent rows hit lock-free in parallel on the
        fan-out thread pool; misses price through the shared engines —
        so a warm fan-out touches no engine at all.  Fusion semantics
        (``strategy``, ``weights``, ``rrf_k``) are
        :func:`repro.query.fusion.fuse_answers`.

        >>> service = DataspaceService()
        >>> service.load("a", "<r><x>1</x></r>")
        >>> service.load("b", "<r><x>1</x><x>2</x></r>")
        >>> service.query_all("//x").values()
        ['1', '2']

        Fraction-identical to fusing serial :meth:`query` calls.
        """
        selected = self._select_names(names, glob, what="query_all")
        if deadline is not None:
            deadline.check()
        plan, _ = self._plan_and_digest(expression)
        if plan is None:
            # Persistent plan-memo hit: the digest is known but the
            # fan-out still wants one shared compiled plan object.
            plan = compile_plan(expression)
        pool = self._fanout_pool()
        # Keep the unbounded call shape kwarg-free so test doubles (and
        # subclasses) that shim ``query(name, plan)`` stay compatible.
        futures = [
            (
                name,
                pool.submit(self.query, name, plan)
                if deadline is None
                else pool.submit(self.query, name, plan, deadline=deadline),
            )
            for name in selected
        ]
        if deadline is None:
            answers = self._collect_fanout(futures)
            omitted: tuple = ()
        else:
            answers, omitted = self._collect_fanout_bounded(
                futures, deadline, allow_partial, what="query_all"
            )
            if omitted and weights is not None:
                # The prior renormalizes over the documents that
                # finished; a weight naming an omitted document would
                # otherwise be rejected as unknown to the fusion.
                weights = {
                    name: value
                    for name, value in weights.items()
                    if name in answers
                }
        fused = fuse_answers(
            answers, strategy=strategy, weights=weights, rrf_k=rrf_k
        )
        fused.omitted = omitted
        return fused

    def aggregate_all(
        self,
        kind: Union[str, AggregateSpec],
        target: Optional[str] = None,
        *,
        text: Optional[str] = None,
        names: Optional[Sequence[str]] = None,
        glob: Optional[str] = None,
        weights: Optional[Mapping[str, WeightLike]] = None,
        deadline: Optional[Deadline] = None,
    ) -> AggregateDistribution:
        """Fan one aggregate across many documents and return the exact
        mixture distribution under the per-document prior (see
        :func:`repro.query.fusion.fuse_aggregates`).

        The spec is compiled once; each document goes through
        :meth:`aggregate`'s serving discipline (persistent aggregate
        rows hit lock-free) on the fan-out pool.  ``deadline=`` bounds
        the fan-out; expiry raises the typed error — there is no partial
        mode here, because a mixture silently renormalized over a subset
        of documents would *misrepresent* the distribution rather than
        degrade it visibly.

        >>> service = DataspaceService()
        >>> service.load("a", "<r><p>1</p></r>")
        >>> service.load("b", "<r><p>1</p><p>2</p></r>")
        >>> service.aggregate_all("count", "p")
        {1: Fraction(1, 2), 2: Fraction(1, 2)}
        """
        selected = self._select_names(names, glob, what="aggregate_all")
        if deadline is not None:
            deadline.check()
        if isinstance(kind, AggregateSpec):
            if target is not None or text is not None:
                raise QueryError(
                    "pass either a compiled AggregateSpec or (kind,"
                    " target, text=), not both"
                )
            spec = kind
        else:
            spec = compile_aggregate(kind, target, text=text)
        pool = self._fanout_pool()
        futures = [
            (
                name,
                pool.submit(self.aggregate, name, spec)
                if deadline is None
                else pool.submit(
                    self.aggregate, name, spec, deadline=deadline
                ),
            )
            for name in selected
        ]
        if deadline is None:
            distributions = self._collect_fanout(futures)
        else:
            distributions, _ = self._collect_fanout_bounded(
                futures, deadline, allow_partial=False, what="aggregate_all"
            )
        return fuse_aggregates(distributions, weights=weights)

    def aggregate(
        self,
        name: str,
        kind: Union[str, AggregateSpec],
        target: Optional[str] = None,
        *,
        text: Optional[str] = None,
        deadline: Optional[Deadline] = None,
    ) -> AggregateDistribution:
        """Exact aggregate distribution (``count``/``sum``/``min``/
        ``max``/``exists`` — see :mod:`repro.query.aggregates`) over
        ``name``, with the same serving discipline as :meth:`query`:
        persistent hits deserialize lock-free from the aggregate rows,
        misses convolve under the name's shard lock (through the shared
        engine's document, so the in-memory memo side table is shared
        with queries) and persist the distribution.  ``deadline=``
        behaves as in :meth:`query`.

        >>> service = DataspaceService()
        >>> service.load("a", "<r><p>3</p><p>4</p></r>")
        >>> service.aggregate("a", "sum", "p")
        {7: Fraction(1, 1)}
        """
        if deadline is not None:
            with active(deadline):
                deadline.check()
                return self._aggregate_unbounded(name, kind, target, text=text)
        return self._aggregate_unbounded(name, kind, target, text=text)

    def _aggregate_unbounded(
        self,
        name: str,
        kind: Union[str, AggregateSpec],
        target: Optional[str] = None,
        *,
        text: Optional[str] = None,
    ) -> AggregateDistribution:
        if isinstance(kind, AggregateSpec):
            if target is not None or text is not None:
                # Mirror aggregate_distribution's guard: silently
                # dropping the filter would serve the wrong distribution.
                raise QueryError(
                    "pass either a compiled AggregateSpec or (kind,"
                    " target, text=), not both"
                )
            spec = kind
        else:
            spec = compile_aggregate(kind, target, text=text)
        self._fence_check(name)
        if self.cache is not None:
            # Optimistic lock-free fast path, as in query().
            hit = self.cache.get_aggregate(
                name, self.store.digest(name), spec.digest
            )
            if hit is not None:
                return hit
        with self._name_lock(name):
            digest = self.store.digest(name)
            if self.cache is not None:
                hit = self.cache.get_aggregate(
                    name, digest, spec.digest, record=False
                )
                if hit is not None:
                    return hit
            observed = self.cache.version(name) if self.cache is not None else 0
            engine = self._engine(name, digest)
            distribution = aggregate_distribution(
                engine.document, spec, cache=engine.cache
            )
            if self.cache is not None:
                self._cache_put_guarded(
                    lambda: self.cache.put_aggregate(
                        name,
                        digest,
                        spec.digest,
                        distribution,
                        spec=spec.describe(),
                        version=observed,
                    )
                )
        return distribution

    def stats(self, name: str) -> NodeStats:
        """Uncertainty census of a stored document."""
        return self._module.stats(name)

    # -- integration / feedback ---------------------------------------------

    def integrate(
        self,
        name_a: str,
        name_b: str,
        output: str,
        *,
        rules: Sequence[Rule] = (),
        oracle: Optional[Oracle] = None,
        dtd: Optional[DTD] = None,
        factor_components: bool = True,
        max_possibilities: int = 20_000,
    ) -> IntegrationReport:
        """Integrate two stored sources into a stored probabilistic
        document (see :meth:`ImpreciseModule.integrate`); invalidates any
        answers previously cached under ``output``."""
        with self._name_lock(output):
            report = self._module.integrate(
                name_a,
                name_b,
                output,
                rules=rules,
                oracle=oracle,
                dtd=dtd,
                factor_components=factor_components,
                max_possibilities=max_possibilities,
            )
            self._invalidate(output)
            return report

    def feedback(
        self, name: str, expression: str, value: str, *, correct: bool = True
    ) -> FeedbackStep:
        """Apply one piece of answer feedback, persist the conditioned
        posterior document, and invalidate ``name``'s cached answers."""
        with self._name_lock(name):
            step = self._module.feedback(name, expression, value, correct=correct)
            self._invalidate(name)
            return step

    # -- diagnostics ---------------------------------------------------------

    def cache_stats(self) -> dict:
        """Merged counters: persistent store plus in-memory engine caches."""
        stats: dict = {}
        if self.cache is not None:
            stats.update(self.cache.stats())
        with self._mu:
            engines = list(self._engines.items())
        memory_entries = 0
        memory_hits = 0
        memory_misses = 0
        memory_evictions = 0
        for _, (_, engine) in engines:
            counters = engine.cache_stats()
            memory_entries += counters.get("entries", 0)
            memory_hits += counters.get("hits", 0)
            memory_misses += counters.get("misses", 0)
            memory_evictions += counters.get("evictions", 0)
        stats.update(
            {
                "engines": len(engines),
                "memory_entries": memory_entries,
                "memory_hits": memory_hits,
                "memory_misses": memory_misses,
                "memory_evictions": memory_evictions,
                "cache_write_failures": self.cache_write_failures,
            }
        )
        return stats

    def close(self) -> None:
        """Release the persistent cache connection and the fan-out
        thread pool.  Idempotent — a second :meth:`close` is a no-op;
        a :meth:`query_all`/:meth:`aggregate_all` *after* close raises
        :class:`StoreError` instead of silently resurrecting the pool."""
        with self._mu:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "DataspaceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        persistent = self.cache.path if self.cache is not None else None
        return (
            f"DataspaceService(documents={len(self.store.list())},"
            f" persistent={str(persistent)!r})"
        )
