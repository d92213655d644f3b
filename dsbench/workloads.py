"""The three workloads: corpus, priming, operation stream and self-checks.

Every input is generated here from the seed, with the repository's own
generators (``repro.data``, ``repro.experiments``).  Each workload keeps
the *cost structure* of its inputs fixed and lets the seed choose the
strings, the order and the feedback choices, so runs with different seeds
measure the same amount of work.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.engine import IntegrationConfig, Integrator
from repro.core.oracle import Oracle
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.experiments import (
    QUERY_HORROR,
    QUERY_JOHN,
    figure5_sources,
    run_typical,
    section6_document,
    section6_sources,
    standard_rules,
    typical_sources,
)
from repro.pxml.serialize import pxml_to_text
from repro.xmlkit.serializer import serialize

#: Budget every cold request carries, as a real client would: generous
#: enough never to fire on this corpus.
DEADLINE_MS = 60_000


class PoolExhausted(RuntimeError):
    """The window outran the generated pool of never-priced requests."""


@dataclass
class Op:
    """One request: ``route`` is the DataspaceClient method it calls."""

    route: str
    args: tuple
    kwargs: dict = field(default_factory=dict)

    def run(self, client):
        return getattr(client, self.route)(*self.args, **self.kwargs)

    def key(self) -> tuple:
        args = tuple(tuple(a) if isinstance(a, list) else a for a in self.args)
        return (self.route, args, tuple(sorted(
            (k, v) for k, v in self.kwargs.items() if k != "deadline_ms")))


def _people(rng: random.Random, count: int) -> tuple[list, list]:
    """``count`` distinct person names and phone numbers."""
    firsts = ("Ann", "Bert", "Carla", "Dirk", "Eva", "Femke", "Gijs", "Hanna",
              "Ivo", "Joke", "Kees", "Lotte", "Maarten", "Noor", "Otto", "Pien")
    lasts = ("Bakker", "Jansen", "Visser", "Smit", "Mulder", "Bos", "Vos",
             "Peters", "Hendriks", "Dekker", "Brouwer", "Dijkstra")
    names = rng.sample([f"{f} {l}" for f in firsts for l in lasts], count)
    phones = [str(n) for n in rng.sample(range(1_000_000, 10_000_000), count)]
    return names, phones


def _book_merge(rng: random.Random, shape: tuple) -> tuple:
    """Two address books with the shape's name/phone overlap pattern and
    seeded strings, and their DTD-guided integration."""
    names_a, tels_a, names_b, tels_b = shape
    names, phones = _people(rng, 1 + max(names_a + names_b + tels_a + tels_b))
    book_a, book_b = addressbook_documents(
        [(names[n], phones[t]) for n, t in zip(names_a, tels_a)],
        [(names[n], phones[t]) for n, t in zip(names_b, tels_b)],
    )
    config = IntegrationConfig(oracle=Oracle(standard_rules()), dtd=ADDRESSBOOK_DTD)
    merged = Integrator(config).integrate(book_a, book_b).document
    return book_a, book_b, merged, names, phones


def _renamed(template: tuple, rng: random.Random) -> tuple:
    """A copy of a merged book's text with every person name and phone
    replaced by fresh seeded ones.  The oracle's rules on address books
    compare values for equality only, so the copy is the merge of the
    renamed books: a new document of the same shape, never priced."""
    text, names, phones = template
    new_names, new_phones = _people(rng, len(names))
    mapping = dict(zip(names, new_names)) | dict(zip(phones, new_phones))
    values = "|".join(re.escape(value) for value in sorted(mapping, key=len, reverse=True))
    text = re.sub(f">({values})<", lambda m: f">{mapping[m.group(1)]}<", text)
    return text, new_names, new_phones


class Workload:
    """Base: a corpus written into the store directory before the server
    starts, requests sent while priming, and the window's request stream."""

    name = ""
    max_cached: int | None = None
    #: Whether a repeated request has the same answer (no writes), so the
    #: reference computes each distinct request once.
    answers_repeat = True
    #: Completed operations after which the server's peak RSS is read: a
    #: fixed amount of work, reached by both commits of a comparison well
    #: inside each server's share of the window.
    rss_after = 0
    #: Operations one traced replay sends.
    traced_ops = 0
    #: Operations of the workload's own stream sent while priming, after
    #: :meth:`prime_ops` (for streams whose requests depend on answers).
    primed_stream_ops = 0

    def __init__(self, seed: str, seconds: int):
        self.rng = random.Random(seed)
        self.seconds = seconds
        #: name -> (kind, text) of every document written to the store.
        self.texts: dict[str, tuple[str, str]] = {}
        self._decks: dict = {}

    def _deal(self, key: str, options) -> object:
        """The next of ``options`` from a seeded shuffled deck, refilled
        when empty: every option recurs at the same rate in any long
        enough prefix, so the seed cannot skew the stream's cost."""
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = list(options)
            self.rng.shuffle(deck)
        return deck.pop()

    def _write(self, store: Path, name: str, document, pxml: bool) -> None:
        text = pxml_to_text(document) if pxml else serialize(document)
        self._write_text(store, name, "pxml" if pxml else "xml", text)

    def _write_text(self, store: Path, name: str, kind: str, text: str) -> None:
        (store / f"{name}.{kind}").write_text(text, encoding="utf-8")
        self.texts[name] = (kind, text)

    def build(self, store: Path) -> None:
        raise NotImplementedError

    def prime_ops(self) -> list:
        return []

    def next_op(self) -> Op:
        raise NotImplementedError

    def observe(self, op: Op, result) -> None:
        """See the served result of ``op`` (for streams that depend on it)."""

    def self_check(self, delta: dict, after: dict, records: list) -> list:
        return []


class WarmServe(Workload):
    """Read-only mix over a small, fully priced corpus."""

    name = "warm_serve"
    rss_after = 300
    traced_ops = 1500
    TYPICAL_SIZES = (15, 30, 60, 120)
    BOOKS = 6
    BOOK_SHAPE = ([0, 1, 2], [0, 1, 2], [0, 0, 1], [3, 1, 4])
    MOVIE_PLANS = ("//movie/title", QUERY_HORROR, QUERY_JOHN, "//director", "//actor")
    BOOK_PLANS = ("//person/tel", "//person/nm")
    #: Requests per block of 20, by route; every block holds exactly this
    #: mix in a seeded order, so any prefix of the stream has the same mix.
    MIX = (("query", 9), ("batch", 3), ("aggregate", 4), ("search", 4))

    def build(self, store: Path) -> None:
        sources = {"sec6": section6_sources()}
        self._write(store, "sec6", section6_document().document, True)
        for size in self.TYPICAL_SIZES:
            self._write(store, f"typ{size}", run_typical(size).document, True)
            sources[f"typ{size}"] = typical_sources(size)
        for name, (a, b) in sources.items():
            self._write(store, f"{name}_a", a, False)
            self._write(store, f"{name}_b", b, False)
        self.books = []
        for index in range(self.BOOKS):
            a, b, merged, names, _ = _book_merge(self.rng, self.BOOK_SHAPE)
            name = f"ab{index}"
            self._write(store, name, merged, True)
            self._write(store, f"{name}_a", a, False)
            self._write(store, f"{name}_b", b, False)
            self.books.append((name, names[0]))
        movies = ["sec6"] + [f"typ{size}" for size in self.TYPICAL_SIZES]
        requests: dict = {route: [] for route, _ in self.MIX}
        for doc in movies:
            requests["query"] += [Op("query", (doc, plan)) for plan in self.MOVIE_PLANS]
            requests["batch"].append(
                Op("batch", (doc, ["//movie/title", "//director", "//actor"])))
            requests["aggregate"] += [
                Op("aggregate", (doc, "count", "movie")),
                Op("aggregate", (doc, "count", "genre"), {"text": "Horror"}),
            ]
        for doc, person in self.books:
            requests["query"] += [Op("query", (doc, plan)) for plan in self.BOOK_PLANS]
            requests["query"].append(Op("query", (doc, f'//person[nm="{person}"]/tel')))
            requests["batch"].append(Op("batch", (doc, list(self.BOOK_PLANS))))
            requests["aggregate"] += [
                Op("aggregate", (doc, "count", "person")),
                Op("aggregate", (doc, "exists", "tel")),
            ]
        # Searches are a fifth of the mix and of similar cost, so the 90th
        # percentile is the middle of their cluster, not an edge between
        # two clusters where it would jump.
        for strategy in ("prob", "rrf"):
            requests["search"] += [
                Op("search", ("//movie/title",), {"glob": "typ*", "strategy": strategy}),
                Op("search", ("//actor",), {"glob": "typ*", "strategy": strategy}),
                Op("search", ("//director",), {"strategy": strategy}),
                Op("search", ("//movie/year",), {"strategy": strategy}),
            ]
        self.requests = requests
        self._block: list = []

    def prime_ops(self) -> list:
        return [op for route, _ in self.MIX for op in self.requests[route]]

    def next_op(self) -> Op:
        if not self._block:
            self._block = [self._deal(route, self.requests[route])
                           for route, count in self.MIX for _ in range(count)]
            self.rng.shuffle(self._block)
        return self._block.pop()

    def self_check(self, delta: dict, after: dict, records: list) -> list:
        problems = []
        for key in ("persistent_misses", "persistent_aggregate_misses", "memory_misses"):
            if delta.get(key, 0) != 0:
                problems.append(f"warm window saw {delta[key]} {key} (expected 0)")
        return problems


class ColdPrice(Workload):
    """Every request prices a (document, plan) pair no request priced before."""

    name = "cold_price"
    max_cached = 2
    rss_after = 11
    traced_ops = 22
    #: (names A, phones A, names B, phones B) as indices into seeded
    #: distinct strings.  A name repeated within a book is what makes the
    #: merge uncertain: about 100, 250 and 260 choice points.
    SHAPES = (
        ([0, 1, 2], [0, 1, 2], [0, 0, 1], [3, 1, 4]),
        ([0, 1, 2], [0, 1, 2], [0, 0, 2, 3], [3, 1, 4, 2]),
        ([0, 0, 1], [0, 1, 2], [0, 1, 2, 3], [3, 1, 4, 5]),
        ([0, 1, 2, 3], [3, 1, 4, 5], [0, 0, 1], [0, 1, 2]),
    )
    #: Pool documents written per second of window.  A server serves a
    #: third of the window and, on a 2-core machine, prices about two
    #: documents a second today, so the pool holds about 25 times what
    #: one window uses: room for a pricing kernel 20 times faster.
    POOL_PER_SECOND = 16

    def build(self, store: Path) -> None:
        # Each shape is integrated once; the pool's documents are copies
        # with fresh seeded names and phones (see _renamed), so a large
        # pool costs text rewriting, not a thousand integrations.
        templates = []
        for shape in self.SHAPES:
            _, _, merged, names, phones = _book_merge(self.rng, shape)
            templates.append((pxml_to_text(merged), names, phones))
        self.pool = []
        for index in range(self.POOL_PER_SECOND * self.seconds + 1):
            shape = index % len(self.SHAPES)
            text, names, phones = _renamed(templates[shape], self.rng)
            name = f"book{index:04d}"
            self._write_text(store, name, "pxml", text)
            self.pool.append((name, names, phones, shape == 0))
        # The last document only warms the server (imports, pools, first
        # materialization); the window never touches it.
        self.warmup = self.pool.pop()
        self._queue: list = []
        self._next_document = 0

    def _ops_for(self, document) -> list:
        name, names, phones, smallest = document
        budget = {"deadline_ms": DEADLINE_MS}
        ops = [
            Op("query", (name, "//person/tel"), dict(budget)),
            Op("aggregate", (name, "count", "person"), dict(budget)),
            Op("query", (name, "//person/nm"), dict(budget)),
            Op("batch", (name, [f'//person[nm="{names[0]}"]/tel',
                                f'//person[tel="{phones[1]}"]/nm']), dict(budget)),
        ]
        if smallest:
            # Without this cheap request the mix's median falls inside the
            # cluster of //person/nm queries on the larger books, not on
            # the edge between cheap and costly requests, where it jumped
            # by a quarter between runs.
            del ops[1]
        return ops

    def prime_ops(self) -> list:
        return self._ops_for(self.warmup)

    def next_op(self) -> Op:
        if not self._queue:
            if self._next_document == len(self.pool):
                raise PoolExhausted(
                    f"cold_price used all {len(self.pool)} pool documents;"
                    " raise ColdPrice.POOL_PER_SECOND"
                )
            self._queue = self._ops_for(self.pool[self._next_document])
            self._next_document += 1
        return self._queue.pop(0)

    def self_check(self, delta: dict, after: dict, records: list) -> list:
        problems = []
        hits = delta.get("persistent_hits", 0) + delta.get("persistent_aggregate_hits", 0)
        if hits:
            problems.append(f"cold window served {hits} persistent hits (expected 0)")
        touched = len({record.op.args[0] for record in records})
        if touched <= self.max_cached:
            problems.append(
                f"cold window touched {touched} documents, not more than"
                f" --max-cached {self.max_cached}: nothing was evicted")
        if after.get("engines", 0) > self.max_cached:
            problems.append(f"{after['engines']} engines alive past --max-cached")
        return problems


class FeedbackCycle(Workload):
    """Integrate, query, give feedback, query the posterior, search."""

    name = "feedback_cycle"
    rss_after = 30
    traced_ops = 60
    answers_repeat = False
    RULES = "genre,title,year"
    TYPICAL_SIZES = (12, 24, 60)
    CONFUSING_SIZES = (6, 24)
    FEEDBACK_PLANS = ("//director", "//actor")
    SEARCH_PLANS = ("//movie/title", "//director")
    #: Two full cycles per source pair.
    primed_stream_ops = 2 * 5 * (1 + len(TYPICAL_SIZES) + len(CONFUSING_SIZES))

    def build(self, store: Path) -> None:
        pairs = {"s6": section6_sources()}
        for size in self.TYPICAL_SIZES:
            pairs[f"t{size}"] = typical_sources(size)
        for size in self.CONFUSING_SIZES:
            pairs[f"f{size}"] = figure5_sources(size)
        for name, (a, b) in pairs.items():
            self._write(store, f"fb_{name}_a", a, False)
            self._write(store, f"fb_{name}_b", b, False)
        self.pairs = list(pairs)
        self._queue: list = []
        self._cycle = 0

    def _integrate(self, pair: str) -> Op:
        return Op("integrate", (f"fb_{pair}_a", f"fb_{pair}_b", f"fb_{pair}"),
                  {"rules": self.RULES})

    def prime_ops(self) -> list:
        ops = [self._integrate(pair) for pair in self.pairs]
        ops += [Op("query", (f"fb_{pair}", plan))
                for pair in self.pairs for plan in self.FEEDBACK_PLANS]
        ops += [Op("search", (plan,), {"strategy": strategy})
                for plan in self.SEARCH_PLANS for strategy in ("prob", "rrf")]
        return ops

    def next_op(self) -> Op:
        if not self._queue:
            # Pairs are taken round-robin and every other choice but the
            # answer given feedback on is dealt from a deck, so any prefix
            # of the stream holds the same mix: the seed picks the order.
            pair = self.pairs[self._cycle % len(self.pairs)]
            self._cycle += 1
            plan = self._deal("plan", self.FEEDBACK_PLANS)
            self._queue = [self._integrate(pair), Op("query", (f"fb_{pair}", plan))]
        return self._queue.pop(0)

    def observe(self, op: Op, result) -> None:
        # The cycle's first query has just been answered: the rest of the
        # cycle gives feedback on one of the values it returned.
        if op.route != "query" or self._queue:
            return
        name, plan = op.args
        search_plan, strategy = self._deal("search", [
            (p, s) for p in self.SEARCH_PLANS for s in ("prob", "rrf")])
        search = Op("search", (search_plan,), {"strategy": strategy})
        if isinstance(result, Exception) or not len(result):
            self._queue = [search]
            return
        item = self.rng.choice(result.items)
        # Rejecting a certain answer conditions on probability zero.
        correct = item.probability == 1 or self._deal("correct", (True, False))
        self._queue = [
            Op("feedback", (name, plan, item.value), {"correct": correct}),
            Op("query", (name, plan)),
            search,
        ]

    def self_check(self, delta: dict, after: dict, records: list) -> list:
        cycles = sum(1 for record in records if record.op.route == "integrate")
        invalidations = delta.get("persistent_invalidations", 0)
        if invalidations < cycles:
            return [f"{cycles} cycles but only {invalidations} persistent invalidations"]
        return []


WORKLOADS = {cls.name: cls for cls in (WarmServe, ColdPrice, FeedbackCycle)}
