"""Tests for top-down component-factored event compilation
(:mod:`repro.pxml.events_compile`), event-cache invalidation, and the
event-cache eviction bugfix sweep.

Four layers:

* **structure** — compiled plan shapes (factoring, atoms) and the
  variable-disjointness invariant of every product/coproduct,
  including over engine-built answer events;
* **differential** — a seeded corpus sweep (raw, simplified,
  feedback-conditioned documents) pinning compiled pricing
  Fraction-identical to the bottom-up kernel, the preserved PR-3
  expansion oracle, and per-world query enumeration;
* **invalidation** — in-place mutation followed by
  :func:`~repro.pxml.events_cache.invalidate` serves no stale Fraction
  to the mutated document or to any other;
* **eviction bugfixes** — LRU (not FIFO) recency on hit, and the
  queried row surviving its own enforcement pass down to
  ``max_entries=1``.
"""

import random
from fractions import Fraction

import pytest

from repro.feedback.conditioning import condition_on_event
from repro.probability import ONE, ZERO
from repro.pxml.events import (
    FALSE_EVENT,
    TRUE_EVENT,
    all_of,
    any_of,
    event_probability,
    lit,
    negate,
    product_of,
    weighted_sum,
)
from repro.pxml.events_cache import EventProbabilityCache, cache_for, invalidate
from repro.pxml.events_compile import (
    C_ATOM,
    C_COPROD,
    C_FALSE,
    C_LIT,
    C_NOT,
    C_PROD,
    C_TRUE,
    compile_event,
    compiled_probability,
    iter_compiled,
)
from repro.pxml.events_reference import expansion_probability
from repro.pxml.model import PXDocument, PXElement, Possibility, ProbNode
from repro.pxml.simplify import simplify
from repro.pxml.worlds import world_count
from repro.query.engine import ProbQueryEngine, QueryEngine, query_enumeration
from repro.errors import FeedbackError, QueryError

from tests.test_event_kernel import QUERY, binary, brute_force, random_document


def _fresh_cache(max_entries=None):
    """A cache registered for no document, so hit and miss counters are
    deterministic per test."""
    return EventProbabilityCache(max_entries=max_entries)


def assert_components_disjoint(compiled):
    """The compiled invariant: every product/coproduct's parts mention
    pairwise-disjoint variable sets."""
    for node in iter_compiled(compiled):
        if node.kind in (C_PROD, C_COPROD):
            assert len(node.parts) >= 2
            seen = set()
            for part in node.parts:
                overlap = seen & part.source.vars
                assert not overlap, f"components share variables {overlap}"
                seen |= part.source.vars


# -- structure -------------------------------------------------------------------


class TestCompileStructure:
    def test_constants(self):
        assert compile_event(TRUE_EVENT).kind == C_TRUE
        assert compile_event(FALSE_EVENT).kind == C_FALSE
        assert compiled_probability(compile_event(TRUE_EVENT)) == ONE
        assert compiled_probability(compile_event(FALSE_EVENT)) == ZERO

    def test_literal_compiles_to_lit_leaf(self):
        node = binary("1/3")
        compiled = compile_event(lit(node, 0))
        assert compiled.kind == C_LIT
        assert compiled.parts == ()
        assert compiled_probability(compiled) == Fraction(1, 3)

    def test_disjoint_or_factors_to_coproduct(self):
        pairs = [(binary(), binary()) for _ in range(4)]
        event = any_of(
            [all_of([lit(a, 0), lit(b, 0)]) for a, b in pairs]
        )
        compiled = compile_event(event)
        assert compiled.kind == C_COPROD
        assert len(compiled.parts) == 4
        assert_components_disjoint(compiled)

    def test_disjoint_and_factors_to_product(self):
        nodes = [binary() for _ in range(5)]
        event = all_of([lit(node, 0) for node in nodes])
        compiled = compile_event(event)
        assert compiled.kind == C_PROD
        assert len(compiled.parts) == 5
        assert all(part.kind == C_LIT for part in compiled.parts)

    def test_entangled_event_is_an_atom(self):
        a, b = binary(), binary()
        event = any_of(
            [all_of([lit(a, 0), lit(b, 0)]), all_of([lit(a, 1), lit(b, 1)])]
        )
        compiled = compile_event(event)
        assert compiled.kind == C_ATOM
        assert compiled.parts == ()

    def test_negation_compiles_through(self):
        a, b = binary(), binary()
        event = negate(any_of([lit(a, 0), lit(b, 0)]))
        compiled = compile_event(event)
        assert compiled.kind == C_NOT
        assert compiled.parts[0].kind == C_COPROD

    def test_factoring_recurses_through_components(self):
        """A component that is itself an OR keeps factoring below the
        top split — compilation is top-down all the way."""
        a, b, c = binary(), binary(), binary()
        inner = any_of([lit(b, 0), lit(c, 0)])  # disjoint -> coproduct
        event = all_of([lit(a, 0), inner])
        compiled = compile_event(event)
        assert compiled.kind == C_PROD
        kinds = sorted(part.kind for part in compiled.parts)
        assert kinds == sorted((C_LIT, C_COPROD))
        assert_components_disjoint(compiled)

    def test_iter_compiled_visits_each_node_once(self):
        a, b, c, d = binary(), binary(), binary(), binary()
        event = any_of(
            [all_of([lit(a, 0), lit(b, 0)]), all_of([lit(c, 0), lit(d, 0)])]
        )
        nodes = list(iter_compiled(compile_event(event)))
        assert len(nodes) == len({id(node) for node in nodes})
        assert sum(node.kind == C_LIT for node in nodes) == 4

    @pytest.mark.parametrize("seed", range(12))
    def test_engine_answer_events_compile_disjoint(self, seed):
        """The invariant over *engine-built* events: every compiled
        answer event's products/coproducts are variable-disjoint."""
        document = random_document(seed)
        engine = ProbQueryEngine(document, use_cache=False)
        try:
            events = engine.answer_events(QUERY)
        except QueryError:
            pytest.skip("document exceeds the value-realisation cap")
        if not events:
            pytest.skip("no answer values for this seed")
        for value, (event, count) in events.items():
            assert count >= 1
            assert_components_disjoint(compile_event(event))


# -- differential sweep ----------------------------------------------------------


def _assert_compiled_matches_everything(document, *, enumerate_worlds=True):
    """Every answer event of QUERY prices identically compiled (fresh
    and over one memo shared across the answers), bottom-up, and under
    the PR-3 oracle; the cached engine's ranked answer equals per-world
    enumeration."""
    reference = ProbQueryEngine(document, use_cache=False)
    try:
        events = reference.answer_events(QUERY)
    except QueryError:
        pytest.skip("document exceeds the value-realisation cap")
    memo = {}
    for value, (event, _) in events.items():
        compiled = compile_event(event)
        assert_components_disjoint(compiled)
        bottom_up = event_probability(event)
        assert compiled_probability(compiled) == bottom_up, value
        assert compiled_probability(compiled, memo=memo) == bottom_up, value
        assert expansion_probability(event) == bottom_up, value
    cached = QueryEngine(document, cache=_fresh_cache())
    ranked = {i.value: i.probability for i in cached.query(QUERY)}
    uncached = {i.value: i.probability for i in reference.query(QUERY)}
    assert ranked == uncached
    if enumerate_worlds:
        enumerated = {
            i.value: i.probability
            for i in query_enumeration(document, QUERY, limit=None)
        }
        assert ranked == enumerated


class TestCompiledDifferential:
    @pytest.mark.parametrize("seed", range(25))
    def test_raw_corpus(self, seed):
        document = random_document(seed)
        small = world_count(document) <= 3000
        _assert_compiled_matches_everything(
            document, enumerate_worlds=small
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_simplified_corpus(self, seed):
        document, _report = simplify(random_document(seed))
        small = world_count(document) <= 3000
        _assert_compiled_matches_everything(
            document, enumerate_worlds=small
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_feedback_conditioned_corpus(self, seed):
        document = random_document(seed)
        if world_count(document) > 3000:
            pytest.skip("world space too large for the enumeration oracle")
        engine = ProbQueryEngine(document, use_cache=False)
        try:
            events = engine.answer_events(QUERY)
        except QueryError:
            pytest.skip("document exceeds the value-realisation cap")
        if not events:
            pytest.skip("no answer values for this seed")
        value = sorted(events)[0]
        event = events[value][0]
        try:
            posterior = condition_on_event(document, event, observed=True)
        except FeedbackError:
            pytest.skip("observation has probability 0 or 1")
        _assert_compiled_matches_everything(posterior)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_boolean_events_with_shared_memo(self, seed):
        """Adversarial boolean shapes (negations, overlaps): compiled
        pricing over one shared memo equals brute force."""
        rng = random.Random(7000 + seed)
        nodes = [
            binary(rng.choice(("1/4", "1/2", "2/3", "1/5")))
            for _ in range(rng.randint(2, 6))
        ]
        memo = {}
        for _ in range(6):
            terms = []
            for _ in range(rng.randint(1, 4)):
                literals = [
                    lit(node, rng.randint(0, 1))
                    for node in rng.sample(nodes, rng.randint(1, len(nodes)))
                ]
                if rng.random() < 0.4:
                    literals[0] = negate(literals[0])
                term = all_of(literals)
                if rng.random() < 0.3:
                    term = negate(term)
                terms.append(term)
            event = any_of(terms) if rng.random() < 0.7 else all_of(terms)
            if event is TRUE_EVENT or event is FALSE_EVENT:
                continue
            compiled = compile_event(event)
            assert_components_disjoint(compiled)
            expected = brute_force(event, nodes)
            assert compiled_probability(compiled, memo=memo) == expected
            assert event_probability(event) == expected

    def test_memo_interchangeable_with_kernel(self):
        """Compiled pricing writes the same digest-keyed rows the kernel
        reads: a memo filled by one path answers the other."""
        a, b, c = binary("1/3"), binary("1/4"), binary("2/5")
        event = any_of([all_of([lit(a, 0), lit(b, 0)]), lit(c, 1)])
        compiled_memo = {}
        compiled_probability(compile_event(event), memo=compiled_memo)
        kernel_memo = {}
        event_probability(event, _memo=kernel_memo)
        assert compiled_memo[event.digest] == kernel_memo[event.digest]
        # The kernel served straight from the compiled memo: no rewrite.
        before = dict(compiled_memo)
        assert event_probability(event, _memo=compiled_memo) == before[event.digest]
        assert compiled_memo == before


# -- batched exact arithmetic ----------------------------------------------------


class TestBatchedArithmetic:
    @pytest.mark.parametrize("seed", range(10))
    def test_product_of_equals_sequential_fold(self, seed):
        rng = random.Random(seed)
        factors = [
            Fraction(rng.randint(1, 60), rng.randint(1, 60))
            for _ in range(rng.randint(2, 25))
        ]
        expected = ONE
        for factor in factors:
            expected *= factor
        assert product_of(factors) == expected

    def test_product_of_edges(self):
        assert product_of([]) == ONE
        assert product_of([Fraction(3, 7)]) == Fraction(3, 7)

    @pytest.mark.parametrize("seed", range(10))
    def test_weighted_sum_equals_sequential_sum(self, seed):
        rng = random.Random(100 + seed)
        count = rng.randint(1, 20)
        den = rng.randint(2, 9)
        weights = [Fraction(rng.randint(1, den), den) for _ in range(count)]
        values = [
            Fraction(rng.randint(0, 50), rng.randint(1, 50))
            for _ in range(count)
        ]
        expected = sum(
            (w * v for w, v in zip(weights, values)), ZERO
        )
        assert weighted_sum(weights, values) == expected

    def test_weighted_sum_empty(self):
        assert weighted_sum([], []) == ZERO


# -- invalidation ----------------------------------------------------------------


def _two_choice_document(probs):
    """A document with one uncertain <x> value; ``probs`` are the two
    possibility probabilities (must sum to 1)."""
    element = PXElement("r")
    node = element.append(
        ProbNode([Possibility(probs[0]), Possibility(probs[1])])
    )
    return PXDocument(ProbNode([Possibility(1, [element])])), node


class TestInvalidation:
    def test_mutate_then_requery_serves_no_stale_fraction(self):
        """In-place mutation + invalidate(): the mutated document
        reprices fresh, and a sibling document keeps its own cache and
        prices its own probabilities — no stale Fraction is served to
        either."""
        doc_a, node_a = _two_choice_document((Fraction(1, 2), Fraction(1, 2)))
        doc_b, node_b = _two_choice_document((Fraction(1, 3), Fraction(2, 3)))
        cache_a = cache_for(doc_a)
        cache_b = cache_for(doc_b)
        assert cache_a.probability(lit(node_a, 0)) == Fraction(1, 2)
        assert cache_b.probability(lit(node_b, 0)) == Fraction(1, 3)
        # Mutate A's probabilities in place, then invalidate.
        node_a.possibilities[0].prob = Fraction(1, 5)
        node_a.possibilities[1].prob = Fraction(4, 5)
        invalidate(doc_a)
        assert len(cache_a) == 0  # engines still holding it recompute
        cache_a = cache_for(doc_a)  # invalidation unregisters the cache
        assert cache_a.probability(lit(node_a, 0)) == Fraction(1, 5)
        assert cache_for(doc_b) is cache_b
        assert cache_b.probability(lit(node_b, 0)) == Fraction(1, 3)
        assert cache_b.probability(lit(node_b, 1)) == Fraction(2, 3)

    def test_invalidate_without_a_cache_returns_cleanly(self):
        """invalidate() on a document that never registered a cache is a
        no-op, and the document then prices from a fresh cache."""
        doc, node = _two_choice_document((Fraction(1, 2), Fraction(1, 2)))
        node.possibilities[0].prob = Fraction(1, 4)
        node.possibilities[1].prob = Fraction(3, 4)
        assert invalidate(doc) is None
        cache = cache_for(doc)
        assert len(cache) == 0
        assert cache.probability(lit(node, 0)) == Fraction(1, 4)


# -- eviction bugfixes -----------------------------------------------------------


class TestEvictionBugfixes:
    def _hot_events(self, count):
        nodes = [binary() for _ in range(count + 1)]
        return [
            any_of(
                [
                    all_of([lit(nodes[i], 0), lit(nodes[i + 1], 0)]),
                    lit(nodes[i], 1),
                ]
            )
            for i in range(count)
        ]

    def test_warm_hit_rate_survives_working_set_bound(self):
        """The LRU regression: with a bound equal to the working set,
        hot rows refreshed on every hit survive arbitrary churn from
        one-shot events.  Under the old FIFO eviction the hottest rows
        were evicted *first* and every round re-missed."""
        hot = self._hot_events(6)
        sizing = _fresh_cache(max_entries=None)
        for event in hot:
            sizing.probability(event)
        working_set = len(sizing)
        cache = _fresh_cache(max_entries=working_set)
        for event in hot:
            cache.probability(event)
        warm_misses = cache.misses
        # Churn: more one-shot literals than the whole bound, so FIFO
        # would have rolled every warm row (roots included) out of the
        # table.  Each round re-touches the hot roots, refreshing them.
        for _ in range(2 * working_set):
            cache.probability(lit(binary(), 0))
            for event in hot:
                cache.probability(event)
        assert cache.misses > warm_misses  # the churn itself missed
        churn_misses = cache.misses - warm_misses
        assert churn_misses == 2 * working_set  # ...but only the churn
        assert len(cache) <= working_set
        assert cache.evictions > 0

    def test_hit_refreshes_recency(self):
        """Directly pin move-to-end: after a hit, a subsequent eviction
        takes a *different* row."""
        cache = _fresh_cache(max_entries=2)
        a, b = lit(binary(), 0), lit(binary(), 0)
        cache.probability(a)  # oldest
        cache.probability(b)
        cache.probability(a)  # hit: refreshed to the young end
        cache.probability(lit(binary(), 0))  # evicts b, not a
        misses = cache.misses
        cache.probability(a)
        assert cache.misses == misses  # a survived
        assert cache.hits >= 2

    def test_queried_row_survives_enforcement_at_max_entries_one(self):
        """A single event whose sub-memo exceeds the bound must still
        leave *its own* row resident — the caller's next query hits."""
        a, b, c = binary(), binary(), binary()
        event = any_of(
            [
                all_of([lit(a, 0), lit(b, 0)]),
                all_of([lit(b, 1), lit(c, 0)]),
            ]
        )
        cache = _fresh_cache(max_entries=1)
        first = cache.probability(event)
        assert len(cache) == 1
        assert cache.evictions > 0  # the bound really was exceeded
        assert cache.misses == 1
        assert cache.probability(event) == first
        assert cache.hits == 1
        assert cache.misses == 1

    def test_bounded_cache_still_exact(self):
        events = self._hot_events(10)
        bounded = _fresh_cache(max_entries=1)
        reference = [event_probability(event) for event in events]
        assert [bounded.probability(e) for e in events] == reference
        assert [bounded.probability(e) for e in events] == reference
