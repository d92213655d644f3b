"""Top-down component-factored compilation of event-pricing plans.

:func:`repro.pxml.events.event_probability` is bottom-up: every
AND/OR it visits is re-partitioned into connected components *at
evaluation time*, on every Shannon expansion step.  The partition is
pure structure — it depends only on which variables the operands
mention, something the query engine already knew when it built the
event.  This module hoists that discovery out of the evaluation loop:

* :func:`compile_event` walks an event **once** (worklist, no
  recursion) and emits a :class:`CompiledEvent` — a pricing plan whose
  shape *is* the independence structure.  Products/coproducts hold one
  part per connected component (axis steps over disjoint subtrees never
  enter the same Shannon expansion); a single-component residual
  becomes an **atom**, priced by the kernel (so Shannon expansion still
  happens exactly where it is unavoidable, and only there).
* :func:`compiled_probability` evaluates a plan, writing every
  non-constant node's probability into the same digest-keyed memo the
  kernel uses — the two paths share one table and are interchangeable
  entry by entry.  A literal is priced by reading its possibility's
  probability off the choice node, and products/coproducts combine with
  :func:`~repro.pxml.events.product_of`, exactly as the kernel does.
  Results are Fraction-identical to
  :func:`~repro.pxml.events.event_probability` and to the
  :mod:`repro.pxml.events_reference` oracle (differential-tested).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional

from ..probability import ONE, ZERO
from .events import (
    And,
    Event,
    FALSE_EVENT,
    Lit,
    Not,
    TRUE_EVENT,
    all_of,
    any_of,
    event_probability,
    independent_components,
    product_of,
)

__all__ = [
    "C_ATOM",
    "C_COPROD",
    "C_FALSE",
    "C_LIT",
    "C_NOT",
    "C_PROD",
    "C_TRUE",
    "CompiledEvent",
    "compile_event",
    "compiled_probability",
    "iter_compiled",
]

#: Compiled plan kinds.  ``C_ATOM`` is a single-connected-component
#: residual: every variable inside transitively shares an operand with
#: every other, so no factoring applies and the kernel's Shannon
#: machinery (with its exact complement/independence decompositions on
#: the *conditioned* sub-events) is the right evaluator.
C_TRUE, C_FALSE, C_LIT, C_NOT, C_PROD, C_COPROD, C_ATOM = range(7)

_KIND_NAMES = ("TRUE", "FALSE", "LIT", "NOT", "PROD", "COPROD", "ATOM")


class CompiledEvent:
    """One node of a component-factored pricing plan.

    ``source`` is the event this node prices (its ``digest`` is the memo
    key — the *same* key the bottom-up kernel would use, so compiled and
    uncompiled pricing share one table).  ``parts`` are the sub-plans:
    one per independent component for ``C_PROD``/``C_COPROD`` (their
    sources mention pairwise-disjoint variable sets — the invariant the
    test suite pins), the single negated plan for ``C_NOT``, empty for
    leaves.
    """

    __slots__ = ("kind", "source", "parts")

    kind: int
    source: Event
    parts: tuple["CompiledEvent", ...]

    def __init__(
        self, kind: int, source: Event, parts: tuple["CompiledEvent", ...]
    ) -> None:
        self.kind = kind
        self.source = source
        self.parts = parts

    def __repr__(self) -> str:
        return (
            f"CompiledEvent({_KIND_NAMES[self.kind]},"
            f" vars={len(self.source.vars)}, parts={len(self.parts)})"
        )


_COMPILED_TRUE = CompiledEvent(C_TRUE, TRUE_EVENT, ())
_COMPILED_FALSE = CompiledEvent(C_FALSE, FALSE_EVENT, ())


def compile_event(event: Event) -> CompiledEvent:
    """Compile ``event`` into a component-factored pricing plan.

    Worklist-driven post-order (no recursion).  At every AND/OR the
    operands are partitioned by
    :func:`~repro.pxml.events.independent_components` **once**:

    * several components → a product (AND) / coproduct (OR) whose parts
      are the compiled per-component conjunctions/disjunctions —
      compilation continues *through* each component, so nested
      alternation keeps factoring;
    * a single component → an atom: the event is genuinely entangled
      and is left to the kernel's Shannon expansion.

    Shared substructure compiles once per call.
    """
    if event is TRUE_EVENT:
        return _COMPILED_TRUE
    if event is FALSE_EVENT:
        return _COMPILED_FALSE
    done: dict[bytes, CompiledEvent] = {}
    stack: list[tuple[Event, Optional[tuple[Event, ...]]]] = [(event, None)]
    while stack:
        current, children = stack.pop()
        digest = current.digest
        if digest in done:
            continue
        if children is None:
            if isinstance(current, Lit):
                done[digest] = CompiledEvent(C_LIT, current, ())
                continue
            if isinstance(current, Not):
                children = (current.operand,)
            else:
                components = independent_components(current.operands)
                if len(components) == 1:
                    done[digest] = CompiledEvent(C_ATOM, current, ())
                    continue
                rebuild = all_of if isinstance(current, And) else any_of
                children = tuple(rebuild(group) for group in components)
            stack.append((current, children))
            for child in children:
                if child.digest not in done:
                    stack.append((child, None))
        else:
            if isinstance(current, Not):
                kind = C_NOT
            elif isinstance(current, And):
                kind = C_PROD
            else:
                kind = C_COPROD
            done[digest] = CompiledEvent(
                kind,
                current,
                tuple(done[child.digest] for child in children),
            )
    return done[event.digest]


def iter_compiled(compiled: CompiledEvent) -> Iterator[CompiledEvent]:
    """Every node of a compiled plan, each distinct node once
    (pre-order worklist; shared sub-plans are not repeated)."""
    seen: set[int] = set()
    stack: list[CompiledEvent] = [compiled]
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        yield current
        stack.extend(current.parts)


def compiled_probability(
    compiled: CompiledEvent,
    *,
    memo: Optional[dict[bytes, Fraction]] = None,
) -> Fraction:
    """Exact probability of a compiled plan's source event.

    Worklist-driven post-order.  ``memo`` is the digest-keyed table
    shared with :func:`~repro.pxml.events.event_probability` — every
    plan node's probability lands under its source digest, and atoms
    delegate to the kernel *with the same table*, so compiled and
    bottom-up pricing interleave freely over one memo.

    Fraction-identical to pricing ``compiled.source`` bottom-up.
    """
    if compiled.kind == C_TRUE:
        return ONE
    if compiled.kind == C_FALSE:
        return ZERO
    if memo is None:
        memo = {}
    cached = memo.get(compiled.source.digest)
    if cached is not None:
        return cached
    stack: list[tuple[CompiledEvent, bool]] = [(compiled, False)]
    while stack:
        current, ready = stack.pop()
        digest = current.source.digest
        if digest in memo:
            continue
        kind = current.kind
        if not ready:
            if kind == C_LIT:
                source = current.source
                assert isinstance(source, Lit)
                memo[digest] = source.node.possibilities[source.index].prob
                continue
            if kind == C_ATOM:
                # Single connected component: the kernel's Shannon
                # expansion, sharing this memo (and so this call's
                # frontier) entry for entry.
                memo[digest] = event_probability(current.source, _memo=memo)
                continue
            stack.append((current, True))
            for part in current.parts:
                if part.source.digest not in memo:
                    stack.append((part, False))
        elif kind == C_NOT:
            memo[digest] = ONE - memo[current.parts[0].source.digest]
        elif kind == C_PROD:
            factors = [memo[part.source.digest] for part in current.parts]
            memo[digest] = product_of(factors)
        else:  # C_COPROD
            complements = [
                ONE - memo[part.source.digest] for part in current.parts
            ]
            memo[digest] = ONE - product_of(complements)
    return memo[compiled.source.digest]

