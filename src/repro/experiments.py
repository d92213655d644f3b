"""Canonical experiment setups for the paper's tables and figures.

Everything a benchmark, example or test needs to reproduce a §V/§VI
experiment lives here, so all of them run the *same* calibrated workload:

* :func:`standard_rules` — the oracle rule stack: deep-equal (generic),
  the requested domain rules (genre/title/year), person-name matching for
  director/actor leaves, and the leaf-value fallback;
* :func:`table1_sources` / :func:`table1_config` — the sequels-six
  workload behind Table I (joint representation, like the original);
* :func:`figure5_sources` — 6 MPEG-7 movies vs N confusing IMDB entries;
* :func:`typical_sources` — 6 vs 60 under typical conditions (§V);
* :func:`section6_document` — the confusing integration §VI queries run
  against, plus the paper's two queries as constants.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core.domain import movie_rules
from .core.engine import IntegrationConfig, IntegrationResult, Integrator
from .core.oracle import ConstantPrior, Oracle
from .core.rules import (
    DeepEqualRule,
    LeafValueRule,
    PersonNameReconciler,
    PersonNameRule,
    Rule,
)
from .data.imdb import MOVIE_DTD, imdb_document
from .data.movies import (
    confusing_imdb_records,
    confusing_mpeg7_six,
    sequels_six_imdb,
    typical_imdb_records,
    typical_mpeg7_six,
)
from .data.mpeg7 import mpeg7_document
from .probability import HALF, ProbLike
from .xmlkit.nodes import XDocument

#: Table I's rule-set rows, in the paper's order.
TABLE1_ROWS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("none", ()),
    ("Genre rule", ("genre",)),
    ("Movie title rule", ("title",)),
    ("Genre and movie title rule", ("genre", "title")),
    ("Genre, movie title and year rule", ("genre", "title", "year")),
)

#: Table I's paper-reported node counts (×1000), same order as TABLE1_ROWS.
TABLE1_PAPER_NODES_X1000: tuple[int, ...] = (13958, 6015, 243, 154, 29)

#: Figure 5's two series.
FIGURE5_SERIES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Only movie title rule", ("title",)),
    ("Movie title+year rule", ("title", "year")),
)

#: §VI's example queries, verbatim from the paper.
QUERY_HORROR = '//movie[.//genre="Horror"]/title'
QUERY_JOHN = '//movie[some $d in .//director satisfies contains($d,"John")]/title'


def standard_rules(*domain_names: str, title_threshold: float = 0.65) -> list[Rule]:
    """The full oracle stack for the movie experiments.

    Order matters: certain positive evidence first (deep equality), then
    the domain pruning rules, then the leaf-matching rules that keep
    sub-element merging sane.
    """
    rules: list[Rule] = [DeepEqualRule()]
    rules.extend(movie_rules(*domain_names, title_threshold=title_threshold))
    rules.append(PersonNameRule(("director", "actor")))
    rules.append(LeafValueRule())
    return rules


def movie_oracle(
    *domain_names: str,
    prior: ProbLike = HALF,
    title_threshold: float = 0.65,
) -> Oracle:
    """Oracle with the standard stack and a constant uncertain prior."""
    return Oracle(
        standard_rules(*domain_names, title_threshold=title_threshold),
        prior=ConstantPrior(prior),
    )


def movie_config(
    *domain_names: str,
    factor_components: bool = True,
    max_possibilities: int = 20_000,
    prior: ProbLike = HALF,
) -> IntegrationConfig:
    """Integration config for the movie workloads."""
    return IntegrationConfig(
        oracle=movie_oracle(*domain_names, prior=prior),
        dtd=MOVIE_DTD,
        factor_components=factor_components,
        max_possibilities=max_possibilities,
        # Name-convention differences are renderings, not possible worlds.
        reconcilers=(PersonNameReconciler(("director", "actor")),),
    )


# -- Table I -------------------------------------------------------------------

def table1_sources() -> tuple[XDocument, XDocument]:
    """Sequels-six vs sequels-six: 2 Jaws + 2 Die Hard + 2 M:I per source,
    one shared real-world object per franchise."""
    return mpeg7_document(confusing_mpeg7_six()), imdb_document(sequels_six_imdb())


def table1_config(
    rule_names: Sequence[str], *, factor_components: bool = False
) -> IntegrationConfig:
    """Joint (unfactored) representation by default — the paper's node
    counts match joint enumeration (see "Joint representation for
    Table I" in docs/architecture.md)."""
    return movie_config(
        *rule_names,
        factor_components=factor_components,
        max_possibilities=50_000,
    )


def run_table1_row(
    rule_names: Sequence[str], *, factor_components: bool = False
) -> IntegrationResult:
    """Materialise one Table I row and return the integration result."""
    source_a, source_b = table1_sources()
    config = table1_config(rule_names, factor_components=factor_components)
    return Integrator(config).integrate(source_a, source_b)


# -- Figure 5 ---------------------------------------------------------------------

def figure5_sources(imdb_count: int) -> tuple[XDocument, XDocument]:
    """6 confusing MPEG-7 movies vs ``imdb_count`` confusing IMDB entries."""
    return (
        mpeg7_document(confusing_mpeg7_six()),
        imdb_document(confusing_imdb_records(imdb_count)),
    )


# -- §V typical conditions ------------------------------------------------------------

def typical_sources(imdb_count: int = 60) -> tuple[XDocument, XDocument]:
    """6 MPEG-7 movies produced in 1995 vs ``imdb_count`` IMDB movies,
    two shared real-world objects."""
    return (
        mpeg7_document(typical_mpeg7_six()),
        imdb_document(typical_imdb_records(imdb_count)),
    )


def run_typical(imdb_count: int = 60) -> IntegrationResult:
    """The §V typical-conditions integration: full rule set, factored
    representation (the compact result the paper calls ~3500 nodes)."""
    source_a, source_b = typical_sources(imdb_count)
    config = movie_config("genre", "title", "year", factor_components=True)
    return Integrator(config).integrate(source_a, source_b)


# -- §VI querying -----------------------------------------------------------------------

def section6_sources() -> tuple[XDocument, XDocument]:
    """The confusing sources behind the §VI query demonstration.

    Hand-picked so the paper's two example queries have the same answer
    *structure*: Jaws and Jaws 2 are the only Horror movies (both sides,
    mutually confusable → both ranked just below 100 %); Die Hard: With a
    Vengeance (John McTiernan) exists only in IMDB and is confusable with
    nothing → 100 %; Mission: Impossible II (John Woo) may merge with
    IMDB's Mission: Impossible ("the 'II' may be a typing mistake") → the
    II answer ranks high, the bare title appears as a low-probability
    incorrect answer.  The 1966 TV series (genre Crime) is dead weight the
    genre rule must eliminate.
    """
    from .data.movies import (
        DIE_HARD_FILMS,
        JAWS_FILMS,
        MISSION_IMPOSSIBLE_ENTRIES,
    )

    mpeg7_records = [
        JAWS_FILMS[0], JAWS_FILMS[1],
        DIE_HARD_FILMS[1],
        MISSION_IMPOSSIBLE_ENTRIES[1],      # Mission: Impossible II (John Woo)
    ]
    imdb_records = [
        JAWS_FILMS[0], JAWS_FILMS[1],
        DIE_HARD_FILMS[1],
        DIE_HARD_FILMS[2],                  # With a Vengeance (John McTiernan)
        MISSION_IMPOSSIBLE_ENTRIES[0],      # Mission: Impossible (Brian De Palma)
        MISSION_IMPOSSIBLE_ENTRIES[2],      # the 1966 TV series (Crime)
    ]
    return mpeg7_document(mpeg7_records), imdb_document(imdb_records)


#: Uncertain-pair prior for the §VI document: slightly sceptical of
#: matches, like a typo is *possible* but not the default reading.
SECTION6_PRIOR = "2/5"


def section6_document(prior: ProbLike = SECTION6_PRIOR) -> IntegrationResult:
    """Integrate the §VI workload (title+genre rules; no year rule — the
    'II may be a typing mistake' uncertainty must survive)."""
    source_a, source_b = section6_sources()
    config = movie_config("genre", "title", factor_components=True, prior=prior)
    return Integrator(config).integrate(source_a, source_b)
