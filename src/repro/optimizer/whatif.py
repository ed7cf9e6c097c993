"""The what-if optimizer: ``Cost(q, C)`` with caching and call counting.

This is the simulated counterpart of the "What-if" analysis API [8] the
paper builds on: given a query and a *hypothetical* configuration, it
returns the optimizer-estimated execution cost, without the structures
ever existing.  The paper's comparison primitive treats each invocation
as the expensive unit of work to minimize; :attr:`WhatIfOptimizer.calls`
counts them so experiments can report optimizer-call savings.

Plan search for a SELECT:

1. choose the best access path per base table;
2. greedily order the joins (:mod:`repro.optimizer.joins`);
3. repeat with each matching materialized view replacing its covered
   tables (:mod:`repro.optimizer.views`); keep the cheapest;
4. add aggregation / ordering costs on the final cardinality.

DML statements split into a SELECT part plus maintenance costs
(:mod:`repro.optimizer.update_cost`).

The simulation always answers; a *real* what-if interface times out,
drops connections, and occasionally refuses a plan.  The selection
machinery therefore never assumes this reliability: callers that need
it wrap their cost source in
:class:`repro.faults.ResilientCostSource` (retry/backoff/timeout
policy, partial-batch salvage) — see ``docs/resilience.md`` for the
fault model and the degradation ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..catalog.schema import Schema
from ..catalog.stats import StatisticsCatalog
from ..physical.configuration import Configuration, Fingerprint
from ..physical.structures import Index, MaterializedView
from ..queries.ast import Predicate, Query, QueryType
from .access_paths import (
    AccessPath,
    best_access_path,
    heap_scan_path,
    index_access_path,
    needed_columns,
    suggest_index,
)
from .joins import (
    Intermediate,
    JoinContext,
    JoinPlan,
    join_context,
    plan_joins,
    plan_joins_over,
)
from .params import DEFAULT_PARAMS, CostParams
from .selectivity import table_selectivity
from .update_cost import select_part, update_statement_cost
from .views import matching_views, view_intermediate

__all__ = ["QueryPlan", "WhatIfOptimizer"]


@dataclass(frozen=True)
class QueryPlan:
    """An explain-style description of the chosen plan."""

    total_cost: float
    output_rows: float
    access_paths: Tuple[AccessPath, ...]
    join_plan: Optional[JoinPlan]
    view: Optional[MaterializedView]
    aggregation_cost: float = 0.0
    sort_cost: float = 0.0


@dataclass
class _TableCtx:
    """Configuration-independent facts about one ``(query, table)`` pair.

    Everything access-path selection needs except the index set itself:
    computed once per pair, reused for every configuration.  The
    ``index_paths`` memo holds the path each individual index offers
    (``None`` when it offers none) — also independent of which other
    structures exist.
    """

    filters: List[Predicate]
    needed: FrozenSet[str]
    row_count: int
    output_rows: float
    heap_path: AccessPath
    index_paths: Dict[Index, Optional[AccessPath]] = field(
        default_factory=dict
    )


class WhatIfOptimizer:
    """Deterministic cost model with layered result caching.

    Parameters
    ----------
    schema:
        The logical schema queries run against.
    params:
        Cost-model constants (defaults to :data:`DEFAULT_PARAMS`).
    bucket_count:
        Histogram resolution for selectivity estimation.
    fingerprinting:
        Share cached costs across configurations whose query-relevant
        projections coincide (see
        :meth:`repro.physical.configuration.Configuration.fingerprint`).
        Disable to reproduce the plain per-pair cache.

    Notes
    -----
    Three cache layers sit under :meth:`cost`:

    1. the exact ``(query, configuration)`` cache — repeat lookups are
       free and counted in :attr:`cache_hits`;
    2. the fingerprint cache — a distinct pair whose query-relevant
       projection was already costed skips plan search.  **It still
       increments** :attr:`calls`: the paper's efficiency metric counts
       distinct what-if invocations, and fingerprint sharing is a
       wall-clock optimization of this reproduction, never a claimed
       optimizer-call saving.  Such calls are additionally counted in
       :attr:`fingerprint_hits`;
    3. plan-search memos that accelerate a fingerprint *miss* by
       reusing configuration-independent work: per-``(query, table)``
       selectivities/heap scans, the path each individual index offers,
       the best path per ``(query, table, relevant-indexes)``, the
       greedy join plan per ``(query, relevant-indexes)``, and each
       view's join candidate per ``(query, view, relevant-indexes)``.

    :attr:`calls` therefore counts exactly what it always did: the
    number of distinct ``(query, configuration)`` evaluations.  With
    ``fingerprinting=False`` every layer except the exact pair cache is
    disabled and plan search runs from scratch, reproducing the
    historical optimizer byte for byte.
    """

    def __init__(
        self,
        schema: Schema,
        params: CostParams = DEFAULT_PARAMS,
        bucket_count: int = 32,
        fingerprinting: bool = True,
    ) -> None:
        self.schema = schema
        self.params = params
        self.stats = StatisticsCatalog(schema, bucket_count=bucket_count)
        self.fingerprinting = fingerprinting
        if fingerprinting:
            self.stats.enable_selectivity_cache()
        self.calls = 0
        self.cache_hits = 0
        self.fingerprint_hits = 0
        self._cache: Dict[Tuple[Query, Configuration], float] = {}
        self._fp_cache: Dict[Tuple[Query, Fingerprint], float] = {}
        # Plan-search memos (fingerprinting only); see class Notes.
        self._plan_memo: Dict[Tuple[Query, Fingerprint], QueryPlan] = {}
        self._pruned: Dict[Fingerprint, Configuration] = {}
        self._tbl_ctx: Dict[Tuple[Query, str], _TableCtx] = {}
        self._path_memo: Dict[
            Tuple[Query, str, Tuple[Index, ...]], AccessPath
        ] = {}
        self._noview_memo: Dict[
            Tuple[Query, FrozenSet[Index]],
            Tuple[Dict[str, AccessPath], JoinPlan],
        ] = {}
        self._view_cand: Dict[
            Tuple[Query, MaterializedView, Tuple[Index, ...]],
            Tuple[JoinPlan, Tuple[AccessPath, ...]],
        ] = {}
        self._view_inter: Dict[
            Tuple[Query, MaterializedView], Intermediate
        ] = {}
        self._join_ctx: Dict[Query, JoinContext] = {}
        self._fp_refined: Dict[Tuple[Query, Fingerprint], Fingerprint] = {}
        self._join_cols: Dict[Query, Dict[str, FrozenSet[str]]] = {}
        self._select_parts: Dict[Query, Query] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def cost(self, query: Query, config: Configuration) -> float:
        """Optimizer-estimated cost of ``query`` under ``config``.

        Cached: repeated calls for the same pair are free and do not
        increment :attr:`calls`.  A distinct pair always increments
        :attr:`calls` (paper accounting), even when the fingerprint
        cache spares the plan search.
        """
        key = (query, config)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.calls += 1
        if self.fingerprinting:
            if query.qtype == QueryType.SELECT:
                fp = self._select_fp(query, config)
            else:
                fp = config.fingerprint(query)
            fp_key = (query, fp)
            value = self._fp_cache.get(fp_key)
            if value is None:
                value = self.plan(query, config).total_cost
                self._fp_cache[fp_key] = value
            else:
                self.fingerprint_hits += 1
        else:
            value = self.plan(query, config).total_cost
        self._cache[key] = value
        return value

    def is_cached(self, query: Query, config: Configuration) -> bool:
        """Whether the exact pair is already in the result cache.

        Used by batched cost sources to decide which evaluations still
        need a plan search; checking never touches the counters.
        """
        return (query, config) in self._cache

    def install_cost(
        self, query: Query, config: Configuration, value: float
    ) -> float:
        """Adopt an externally computed cost with exact accounting.

        The batched cost source's worker pool runs plan searches in
        separate processes and hands the values back here; this method
        advances :attr:`calls`, :attr:`cache_hits` and
        :attr:`fingerprint_hits` exactly as :meth:`cost` would have for
        the same pair in the same order.  When the pair (or its
        fingerprint) is already cached, the cached value wins — so a
        worker result can never introduce a value the serial path would
        not have produced.  Returns the value now cached for the pair.
        """
        key = (query, config)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.calls += 1
        if self.fingerprinting:
            if query.qtype == QueryType.SELECT:
                fp = self._select_fp(query, config)
            else:
                fp = config.fingerprint(query)
            fp_key = (query, fp)
            existing = self._fp_cache.get(fp_key)
            if existing is None:
                self._fp_cache[fp_key] = value
            else:
                self.fingerprint_hits += 1
                value = existing
        self._cache[key] = value
        return value

    def plan(self, query: Query, config: Configuration) -> QueryPlan:
        """Full plan (used by tests, explain and bounds).

        Does not count as an optimizer call; with fingerprinting the
        select-plan memo applies, so repeat plans are cheap.
        """
        if query.qtype == QueryType.SELECT:
            return self._plan_select(query, config)
        return self._plan_dml(query, config)

    def reset_counters(self) -> None:
        """Zero the call counters (cache contents are kept)."""
        self.calls = 0
        self.cache_hits = 0
        self.fingerprint_hits = 0

    def clear_cache(self) -> None:
        """Drop all cached costs, fingerprints and plan-search memos."""
        self._cache.clear()
        self._fp_cache.clear()
        self._pruned.clear()
        self.drop_plan_memos()

    def drop_plan_memos(self) -> None:
        """Drop the query-keyed plan-search memos (cache layer 3).

        Costs, fingerprint values and every counter are unaffected: the
        memos only spare repeated plan-search work for a query, and a
        dropped entry is recomputed identically on the next miss.  The
        matrix builder calls this after each query's row, since a
        query-major sweep never revisits an earlier query's memos.
        """
        self._plan_memo.clear()
        self._tbl_ctx.clear()
        self._path_memo.clear()
        self._noview_memo.clear()
        self._view_cand.clear()
        self._view_inter.clear()
        self._join_ctx.clear()
        self._fp_refined.clear()
        self._join_cols.clear()
        self._select_parts.clear()

    @property
    def cache_stats(self) -> Dict[str, int]:
        """Counter snapshot for profiling/benchmark JSON output.

        ``plan_cache_size`` and ``path_memo_size`` count plan-search
        memo entries.  The serial matrix builder drops those memos after
        every query's row (:meth:`drop_plan_memos`), so after a build
        they read only what other calls have memoized since.
        """
        return {
            "calls": self.calls,
            "cache_hits": self.cache_hits,
            "fingerprint_hits": self.fingerprint_hits,
            "pair_cache_size": len(self._cache),
            "fingerprint_cache_size": len(self._fp_cache),
            "plan_cache_size": len(self._plan_memo),
            "path_memo_size": len(self._path_memo),
        }

    # ------------------------------------------------------------------
    # instrumentation ([2]-style suggestions, used for cost bounds)
    # ------------------------------------------------------------------
    def recommended_indexes(self, query: Query) -> List[Index]:
        """The per-table indexes that would be optimal for this query."""
        target = (
            query.tables
            if query.qtype == QueryType.SELECT
            else (query.target_table,)
        )
        suggestions = []
        for table in target:
            ix = suggest_index(query, table, self.stats)
            if ix is not None:
                suggestions.append(ix)
        return suggestions

    def recommended_views(self, query: Query) -> List[MaterializedView]:
        """View suggestions for multi-join / aggregated SELECT queries."""
        if query.qtype != QueryType.SELECT or query.join_count == 0:
            return []
        suggestions = [
            MaterializedView(
                tables=query.tables,
                join_predicates=query.join_predicates,
            )
        ]
        if query.group_by:
            suggestions.append(
                MaterializedView(
                    tables=query.tables,
                    join_predicates=query.join_predicates,
                    group_by=query.group_by,
                    aggregates=query.aggregates,
                )
            )
        return suggestions

    def ideal_configuration(self, query: Query) -> Configuration:
        """All structures the instrumentation deems useful for ``query``.

        The query's cost in this configuration lower-bounds its cost in
        any configuration a design tool would enumerate (Section 6.1).
        """
        return Configuration(
            indexes=self.recommended_indexes(query),
            views=self.recommended_views(query),
            name="ideal",
        )

    # ------------------------------------------------------------------
    # SELECT planning
    # ------------------------------------------------------------------
    def _plan_select(self, query: Query, config: Configuration) -> QueryPlan:
        if not self.fingerprinting:
            return self._plan_select_search(query, config)
        fp = self._select_fp(query, config)
        key = (query, fp)
        plan = self._plan_memo.get(key)
        if plan is None:
            plan = self._plan_select_fp(query, fp)
            self._plan_memo[key] = plan
        return plan

    def _select_fp(self, query: Query, config: Configuration) -> Fingerprint:
        """The query's fingerprint, refined with cost-model knowledge.

        The structural fingerprint
        (:meth:`~repro.physical.configuration.Configuration.fingerprint`)
        keeps every index that *could* seek or cover.  Plan search is
        stricter: an index is chosen as an access path only when its
        individual path strictly beats the heap scan, and that per-index
        comparison is independent of which other structures exist.  An
        index whose path does not beat the heap and whose leading key is
        not a join column (so it cannot carry an index-nested-loop join
        or pre-sort a merge join) can therefore never influence the
        plan, and dropping it from the fingerprint collapses many
        structural fingerprints into one shared cache entry.
        """
        fp = config.fingerprint(query)
        key = (query, fp)
        refined = self._fp_refined.get(key)
        if refined is None:
            refined = self._refine_fp(query, fp)
            self._fp_refined[key] = refined
        return refined

    def _refine_fp(self, query: Query, fp: Fingerprint) -> Fingerprint:
        indexes_fp, views_fp = fp
        join_cols = self._query_join_cols(query)
        kept = []
        for ix in indexes_fp:
            if ix.key_columns[0] in join_cols.get(ix.table, ()):
                kept.append(ix)
                continue
            ctx = self._table_ctx(query, ix.table)
            path = self._index_path(ctx, query, ix.table, ix)
            if path is not None and path.cost < ctx.heap_path.cost:
                kept.append(ix)
        if len(kept) == len(indexes_fp):
            return fp
        return (frozenset(kept), views_fp)

    def _query_join_cols(self, query: Query) -> Dict[str, FrozenSet[str]]:
        """Per-table join columns of the query (memoized)."""
        cols = self._join_cols.get(query)
        if cols is None:
            by_table: Dict[str, set] = {}
            for jp in query.join_predicates:
                by_table.setdefault(jp.left.table, set()).add(jp.left.column)
                by_table.setdefault(jp.right.table, set()).add(
                    jp.right.column
                )
            cols = {t: frozenset(cs) for t, cs in by_table.items()}
            self._join_cols[query] = cols
        return cols

    def _pruned_config(self, fp: Fingerprint) -> Configuration:
        """The fingerprint materialized as a (tiny) configuration.

        By construction the query costs identically under the pruned
        configuration and under any configuration projecting to ``fp``:
        a dropped index can neither seek (leading key unfiltered and
        not a join column) nor cover, so it offers no access path and
        cannot carry an index-nested-loop or merge join; a dropped view
        cannot match.
        """
        pruned = self._pruned.get(fp)
        if pruned is None:
            indexes, views = fp
            pruned = Configuration(indexes, views, name="fp")
            self._pruned[fp] = pruned
        return pruned

    def _table_ctx(self, query: Query, table: str) -> _TableCtx:
        key = (query, table)
        ctx = self._tbl_ctx.get(key)
        if ctx is None:
            sel = table_selectivity(query, table, self.stats)
            row_count = self.schema.table(table).row_count
            output_rows = max(1.0, row_count * sel)
            ctx = _TableCtx(
                filters=query.filters_on(table),
                needed=needed_columns(query, table),
                row_count=row_count,
                output_rows=output_rows,
                heap_path=heap_scan_path(
                    query, table, self.schema, self.stats, self.params,
                    output_rows,
                ),
            )
            self._tbl_ctx[key] = ctx
        return ctx

    def _best_path(
        self, query: Query, table: str, pruned: Configuration
    ) -> AccessPath:
        """Best access path from per-table and per-index memos.

        Equivalent to :func:`best_access_path` over any configuration
        whose relevant indexes on ``table`` are the pruned ones: the
        iteration order (sorted indexes) and strict ``<`` tie-breaking
        are the same.
        """
        relevant = tuple(pruned.indexes_on(table))
        key = (query, table, relevant)
        best = self._path_memo.get(key)
        if best is None:
            ctx = self._table_ctx(query, table)
            best = ctx.heap_path
            for ix in relevant:
                path = self._index_path(ctx, query, table, ix)
                if path is not None and path.cost < best.cost:
                    best = path
            self._path_memo[key] = best
        return best

    def _index_path(
        self, ctx: _TableCtx, query: Query, table: str, ix: Index
    ) -> Optional[AccessPath]:
        """The path ``ix`` alone offers (memoized per query/table)."""
        if ix in ctx.index_paths:
            return ctx.index_paths[ix]
        path = index_access_path(
            ix, table, ctx.filters, ctx.needed, ctx.row_count,
            ctx.output_rows, self.schema, self.stats, self.params,
        )
        ctx.index_paths[ix] = path
        return path

    def _plan_select_fp(self, query: Query, fp: Fingerprint) -> QueryPlan:
        """Plan search over the fingerprint's pruned configuration.

        Each sub-result is keyed by the exact slice of the fingerprint
        it depends on, so configurations that differ in one component
        (say, the view set) still share the rest of the search.
        """
        indexes_fp, _views_fp = fp
        pruned = self._pruned_config(fp)

        nv_key = (query, indexes_fp)
        noview = self._noview_memo.get(nv_key)
        if noview is None:
            paths = {
                table: self._best_path(query, table, pruned)
                for table in query.tables
            }
            join = plan_joins(
                query, paths, pruned, self.schema, self.stats, self.params,
                ctx=self._query_join_ctx(query), needed_fn=self._needed,
            )
            noview = (paths, join)
            self._noview_memo[nv_key] = noview
        paths, best_join = noview
        best_paths = tuple(paths.values())
        best_view: Optional[MaterializedView] = None

        for view in matching_views(query, pruned):
            candidate, uncovered_paths = self._view_candidate(
                query, view, paths, pruned
            )
            if candidate.total_cost < best_join.total_cost:
                best_join = candidate
                best_view = view
                best_paths = uncovered_paths

        return self._assemble_select_plan(
            query, best_join, best_paths, best_view
        )

    def _view_candidate(
        self,
        query: Query,
        view: MaterializedView,
        paths: Dict[str, AccessPath],
        pruned: Configuration,
    ) -> Tuple[JoinPlan, Tuple[AccessPath, ...]]:
        # The candidate depends on indexes only through the tables the
        # view does NOT cover (their paths, and join support into
        # them); a view covering the whole query shares one plan across
        # every configuration containing it.
        uncovered_key = tuple(
            ix
            for table in query.tables
            if table not in view.table_set
            for ix in pruned.indexes_on(table)
        )
        key = (query, view, uncovered_key)
        cand = self._view_cand.get(key)
        if cand is None:
            inter_key = (query, view)
            inter = self._view_inter.get(inter_key)
            if inter is None:
                inter = view_intermediate(
                    query, view, self.schema, self.stats, self.params
                )
                self._view_inter[inter_key] = inter
            seed = [inter]
            uncovered_paths = []
            for table in query.tables:
                if table in view.table_set:
                    continue
                path = paths[table]
                seed.append(
                    Intermediate(
                        tables=frozenset([table]),
                        rows=path.output_rows,
                        cost=path.cost,
                        is_base=True,
                    )
                )
                uncovered_paths.append(path)
            plan = plan_joins_over(
                seed, query, pruned, self.schema, self.stats, self.params,
                ctx=self._query_join_ctx(query), needed_fn=self._needed,
            )
            cand = (plan, tuple(uncovered_paths))
            self._view_cand[key] = cand
        return cand

    def _needed(self, query: Query, table: str) -> FrozenSet[str]:
        """Memoized :func:`needed_columns` (via the table-context memo)."""
        return self._table_ctx(query, table).needed

    def _query_join_ctx(self, query: Query) -> JoinContext:
        ctx = self._join_ctx.get(query)
        if ctx is None:
            ctx = join_context(query, self.stats)
            self._join_ctx[query] = ctx
        return ctx

    def _plan_select_search(
        self, query: Query, config: Configuration
    ) -> QueryPlan:
        """Plan search from scratch (the historical, memo-free path)."""
        paths = {
            table: best_access_path(
                query, table, config, self.schema, self.stats, self.params
            )
            for table in query.tables
        }
        best_join = plan_joins(
            query, paths, config, self.schema, self.stats, self.params
        )
        best_paths = tuple(paths.values())
        best_view: Optional[MaterializedView] = None

        for view in matching_views(query, config):
            seed = [
                view_intermediate(
                    query, view, self.schema, self.stats, self.params
                )
            ]
            uncovered_paths = []
            for table in query.tables:
                if table in view.table_set:
                    continue
                path = paths[table]
                seed.append(
                    Intermediate(
                        tables=frozenset([table]),
                        rows=path.output_rows,
                        cost=path.cost,
                        is_base=True,
                    )
                )
                uncovered_paths.append(path)
            candidate = plan_joins_over(
                seed, query, config, self.schema, self.stats, self.params
            )
            if candidate.total_cost < best_join.total_cost:
                best_join = candidate
                best_view = view
                best_paths = tuple(uncovered_paths)

        return self._assemble_select_plan(
            query, best_join, best_paths, best_view
        )

    def _assemble_select_plan(
        self,
        query: Query,
        best_join: JoinPlan,
        best_paths: Tuple[AccessPath, ...],
        best_view: Optional[MaterializedView],
    ) -> QueryPlan:
        agg_cost = self._aggregation_cost(query, best_join.output_rows,
                                          best_view)
        sort_cost = self._sort_cost(query, best_join.output_rows,
                                    best_paths)
        total = best_join.total_cost + agg_cost + sort_cost
        return QueryPlan(
            total_cost=total,
            output_rows=best_join.output_rows,
            access_paths=best_paths,
            join_plan=best_join,
            view=best_view,
            aggregation_cost=agg_cost,
            sort_cost=sort_cost,
        )

    def _aggregation_cost(
        self,
        query: Query,
        rows: float,
        view: Optional[MaterializedView],
    ) -> float:
        if not query.aggregates and not query.group_by:
            return 0.0
        if view is not None and view.group_by:
            # The view already stores aggregated results.
            return 0.0
        return rows * self.params.agg_row_cost

    def _sort_cost(
        self,
        query: Query,
        rows: float,
        paths: Tuple[AccessPath, ...] = (),
    ) -> float:
        if not query.order_by:
            return 0.0
        # Sort elision: a single-table plan whose index delivers rows
        # already ordered on the leading ORDER BY column needs no sort.
        if len(query.tables) == 1 and len(paths) == 1:
            path = paths[0]
            lead = query.order_by[0]
            if (
                path.index is not None
                and lead.table == path.table
                and path.index.leading_column == lead.column
            ):
                return 0.0
        return rows * max(1.0, math.log2(max(2.0, rows))) \
            * self.params.sort_row_cost

    # ------------------------------------------------------------------
    # DML planning
    # ------------------------------------------------------------------
    def _plan_dml(self, query: Query, config: Configuration) -> QueryPlan:
        if query.qtype == QueryType.INSERT:
            total = update_statement_cost(
                query, config, self.schema, self.stats, self.params, 0.0
            )
            return QueryPlan(
                total_cost=total,
                output_rows=1.0,
                access_paths=(),
                join_plan=None,
                view=None,
            )
        locate = self._select_parts.get(query)
        if locate is None:
            locate = select_part(query)
            self._select_parts[query] = locate
        locate_plan = self._plan_select(locate, config)
        total = update_statement_cost(
            query, config, self.schema, self.stats, self.params,
            locate_plan.total_cost,
        )
        return QueryPlan(
            total_cost=total,
            output_rows=locate_plan.output_rows,
            access_paths=locate_plan.access_paths,
            join_plan=locate_plan.join_plan,
            view=None,
        )
