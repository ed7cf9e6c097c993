"""Column statistics and histogram-based selectivity estimation.

Real optimizers estimate predicate selectivities from histograms built
over sampled data.  We model synthetic columns analytically: a column
with ``d`` distinct values and Zipf skew ``theta`` takes the values
``0 .. d-1``, where value ``v`` is the ``(v+1)``-th most frequent (so
value 0 is the head of the distribution).  The exact probability mass
function is therefore known.  Building a column's statistics derives
an equi-depth :class:`Histogram` from it and keeps only the histogram:

* *histogram* selectivities are what the cost model consumes —
  mirroring the small estimation error a production optimizer incurs
  — and cost ``O(buckets)`` memory per column, whatever its domain;
* *exact* selectivities (:meth:`ColumnStatistics.exact_eq`,
  :meth:`ColumnStatistics.exact_range`) regenerate the pmf on demand.
  Nothing in the cost model reads them; they exist to check the
  histogram against the distribution it summarizes.

Because both are deterministic functions of the column definition, the
overall cost model ``Cost(q, C)`` is deterministic, which the paper's
problem statement requires (optimizer-estimated cost is a fixed number
per query/configuration pair).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .schema import Column, Schema, Table
from .zipf import zipf_pmf

__all__ = [
    "Histogram",
    "ColumnStatistics",
    "TableStatistics",
    "StatisticsCatalog",
]


@dataclass(frozen=True)
class _Bucket:
    """One equi-depth histogram bucket over the value domain ``[lo, hi]``."""

    lo: int
    hi: int
    mass: float
    distinct: int

    def eq_estimate(self) -> float:
        """Estimated mass of a single value in this bucket (uniform within)."""
        return self.mass / max(1, self.distinct)


class Histogram:
    """Equi-depth histogram over a column's integer value domain.

    Built from the exact pmf; each bucket holds (approximately) equal
    probability mass.  Selectivity estimates assume uniformity *within*
    a bucket, which is the classical source of optimizer estimation
    error on skewed data.
    """

    def __init__(self, pmf: np.ndarray, bucket_count: int = 32) -> None:
        if len(pmf) == 0:
            raise ValueError("cannot build a histogram over an empty domain")
        if bucket_count < 1:
            raise ValueError(f"bucket_count must be >= 1, got {bucket_count}")
        self._buckets: List[_Bucket] = []
        self._build(np.asarray(pmf, dtype=np.float64), bucket_count)
        # Bucket upper bounds, for bisection during estimation.
        self._highs = [b.hi for b in self._buckets]

    def _build(self, pmf: np.ndarray, bucket_count: int) -> None:
        n = len(pmf)
        buckets = min(bucket_count, n)
        cdf = np.cumsum(pmf)
        total = float(cdf[-1]) if cdf[-1] > 0 else 1.0
        # Equi-depth boundaries: the last value index of bucket b is the
        # first position where the cdf reaches (b+1)/buckets of the mass.
        targets = total * (np.arange(1, buckets + 1) / buckets)
        highs = np.searchsorted(cdf, targets - 1e-12 * total, side="left")
        highs = np.minimum(highs, n - 1)
        highs[-1] = n - 1
        lo = 0
        prev_mass = 0.0
        for hi in np.unique(highs):
            hi = int(hi)
            mass = float(cdf[hi]) - prev_mass
            self._buckets.append(
                _Bucket(lo=lo, hi=hi, mass=mass / total,
                        distinct=hi - lo + 1)
            )
            prev_mass = float(cdf[hi])
            lo = hi + 1
        self._highs = [b.hi for b in self._buckets]

    @property
    def buckets(self) -> Sequence[_Bucket]:
        """The bucket list, ascending by value range."""
        return tuple(self._buckets)

    def _bucket_of(self, value: int) -> _Bucket:
        idx = bisect.bisect_left(self._highs, value)
        idx = min(idx, len(self._buckets) - 1)
        return self._buckets[idx]

    def eq_selectivity(self, value: int) -> float:
        """Estimated fraction of rows equal to ``value``."""
        domain_hi = self._buckets[-1].hi
        if value < 0 or value > domain_hi:
            return 0.0
        return self._bucket_of(value).eq_estimate()

    def range_selectivity(self, lo: float, hi: float) -> float:
        """Estimated fraction of rows with value in the closed range [lo, hi]."""
        if hi < lo:
            return 0.0
        mass = 0.0
        for b in self._buckets:
            if b.hi < lo or b.lo > hi:
                continue
            overlap_lo = max(float(b.lo), lo)
            overlap_hi = min(float(b.hi), hi)
            width = b.hi - b.lo + 1
            covered = max(0.0, overlap_hi - overlap_lo + 1)
            mass += b.mass * min(1.0, covered / width)
        return min(1.0, mass)


class ColumnStatistics:
    """Histogram statistics for a single column, plus exact checks.

    Only the :class:`Histogram` is retained: the pmf it is built from
    is ``O(distinct_count)`` and is dropped after the build.  The exact
    selectivities recompute it per call.
    """

    def __init__(self, column: Column, bucket_count: int = 32) -> None:
        self.column = column
        self.histogram = Histogram(self._pmf(), bucket_count=bucket_count)

    def _pmf(self) -> np.ndarray:
        return zipf_pmf(self.column.distinct_count, self.column.zipf_theta)

    @property
    def distinct_count(self) -> int:
        """Number of distinct values in the column."""
        return self.column.distinct_count

    # -- exact selectivities (recomputed per call, O(distinct_count)) ---
    def exact_eq(self, value: int) -> float:
        """Exact fraction of rows carrying ``value``."""
        if value < 0 or value >= self.distinct_count:
            return 0.0
        return float(self._pmf()[value])

    def exact_range(self, lo: int, hi: int) -> float:
        """Exact fraction of rows with value in the closed range [lo, hi]."""
        if hi < lo:
            return 0.0
        lo = max(0, lo)
        hi = min(self.distinct_count - 1, hi)
        if hi < lo:
            return 0.0
        cdf = np.cumsum(self._pmf())
        upper = float(cdf[hi])
        lower = float(cdf[lo - 1]) if lo > 0 else 0.0
        return upper - lower

    # -- estimated selectivities (optimizer-side) ------------------------
    def estimate_eq(self, value: int) -> float:
        """Histogram estimate of equality selectivity."""
        return self.histogram.eq_selectivity(value)

    def estimate_range(self, lo: float, hi: float) -> float:
        """Histogram estimate of range selectivity."""
        return self.histogram.range_selectivity(lo, hi)

    def estimate_in(self, values: Sequence[int]) -> float:
        """Histogram estimate of an IN-list selectivity."""
        return min(1.0, sum(self.estimate_eq(v) for v in set(values)))


class TableStatistics:
    """Statistics for all columns of one table."""

    def __init__(self, table: Table, bucket_count: int = 32) -> None:
        self.table = table
        self.columns: Dict[str, ColumnStatistics] = {
            name: ColumnStatistics(col, bucket_count=bucket_count)
            for name, col in table.columns.items()
        }

    @property
    def row_count(self) -> int:
        """The table's row count."""
        return self.table.row_count

    def column(self, name: str) -> ColumnStatistics:
        """Statistics for one column; raises ``KeyError`` with context."""
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"no statistics for column {name!r} of table "
                f"{self.table.name!r}"
            ) from None


class StatisticsCatalog:
    """Lazily built statistics for every table in a schema.

    A built table holds one ``O(buckets)`` histogram per column.
    Building a column still generates its pmf, ``O(distinct_count)``
    time and transient memory, so for the CRM schema with hundreds of
    tables we only build the tables a workload actually touches.
    """

    def __init__(self, schema: Schema, bucket_count: int = 32) -> None:
        self.schema = schema
        self.bucket_count = bucket_count
        self._tables: Dict[str, TableStatistics] = {}
        #: Opt-in memo for per-predicate selectivity estimates, filled
        #: by :mod:`repro.optimizer.selectivity` when enabled.  Kept off
        #: by default so the plain optimizer path stays byte-for-byte
        #: the historical one; estimates are pure functions of the
        #: predicate and these statistics, so caching cannot change any
        #: value.
        self.selectivity_cache: Optional[Dict[object, float]] = None

    def enable_selectivity_cache(self) -> None:
        """Memoize selectivity estimates computed against this catalog."""
        if self.selectivity_cache is None:
            self.selectivity_cache = {}

    def table(self, name: str) -> TableStatistics:
        """Statistics for one table, building them on first access."""
        stats = self._tables.get(name)
        if stats is None:
            stats = TableStatistics(
                self.schema.table(name), bucket_count=self.bucket_count
            )
            self._tables[name] = stats
        return stats

    def column(self, table_name: str, column_name: str) -> ColumnStatistics:
        """Statistics for one qualified column."""
        return self.table(table_name).column(column_name)
