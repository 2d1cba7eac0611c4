"""The database tier: buffer pool behavior and IR-scaled data size.

The benchmark scales its initial database with the injection rate
("busier servers tend to have larger data sets"), which slightly
depresses the buffer-pool hit ratio at higher IRs.  The database's job
in the simulation is to decide, per transaction, how many of its
queries miss the buffer pool and therefore require physical I/O.
"""

from __future__ import annotations

import random

from repro.config import TransactionSpec, WorkloadConfig
from repro.workload.transactions import poisson

#: Reference IR at which ``buffer_pool_hit`` is calibrated.
_REFERENCE_IR = 40
#: Hit-ratio degradation per IR unit above the reference (larger data
#: set, same buffer pool).
_HIT_SLOPE = 0.0015


class Database:
    """DB2-like query cost model."""

    def __init__(self, config: WorkloadConfig, rng: random.Random):
        self.config = config
        self.rng = rng
        self.queries_issued = 0
        self.buffer_misses = 0
        #: Fault hook: a db_slowdown fault multiplies the buffer-pool
        #: miss probability (working set spilling the pool).  1.0 —
        #: the default — is exactly the pre-fault behavior.
        self.miss_factor = 1.0
        # The unfaulted miss probability depends on the config alone.
        self._base_miss = 1.0 - self.effective_hit_ratio

    @property
    def data_scale(self) -> float:
        """Relative size of the initial database (1.0 at IR 40)."""
        return self.config.injection_rate / _REFERENCE_IR

    @property
    def effective_hit_ratio(self) -> float:
        base = self.config.buffer_pool_hit
        delta = (self.config.injection_rate - _REFERENCE_IR) * _HIT_SLOPE
        return min(0.98, max(0.30, base - delta))

    def plan_ios(self, spec: TransactionSpec) -> int:
        """Physical I/Os a new transaction of this type will incur."""
        draw = self.rng.random
        n_queries = poisson(self.rng, spec.db_queries)
        self.queries_issued += n_queries
        # min(0.98, base miss * fault factor)
        miss_p = self._base_miss * self.miss_factor
        if miss_p >= 0.98:
            miss_p = 0.98
        misses = 0
        for _ in range(n_queries):
            if draw() < miss_p:
                misses += 1
        self.buffer_misses += misses
        return misses

    @property
    def observed_hit_ratio(self) -> float:
        if self.queries_issued == 0:
            return 1.0
        return 1.0 - self.buffer_misses / self.queries_issued
