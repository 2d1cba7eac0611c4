"""Runtime transaction state.

A :class:`Request` is one in-flight benchmark operation.  Its CPU
demand and I/O plan are drawn once at creation (jittered around the
:class:`~repro.config.TransactionSpec`); the SUT's scheduler,
:meth:`repro.workload.appserver.AppServer.serve`, then advances it
tick by tick.  I/O points are expressed as CPU-progress
thresholds: when the request's consumed CPU crosses the next threshold
it suspends into the disk queue (a DB2 buffer-pool miss).
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.config import TransactionSpec

#: Above this rate the sampler switches from Knuth's product form to
#: the equivalent log-space sum.  The product form underflows once
#: ``exp(-lam)`` reaches the subnormal range (lam ~ 745), at which
#: point it returns a lam-*independent* count (~700, wherever the
#: running product hits 0.0); well before that the comparison loses
#: precision.  30 keeps the historical bit-exact draws for every rate
#: the shipped configs produce while staying far from the cliff.
_KNUTH_LAMBDA_MAX = 30.0


def poisson(rng: random.Random, lam: float) -> int:
    """Poisson sampler, exact for small and large rates.

    Small ``lam`` uses Knuth's product method (bit-compatible with the
    historical draws).  Large ``lam`` counts unit-rate exponential
    inter-arrivals in log space — mathematically the same test
    (``prod(u_i) <= exp(-lam)``  iff  ``sum(-log(u_i)) >= lam``) but
    immune to the underflow that made high-IR scaling configs draw
    garbage.
    """
    if lam <= 0.0:
        return 0
    if lam <= _KNUTH_LAMBDA_MAX:
        threshold = pow(2.718281828459045, -lam)
        draw = rng.random
        # The product starts at 1.0, and 1.0 * u == u exactly.
        p = draw()
        k = 0
        while p > threshold:
            p *= draw()
            k += 1
        return k
    # 1 - u maps random()'s [0, 1) onto (0, 1] so log() is total.
    k = 0
    total = -math.log(1.0 - rng.random())
    while total <= lam:
        k += 1
        total -= math.log(1.0 - rng.random())
    return k


class Request:
    """One in-flight transaction."""

    __slots__ = (
        "type_index",
        "spec",
        "arrival_s",
        "total_cpu_ms",
        "consumed_cpu_ms",
        "io_thresholds",
        "next_io",
        "in_io",
        "attempt",
        "abandoned",
        "finished",
    )

    def __init__(
        self,
        type_index: int,
        spec: TransactionSpec,
        arrival_s: float,
        rng: random.Random,
        io_count: int,
        cpu_inflation: float = 1.0,
        spec_cpu_ms: Optional[float] = None,
    ):
        """``spec_cpu_ms`` is ``spec.total_cpu_ms``, for callers that
        create many requests of one spec and have it precomputed."""
        self.type_index = type_index
        self.spec = spec
        self.arrival_s = arrival_s
        if spec_cpu_ms is None:
            spec_cpu_ms = spec.total_cpu_ms
        draw = rng.random
        # rng.uniform(0.7, 1.35), draw for draw and bit for bit.
        total = spec_cpu_ms * (0.7 + (1.35 - 0.7) * draw())
        if cpu_inflation != 1.0:
            # A fault (e.g. DB slowdown) inflating this request's CPU
            # demand; applied before I/O placement so the I/O points
            # stay proportional.
            total *= cpu_inflation
        self.total_cpu_ms = total
        self.consumed_cpu_ms = 0.0
        # I/O points spread uniformly over the request's CPU progress.
        points = [draw() for _ in range(io_count)]
        points.sort()
        self.io_thresholds: List[float] = [p * total for p in points]
        self.next_io = 0
        self.in_io = False
        #: Client attempt number (1 = first try; >1 = a retry).
        self.attempt = 1
        #: The client gave up on this request (timeout / crash); the
        #: server may still finish it as wasted zombie work.
        self.abandoned = False
        #: The server completed this request.
        self.finished = False

    def io_complete(self) -> None:
        if not self.in_io:
            raise RuntimeError("request was not waiting on I/O")
        self.in_io = False

    def response_time_s(self, now_s: float) -> float:
        return now_s - self.arrival_s
