"""The web front-end tier.

HTTP operations pass through the web server (its CPU demand is part of
each transaction's component mix); RMI operations go directly to the
application server.  The front-end contributes a small
connection/parse/transfer latency to web responses and keeps the
per-protocol request accounting the pass/fail criteria are defined
over (90% of web requests under 2 s, RMI under 5 s).
"""

from __future__ import annotations

import random

from repro.config import TransactionSpec


class WebServer:
    """Connection handling overhead + per-protocol accounting."""

    #: Mean added latency for an HTTP round trip (connection handling,
    #: request parsing, response transfer).
    HTTP_OVERHEAD_MS = 9.0
    #: RMI marshalling overhead (direct to the app server).
    RMI_OVERHEAD_MS = 3.0

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.web_requests = 0
        self.rmi_requests = 0

    def route(self, spec: TransactionSpec) -> None:
        """Register an incoming operation with the right front-end."""
        if spec.protocol == "web":
            self.web_requests += 1
        else:
            self.rmi_requests += 1

    def mean_overhead_ms(self, spec: TransactionSpec) -> float:
        """Mean front-end latency of this operation's protocol."""
        if spec.protocol == "web":
            return self.HTTP_OVERHEAD_MS
        return self.RMI_OVERHEAD_MS

    def response_overhead_s(self, spec: TransactionSpec) -> float:
        """Front-end latency added to this operation's response time."""
        # rng.uniform(0.5, 1.5) is 0.5 + 1.0 * random(), bit for bit.
        return (0.5 + self.rng.random()) * self.mean_overhead_ms(spec) / 1000.0
