"""Reader/writer for the ``BENCH_*.json`` perf-trajectory artifacts.

Every benchmark artifact the repo emits (kernel microbenchmarks,
sweep stats, the ``repro bench`` suite) goes through
:func:`write_bench_json`, which stamps the common envelope:

* ``"schema": 2`` — an **integer** version for the envelope itself
  (consumers can compare before parsing);
* ``"kind"`` — which benchmark family produced the file;
* ``"host"`` — the interpreter/platform fingerprint
  (:func:`repro.obs.manifest.host_fingerprint`), so numbers from two
  measurement environments are never compared as if they were one;
* ``"git_describe"`` / ``"recorded_at"`` — which revision produced
  the numbers, and when (UTC ISO-8601), so envelopes can live in an
  append-only trajectory (:mod:`repro.perf.history`);
* ``"engine"`` / ``"engine_reason"`` — the window-execution engine
  that actually ran (:func:`repro.cpu.engine.effective_engine`) and
  why it is not the requested one, so a gate never judges a native
  number against a fused baseline;
* ``"repetitions"`` / ``"spread"`` — the best-of-N measurement
  policy: how many timing repetitions each kernel ran, and the
  per-kernel relative spread ``(max - min) / min`` of those
  repetitions, so a reader can tell a real regression from noise.

Schema 1 (the pre-observatory envelope: ``schema``/``kind``/``host``
only) is still readable: :func:`read_bench_payload` normalizes old
committed files to the schema-2 shape, defaulting the provenance
fields.  The envelope is regression-tested in
``tests/obs/test_benchio.py``.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from repro.obs.manifest import git_describe, host_fingerprint

#: Envelope schema version (integer; bump on incompatible change).
BENCH_SCHEMA = 2

#: Keys the envelope owns; results must not collide with them.
RESERVED_KEYS = frozenset(
    {
        "schema", "kind", "host", "git_describe", "recorded_at", "repetitions",
        "spread", "engine", "engine_reason",
    }
)

#: Defaults filled in when reading a schema-1 envelope.
_SCHEMA_1_DEFAULTS: Dict[str, object] = {
    "git_describe": "unknown",
    "recorded_at": None,
    "repetitions": 1,
    "spread": {},
}
#: Defaults for envelopes written before the engine stamp (every one
#: of them ran the fused engine).
_ENGINE_DEFAULTS: Dict[str, object] = {"engine": "fused", "engine_reason": None}


def bench_payload(
    results: Dict[str, object],
    kind: str,
    repetitions: int = 1,
    spread: Optional[Mapping[str, float]] = None,
) -> Dict[str, object]:
    """The results wrapped in the common envelope (no file I/O).

    ``repetitions`` is the best-of-N policy the results were measured
    under; ``spread`` maps result keys to the relative spread of their
    N repetitions (:func:`repro.util.stats.relative_spread`).
    """
    collisions = RESERVED_KEYS & results.keys()
    if collisions:
        raise ValueError(
            f"benchmark results may not use reserved keys: {sorted(collisions)}"
        )
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    payload: Dict[str, object] = dict(results)
    payload["schema"] = BENCH_SCHEMA
    payload["kind"] = kind
    payload["host"] = host_fingerprint()
    payload["git_describe"] = git_describe()
    payload["recorded_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    payload["repetitions"] = repetitions
    payload["spread"] = dict(spread) if spread else {}
    from repro.cpu.engine import effective_engine

    payload["engine"], payload["engine_reason"] = effective_engine()
    return payload


def read_bench_payload(doc: Mapping[str, object]) -> Dict[str, object]:
    """Normalize an envelope document to the schema-2 shape.

    Schema-2 documents pass through (copied); schema-1 documents — the
    old committed BENCH files — gain the schema-2 provenance fields
    with explicit defaults.  Either gains the ``fused`` engine stamp
    when it predates it.  Anything else is rejected rather than
    half-parsed.
    """
    schema = doc.get("schema")
    if schema not in (BENCH_SCHEMA, 1):
        raise ValueError(f"unsupported bench envelope schema: {schema!r}")
    migrated = dict(doc)
    defaults = dict(_ENGINE_DEFAULTS)
    if schema == 1:
        migrated["schema"] = BENCH_SCHEMA
        defaults.update(_SCHEMA_1_DEFAULTS)
    for key, default in defaults.items():
        migrated.setdefault(key, default)
    return migrated


def bench_results(payload: Mapping[str, object]) -> Dict[str, object]:
    """The result entries of an envelope, with the envelope keys removed."""
    return {k: v for k, v in payload.items() if k not in RESERVED_KEYS}


def write_bench_json(
    path: Union[str, Path],
    results: Dict[str, object],
    kind: str,
    repetitions: int = 1,
    spread: Optional[Mapping[str, float]] = None,
) -> Path:
    """Write ``results`` under the envelope to ``path``; returns the path."""
    target = Path(path)
    target.write_text(
        json.dumps(
            bench_payload(results, kind, repetitions=repetitions, spread=spread),
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return target


def read_bench_json(path: Union[str, Path]) -> Dict[str, object]:
    """Load and normalize one ``BENCH_*.json`` file (schema 1 or 2)."""
    return read_bench_payload(json.loads(Path(path).read_text()))
