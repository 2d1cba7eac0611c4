"""Engine selection for the window-execution layer.

Two engines execute sampling windows:

* ``fused`` — the default: per-window Python stepping through
  :class:`~repro.cpu.stream.SliceRunner`'s fused kernel (with the
  guarded fallback to the generic path for subclassed components);
* ``reference`` — :class:`~repro.cpu.reference.ReferenceCoreModel`,
  the pinned specification; never fuses, always the generic path.
  Its output is bit-identical to ``fused``.

The selection travels through the ``REPRO_ENGINE`` environment
variable rather than through :class:`~repro.config.ExperimentConfig`:
the engine changes *how* windows are computed, not *what* is being
measured, and keeping it out of the config means the run cache's
content addressing is untouched (a cached workload simulation is
valid under any engine).  Environment transport also means pool
workers spawned by ``reproduce-all --jobs N`` inherit the choice for
free.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

#: Engines accepted by ``--engine`` and ``REPRO_ENGINE``.
ENGINES: Tuple[str, ...] = ("fused", "reference")

#: Environment variable carrying the session-wide engine choice.
ENGINE_ENV = "REPRO_ENGINE"


def default_engine() -> str:
    """The session's engine: ``$REPRO_ENGINE`` or ``fused``.

    Read dynamically (not cached at import) so tests and the CLI can
    flip the environment and observe the change immediately.
    """
    return resolve_engine(os.environ.get(ENGINE_ENV) or None)


def set_default_engine(engine: Optional[str]) -> None:
    """Set (or, with ``None``, clear) the session-wide engine.

    Writes ``$REPRO_ENGINE`` so child processes — the supervised
    experiment pool, the per-group correlation workers — inherit it.
    """
    if engine is None:
        os.environ.pop(ENGINE_ENV, None)
        return
    os.environ[ENGINE_ENV] = resolve_engine(engine)


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine name; ``None`` means the fused default."""
    if engine is None:
        return "fused"
    name = engine.strip().lower()
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return name
