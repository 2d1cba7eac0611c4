"""Engine selection for the window-execution layer.

Two engines execute sampling windows, bit-identically:

* ``native`` — the default: the window kernel compiled to C
  (:mod:`repro.cpu.native`, cffi + the system compiler), objprof
  attribution included.  It needs a one-time build per host; when that
  is impossible (no cffi, no compiler, no writable cache) or a slice
  cannot run in C (a subclassed or patched collaborator, a draw bound
  over 32 bits) the window runs on the generic Python path of
  :class:`~repro.cpu.stream.SliceRunner` instead, and
  :func:`effective_engine` / :data:`repro.cpu.native.DECLINED` say why;
* ``reference`` — :class:`~repro.cpu.reference.ReferenceCoreModel`,
  the pinned specification; always the generic path.  It also keeps
  the workload tick loop in Python (:mod:`repro.workload.native_tick`
  runs it in C under ``native``).

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
ENGINES: Tuple[str, ...] = ("native", "reference")

#: Environment variable carrying the session-wide engine choice.
ENGINE_ENV = "REPRO_ENGINE"


def default_engine() -> str:
    """The requested engine: ``$REPRO_ENGINE`` or ``native``.

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
    """Validate an engine name; ``None`` means the native default."""
    if engine is None:
        return "native"
    name = engine.strip().lower()
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return name


def effective_engine() -> Tuple[str, Optional[str]]:
    """The engine windows run on, and why it is not the requested one.

    ``("native", None)`` when the compiled kernel is loaded, else
    ``("generic", <reason>)`` for a ``native`` request; ``reference``
    runs as asked, with no reason.
    """
    requested = default_engine()
    if requested != "native":
        return requested, None
    from repro.cpu import native

    reason = native.load()
    return ("native", None) if reason is None else ("generic", reason)


def core_model_class():
    """The core class for the requested engine.

    :class:`~repro.cpu.reference.ReferenceCoreModel` for ``reference``;
    the stock :class:`~repro.cpu.core_model.CoreModel` otherwise, whose
    slice runner picks native or the generic path per slice.
    """
    if default_engine() == "reference":
        from repro.cpu.reference import ReferenceCoreModel

        return ReferenceCoreModel
    from repro.cpu.core_model import CoreModel

    return CoreModel
