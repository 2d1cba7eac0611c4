"""Golden fixtures: ``SystemUnderTest.run`` is pinned bit for bit.

``sut_golden.json`` holds, per config, a sha256 digest of every part of
a :class:`~repro.workload.sut.RunResult` — the tick records, the GC
events, the responses, the rejected counts, the DB/disk figures, the
final heap and the resilience stats.  Any change to the tick loop that
moves a single float or draw fails here and names the part that moved.

The configs are the :mod:`repro.workload.presets` presets (shortened by
``scaled_for_tests``), the quick config, and a handful of configs drawn
once from a seeded ``random.Random`` whose parameters are stored in the
JSON: rate, heap, disks, a tighter admission limit, and faults (tier
crash, DB slowdown, disk degradation, GC pressure) with retry and
brownout, so the crash ``drop_all`` and brownout shed paths run too.

The digests were generated from the tick loop before its inlined
rewrite.  Regenerate them (``python tests/workload/test_sut_golden.py``)
only for a change that is meant to move the simulation's output, and
say so where the change is recorded.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import random
from pathlib import Path
from typing import Dict

import pytest

from repro.config import (
    DegradationPolicy,
    DiskConfig,
    ExperimentConfig,
    FaultConfig,
    FaultEvent,
    RetryPolicy,
)
from repro.experiments.common import quick_config
from repro.workload import presets
from repro.workload.sut import RunResult, SystemUnderTest

GOLDEN_PATH = Path(__file__).with_name("sut_golden.json")

PRESETS = (
    "jas2004",
    "jas2004_sovereign",
    "jbb2000_like",
    "jvm98_like",
    "tpcw_like",
    "trade6",
)


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def _sha(value: object) -> str:
    # repr() of a float is its shortest round-trip form, so equal
    # digests mean bit-identical floats.
    return hashlib.sha256(repr(value).encode()).hexdigest()


def result_digests(result: RunResult) -> Dict[str, str]:
    """One digest per part of ``result``, plus ``all`` over the parts."""
    timeline = result.timeline
    parts = {
        "timeline": _sha(
            (
                timeline.tick_s,
                timeline.tx_names,
                timeline.n_cores,
                [dataclasses.astuple(r) for r in timeline.records],
            )
        ),
        "gc_events": _sha([dataclasses.astuple(e) for e in result.gc_events]),
        "responses": _sha(result.responses),
        "rejected": _sha(result.rejected),
        "db_disk": _sha(
            (result.db_hit_ratio, result.disk_utilization, result.disk_mean_queue)
        ),
        "heap": _sha((result.final_heap_used, result.final_dark_matter)),
        "resilience": _sha(dataclasses.astuple(result.resilience)),
    }
    parts["all"] = _sha(sorted(parts.items()))
    return parts


# ----------------------------------------------------------------------
# Configs
# ----------------------------------------------------------------------
def build_config(case: Dict[str, object]) -> ExperimentConfig:
    """The config a golden case names (presets) or stores (drawn)."""
    kind = case["kind"]
    if kind == "quick":
        return quick_config(case["seed"])
    if kind == "preset":
        return presets.scaled_for_tests(getattr(presets, case["preset"])())
    p = case["params"]
    disk = DiskConfig(**p["disk"])
    config = presets.jas2004(
        ir=p["injection_rate"], duration_s=p["duration_s"], disk=disk, seed=p["seed"]
    )
    workload = dataclasses.replace(config.workload, max_in_flight=p["max_in_flight"])
    jvm = dataclasses.replace(config.jvm, heap_mb=p["heap_mb"])
    faults = FaultConfig(
        events=tuple(FaultEvent(**e) for e in p["events"]),
        retry=RetryPolicy(**p["retry"]) if p["retry"] else RetryPolicy(),
        degradation=(
            DegradationPolicy(**p["degradation"])
            if p["degradation"]
            else DegradationPolicy()
        ),
    )
    return dataclasses.replace(config, workload=workload, jvm=jvm, faults=faults)


#: Fault scenario of each drawn config, in order.
_SCENARIOS = (
    (),
    ("tier_crash", "retry"),
    ("db_slowdown", "retry"),
    ("brownout",),
    ("tier_crash", "retry", "brownout"),
    ("disk_degraded", "gc_pressure"),
    ("db_slowdown", "brownout"),
    ("tier_crash", "db_slowdown", "gc_pressure", "retry", "brownout"),
)

_MAGNITUDE = {
    "tier_crash": (1.0, 1.0),
    "db_slowdown": (1.5, 4.0),
    "disk_degraded": (2.0, 6.0),
    "gc_pressure": (50.0, 300.0),
}


def draw_cases(seed: int = 20070414) -> list:
    """Draw the random configs' parameters (used only to regenerate)."""
    rng = random.Random(seed)
    cases = []
    for i, scenario in enumerate(_SCENARIOS):
        duration_s = float(rng.choice((60, 90, 120)))
        if rng.random() < 0.5:
            disk = {"kind": "ram", "n_disks": 1, "service_ms": 0.05}
        else:
            disk = {
                "kind": "hdd",
                "n_disks": rng.randint(1, 4),
                "service_ms": round(rng.uniform(4.0, 12.0), 2),
            }
        events = []
        for kind in scenario:
            if kind not in _MAGNITUDE:
                continue
            low, high = _MAGNITUDE[kind]
            events.append(
                {
                    "kind": kind,
                    "start_s": round(rng.uniform(0.2, 0.6) * duration_s, 1),
                    "duration_s": round(rng.uniform(3.0, 15.0), 1),
                    "magnitude": round(rng.uniform(low, high), 2),
                }
            )
        retry = None
        if "retry" in scenario:
            retry = {
                "enabled": True,
                "timeout_web_s": round(rng.uniform(1.0, 6.0), 2),
                "timeout_rmi_s": round(rng.uniform(2.0, 10.0), 2),
                "max_attempts": rng.randint(2, 5),
                "retry_budget": round(rng.uniform(0.1, 0.6), 2),
            }
        degradation = None
        if "brownout" in scenario:
            degradation = {
                "enabled": True,
                "brownout_threshold": round(rng.uniform(0.3, 0.6), 2),
                "sustain_ticks": rng.randint(2, 8),
            }
        cases.append(
            {
                "name": f"drawn{i}",
                "kind": "drawn",
                "params": {
                    "seed": rng.randrange(1, 10**6),
                    "injection_rate": rng.randrange(20, 96),
                    "heap_mb": rng.choice((384, 512, 768, 1024, 1536, 2048)),
                    "duration_s": duration_s,
                    "disk": disk,
                    "max_in_flight": (
                        rng.randrange(120, 400) if degradation else 1500
                    ),
                    "events": events,
                    "retry": retry,
                    "degradation": degradation,
                },
            }
        )
    return cases


def all_cases() -> list:
    cases = [{"name": "quick2007", "kind": "quick", "seed": 2007}]
    cases += [{"name": name, "kind": "preset", "preset": name} for name in PRESETS]
    return cases + draw_cases()


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def _golden() -> list:
    if not GOLDEN_PATH.exists():  # only while regenerating
        return []
    return json.loads(GOLDEN_PATH.read_text())["cases"]


@functools.lru_cache(maxsize=None)
def _run(name: str) -> RunResult:
    case = next(c for c in _golden() if c["name"] == name)
    return SystemUnderTest(build_config(case)).run()


@pytest.mark.parametrize("case", _golden(), ids=lambda c: c["name"])
def test_run_result_matches_golden(case):
    digests = result_digests(_run(case["name"]))
    moved = sorted(k for k in digests if digests[k] != case["digests"].get(k))
    assert not moved, f"{case['name']}: RunResult parts moved: {moved}"


def test_golden_covers_every_preset_and_the_fault_paths():
    names = [c["name"] for c in _golden()]
    assert names == [c["name"] for c in all_cases()]
    assert set(PRESETS) <= set(names)
    drawn = [_run(c["name"]) for c in _golden() if c["kind"] == "drawn"]
    stats = [r.resilience for r in drawn]
    assert any(s.down_ticks for s in stats), "no crash (drop_all) exercised"
    assert any(sum(s.shed) for s in stats), "no brownout shedding exercised"
    assert any(sum(s.timeouts) for s in stats), "no client timeout exercised"
    assert any(sum(s.retries) for s in stats), "no retry exercised"
    assert any(sum(r.rejected) for r in drawn), "no admission rejection"
    assert any(r.config.workload.disk.kind == "hdd" for r in drawn)


if __name__ == "__main__":
    cases = all_cases()
    for case in cases:
        case["digests"] = result_digests(SystemUnderTest(build_config(case)).run())
    GOLDEN_PATH.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
