"""Golden fixtures: ``ClusterSUT.run`` is pinned bit for bit.

``cluster_golden.json`` holds, per case, a sha256 digest of every part
of a :class:`~repro.workload.cluster.ClusterRunResult` — the layout,
the throughput, the p90 and the pass verdict, the tier utilizations
and the bottleneck, the GC counts per blade, the response samples and
the failed jobs.  Any change to the cluster model that moves a single
float or draw fails here and names the part that moved.

The cases are ``exp_cluster``'s two layouts on the sweep's quick
config, plus two configs drawn once from a seeded ``random.Random``
whose parameters are stored in the JSON: layout, rate, heap, disk and
duration, the second with blade crashes and interconnect faults so the
crash-edge, lost-hop and dropped-arrival paths run too.

Regenerate the digests (``PYTHONPATH=src:. python
tests/workload/test_cluster_golden.py``)
only for a change that is meant to move the cluster model's output,
and say so where the change is recorded.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
from pathlib import Path
from typing import Dict

import pytest

from repro.config import DiskConfig, ExperimentConfig, FaultConfig, FaultEvent
from repro.experiments.common import quick_config
from repro.experiments.exp_cluster import LAYOUTS
from repro.workload import presets
from repro.workload.cluster import ClusterLayout, ClusterRunResult, ClusterSUT
from tests.workload.test_sut_golden import _sha

GOLDEN_PATH = Path(__file__).with_name("cluster_golden.json")


def result_digests(result: ClusterRunResult) -> Dict[str, str]:
    """One digest per part of ``result``, plus ``all`` over the parts."""
    parts = {
        "layout": _sha(dataclasses.astuple(result.layout)),
        "throughput": _sha((result.jops, result.p90_web_s, result.passed)),
        "utilization": _sha(
            (sorted(result.tier_utilization.items()), result.bottleneck_tier)
        ),
        "gc": _sha(result.gc_events_per_blade),
        "responses": _sha(result.response_samples),
        "failed": _sha(result.failed_jobs),
    }
    parts["all"] = _sha(sorted(parts.items()))
    return parts


def build_case(case: Dict[str, object]):
    """The (config, layout) a golden case names or stores."""
    layout = ClusterLayout(**case["layout"])
    if case["kind"] == "quick":
        return quick_config(case["seed"]), layout
    p = case["params"]
    config = presets.jas2004(
        ir=p["injection_rate"],
        duration_s=p["duration_s"],
        disk=DiskConfig(**p["disk"]),
        seed=p["seed"],
    )
    jvm = dataclasses.replace(config.jvm, heap_mb=p["heap_mb"])
    faults = FaultConfig(events=tuple(FaultEvent(**e) for e in p["events"]))
    config: ExperimentConfig = dataclasses.replace(config, jvm=jvm, faults=faults)
    return config, layout


def draw_cases(seed: int = 20070417) -> list:
    """Draw the random cases' parameters (used only to regenerate)."""
    rng = random.Random(seed)
    cases = []
    for i, faulted in enumerate((False, True)):
        duration_s = float(rng.choice((60, 90, 120)))
        layout = {
            "web_cores": rng.randint(1, 2),
            "app_blades": rng.randint(2, 4),
            "app_cores_per_blade": rng.randint(1, 2),
            "db_cores": rng.randint(1, 2),
        }
        if rng.random() < 0.5:
            disk = {"kind": "ram", "n_disks": 1, "service_ms": 0.05}
        else:
            disk = {
                "kind": "hdd",
                "n_disks": rng.randint(1, 4),
                "service_ms": round(rng.uniform(4.0, 12.0), 2),
            }
        events = []
        if faulted:
            for kind, magnitude, target in (
                ("tier_crash", 1.0, rng.randrange(layout["app_blades"])),
                ("net_latency", round(rng.uniform(2.0, 8.0), 2), -1),
                ("net_loss", round(rng.uniform(0.05, 0.3), 2), -1),
                ("db_slowdown", round(rng.uniform(1.5, 4.0), 2), -1),
                ("gc_pressure", round(rng.uniform(50.0, 300.0), 2), -1),
                ("tier_crash", 1.0, -1),
            ):
                events.append(
                    {
                        "kind": kind,
                        "start_s": round(rng.uniform(0.2, 0.7) * duration_s, 1),
                        "duration_s": round(rng.uniform(3.0, 15.0), 1),
                        "magnitude": magnitude,
                        "target": target,
                    }
                )
        cases.append(
            {
                "name": f"drawn{i}",
                "kind": "drawn",
                "layout": layout,
                "params": {
                    "seed": rng.randrange(1, 10**6),
                    "injection_rate": rng.randrange(20, 96),
                    "heap_mb": rng.choice((384, 512, 768, 1024, 1536, 2048)),
                    "duration_s": duration_s,
                    "disk": disk,
                    "events": events,
                },
            }
        )
    return cases


def all_cases() -> list:
    cases = [
        {
            "name": f"quick2007-{name}",
            "kind": "quick",
            "seed": 2007,
            "layout": dataclasses.asdict(layout),
        }
        for name, layout in LAYOUTS.items()
    ]
    return cases + draw_cases()


def _golden() -> list:
    if not GOLDEN_PATH.exists():  # only while regenerating
        return []
    return json.loads(GOLDEN_PATH.read_text())["cases"]


@functools.lru_cache(maxsize=None)
def _run(name: str) -> ClusterRunResult:
    case = next(c for c in _golden() if c["name"] == name)
    config, layout = build_case(case)
    return ClusterSUT(config, layout).run()


@pytest.mark.parametrize("case", _golden(), ids=lambda c: c["name"])
def test_cluster_result_matches_golden(case):
    digests = result_digests(_run(case["name"]))
    moved = sorted(k for k in digests if digests[k] != case["digests"].get(k))
    assert not moved, f"{case['name']}: ClusterRunResult parts moved: {moved}"


def test_golden_covers_exp_cluster_and_the_fault_paths():
    names = [c["name"] for c in _golden()]
    assert names == [c["name"] for c in all_cases()]
    # The experiment's layouts, as it defines them today.
    for name, layout in LAYOUTS.items():
        case = next(c for c in _golden() if c["name"] == f"quick2007-{name}")
        assert ClusterLayout(**case["layout"]) == layout
    faulted = _run("drawn1")
    assert faulted.failed_jobs > 0, "no crash, lost hop or dropped arrival"


if __name__ == "__main__":
    cases = all_cases()
    for case in cases:
        config, layout = build_case(case)
        case["digests"] = result_digests(ClusterSUT(config, layout).run())
    GOLDEN_PATH.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
