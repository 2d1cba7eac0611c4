"""End-to-end self-characterization run (sampling a real study)."""

from __future__ import annotations

import pytest

from repro.perf.flatprofile import FlatProfile
from repro.perf.sampler import self_profile

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def profile():
    # A fine interval so even a fast run collects a usable sample set;
    # 40 windows last ~0.1 s on the native engine (8 took 20 ms there,
    # too few 1 ms ticks for the >= 10 samples asserted below).
    return self_profile(windows=40, interval_s=0.001)


class TestSelfProfile:
    def test_samples_were_captured(self, profile):
        assert len(profile.log) >= 10
        assert profile.flat.total_samples == len(profile.log)

    def test_hot_frames_are_in_the_simulator(self, profile):
        files = {e.frame.file for e in profile.flat.entries[:5]}
        assert any("repro" in f for f in files)

    def test_span_attribution_covers_most_samples(self, profile):
        # The sampled region runs under observe(): nearly every sample
        # should land inside some wall span (cpu/hpm/...).
        attributed = sum(profile.spans.by_category.values())
        assert attributed + profile.spans.unattributed == len(profile.log)
        assert attributed >= 0.5 * len(profile.log)

    def test_render_combines_flat_and_spans(self, profile):
        text = "\n".join(profile.render_lines(top_n=5))
        assert "Self flat profile" in text
        assert "Host time by obs span category" in text

    def test_flamegraph_export_nonempty(self, tmp_path, profile):
        lines = FlatProfile.collapsed_stacks(profile.log)
        assert lines
        total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        assert total == sum(1 for s in profile.log.samples if s.frames)
