"""Tests for requests and the Poisson sampler."""

import random

import pytest

from repro.config import WorkloadConfig
from repro.workload.appserver import AppServer
from repro.workload.transactions import Request, poisson


@pytest.fixture()
def spec():
    return WorkloadConfig().transactions[0]


class TestPoisson:
    def test_zero_rate(self):
        assert poisson(random.Random(0), 0.0) == 0

    def test_mean_approximates_lambda(self):
        rng = random.Random(1)
        lam = 3.5
        draws = [poisson(rng, lam) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(lam, rel=0.05)

    def test_non_negative(self):
        rng = random.Random(2)
        assert all(poisson(rng, 0.3) >= 0 for _ in range(100))

    def test_small_lambda_draws_bit_compatible(self):
        """The log-space rewrite must not perturb the small-rate draws
        every shipped config produces (golden runs depend on them)."""

        def knuth(rng, lam):
            threshold = pow(2.718281828459045, -lam)
            k, p = 0, 1.0
            while True:
                p *= rng.random()
                if p <= threshold:
                    return k
                k += 1

        ours, reference = random.Random(3), random.Random(3)
        assert [poisson(ours, 2.5) for _ in range(2000)] == [
            knuth(reference, 2.5) for _ in range(2000)
        ]


class TestPoissonLargeLambda:
    """Regression: Knuth's product method underflows for lam >~ 745
    (``exp(-lam)`` is 0.0), returning a lam-independent count of ~700
    for *any* larger rate — latent breakage for high-IR scaling
    configs."""

    def test_mean_and_variance_at_lambda_800(self):
        rng = random.Random(11)
        lam = 800.0
        draws = [poisson(rng, lam) for _ in range(3000)]
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / len(draws)
        assert mean == pytest.approx(lam, rel=0.02)
        assert var == pytest.approx(lam, rel=0.15)

    def test_samples_track_lambda_beyond_underflow(self):
        # exp(-lam) underflows for both rates; the old sampler returned
        # the same garbage distribution for each.
        rng = random.Random(7)
        mean_800 = sum(poisson(rng, 800.0) for _ in range(400)) / 400
        mean_1600 = sum(poisson(rng, 1600.0) for _ in range(400)) / 400
        assert mean_800 == pytest.approx(800.0, rel=0.05)
        assert mean_1600 == pytest.approx(1600.0, rel=0.05)

    def test_mid_range_lambda_unaffected_by_switchover(self):
        rng = random.Random(13)
        lam = 200.0
        draws = [poisson(rng, lam) for _ in range(2000)]
        assert sum(draws) / len(draws) == pytest.approx(lam, rel=0.03)


class TestRequest:
    """Request state, advanced by the one scheduler: ``AppServer.serve``."""

    def make(self, spec, io_count=2, seed=3):
        return Request(0, spec, arrival_s=10.0, rng=random.Random(seed), io_count=io_count)

    def serve(self, request, capacity_ms=1000.0):
        server = AppServer(WorkloadConfig(), n_cores=4)
        server.admit(request)
        return server, server.serve(capacity_ms)

    def test_demand_jittered_around_spec(self, spec):
        demands = [self.make(spec, seed=i).total_cpu_ms for i in range(200)]
        mean = sum(demands) / len(demands)
        assert mean == pytest.approx(spec.total_cpu_ms, rel=0.1)

    def test_demand_draw_matches_uniform(self, spec):
        """The inlined jitter draws exactly what rng.uniform(0.7, 1.35)
        would, followed by the sorted I/O points."""
        rng = random.Random(9)
        total = spec.total_cpu_ms * rng.uniform(0.7, 1.35)
        points = sorted(rng.random() for _ in range(4))
        request = self.make(spec, io_count=4, seed=9)
        assert request.total_cpu_ms == total
        assert request.io_thresholds == [p * total for p in points]

    def test_consume_until_done(self, spec):
        request = self.make(spec, io_count=0)
        _, (completed, ios, _, _, used) = self.serve(request)
        assert completed == [request] and ios == []
        assert request.consumed_cpu_ms == request.total_cpu_ms
        assert used == request.total_cpu_ms

    def test_io_points_interrupt(self, spec):
        request = self.make(spec, io_count=2)
        server, (completed, ios, *_) = self.serve(request)
        assert ios == [request] and completed == []
        assert request.in_io
        assert request.next_io == 1
        assert request.consumed_cpu_ms == request.io_thresholds[0]
        # A request waiting on I/O is not runnable: serving again leaves
        # it untouched.
        consumed = request.consumed_cpu_ms
        assert server.serve(1000.0)[4] == 0.0
        assert request.consumed_cpu_ms == consumed
        request.io_complete()
        assert not request.in_io

    def test_all_io_points_eventually_consumed(self, spec):
        request = self.make(spec, io_count=3)
        server = AppServer(WorkloadConfig(), n_cores=4)
        server.admit(request)
        for _ in range(10):
            completed, ios, *_ = server.serve(1000.0)
            if completed:
                break
            for blocked in ios:
                blocked.io_complete()
            server.resume_all(ios)
        assert completed == [request]
        assert request.next_io == len(request.io_thresholds) == 3
        assert request.consumed_cpu_ms >= request.total_cpu_ms

    def test_response_time(self, spec):
        request = self.make(spec)
        assert request.response_time_s(10.5) == pytest.approx(0.5)

    def test_io_complete_requires_waiting(self, spec):
        request = self.make(spec, io_count=0)
        with pytest.raises(RuntimeError):
            request.io_complete()

    def test_no_capacity_consumes_nothing(self, spec):
        request = self.make(spec)
        for capacity_ms in (0.0, -1.0):
            _, (completed, ios, _, _, used) = self.serve(request, capacity_ms)
            assert (completed, ios, used) == ([], [], 0.0)
            assert request.consumed_cpu_ms == 0.0

    def test_no_io_points_never_blocks(self, spec):
        request = self.make(spec, io_count=0)
        server = AppServer(WorkloadConfig(), n_cores=4)
        server.admit(request)
        # A quantum far below the demand: the request runs on, never
        # suspending into I/O, until its CPU is consumed.
        for _ in range(1000):
            completed, ios, *_ = server.serve(1.0)
            assert ios == []
            if completed:
                break
        assert completed == [request]
