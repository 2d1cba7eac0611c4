"""Tests for the driver, web server and application server."""

import random

import pytest

from repro.config import WorkloadConfig
from repro.workload.appserver import AppServer
from repro.workload.driver import Driver
from repro.workload.timeline import COMPONENTS
from repro.workload.transactions import Request
from repro.workload.webserver import WebServer


@pytest.fixture()
def config():
    return WorkloadConfig(duration_s=100.0, ramp_up_s=20.0, ramp_down_s=10.0)


class TestDriver:
    def test_arrival_rate_matches_ir(self, config):
        driver = Driver(config, random.Random(0))
        total = 0
        n_ticks = 3000
        for i in range(n_ticks):
            total += sum(driver.arrivals(50.0))  # steady region
        rate = total / (n_ticks * config.tick_s)
        assert rate == pytest.approx(config.target_ops_per_s, rel=0.05)

    def test_ramp_envelope(self, config):
        driver = Driver(config, random.Random(0))
        assert driver.load_factor(0.0) == 0.0
        assert driver.load_factor(10.0) == pytest.approx(0.5)
        assert driver.load_factor(50.0) == 1.0
        assert driver.load_factor(95.0) == pytest.approx(0.5)

    def test_ramp_edges(self, config):
        driver = Driver(config, random.Random(0))
        assert driver.load_factor(0.0) == 0.0
        # Exactly at the ramp-up boundary the envelope is already full.
        assert driver.load_factor(config.ramp_up_s) == 1.0
        assert driver.load_factor(config.ramp_up_s - 1e-9) < 1.0
        down_start = config.duration_s - config.ramp_down_s
        assert driver.load_factor(down_start) == 1.0
        assert driver.load_factor(down_start + 1e-6) < 1.0
        assert driver.load_factor(config.duration_s) == 0.0

    def test_no_ramp_down(self):
        config = WorkloadConfig(duration_s=100.0, ramp_up_s=20.0, ramp_down_s=0.0)
        driver = Driver(config, random.Random(0))
        assert driver.load_factor(99.9) == 1.0
        assert driver.load_factor(100.0) == 1.0

    def test_no_ramp_up(self):
        config = WorkloadConfig(duration_s=100.0, ramp_up_s=0.0, ramp_down_s=10.0)
        driver = Driver(config, random.Random(0))
        assert driver.load_factor(0.0) == 1.0

    def test_arrivals_count_first_attempts_only(self, config):
        driver = Driver(config, random.Random(0))
        total = sum(sum(driver.arrivals(50.0)) for _ in range(100))
        assert driver.first_attempts == total
        assert total > 0
        # Retries (when a policy is active) never pass through arrivals.
        assert driver.due_retries(1e9) == []
        assert driver.first_attempts == total

    def test_mix_follows_shares(self, config):
        driver = Driver(config, random.Random(1))
        counts = [0] * len(config.transactions)
        for _ in range(20000):
            for k, n in enumerate(driver.arrivals(50.0)):
                counts[k] += n
        total = sum(counts)
        for k, spec in enumerate(config.transactions):
            assert counts[k] / total == pytest.approx(spec.share, abs=0.02)


class TestWebServer:
    def test_routing_counts_by_protocol(self, config):
        web = WebServer(random.Random(2))
        for spec in config.transactions:
            web.route(spec)
        assert web.web_requests == 3  # Browse, Purchase, Manage
        assert web.rmi_requests == 1  # WorkOrder

    def test_overhead_scales_by_protocol(self, config):
        web = WebServer(random.Random(3))
        http = config.transactions[0]
        rmi = next(t for t in config.transactions if t.protocol == "rmi")
        http_overheads = [web.response_overhead_s(http) for _ in range(100)]
        rmi_overheads = [web.response_overhead_s(rmi) for _ in range(100)]
        assert sum(http_overheads) > sum(rmi_overheads)


class TestAppServer:
    def make_request(self, config, seed=0, io_count=0):
        return Request(0, config.transactions[0], 0.0, random.Random(seed), io_count)

    def test_serves_and_completes(self, config):
        server = AppServer(config, n_cores=4)
        request = self.make_request(config)
        server.admit(request)
        completed, ios, by_comp, by_type, used = server.serve(1000.0)
        assert completed == [request]
        assert used == pytest.approx(request.total_cpu_ms)
        assert sum(by_comp) == pytest.approx(used)
        assert by_type[0] == pytest.approx(used)

    def test_component_attribution_follows_spec(self, config):
        server = AppServer(config, n_cores=4)
        server.admit(self.make_request(config))
        _, _, by_comp, _, used = server.serve(1000.0)
        spec = config.transactions[0]
        for i, name in enumerate(COMPONENTS):
            expected = spec.cpu_ms.get(name, 0.0) / spec.total_cpu_ms
            assert by_comp[i] / used == pytest.approx(expected, rel=1e-6)

    def test_thread_pool_limits_concurrency(self):
        config = WorkloadConfig(thread_pool=2)
        server = AppServer(config, n_cores=4)
        for i in range(5):
            server.admit(self.make_request(config, seed=i))
        # A tiny quantum: only the two pooled requests make progress.
        server.serve(0.001)
        assert len(server.running) == 2
        assert len(server.accept_queue) == 3

    def test_io_blocking(self, config):
        server = AppServer(config, n_cores=4)
        request = self.make_request(config, io_count=1)
        server.admit(request)
        completed, ios, *_ = server.serve(1000.0)
        assert not completed
        assert ios == [request]
        assert server.io_blocked == 1
        request.io_complete()  # the disk model does this on completion
        server.resume_all([request])
        assert server.io_blocked == 0
        completed, *_ = server.serve(1000.0)
        assert completed == [request]

    def test_capacity_is_respected(self, config):
        server = AppServer(config, n_cores=4)
        for i in range(20):
            server.admit(self.make_request(config, seed=i))
        _, _, _, _, used = server.serve(50.0)
        assert used <= 50.0 + 1e-6

    def test_processor_sharing_fairness(self, config):
        """Equal requests make similar progress under sharing."""
        server = AppServer(config, n_cores=4)
        a = self.make_request(config, seed=1)
        b = self.make_request(config, seed=1)
        server.admit(a)
        server.admit(b)
        server.serve(10.0)
        assert a.consumed_cpu_ms == pytest.approx(b.consumed_cpu_ms, rel=0.01)
