"""Tests for the disk model and the database tier."""

import random

import pytest

from repro.config import DiskConfig, WorkloadConfig
from repro.workload.appserver import AppServer
from repro.workload.database import Database
from repro.workload.disk import DiskModel
from repro.workload.transactions import Request


def make_request(seed=0, io_count=1):
    cfg = WorkloadConfig()
    request = Request(0, cfg.transactions[0], 0.0, random.Random(seed), io_count)
    server = AppServer(cfg, n_cores=4)
    server.admit(request)
    _, ios, *_ = server.serve(1000.0)  # drive it into I/O
    assert ios == [request] and request.in_io
    return request


class TestDiskModel:
    def test_ram_disk_completes_immediately(self):
        disk = DiskModel(DiskConfig.ram_disk(), tick_s=0.1)
        disk.submit_all([make_request()])
        assert len(disk.tick()) == 1

    def test_hard_disk_throughput_bounded(self):
        disk = DiskModel(DiskConfig.hard_disks(1, service_ms=10.0), tick_s=0.1)
        disk.submit_all([make_request(seed=i) for i in range(30)])
        done = disk.tick()
        # 100 ms tick / 10 ms service = 10 requests max.
        assert len(done) == 10
        assert disk.queue_length == 20

    def test_more_disks_more_throughput(self):
        one = DiskModel(DiskConfig.hard_disks(1, 10.0), 0.1)
        four = DiskModel(DiskConfig.hard_disks(4, 10.0), 0.1)
        one.submit_all([make_request(seed=i) for i in range(50)])
        four.submit_all([make_request(seed=100 + i) for i in range(50)])
        assert len(four.tick()) == len(one.tick()) * 4

    def test_fifo_order(self):
        disk = DiskModel(DiskConfig.hard_disks(1, 60.0), tick_s=0.1)
        first = make_request(seed=1)
        second = make_request(seed=2)
        disk.submit_all([first, second])
        done = disk.tick()
        assert done == [first]

    def test_utilization_accounting(self):
        disk = DiskModel(DiskConfig.hard_disks(2, 10.0), tick_s=0.1)
        disk.submit_all([make_request(seed=i) for i in range(10)])
        disk.tick()
        assert 0.0 < disk.utilization(1) <= 1.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DiskConfig(kind="tape")
        with pytest.raises(ValueError):
            DiskConfig(kind="hdd", n_disks=0)

    def test_fault_clear_does_not_bank_degraded_carry(self):
        """Regression: the carry-over cap must use the un-degraded
        service quantum.  Capping against the fault-inflated quantum
        let the model bank several healthy quanta of free capacity,
        paid out as a completion burst the tick a disk_degraded fault
        cleared."""
        disk = DiskModel(DiskConfig.hard_disks(1, service_ms=40.0), tick_s=0.1)
        disk.submit_all([make_request(seed=i) for i in range(10)])
        disk.service_factor = 3.0  # degraded service: 120 ms > the tick
        assert disk.tick() == []  # tick's 100 ms cannot finish one I/O
        disk.service_factor = 1.0  # fault clears
        burst = disk.tick()
        # At most one healthy quantum (40 ms) carries over: the first
        # healthy tick serves floor((100 + 40) / 40) = 3 requests — not
        # the 5 that carrying min(100, 120) = 100 ms used to allow.
        assert len(burst) == 3

    def test_healthy_carry_still_preserved(self):
        """The fix must not change fault-free carry behavior: residual
        budget up to one quantum still rolls into the next tick."""
        disk = DiskModel(DiskConfig.hard_disks(1, service_ms=30.0), tick_s=0.1)
        disk.submit_all([make_request(seed=i) for i in range(10)])
        assert len(disk.tick()) == 3  # 100 // 30, residual 10 ms kept
        assert len(disk.tick()) == 3  # (10 + 100) // 30
        assert len(disk.tick()) == 4  # (20 + 100) // 30


class TestDatabase:
    def make_db(self, ir=40, hit=0.72, seed=5):
        import dataclasses

        cfg = dataclasses.replace(
            WorkloadConfig(), injection_rate=ir, buffer_pool_hit=hit
        )
        return Database(cfg, random.Random(seed))

    def test_miss_rate_tracks_hit_ratio(self):
        db = self.make_db(hit=0.72)
        spec = WorkloadConfig().transactions[0]
        for _ in range(800):
            db.plan_ios(spec)
        assert db.observed_hit_ratio == pytest.approx(0.72, abs=0.03)

    def test_higher_ir_means_bigger_data_and_lower_hits(self):
        low = self.make_db(ir=40)
        high = self.make_db(ir=80)
        assert high.data_scale > low.data_scale
        assert high.effective_hit_ratio < low.effective_hit_ratio

    def test_plan_ios_counts(self):
        db = self.make_db()
        spec = WorkloadConfig().transactions[0]
        ios = db.plan_ios(spec)
        assert ios >= 0
        assert db.queries_issued > 0

    def test_hit_ratio_bounds(self):
        assert 0.3 <= self.make_db(ir=1000).effective_hit_ratio <= 0.98
