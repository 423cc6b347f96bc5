"""Tests for repro.machine: torus topology and the cost model."""

import pytest

from repro.machine.bgp import BlueGenePParams
from repro.machine.costmodel import CostModel
from repro.machine.topology import TorusTopology, balanced_torus_dims


class TestTorus:
    def test_balanced_dims_product(self):
        for n in (1, 2, 8, 32, 2048, 32768):
            a, b, c = balanced_torus_dims(n)
            assert a * b * c == n

    def test_power_of_two_near_cubic(self):
        assert balanced_torus_dims(512) == (8, 8, 8)
        assert balanced_torus_dims(4096) == (16, 16, 16)

    def test_hops_symmetric_and_zero_diag(self):
        t = TorusTopology(64)
        assert t.hops(5, 5) == 0
        for a, b in [(0, 1), (3, 60), (17, 40)]:
            assert t.hops(a, b) == t.hops(b, a)
            assert t.hops(a, b) >= 1

    def test_wraparound_shortens_paths(self):
        t = TorusTopology(64)  # 4x4x4
        # ranks 0 and 3 are 3 apart linearly but 1 hop around the torus
        assert t.hops(0, 3) == 1

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            TorusTopology(8).coords(8)


class TestCostModel:
    def setup_method(self):
        self.model = CostModel(BlueGenePParams(), num_procs=64)

    def test_compute_time_monotone_in_work(self):
        small = self.model.compute_time(1000, 10, 1)
        large = self.model.compute_time(9000, 90, 9)
        assert large > small

    def test_message_time_zero_for_self(self):
        assert self.model.message_time(1000, 3, 3) == 0.0

    def test_message_time_grows_with_bytes_and_hops(self):
        t = self.model.topology
        near = next(
            d for d in range(1, 64) if t.hops(0, d) == 1
        )
        far = max(range(64), key=lambda d: t.hops(0, d))
        small_near = self.model.message_time(10, 0, near)
        big_near = self.model.message_time(10_000_000, 0, near)
        small_far = self.model.message_time(10, 0, far)
        assert big_near > small_near
        assert small_far > small_near

    def test_latency_floor(self):
        p = BlueGenePParams()
        assert self.model.message_time(0, 0, 1) >= p.latency

    def test_io_aggregate_cap(self):
        p = BlueGenePParams()
        few = CostModel(p, num_procs=4)
        many = CostModel(p, num_procs=100_000)
        # per-rank effective bandwidth shrinks once the aggregate saturates
        assert p.io_bandwidth(4) == 4 * p.io_per_process_bandwidth
        assert p.io_bandwidth(100_000) == p.io_aggregate_bandwidth
        bytes_per_rank = 10_000_000
        assert many.read_time(bytes_per_rank) > few.read_time(
            bytes_per_rank
        )

    def test_write_overhead_grows_with_procs(self):
        p = BlueGenePParams()
        t_small = CostModel(p, num_procs=32).write_time(0)
        t_large = CostModel(p, num_procs=32768).write_time(0)
        # the paper: output I/O becomes a primary limit at high P
        assert t_large > t_small

    def test_merge_time_components(self):
        zero = self.model.merge_time(0, 0, 0)
        some = self.model.merge_time(1000, 10, 10_000)
        assert zero == 0.0
        assert some > 0.0
