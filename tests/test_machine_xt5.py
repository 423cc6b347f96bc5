"""Tests for repro.machine.xt5: the Jaguar parameter set."""

from repro.machine.bgp import BlueGenePParams
from repro.machine.costmodel import CostModel
from repro.machine.xt5 import jaguar_xt5


def test_same_schema_as_bgp():
    xt5 = jaguar_xt5()
    assert isinstance(xt5, BlueGenePParams)


def test_xt5_computes_faster():
    bgp = CostModel(BlueGenePParams(), num_procs=64)
    xt5 = CostModel(jaguar_xt5(), num_procs=64)
    work = (1_000_000, 100_000, 1_000)  # cells, V-path cells, cancellations
    assert xt5.compute_time(*work) < bgp.compute_time(*work) / 5


def test_xt5_network_faster_but_not_as_much():
    """Compute speeds up ~10x, network ~20x on bandwidth but latency is
    higher — so the *relative* cost of small-message communication grows
    on XT5, which is what moves the merge/compute crossover."""
    bgp = CostModel(BlueGenePParams(), num_procs=64)
    xt5 = CostModel(jaguar_xt5(), num_procs=64)
    work = (1_000_000, 0, 0)
    compute_speedup = bgp.compute_time(*work) / xt5.compute_time(*work)
    small_message = 10_000  # bytes
    msg_speedup = bgp.message_time(small_message, 0, 1) / xt5.message_time(
        small_message, 0, 1
    )
    assert compute_speedup > msg_speedup


def test_xt5_io_faster():
    bgp = CostModel(BlueGenePParams(), num_procs=1024)
    xt5 = CostModel(jaguar_xt5(), num_procs=1024)
    assert xt5.read_time(100_000_000) < bgp.read_time(100_000_000)
