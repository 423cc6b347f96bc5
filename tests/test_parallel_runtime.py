"""Tests for the reference virtual MPI the rank-program oracles run on
(``tests/reference_virtual_mpi.py``; it left ``repro.parallel`` when the
last production rank program became a driver loop)."""

import numpy as np
import pytest

from tests.reference_virtual_mpi import (
    Comm,
    DeadlockError,
    VirtualMPI,
    payload_nbytes,
)


class TestComm:
    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            Comm(4, 4)
        c = Comm(1, 4)
        with pytest.raises(ValueError):
            c.send(9, "x")
        with pytest.raises(ValueError):
            c.recv(-1)

    def test_self_send_rejected(self):
        c = Comm(1, 4)
        with pytest.raises(ValueError):
            c.send(1, "x")


class TestPayloadSize:
    def test_numpy(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_bytes_and_str(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("abcd") == 4

    def test_nested(self):
        p = {"a": np.zeros(2, dtype=np.int64), "b": [b"xy", 3.0]}
        assert payload_nbytes(p) == 16 + 2 + 8

    def test_none_and_scalars(self):
        assert payload_nbytes(None) == 0
        assert payload_nbytes(7) == 8

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            payload_nbytes(object())


class TestVirtualMPI:
    def test_ring_pass(self):
        """Each rank sends its rank to the next; sum arrives intact."""

        def main(comm):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            if comm.size == 1:
                return comm.rank
            yield comm.send(nxt, comm.rank, tag=1)
            got = yield comm.recv(prv, tag=1)
            return got

        for size in (1, 2, 5, 8):
            results = VirtualMPI(size).run(main)
            assert sorted(results) == sorted(range(size))

    def test_messages_fifo_per_channel(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    yield comm.send(1, i, tag=2)
                return None
            got = []
            for _ in range(5):
                got.append((yield comm.recv(0, tag=2)))
            return got

        results = VirtualMPI(2).run(main)
        assert results[1] == [0, 1, 2, 3, 4]

    def test_tags_demultiplex(self):
        def main(comm):
            if comm.rank == 0:
                yield comm.send(1, "a", tag=10)
                yield comm.send(1, "b", tag=20)
                return None
            # receive in the opposite order of sending
            b = yield comm.recv(0, tag=20)
            a = yield comm.recv(0, tag=10)
            return (a, b)

        results = VirtualMPI(2).run(main)
        assert results[1] == ("a", "b")

    def test_barrier_synchronizes(self):
        order = []

        def main(comm):
            order.append(("pre", comm.rank))
            yield comm.barrier()
            order.append(("post", comm.rank))
            return None

        VirtualMPI(4).run(main)
        pres = [i for i, (p, _r) in enumerate(order) if p == "pre"]
        posts = [i for i, (p, _r) in enumerate(order) if p == "post"]
        assert max(pres) < min(posts)

    def test_deadlock_detected(self):
        def main(comm):
            # everyone receives, nobody sends
            yield comm.recv((comm.rank + 1) % comm.size, tag=0)

        with pytest.raises(DeadlockError, match="waiting"):
            VirtualMPI(3).run(main)

    def test_undelivered_messages_flagged(self):
        def main(comm):
            if comm.rank == 0:
                yield comm.send(1, "orphan", tag=3)
            return None
            yield  # pragma: no cover - make rank 1 a generator too

        with pytest.raises(RuntimeError, match="undelivered"):
            VirtualMPI(2).run(main)

    def test_message_log_records_bytes(self):
        def main(comm):
            if comm.rank == 0:
                yield comm.send(1, np.zeros(100, dtype=np.uint8), tag=0)
                return None
            yield comm.recv(0, tag=0)
            return None

        mpi = VirtualMPI(2)
        mpi.run(main)
        assert len(mpi.message_log) == 1
        rec = mpi.message_log[0]
        assert (rec.src, rec.dest, rec.nbytes) == (0, 1, 100)

    def test_deterministic_execution(self):
        def main(comm):
            # all-to-all, then a barrier, then a second exchange
            got = []
            for phase in (0, 1):
                for peer in range(comm.size):
                    if peer != comm.rank:
                        yield comm.send(peer, (phase, comm.rank), tag=phase)
                for peer in range(comm.size):
                    if peer != comm.rank:
                        got.append((yield comm.recv(peer, tag=phase)))
                yield comm.barrier()
            return tuple(got)

        r1 = VirtualMPI(6).run(main)
        r2 = VirtualMPI(6).run(main)
        assert r1 == r2

    def test_size_validation(self):
        with pytest.raises(ValueError):
            VirtualMPI(0)
