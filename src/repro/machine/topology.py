"""3D torus topology of the Blue Gene/P interconnect.

Blue Gene/P nodes are connected in a 3D torus; point-to-point message
cost grows with the hop count between the communicating nodes.  Ranks
are mapped onto a near-cubic torus in x-fastest order (the machine's
default XYZT mapping with one process per node).
"""

from __future__ import annotations

__all__ = ["TorusTopology", "balanced_torus_dims"]


def balanced_torus_dims(num_nodes: int) -> tuple[int, int, int]:
    """Near-cubic factorization ``(a, b, c)`` with ``a*b*c == num_nodes``.

    Prefers factors as close together as possible; exact for powers of
    two (the partition sizes used in the paper's studies).
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    best = (1, 1, num_nodes)
    best_score = None
    for a in range(1, int(round(num_nodes ** (1 / 3))) + 2):
        if num_nodes % a:
            continue
        rem = num_nodes // a
        for b in range(a, int(rem ** 0.5) + 1):
            if rem % b:
                continue
            c = rem // b
            score = c - a  # spread; smaller is more cubic
            if best_score is None or score < best_score:
                best_score = score
                best = (a, b, c)
    return best


class TorusTopology:
    """Rank placement and hop distances on a 3D torus."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = int(num_nodes)
        self.dims = balanced_torus_dims(self.num_nodes)

    def coords(self, rank: int) -> tuple[int, int, int]:
        """Torus coordinates of a rank (x fastest)."""
        if not 0 <= rank < self.num_nodes:
            raise ValueError(f"rank {rank} out of range")
        a, b, _c = self.dims
        return (rank % a, (rank // a) % b, rank // (a * b))

    def hops(self, src: int, dest: int) -> int:
        """Minimal torus hop count between two ranks."""
        if src == dest:
            return 0
        sc = self.coords(src)
        dc = self.coords(dest)
        total = 0
        for axis in range(3):
            d = abs(sc[axis] - dc[axis])
            total += min(d, self.dims[axis] - d)
        return total
