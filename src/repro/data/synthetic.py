"""Synthetic scalar fields of controlled size and complexity (§VI-B).

"We generated synthetic datasets of various size and complexity by
computing a sinusoidal scalar field.  The data are 3D 32-bit floating
point values, on a cubic grid of a given number of points per side of the
cube. ... The complexity, or number of features per side, is how many
times the sine function has a ±1 value along the length of one side of
the volume."

:func:`sinusoidal_field` reproduces that family: a product of per-axis
sines whose frequency puts ``features_per_side`` extrema along each axis,
so the expected number of significant maxima scales as
``features_per_side**3 / 2`` independent of the sampling resolution.
"""

from __future__ import annotations

import numpy as np

from repro.io.volume import VolumeSpec, write_volume_slabs

__all__ = [
    "sinusoidal_field",
    "gaussian_bumps_field",
    "expected_extrema",
    "write_volume_chunked",
]


def sinusoidal_field(
    points_per_side: int,
    features_per_side: int,
    dims: tuple[int, int, int] | None = None,
    phase: float = 0.0,
    tilt: float = 1e-4,
    dtype=np.float32,
) -> np.ndarray:
    """The paper's sinusoidal test family.

    Parameters
    ----------
    points_per_side:
        Samples per axis (cubic volume unless ``dims`` given); "512 points
        per side represents a 512x512x512 volume".
    features_per_side:
        How many times the per-axis sine reaches ±1 along one side.
    dims:
        Optional non-cubic dims overriding ``points_per_side``.
    phase:
        Phase offset, useful for generating decorrelated variants.
    tilt:
        Amplitude of a tiny linear ramp added to break the exact value
        ties of the product-of-sines field (its symmetry repeats the
        same sample values across the whole volume).  Massive ties drive
        long zero-persistence cancellation chains and parallel-arc
        growth during simplification — an artifact of perfect symmetry
        that real simulation data never has.  Set to 0 to study the
        fully degenerate field.

    Returns
    -------
    float array (32-bit by default, as in the paper) indexed ``[i, j, k]``.
    """
    if features_per_side < 1:
        raise ValueError("features_per_side must be >= 1")
    shape = dims if dims is not None else (points_per_side,) * 3
    if any(n < 2 for n in shape):
        raise ValueError(f"volume dims too small: {shape}")
    # the whole field is the one slab spanning every z plane
    f = next(_sinusoid_slabs(shape, features_per_side, phase, tilt, shape[2]))
    return f.astype(dtype, copy=False)


def expected_extrema(features_per_side: int) -> int:
    """Rough expected count of maxima of the sinusoidal field.

    The product of three sines with ``k`` extrema per axis has about
    ``k**3`` local extrema, half of which are maxima.  Used by benches to
    sanity-check measured feature counts.
    """
    return max(1, features_per_side**3 // 2)


def gaussian_bumps_field(
    dims: tuple[int, int, int],
    num_bumps: int,
    seed: int = 0,
    width: float = 0.12,
    noise: float = 0.0,
) -> np.ndarray:
    """Sum of randomly placed Gaussian bumps (smooth, feature-countable).

    A convenient test field: smooth (few spurious critical points), with
    a controllable number of well-separated maxima.  Optional white noise
    of amplitude ``noise`` exercises simplification.
    """
    rng = np.random.default_rng(seed)
    # the whole field is the one slab spanning every z plane; the noise
    # is drawn after the bumps, from the same generator
    f = next(_bumps_slabs(dims, rng, num_bumps, width, dims[2]))
    if noise > 0:
        f = f + rng.normal(0.0, noise, size=dims)
    return f


# ---------------------------------------------------------------------------
# chunked generation: paper-scale volumes without materializing them
# ---------------------------------------------------------------------------


def _sinusoid_slabs(shape, features_per_side, phase, tilt, slab_depth):
    """Z-slabs of :func:`sinusoidal_field` as float64, bit-identical to
    slices of the whole field (every term is separable per axis, so a
    slab is the full outer product restricted to its z range)."""
    k = features_per_side
    # sin(pi*k*t + pi/2k) hits +-1 exactly k times on t in [0, 1]
    axes = [
        np.sin(np.pi * k * np.linspace(0.0, 1.0, n) + np.pi / (2 * k) + phase)
        for n in shape
    ]
    ramps = [np.linspace(0.0, (a + 1) * tilt, n) for a, n in enumerate(shape)]
    for z0 in range(0, shape[2], slab_depth):
        z1 = min(z0 + slab_depth, shape[2])
        # one array, updated in place: the same operations in the same
        # order as ``a0 * a1 * a2 + r0 + r1 + r2``, so the same bytes
        f = axes[0][:, None, None] * axes[1][None, :, None]
        f = f * axes[2][None, None, z0:z1]
        if tilt:
            f += ramps[0][:, None, None]
            f += ramps[1][None, :, None]
            f += ramps[2][None, None, z0:z1]
        yield f


def _bumps_slabs(dims, rng, num_bumps, width, slab_depth):
    """Z-slabs of :func:`gaussian_bumps_field` without its noise,
    bit-identical to slices of the whole field (centers and amplitudes
    are drawn from ``rng`` once, before the first slab, and each sample
    is an elementwise function of its own coordinates)."""
    grids = [np.linspace(0.0, 1.0, n) for n in dims]
    centers = rng.uniform(0.15, 0.85, size=(num_bumps, 3))
    amps = rng.uniform(0.5, 1.0, size=num_bumps)
    for z0 in range(0, dims[2], slab_depth):
        z1 = min(z0 + slab_depth, dims[2])
        X, Y, Z = np.meshgrid(
            grids[0], grids[1], grids[2][z0:z1], indexing="ij"
        )
        f = np.zeros((dims[0], dims[1], z1 - z0))
        for (cx, cy, cz), a in zip(centers, amps):
            f += a * np.exp(
                -((X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2)
                / width**2
            )
        yield f


def write_volume_chunked(
    path,
    kind: str = "sinusoid",
    *,
    dims: tuple[int, int, int] | None = None,
    points_per_side: int | None = None,
    features_per_side: int = 4,
    phase: float = 0.0,
    tilt: float = 1e-4,
    num_bumps: int = 16,
    seed: int = 0,
    width: float = 0.12,
    noise: float = 0.0,
    dtype: str = "float32",
    slab_depth: int = 16,
) -> VolumeSpec:
    """Stream a synthetic volume to disk slab-by-slab.

    Generates the same fields as :func:`sinusoidal_field`
    (``kind="sinusoid"``) and :func:`gaussian_bumps_field`
    (``kind="bumps"``) but computes only ``slab_depth`` z-planes at a
    time and appends them through
    :func:`repro.io.volume.write_volume_slabs` — so a paper-scale
    volume (the 1152³ Rayleigh-Taylor regime is ~5.7 GiB at float32)
    is written with a few MiB of peak memory.  The file is
    byte-identical to materializing the whole field (at the file's
    ``dtype`` precision) and calling
    :func:`~repro.io.volume.write_volume`: both field families are
    elementwise in their own coordinates (sinusoid terms are separable
    per axis; bump centers are drawn before any samples), so a slab
    equals the corresponding slice of the whole array.

    ``kind="bumps"`` with ``noise > 0`` raises :class:`ValueError`:
    whole-volume noise is drawn in one ``rng.normal(size=dims)`` call
    whose draw order cannot be reproduced slab-by-slab.

    Pass ``dims`` for an arbitrary box or ``points_per_side`` for a
    cube (exactly one of the two).  Returns the
    :class:`~repro.io.volume.VolumeSpec` of the written file.
    """
    if (dims is None) == (points_per_side is None):
        raise ValueError("pass exactly one of dims or points_per_side")
    shape = (
        tuple(int(n) for n in dims)
        if dims is not None
        else (int(points_per_side),) * 3
    )
    if len(shape) != 3 or any(n < 2 for n in shape):
        raise ValueError(f"volume dims too small: {shape}")
    if slab_depth < 1:
        raise ValueError("slab_depth must be >= 1")
    if kind == "sinusoid":
        if features_per_side < 1:
            raise ValueError("features_per_side must be >= 1")
        slabs = _sinusoid_slabs(
            shape, features_per_side, phase, tilt, slab_depth
        )
    elif kind == "bumps":
        if noise > 0:
            raise ValueError(
                "bumps noise cannot be generated chunked: the whole-"
                "volume rng draw order is not reproducible per slab; "
                "use gaussian_bumps_field + write_volume instead"
            )
        slabs = _bumps_slabs(
            shape, np.random.default_rng(seed), num_bumps, width, slab_depth
        )
    else:
        raise ValueError(
            f"unknown field kind {kind!r}: choose one of "
            f"{{sinusoid, bumps}}"
        )
    return write_volume_slabs(path, shape, slabs, dtype=dtype)
