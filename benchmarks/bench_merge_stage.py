"""Merge-stage benchmark: glue, re-simplify, and round wall times.

Times the three layers the merge-stage overhaul touches, against block
count and radix:

- ``glue_*``: the boundary-join kernel (:func:`repro.core.glue.glue_into`)
  gluing two half-domain complexes, and a radix-8 root absorbing all
  seven members plus the boundary-flag update;
- ``resimplify_radix8``: re-simplification of the radix-8 root after the
  glue (the incremental-seeding target);
- ``merge_stage_*``: real merge-stage wall of full pipeline runs — the
  sum of per-merge-event seconds — over three schedules (16 blocks in
  four radix-2 rounds, 16 blocks in two radix-4 rounds, 8 blocks in one
  radix-8 round).

Run directly for the machine-readable before/after record::

    PYTHONPATH=src python benchmarks/bench_merge_stage.py          # full
    PYTHONPATH=src python benchmarks/bench_merge_stage.py --smoke  # CI

The full run regenerates the repo-root ``BENCH_merge_stage.json``;
``--smoke`` runs a scaled-down single-rep pass and only sanity-checks
that every timer produced a finite, positive number.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.config import ExecutionOptions, PipelineConfig
from repro.core.glue import AddressIndex, glue_into
from repro.core.merge import pack_complex, unpack_complex
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.data.synthetic import gaussian_bumps_field
from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.simplify import simplify_ms_complex
from repro.morse.tracing import extract_ms_complex
from repro.parallel.decomposition import decompose

#: the bench field: large enough that merge-stage time is dominated by
#: glue + re-simplification, mild noise (heavy noise drives the
#: documented quadratic hub stress case, not a representative timing)
DIMS = (32, 32, 32)
PERS = 0.05

#: pipeline merge-stage configurations: (name, num_blocks, radices)
STAGE_CONFIGS = [
    ("multi_round_b16_r2", 16, [2, 2, 2, 2]),
    ("radix4_b16", 16, [4, 4]),
    ("single_round_b8_r8", 8, [8]),
]

#: merge-stage timings of this exact harness measured immediately before
#: the merge-stage overhaul (dict-based glue loop, full-reheap
#: re-simplification, double-packed write stage); min over reps on the
#: same single-core host.  The acceptance gate compares
#: ``merge_stage_multi_round_b16_r2_s`` against this record.
PRE_PR_BASELINE = {
    "glue_radix8_s": 0.014704007000545971,
    "glue_two_blocks_s": 0.005317619999914314,
    "merge_stage_multi_round_b16_r2_s": 0.43947524900067947,
    "merge_stage_radix4_b16_s": 0.36609968499942624,
    "merge_stage_single_round_b8_r8_s": 0.15970109299996693,
    "resimplify_radix8_s": 0.07333446200027538,
}


def bench_field(dims=DIMS) -> np.ndarray:
    return gaussian_bumps_field(dims, 10, seed=1, noise=0.005)


def block_complexes(field: np.ndarray, splits: tuple[int, int, int]):
    """Per-block simplified+compacted complexes, as the compute stage
    hands them to the merge stage."""
    decomp = decompose(
        field.shape, int(np.prod(splits)), splits=splits
    )
    out = []
    for b in range(decomp.num_blocks):
        box = decomp.block_box(decomp.block_coords(b))
        cx = CubicalComplex(
            field[box.slices()],
            refined_origin=box.refined_origin,
            global_refined_dims=decomp.global_refined_dims,
            cut_planes=decomp.cut_planes,
        )
        msc = extract_ms_complex(compute_discrete_gradient(cx))
        simplify_ms_complex(msc, PERS, respect_boundary=True)
        msc.compact()
        out.append(msc)
    return out


def measure_glue_kernels(field: np.ndarray, reps: int = 7) -> dict:
    """Glue and re-simplify kernel timings (min over ``reps``).

    Same operations the baseline timed, on the current implementations:
    gluing uses the pipeline's sorted address index, the radix-8 root
    re-simplify seeds from the disturbed-node set exactly as
    :func:`repro.core.merge.perform_merge` does.
    """
    out = {}
    blobs2 = [pack_complex(p) for p in block_complexes(field, (2, 1, 1))]
    best = float("inf")
    for _ in range(reps):
        root, other = unpack_complex(blobs2[0]), unpack_complex(blobs2[1])
        idx = AddressIndex.from_complex(root)
        t0 = time.perf_counter()
        glue_into(root, other, idx)
        best = min(best, time.perf_counter() - t0)
    out["glue_two_blocks_s"] = best

    blobs8 = [pack_complex(p) for p in block_complexes(field, (2, 2, 2))]
    no_cuts = tuple(np.array([], dtype=np.int64) for _ in range(3))
    best_glue = best_simp = float("inf")
    for _ in range(reps):
        root = unpack_complex(blobs8[0])
        incoming = [unpack_complex(b) for b in blobs8[1:]]
        touched: set[int] = set()
        t0 = time.perf_counter()
        idx = AddressIndex.from_complex(root)
        for o in incoming:
            glue_into(root, o, idx, touched=touched)
        freed = root.update_boundary_flags(no_cuts, return_ids=True)
        t1 = time.perf_counter()
        touched.update(freed)
        simplify_ms_complex(
            root, PERS, respect_boundary=True, seed_nodes=touched
        )
        t2 = time.perf_counter()
        best_glue = min(best_glue, t1 - t0)
        best_simp = min(best_simp, t2 - t1)
    out["glue_radix8_s"] = best_glue
    out["resimplify_radix8_s"] = best_simp
    return out


def measure_merge_stage(
    field: np.ndarray, reps: int = 5, configs=STAGE_CONFIGS
) -> dict:
    """Full-pipeline merge-stage wall per schedule (min over ``reps``).

    The metric is the sum of per-merge-event real seconds — the work the
    merge stage actually performs, independent of how the virtual clock
    overlaps it — identical to how the baseline was captured.
    """
    out = {}
    for name, blocks, radices in configs:
        best = float("inf")
        for _ in range(reps):
            cfg = PipelineConfig(
                num_blocks=blocks,
                persistence_threshold=PERS,
                merge_radices=radices,
                options=ExecutionOptions(retry_backoff=0.0),
            )
            r = ParallelMSComplexPipeline(cfg).run(field)
            best = min(
                best, sum(ev.real_seconds for ev in r.stats.merge_events)
            )
        out[f"merge_stage_{name}_s"] = best
    return out


def collect_before_after(kernel_reps: int = 7, stage_reps: int = 5) -> dict:
    """The full before/after record ``BENCH_merge_stage.json`` holds."""
    import os
    import sys

    field = bench_field()
    after = measure_glue_kernels(field, kernel_reps)
    after.update(measure_merge_stage(field, stage_reps))
    before = dict(PRE_PR_BASELINE)
    speedup = {
        k.removesuffix("_s"): before[k] / after[k]
        for k in before
        if after.get(k)
    }
    return {
        "field": "gaussian_bumps 32^3, 10 bumps, seed 1, noise 0.005",
        "harness": {
            "persistence_threshold": PERS,
            "metric": "sum of merge-event real_seconds per run; "
                      "min over reps (kernels likewise)",
            "kernel_reps": kernel_reps,
            "stage_reps": stage_reps,
            "configs": [
                {"name": n, "num_blocks": b, "radices": r}
                for n, b, r in STAGE_CONFIGS
            ],
        },
        "host": {
            "cores": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "before": before,
        "after": after,
        "speedup": speedup,
    }


def run_smoke() -> dict:
    """Scaled-down single-rep pass for CI: every timer must fire."""
    field = bench_field((16, 16, 16))
    res = measure_glue_kernels(field, reps=1)
    res.update(
        measure_merge_stage(
            field, reps=1, configs=[("smoke_b8_r2", 8, [2, 2, 2])]
        )
    )
    for k, v in res.items():
        assert np.isfinite(v) and v > 0, f"{k} produced {v!r}"
    return res


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def field_():
    return bench_field()


def bench_merge_glue_kernels(field_, benchmark):
    res = benchmark.pedantic(
        lambda: measure_glue_kernels(field_, reps=1), rounds=1, iterations=1
    )
    assert res["glue_radix8_s"] > 0


def bench_merge_stage_walls(field_, benchmark):
    res = benchmark.pedantic(
        lambda: measure_merge_stage(field_, reps=1), rounds=1, iterations=1
    )
    assert all(v > 0 for v in res.values())


def bench_merge_before_after_json(benchmark):
    """Regenerate the repo-root ``BENCH_merge_stage.json`` record."""
    from pathlib import Path

    from bench_util import attach_peak_rss, emit_json

    record = attach_peak_rss(collect_before_after())
    path = emit_json(
        "BENCH_merge_stage",
        record,
        path=Path(__file__).resolve().parent.parent
        / "BENCH_merge_stage.json",
    )
    print(f"\nwrote {path}; speedups: " + " ".join(
        f"{k}={v:.2f}x" for k, v in sorted(record["speedup"].items())
    ))
    assert record["speedup"]["merge_stage_multi_round_b16_r2"] > 1.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


if __name__ == "__main__":
    import argparse
    import json
    from pathlib import Path

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="scaled-down single-rep CI pass; no JSON output")
    args = ap.parse_args()

    if args.smoke:
        res = run_smoke()
        print("merge-stage smoke ok:")
        for k, v in sorted(res.items()):
            print(f"  {k}: {v:.4f}s")
    else:
        from bench_util import attach_peak_rss

        record = attach_peak_rss(collect_before_after())
        out = Path(__file__).resolve().parent.parent / "BENCH_merge_stage.json"
        out.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {out}")
        for k, v in sorted(record["speedup"].items()):
            print(f"  {k}: {v:.3f}x")
