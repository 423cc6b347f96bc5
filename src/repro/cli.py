"""Command-line interface.

A thin operational wrapper over the library, mirroring how the paper's
tool was driven on the Blue Gene/P: point it at a raw volume, choose a
blocking, a persistence threshold and a merge strategy, and get an MS
complex block file plus a timing report.

Commands::

    python -m repro.cli compute volume.raw --dims 64 64 64 --dtype float32 \
        --blocks 8 --persistence 0.05 --radices 8 --output out.msc
    python -m repro.cli stream step_*.raw --dims 64 64 64 --blocks 8 \
        --workers 4 --persistence 0.05 --output-dir out/
    python -m repro.cli info out.msc
    python -m repro.cli query out.msc --persistence 0.01 0.05 0.2
    python -m repro.cli serve --cache-dir ./msc-cache --port 8643
    python -m repro.cli synth sinusoid --points 64 --features 4 out.raw
    python -m repro.cli synth sinusoid big.raw --dims 1152 1152 1152

``query`` serves thresholds out of the hierarchy footer a
``compute --hierarchy`` run persisted — every row is a pure lookup, the
volume is never re-simplified.  ``stream`` pushes a whole time series of
volume files through one open pipeline: the worker pool is reused across
steps, and blocks are ``mmap``-read where they are computed, so the
driver never materializes a volume.
``serve`` runs the MS-complex service daemon: concurrent submissions
over JSON HTTP, identical in-flight requests coalesced into one
pipeline run, repeats answered from a content-addressed result cache
(see ``docs/SERVICE.md``).  ``synth sinusoid`` and ``synth bumps``
stream the volume to disk slab-by-slab without ever materializing it,
so paper-scale inputs (1152³ ≈ 5.7 GiB at float32) can be generated on
any machine; pair with ``compute --merge-spill-budget`` for a fully
out-of-core run.
"""

from __future__ import annotations

import argparse
import logging
import sys

__all__ = ["main", "build_parser"]

#: marker attached to the handler :func:`_configure_logging` installs,
#: so repeated main() calls (tests) stay idempotent
_LOG_HANDLER_FLAG = "_repro_cli_handler"


def _configure_logging(verbosity: int) -> None:
    """Wire the ``repro.*`` logger hierarchy to stderr.

    ``-v`` shows INFO (stage progress), ``-vv`` DEBUG; the default
    surfaces only WARNING and above (worker-pool restarts).
    """
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[
        min(verbosity, 2)
    ]
    root = logging.getLogger("repro")
    root.setLevel(level)
    for handler in root.handlers:
        if getattr(handler, _LOG_HANDLER_FLAG, False):
            handler.setLevel(level)
            return
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(level)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    setattr(handler, _LOG_HANDLER_FLAG, True)
    root.addHandler(handler)


def _positive_int(text: str) -> int:
    """argparse type for flags that must be >= 1 (readable, exit code 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (>= 1), got {value}"
        )
    return value


#: multipliers of the ``--merge-spill-budget`` size suffixes
_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def _size_bytes(text: str) -> int:
    """argparse type for byte sizes with optional K/M/G suffix.

    Accepts plain byte counts (``1048576``, ``0``) and suffixed sizes
    (``64M``, ``2G``, ``512k``, optionally with a trailing ``B`` as in
    ``64MB``); suffixes are binary (K = 1024).
    """
    raw = text.strip().lower().removesuffix("b")
    mult = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        mult = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a byte size like 1048576, 64M, or 2G, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"byte size must be >= 0, got {text!r}"
        )
    return value * mult


def _add_run_arguments(p: argparse.ArgumentParser) -> None:
    """The volume/decomposition/execution flags `compute` and `stream`
    share — one table, read back by :func:`_config_from_args`."""
    p.add_argument("--dims", nargs=3, type=int, required=True,
                   metavar=("NX", "NY", "NZ"))
    p.add_argument("--dtype", default="float32",
                   choices=("uint8", "float32", "float64"))
    p.add_argument("--blocks", type=_positive_int, default=1,
                   help="number of blocks (power of two)")
    p.add_argument("--procs", type=_positive_int, default=None,
                   help="virtual processes (default: one per block)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes for the compute stage "
                        "(default: 1 computes in-process; more run a "
                        "pool of that width)")
    p.add_argument("--merge-spill-budget", type=_size_bytes, default=None,
                   metavar="SIZE",
                   help="resident-byte budget for the packed compute "
                        "blobs the driver holds until each block's "
                        "first merge (e.g. 64M, 2G, or plain bytes; 0 "
                        "spills everything).  Over budget, blobs spill "
                        "LRU-first to one unlinked scratch file; outputs are "
                        "bit-identical at any budget (default: unbounded, "
                        "no spool)")
    p.add_argument("--persistence", type=float, default=0.0,
                   help="simplification threshold")
    p.add_argument("--hierarchy", action="store_true",
                   help="capture the cancellation hierarchy of every "
                        "output block and persist it in the .msc "
                        "footer, enabling `repro query` threshold "
                        "lookups with zero re-simplification")
    p.add_argument("--radices", nargs="*", type=int, default=None,
                   help="merge radices (default: full merge)")
    p.add_argument("--no-merge", action="store_true",
                   help="skip the merge stage entirely")


def _config_from_args(args, *, trace: bool = False):
    """The :class:`PipelineConfig` the :func:`_add_run_arguments` flags
    describe (raises ``ValueError`` on out-of-range values)."""
    from repro.core.config import ExecutionOptions, PipelineConfig

    if args.no_merge:
        radices = "none"
    elif args.radices is None:
        radices = "full"
    else:
        radices = args.radices
    return PipelineConfig(
        num_blocks=args.blocks,
        num_procs=args.procs,
        persistence_threshold=args.persistence,
        merge_radices=radices,
        options=ExecutionOptions(
            workers=args.workers,
            hierarchy=args.hierarchy,
            merge_spill_budget_bytes=args.merge_spill_budget,
        ),
        trace=trace,
    )


def _checked_volume_spec(path: str, args):
    """The :class:`VolumeSpec` of ``path`` under ``--dims``/``--dtype``.

    Raises ``ValueError`` when the file is unreadable or its size does
    not match, before any pipeline work starts.
    """
    import os

    from repro.io.volume import VolumeSpec

    spec = VolumeSpec(path, tuple(args.dims), args.dtype)
    try:
        size = os.stat(path).st_size
    except OSError as exc:
        raise ValueError(
            f"cannot read volume {path!r}: {exc.strerror or exc}"
        ) from None
    if size != spec.nbytes:
        raise ValueError(
            f"volume {path!r} holds {size} bytes but dims "
            f"{tuple(args.dims)} with dtype {args.dtype} require "
            f"{spec.nbytes}"
        )
    return spec


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel Morse-Smale complex computation "
        "(IPDPS 2012 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr (-v: INFO, "
                             "-vv: DEBUG; default shows warnings only)")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute an MS complex of a volume")
    c.add_argument("volume", help="raw volume file (x fastest)")
    _add_run_arguments(c)
    c.add_argument("--output", default=None, help="output .msc file")
    c.add_argument("--trace", default=None, metavar="PATH",
                   help="record a span timeline of the run and write it "
                        "as Chrome trace_event JSON (open in "
                        "chrome://tracing or ui.perfetto.dev)")
    c.add_argument("--metrics", default=None, metavar="PATH",
                   help="write the run's metrics (counters/gauges/"
                        "histograms, a view of its stats) as JSON")

    st = sub.add_parser(
        "stream",
        help="stream a time series of volumes through one open "
             "pipeline (the worker pool is reused across steps; "
             "out-of-core via the mmap transport)",
    )
    st.add_argument("volumes", nargs="+",
                    help="raw volume files, one per timestep "
                         "(identical dims and dtype)")
    _add_run_arguments(st)
    st.add_argument("--output-dir", default=None,
                    help="write each step's complex to "
                         "DIR/step_NNNN.msc")
    st.add_argument("--json", action="store_true",
                    help="emit the per-step records as JSON on stdout")

    i = sub.add_parser("info", help="summarize an MS complex file")
    i.add_argument("mscfile")

    q = sub.add_parser(
        "query",
        help="answer persistence thresholds from a persisted hierarchy "
             "(.msc file) without re-simplifying",
    )
    q.add_argument("mscfile")
    q.add_argument("--persistence", nargs="+", type=float, default=None,
                   metavar="P",
                   help="one or more thresholds to sweep")
    q.add_argument("--top-k", type=_positive_int, default=None,
                   metavar="K",
                   help="keep the K coarsest-scale cancellations undone "
                        "instead of querying a threshold")
    q.add_argument("--json", action="store_true",
                   help="emit the query records as JSON on stdout")

    sv = sub.add_parser(
        "serve",
        help="run the MS-complex service daemon: accept concurrent "
             "compute/query requests over JSON HTTP, deduplicate "
             "identical work, and answer repeats from a "
             "content-addressed result cache",
    )
    sv.add_argument("--cache-dir", default="./msc-cache",
                    help="root of the content-addressed result store "
                         "(created if missing; a restarted daemon over "
                         "the same directory starts warm; default: "
                         "./msc-cache)")
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: 127.0.0.1)")
    sv.add_argument("--port", type=int, default=8643,
                    help="bind port; 0 picks a free one (default: 8643)")
    sv.add_argument("--max-jobs", type=_positive_int, default=2,
                    help="concurrent pipeline executions; further jobs "
                         "queue (default: 2)")
    sv.add_argument("--mem-cache-entries", type=int, default=64,
                    help="hot results kept in memory ahead of the disk "
                         "layer; 0 disables the memory layer "
                         "(default: 64)")
    sv.add_argument("--job-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="default per-job wall-time bound applied to "
                         "requests that carry none (default: unbounded)")

    s = sub.add_parser(
        "synth",
        help="generate a synthetic volume (sinusoid and bumps are "
             "written slab-by-slab, in bounded memory at any size)",
    )
    s.add_argument("kind", choices=("sinusoid", "bumps", "jet",
                                    "rayleigh-taylor", "hydrogen"))
    s.add_argument("output")
    size = s.add_mutually_exclusive_group()
    size.add_argument("--points", type=_positive_int, default=64,
                      help="points per side (default: 64)")
    size.add_argument("--dims", nargs=3, type=_positive_int, default=None,
                      metavar=("NX", "NY", "NZ"),
                      help="volume dims, instead of --points (sinusoid "
                           "and bumps only)")
    s.add_argument("--features", type=int, default=4,
                   help="features per side (sinusoid) or bump count")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--dtype", default="float32",
                   choices=("uint8", "float32", "float64"))
    return parser


def _fail(message: str) -> int:
    """Print a readable error to stderr; the non-zero CLI exit code."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_compute(args) -> int:
    from repro.core.pipeline import ParallelMSComplexPipeline
    from repro.parallel.executor import FaultToleranceError

    try:
        spec = _checked_volume_spec(args.volume, args)
        cfg = _config_from_args(args, trace=args.trace is not None)
        with ParallelMSComplexPipeline(cfg) as pipeline:
            result = pipeline.run(spec)
    except (OSError, ValueError, FaultToleranceError) as exc:
        return _fail(str(exc))
    print(result.stats.describe())
    counts = result.combined_node_counts()
    print(
        f"critical points: min={counts[0]} 1sad={counts[1]} "
        f"2sad={counts[2]} max={counts[3]} "
        f"in {result.num_output_blocks} output block(s)"
    )
    if args.output:
        nbytes = result.write(args.output)
        print(f"wrote {nbytes} bytes to {args.output}")
    if args.trace:
        nbytes = result.stats.trace.write(args.trace)
        print(f"wrote trace ({nbytes} bytes) to {args.trace}")
    if args.metrics:
        from repro.obs.export import write_metrics_json

        nbytes = write_metrics_json(args.metrics, result.stats.metrics)
        print(f"wrote metrics ({nbytes} bytes) to {args.metrics}")
    return 0


def _cmd_stream(args) -> int:
    import json
    import os

    from repro.core.pipeline import ParallelMSComplexPipeline
    from repro.parallel.executor import FaultToleranceError

    try:
        specs = [_checked_volume_spec(path, args) for path in args.volumes]
        cfg = _config_from_args(args)
    except ValueError as exc:
        return _fail(str(exc))
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
    if not args.json:
        print(f"{'step':>4} {'volume':<24} {'min':>5} {'1sad':>5} "
              f"{'2sad':>5} {'max':>5} {'seconds':>8}")
    rows = []
    try:
        # one open pipeline: its worker pool serves every step
        with ParallelMSComplexPipeline(cfg) as pipeline:
            for idx, spec in enumerate(specs):
                result = pipeline.run(spec)
                c = result.combined_node_counts()
                seconds = result.stats.real_seconds_total
                if not args.json:
                    name = os.path.basename(spec.path)
                    print(f"{idx:>4} {name:<24} {c[0]:>5} {c[1]:>5} "
                          f"{c[2]:>5} {c[3]:>5} {seconds:>8.3f}")
                if args.output_dir:
                    result.write(os.path.join(
                        args.output_dir, f"step_{idx:04d}.msc"
                    ))
                rows.append({
                    "step": idx,
                    "volume": spec.path,
                    "node_counts": list(c),
                    "output_bytes": result.stats.output_bytes,
                    "real_seconds": seconds,
                })
    except (OSError, ValueError, FaultToleranceError) as exc:
        return _fail(str(exc))
    if args.json:
        print(json.dumps({"steps": rows}, indent=2, sort_keys=True))
    return 0


def _cmd_info(args) -> int:
    from repro.io.mscfile import read_msc_file
    from repro.morse.msc import MorseSmaleComplex

    try:
        blocks = read_msc_file(args.mscfile)
    except OSError as exc:
        return _fail(f"cannot read {args.mscfile!r}: {exc.strerror or exc}")
    except ValueError as exc:
        return _fail(str(exc))
    lines = [f"{args.mscfile}: {len(blocks)} block(s)"]
    for bid in sorted(blocks):
        try:
            msc = MorseSmaleComplex.from_payload(blocks[bid])
        except ValueError as exc:  # a column check names no place
            return _fail(f"{args.mscfile}: record of block {bid}: {exc}")
        lines.append(f"  block {bid}: {msc.summary()}")
    print("\n".join(lines))
    return 0


def _cmd_query(args) -> int:
    import json

    from repro.analysis.query import load_hierarchy, query

    if (args.persistence is None) == (args.top_k is None):
        return _fail(
            "query needs exactly one of --persistence and --top-k"
        )
    try:
        hierarchies = load_hierarchy(args.mscfile)
    except OSError as exc:
        return _fail(
            f"cannot read {args.mscfile!r}: {exc.strerror or exc}"
        )
    except ValueError as exc:
        return _fail(str(exc))
    depth = max(h.num_levels for h in hierarchies.values())
    if args.top_k is not None:
        results = [query(hierarchies, top_k=args.top_k)]
    else:
        results = [
            query(hierarchies, persistence=p) for p in args.persistence
        ]
    if args.json:
        print(json.dumps(
            {
                "file": args.mscfile,
                "blocks": len(hierarchies),
                "hierarchy_depth": depth,
                "queries": [r.to_dict() for r in results],
            },
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"{args.mscfile}: {len(hierarchies)} block(s), "
          f"hierarchy depth {depth}")
    print(f"{'persistence':>12} {'level':>6} {'min':>5} {'1sad':>5} "
          f"{'2sad':>5} {'max':>5} {'arcs':>6}")
    for r in results:
        c = r.node_counts_by_index()
        level = max(r.levels.values(), default=0)
        print(f"{r.persistence:>12.5f} {level:>6} {c[0]:>5} {c[1]:>5} "
              f"{c[2]:>5} {c[3]:>5} {r.num_arcs:>6}")
    return 0


def _cmd_serve(args) -> int:
    from repro.service.client import ServiceClient
    from repro.service.server import make_server

    try:
        client = ServiceClient(
            args.cache_dir,
            max_jobs=args.max_jobs,
            max_memory_entries=args.mem_cache_entries,
            default_timeout=args.job_timeout,
        )
    except OSError as exc:
        return _fail(
            f"cannot open cache dir {args.cache_dir!r}: "
            f"{exc.strerror or exc}"
        )
    try:
        server = make_server(client, args.host, args.port)
    except OSError as exc:
        client.close()
        return _fail(
            f"cannot bind {args.host}:{args.port}: {exc.strerror or exc}"
        )
    host, port = server.server_address[:2]
    print(f"repro service on http://{host}:{port} "
          f"(cache: {args.cache_dir}, max jobs: {args.max_jobs})")
    print("endpoints: POST /v1/submit · GET /v1/jobs[/<id>[/result]] · "
          "GET /v1/query · GET /v1/stats · GET /v1/healthz")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.shutdown_service()
    return 0


def _cmd_synth(args) -> int:
    import numpy as np

    from repro.data import (
        hydrogen_atom,
        jet_mixture_fraction_proxy,
        rayleigh_taylor_proxy,
        write_volume_chunked,
    )
    from repro.io.volume import write_volume

    if args.kind in ("sinusoid", "bumps"):
        size = (
            {"dims": tuple(args.dims)} if args.dims is not None
            else {"points_per_side": args.points}
        )
        family = (
            {"features_per_side": args.features}
            if args.kind == "sinusoid"
            else {"num_bumps": args.features, "seed": args.seed}
        )
        try:
            # the default 16-plane slabs: peak memory is one NX*NY*16
            # float64 slab at any volume size
            spec = write_volume_chunked(
                args.output, args.kind, dtype=args.dtype, **size, **family
            )
        except (OSError, ValueError) as exc:
            return _fail(str(exc))
    else:
        if args.dims is not None:
            return _fail(f"synth {args.kind} takes --points, not --dims")
        n = args.points
        if args.kind == "jet":
            field = jet_mixture_fraction_proxy(
                (n, n + n // 6, (2 * n) // 3), seed=args.seed
            )
        elif args.kind == "rayleigh-taylor":
            field = rayleigh_taylor_proxy((n, n, n), seed=args.seed)
        else:
            field = hydrogen_atom(n)
        try:
            spec = write_volume(args.output, np.asarray(field),
                                dtype=args.dtype)
        except (OSError, ValueError) as exc:
            return _fail(str(exc))
    print(f"wrote {spec.path}: dims={spec.dims} dtype={spec.dtype} "
          f"({spec.nbytes} bytes)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    handlers = {
        "compute": _cmd_compute,
        "stream": _cmd_stream,
        "info": _cmd_info,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "synth": _cmd_synth,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
