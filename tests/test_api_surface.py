"""Meta tests: public API surface, documentation coverage, and the
`repro.api` facade contract (routing, round-trips, removed spellings)."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.data",
    "repro.io",
    "repro.machine",
    "repro.mesh",
    "repro.morse",
    "repro.parallel",
]


def _public_members(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        yield name, getattr(mod, name)


@pytest.mark.parametrize("pkg", PACKAGES)
def test_all_exports_resolve(pkg):
    mod = importlib.import_module(pkg)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{pkg}.__all__ lists missing {name}"


@pytest.mark.parametrize("pkg", PACKAGES)
def test_package_docstrings(pkg):
    mod = importlib.import_module(pkg)
    assert mod.__doc__ and mod.__doc__.strip(), f"{pkg} lacks a docstring"


def _walk_modules():
    for pkg in PACKAGES:
        mod = importlib.import_module(pkg)
        if hasattr(mod, "__path__"):
            for info in pkgutil.iter_modules(mod.__path__):
                yield importlib.import_module(f"{pkg}.{info.name}")
        else:
            yield mod


def test_every_module_documented():
    undocumented = [
        m.__name__ for m in _walk_modules()
        if not (m.__doc__ and m.__doc__.strip())
    ]
    assert not undocumented, undocumented


def test_public_functions_and_classes_documented():
    missing = []
    for mod in _walk_modules():
        if not mod.__name__.startswith("repro"):
            continue
        for name, obj in _public_members(mod):
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if getattr(obj, "__module__", "").startswith("repro"):
                    if not (obj.__doc__ and obj.__doc__.strip()):
                        missing.append(f"{mod.__name__}.{name}")
    assert not missing, f"undocumented public items: {sorted(set(missing))}"


def test_version_exposed():
    assert repro.__version__ == "1.0.0"


def test_top_level_quickstart_names():
    # the README quickstart must keep working
    assert callable(repro.compute)
    assert callable(repro.compute_morse_smale_complex)
    assert callable(repro.ParallelMSComplexPipeline)
    assert callable(repro.PipelineConfig)


def test_top_level_all_is_curated_and_sorted():
    public = repro.__all__
    assert "compute" in public and "api" in public
    names = [n for n in public if not n.startswith("_")]
    assert names == sorted(names)


def test_failing_property_reports_its_falsifying_example(tmp_path):
    """``filterwarnings = error::DeprecationWarning`` must not turn a
    failing hypothesis test into a pytest INTERNALERROR: reporting one
    imports libcst, whose own DeprecationWarning pytest.ini exempts."""
    pytest.importorskip("libcst")
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "@given(st.integers())\n"
        "def test_t(x): assert x != x\n"
    )
    ini = Path(__file__).resolve().parent.parent / "pytest.ini"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ini),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


# ---------------------------------------------------------------------------
# the repro.api facade
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def facade_field():
    from repro.data.synthetic import gaussian_bumps_field

    return gaussian_bumps_field((17, 17, 17), 5, seed=4)


class TestFacade:
    def test_serial_route_returns_pipeline_result(self, facade_field):
        res = repro.compute(facade_field, persistence=0.05)
        assert isinstance(res, repro.PipelineResult)
        assert res.num_output_blocks == 1
        assert res.stats.num_blocks == 1
        assert res.stats.executor == "serial"
        assert res.stats.workers == 1
        assert res.stats.merge_round_times() == []

    def test_serial_route_matches_legacy_entry_point(self, facade_field):
        legacy = repro.compute_morse_smale_complex(
            facade_field, persistence_threshold=0.05
        )
        facade = repro.compute(facade_field, persistence=0.05)
        assert (
            facade.merged_complexes[0].node_counts_by_index()
            == legacy.node_counts_by_index()
        )

    def test_pipeline_route_matches_legacy_pipeline(self, facade_field):
        from repro.core.merge import pack_complex

        cfg = repro.PipelineConfig(num_blocks=8, persistence_threshold=0.05)
        legacy = repro.ParallelMSComplexPipeline(cfg).run(facade_field)
        facade = repro.compute(
            facade_field, persistence=0.05, ranks=8, merge_radix=8
        )
        assert pack_complex(facade.merged_complexes[0]) == pack_complex(
            legacy.merged_complexes[0]
        )

    @pytest.mark.slow
    def test_workers_do_not_change_bits(self, facade_field):
        from repro.core.merge import pack_complex

        serial = repro.compute(facade_field, persistence=0.05, ranks=8)
        pooled = repro.compute(
            facade_field, persistence=0.05, ranks=8,
            options=repro.ExecutionOptions(workers=2),
        )
        assert pooled.stats.executor == "process"
        assert pack_complex(pooled.merged_complexes[0]) == pack_complex(
            serial.merged_complexes[0]
        )

    def test_merge_radix_forms(self, facade_field):
        none = repro.compute(
            facade_field, persistence=0.05, ranks=8, merge_radix="none"
        )
        assert none.num_output_blocks == 8
        partial = repro.compute(
            facade_field, persistence=0.05, ranks=8, merge_radix=[2]
        )
        assert partial.num_output_blocks == 4
        radix2 = repro.compute(
            facade_field, persistence=0.05, ranks=8, merge_radix=2
        )
        assert radix2.num_output_blocks == 1
        assert radix2.stats.radices == [2, 2, 2]

    def test_volume_spec_input(self, facade_field, tmp_path):
        from repro.io.volume import write_volume

        spec = write_volume(tmp_path / "f.raw", facade_field,
                            dtype="float64")
        res = repro.compute(spec, persistence=0.05, ranks=8)
        ref = repro.compute(facade_field, persistence=0.05, ranks=8)
        assert (
            res.merged_complexes[0].node_counts_by_index()
            == ref.merged_complexes[0].node_counts_by_index()
        )

    def test_keyword_only_and_validation(self, facade_field):
        with pytest.raises(TypeError):
            repro.compute(facade_field, 0.05)  # options are keyword-only
        with pytest.raises(ValueError):
            repro.compute(facade_field, ranks=0)
        with pytest.raises(ValueError):
            repro.compute(
                facade_field, options=repro.ExecutionOptions(workers=0)
            )
        with pytest.raises(ValueError):
            repro.compute(facade_field, merge_radix=3)
        with pytest.raises(ValueError):
            repro.compute(facade_field, merge_radix="full-ish")

    def test_result_write_round_trip(self, facade_field, tmp_path):
        from repro.io.mscfile import read_msc_file
        from repro.morse.msc import MorseSmaleComplex

        res = repro.compute(facade_field, persistence=0.05, ranks=8)
        path = tmp_path / "facade.msc"
        res.write(path)
        blocks = read_msc_file(path)
        assert len(blocks) == 1
        msc = MorseSmaleComplex.from_payload(blocks[0])
        assert (
            msc.node_counts_by_index()
            == res.merged_complexes[0].node_counts_by_index()
        )


# ---------------------------------------------------------------------------
# ExecutionOptions: the grouped execution-knob surface
# ---------------------------------------------------------------------------


class TestExecutionOptions:
    def test_defaults_and_round_trip(self):
        opts = repro.ExecutionOptions()
        assert opts.workers == 1
        assert opts.resolved_executor == "serial"
        assert repro.PipelineConfig(num_blocks=8).options == opts

    def test_options_is_frozen(self):
        import dataclasses

        opts = repro.ExecutionOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.workers = 4

    def test_config_accepts_options_bundle(self):
        opts = repro.ExecutionOptions(workers=2, hierarchy=True)
        cfg = repro.PipelineConfig(num_blocks=8, options=opts)
        assert cfg.options is opts
        assert cfg.options.workers == 2
        assert cfg.options.resolved_executor == "process"

    def test_config_rejects_options_plus_flat(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            repro.PipelineConfig(
                num_blocks=8, workers=2,
                options=repro.ExecutionOptions(workers=2),
            )

    def test_config_rejects_non_options_value(self):
        with pytest.raises(TypeError, match="ExecutionOptions"):
            repro.PipelineConfig(num_blocks=8, options={"workers": 2})

    @pytest.mark.parametrize(
        "bad",
        [
            {"workers": True},
            {"workers": 1.5},
            {"merge_spill_budget_bytes": -1},
        ],
        ids=lambda bad: "-".join(bad),
    )
    def test_every_held_value_validates_at_construction(self, bad):
        """Not one layer later (PipelineConfig) or mid-run."""
        with pytest.raises(ValueError):
            repro.ExecutionOptions(**bad)

    @pytest.mark.parametrize("name", ["block_timeout", "retry_backoff"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 1e300],
        ids=["nan", "inf", "huge"],
    )
    def test_non_finite_retry_settings_rejected(self, name, value):
        """The retry settings are gone: no value is accepted, finite or
        not, and the options hold exactly the three remaining fields."""
        import dataclasses

        with pytest.raises(TypeError, match="unexpected keyword"):
            repro.ExecutionOptions(**{name: value})
        assert [f.name for f in dataclasses.fields(repro.ExecutionOptions)
                ] == ["workers", "hierarchy", "merge_spill_budget_bytes"]

    def test_compute_options_spelling_does_not_warn(self, facade_field):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.compute(facade_field, persistence=0.05,
                          options=repro.ExecutionOptions())

    def test_compute_rejects_options_plus_flat(self, facade_field):
        with pytest.raises(TypeError, match="unexpected keyword"):
            repro.compute(
                facade_field, persistence=0.05, workers=2,
                options=repro.ExecutionOptions(workers=2),
            )


# ---------------------------------------------------------------------------
# the removed deprecation shims: old spellings fail, nothing is ignored
# ---------------------------------------------------------------------------


def _complex(values):
    from repro.mesh.cubical import CubicalComplex

    return CubicalComplex(values)


def _gradient(values):
    from repro.morse.gradient import compute_discrete_gradient

    return compute_discrete_gradient(_complex(values))


def _parse_cli(*argv):
    from repro.cli import build_parser

    return build_parser().parse_args(list(argv))


def _ms_complex():
    """A one-node complex (glue reaches its address lookup)."""
    from repro.morse.msc import MorseSmaleComplex

    msc = MorseSmaleComplex((3, 3, 3))
    msc.add_node(0, 0, 0.0)
    return msc


def _loop_lists():
    from repro.morse.msc import LoopLists

    return LoopLists(_ms_complex(), 0.0, True, None)


#: every spelling removed with the shims, the tracing-backend knob, the
#: second merge engine, the executor/transport knobs, the
#: shared-memory transport, the metrics knob, the second driver object,
#: the second synthetic-volume command, the fault-injection knob with
#: the merge retry loop it drove, the v1/v2 ``.msc`` readers, the
#: stability-comparison module, the store's persistence-provider split,
#: the compute-stage retry policy with its five knobs, the two
#: fingerprints nothing keyed on, the per-cell arrays of the block
#: mesh, the incidence a complex kept between cancellation passes, the
#: cancellation log a complex kept with the curve read from it, the
#: degree tie-break with the two caps (arcs per pair, paths per node),
#: and the in-situ analyzer with the reuse record of an open pipeline,
#: the value filters of ``repro stream`` and the second way to pass a
#: volume or a full-merge radix;
#: each row is ``(call, text its error must contain)``
REMOVED_SPELLINGS = {
    "PipelineConfig(workers=)": (
        lambda f: repro.PipelineConfig(num_blocks=8, workers=2),
        "unexpected keyword argument 'workers'",
    ),
    "PipelineConfig(persistence=)": (
        lambda f: repro.PipelineConfig(num_blocks=8, persistence=0.25),
        "unexpected keyword argument 'persistence'",
    ),
    "compute(workers=)": (
        lambda f: repro.compute(f, persistence=0.05, workers=1),
        "unexpected keyword argument 'workers'",
    ),
    "compute_morse_smale_complex(f, 0.05)": (
        lambda f: repro.compute_morse_smale_complex(f, 0.05),
        "takes 1 positional argument but 2 were given",
    ),
    "extract_ms_complex(kernel_backend=)": (
        lambda f: (
            repro.morse.extract_ms_complex(_gradient(f), kernel_backend="dfs")
        ),
        "unexpected keyword argument 'kernel_backend'",
    ),
    "ExecutionOptions(kernel_backend=)": (
        lambda f: repro.ExecutionOptions(kernel_backend="pointer"),
        "unexpected keyword argument 'kernel_backend'",
    ),
    "compute --kernel-backend": (
        lambda f: _parse_cli(
            "compute", "v.raw", "--dims", "4", "4", "4",
            "--kernel-backend", "pointer",
        ),
        "unrecognized arguments: --kernel-backend",
    ),
    "stream --kernel-backend": (
        lambda f: _parse_cli(
            "stream", "v.raw", "--dims", "4", "4", "4",
            "--kernel-backend", "pointer",
        ),
        "unrecognized arguments: --kernel-backend",
    ),
    "ExecutionOptions(merge_executor=)": (
        lambda f: repro.ExecutionOptions(merge_executor="serial"),
        "unexpected keyword argument 'merge_executor'",
    ),
    "compute --merge-executor": (
        lambda f: _parse_cli(
            "compute", "v.raw", "--dims", "4", "4", "4",
            "--merge-executor", "serial",
        ),
        "unrecognized arguments: --merge-executor",
    ),
    "ExecutionOptions(executor=)": (
        lambda f: repro.ExecutionOptions(executor="auto"),
        "unexpected keyword argument 'executor'",
    ),
    "ExecutionOptions(transport=)": (
        lambda f: repro.ExecutionOptions(transport="auto"),
        "unexpected keyword argument 'transport'",
    ),
    "compute --executor": (
        lambda f: _parse_cli(
            "compute", "v.raw", "--dims", "4", "4", "4",
            "--executor", "auto",
        ),
        "unrecognized arguments: --executor",
    ),
    "stream --transport": (
        lambda f: _parse_cli(
            "stream", "v.raw", "--dims", "4", "4", "4",
            "--transport", "auto",
        ),
        "unrecognized arguments: --transport",
    ),
    "FaultTolerantExecutor(kind=)": (
        lambda f: repro.parallel.FaultTolerantExecutor(kind="serial"),
        "unexpected keyword argument 'kind'",
    ),
    "ExecutionOptions.resolve_transport": (
        lambda f: (
            repro.ExecutionOptions(workers=2).resolve_transport("memory")
        ),
        "has no attribute 'resolve_transport'",
    ),
    "repro.parallel.transport": (
        lambda f: importlib.import_module("repro.parallel.transport"),
        "No module named 'repro.parallel.transport'",
    ),
    "compute(metrics=)": (
        lambda f: repro.compute(f, metrics=True),
        "unexpected keyword argument 'metrics'",
    ),
    "PipelineConfig(metrics=)": (
        lambda f: repro.PipelineConfig(num_blocks=8, metrics=True),
        "unexpected keyword argument 'metrics'",
    ),
    "open_session(metrics=)": (
        lambda f: repro.open_session(metrics=True),
        "unexpected keyword argument 'metrics'",
    ),
    "repro.PipelineSession": (
        lambda f: repro.PipelineSession,
        "has no attribute 'PipelineSession'",
    ),
    "repro.core.session": (
        lambda f: importlib.import_module("repro.core.session"),
        "No module named 'repro.core.session'",
    ),
    "InSituAnalyzer.session": (
        lambda f: importlib.import_module(
            "repro.core.insitu"
        ).InSituAnalyzer(repro.PipelineConfig(num_blocks=8)).session,
        "No module named 'repro.core.insitu'",
    ),
    "repro.core.insitu": (
        lambda f: importlib.import_module("repro.core.insitu"),
        "No module named 'repro.core.insitu'",
    ),
    "repro.core.stats.SessionStats": (
        lambda f: importlib.import_module("repro.core.stats").SessionStats,
        "has no attribute 'SessionStats'",
    ),
    "ParallelMSComplexPipeline.stats": (
        lambda f: repro.ParallelMSComplexPipeline(
            repro.PipelineConfig(num_blocks=8)
        ).stats,
        "'ParallelMSComplexPipeline' object has no attribute 'stats'",
    ),
    "ParallelMSComplexPipeline.run(volume=)": (
        lambda f: repro.ParallelMSComplexPipeline(
            repro.PipelineConfig(num_blocks=8)
        ).run(volume=f),
        "unexpected keyword argument 'volume'",
    ),
    "PipelineConfig(max_radix=)": (
        lambda f: repro.PipelineConfig(num_blocks=8, max_radix=4),
        "unexpected keyword argument 'max_radix'",
    ),
    **{
        f"stream {flag}": (
            lambda f, flag=flag: _parse_cli(
                "stream", "v.raw", "--dims", "4", "4", "4", flag, "0.5"
            ),
            f"unrecognized arguments: {flag}",
        )
        for flag in ("--min-value", "--max-value")
    },
    "gen": (
        lambda f: _parse_cli("gen", "sinusoid", "v.raw"),
        "invalid choice: 'gen'",
    ),
    "synth --slab-depth": (
        lambda f: _parse_cli(
            "synth", "sinusoid", "v.raw", "--slab-depth", "4"
        ),
        "unrecognized arguments: --slab-depth",
    ),
    "compute(faults=)": (
        lambda f: repro.compute(f, faults=None),
        "unexpected keyword argument 'faults'",
    ),
    "open_session(faults=)": (
        lambda f: repro.open_session(faults=None),
        "unexpected keyword argument 'faults'",
    ),
    "PipelineConfig(faults=)": (
        lambda f: repro.PipelineConfig(num_blocks=8, faults=None),
        "unexpected keyword argument 'faults'",
    ),
    "ServiceClient.submit(faults=)": (
        lambda f: inspect.signature(
            repro.ServiceClient.submit
        ).bind(None, f, faults=None),
        "unexpected keyword argument 'faults'",
    ),
    "repro.parallel.faults": (
        lambda f: importlib.import_module("repro.parallel.faults"),
        "No module named 'repro.parallel.faults'",
    ),
    "repro.parallel.FaultPlan": (
        lambda f: repro.parallel.FaultPlan,
        "has no attribute 'FaultPlan'",
    ),
    "repro.core.merge.merge_with_retries": (
        lambda f: importlib.import_module(
            "repro.core.merge"
        ).merge_with_retries,
        "has no attribute 'merge_with_retries'",
    ),
    "repro.io.mscfile.MAGIC": (
        lambda f: importlib.import_module("repro.io.mscfile").MAGIC,
        "has no attribute 'MAGIC'",
    ),
    "repro.io.mscfile.MAGIC_V2": (
        lambda f: importlib.import_module("repro.io.mscfile").MAGIC_V2,
        "has no attribute 'MAGIC_V2'",
    ),
    "repro.analysis.compare": (
        lambda f: importlib.import_module("repro.analysis.compare"),
        "No module named 'repro.analysis.compare'",
    ),
    "repro.service.PersistenceProvider": (
        lambda f: (repro.service.PersistenceProvider),
        "has no attribute 'PersistenceProvider'",
    ),
    "repro.service.FileSystemPersistenceProvider": (
        lambda f: (repro.service.FileSystemPersistenceProvider),
        "has no attribute 'FileSystemPersistenceProvider'",
    ),
    "ResultStore(provider=)": (
        lambda f: inspect.signature(
            repro.service.ResultStore
        ).bind("cache", provider=None),
        "unexpected keyword argument 'provider'",
    ),
    "ResultStore.contains": (
        lambda f: repro.service.ResultStore.contains,
        "has no attribute 'contains'",
    ),
    "ExecutionOptions.fingerprint": (
        lambda f: (repro.ExecutionOptions().fingerprint),
        "has no attribute 'fingerprint'",
    ),
    "PipelineConfig.fingerprint": (
        lambda f: repro.PipelineConfig(num_blocks=8).fingerprint,
        "has no attribute 'fingerprint'",
    ),
    **{
        f"ExecutionOptions({name}=)": (
            lambda f, name=name: repro.ExecutionOptions(**{name: 1}),
            f"unexpected keyword argument '{name}'",
        )
        for name in ("block_timeout", "max_retries", "retry_backoff",
                     "degrade_on_failure", "max_pool_restarts")
    },
    "repro.parallel.RetryPolicy": (
        lambda f: repro.parallel.RetryPolicy,
        "has no attribute 'RetryPolicy'",
    ),
    "repro.parallel.executor.BlockTimeoutError": (
        lambda f: (
            importlib.import_module("repro.parallel.executor").BlockTimeoutError
        ),
        "has no attribute 'BlockTimeoutError'",
    ),
    **{
        f"repro.machine.{name}": (
            lambda f, name=name: getattr(
                importlib.import_module("repro.machine"), name
            ),
            f"has no attribute '{name}'",
        )
        for name in ("ComputeWork", "MergeWork", "MergeRecord")
    },
    **{
        f"repro.machine.replay.{name}": (
            lambda f, name=name: getattr(
                importlib.import_module("repro.machine.replay"), name
            ),
            f"has no attribute '{name}'",
        )
        for name in ("MergeCost", "MachineReplay")
    },
    "CostModel.compute_time(work)": (
        lambda f: importlib.import_module(
            "repro.machine.costmodel"
        ).CostModel().compute_time(
            types.SimpleNamespace(cells=1, geometry_cells=0, cancellations=0)
        ),
        "missing 2 required positional arguments",
    ),
    "replay_run(compute_work=)": (
        lambda f: inspect.signature(
            importlib.import_module("repro.machine.replay").replay_run
        ).bind(None, vertex_bytes=8, workers=1, blocks=[], compute_work={},
               merges=[], output_nbytes={}),
        "unexpected keyword argument 'compute_work'",
    ),
    "BlockPayload(cells=)": (
        lambda f: inspect.signature(
            importlib.import_module("repro.core.pipeline").BlockPayload
        ).bind_partial(cells=1),
        "unexpected keyword argument 'cells'",
    ),
    "MergeOutcome(nodes_after=)": (
        lambda f: inspect.signature(
            importlib.import_module("repro.core.merge").MergeOutcome
        ).bind_partial(nodes_after=1),
        "unexpected keyword argument 'nodes_after'",
    ),
    "PipelineResult(output_blobs=None)": (
        lambda f: inspect.signature(
            importlib.import_module("repro.core.result").PipelineResult
        ).bind({}, None, None, None),
        "missing a required argument: 'output_blobs'",
    ),
    **{
        f"CubicalComplex.{name}": (
            lambda f, name=name: getattr(_complex(f), name),
            f"'CubicalComplex' object has no attribute '{name}'",
        )
        for name in ("order_rank", "cells_by_dim", "boundary_sig",
                     "cell_value", "global_address", "cell_dim", "valid",
                     "euler_characteristic")
    },
    "GradientField.continuation_tables": (
        lambda f: _gradient(f).continuation_tables,
        "'GradientField' object has no attribute 'continuation_tables'",
    ),
    "repro.mesh.boundary_signature": (
        lambda f: repro.mesh.boundary_signature,
        "has no attribute 'boundary_signature'",
    ),
    "repro.mesh.addressing.boundary_signature": (
        lambda f: importlib.import_module(
            "repro.mesh.addressing"
        ).boundary_signature,
        "has no attribute 'boundary_signature'",
    ),
    **{
        f"repro.morse.vectorfield.{name}": (
            lambda f, name=name: getattr(
                importlib.import_module("repro.morse.vectorfield"), name
            ),
            f"has no attribute '{name}'",
        )
        for name in ("CONT_CRITICAL", "CONT_DEAD")
    },
    **{
        f"MorseSmaleComplex.{name}": (
            lambda f, name=name: getattr(_ms_complex(), name),
            f"'MorseSmaleComplex' object has no attribute '{name}'",
        )
        for name in ("node_arcs", "pair_multiplicity", "incidence",
                     "multiplicity", "incident_arcs", "arcs_between",
                     "address_index", "hierarchy")
    },
    "persistence_curve(msc)": (
        lambda f: importlib.import_module(
            "repro.analysis.features"
        ).persistence_curve(_ms_complex()),
        "'MorseSmaleComplex' object has no attribute 'persistences'",
    ),
    **{
        f"LoopLists.{name}": (
            lambda f, name=name: getattr(_loop_lists(), name),
            f"'LoopLists' object has no attribute '{name}'",
        )
        for name in ("death", "pruned_at", "clock", "nominal", "adeg")
    },
    "simplify_ms_complex(max_cancellations=)": (
        lambda f: repro.morse.simplify_ms_complex(
            _ms_complex(), 0.0, max_cancellations=1
        ),
        "unexpected keyword argument 'max_cancellations'",
    ),
    "simplify_ms_complex(max_arc_multiplicity=)": (
        lambda f: repro.morse.simplify_ms_complex(
            _ms_complex(), 0.0, max_arc_multiplicity=4
        ),
        "unexpected keyword argument 'max_arc_multiplicity'",
    ),
    "extract_ms_complex(max_paths_per_node=)": (
        lambda f: repro.morse.extract_ms_complex(
            _gradient(f), max_paths_per_node=1
        ),
        "unexpected keyword argument 'max_paths_per_node'",
    ),
    "glue_into(root, other, dict)": (
        lambda f: importlib.import_module("repro.core.glue").glue_into(
            _ms_complex(), _ms_complex(), {}
        ),
        "'dict' object has no attribute 'lookup'",
    ),
}


class TestDeprecationShims:
    @pytest.mark.parametrize("spelling", sorted(REMOVED_SPELLINGS))
    def test_removed_spelling_fails_loudly(self, spelling, facade_field,
                                           capsys):
        """Each row fails for the reason it names: its error (or, for an
        argparse exit, stderr) contains the row's text, so a call that
        fails for another reason, such as a missing required field,
        proves nothing and fails here."""
        call, text = REMOVED_SPELLINGS[spelling]
        with pytest.raises(
            (TypeError, AttributeError, ImportError, SystemExit)
        ) as err:
            call(facade_field)
        if err.type is SystemExit:
            assert err.value.code == 2  # argparse usage error
            assert text in capsys.readouterr().err
        else:
            assert text in str(err.value)

    @pytest.mark.parametrize("name", ["runtime", "comm", "mpibackend"])
    def test_virtual_mpi_modules_are_gone(self, name):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.parallel.{name}")

    def test_too_many_positionals_raise(self, facade_field):
        with pytest.raises(TypeError):
            repro.compute_morse_smale_complex(
                facade_field, 0.05, True, False, "extra"
            )

    def test_keyword_use_does_not_warn(self, facade_field):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.compute_morse_smale_complex(
                facade_field, persistence_threshold=0.05, simplify=True
            )

    def test_alias_conflict_raises(self):
        with pytest.raises(TypeError):
            repro.PipelineConfig(num_blocks=8, blocks=8)

    def test_canonical_config_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.PipelineConfig(num_blocks=8, persistence_threshold=0.1)


class TestSupersededMscVersions:
    """v3 is the only ``.msc`` version read: a file ending in ``MSC1`` or
    ``MSC2`` fails readably, naming the file and its version."""

    @pytest.fixture(params=[1, 2], ids=["MSC1", "MSC2"])
    def old_file(self, request, tmp_path):
        golden = Path(__file__).parent / "data" / "golden_bumps8_hier.msc"
        path = tmp_path / f"old_v{request.param}.msc"
        path.write_bytes(
            golden.read_bytes()[:-4] + f"MSC{request.param}".encode()
        )
        return path, request.param

    def test_readers_name_the_version(self, old_file):
        from repro.io.mscfile import read_msc_file, read_msc_hierarchies

        path, version = old_file
        for read in (read_msc_file, read_msc_hierarchies):
            with pytest.raises(
                ValueError, match=f"old_v{version}.msc.*version {version}"
            ):
                read(path)

    @pytest.mark.parametrize("argv", [["info"], ["query", "--top-k", "3"]],
                             ids=["info", "query"])
    def test_cli_exits_2_with_one_error_line(self, old_file, argv, capsys):
        from repro.cli import main

        path, version = old_file
        assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"version {version}" in err[0] and "recompute" in err[0]
        assert captured.out == ""


# ---------------------------------------------------------------------------
# the hierarchy knob and the multiscale query surface
# ---------------------------------------------------------------------------


class TestHierarchyKnob:
    def test_default_off(self, facade_field):
        res = repro.compute(
            facade_field, persistence=0.05,
            options=repro.ExecutionOptions(),
        )
        assert res.hierarchies is None

    def test_options_spelling(self, facade_field):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            res = repro.compute(
                facade_field, persistence=0.05,
                options=repro.ExecutionOptions(hierarchy=True),
            )
        assert set(res.hierarchies) == set(res.output_blocks)
        assert all(h.num_levels >= 0 for h in res.hierarchies.values())

    def test_both_spellings_rejected(self, facade_field):
        with pytest.raises(TypeError, match="unexpected keyword"):
            repro.compute(
                facade_field, persistence=0.05, hierarchy=True,
                options=repro.ExecutionOptions(hierarchy=True),
            )

    def test_config_spelling(self, facade_field):
        cfg = repro.PipelineConfig(
            num_blocks=1, persistence_threshold=0.05,
            options=repro.ExecutionOptions(hierarchy=True),
        )
        res = repro.ParallelMSComplexPipeline(cfg).run(facade_field)
        assert res.hierarchies is not None

    def test_knob_is_additive(self, facade_field):
        """hierarchy=True never changes the complex by a byte."""
        from repro.core.merge import pack_complex

        plain = repro.compute(
            facade_field, persistence=0.05, ranks=4,
        )
        with_h = repro.compute(
            facade_field, persistence=0.05, ranks=4,
            options=repro.ExecutionOptions(hierarchy=True),
        )
        assert pack_complex(plain.merged_complexes[0]) == pack_complex(
            with_h.merged_complexes[0]
        )


class TestQuerySurface:
    def test_exported_at_top_level(self):
        from repro.analysis.query import load_hierarchy, query

        assert repro.query is query
        assert repro.load_hierarchy is load_hierarchy
        assert "query" in repro.__all__
        assert "load_hierarchy" in repro.__all__

    def test_end_to_end(self, facade_field, tmp_path):
        res = repro.compute(
            facade_field, persistence=0.05,
            options=repro.ExecutionOptions(hierarchy=True),
        )
        path = tmp_path / "h.msc"
        res.write(str(path))
        hierarchies = repro.load_hierarchy(str(path))
        assert set(hierarchies) == set(res.hierarchies)
        answer = repro.query(str(path), persistence=0.1)
        assert answer.num_nodes >= 1
        assert answer.to_dict()["persistence"] == 0.1

    def test_query_selector_validation(self, facade_field, tmp_path):
        res = repro.compute(
            facade_field, persistence=0.05,
            options=repro.ExecutionOptions(hierarchy=True),
        )
        path = tmp_path / "h.msc"
        res.write(str(path))
        with pytest.raises(ValueError, match="exactly one"):
            repro.query(str(path))
        with pytest.raises(ValueError, match="exactly one"):
            repro.query(str(path), persistence=0.1, top_k=1)

    def test_write_without_hierarchy_then_query_errors(
        self, facade_field, tmp_path
    ):
        res = repro.compute(facade_field, persistence=0.05)
        path = tmp_path / "v1.msc"
        res.write(str(path))
        with pytest.raises(ValueError, match="no hierarchy recorded"):
            repro.query(str(path), persistence=0.1)


# ---------------------------------------------------------------------------
# what each entry point imports
# ---------------------------------------------------------------------------

#: runs the CLI the way ``python -m repro.cli`` does, then leaves
_RUN_CLI = """
import runpy
sys.argv = ["repro", *ARGS]
try:
    runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
"""


def _loaded_modules(tmp_path, code: str, args=()) -> set[str]:
    """``sys.modules`` after ``code`` runs in a fresh interpreter."""
    out = tmp_path / "modules.txt"
    script = (
        f"import sys\nARGS = {list(args)!r}\n{code}\n"
        f"open({str(out)!r}, 'w').write('\\n'.join(sys.modules))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(out.read_text().split())


def _under(modules: set[str], *prefixes: str) -> set[str]:
    """The modules that are, or sit under, one of ``prefixes``."""
    return {
        m for m in modules for p in prefixes
        if m == p or m.startswith(p + ".")
    }


def _fault_harness(modules: set[str]) -> set[str]:
    """Any loaded fault-injection module (they live under ``tests/``)."""
    return {m for m in modules if m.rsplit(".", 1)[-1] == "faults"}


@pytest.mark.slow
class TestImportSets:
    def test_version_loads_no_numpy(self, tmp_path):
        mods = _loaded_modules(tmp_path, _RUN_CLI, ["--version"])
        assert "numpy" not in mods
        assert _under(mods, "repro") <= {"repro", "repro.cli"}

    def test_compute_loads_the_pipeline_only(self, tmp_path):
        import numpy as np

        from repro.io.volume import write_volume

        field = np.random.default_rng(0).random((12, 12, 12))
        spec = write_volume(tmp_path / "v.raw", field)
        mods = _loaded_modules(
            tmp_path, _RUN_CLI,
            ["compute", spec.path, "--dims", "12", "12", "12",
             "--workers", "1"],
        )
        assert "repro.core.pipeline" in mods
        assert not _under(
            mods, "repro.api", "repro.service", "http.server", "networkx",
            "asyncio",
        )
        assert not _fault_harness(mods)
        assert _under(mods, "repro.analysis") == {
            "repro.analysis", "repro.analysis.hierarchy",
        }

    def test_serve_loads_no_fault_harness(self, tmp_path):
        """``repro serve`` binds, serves once and shuts down; the
        scheduler imports the pipeline, never a fault plan."""
        mods = _loaded_modules(
            tmp_path,
            "import socketserver, threading\n"
            "serve = socketserver.BaseServer.serve_forever\n"
            "def serve_once(self, poll_interval=0.5):\n"
            "    threading.Thread(target=self.shutdown).start()\n"
            "    serve(self, poll_interval=0.01)\n"
            "socketserver.BaseServer.serve_forever = serve_once\n"
            + _RUN_CLI,
            ["serve", "--cache-dir", str(tmp_path / "cache"),
             "--port", "0"],
        )
        assert "repro.core.pipeline" in mods
        assert "repro.service.server" in mods
        assert not _fault_harness(mods)

    def test_facade_compute_loads_no_service(self, tmp_path):
        mods = _loaded_modules(
            tmp_path,
            "import numpy as np, repro\n"
            "repro.compute(np.random.default_rng(0).random((12, 12, 12)))",
        )
        assert "repro.api" in mods
        assert not _under(mods, "repro.service")

    def test_lazy_names_resolve_in_a_fresh_process(self, tmp_path):
        mods = _loaded_modules(
            tmp_path,
            "import repro\n"
            "from repro.core.options import ExecutionOptions\n"
            "from repro.core.pipeline import ParallelMSComplexPipeline\n"
            "from repro.service.client import ServiceClient\n"
            "assert repro.ExecutionOptions is ExecutionOptions\n"
            "assert repro.ParallelMSComplexPipeline is "
            "ParallelMSComplexPipeline\n"
            "assert repro.ServiceClient is ServiceClient\n"
            "assert repro.obs.MetricsRegistry\n"
            "assert repro.morse.extract_ms_complex\n"
            "assert set(repro.__all__) <= set(dir(repro))\n",
        )
        assert "repro.service.client" in mods
