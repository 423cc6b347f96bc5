"""Meta tests: public API surface, documentation coverage, and the
`repro.api` facade contract (routing, round-trips, removed spellings)."""

import importlib
import inspect
import pkgutil
import subprocess
import sys
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

        cfg = repro.PipelineConfig(
            num_blocks=8, persistence_threshold=0.05, max_radix=8
        )
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
        opts = repro.ExecutionOptions(workers=2, retry_backoff=0.0)
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
            {"max_retries": -1},
            {"retry_backoff": -1.0},
            {"block_timeout": -5},
            {"workers": True},
            {"workers": 1.5},
            {"max_pool_restarts": 1.0},
            {"merge_spill_budget_bytes": -1},
        ],
        ids=lambda bad: "-".join(bad),
    )
    def test_every_held_value_validates_at_construction(self, bad):
        """Not one layer later (PipelineConfig) or mid-run."""
        with pytest.raises(ValueError):
            repro.ExecutionOptions(**bad)

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


def _gradient(values):
    from repro.mesh.cubical import CubicalComplex
    from repro.morse.gradient import compute_discrete_gradient

    return compute_discrete_gradient(CubicalComplex(values))


def _parse_cli(*argv):
    from repro.cli import build_parser

    return build_parser().parse_args(list(argv))


#: every spelling removed with the shims, the tracing-backend knob, the
#: second merge engine and the executor/transport knobs
REMOVED_SPELLINGS = {
    "PipelineConfig(workers=)": lambda f: repro.PipelineConfig(
        num_blocks=8, workers=2
    ),
    "PipelineConfig(persistence=)": lambda f: repro.PipelineConfig(
        num_blocks=8, persistence=0.25
    ),
    "compute(workers=)": lambda f: repro.compute(
        f, persistence=0.05, workers=1
    ),
    "compute_morse_smale_complex(f, 0.05)": lambda f: (
        repro.compute_morse_smale_complex(f, 0.05)
    ),
    "extract_ms_complex(kernel_backend=)": lambda f: (
        repro.morse.extract_ms_complex(_gradient(f), kernel_backend="dfs")
    ),
    "ExecutionOptions(kernel_backend=)": lambda f: repro.ExecutionOptions(
        kernel_backend="pointer"
    ),
    "compute --kernel-backend": lambda f: _parse_cli(
        "compute", "v.raw", "--dims", "4", "4", "4",
        "--kernel-backend", "pointer",
    ),
    "stream --kernel-backend": lambda f: _parse_cli(
        "stream", "v.raw", "--dims", "4", "4", "4",
        "--kernel-backend", "pointer",
    ),
    "ExecutionOptions(merge_executor=)": lambda f: repro.ExecutionOptions(
        merge_executor="serial"
    ),
    "compute --merge-executor": lambda f: _parse_cli(
        "compute", "v.raw", "--dims", "4", "4", "4",
        "--merge-executor", "serial",
    ),
    "ExecutionOptions(executor=)": lambda f: repro.ExecutionOptions(
        executor="auto"
    ),
    "ExecutionOptions(transport=)": lambda f: repro.ExecutionOptions(
        transport="auto"
    ),
    "compute --executor": lambda f: _parse_cli(
        "compute", "v.raw", "--dims", "4", "4", "4",
        "--executor", "auto",
    ),
    "stream --transport": lambda f: _parse_cli(
        "stream", "v.raw", "--dims", "4", "4", "4",
        "--transport", "auto",
    ),
    "FaultTolerantExecutor(kind=)": lambda f: (
        repro.parallel.FaultTolerantExecutor(kind="serial")
    ),
}


class TestDeprecationShims:
    @pytest.mark.parametrize("spelling", sorted(REMOVED_SPELLINGS))
    def test_removed_spelling_fails_loudly(self, spelling, facade_field):
        with pytest.raises((TypeError, SystemExit)) as err:
            REMOVED_SPELLINGS[spelling](facade_field)
        if err.type is SystemExit:
            assert err.value.code == 2  # argparse usage error

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
            options=repro.ExecutionOptions(retry_backoff=0.0),
        )
        with_h = repro.compute(
            facade_field, persistence=0.05, ranks=4,
            options=repro.ExecutionOptions(retry_backoff=0.0,
                                           hierarchy=True),
        )
        assert pack_complex(plain.merged_complexes[0]) == pack_complex(
            with_h.merged_complexes[0]
        )


class TestQuerySurface:
    def test_exported_at_top_level(self):
        assert repro.query is repro.api.query
        assert repro.load_hierarchy is repro.api.load_hierarchy
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
