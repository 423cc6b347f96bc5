"""Config-fingerprint stability (the service cache-key foundation).

Two digests with two jobs:

- :meth:`ExecutionOptions.fingerprint` / :meth:`PipelineConfig.fingerprint`
  cover *every* knob — equal settings hash equal no matter where they
  were built (library, CLI flags, service requests), and any knob
  change changes the hash;
- :meth:`PipelineConfig.result_fingerprint` covers only what determines
  the output bytes — pure-scheduling knobs are deliberately excluded,
  so one cached artifact serves every execution setting, and its value
  is pinned: cache directories written by earlier releases stay warm.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import _facade_config
from repro.cli import _config_from_args, build_parser
from repro.core.config import PipelineConfig
from repro.core.options import ExecutionOptions, canonical_fingerprint
from repro.service.scheduler import ComputeRequest


def _facade(**kwargs) -> PipelineConfig:
    base = dict(
        persistence=0.05, ranks=8, merge_radix=2, validate=False,
        options=None, faults=None, trace=False, metrics=False,
    )
    base.update(kwargs)
    return _facade_config(**base)


class TestCanonicalFingerprint:
    def test_key_order_independent(self):
        a = canonical_fingerprint("k", {"x": 1, "y": [2, 3]})
        b = canonical_fingerprint("k", {"y": [2, 3], "x": 1})
        assert a == b

    def test_kind_namespaces_the_digest(self):
        payload = {"x": 1}
        assert canonical_fingerprint("a", payload) != \
            canonical_fingerprint("b", payload)

    def test_rejects_unserializable_payloads(self):
        with pytest.raises(TypeError):
            canonical_fingerprint("k", {"x": object()})
        with pytest.raises(TypeError):
            canonical_fingerprint("k", {"x": float("nan")})


class TestSpellingIndependence:
    """Identical settings from every front end, one fingerprint."""

    def test_cli_flags_hash_like_the_options_object(self):
        args = build_parser().parse_args(
            ["compute", "vol.raw", "--dims", "16", "16", "16",
             "--workers", "2", "--max-retries", "1", "--hierarchy"]
        )
        from_lib = ExecutionOptions(
            workers=2, max_retries=1, hierarchy=True
        )
        assert _config_from_args(args).options.fingerprint() == \
            from_lib.fingerprint()

    def test_service_request_hashes_like_the_facade(self, tmp_path):
        from repro.io.volume import VolumeSpec

        spec = VolumeSpec(str(tmp_path / "v.raw"), (8, 8, 8), "float64")
        request = ComputeRequest(
            volume=spec, persistence=0.05, ranks=8, merge_radix=2,
            hierarchy=True,
        )
        direct = _facade(options=ExecutionOptions(hierarchy=True))
        assert request.pipeline_config().fingerprint() == \
            direct.fingerprint()


class TestResultFingerprintScope:
    def test_value_survives_the_upgrade(self):
        """The digest keys every cached artifact on disk: it must not
        move when scheduling knobs come or go (value from the release
        before ``kernel_backend``, ``merge_executor``, ``executor`` and
        ``transport`` were removed)."""
        cfg = PipelineConfig(
            num_blocks=8, persistence_threshold=0.05, max_radix=2
        )
        assert cfg.result_fingerprint() == (
            "02567d5d3c94e2e10e09321194916060"
            "ab32f509d45faa1878409822d77806df"
        )

    def test_scheduling_knobs_are_excluded(self):
        lean = _facade()
        wide = _facade(
            options=ExecutionOptions(
                workers=4, merge_spill_budget_bytes=0,
                block_timeout=5.0, max_retries=5, retry_backoff=0.2,
                degrade_on_failure=False, max_pool_restarts=1,
            )
        )
        # same answer bytes -> same cache-key half ...
        assert lean.result_fingerprint() == wide.result_fingerprint()
        # ... but a different run identity (sessions must not be shared
        # across scheduling settings)
        assert lean.fingerprint() != wide.fingerprint()

    @pytest.mark.parametrize(
        "change",
        [
            {"persistence": 0.1},
            {"ranks": 4},
            {"merge_radix": 8},
            {"merge_radix": "none"},
            {"options": ExecutionOptions(hierarchy=True)},
        ],
    )
    def test_every_result_shaping_knob_changes_it(self, change):
        assert _facade(**change).result_fingerprint() != \
            _facade().result_fingerprint()

    def test_radix_spelling_canonicalized(self):
        # merge_radix=2 over 8 ranks resolves to rounds [2, 2, 2]; the
        # explicit sequence spelling must land on the same fingerprint
        assert _facade(merge_radix=2).result_fingerprint() == \
            _facade(merge_radix=[2, 2, 2]).result_fingerprint()
        assert _facade(merge_radix=8).result_fingerprint() == \
            _facade(merge_radix=[8]).result_fingerprint()


#: every ExecutionOptions knob with a few valid draws each — compact on
#: purpose so hypothesis explores combinations, not invalid inputs
_KNOBS = {
    "workers": st.integers(1, 4),
    "block_timeout": st.sampled_from([None, 1.0, 30.0]),
    "max_retries": st.integers(0, 3),
    "retry_backoff": st.sampled_from([0.0, 0.05, 0.5]),
    "degrade_on_failure": st.booleans(),
    "max_pool_restarts": st.integers(0, 2),
    "hierarchy": st.booleans(),
    "merge_spill_budget_bytes": st.sampled_from([None, 0, 1 << 20]),
}
#: the properties below follow the dataclass's field list, not this table
_FIELD_NAMES = [f.name for f in dataclasses.fields(ExecutionOptions)]


class TestFingerprintProperties:
    def test_every_field_has_a_strategy(self):
        assert sorted(_KNOBS) == sorted(_FIELD_NAMES)

    @given(kwargs=st.fixed_dictionaries(_KNOBS))
    @settings(max_examples=50, deadline=None)
    def test_equal_options_equal_fingerprint(self, kwargs):
        assert ExecutionOptions(**kwargs).fingerprint() == \
            ExecutionOptions(**kwargs).fingerprint()

    @given(
        kwargs=st.fixed_dictionaries(_KNOBS),
        knob=st.sampled_from(_FIELD_NAMES),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_knob_change_changes_fingerprint(self, kwargs, knob, data):
        changed = dict(kwargs)
        changed[knob] = data.draw(
            _KNOBS[knob].filter(lambda v: v != kwargs[knob]),
            label=f"new {knob}",
        )
        assert ExecutionOptions(**kwargs).fingerprint() != \
            ExecutionOptions(**changed).fingerprint()

    @given(
        kwargs=st.fixed_dictionaries(_KNOBS),
        persistence=st.sampled_from([0.0, 0.05, 0.2]),
        ranks=st.sampled_from([1, 2, 8]),
    )
    @settings(max_examples=30, deadline=None)
    def test_result_fingerprint_constant_across_scheduling(
        self, kwargs, persistence, ranks
    ):
        hierarchy = kwargs.pop("hierarchy")
        varied = _facade(
            persistence=persistence, ranks=ranks,
            options=ExecutionOptions(hierarchy=hierarchy, **kwargs),
        )
        reference = _facade(
            persistence=persistence, ranks=ranks,
            options=ExecutionOptions(hierarchy=hierarchy),
        )
        assert varied.result_fingerprint() == \
            reference.result_fingerprint()
