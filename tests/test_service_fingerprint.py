"""Config-fingerprint stability (the service cache-key foundation).

- equal settings build equal :class:`ExecutionOptions` /
  :class:`PipelineConfig` objects no matter where they were built
  (library, CLI flags, service requests), and any knob change makes
  them differ;
- :meth:`PipelineConfig.result_fingerprint`, the one digest, covers
  only what determines the output bytes — pure-scheduling knobs are
  deliberately excluded, so one cached artifact serves every execution
  setting, and its value is pinned: cache directories written by
  earlier releases stay warm.
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
        options=None, trace=False,
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
    """Identical settings from every front end, one configuration."""

    def test_cli_flags_hash_like_the_options_object(self):
        args = build_parser().parse_args(
            ["compute", "vol.raw", "--dims", "16", "16", "16",
             "--workers", "2", "--merge-spill-budget", "1M", "--hierarchy"]
        )
        from_lib = ExecutionOptions(
            workers=2, merge_spill_budget_bytes=1 << 20, hierarchy=True
        )
        assert _config_from_args(args).options == from_lib

    def test_service_request_hashes_like_the_facade(self, tmp_path):
        from repro.io.volume import VolumeSpec

        spec = VolumeSpec(str(tmp_path / "v.raw"), (8, 8, 8), "float64")
        request = ComputeRequest(
            volume=spec, persistence=0.05, ranks=8, merge_radix=2,
            hierarchy=True,
        )
        direct = _facade(options=ExecutionOptions(hierarchy=True))
        assert request.pipeline_config() == direct


class TestResultFingerprintScope:
    def test_value_survives_the_upgrade(self):
        """The digest keys every cached artifact on disk: it must not
        move when scheduling knobs come or go (the value held from the
        release before ``kernel_backend``, ``merge_executor``,
        ``executor`` and ``transport`` were removed).  It moves when
        what a configuration computes moves: re-recorded (from
        ``02567d5d…``) when ``RESULT_VERSION`` 2 entered the digest,
        because equal persistences began to cancel in push order with
        at most 2 parallel arcs per pair, and a store written before
        must miss rather than serve the old complex."""
        cfg = PipelineConfig(
            num_blocks=8, persistence_threshold=0.05, merge_radices=[2, 2, 2]
        )
        assert cfg.result_fingerprint() == (
            "fe084cab6d6dbcfaef67f5c0c79e6f76"
            "a24eed3c50b1f13384ae8c13bdea676f"
        )

    def test_scheduling_knobs_are_excluded(self):
        lean = _facade()
        wide = _facade(
            options=ExecutionOptions(
                workers=4, merge_spill_budget_bytes=0,
            )
        )
        # same answer bytes -> same cache-key half ...
        assert lean.result_fingerprint() == wide.result_fingerprint()
        # ... of two different configurations
        assert lean != wide

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
        a, b = ExecutionOptions(**kwargs), ExecutionOptions(**kwargs)
        assert a == b and hash(a) == hash(b)

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
        assert ExecutionOptions(**kwargs) != ExecutionOptions(**changed)

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
