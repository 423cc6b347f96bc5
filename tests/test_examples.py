"""Smoke tests: every example script runs end to end.

The heavier examples are exercised at reduced problem sizes by calling
their building blocks; ``quickstart`` runs verbatim (it is the paper's
"hello world" and must work as documented).
"""

import re
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


@pytest.fixture(autouse=True)
def _examples_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(EXAMPLES))


def test_quickstart_runs(capsys):
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "parallel == serial feature counts: OK" in out


def test_combustion_minima_curve_starts_at_the_merged_complex(capsys):
    """The printed persistence curve is read from the output block's
    captured hierarchy: at persistence 0 it counts exactly the merged
    complex's nodes, then steps down."""
    sys.path.insert(0, str(EXAMPLES))
    import combustion_minima

    combustion_minima.main(dims=(24, 28, 16))
    out = capsys.readouterr().out
    nodes = int(re.search(r"merged MS complex: MS complex: (\d+) nodes",
                          out).group(1))
    curve = [int(c) for c in re.findall(
        r"persistence <= [\d.]+: (\d+) critical points", out
    )]
    assert len(curve) == 8 and curve[0] == nodes
    assert curve == sorted(curve, reverse=True) and curve[-1] < nodes


def test_insitu_monitoring_loop(capsys):
    """The time series is a plain loop over one open pipeline; at smoke
    size the node count still grows from the first step to the last."""
    sys.path.insert(0, str(EXAMPLES))
    import insitu_monitoring

    insitu_monitoring.main(dims=(17, 17, 17), steps=3)
    out = capsys.readouterr().out
    assert len(re.findall(r"^\s+\d\.\d\d\s+\d+", out, re.M)) == 3
    assert re.search(r"feature count grew by \+\d+ nodes", out)


def test_porous_filaments_components():
    sys.path.insert(0, str(EXAMPLES))
    import porous_filaments as pf

    field = pf.porous_material_field(n=20, num_grains=12, seed=3)
    assert field.shape == (20, 20, 20)
    # pore space exists on both sides of the material interface
    assert (field > 0).any() and (field < 0).any()

    from repro import PipelineConfig, ParallelMSComplexPipeline
    from repro.analysis.features import arcs_by_family
    from repro.analysis.graphtools import filament_statistics, to_networkx

    cfg = PipelineConfig(num_blocks=8, persistence_threshold=0.01)
    msc = ParallelMSComplexPipeline(cfg).run(field).merged_complexes[0]
    g = to_networkx(msc, arcs_by_family(msc, 3))
    stats = filament_statistics(g)
    assert stats["arcs"] > 0
    assert stats["total_length"] > 0


def test_stability_example_helpers():
    sys.path.insert(0, str(EXAMPLES))
    import stability_study as ss
    from repro import compute_morse_smale_complex
    from repro.data import hydrogen_atom

    field = hydrogen_atom(25)
    msc = compute_morse_smale_complex(field, persistence_threshold=2.0)
    arcs, maxima = ss.stable_features(msc)
    assert len(maxima) >= 1


def test_all_examples_importable():
    sys.path.insert(0, str(EXAMPLES))
    for script in EXAMPLES.glob("*.py"):
        mod = runpy.run_path(str(script), run_name="not_main")
        assert "main" in mod, f"{script.name} lacks a main()"
