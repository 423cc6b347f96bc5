"""Multi-scale interactive exploration (paper Fig. 1, right side).

"A scientist may interactively visualize statistics about the
topological structure of the data or select different threshold values
to define features.  Such exploration provides immediate feedback ...
This allows scientists to conduct parameter studies without the need to
rerun analyses on the original data."

The enabling structure is the cancellation hierarchy (§III-C): one
computation yields a multi-resolution family of complexes, and every
persistence level is a cheap query.  This example runs the parallel
pipeline ONCE with the ``hierarchy`` option, persists the result — the
complex and its hierarchy together — into a ``.msc`` v2 file, and then
"moves the slider" entirely through the file: every threshold below is
answered by :func:`repro.query` out of the persisted footer, without
touching the original data or re-simplifying anything.  Close the
session, come back tomorrow, point ``repro query`` at the same file —
same instant answers.

Usage::

    python examples/multiscale_exploration.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import repro
from repro.data import rayleigh_taylor_proxy


def main() -> None:
    field = rayleigh_taylor_proxy((28, 28, 28), num_plumes=14)
    print(f"Rayleigh-Taylor proxy {field.shape}, "
          f"density range [{field.min():.2f}, {field.max():.2f}]")

    # one full parallel computation, hierarchy captured and persisted
    result = repro.compute(
        field, persistence=0.0, ranks=8,
        options=repro.ExecutionOptions(hierarchy=True),
    )
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "rt_proxy.msc"
        nbytes = result.write(str(path))
        print(f"persisted complex + hierarchy: {nbytes} bytes (.msc v2)")

        # everything below is pure file queries — the pipeline is done
        hierarchies = repro.load_hierarchy(str(path))
        depth = max(h.num_levels for h in hierarchies.values())
        top = max(max(h.persistences) for h in hierarchies.values())
        print(f"hierarchy: {depth} cancellation levels, "
              f"persistence range [0, {top:.3f}]\n")

        # the parameter study: walk the persistence slider
        print(f"{'persistence':>12} {'min':>5} {'1sad':>5} {'2sad':>5} "
              f"{'max':>5} {'arcs':>6}")
        for frac in (0.0, 0.001, 0.01, 0.05, 0.2, 0.5, 1.0):
            p = frac * top
            answer = repro.query(hierarchies, persistence=p)
            c = answer.node_counts_by_index()
            print(f"{p:>12.4f} {c[0]:>5} {c[1]:>5} {c[2]:>5} {c[3]:>5} "
                  f"{answer.num_arcs:>6}")

        # coarse-to-fine: the k most persistent features, no threshold
        # guessing required
        for k in (2, 8):
            answer = repro.query(hierarchies, top_k=k)
            print(f"\ntop-{k} scales: {answer.num_nodes} nodes, "
                  f"{answer.num_arcs} arcs "
                  f"(effective persistence {answer.persistence:.4f})")

    print(
        "\neach row above was a pure file lookup - the data was "
        "processed once."
    )


if __name__ == "__main__":
    main()
