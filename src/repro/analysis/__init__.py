"""Downstream analysis of MS complex 1-skeletons.

The paper's motivation (Fig. 1): once the complex is computed, "all
subsequent analysis queries this structure" — interactive threshold
studies, feature extraction, and graph statistics such as "length, cycle
count, and the minimum cut" of filament structures.

The package re-exports nothing; each name lives in its defining module:

- :mod:`repro.analysis.features` — node/arc filters, persistence-level
  queries over the cancellation hierarchy,
- :mod:`repro.analysis.graphtools` — the 1-skeleton as a networkx graph
  with the statistics the paper's analysis pipeline reports,
- :mod:`repro.analysis.hierarchy` — multi-resolution level queries,
- :mod:`repro.analysis.query` — re-simplification-free persistence
  queries against hierarchies persisted in ``.msc`` files,
- :mod:`repro.analysis.raster` — label volumes and ASCII projections of
  the complex geometry.
"""
