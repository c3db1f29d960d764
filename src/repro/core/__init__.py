"""HYDRA reproduction core: the paper's contribution plus its substrates.

Modules are layered bottom-up:

- :mod:`repro.core.schema` / :mod:`repro.core.constraints` — data model for
  relations, FK DAGs, intervals, DNF predicates and cardinality constraints.
- :mod:`repro.core.workload` — AQP derivation → CCs, and the one FK join
  planner with its pandas and Spark executors.
- :mod:`repro.core.preprocess` — DataSynth's view/sub-view decomposition.
- :mod:`repro.core.regions` / :mod:`repro.core.grid` — HYDRA's
  region-partitioning (Algorithms 1 & 2, one sweep) vs DataSynth's
  grid-partitioning, the same sweep with every attribute cut.
- :mod:`repro.core.lp` / :mod:`repro.core.solver` — LP formulation and the
  simplex feasibility substrate standing in for Z3.
- :mod:`repro.core.align` / :mod:`repro.core.summary` — deterministic
  alignment and database-summary construction.
- :mod:`repro.core.tuplegen` / :mod:`repro.core.materialize` — dynamic
  regeneration on Spark and static materialization.
- :mod:`repro.core.hydra` / :mod:`repro.core.datasynth` — end-to-end drivers.
- :mod:`repro.core.metrics` — volumetric similarity measurement.
"""
