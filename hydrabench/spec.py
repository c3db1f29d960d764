"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root lists the metric names, units,
directions and bounds; this module adds what that file has no room for:
each metric's layer, the end-to-end metric a per-layer metric should move
and on which workload, and each workload's inputs and held-out seed.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    queries: str  # query generator: "wlc", "wls" (TPC-DS-lite) or "job" (JOB-lite)
    sf: float
    n_queries: int
    #: seed of the query generator (the generator's own default)
    workload_seed: int
    #: a query seed never used while tuning; run it with --workload-seed
    heldout_seed: int
    #: seed of the client-database generator (the generator's own default)
    data_seed: int
    #: CC scale factor of the database whose tuples are supplied (§7.4)
    supply_scale: int
    #: relations whose tuples are supplied on Spark (None: all of them). On
    #: TPC-DS-lite only the fact table store_sales: a Spark job per small
    #: relation costs more than its rows, so all eleven would be mostly job
    #: overhead and take longer than the check allows.
    supply_relations: tuple[str, ...] | None
    #: what one timed round runs (see ``pipeline.Run.round``): supply
    #: repetitions, and between their Spark passes AQP and DataSynth calls and
    #: ``regenerate`` calls (round r runs ``regen_per_round[r % len]``)
    aqp_per_round: int
    regen_per_round: tuple[int, ...]
    datasynth_per_round: int
    supply_per_round: int
    #: timed passes over each supply's generated and scanned relations: on
    #: a small supply a pass is mostly Spark job latency, so more samples of
    #: it are cheap and steady the median
    gen_passes: int
    scan_passes: int


# The preparation before the rounds already runs regenerate once on the
# supplied CCs, so with at least one more call in MIN_ROUNDS rounds every
# run checks that repeated regenerate calls give the same summary. On
# wlc-lp a call takes ~10 s, so only every other round runs one.
WORKLOADS = {
    "wlc-lp": WorkloadSpec(
        "wlc-lp", "wlc", 0.01, 80, 101, 103, 0, 1, ("store_sales",),
        aqp_per_round=1, regen_per_round=(0, 1), datasynth_per_round=0, supply_per_round=2,
        gen_passes=2, scan_passes=2,
    ),
    "wls-datasynth": WorkloadSpec(
        "wls-datasynth", "wls", 0.1, 80, 202, 203, 0, 1, ("store_sales",),
        aqp_per_round=0, regen_per_round=(3,), datasynth_per_round=0, supply_per_round=1,
        gen_passes=1, scan_passes=1,
    ),
    "job-supply": WorkloadSpec(
        "job-supply", "job", 0.01, 40, 303, 304, 7, 10, None,
        aqp_per_round=2, regen_per_round=(12,), datasynth_per_round=1, supply_per_round=1,
        gen_passes=1, scan_passes=2,
    ),
}

#: Timed rounds repeat while another fits in ``--seconds``, and at least
#: this many times; the traced run makes exactly this many.
MIN_ROUNDS = 2

#: DataSynth is given a view's CCs only if every sub-view's grid has at most
#: this many cells; larger views keep just their size CC. The paper's
#: DataSynth cannot solve WLc at all (Fig 13); this keeps its LP solvable
#: on WLc (catalog_sales and store_returns are left out) and drops nothing
#: on WLs or JOB.
DATASYNTH_SUBVIEW_CELL_CAP = 5_000

#: Spark settings pinned by the benchmark (the driver JVM gets 2 GiB).
SPARK_CONF = {
    "spark.master": "local[4]",
    "spark.sql.shuffle.partitions": "4",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.execution.arrow.maxRecordsPerBatch": "10000",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
}
SPARK_DRIVER_MEMORY = "2g"
#: JVM options of the Spark driver. C1 only: with the default tiered JIT the
#: supply kept getting faster for tens of repetitions as C2 recompiled it,
#: so a run's median depended on how many it made; with C1 alone timings
#: level off after the first (cold) one, ~20% below C2's eventual speed.
SPARK_JAVA_OPTIONS = ("-XX:TieredStopAtLevel=1",)

# name -> (unit, better, layer, what it is). Every run prints all of them;
# the result object holds those BENCHMARK.json gates. aqp_s and datasynth_s
# are printed only: on job-supply they take 0.1 s and 0.5 s, and their
# run-to-run spread follows the host's speed past the largest bound.
END_TO_END = {
    "setup_s": ("s", "lower", "harness",
                "median of 3 builds of the inputs (client DB, its seeded permutation, "
                "queries) plus the Spark session start, JVM launch included"),
    "aqp_s": ("s", "lower", "workload, preprocess",
              "client-site CC derivation: derive_ccs_pandas, base_size_ccs, rewrite_ccs "
              "(median of the run's repetitions)"),
    "regen_s": ("s", "lower", "hydra",
                "regenerate, CCs -> DatabaseSummary (median); the headline on wlc-lp; "
                "on job-supply it runs on the scaled CCs (the scale-free claim)"),
    "datasynth_s": ("s", "lower", "datasynth",
                    "regenerate_datasynth on the CCs whose sub-view grids fit "
                    "DATASYNTH_SUBVIEW_CELL_CAP"),
    "gen_rows_per_s": ("rows/s", "higher", "tuplegen",
                       "generate_relation + fingerprint_all (count, row-hash sum, FK "
                       "ranges), over the supplied relations (median of the timed "
                       "passes); the headline on job-supply"),
    "materialize_rows_per_s": ("rows/s", "higher", "materialize",
                               "materialize_relation to parquet, same relations (median)"),
    "scan_rows_per_s": ("rows/s", "higher", "materialize",
                        "scan_parquet + fingerprint_all (median)"),
    "peak_rss_mb": ("MB", "lower", "all",
                    "peak RSS of the Python driver process; excludes the Spark JVM "
                    "and its Python workers"),
    "cc_exact_frac": ("fraction", "higher", "fidelity",
                      "share of CCs the regenerated database meets exactly"),
    "cc_within_10pct_frac": ("fraction", "higher", "fidelity",
                             "share of CCs within 10% relative error"),
    "cc_max_abs_err": ("ratio", "lower", "fidelity",
                       "largest |relative error| over the CCs"),
    "cc_nonneg_frac": ("fraction", "higher", "fidelity",
                       "share of CCs without negative error; HYDRA's contract says 1. "
                       "The count itself is printed as cc_neg_errs"),
    "extra_tuples": ("count", "lower", "summary",
                     "tuples added by referential repair (Fig 11)"),
    "summary_rows": ("count", "lower", "summary", "rows of the database summary"),
}

# name -> (unit, better, end-to-end metric it should move, on which workload)
PER_LAYER = {
    "preprocess.plan_s": ("s", "lower", "regen_s", "wlc-lp"),
    "preprocess.subviews": ("count", "lower", "regen_s", "wlc-lp"),
    "preprocess.max_separator_attrs": ("count", "lower", "regen_s", "wlc-lp"),
    "regions.partition_s": ("s", "lower", "regen_s, peak_rss_mb", "wlc-lp"),
    "regions.label_regions": ("count", "lower", "regen_s", "wlc-lp"),
    "lp.formulate_s": ("s", "lower", "regen_s, peak_rss_mb", "wlc-lp"),
    "lp.formulate_max_view_s": ("s", "lower", "regen_s", "wlc-lp"),
    "lp.vars": ("count", "lower", "regen_s, peak_rss_mb", "wlc-lp"),
    "lp.rows": ("count", "lower", "regen_s, peak_rss_mb", "wlc-lp"),
    "lp.nnz": ("count", "lower", "regen_s, peak_rss_mb", "wlc-lp"),
    "lp.vars_per_label_region": ("ratio", "lower", "regen_s", "wlc-lp"),
    "grid.vars_analytic": ("count", "lower", "datasynth_s", "wlc-lp, job-supply"),
    "grid.vars": ("count", "lower", "datasynth_s", "wlc-lp, job-supply"),
    "solver.solve_s": ("s", "lower", "regen_s", "wlc-lp"),
    "solver.fractional_vars": ("count", "lower", "regen_s, cc_exact_frac", "wlc-lp"),
    "solver.residual_max": ("count", "lower", "cc_exact_frac", "wlc-lp"),
    "align.s": ("s", "lower", "regen_s", "wlc-lp"),
    "align.rip_breaks": ("count", "lower", "cc_max_abs_err, cc_nonneg_frac", "wlc-lp"),
    "align.cc_exact_frac": ("fraction", "higher", "cc_exact_frac", "wlc-lp"),
    "summary.repair_s": ("s", "lower", "regen_s", "all"),
    "summary.extract_s": ("s", "lower", "regen_s", "all"),
    "summary.extra_tuples": ("count", "lower", "extra_tuples", "all"),
    "summary.rows": ("count", "lower", "summary_rows", "all"),
    "tuplegen.gen_s": ("s", "lower", "gen_rows_per_s", "job-supply"),
    "tuplegen.gen_cold_s": ("s", "lower", "gen_rows_per_s", "job-supply"),
    "tuplegen.decode_pandas_s": ("s", "lower", "none (feeds the fidelity check)", "wlc-lp"),
    "materialize.write_s": ("s", "lower", "materialize_rows_per_s", "job-supply"),
    "materialize.bytes_per_row": ("B/row", "lower", "materialize_rows_per_s, scan_rows_per_s",
                                  "job-supply"),
    "materialize.scan_s": ("s", "lower", "scan_rows_per_s", "job-supply"),
    "datasynth.lp_s": ("s", "lower", "datasynth_s", "wlc-lp, job-supply"),
    "datasynth.instantiate_s": ("s", "lower", "datasynth_s", "wlc-lp, job-supply"),
    "datasynth.extra_tuples": ("count", "lower", "none (baseline fidelity)", "wlc-lp, job-supply"),
    "datasynth.cc_exact_frac": ("fraction", "higher", "none (baseline fidelity)",
                                "wlc-lp, job-supply"),
    "datasynth.neg_errs": ("count", "lower", "none (baseline fidelity)", "wlc-lp, job-supply"),
    "workload.derive_s": ("s", "lower", "aqp_s", "wlc-lp, job-supply"),
    "workload.raw_ccs": ("count", "lower", "aqp_s", "wlc-lp, job-supply"),
    "metrics.eval_s": ("s", "lower", "none (measuring harness; shares _join_pandas "
                       "with workload)", "wlc-lp, job-supply"),
    "metrics.ccs": ("count", "lower", "none", "all"),
    "trace.regen_uncovered_s": ("s", "lower", "regen_s", "wlc-lp"),
    "trace.overhead_s": ("s", "lower", "none (traced minus untraced regen_s)", "all"),
}
