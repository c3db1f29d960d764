"""One benchmark run: set up a workload, time its stages, check the outputs.

A run goes through the vendor-side pipeline of the paper end to end:

1. set-up: the client database, its seeded permutation and the queries,
   then the Spark session;
2. preparation: client-site CC derivation (AQP) on the client database;
   HYDRA ``regenerate`` on the CCs and, on a workload with a supply scale,
   on the scaled CCs whose tuples are supplied; the DataSynth baseline on the
   CCs whose grid it can solve; fidelity, with the regenerated database
   decoded driver-side and every CC re-executed on it; the generator checked
   against DuckDB on the unscaled summary;
3. timed rounds for ``--seconds``: each round runs AQP, ``regenerate`` on
   the supplied CCs and DataSynth a fixed number of times, then supplies the
   supplied relations — dynamic generation, materialization to parquet and a
   scan of the parquet files, each followed by the same aggregate.

The preparation's calls are the first samples of their stages; the median
of each stage's samples is reported.

``--seed`` draws an isomorphic copy of the client database: rows shuffled
and primary keys relabelled, foreign keys following. Every CC count is
invariant under that, so the regenerated outputs — and every fidelity and
size count — must not depend on the seed; the run checks it. The query
seed (``--workload-seed``) changes the LP itself, by 10x in size, so it is
a workload parameter rather than noise.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
import resource
import shlex
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np
import pandas as pd

from spec import (
    DATASYNTH_SUBVIEW_CELL_CAP,
    END_TO_END,
    MIN_ROUNDS,
    SPARK_CONF,
    SPARK_DRIVER_MEMORY,
    SPARK_JAVA_OPTIONS,
    WorkloadSpec,
)

from repro import oracle
from repro.core import (
    datasynth,
    grid,
    hydra,
    materialize,
    metrics,
    preprocess,
    tuplegen,
    workload,
)
from repro.job import generator as job_generator
from repro.job.schema import job_schema
from repro.job.workload import make_job_workload
from repro.tpcds import generator as tpcds_generator
from repro.tpcds.schema import tpcds_schema
from repro.tpcds.workload import make_wlc, make_wls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def substrate(spec: WorkloadSpec):
    """(schema, client-DB generator, query generator) of a workload."""
    if spec.queries == "job":
        return job_schema(), job_generator.generate_client_db, make_job_workload
    make = {"wlc": make_wlc, "wls": make_wls}[spec.queries]
    return tpcds_schema(), tpcds_generator.generate_client_db, make


def permuted_copy(schema, db: dict[str, pd.DataFrame], seed: int) -> dict[str, pd.DataFrame]:
    """An isomorphic copy: rows shuffled, PKs relabelled, FKs remapped."""
    rng = np.random.default_rng(seed)
    relabel = {}
    for name, df in db.items():
        pk = df[schema[name].pk].to_numpy()
        if not np.array_equal(np.sort(pk), np.arange(1, len(df) + 1)):
            raise ValueError(f"{name}: primary keys are not 1..N")
        relabel[name] = rng.permutation(len(df)) + 1  # new label of PK p is [p - 1]
    out = {}
    for name, df in db.items():
        rel = schema[name]
        cols = {c: df[c].to_numpy() for c in df.columns}
        cols[rel.pk] = relabel[name][cols[rel.pk] - 1]
        for fk, target in rel.fks.items():
            cols[fk] = relabel[target][cols[fk] - 1]
        order = rng.permutation(len(df))
        out[name] = pd.DataFrame({c: v[order] for c, v in cols.items()})
    return out


def derive_ccs(schema, db, queries):
    raw = workload.derive_ccs_pandas(schema, db, queries)
    raw = workload.base_size_ccs(schema, {r: len(df) for r, df in db.items()}, raw)
    return preprocess.rewrite_ccs(schema, raw), len(raw)


def summary_digest(summary) -> str:
    h = hashlib.sha256()
    for name in sorted(summary.relations):
        frame = summary.relations[name].frame
        h.update(f"{name}:{','.join(frame.columns)}".encode())
        h.update(np.ascontiguousarray(frame.to_numpy(dtype=np.int64)).tobytes())
    h.update(json.dumps(sorted(summary.extra_tuples.items())).encode())
    return h.hexdigest()


def datasynth_ccs(schema, ccs):
    """CCs of the views whose every sub-view grid fits the cell cap."""
    dropped = set()
    for view, plan in preprocess.plan_views(schema, ccs).items():
        for sv in plan.subviews:
            sv_ccs = [c for c in plan.ccs if c.predicate.attrs <= set(sv)]
            if grid.grid_variable_count(sv, plan.domain, sv_ccs) > DATASYNTH_SUBVIEW_CELL_CAP:
                dropped.add(view)
    kept = [c for c in ccs if c.view not in dropped or c.predicate.is_true]
    return kept, sorted(dropped)


def fidelity_metrics(errs) -> dict[str, float]:
    n = len(errs)
    neg, zero, _ = metrics.signed_error_split(errs)
    return {
        "cc_exact_frac": zero / n,
        "cc_within_10pct_frac": dict(metrics.error_cdf(errs))[0.10],
        "cc_max_abs_err": metrics.max_abs_error(errs),
        "cc_nonneg_frac": (n - neg) / n,
        "cc_neg_errs": neg,
    }


# -- Spark -------------------------------------------------------------------


def spark_env(tmp: Path) -> None:
    """Pin the JVM launch options; must run before the first session."""
    java_opts = " ".join(
        [
            "-XX:-UsePerfData",
            *SPARK_JAVA_OPTIONS,
            f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile=file:{HERE / 'log4j2.properties'}",
        ]
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {SPARK_CONF['spark.master']}",
            f"--driver-memory {SPARK_DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "pyspark-shell",
        ]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )


def start_spark(tmp: Path):
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("hydrabench")
    for k, v in SPARK_CONF.items():
        b = b.config(k, v)
    b = b.config("spark.local.dir", str(tmp)).config(
        "spark.sql.warehouse.dir", str(tmp / "warehouse")
    )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM it launched, and wait for the JVM."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits at EOF on its stdin
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


def fingerprint_all(frames: dict, fks: dict[str, list[str]]) -> dict:
    """Per relation, in one job: count(*), the sum of a 64-bit hash of every
    row, and the minimum and maximum of each FK column in ``fks``. It reads
    every value, and plans a few expressions rather than a hundred: on a
    small relation, planning would otherwise be most of the time."""
    import pyspark.sql.functions as F
    from pyspark.sql import DataFrame

    parts = []
    for name, df in frames.items():
        ranges = [e for c in fks[name] for e in (F.min(c).alias(f"min_{c}"),
                                                  F.max(c).alias(f"max_{c}"))]
        parts.append(df.agg(
            F.lit(name).alias("rel"),
            F.count(F.lit(1)).alias("n"),
            # decimal: a long sum of hashes overflows (an error under ANSI)
            F.sum(F.xxhash64(*sorted(df.columns)).cast("decimal(38,0)")).alias("h"),
            (F.to_json(F.struct(*ranges)) if ranges else F.lit("{}")).alias("fk"),
        ))
    rows = reduce(DataFrame.unionByName, parts).collect()
    return {r["rel"]: {"n": r["n"], "h": r["h"], **json.loads(r["fk"])} for r in rows}


# -- the run -----------------------------------------------------------------


@dataclass
class Checks:
    attempted: int = 0
    failed: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)


class Run:
    """Set-up, stages and checks of one workload in one process."""

    def __init__(self, spec: WorkloadSpec, seed: int, workload_seed: int | None,
                 tracer, tmp: Path, traced: bool = False):
        self.spec = spec
        self.seed = seed
        self.workload_seed = spec.workload_seed if workload_seed is None else workload_seed
        self.tracer = tracer
        self.tmp = tmp
        # traced: MIN_ROUNDS rounds, whose regenerate calls are traced and
        # untraced pairs, and a cold supply before them
        self.traced = traced
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.checks = Checks()
        self.info: dict[str, object] = {}
        self.artifacts: dict[str, object] = {}
        self.spark = None

    def timed(self, metric: str, fn, *args, **kwargs):
        with self.tracer.span(f"stage.{metric}"):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.samples[metric].append(time.perf_counter() - t0)
        self.checks.attempted += 1
        return out

    def timed_rows(self, metric: str, span: str, n_rows: int, fn, *args, record=True):
        """Run ``fn`` as one timed operation; record rows per second."""
        with self.tracer.span(span):
            t0 = time.perf_counter()
            out = fn(*args)
            elapsed = time.perf_counter() - t0
        if record:
            self.samples[metric].append(n_rows / elapsed)
        self.artifacts[span] = elapsed
        self.checks.attempted += 1
        return out

    # set-up -------------------------------------------------------------

    def setup(self) -> None:
        """Client DB, its permutation and the queries, three times; then the
        Spark session, JVM launch included."""
        spec = self.spec
        self.schema, make_db, make_queries = substrate(spec)
        inputs = []
        for _ in range(3):
            t0 = time.perf_counter()
            with self.tracer.span("setup.inputs"):
                base = make_db(spec.sf, seed=spec.data_seed)
                client = permuted_copy(self.schema, base, self.seed)
                queries = make_queries(spec.n_queries, seed=self.workload_seed)
            inputs.append(time.perf_counter() - t0)
        self.base_db, self.client_db, self.queries = base, client, queries
        self.setup_parts = {"inputs_median_s": statistics.median(inputs)}
        t0 = time.perf_counter()
        with self.tracer.span("setup.spark"):
            self.spark = start_spark(self.tmp)
        self.setup_parts["spark_start_s"] = time.perf_counter() - t0

    @property
    def setup_s(self) -> float:
        return sum(self.setup_parts.values())

    # stages -------------------------------------------------------------

    def prepare(self):
        """The first AQP, ``regenerate`` and DataSynth calls (each a sample of
        its stage), fidelity and the DuckDB check, which also warms Spark's
        Python workers. Returns (CCs, unscaled result for fidelity)."""
        spec = self.spec
        ccs, n_raw = self.timed("aqp_s", derive_ccs, self.schema, self.client_db, self.queries)
        self.aqp_out = [ccs]
        # The seed's permutation must not change any CC.
        with self.tracer.span("check.aqp_unpermuted"):
            ref, _ = derive_ccs(self.schema, self.base_db, self.queries)
        self.checks.check("CCs invariant under the seed's permutation", ref == ccs,
                          f"{len(ref)} vs {len(ccs)} CCs")
        self.supply_ccs = ccs
        if spec.supply_scale == 1:
            self.supplied = fid = self.timed("regen_s", hydra.regenerate, self.schema, ccs)
        else:
            fid = self.timed("regen_unscaled_s", hydra.regenerate, self.schema, ccs)
            self.supply_ccs = hydra.scale_ccs(ccs, spec.supply_scale)
            self.supplied = self.timed("regen_s", hydra.regenerate, self.schema,
                                       self.supply_ccs)
        # digests only: keeping every result alive would make peak_rss_mb
        # grow with the number of rounds
        self.regen_digests = [summary_digest(self.supplied.summary)]
        self.ds_ccs, dropped = datasynth_ccs(self.schema, ccs)
        self.artifacts["datasynth"] = self.timed(
            "datasynth_s", datasynth.regenerate_datasynth, self.schema, self.ds_ccs,
            seed=self.seed)
        self.fid = self.fidelity(ccs, fid)
        t0 = time.perf_counter()
        with self.tracer.span("check.oracle"):
            self.oracle_check(fid.summary)
        self.info["oracle_check_s"] = round(time.perf_counter() - t0, 3)
        self.info.update(raw_ccs=n_raw, datasynth_dropped_views=dropped,
                         datasynth_ccs=len(self.ds_ccs))
        return ccs, fid

    def rounds(self, seconds: float) -> None:
        """Timed rounds while another fits in ``seconds``, and at least
        ``MIN_ROUNDS`` (the traced run: exactly that many).

        Every round samples the supply and the driver-side stages, so each
        stage's samples spread over the whole run rather than one stretch of
        it: the host's speed drifts over seconds, and a median over the run
        follows it less."""
        t0, longest, r = time.perf_counter(), 0.0, 0
        while r < MIN_ROUNDS or (
            not self.traced and time.perf_counter() - t0 + longest <= seconds
        ):
            start = time.perf_counter()
            self.round(r)
            longest = max(longest, time.perf_counter() - start)
            r += 1
        self.info["rounds"] = r

    def round(self, r: int) -> None:
        """One round: the driver-side calls of ``driver_calls``, spread evenly
        between the round's Spark passes (Spark is idle while they run), so
        that even a stage of 50 ms is sampled all through the run."""
        spec = self.spec
        calls = self.driver_calls(r)
        passes = spec.supply_per_round * (spec.gen_passes + 1 + spec.scan_passes)
        it = iter(calls)

        def between():
            for call in itertools.islice(it, -(-len(calls) // passes)):
                call()

        for _ in range(spec.supply_per_round):
            self.supply_again(between=between)
        for call in it:
            call()

    def driver_calls(self, r: int) -> list:
        """Round ``r``'s AQP, ``regenerate`` and DataSynth calls, each kind
        spread evenly over the list. In the traced run a ``regenerate`` call
        is an untraced and a traced one, back to back, in alternating order so
        that neither side always goes first: the difference of their medians
        is the tracing overhead."""
        spec = self.spec

        def aqp():
            ccs, _ = self.timed("aqp_s", derive_ccs, self.schema, self.client_db, self.queries)
            self.aqp_out.append(ccs)

        def regen(*sides):
            for metric in sides:
                untraced = metric == "regen_untraced_s"
                with self.tracer.suspended() if untraced else contextlib.nullcontext():
                    result = self.timed(metric, hydra.regenerate, self.schema, self.supply_ccs)
                    self.regen_digests.append(summary_digest(result.summary))

        def ds():
            self.artifacts["datasynth"] = self.timed(
                "datasynth_s", datasynth.regenerate_datasynth, self.schema, self.ds_ccs,
                seed=self.seed)

        if self.traced:
            pair = ("regen_untraced_s", "regen_traced_s")[::1 if r % 2 == 0 else -1]
            regens = [functools.partial(regen, *pair)]
        else:
            n = spec.regen_per_round[r % len(spec.regen_per_round)]
            regens = [functools.partial(regen, "regen_s")] * n
        kinds = [[aqp] * spec.aqp_per_round, regens, [ds] * spec.datasynth_per_round]
        placed = [((i + 0.5) / len(k), j, call)
                  for j, k in enumerate(kinds) for i, call in enumerate(k)]
        return [call for _, _, call in sorted(placed, key=lambda t: t[:2])]

    def fidelity(self, ccs, result):
        tables = tuplegen.database_to_pandas(self.schema, result.summary)
        errs = metrics.achieved_counts_pandas(self.schema, tables, ccs)
        self.checks.attempted += 2
        return fidelity_metrics(errs)

    def oracle_check(self, summary) -> None:
        """Per-column count and sum of the generated relations against DuckDB
        over the driver-side decode, in one Spark job.

        Runs before the supply, so it also pays the cold start of Spark's
        Python workers."""
        import pyspark.sql.functions as F
        from pyspark.sql import DataFrame

        names = self.supply_relations(summary)
        parts = []
        for name in names:
            df = tuplegen.generate_relation(self.spark, self.schema, summary, name)
            cells = F.explode(F.array(*[
                F.struct(F.lit(c).alias("col"), F.col(c).alias("v")) for c in df.columns
            ])).alias("x")
            parts.append(
                df.select(F.lit(name).alias("rel"), cells)
                .groupBy("rel", "x.col")
                .agg(F.count(F.lit(1)).alias("n"), F.sum("x.v").alias("s"))
            )
        sql = " UNION ALL ".join(
            f"SELECT '{name}' AS rel, col, count(*) AS n, sum(v) AS s "
            f"FROM (UNPIVOT {name} ON COLUMNS(*) INTO NAME col VALUE v) GROUP BY col"
            for name in names
        )
        tables = {n: tuplegen.relation_to_pandas(self.schema, summary, n) for n in names}
        try:
            oracle.assert_equivalent(reduce(DataFrame.unionByName, parts), sql, **tables)
            ok, detail = True, ""
        except AssertionError as e:
            ok, detail = False, str(e)[:500]
        self.checks.check("generator = DuckDB over relation_to_pandas", ok, detail)

    def supply_relations(self, summary) -> list[str]:
        return list(self.spec.supply_relations or summary.relations)

    def gen_cold(self, summary) -> None:
        """The traced run's first generation, one job per relation."""
        names = self.supply_relations(summary)
        t0 = time.perf_counter()
        for r in names:
            with self.tracer.span(f"tuplegen.gen_cold {r}"):
                fingerprint_all({r: tuplegen.generate_relation(self.spark, self.schema, summary,
                                                               r)}, self.fk_columns(summary))
        self.artifacts["gen_cold_s"] = time.perf_counter() - t0
        self.checks.attempted += len(names)

    def supply_again(self, record: bool = True, between=None) -> None:
        """Supply the supplied summary, timed or, with ``record=False``, as
        an untimed warm-up. Every repetition must give the fingerprints of
        the first."""
        prints = self.supply_once(self.supplied.summary, record, between)
        first = self.artifacts.setdefault("first_supply", prints)
        if prints is not first:
            self.checks.check("supply repeatable", prints == first)

    def fk_columns(self, summary) -> dict[str, list[str]]:
        return {r: sorted(self.schema[r].fks) for r in self.supply_relations(summary)}

    def supply_once(self, summary, record: bool = True, between=None) -> dict:
        """Generate, materialize and scan ``summary``; check they agree.

        The generated relations get ``spec.gen_passes`` timed
        ``fingerprint_all`` passes and the scanned ones ``spec.scan_passes``,
        one sample each; every pass must agree with the first generated one.
        ``between`` runs before each timed pass."""
        schema = self.schema
        spec = self.spec
        between = between or (lambda: None)
        names = self.supply_relations(summary)
        fks = self.fk_columns(summary)
        n_rows = sum(summary.relations[r].total_rows for r in names)
        frames = {r: tuplegen.generate_relation(self.spark, schema, summary, r) for r in names}
        out_dir = self.tmp / "parquet"

        def write():
            return {r: materialize.materialize_relation(self.spark, schema, summary, r, out_dir)
                    for r in names}

        gens = []
        for _ in range(spec.gen_passes):
            between()
            gens.append(self.timed_rows("gen_rows_per_s", "tuplegen.gen", n_rows,
                                        fingerprint_all, frames, fks, record=record))
        between()
        paths = self.timed_rows("materialize_rows_per_s", "materialize.write", n_rows, write,
                                record=record)
        n_bytes = sum(f.stat().st_size for f in out_dir.rglob("*.parquet"))
        self.artifacts["bytes_per_row"] = n_bytes / n_rows
        scans = {r: materialize.scan_parquet(self.spark, p) for r, p in paths.items()}
        scanned = []
        for _ in range(spec.scan_passes):
            between()
            scanned.append(self.timed_rows("scan_rows_per_s", "materialize.scan", n_rows,
                                           fingerprint_all, scans, fks, record=record))
        shutil.rmtree(out_dir)

        gen = gens[0]
        self.checks.check("generated = scanned, every pass",
                          all(g == gen for g in gens + scanned))
        for name in names:
            rs, g = summary.relations[name], gen.get(name, {})
            self.checks.check(f"count(*) = total_rows: {name}", g.get("n") == rs.total_rows,
                              f"{g.get('n')} vs {rs.total_rows}")
            for fk in fks[name]:
                hi = summary.relations[schema[name].fks[fk]].total_rows
                lo_v, hi_v = g.get(f"min_{fk}"), g.get(f"max_{fk}")
                ok = rs.total_rows == 0 or (lo_v is not None and 1 <= lo_v and hi_v <= hi)
                self.checks.check(f"FK in [1, N]: {name}.{fk}", ok, f"[{lo_v}, {hi_v}] vs N={hi}")
        self.info["supplied_tuples"] = n_rows
        return gen

    # the run ------------------------------------------------------------

    def stages(self, seconds: float) -> dict[str, float]:
        """Preparation, then the timed rounds; then the checks that compare
        repeated calls. Returns the deterministic end-to-end metrics."""
        t0 = time.perf_counter()
        ccs, fid_result = self.prepare()
        t1 = time.perf_counter()
        if self.traced:
            self.gen_cold(self.supplied.summary)
        else:
            # The first supply after the DuckDB check still runs cold code
            # paths (parquet writes and reads): it is checked but not timed.
            self.supply_again(record=False)
        t2 = time.perf_counter()
        self.rounds(seconds)
        self.info.update(prepare_s=round(t1 - t0, 3), warmup_s=round(t2 - t1, 3),
                         rounds_s=round(time.perf_counter() - t2, 3))
        self.checks.check("aqp repeatable", all(c == ccs for c in self.aqp_out))
        digests = set(self.regen_digests)
        self.checks.check(f"{len(self.regen_digests)} regenerate calls give one summary",
                          len(self.regen_digests) > 1 and len(digests) == 1, str(digests))
        summary = fid_result.summary
        self.artifacts.update(ccs=ccs, fid_result=fid_result, supplied=self.supplied,
                              datasynth_ccs=self.ds_ccs)
        self.info.update(
            ccs=len(ccs),
            lp_vars=fid_result.n_vars_total(),
            summary_rows=summary.size_rows(),
            extra_tuples=sum(summary.extra_tuples.values()),
            cc_neg_errs=self.fid["cc_neg_errs"],
        )
        return {
            **{k: v for k, v in self.fid.items() if k in END_TO_END},
            "extra_tuples": float(sum(summary.extra_tuples.values())),
            "summary_rows": float(summary.size_rows()),
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
