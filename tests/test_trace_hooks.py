"""The names the benchmark's traced run (``hydrabench --trace 1``) looks up
in ``repro`` must exist: a rename would otherwise break only that run. What
it captures of the §5 objects must keep its values too.

``hydrabench/spans.py`` is stdlib-only and ``hydrabench/layers.py`` needs
only numpy and ``repro``, so both are loaded by file path and no Spark
session starts.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core import datasynth, hydra, workload
from repro.core.summary import view_summaries_from_formulations

from .test_substrates import _JOB, GOLDEN
from .toy import toy_client_data, toy_queries, toy_schema

HYDRABENCH = Path(__file__).resolve().parents[1] / "hydrabench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"hydrabench_{name}", HYDRABENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
layers = _load("layers")


def _layer_functions():
    return [(mod, attr) for mod, attr, _, _ in spans.LAYER_FUNCTIONS]


#: what ``hydrabench/layers.py`` reads of ``repro`` besides the spans
LAYERS_READS = [
    ("repro.core.align", "order_subviews"),
    ("repro.core.lp", "partition_lp_regions"),
    ("repro.core.metrics", "achieved_counts_pandas"),
    ("repro.core.metrics", "signed_error_split"),
]


@pytest.mark.parametrize("module, name", _layer_functions() + LAYERS_READS)
def test_traced_name_resolves_to_a_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name))


#: name: ((schema, client DB, queries) makers, RIP breaks, (CCs exact, CCs)
#: on the merged view rows before repair), as ``hydrabench/layers.py`` reads them
TRACED_ALIGN = {
    "job-lite-303": (_JOB, 0, (92, 93)),
    "wlc-101": (GOLDEN["wlc-101"][0], 1, (215, 222)),
}


@pytest.mark.parametrize("name", sorted(TRACED_ALIGN))
def test_traced_align_counters(name):
    """``align.rip_breaks`` and ``align.cc_exact_frac`` of the traced run,
    computed by the benchmark's own functions on real §5 objects."""
    (make_schema, make_db, make_queries), rip_breaks, exact = TRACED_ALIGN[name]
    schema, db = make_schema(), make_db()
    forms = hydra.regenerate(schema, workload.client_ccs(schema, db, make_queries())).formulations
    assert sum(layers._rip_breaks(f.subview_solutions()) for f in forms.values()) == rip_breaks
    views = spans._keep_view_rows(None, None, view_summaries_from_formulations(forms))
    assert layers._view_rows_exact(views, forms) == exact


def test_datasynth_grid_lp_span_times_its_lp_alone():
    """Each ``regenerate_datasynth`` call opens one ``datasynth.grid_lp``
    span, around ``repro.core.datasynth.regenerate``, and runs no HYDRA
    stage: ``datasynth.lp_s`` times the grid LP alone."""
    schema = toy_schema()
    ccs = workload.client_ccs(schema, toy_client_data(), toy_queries())
    tracer = spans.Tracer("test")
    with tracer.patched():
        for seed in range(2):
            datasynth.regenerate_datasynth(schema, ccs, seed=seed)
    names = [s.name for s in tracer.spans]
    calls = {s.id for s in tracer.spans if s.name == "datasynth.regenerate_datasynth"}
    assert len(calls) == 2
    assert sorted(s.parent for s in tracer.spans if s.name == "datasynth.grid_lp") == sorted(calls)
    assert not [n for n in names if n.startswith(("hydra.", "summary.", "align."))]
