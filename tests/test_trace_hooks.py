"""The names the benchmark's traced run (``hydrabench --trace 1``) looks up
in ``repro`` must exist: a rename would otherwise break only that run.

``hydrabench/spans.py`` is stdlib-only, so it is loaded by file path and no
Spark session starts.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "hydrabench" / "spans.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("hydrabench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up
    spec.loader.exec_module(spans)
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
