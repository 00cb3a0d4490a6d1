"""The benchmark's probes bind program names by attribute; a rename breaks them here first."""
import inspect
import sys
from pathlib import Path

import pytest

from downcast import data as dt
from downcast import graphs as gr
from downcast import training
from downcast.model import Model, ModelConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import probes  # noqa: E402

RUNTIME_FIELDS = ("reduce_ops", "lift_ops", "ascent_ops", "iso_fwd", "iso_rev", "edge_src", "edge_recv")


def test_every_span_owner_has_its_attribute():
    missing = [name for owner, attr, name in probes.SPANS if not callable(getattr(owner, attr, None))]
    assert missing == []


@pytest.mark.parametrize("variant", ["isotropic", "anisotropic"])
def test_runtime_exposes_the_counted_operators(variant):
    config = ModelConfig(
        n_nodes=6, window=4, horizon=2, d_h=4, temporal_layers=1, spatial_levels=1,
        embedding_size=2, smp_variant=variant, decoder_hidden=(4,),
    )
    model = Model(config, gr.build_hierarchy(dt.random_indegree_graph(6, 2, 0), 1, 1))
    rt = model.runtime(1)
    ops = []
    for field in RUNTIME_FIELDS:
        for entry in getattr(rt, field):
            ops.extend(entry if isinstance(entry, list) else [entry])
    ops = [op for op in ops if op is not None]
    assert ops and all(isinstance(op.nnz, int) for op in ops)


def test_benchmark_calls_bind_to_the_program_signatures():
    # probes.Timeline calls train and evaluate as below, and bench/child.py
    # calls the persistence baseline with a positional horizon
    inspect.signature(training.train).bind(None, None, None)
    inspect.signature(training.evaluate).bind(None, None, "val", batch_size=128)
    inspect.signature(training.persistence_metrics).bind(None, "test", 6)
