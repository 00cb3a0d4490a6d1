"""The benchmark's probes and inputs bind program names and schemas; a change that breaks them fails here first."""
import inspect
import json
import sys
from pathlib import Path

import pytest

from downcast import cli, training
from downcast import data as dt
from downcast import graphs as gr
from downcast.model import Model, ModelConfig
from test_training import make_bundle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import probes  # noqa: E402
import workloads  # noqa: E402

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


@pytest.mark.parametrize("split", [False, True])
def test_timeline_marks_each_train_step_once(monkeypatch, split):
    # `Timeline` marks a step at each call of `training.assemble_batch` in this
    # process; a split step's second shard is gathered in the training helper
    for name in ("train", "assemble_batch", "evaluate"):
        monkeypatch.setattr(training, name, getattr(training, name))  # restored after the test
    model, bundle = make_bundle(variant="anisotropic", per_step=True)
    monkeypatch.setattr(training, "_EVAL_WORKERS", 2)
    monkeypatch.setattr(training, "_SHARD_ROWS", 5 * model.config.n_nodes if split else 10**9)
    requests, submit = [], training._Helper.submit

    def counting_submit(helper, request):
        requests.append(request)
        return submit(helper, request)

    monkeypatch.setattr(training._Helper, "submit", counting_submit)
    timeline = probes.Timeline()
    timeline.install()
    cfg = training.TrainConfig(max_epochs=2, batches_per_epoch=3, batch_size=6, eval_batch_size=8, seed=4)
    training.train(model, bundle, cfg)
    assert [kind for kind, _ in timeline.marks] == (["step"] * 3 + ["eval"]) * 2
    # the training helper's requests are tuples, the evaluation helper's window starts
    assert sum(isinstance(r, tuple) for r in requests) == (6 if split else 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_resolve_and_prepare(tmp_path, name):
    path = workloads.write_config(name, 1, tmp_path)
    model, bundle = cli.prepare_experiment(cli.resolve_config(json.loads(path.read_text())))
    assert model.config.n_nodes == bundle.panel.n_nodes and bundle.train and bundle.val and bundle.test
