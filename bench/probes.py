"""Run-time instrumentation installed from outside the program.

Nothing under `src/` is edited: the probes replace module attributes and
class methods with timing wrappers after import. Callers inside the package
look these names up at call time (`tr.train`, `self.temporal_stack`, ...),
so the wrappers see every call.

`Timeline` is the untraced probe: timestamps at `training.train` (once per
run), `training.assemble_batch` and `training.evaluate` (once per batch).
`Tracer` is the traced probe: spans around the layer boundaries listed in
`SPANS`, tape-node counts per forward stage and a `gc.callbacks` observer.
"""
from __future__ import annotations

import functools
import gc
import time
from collections import defaultdict

from downcast import autodiff, cli, data, graphs, masking, model, sparse, training

clock = time.perf_counter


def _patch(owner, name: str, make) -> None:
    setattr(owner, name, make(getattr(owner, name)))


class Timeline:
    """Step, evaluation and set-up timestamps for the end-to-end metrics."""

    def __init__(self):
        self.run_start = None
        self.train_enter = None
        self.marks: list[tuple[str, float]] = []  # ("step" | "eval", start time)
        self.evals: list[tuple[float, int]] = []  # (seconds, windows)
        self.batch_size = None
        self.model = None
        self.bundle = None
        self._in_train = False
        self._in_eval = False
        self._trained = False

    def install(self) -> None:
        def wrap_train(train):
            @functools.wraps(train)
            def wrapper(model_, bundle, cfg):
                self.train_enter = clock()
                self.batch_size, self.model, self.bundle = cfg.batch_size, model_, bundle
                self._in_train = True
                try:
                    return train(model_, bundle, cfg)
                finally:
                    self._in_train = False
                    self._trained = True

            return wrapper

        def wrap_assemble(assemble):
            @functools.wraps(assemble)
            def wrapper(*args, **kwargs):
                if self._in_train and not self._in_eval:
                    self.marks.append(("step", clock()))
                return assemble(*args, **kwargs)

            return wrapper

        def wrap_evaluate(evaluate):
            @functools.wraps(evaluate)
            def wrapper(model_, bundle, split, batch_size=64):
                start = clock()
                self.marks.append(("eval", start))
                self._in_eval = True
                try:
                    return evaluate(model_, bundle, split, batch_size=batch_size)
                finally:
                    self._in_eval = False
                    self.evals.append((clock() - start, len(bundle.split(split))))

            return wrapper

        _patch(training, "train", wrap_train)
        _patch(training, "assemble_batch", wrap_assemble)
        _patch(training, "evaluate", wrap_evaluate)

    def step_seconds(self) -> list[float]:
        """Each train step runs from its batch assembly to the next mark."""
        out = []
        for (kind, start), (_, end) in zip(self.marks, self.marks[1:]):
            if kind == "step":
                out.append(end - start)
        return out

    def record(self) -> dict:
        return {
            "setup_s": self.train_enter - self.run_start,
            "step_s": self.step_seconds(),
            "batch_size": self.batch_size,
            "evals": self.evals,
        }


# (owner, attribute, span name). Names follow the module that owns the code.
SPANS = [
    (cli, "prepare_experiment", "cli.prepare_experiment"),
    (cli, "write_attention_csv", "cli.write_attention_csv"),
    (cli, "dump_scores", "cli.dump_scores"),
    (data, "load_csv_panel", "data.load_csv_panel"),
    (data, "generate_mso", "data.generate_mso"),
    (data, "make_windows", "data.make_windows"),
    (masking, "simulate_block", "masking.simulate_block"),
    (masking, "mask_statistics", "masking.mask_statistics"),
    (graphs, "build_graph_from_coords", "graphs.build_graph_from_coords"),
    (graphs, "ensure_connected", "graphs.ensure_connected"),
    (graphs, "build_hierarchy", "graphs.build_hierarchy"),
    (sparse.CsrMatrix, "apply", "sparse.apply"),
    (model.ModelRuntime, "__init__", "model.runtime_build"),
    (model.Model, "forward_batch", "model.forward_batch"),
    (model.Model, "encode_inputs", "model.encode_inputs"),
    (model.Model, "temporal_stack", "model.temporal_stack"),
    (model.Model, "spatial_stack", "model.spatial_stack"),
    (model.Model, "attention_fuse", "model.attention_fuse"),
    (model.Model, "readout", "model.readout"),
    (autodiff.Tape, "backward", "autodiff.backward"),
    (training, "assemble_batch", "training.assemble_batch"),
    (training, "masked_mae_loss", "training.masked_mae_loss"),
    (training, "adamw_step", "training.adamw_step"),
    (training, "evaluate", "training.evaluate"),
    (training, "save_checkpoint", "training.save_checkpoint"),
]

# Forward stages in execution order; each one's tape-node count is the rise
# of the highest node id on its outputs over the previous stage's outputs.
STAGES = (
    "model.encode_inputs",
    "model.temporal_stack",
    "model.spatial_stack",
    "model.attention_fuse",
    "model.readout",
    "training.masked_mae_loss",
)


def _max_node(value) -> int:
    if isinstance(value, autodiff.Tensor):
        return -1 if value.node is None else value.node
    if isinstance(value, (list, tuple)):
        return max((_max_node(v) for v in value), default=-1)
    return -1


class Tracer(Timeline):
    """Timeline plus per-span call counts and busy time, split by phase.

    The phase of a call is "setup" before `training.train` is entered,
    "train" inside it outside evaluation, "eval" inside `training.evaluate`
    and "final" after training returns.
    """

    def __init__(self):
        super().__init__()
        self.calls = defaultdict(int)  # (span, phase) -> calls
        self.busy = defaultdict(float)  # (span, phase) -> seconds
        self.nodes = defaultdict(int)  # stage -> tape nodes over all train steps
        self.tape_nodes = 0
        self.faults = 0
        self.gc = {"gen2_collections": 0, "gen2_collected": 0, "gen2_pause_s": 0.0}
        self._last_node = -1
        self._gc_start = None

    def phase(self) -> str:
        if self._in_eval:
            return "eval"
        if self._in_train:
            return "train"
        return "final" if self._trained else "setup"

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = self.phase()
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.busy[name, phase] += clock() - start
                self.calls[name, phase] += 1
            if phase == "train":
                self._count_nodes(name, out)
            elif name == "masking.simulate_block":
                self.faults += len(out.faults)
            return out

        return wrapper

    def _count_nodes(self, name, out) -> None:
        if name == "model.encode_inputs":
            self._last_node = -1
        if name in STAGES:
            top = _max_node(out)
            self.nodes[name] += top - self._last_node
            self._last_node = top
            if name == "training.masked_mae_loss":
                self.tape_nodes += top + 1

    def _on_gc(self, event, info) -> None:
        if info["generation"] != 2:
            return
        if event == "start":
            self._gc_start = clock()
        else:
            self.gc["gen2_collections"] += 1
            self.gc["gen2_collected"] += info["collected"]
            self.gc["gen2_pause_s"] += clock() - self._gc_start

    def install(self) -> None:
        # Spans go on first, so the timeline's own wrappers sit outside them
        # and decide the phase before any span inside reads it.
        for owner, attr, name in SPANS:
            _patch(owner, attr, functools.partial(self._span, name))
        super().install()
        gc.callbacks.append(self._on_gc)

    def operator_nnz(self) -> int:
        """Stored entries over the train-batch runtime's operators, tiled copies included."""
        if self.model is None:
            return 0
        rt = self.model.runtime(self.batch_size)
        ops = [*rt.reduce_ops, *rt.lift_ops, *rt.ascent_ops, *rt.edge_src, *rt.edge_recv]
        for group in (*rt.iso_fwd, *rt.iso_rev):
            ops.extend(group or [])
        return sum(op.nnz for op in ops if op is not None)

    def record(self) -> dict:
        out = super().record() if self.train_enter is not None else {}
        out.update({
            "spans": [[name, phase, self.calls[name, phase], self.busy[name, phase]]
                      for name, phase in sorted(self.calls)],
            "stage_nodes": dict(self.nodes),
            "tape_nodes": self.tape_nodes,
            "faults": self.faults,
            "operator_nnz": self.operator_nnz(),
            "gc": self.gc,
        })
        return out
