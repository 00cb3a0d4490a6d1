"""Masked-loss training loop with adaptive moments, plateau cuts and early stopping.

The loss averages per-(step, node) mask-normalised absolute errors over the
terms that have at least one valid channel, so its scale does not depend on
the node count, horizon or batch size. Reported MAE/MSE are plain means over
valid scalar entries in original units.
"""
from __future__ import annotations

import contextlib
import contextvars
import ctypes
import json
import math
import multiprocessing
import os
import sys
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from multiprocessing.pool import RemoteTraceback
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .data import Panel, Scaler, atomic_write
from .errors import ContractError, require
from .model import Model, last_value_imputation
from .rng import stream_rng


class TrainingDiverged(ContractError):
    """Non-finite loss or metric; carries the epoch history accumulated so far."""

    def __init__(self, message: str, history: list[dict]):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    batch_size: int = 32
    batches_per_epoch: int = 300
    max_epochs: int = 200
    plateau_factor: float = 0.5
    plateau_patience: int = 10
    early_stop_patience: int = 30
    grad_clip_norm: float | None = None
    eval_batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        require(self, "positive", "learning_rate", "batch_size", "batches_per_epoch", "plateau_patience",
                "early_stop_patience", "eval_batch_size")
        require(self, "nonnegative", "weight_decay", "max_epochs", "plateau_factor")
        if self.grad_clip_norm is not None:
            require(self, "nonnegative", "grad_clip_norm")


@dataclass
class MetricsReport:
    mae: float
    mse: float
    per_horizon_mae: list[float]
    per_horizon_counts: list[int]
    n_valid: int


@dataclass
class TrainResult:
    best_val_mae: float
    history: list[dict]


@dataclass
class DataBundle:
    """Everything the optimisation loop needs about one dataset.

    A window is its start index s: it reads steps s..s+W-1 and targets the
    next H steps. Each split is the range of its windows' starts.
    """

    panel: Panel
    scaler: Scaler
    sim_mask: np.ndarray  # simulated validity, same shape as panel.mask
    train: range
    val: range
    test: range
    window: int
    horizon: int

    def split(self, name: str) -> range:
        return {"train": self.train, "val": self.val, "test": self.test}[name]

    @property
    def combined_missing_fraction(self) -> float:
        return float(1.0 - (self.panel.mask * self.sim_mask).mean())


@dataclass
class AssembledBatch:
    x: np.ndarray  # (W, N*B, d_x), node-major rows, scaled
    m: np.ndarray  # simulated-and-original input validity
    u: np.ndarray
    targets: np.ndarray  # (N*B*H, d_x), steps innermost like the predictions, scaled
    target_masks: np.ndarray
    raw_targets: np.ndarray  # targets in original units


def assemble_batch(bundle: DataBundle, starts, mask_targets: bool) -> AssembledBatch:
    """Gather the windows at `starts` with node-major rows; combine the mask policies.

    One time-major index, start + t for each of the W+H steps t of each
    window, reads every array as (W, B, N, C) inputs and (B, H, N, C)
    targets; one transposed copy each makes them (W, N*B, C) and, the steps
    innermost, (N*B*H, C). The exogenous rows, one per step, are gathered
    as (W, B, d_u) and repeated for the N nodes. Inputs are always masked by
    the simulated pattern; targets are only masked during training
    (evaluation scores against originally-valid data).
    """
    panel, w, h = bundle.panel, bundle.window, bundle.horizon
    steps = np.asarray(starts)[None, :] + np.arange(w + h)[:, None]  # (W+H, B)
    n, b = panel.n_nodes, steps.shape[1]

    def gather(a):
        inputs = a[steps[:w]].transpose(0, 2, 1, 3).reshape(w, n * b, -1)
        targets = a[steps[w:].T].transpose(2, 0, 1, 3).reshape(n * b * h, -1)
        return inputs, targets

    (x, y), (m, mt), (sim, sim_t) = gather(panel.x), gather(panel.mask), gather(bundle.sim_mask)
    u = panel.u[steps[:w]][:, None]  # (W, 1, B, d_u)
    return AssembledBatch(
        x=bundle.scaler.apply(x),
        m=m * sim,
        u=np.broadcast_to(u, (w, n, b, u.shape[3])).reshape(w, n * b, u.shape[3]),
        targets=bundle.scaler.apply(y),
        target_masks=mt * sim_t if mask_targets else mt,
        raw_targets=y,
    )


# -- loss and metrics -------------------------------------------------------------


def masked_mae_loss(pred: Tensor, target, mask, n_rows: int | None = None) -> Tensor:
    """Differentiable masked absolute-error loss.

    `target` and `mask` are arrays shaped like `pred`, whose rows are the
    (step, node) terms. Each row contributes the mean absolute error over
    its valid channels; rows with no valid channel are skipped, and the loss
    is the sum over contributing rows divided by `n_rows`, by default their
    count. A window shard of a batch passes the whole batch's count, so the
    shards' losses add up to the batch's. Gradients are exactly zero at
    masked entries.
    """
    target = np.asarray(target, dtype=np.float64).reshape(pred.data.shape)
    mask = np.asarray(mask, dtype=np.float64).reshape(pred.data.shape)
    row_valid = mask.sum(axis=-1)
    contributing = int(np.count_nonzero(row_valid))
    if contributing == 0:
        raise ContractError("mask selects no valid target entries")
    if n_rows is not None and n_rows < contributing:
        raise ContractError(f"n_rows {n_rows} is below the mask's {contributing} contributing rows")
    weights = np.divide(1.0, row_valid, out=np.zeros_like(row_valid), where=row_valid > 0)
    err = ad.mul(ad.absolute(ad.sub(pred, ad.constant(target))), ad.constant(mask))
    total = ad.reduce_sum(ad.mul(ad.reduce_sum(err, axis=pred.data.ndim - 1), ad.constant(weights)))
    return ad.mul(total, 1.0 / (contributing if n_rows is None else n_rows))


# -- optimiser --------------------------------------------------------------------


# AdamW's moment decays and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class TrainState:
    """Everything the loop carries across steps and epochs.

    The AdamW moments and step, the live learning rate, the best validation
    MAE with its parameter snapshot, and `stale`, the epochs since validation
    last strictly improved. The plateau cut and early stopping both read it.
    """

    def __init__(self, params: list[Parameter], learning_rate: float):
        self.m = {p.name: np.zeros_like(p.value) for p in params}
        self.v = {p.name: np.zeros_like(p.value) for p in params}
        self.step = 0
        self.lr = learning_rate
        self.best_val = float("inf")
        self.best = {p.name: p.value.copy() for p in params}
        self.stale = 0

    def end_epoch(self, params: list[Parameter], val_mae: float, patience: int, factor: float) -> None:
        """Snapshot `params` on a strict improvement, else count a stale epoch.

        Every `patience`-th stale epoch multiplies the rate by `factor`.
        """
        if val_mae < self.best_val:
            self.best_val = val_mae
            self.best = {p.name: p.value.copy() for p in params}
            self.stale = 0
        else:
            self.stale += 1
            if self.stale % patience == 0:
                self.lr *= factor


def adamw_step(params: list[Parameter], state: TrainState, weight_decay: float = 0.01) -> None:
    """Decoupled-weight-decay adaptive-moment update over accumulated gradients."""
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise ContractError(f"non-finite gradient in parameter {p.name!r}")
    state.step += 1
    t = state.step
    for p in params:
        m = state.m[p.name]
        v = state.v[p.name]
        m *= BETA1
        m += (1.0 - BETA1) * p.grad
        v *= BETA2
        v += (1.0 - BETA2) * p.grad * p.grad
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        p.value -= state.lr * (m_hat / (np.sqrt(v_hat) + EPS) + weight_decay * p.value)


def clip_gradients(params: list[Parameter], max_norm: float) -> float:
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        for p in params:
            p.grad *= factor
    return total


# -- evaluation ---------------------------------------------------------------------


# Rows (windows x nodes) per unrecorded forward pass. Past the per-core L2
# cache a pass slows per row: on a 2-core VM (2 MB L2 per core, one BLAS
# thread, medians of 7) one 32-window metro-aniso evaluation batch of 4,800
# rows took 288-294 ms in one pass and 178-211 ms in groups of 6 windows
# (900 rows); a 128-window desk-iso batch of 2,560 rows, 67 and 57 ms.
_EVAL_ROWS = 1024

# Evaluation window groups in flight at once, one per pool thread, and, above
# one, the switch for training's helper process (`_ShardHelper`). numpy's
# ufuncs, OpenBLAS and scipy's sparse products release the GIL, so two
# groups' passes overlap on two cores; splitting one scan's rows instead was
# slower. A desk-iso training shard holds the GIL for most of its thousands
# of small calls, so two training shards on threads lost to one whole step
# (31.1 against 27.3 ms for 640 rows); training uses a process instead.
_EVAL_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def predict_windows(model: Model, bundle: DataBundle, starts, batch_size: int):
    """Yield (chunk of starts, predictions in original units, batch, alphas) chunk by chunk.

    Each chunk of consecutive windows, at most `batch_size` and at most
    `_EVAL_ROWS` rows unless one window has more, is gathered and run forward
    once, unrecorded. The predictions are (rows, H, d_x), the rows node-major,
    and `alphas` is the (rows, n_score_sets, S) attention.
    Windows do not interact, so a chunk's predictions equal one pass's over
    all windows up to last-ulp rounding (BLAS picks its kernels by row count).

    Up to `_EVAL_WORKERS` chunks run at once on a pool created for this call,
    each in a copy of the caller's context, so its `np.errstate` holds there.
    Chunks are yielded in order and each chunk's pass is the same, so the
    results do not depend on the worker count. The first error a chunk
    raises reaches the caller unchanged and no later chunk is submitted.
    Closing the generator early waits for the chunks still running, so none
    reads the parameters after it returns. With two workers numpy's OpenBLAS
    runs one thread until the generator finishes, is closed or raises
    (`_one_blas_thread`): with its default pool of two per worker, four
    threads shared two cores, and a metro-aniso run spent 2.9-3.1 s in
    evaluation against 1.8-1.9 s pinned.
    """
    cfg = model.config
    size = max(1, min(batch_size, _EVAL_ROWS // cfg.n_nodes))

    def run(chunk):
        batch = assemble_batch(bundle, chunk, mask_targets=False)
        bf = model.forward_batch(batch.x, batch.m, batch.u, record_gradients=False)
        return chunk, bundle.scaler.invert(bf.preds.data.reshape(-1, cfg.horizon, cfg.d_x)), batch, bf.alphas

    pool, pending = ThreadPoolExecutor(_EVAL_WORKERS), deque()
    with _one_blas_thread() if _EVAL_WORKERS > 1 else contextlib.nullcontext():
        try:
            for i in range(0, len(starts), size):
                pending.append(pool.submit(contextvars.copy_context().run, run, starts[i : i + size]))
                if len(pending) == _EVAL_WORKERS:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)


class _MaskedErrorSums:
    """Per-horizon sums of masked absolute and squared errors, and valid counts."""

    def __init__(self, horizon: int):
        self.abs_sum = np.zeros(horizon)
        self.sq_sum = np.zeros(horizon)
        self.counts = np.zeros(horizon, dtype=np.int64)

    def add(self, pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> None:
        """Accumulate (rows, H, d_x) predictions against targets with the steps innermost under a mask."""
        diff = pred - target.reshape(pred.shape)
        mask = mask.reshape(pred.shape)
        self.abs_sum += (np.abs(diff) * mask).sum(axis=(0, 2))
        self.sq_sum += (diff**2 * mask).sum(axis=(0, 2))
        self.counts += mask.sum(axis=(0, 2)).astype(np.int64)

    def report(self, split: str) -> MetricsReport:
        n = int(self.counts.sum())
        if not n:
            raise ContractError(f"the {split} split has no valid target")
        return MetricsReport(
            mae=float(self.abs_sum.sum() / n),
            mse=float(self.sq_sum.sum() / n),
            per_horizon_mae=[float(a / c) if c else float("nan") for a, c in zip(self.abs_sum, self.counts)],
            per_horizon_counts=[int(c) for c in self.counts],
            n_valid=n,
        )


def evaluate(model: Model, bundle: DataBundle, split: str, batch_size: int = 64) -> MetricsReport:
    """Masked metrics on originally-valid targets, inputs masked by simulation.

    A split with no originally-valid target has no metrics: ContractError.
    """
    sums = _MaskedErrorSums(model.config.horizon)
    for _, preds, batch, _ in predict_windows(model, bundle, bundle.split(split), batch_size):
        sums.add(preds, batch.raw_targets, batch.target_masks)
    return sums.report(split)


def persistence_metrics(bundle: DataBundle, split: str, horizon: int) -> MetricsReport:
    """Last-valid-observation baseline under the same evaluation protocol.

    `horizon` must equal `bundle.horizon`; it is kept for existing callers. A
    split with no originally-valid target has no metrics: ContractError.
    """
    if horizon != bundle.horizon:
        raise ContractError(f"horizon {horizon} does not match the bundle's horizon (bundle.horizon = {bundle.horizon})")
    sums = _MaskedErrorSums(horizon)
    # 32 windows per chunk keep the gathered arrays small; the baseline never
    # reads their exogenous channels (11 with time encodings)
    starts = bundle.split(split)
    for i in range(0, len(starts), 32):
        batch = assemble_batch(bundle, starts[i : i + 32], mask_targets=False)
        last = last_value_imputation(batch.x, batch.m)[-1]
        pred = bundle.scaler.invert(np.repeat(last[:, None], horizon, axis=1))
        sums.add(pred, batch.raw_targets, batch.target_masks)
    return sums.report(split)


# -- loop ---------------------------------------------------------------------------


# glibc's `mallopt` options and the values `train` sets: the free space at the
# top of the heap kept before trimming it, the size from which a block is
# mapped on its own (and unmapped when freed), the largest glibc accepts on
# 64-bit, and the number of heaps (arenas) threads allocate from.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_TRIM_THRESHOLD, _MMAP_THRESHOLD, _ARENA_MAX = 1 << 30, 32 << 20, 1


def _keep_freed_memory() -> None:
    """Keep the memory a training step frees mapped for the next step (glibc only).

    `backward` frees a recorded step's tape record by record. With glibc's
    defaults, the heap above a dynamic threshold is returned to the system
    and every array past the mmap threshold is unmapped, so the next step
    page-faults the same memory back in: a median of about 4,000 minor
    faults per desk-iso step and 17,000 per metro-aniso step, a fifth of
    their step time. With both options raised, steps after the first fault
    almost no pages in. The arena cap of one makes the evaluation threads
    (`predict_windows`) allocate from that same heap: with arenas of their
    own, peak resident size rose from 110 to 132 MB on desk-iso and from
    177 to 217 MB on metro-aniso.
    The options hold for the rest of the process, so its resident size does
    not fall after training. A C library without `mallopt` is left as it is.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_ARENA_MAX, _ARENA_MAX)


# Rows above which a training batch of at least two windows runs as two
# window shards, the second in the helper process. Below it the pipe round
# trip eats the gain. On the desk-iso model (2-core VM, one BLAS thread),
# two runs of alternating whole and split steps gave these medians, whole
# against split: 80 rows 7.8/6.4 against 6.7/6.9 ms, 160 rows 8.3/10.9
# against 9.1/8.8 ms, 320 rows 14.2/14.9 against 12.0/11.5 ms, and 640
# rows 27.6/25.8 against 19.4/16.7 ms.
_SHARD_ROWS = 256


def _window_shards(batch: AssembledBatch, n_nodes: int) -> list[tuple[np.ndarray, ...]]:
    """A training batch's (x, m, u, targets, target_masks), whole or as two window shards.

    A batch of more than `_SHARD_ROWS` rows and at least two windows is cut
    by window: the inputs (W, N*B, C) view as (W, N, B, C), the targets
    (N*B*H, C) as (N, B, H, C), and a slice of the B axis copies one
    shard's windows, the first half rounded up. The rule reads shapes only,
    so a config's bits do not depend on the machine.
    """
    arrays = (batch.x, batch.m, batch.u, batch.targets, batch.target_masks)
    w, rows, _ = batch.x.shape
    b, h = rows // n_nodes, batch.targets.shape[0] // rows
    if rows <= _SHARD_ROWS or b < 2:
        return [arrays]

    def cut(a, lo, hi):
        if a.ndim == 3:
            return a.reshape(w, n_nodes, b, a.shape[2])[:, :, lo:hi].reshape(w, n_nodes * (hi - lo), a.shape[2])
        return a.reshape(n_nodes, b, h, a.shape[1])[:, lo:hi].reshape(n_nodes * (hi - lo) * h, a.shape[1])

    half = (b + 1) // 2
    return [tuple(cut(a, lo, hi) for a in arrays) for lo, hi in ((0, half), (half, b))]


def _shard_gradients(model: Model, shard: tuple[np.ndarray, ...], n_rows: int) -> float:
    """One shard's recorded forward and its loss over the batch's `n_rows` rows, backpropagated into `p.grad`.

    A non-finite loss is returned with no backward. Only the tape and the
    loss outlive the forward, so backward frees the predictions, slots and
    attention weights with the records that hold them.
    """
    x, m, u, targets, target_masks = shard
    bf = model.forward_batch(x, m, u)
    loss = masked_mae_loss(bf.preds, targets, target_masks, n_rows)
    tape = bf.tape
    del bf
    if np.isfinite(loss.data):
        tape.backward(loss)
    return float(loss.data)


def _openblas_threads():
    """numpy's OpenBLAS thread-count getter and setter, or None where numpy links another BLAS.

    A handle to numpy's core extension also finds the symbols of the
    libraries it loaded. The names differ between the OpenBLAS that numpy's
    wheels bundle and a system one, with or without 64-bit integers.
    """
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for stem in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{stem}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{stem}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run numpy's OpenBLAS on one thread inside the block; restore its thread count after.

    Used where two workers share the cores: evaluation's two pool threads,
    and training's caller and helper process, which inherits the count when
    forked. With a BLAS pool of two threads in both the caller and the
    helper, four threads share two cores: on the desk-iso model a 640-row
    step took a median of 51 ms split against 35 ms whole, and with one
    thread each, 20 against 28 ms. The thread count does not change the
    bits. Another BLAS is left as it is.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _serve_shards(model: Model, conn, parent_end) -> None:
    """The helper process's loop: set the parameters, run one shard, reply; return at end of input.

    Each request is (shard, n_rows, parameter values, `np.geterr()` dict);
    the reply is (True, (loss, this process's `p.grad` in parameter order))
    or (False, (the exception, its formatted traceback)).
    `parent_end`, the caller's end of the pipe, was inherited by the fork;
    it is closed first, so a caller that dies without stopping the helper
    (killed by a signal) ends the input.
    """
    parent_end.close()
    params = model.parameters()
    while True:
        try:
            shard, n_rows, values, errstate = conn.recv()
        except EOFError:
            return
        for p, value in zip(params, values):
            p.value[...] = value
            p.zero_grad()
        try:
            with np.errstate(**errstate):
                reply = True, (_shard_gradients(model, shard, n_rows), [p.grad for p in params])
        except Exception as exc:  # reported to the caller, which raises it
            reply = False, (exc, traceback.format_exc())
        conn.send(reply)


class _ShardHelper:
    """A process that runs the second window shard of `train`'s split batches.

    It is forked from the caller at the first `submit`, so it starts with
    the caller's model and imports nothing, and it lives until `close`;
    meanwhile numpy's BLAS runs one thread in both (`_one_blas_thread`).
    `train` runs no thread of its own at that point: evaluation joins its
    pool before it returns, and OpenBLAS stops its own before a fork.
    Each `submit` sends it one shard with every parameter's current value
    and the caller's `np.errstate`, and `result` adds the helper's `p.grad`
    into the caller's when that shard's loss is finite, and returns the
    loss. An error the shard raises reaches the caller unchanged; a helper
    that dies raises ContractError naming its exit code.
    """

    def __init__(self, model: Model):
        self.model, self.params = model, model.parameters()
        self._process = self._conn = None
        self._blas = contextlib.ExitStack()

    def __enter__(self) -> "_ShardHelper":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(self, shard: tuple[np.ndarray, ...], n_rows: int) -> None:
        if self._process is None:
            self._blas.enter_context(_one_blas_thread())
            ctx = multiprocessing.get_context("fork")
            self._conn, child_end = ctx.Pipe()
            self._process = ctx.Process(target=_serve_shards, args=(self.model, child_end, self._conn), daemon=True)
            self._process.start()
            child_end.close()  # so the parent reads end of file once the helper exits
        try:
            self._conn.send((shard, n_rows, [p.value for p in self.params], np.geterr()))
        except (BrokenPipeError, ConnectionResetError):
            self._exited()

    def result(self) -> float:
        try:
            ok, payload = self._conn.recv()
        except (EOFError, ConnectionResetError):
            self._exited()
        if not ok:
            exc, remote_traceback = payload
            raise exc from RemoteTraceback(remote_traceback)
        loss, grads = payload
        if math.isfinite(loss):
            for p, g in zip(self.params, grads):
                p.grad += g
        return loss

    def _exited(self):
        self._process.join()
        raise ContractError(f"the training helper process exited with code {self._process.exitcode}") from None

    def close(self) -> None:
        """Stop the helper, even one blocked sending a reply no one will read."""
        if self._process is not None:
            self._process.terminate()
            self._process.join()
            self._conn.close()
            self._process = self._conn = None
        self._blas.close()


def _batch_gradients(model: Model, batch: AssembledBatch, helper: _ShardHelper | None) -> float | None:
    """A training batch's loss, its gradient summed into the zeroed `p.grad` in shard order.

    A shard with no valid target is skipped, and a batch with none returns
    None; a shard of non-finite loss adds no gradient. Of two shards, the
    second runs in `helper` while the caller runs the first; without a
    helper they run one after the other, with the same bits.
    """
    n_rows = int(np.count_nonzero(batch.target_masks.sum(axis=-1)))
    shards = [s for s in _window_shards(batch, model.config.n_nodes) if s[4].any()]  # s[4]: target mask
    # two shards are copies: unless the caller keeps the batch, its arrays
    # are freed before the tape grows
    del batch
    model.zero_grads()
    if len(shards) == 2 and helper is not None:
        helper.submit(shards.pop(), n_rows)
        losses = [_shard_gradients(model, shards[0], n_rows), helper.result()]
    else:
        losses = [_shard_gradients(model, s, n_rows) for s in shards]
    return sum(losses) if losses else None


def train(model: Model, bundle: DataBundle, cfg: TrainConfig) -> TrainResult:
    """Mini-batch training; leaves the model at the snapshot with minimal validation MAE.

    Batches are drawn uniformly with replacement from the training windows,
    with inputs and targets both masked by the simulated pattern; a batch
    with no valid target is skipped (an epoch with none logs a NaN loss).
    Validation after each epoch is masked-input / original-target. Every
    `plateau_patience`-th epoch without strict improvement multiplies the rate
    by `plateau_factor`; the `early_stop_patience`-th stops training. A
    non-finite training loss or validation MAE raises TrainingDiverged, and a
    validation split with no valid target raises ContractError.
    A batch of more than `_SHARD_ROWS` rows runs as two window shards
    (`_batch_gradients`); each backpropagates into `p.grad`, in shard order,
    before clipping and the update. Where two cores are usable and the
    platform forks, the second shard runs in one helper process
    (`_ShardHelper`), forked at the first split batch and stopped when this
    call returns or raises; it returns its own `p.grad`, which is added
    into this process's. Otherwise the shards run here, one after the other,
    with the same bits. A diverged step may leave a partial gradient in
    `p.grad`, but never updates `p.value`.
    Freed memory stays mapped from here on (`_keep_freed_memory`).
    """
    if not bundle.train or not bundle.val:
        raise ContractError("training and validation splits must be non-empty")
    _keep_freed_memory()
    params = model.parameters()
    state = TrainState(params, cfg.learning_rate)
    history: list[dict] = []

    forks = _EVAL_WORKERS > 1 and "fork" in multiprocessing.get_all_start_methods()
    with _ShardHelper(model) if forks else contextlib.nullcontext() as helper:
        for epoch in range(cfg.max_epochs):
            rng = stream_rng(cfg.seed, f"batches-{epoch}")
            epoch_losses = []
            for batch_idx in range(cfg.batches_per_epoch):
                picks = rng.integers(0, len(bundle.train), size=cfg.batch_size)
                loss = _batch_gradients(
                    model, assemble_batch(bundle, bundle.train.start + picks, mask_targets=True), helper
                )
                if loss is None:
                    continue
                if not math.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch {batch_idx}", history
                    )
                if cfg.grad_clip_norm is not None:
                    clip_gradients(params, cfg.grad_clip_norm)
                adamw_step(params, state, weight_decay=cfg.weight_decay)
                epoch_losses.append(loss)
            val = evaluate(model, bundle, "val", batch_size=cfg.eval_batch_size)
            if not math.isfinite(val.mae):
                raise TrainingDiverged(f"non-finite validation MAE {val.mae!r} at epoch {epoch}", history)
            state.end_epoch(params, val.mae, cfg.plateau_patience, cfg.plateau_factor)
            history.append(
                {
                    "epoch": epoch,
                    "train_loss": float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
                    "val_mae": val.mae,
                    "lr": state.lr,
                }
            )
            if state.stale >= cfg.early_stop_patience:
                break

    for p in params:
        p.value[...] = state.best[p.name]
    return TrainResult(best_val_mae=state.best_val, history=history)


# -- checkpoints ----------------------------------------------------------------------


CHECKPOINT_FORMAT = 2


def save_checkpoint(out_dir, model: Model, metadata: dict) -> None:
    """JSON manifest plus little-endian float64 blob in manifest order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "model_config": asdict(model.config),
        "params": [{"name": p.name, "shape": list(p.value.shape)} for p in model.parameters()],
        "metadata": metadata,
    }
    blob = b"".join(p.value.astype("<f8").tobytes() for p in model.parameters())
    with atomic_write(out / "checkpoint.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    with atomic_write(out / "checkpoint.bin", "wb") as fh:
        fh.write(blob)


def read_manifest(ckpt_dir) -> dict:
    """A checkpoint's manifest; ContractError names the file and key if it is not one `save_checkpoint` writes."""
    manifest_path = Path(ckpt_dir) / "checkpoint.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ContractError(f"{manifest_path} is not valid JSON: {exc}") from exc
    for key in ("format", "model_config", "params", "metadata"):
        if not isinstance(manifest, dict) or key not in manifest:
            raise ContractError(f"{manifest_path} has no {key!r} key")
    if not isinstance(manifest["params"], list):
        raise ContractError(f"{manifest_path}: 'params' is not a list")
    if manifest["format"] != CHECKPOINT_FORMAT:
        raise ContractError(
            f"{manifest_path} has format {manifest['format']!r}; this version reads format {CHECKPOINT_FORMAT}"
        )
    return manifest


def load_checkpoint(ckpt_dir, model: Model) -> dict:
    """Fill `model`'s parameters from a checkpoint written by `save_checkpoint`; return its metadata.

    The manifest must hold the model's config and its parameters' names and
    shapes in order, and the blob exactly their values, all finite. Anything
    else raises ContractError naming the file and the key or parameter, and
    leaves `model` as it was.
    """
    manifest = read_manifest(ckpt_dir)
    manifest_path, blob_path = Path(ckpt_dir) / "checkpoint.json", Path(ckpt_dir) / "checkpoint.bin"
    if manifest["model_config"] != json.loads(json.dumps(asdict(model.config))):
        raise ContractError(f"{manifest_path}: model_config does not match the model's config")
    stored = manifest["params"] + [None]
    layout = [{"name": p.name, "shape": list(p.value.shape)} for p in model.parameters()] + [None]
    if stored != layout:  # the None ends name a missing or extra entry
        i = next(i for i, (a, b) in enumerate(zip(stored, layout)) if a != b)
        raise ContractError(
            f"{manifest_path}: params[{i}] is {json.dumps(stored[i])}; the model has {json.dumps(layout[i])}"
        )
    raw = blob_path.read_bytes()
    values, offset = [], 0
    for p in model.parameters():
        if offset + 8 * p.value.size > len(raw):
            raise ContractError(f"{blob_path} does not hold parameter {p.name!r} of shape {p.value.shape}")
        value = np.frombuffer(raw, "<f8", p.value.size, offset).reshape(p.value.shape)
        if not np.all(np.isfinite(value)):
            raise ContractError(f"{blob_path}: parameter {p.name!r} holds non-finite values")
        values.append(value)
        offset += 8 * p.value.size
    if offset != len(raw):
        raise ContractError(f"{blob_path} holds {len(raw) - offset} bytes past the last parameter {p.name!r}")
    for p, value in zip(model.parameters(), values):
        p.value[...] = value
    return manifest["metadata"]
