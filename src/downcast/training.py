"""Masked-loss training loop with adaptive moments and plateau scheduling.

The loss averages per-(step, node) mask-normalised absolute errors over the
terms that have at least one valid channel, so its scale does not depend on
the node count, horizon or batch size. Reported MAE/MSE are plain means over
valid scalar entries in original units.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .data import Panel, Scaler
from .errors import ContractError, require
from .model import Model, ModelConfig, last_value_imputation
from .rng import stream_rng


class TrainingDiverged(ContractError):
    """Non-finite loss; carries the epoch history accumulated so far."""

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
    best_params: dict[str, np.ndarray]
    best_val_mae: float
    history: list[dict]
    epochs_run: int


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
    x: np.ndarray  # (W, B*N, d_x), scaled
    m: np.ndarray  # simulated-and-original input validity
    u: np.ndarray
    targets: np.ndarray  # (H*B*N, d_x), horizon-major like the predictions, scaled
    target_masks: np.ndarray
    raw_targets: np.ndarray  # targets in original units


def assemble_batch(bundle: DataBundle, starts, mask_targets: bool) -> AssembledBatch:
    """Gather the windows at `starts` as B blocks of N rows; combine the mask policies.

    One time-major index, start + t for each of the W+H steps t of each
    window, reads every array at once. The gathered (W+H, B, N, C) blocks are
    (W+H, B*N, C) without a copy. Inputs are always masked by the simulated
    pattern; targets are only masked during training (evaluation scores
    against originally-valid data).
    """
    panel, w = bundle.panel, bundle.window
    steps = np.asarray(starts)[None, :] + np.arange(w + bundle.horizon)[:, None]  # (W+H, B)
    shape = (w + bundle.horizon, steps.shape[1] * panel.n_nodes, panel.n_channels)
    x = panel.x[steps].reshape(shape)
    m = panel.mask[steps].reshape(shape)
    sim = bundle.sim_mask[steps].reshape(shape)
    # exogenous rows shared by every node (a broadcast view) are gathered once
    # per step and copied per node: a gather through the zero stride is ~10x slower
    u = panel.u[:, :1] if panel.u.strides[1] == 0 else panel.u
    u = np.broadcast_to(u[steps[:w]], (w, steps.shape[1], panel.n_nodes, panel.u.shape[2]))
    return AssembledBatch(
        x=bundle.scaler.apply(x[:w]),
        m=m[:w] * sim[:w],
        u=u.reshape(w, shape[1], panel.u.shape[2]),
        targets=bundle.scaler.apply(x[w:]).reshape(-1, shape[2]),
        target_masks=(m[w:] * sim[w:] if mask_targets else m[w:]).reshape(-1, shape[2]),
        raw_targets=x[w:].reshape(-1, shape[2]),
    )


# -- loss and metrics -------------------------------------------------------------


def masked_mae_loss(pred: Tensor, target, mask) -> Tensor:
    """Differentiable masked absolute-error loss.

    `target` and `mask` are arrays shaped like `pred`, whose rows are the
    (step, node) terms. Each row contributes the mean absolute error over
    its valid channels; rows with no valid channel are skipped, and the loss
    is the mean over contributing rows. Gradients are exactly zero at masked
    entries.
    """
    target = np.asarray(target, dtype=np.float64).reshape(pred.data.shape)
    mask = np.asarray(mask, dtype=np.float64).reshape(pred.data.shape)
    row_valid = mask.sum(axis=-1)
    contributing = int(np.count_nonzero(row_valid))
    if contributing == 0:
        raise ContractError("mask selects no valid target entries")
    weights = np.divide(1.0, row_valid, out=np.zeros_like(row_valid), where=row_valid > 0)
    err = ad.mul(ad.absolute(ad.sub(pred, ad.constant(target))), ad.constant(mask))
    total = ad.reduce_sum(ad.mul(ad.reduce_sum(err, axis=pred.data.ndim - 1), ad.constant(weights)))
    return ad.mul(total, 1.0 / contributing)


# -- optimiser --------------------------------------------------------------------


class OptimState:
    """First/second moment accumulators plus the live learning rate."""

    def __init__(self, params: list[Parameter], learning_rate: float):
        self.m = {p.name: np.zeros_like(p.value) for p in params}
        self.v = {p.name: np.zeros_like(p.value) for p in params}
        self.step = 0
        self.lr = learning_rate


def adamw_step(
    params: list[Parameter],
    state: OptimState,
    weight_decay: float = 0.01,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Decoupled-weight-decay adaptive-moment update over accumulated gradients."""
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise ContractError(f"non-finite gradient in parameter {p.name!r}")
    state.step += 1
    t = state.step
    for p in params:
        m = state.m[p.name]
        v = state.v[p.name]
        m *= beta1
        m += (1.0 - beta1) * p.grad
        v *= beta2
        v += (1.0 - beta2) * p.grad * p.grad
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.value -= state.lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p.value)


def clip_gradients(params: list[Parameter], max_norm: float) -> float:
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        for p in params:
            p.grad *= factor
    return total


@dataclass
class PlateauScheduler:
    """Halve the rate when the metric stops strictly improving."""

    patience: int
    factor: float
    best: float = float("inf")
    stale: int = 0

    def update(self, state: OptimState, metric: float) -> float:
        if metric < self.best:
            self.best = metric
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= self.patience:
                state.lr *= self.factor
                self.stale = 0
        return state.lr


# -- evaluation ---------------------------------------------------------------------


def _batches(bundle: DataBundle, starts, batch_size: int):
    """Yield (chunk of starts, its evaluation batch) chunk by chunk."""
    for i in range(0, len(starts), batch_size):
        chunk = starts[i : i + batch_size]
        yield chunk, assemble_batch(bundle, chunk, mask_targets=False)


# Rows (windows x nodes) per unrecorded forward pass. Past the per-core L2
# cache a pass slows per row: on a 2-core VM (2 MB L2 per core, one BLAS
# thread, medians of 7) one 32-window metro-aniso evaluation batch of 4,800
# rows took 288-294 ms in one pass and 178-211 ms in groups of 6 windows
# (900 rows); a 128-window desk-iso batch of 2,560 rows, 67 and 57 ms.
_EVAL_ROWS = 1024


def predict_windows(model: Model, bundle: DataBundle, starts, batch_size: int):
    """Yield (chunk of starts, predictions in original units, batch) chunk by chunk.

    Each chunk of `batch_size` windows is gathered once and run forward in
    groups of consecutive windows of at most `_EVAL_ROWS` rows. Windows do
    not interact, so the groups' predictions equal one pass's up to
    last-ulp rounding (BLAS picks its kernels by row count).
    """
    cfg = model.config
    group = max(1, _EVAL_ROWS // cfg.n_nodes)
    for chunk, batch in _batches(bundle, starts, batch_size):
        preds = []
        for g0 in range(0, len(chunk), group):
            rows = slice(g0 * cfg.n_nodes, min(g0 + group, len(chunk)) * cfg.n_nodes)
            bf = model.forward_batch(batch.x[:, rows], batch.m[:, rows], batch.u[:, rows], record_gradients=False)
            preds.append(bf.preds.data.reshape(cfg.horizon, -1, cfg.d_x))
        yield chunk, bundle.scaler.invert(np.concatenate(preds, axis=1)), batch


class _MaskedErrorSums:
    """Per-horizon sums of masked absolute and squared errors, and valid counts."""

    def __init__(self, horizon: int):
        self.abs_sum = np.zeros(horizon)
        self.sq_sum = np.zeros(horizon)
        self.counts = np.zeros(horizon, dtype=np.int64)

    def add(self, pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> None:
        """Accumulate (H, rows, d_x) predictions against horizon-major targets under a mask."""
        diff = pred - target.reshape(pred.shape)
        mask = mask.reshape(pred.shape)
        self.abs_sum += (np.abs(diff) * mask).sum(axis=(1, 2))
        self.sq_sum += (diff**2 * mask).sum(axis=(1, 2))
        self.counts += mask.sum(axis=(1, 2)).astype(np.int64)

    def report(self) -> MetricsReport:
        n = int(self.counts.sum())
        return MetricsReport(
            mae=float(self.abs_sum.sum() / n) if n else float("nan"),
            mse=float(self.sq_sum.sum() / n) if n else float("nan"),
            per_horizon_mae=[float(a / c) if c else float("nan") for a, c in zip(self.abs_sum, self.counts)],
            per_horizon_counts=[int(c) for c in self.counts],
            n_valid=n,
        )


def evaluate(model: Model, bundle: DataBundle, split: str, batch_size: int = 64) -> MetricsReport:
    """Masked metrics on originally-valid targets, inputs masked by simulation."""
    sums = _MaskedErrorSums(model.config.horizon)
    for _, preds, batch in predict_windows(model, bundle, bundle.split(split), batch_size):
        sums.add(preds, batch.raw_targets, batch.target_masks)
    return sums.report()


def persistence_metrics(bundle: DataBundle, split: str, horizon: int) -> MetricsReport:
    """Last-valid-observation baseline under the same evaluation protocol.

    `horizon` must equal `bundle.horizon`; it is kept for existing callers.
    """
    if horizon != bundle.horizon:
        raise ContractError(f"horizon {horizon} does not match the bundle's horizon (bundle.horizon = {bundle.horizon})")
    sums = _MaskedErrorSums(horizon)
    # 32 windows per chunk, a small evaluation batch: the gathered exogenous
    # channels (11 with time encodings) stay below the peak evaluation sets
    for _, batch in _batches(bundle, bundle.split(split), 32):
        last = last_value_imputation(batch.x, batch.m)[-1]
        pred = bundle.scaler.invert(np.repeat(last[None], horizon, axis=0))
        sums.add(pred, batch.raw_targets, batch.target_masks)
    return sums.report()


# -- loop ---------------------------------------------------------------------------


def train(model: Model, bundle: DataBundle, cfg: TrainConfig) -> TrainResult:
    """Mini-batch training; returns the snapshot with minimal validation MAE.

    Batches are drawn uniformly with replacement from the training windows,
    with inputs and targets both masked by the simulated pattern. Validation
    after each epoch is masked-input / original-target. Training stops early
    after `early_stop_patience` epochs without strict improvement.
    """
    if not bundle.train or not bundle.val:
        raise ContractError("training and validation splits must be non-empty")
    params = model.parameters()
    state = OptimState(params, cfg.learning_rate)
    scheduler = PlateauScheduler(patience=cfg.plateau_patience, factor=cfg.plateau_factor)
    best_snapshot = {p.name: p.value.copy() for p in params}
    best_val = float("inf")
    stale = 0
    history: list[dict] = []
    epochs_run = 0

    for epoch in range(cfg.max_epochs):
        rng = stream_rng(cfg.seed, f"batches-{epoch}")
        epoch_losses = []
        for batch_idx in range(cfg.batches_per_epoch):
            picks = rng.integers(0, len(bundle.train), size=cfg.batch_size)
            batch = assemble_batch(bundle, bundle.train.start + picks, mask_targets=True)
            bf = model.forward_batch(batch.x, batch.m, batch.u)
            loss = masked_mae_loss(bf.preds, batch.targets, batch.target_masks)
            if not np.isfinite(loss.data):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {batch_idx}", history
                )
            model.zero_grads()
            bf.tape.backward(loss)
            if cfg.grad_clip_norm is not None:
                clip_gradients(params, cfg.grad_clip_norm)
            adamw_step(params, state, weight_decay=cfg.weight_decay)
            epoch_losses.append(float(loss.data))
        epochs_run = epoch + 1
        val = evaluate(model, bundle, "val", batch_size=cfg.eval_batch_size)
        if val.mae < best_val:
            best_val = val.mae
            best_snapshot = {p.name: p.value.copy() for p in params}
            stale = 0
        else:
            stale += 1
        lr_now = scheduler.update(state, val.mae)
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(epoch_losses)),
                "val_mae": val.mae,
                "lr": lr_now,
            }
        )
        if stale >= cfg.early_stop_patience:
            break

    for p in params:
        p.value[...] = best_snapshot[p.name]
    return TrainResult(
        best_params=best_snapshot, best_val_mae=best_val, history=history, epochs_run=epochs_run
    )


# -- checkpoints ----------------------------------------------------------------------


CHECKPOINT_FORMAT = 1


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
    tmp_json = out / "checkpoint.json.tmp"
    tmp_json.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp_json, out / "checkpoint.json")
    tmp_blob = out / "checkpoint.bin.tmp"
    tmp_blob.write_bytes(blob)
    os.replace(tmp_blob, out / "checkpoint.bin")


def load_checkpoint(ckpt_dir) -> tuple[ModelConfig, dict[str, np.ndarray], dict]:
    """Read a checkpoint written by `save_checkpoint`.

    A manifest that is not JSON, has another format or lacks a key, a blob
    that does not match the manifest, and a non-finite parameter value each
    raise ContractError naming the file and the key or parameter.
    """
    root = Path(ckpt_dir)
    manifest_path, blob_path = root / "checkpoint.json", root / "checkpoint.bin"
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
    raw = blob_path.read_bytes()
    values: dict[str, np.ndarray] = {}
    offset = 0
    for i, entry in enumerate(manifest["params"]):
        try:
            name, shape = str(entry["name"]), tuple(int(e) for e in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ContractError(f"{manifest_path}: params[{i}] needs a name and an integer shape") from exc
        size = int(np.prod(shape)) * 8
        if min(shape, default=0) < 0 or offset + size > len(raw):
            raise ContractError(f"{blob_path} does not hold parameter {name!r} of shape {shape}")
        value = np.frombuffer(raw[offset : offset + size], dtype="<f8").reshape(shape).copy()
        if not np.all(np.isfinite(value)):
            raise ContractError(f"{blob_path}: parameter {name!r} holds non-finite values")
        values[name] = value
        offset += size
    if offset != len(raw):
        raise ContractError(f"{blob_path} length does not match the manifest")
    try:
        cfg_dict = dict(manifest["model_config"])
        cfg_dict["decoder_hidden"] = tuple(cfg_dict["decoder_hidden"])
        config = ModelConfig(**cfg_dict)
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"{manifest_path}: model_config does not describe a model: {exc}") from exc
    return config, values, manifest["metadata"]
