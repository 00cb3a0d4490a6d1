"""Forecasting architecture: encoder, recurrent temporal pyramid, coarsened
spatial propagation, scale attention and multistep readout.

The design is time-then-space. Every node's window is encoded by one affine
map over all steps, run through gated recurrent layers that decimate the
sequence between layers, and the per-layer summaries are then propagated over
a precomputed hierarchy of coarsened graphs. Each of the L*(K+1) resulting
encodings captures one (temporal scale, spatial scale) pair; a per-node
softmax over learned scores mixes them into the representation the decoder
maps to the forecasts.

The slot order of the multiscale encodings is spatial-major: slot k*L + (l-1)
holds temporal layer l at spatial level k.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Parameter, Tape, Tensor
from .errors import ContractError, DimensionError
from .graphs import CoarseningHierarchy, temporal_chain
from .rng import stream_rng
from .sparse import CsrMatrix

SMP_VARIANTS = ("isotropic", "anisotropic")


@dataclass(frozen=True)
class ModelConfig:
    n_nodes: int
    window: int
    horizon: int
    d_x: int = 1
    d_u: int = 0
    d_h: int = 64
    temporal_layers: int = 4  # L
    temporal_factor: int = 3  # d
    spatial_levels: int = 3  # K
    embedding_size: int = 32
    smp_variant: str = "isotropic"
    diffusion_hops: int = 2  # P, isotropic messages only
    decoder_hidden: tuple[int, ...] = (128, 128)
    per_step_attention: bool = False
    normalize_ascent: bool = False

    def __post_init__(self):
        if self.temporal_layers < 1 or self.temporal_factor < 1 or self.spatial_levels < 0:
            raise ContractError("temporal layers/factor must be >= 1 and spatial levels >= 0")
        for name in ("n_nodes", "window", "horizon", "d_x", "d_h", "embedding_size"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be positive")
        if self.d_u < 0 or self.diffusion_hops < 1:
            raise ContractError("d_u must be >= 0 and diffusion_hops >= 1")
        if self.smp_variant not in SMP_VARIANTS:
            raise ContractError(f"smp_variant must be one of {SMP_VARIANTS}")

    @property
    def n_scales(self) -> int:
        return self.temporal_layers * (self.spatial_levels + 1)

    def slot(self, spatial_level: int, temporal_layer: int) -> int:
        """Flat index of (spatial level k, temporal layer l) with l in 1..L."""
        return spatial_level * self.temporal_layers + (temporal_layer - 1)


@dataclass
class ForwardTrace:
    """Per-window record kept for interpretability export."""

    encodings: np.ndarray  # (S, N, d_h)
    alphas: np.ndarray  # (n_score_sets, N, S); one set per horizon step when per-step
    predictions: np.ndarray  # (H, N, d_x), scaled space

    def __post_init__(self):
        sums = self.alphas.sum(axis=2)
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise ContractError("attention rows must sum to 1")


@dataclass
class BatchForward:
    tape: Tape | None  # None when the pass was run without gradient recording
    preds: list[Tensor]  # H tensors of shape (B*N, d_x)
    slots: list[Tensor]  # S tensors of shape (B*N, d_h)
    alphas: list[Tensor]  # one (B*N, S) tensor per score set


# -- parameters -----------------------------------------------------------------


def _uniform(rng, shape, bound):
    return rng.uniform(-bound, bound, size=shape)


def init_params(config: ModelConfig, hierarchy: CoarseningHierarchy, seed: int) -> dict[str, Parameter]:
    """Create all trainable arrays in a fixed, named order.

    Weight matrices draw uniformly from +-1/sqrt(fan_in); node embeddings from
    +-0.1; biases start at zero.
    """
    if hierarchy.levels != config.spatial_levels:
        raise ContractError("hierarchy depth does not match the configured spatial levels")
    if hierarchy.graphs[0].n != config.n_nodes:
        raise DimensionError("hierarchy built over a different node count")
    rng = stream_rng(seed, "init")
    params: dict[str, Parameter] = {}

    def dense(name, d_in, d_out):
        params[name] = Parameter(name, _uniform(rng, (d_in, d_out), 1.0 / np.sqrt(d_in)))

    def bias(name, d_out):
        params[name] = Parameter(name, np.zeros((1, d_out)))

    params["embeddings"] = Parameter(
        "embeddings", _uniform(rng, (config.n_nodes, config.embedding_size), 0.1)
    )
    enc_in = 2 * config.d_x + config.d_u + config.embedding_size
    dense("encoder.weight", enc_in, config.d_h)
    bias("encoder.bias", config.d_h)

    for layer in range(config.temporal_layers):
        for gate in ("reset", "update", "cand"):
            dense(f"temporal.l{layer}.{gate}.w_in", config.d_h, config.d_h)
            dense(f"temporal.l{layer}.{gate}.w_hid", config.d_h, config.d_h)
            bias(f"temporal.l{layer}.{gate}.bias", config.d_h)

    for k in range(1, config.spatial_levels + 1):
        prefix = f"spatial.k{k}"
        if config.smp_variant == "isotropic":
            for p in range(1, config.diffusion_hops + 1):
                dense(f"{prefix}.hop{p}.fwd", config.d_h, config.d_h)
                if hierarchy.graphs[k - 1].directed:
                    dense(f"{prefix}.hop{p}.rev", config.d_h, config.d_h)
        else:
            dense(f"{prefix}.msg.w1", 2 * config.d_h + 1, config.d_h)
            dense(f"{prefix}.msg.w2", config.d_h, config.d_h)
            dense(f"{prefix}.msg.w3", config.d_h, config.d_h)
        dense(f"{prefix}.self.weight", config.d_h, config.d_h)
        bias(f"{prefix}.self.bias", config.d_h)

    n_score_sets = config.horizon if config.per_step_attention else 1
    dense("attention.weight", config.d_h, n_score_sets)

    widths = [config.d_h, *config.decoder_hidden]
    for i, (d_in, d_out) in enumerate(zip(widths, widths[1:])):
        dense(f"readout.h{i}.weight", d_in, d_out)
        bias(f"readout.h{i}.bias", d_out)
    out_dim = config.d_x if config.per_step_attention else config.horizon * config.d_x
    dense("readout.out.weight", widths[-1], out_dim)
    bias("readout.out.bias", out_dim)
    return params


class _TapeParams:
    """Wraps each parameter at most once per tape."""

    def __init__(self, tape: Tape | None, params: dict[str, Parameter]):
        self._tape = tape
        self._params = params
        self._cache: dict[str, Tensor] = {}

    def __getitem__(self, name: str) -> Tensor:
        t = self._cache.get(name)
        if t is None:
            if self._tape is None:
                t = Tensor(self._params[name].value)  # constant: nothing recorded
            else:
                t = self._tape.parameter(self._params[name])
            self._cache[name] = t
        return t


# -- compiled constants ------------------------------------------------------------


class ModelRuntime:
    """Sparse graph operators derived from the hierarchy, one set per model.

    Each operator acts on one window's nodes (N x N, or E x N for edge
    incidence). A batch of B windows stacks its activations as B blocks of
    rows, and `ad.sparse_matmul` applies an operator to every block, so the
    operators do not depend on the batch size. Per-window results are
    bit-identical to running windows one by one.
    """

    def __init__(self, hierarchy: CoarseningHierarchy, config: ModelConfig):
        self.reduce_ops: list[CsrMatrix] = []
        self.lift_ops: list[CsrMatrix] = []
        self.ascent_ops: list[CsrMatrix] = []
        self.iso_fwd: list[list[CsrMatrix]] = []
        self.iso_rev: list[list[CsrMatrix] | None] = []
        self.edge_src: list[CsrMatrix | None] = []
        self.edge_recv: list[CsrMatrix | None] = []
        self.edge_weight: list[np.ndarray | None] = []  # (E, 1) per level

        for k in range(1, config.spatial_levels + 1):
            sel = hierarchy.selections[k - 1]
            graph = hierarchy.graphs[k - 1]
            self.reduce_ops.append(CsrMatrix(sel.reduce_op()))
            self.lift_ops.append(CsrMatrix(sel.lift_op()))
            self.ascent_ops.append(CsrMatrix(_row_normalized(graph.csr) if config.normalize_ascent else graph.csr))
            if config.smp_variant == "isotropic":
                fwd, rev = [], []
                adj = graph.csr.copy()
                adj.eliminate_zeros()  # diffusion follows the nonzero weights only
                power = adj
                for p in range(1, config.diffusion_hops + 1):
                    if p > 1:
                        power = power @ adj
                    hop = power.copy()  # sorted copy; the next power takes the raw product
                    hop.sum_duplicates()
                    fwd.append(CsrMatrix(_row_normalized(hop.T.tocsr())))
                    if graph.directed:
                        rev.append(CsrMatrix(_row_normalized(hop)))
                self.iso_fwd.append(fwd)
                self.iso_rev.append(rev if graph.directed else None)
                self.edge_src.append(None)
                self.edge_recv.append(None)
                self.edge_weight.append(None)
            else:
                coo = graph.csr.tocoo()
                eye, ones = np.arange(coo.nnz), np.ones(coo.nnz)
                self.edge_src.append(CsrMatrix(sp.csr_array((ones, (eye, coo.row)), shape=(coo.nnz, graph.n))))
                self.edge_recv.append(CsrMatrix(sp.csr_array((ones, (eye, coo.col)), shape=(coo.nnz, graph.n))))
                self.edge_weight.append(coo.data[:, None])
                self.iso_fwd.append([])
                self.iso_rev.append(None)


def _row_normalized(m: sp.csr_array) -> sp.csr_array:
    """Each nonempty row of a canonical CSR array divided by its sum."""
    s = m.sum(axis=1)
    inv = np.where(s != 0.0, 1.0 / np.where(s == 0.0, 1.0, s), 0.0)
    return sp.csr_array((m.data * np.repeat(inv, np.diff(m.indptr)), m.indices, m.indptr), shape=m.shape)


# -- forward pieces -----------------------------------------------------------------


def last_value_imputation(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Replace invalid entries with the last valid value in the window, else 0."""
    out = np.empty_like(x)
    last = np.zeros(x.shape[1:])
    for t in range(x.shape[0]):
        last = np.where(m[t] == 1.0, x[t], last)
        out[t] = last
    return out


def smp_messages(x: Tensor, level: int, p: _TapeParams, config: ModelConfig, rt: ModelRuntime) -> Tensor:
    """One message-passing update on the graph below pooling level `level`."""
    prefix = f"spatial.k{level}"
    out = x @ p[f"{prefix}.self.weight"] + p[f"{prefix}.self.bias"]
    idx = level - 1
    if config.smp_variant == "isotropic":
        for hop, op in enumerate(rt.iso_fwd[idx], start=1):
            if op.nnz:
                out = out + ad.sparse_matmul(op, x) @ p[f"{prefix}.hop{hop}.fwd"]
        if rt.iso_rev[idx] is not None:
            for hop, op in enumerate(rt.iso_rev[idx], start=1):
                if op.nnz:
                    out = out + ad.sparse_matmul(op, x) @ p[f"{prefix}.hop{hop}.rev"]
        return out
    src_op, recv_op = rt.edge_src[idx], rt.edge_recv[idx]
    if src_op is None or src_op.shape[0] == 0:
        return out
    x_recv = ad.sparse_matmul(recv_op, x)
    x_src = ad.sparse_matmul(src_op, x)
    weight = np.tile(rt.edge_weight[idx], (x.data.shape[0] // src_op.shape[1], 1))
    feats = ad.concat_cols([x_recv, x_src, ad.constant(weight)])
    m = ad.elu(feats @ p[f"{prefix}.msg.w1"]) @ p[f"{prefix}.msg.w2"]
    gated = ad.mul(ad.sigmoid(m @ p[f"{prefix}.msg.w3"]), m)
    return out + ad.sparse_matmul(recv_op, gated, transpose=True)


def _mlp(x: Tensor, p: _TapeParams, config: ModelConfig) -> Tensor:
    h = x
    for i in range(len(config.decoder_hidden)):
        h = ad.elu(h @ p[f"readout.h{i}.weight"] + p[f"readout.h{i}.bias"])
    return h @ p["readout.out.weight"] + p["readout.out.bias"]


class Model:
    """Bundles a configuration, a coarsening hierarchy and the parameters."""

    def __init__(
        self,
        config: ModelConfig,
        hierarchy: CoarseningHierarchy,
        params: dict[str, Parameter] | None = None,
        init_seed: int = 0,
    ):
        self.config = config
        self.hierarchy = hierarchy
        self.params = params if params is not None else init_params(config, hierarchy, init_seed)
        self._runtime = ModelRuntime(hierarchy, config)

    def runtime(self, batch_size: int) -> ModelRuntime:
        """The model's graph operators; one set serves every batch size.

        `batch_size` is ignored. It stays because `bench/probes.py` reads the
        operators through `runtime(batch_size)`.
        """
        return self._runtime

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    # -- forward --------------------------------------------------------------

    def encode_inputs(self, p: _TapeParams, xw, mw, uw, batch_size: int) -> Tensor:
        """Affine encoding of [imputed x, u, mask, node embedding] at every step.

        Returns the W steps stacked time-major, (W*B*N, d_h): one product.
        """
        cfg = self.config
        m_rows = xw.shape[1]
        if xw.shape != (cfg.window, m_rows, cfg.d_x) or mw.shape != xw.shape:
            raise DimensionError("window arrays must be (W, B*N, d_x)")
        ximp = last_value_imputation(xw, mw)
        feats = np.concatenate([ximp, uw, mw], axis=2).reshape(cfg.window * m_rows, -1)
        emb = p["embeddings"]
        for copies in (batch_size, cfg.window):  # tiled per window, then per step
            if copies > 1:
                emb = ad.concat_rows([emb] * copies)
        return ad.concat_cols([ad.constant(feats), emb]) @ p["encoder.weight"] + p["encoder.bias"]

    def temporal_stack(self, p: _TapeParams, seq: Tensor) -> list[Tensor]:
        """L per-layer summaries; each layer consumes the previous decimation.

        Each layer is one `ad.gru_scan` over the kept steps of the layer
        below; its summary is its last state.
        """
        cfg = self.config
        chain = temporal_chain(cfg.window, cfg.temporal_factor, cfg.temporal_layers)
        n_steps, steps = cfg.window, range(cfg.window)
        z_list = []
        for layer in range(cfg.temporal_layers):
            prefix = f"temporal.l{layer}"
            gates = [
                (p[f"{prefix}.{gate}.w_in"], p[f"{prefix}.{gate}.w_hid"], p[f"{prefix}.{gate}.bias"])
                for gate in ("reset", "update", "cand")
            ]
            seq = ad.gru_scan(seq, n_steps, steps, gates)
            rows = seq.data.shape[0] // len(steps)
            z_list.append(ad.slice_rows(seq, rows * (len(steps) - 1), rows * len(steps)))
            n_steps, steps = len(steps), chain[layer].kept_indices
        return z_list

    def spatial_stack(self, p: _TapeParams, z_list: list[Tensor], rt: ModelRuntime) -> list[Tensor]:
        """All (spatial level, temporal layer) encodings, lifted back to level 0."""
        cfg = self.config
        slots: list[Tensor | None] = [None] * cfg.n_scales
        for l_idx, z in enumerate(z_list, start=1):
            slots[cfg.slot(0, l_idx)] = z
            r = z
            for k in range(1, cfg.spatial_levels + 1):
                msg = smp_messages(r, k, p, cfg, rt)
                r = ad.sparse_matmul(rt.reduce_ops[k - 1], msg)
                lifted = r
                for j in range(k, 0, -1):
                    lifted = ad.sparse_matmul(rt.lift_ops[j - 1], lifted)
                    lifted = ad.sparse_matmul(rt.ascent_ops[j - 1], lifted, transpose=True)
                slots[cfg.slot(k, l_idx)] = lifted
        return slots

    def attention_fuse(self, p: _TapeParams, slots: list[Tensor]) -> tuple[list[Tensor], Tensor]:
        """Softmax-weighted mixtures of the multiscale encodings, per node.

        Returns (score sets, fused representations): one (B*N, S) constant
        weight tensor per set, one set per horizon step in per-step mode and
        a single shared set otherwise, and the mixtures stacked by set.
        """
        fused, alphas = ad.scale_attention(slots, p["attention.weight"])
        return [ad.constant(a) for a in alphas], fused

    def readout(self, p: _TapeParams, fused: Tensor) -> list[Tensor]:
        """Map fused representations, stacked by score set, to H per-step predictions (scaled space)."""
        cfg = self.config
        if not cfg.per_step_attention:
            out = _mlp(fused, p, cfg)
            return [ad.slice_cols(out, h * cfg.d_x, (h + 1) * cfg.d_x) for h in range(cfg.horizon)]
        rows = fused.data.shape[0] // cfg.horizon
        if fused.tape is None:
            # nothing recorded: one decoder pass per set keeps arrays cache-sized
            return [_mlp(ad.slice_rows(fused, h * rows, (h + 1) * rows), p, cfg) for h in range(cfg.horizon)]
        # recorded: one pass over all sets, since every row slice of `fused`
        # would pull back an adjoint of its full size; rows decode alike either way
        out = _mlp(fused, p, cfg)
        return [ad.slice_rows(out, h * rows, (h + 1) * rows) for h in range(cfg.horizon)]

    def forward_batch(
        self,
        xw: np.ndarray,
        mw: np.ndarray,
        uw: np.ndarray,
        batch_size: int,
        record_gradients: bool = True,
    ) -> BatchForward:
        """Run B windows stacked along the node axis as B blocks of N rows.

        Every graph operator is applied to each block on its own (see
        ModelRuntime), so each window's results equal a batch of one.

        With `record_gradients` off, parameters enter as constants and no tape
        is built; results are identical and the pass is cheaper (evaluation,
        finite differences).
        """
        tape = Tape() if record_gradients else None
        p = _TapeParams(tape, self.params)
        seq = self.encode_inputs(p, xw, mw, uw, batch_size)
        z_list = self.temporal_stack(p, seq)
        slots = self.spatial_stack(p, z_list, self._runtime)
        alphas, fused = self.attention_fuse(p, slots)
        preds = self.readout(p, fused)
        return BatchForward(tape=tape, preds=preds, slots=slots, alphas=alphas)

    def forward_window(self, x: np.ndarray, m: np.ndarray, u: np.ndarray) -> ForwardTrace:
        """Single-window forward returning the interpretability trace."""
        bf = self.forward_batch(x, m, u, batch_size=1, record_gradients=False)
        return ForwardTrace(
            encodings=np.stack([t.data for t in bf.slots]),
            alphas=np.stack([a.data for a in bf.alphas]),
            predictions=np.stack([t.data for t in bf.preds]),
        )
