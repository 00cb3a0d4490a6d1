"""Forecasting architecture: encoder, recurrent temporal pyramid, coarsened
spatial propagation, scale attention and multistep readout.

The design is time-then-space. Every node's window is encoded by one affine
map over all steps, run through gated recurrent layers that decimate the
sequence between layers, and the per-layer summaries are then propagated over
a precomputed hierarchy of coarsened graphs. Each of the L*(K+1) resulting
encodings captures one (temporal scale, spatial scale) pair; a per-node
softmax over learned scores mixes them into the representation the decoder
maps to the forecasts.

Each stage passes one tensor on, stacked by row blocks of B*N rows: the L
temporal summaries, the S = L*(K+1) encodings (the slots) and the H
per-step predictions. Slots are spatial-major: row block k*L + (l-1) holds
temporal layer l at spatial level k.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Parameter, Tape, Tensor
from .errors import ContractError, DimensionError, require, require_one_of
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
    d_h: int = 32
    temporal_layers: int = 3  # L
    temporal_factor: int = 3  # d
    spatial_levels: int = 2  # K
    embedding_size: int = 16
    smp_variant: str = "isotropic"
    diffusion_hops: int = 2  # P, isotropic messages only
    decoder_hidden: tuple[int, ...] = (128, 128)
    per_step_attention: bool = False
    normalize_ascent: bool = False

    def __post_init__(self):
        require(self, "positive", "n_nodes", "window", "horizon", "d_x", "d_h", "temporal_layers",
                "temporal_factor", "embedding_size", "diffusion_hops")
        require(self, "nonnegative", "d_u", "spatial_levels")
        if any(w < 1 for w in self.decoder_hidden):
            raise ContractError(f"decoder_hidden: widths must be positive, got {list(self.decoder_hidden)}")
        require_one_of(self, "smp_variant", SMP_VARIANTS)

    @property
    def n_scales(self) -> int:
        return self.temporal_layers * (self.spatial_levels + 1)


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
    preds: Tensor  # (H*B*N, d_x), horizon-major
    slots: Tensor  # (S*B*N, d_h), slot-major
    alphas: np.ndarray  # (n_score_sets, B*N, S)


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
    rows, and `ad.sparse_matmul` and `ad.edge_messages` apply an operator to
    every block, so the operators do not depend on the batch size.
    Per-window results equal running windows one by one up to last-ulp
    rounding: BLAS picks its kernels by row count.
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
    """One message-passing update on the graph below pooling level `level`.

    Both variants add messages to a self update, x @ W_self + b. Isotropic
    messages diffuse x over the row-normalized hop powers, one weight per hop
    and direction. Anisotropic messages are one `ad.edge_messages` record: a
    gated MLP on each edge's [receiver, sender, weight] features, summed at
    the receivers.
    """
    prefix = f"spatial.k{level}"
    out = x @ p[f"{prefix}.self.weight"] + p[f"{prefix}.self.bias"]
    idx = level - 1
    if config.smp_variant == "isotropic":
        for direction, ops in (("fwd", rt.iso_fwd[idx]), ("rev", rt.iso_rev[idx] or [])):
            for hop, op in enumerate(ops, start=1):
                if op.nnz:
                    out = out + ad.sparse_matmul(op, x) @ p[f"{prefix}.hop{hop}.{direction}"]
        return out
    weights = [p[f"{prefix}.msg.{name}"] for name in ("w1", "w2", "w3")]
    return out + ad.edge_messages(x, rt.edge_src[idx], rt.edge_recv[idx], rt.edge_weight[idx], *weights)


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

    def encode_inputs(self, p: _TapeParams, xw, mw, uw) -> Tensor:
        """Affine encoding of [imputed x, u, mask, node embedding] at every step.

        The B*N rows are B windows of N nodes. Returns the W steps stacked
        time-major, (W*B*N, d_h). The step features take one product with
        the first rows of `encoder.weight`; the embeddings take one on N rows
        with the rest, which is added to every block of N rows.
        """
        cfg = self.config
        m_rows = xw.shape[1]
        if xw.shape != (cfg.window, m_rows, cfg.d_x) or mw.shape != xw.shape:
            raise DimensionError("window arrays must be (W, B*N, d_x)")
        if m_rows < 1 or m_rows % cfg.n_nodes:
            raise DimensionError(f"{m_rows} window rows are not a positive multiple of {cfg.n_nodes} nodes")
        ximp = last_value_imputation(xw, mw)
        feats = np.concatenate([ximp, uw, mw], axis=2).reshape(cfg.window * m_rows, -1)
        w, n_feats = p["encoder.weight"], feats.shape[1]
        steps = ad.constant(feats) @ ad.slice_rows(w, 0, n_feats)
        nodes = p["embeddings"] @ ad.slice_rows(w, n_feats, w.data.shape[0]) + p["encoder.bias"]
        return ad.add_blocks(steps, nodes)

    def temporal_stack(self, p: _TapeParams, seq: Tensor) -> Tensor:
        """L per-layer summaries stacked layer-major, (L*B*N, d_h).

        Each layer is one `ad.gru_scan` over the kept steps of the layer
        below; its summary is its last state.
        """
        cfg = self.config
        chain = temporal_chain(cfg.window, cfg.temporal_factor, cfg.temporal_layers)
        n_steps, steps = cfg.window, range(cfg.window)
        lasts = []
        for layer in range(cfg.temporal_layers):
            prefix = f"temporal.l{layer}"
            gates = [
                (p[f"{prefix}.{gate}.w_in"], p[f"{prefix}.{gate}.w_hid"], p[f"{prefix}.{gate}.bias"])
                for gate in ("reset", "update", "cand")
            ]
            seq = ad.gru_scan(seq, n_steps, steps, gates)
            rows = seq.data.shape[0] // len(steps)
            lasts.append(ad.slice_rows(seq, rows * (len(steps) - 1), rows * len(steps)))
            n_steps, steps = len(steps), chain[layer].kept_indices
        return ad.concat_rows(lasts)

    def spatial_stack(self, p: _TapeParams, z: Tensor, rt: ModelRuntime) -> Tensor:
        """All (spatial level, temporal layer) encodings, lifted back to level 0.

        Every level runs once over the L stacked summaries: weights are shared
        across layers and each operator acts on every block of N rows alone.
        Returns the S slots stacked slot-major, (S*B*N, d_h).
        """
        levels, r = [z], z
        for k in range(1, self.config.spatial_levels + 1):
            r = ad.sparse_matmul(rt.reduce_ops[k - 1], smp_messages(r, k, p, self.config, rt))
            lifted = r
            for j in range(k, 0, -1):
                lifted = ad.sparse_matmul(rt.lift_ops[j - 1], lifted)
                lifted = ad.sparse_matmul(rt.ascent_ops[j - 1], lifted, transpose=True)
            levels.append(lifted)
        return ad.concat_rows(levels) if len(levels) > 1 else z

    def attention_fuse(self, p: _TapeParams, slots: Tensor) -> tuple[np.ndarray, Tensor]:
        """Softmax-weighted mixtures of the multiscale encodings, per node.

        Returns (weights, fused representations): the weights are
        (n_sets, B*N, S), one set per horizon step in per-step mode and a
        single shared set otherwise, and the mixtures are stacked by set.
        """
        fused, alphas = ad.scale_attention(slots, self.config.n_scales, p["attention.weight"])
        return alphas, fused

    def readout(self, p: _TapeParams, fused: Tensor) -> Tensor:
        """Map fused representations, stacked by score set, to predictions (scaled space).

        Returns the H per-step predictions stacked horizon-major, (H*B*N, d_x).
        """
        cfg = self.config
        if not cfg.per_step_attention:
            return ad.blocks_to_rows(_mlp(fused, p, cfg), cfg.horizon)
        return _mlp(fused, p, cfg)

    def forward_batch(
        self,
        xw: np.ndarray,
        mw: np.ndarray,
        uw: np.ndarray,
        record_gradients: bool = True,
    ) -> BatchForward:
        """Run B windows stacked along the node axis as B blocks of N rows.

        Every graph operator is applied to each block on its own (see
        ModelRuntime), so each window's results equal a batch of one up to
        last-ulp rounding.

        With `record_gradients` off, parameters enter as constants and no tape
        is built; results are identical and the pass is cheaper (evaluation,
        finite differences).
        """
        tape = Tape() if record_gradients else None
        p = _TapeParams(tape, self.params)
        seq = self.encode_inputs(p, xw, mw, uw)
        slots = self.spatial_stack(p, self.temporal_stack(p, seq), self._runtime)
        alphas, fused = self.attention_fuse(p, slots)
        preds = self.readout(p, fused)
        return BatchForward(tape=tape, preds=preds, slots=slots, alphas=alphas)

    def forward_window(self, x: np.ndarray, m: np.ndarray, u: np.ndarray) -> ForwardTrace:
        """Single-window forward returning the interpretability trace."""
        cfg = self.config
        bf = self.forward_batch(x, m, u, record_gradients=False)
        return ForwardTrace(
            encodings=bf.slots.data.reshape(cfg.n_scales, cfg.n_nodes, cfg.d_h),
            alphas=bf.alphas,
            predictions=bf.preds.data.reshape(cfg.horizon, cfg.n_nodes, cfg.d_x),
        )
