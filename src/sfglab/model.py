"""Trainable noise-prediction MLPs with hand-rolled backprop.

Models predict either the added noise (dsm objective) or a flow velocity
(flow_matching objective). The noise-level coordinate (log sigma, or the flow
time t) enters through 4 Fourier features appended to the input; optional
class conditioning appends a learned embedding with a dedicated null row so
the same network serves the unconditional branch. The trained ScoreModel
and the exact OracleModel share one call contract, predict_eps: an (N, n)
float batch at one noise level sigma, a scalar with 0 < sigma < inf.

Flow convention: x_t = (1 - t) x0 + t eps with t = 0 at the data end and
t = 1 at pure noise, so eps = (1 - t) v + x and sigma(t) = t / (1 - t).

A model's parameters are one flat float32 vector in checkpoint order, the
precision a checkpoint stores them in; the weight, bias and embedding arrays
are views of it. Forward (training and inference), backprop and the
activation run in float32, and so do Adam's moments and update. The update
and the decoupled weight decay go to a float64 master copy of the
parameters, which is rounded into params after each step: at lr * wd = 1e-8
a float32 weight decay w - 1e-8 w would round back to w.

One forward pass serves training and inference. It computes the layers in
one float32 buffer store of the calling thread, which backprop reuses, and
inference returns float64. A training batch runs allocation-free: the cached
forward pass, backprop and the Adam step write into buffers and into views
of one flat gradient vector, and each keeps the operands and order of the
out-of-place expressions, so trained parameters and checkpoints are
unchanged bit for bit.
"""

from __future__ import annotations

import json
import math
import struct
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import oracle
from .datasets import GmmSpec, LabeledPointSet
from .rng import generator

CKPT_MAGIC = b"SFGM"
CKPT_VERSION = 1
# Elements per pass of the in-place Adam step: the parameter, gradient and
# moment slices of one pass and its three scratch chunks stay in cache.
ADAM_CHUNK = 16384


def eps_to_score(eps, sigma):
    """s = -eps / sigma."""
    if np.any(np.asarray(sigma) <= 0):
        raise ValueError("sigma must be > 0 to convert a noise estimate to a score")
    return -np.asarray(eps, dtype=float) / sigma


def score_to_eps(s, sigma):
    """eps = -sigma * s (inverse of eps_to_score)."""
    return -sigma * np.asarray(s, dtype=float)


def _check_flow_time(t):
    t = np.asarray(t, dtype=float)
    if np.any(t >= 1.0) or np.any(t < 0.0):
        raise ValueError("flow time must lie in [0, 1); t = 1 is a pole of the conversion")
    return t


def flow_to_eps(v, x, t):
    """eps = (1 - t) v + x."""
    t = _check_flow_time(t)
    return (1.0 - t) * np.asarray(v, dtype=float) + np.asarray(x, dtype=float)


def eps_to_flow(eps, x, t):
    """v = (eps - x) / (1 - t) (inverse of flow_to_eps)."""
    t = _check_flow_time(t)
    return (np.asarray(eps, dtype=float) - np.asarray(x, dtype=float)) / (1.0 - t)


def class_ids_per_row(class_ids, n_rows: int) -> np.ndarray:
    """One class id per row: a scalar is repeated, anything else must have
    shape (n_rows,)."""
    ids = np.asarray(class_ids, dtype=int)
    if ids.ndim == 0:
        ids = np.full(n_rows, int(ids), dtype=int)
    if ids.shape != (n_rows,):
        raise ValueError("class_ids must be a scalar or one id per row")
    return ids


def _sigmoid(z, out=None):
    """Logistic sigmoid in the branch-free form 0.5 * (1 + tanh(z / 2)),
    written in place into out, or into one new array, in the precision of z
    (float32 in the model). It lies in [0, 1] for every z but NaN and cannot
    overflow. Its error against 1 / (1 + exp(-z)) is absolute, at most about
    7e-8 in float32 (about 2.2e-16 in float64); for z <= -38 in float64,
    where the exact value is below 3.2e-17, it returns 0."""
    s = np.multiply(z, 0.5, out=out)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


@dataclass
class TrainConfig:
    """Training hyperparameters. The defaults, seed aside, are also the CLI's
    (config.DEFAULTS["train"]): 3000 batches of 200, 100 warmup batches, lr
    1e-3 cosine-annealed, decoupled weight decay 1e-5."""

    batches: int = 3000
    batch_size: int = 200
    warmup_batches: int = 100
    lr: float = 1e-3
    cosine_anneal: bool = True
    weight_decay: float = 1e-5
    seed: int = 0
    objective: str = "dsm"  # "dsm" | "flow_matching"
    sigma_min: float = 0.02
    sigma_max: float = 10.0
    label_dropout: float = 0.1

    def __post_init__(self):
        for name in ("batches", "batch_size", "warmup_batches"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 < self.lr < math.inf:  # NaN fails too
            raise ValueError("lr must be finite and > 0")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and >= 0")
        if not 0 <= self.warmup_batches <= self.batches:
            raise ValueError("need 0 <= warmup_batches <= batches")
        if self.batches < 1:
            raise ValueError("batches must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.objective not in ("dsm", "flow_matching"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if not (0 < self.sigma_min < self.sigma_max < math.inf):
            raise ValueError("need 0 < sigma_min < sigma_max < inf")
        if not (0.0 <= self.label_dropout < 1.0):
            raise ValueError("label_dropout must lie in [0, 1)")


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite or explodes, or the
    parameters leave the float32 range of a checkpoint; what says which."""

    def __init__(self, batch: int, loss: float, last_good: "ScoreModel | None", what: str = ""):
        self.what = what or f"loss {loss}"
        super().__init__(f"training diverged at batch {batch}: {self.what}")
        self.batch = batch
        self.loss = loss
        self.last_good = last_good


def _storable(params) -> bool:
    """Every parameter finite and within float32 range, as a checkpoint
    stores it; a NaN fails the comparison too."""
    return bool(np.abs(params).max() <= np.finfo(np.float32).max)


class _Predictor:
    """predict_eps over the native forward(x, level, class_ids) of an "eps"
    model (level sigma, noise out) or a "flow" model (level t, velocity out),
    converting the latter with flow_to_eps."""

    def predict_eps(self, x, sigma, class_ids=None) -> np.ndarray:
        """Noise estimate (N, n) at the diffusion-scale batch x (N, n) and one
        noise level sigma, a scalar with 0 < sigma < inf."""
        if np.ndim(sigma) or not 0 < sigma < np.inf:
            raise ValueError(f"sigma must be > 0, finite and one value per call, got {sigma!r}")
        if self.param == "eps":
            return self.forward(x, sigma, class_ids)
        t = sigma / (1.0 + sigma)
        xf = (1.0 - t) * np.asarray(x, dtype=float)
        return flow_to_eps(self.forward(xf, t, class_ids), xf, t)


class ScoreModel(_Predictor):
    """MLP predicting noise ("eps") or flow velocity ("flow").

    Input layout: [x, sin(c), cos(c), sin(c/2), cos(c/2), class embedding?]
    where c = log(sigma) for eps models and c = t for flow models (built by
    _features).
    """

    def __init__(self, data_dim: int, hidden, *, n_classes: int | None = None,
                 param: str = "eps", emb_dim: int = 8, seed: int = 0):
        self._allocate(data_dim, hidden, n_classes, param, emb_dim, seed)
        # drawn and scaled in float64, then rounded into the float32 blocks
        rng = generator(seed, 0xC0DE)
        for w, b in zip(self.weights, self.biases):
            w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[1])
            b.fill(0.0)
        if self.class_emb is not None:
            self.class_emb[...] = rng.standard_normal(self.class_emb.shape) * 0.1

    @classmethod
    def _empty(cls, data_dim, hidden, n_classes, param, emb_dim, seed) -> "ScoreModel":
        """A model whose parameter vector is allocated but not written, for
        callers that fill all of it (copy, load_checkpoint)."""
        model = cls.__new__(cls)
        model._allocate(data_dim, hidden, n_classes, param, emb_dim, seed)
        return model

    def _allocate(self, data_dim, hidden, n_classes, param, emb_dim, seed):
        """Set the architecture and allocate the flat parameter vector params
        in checkpoint order: w0, b0, w1, b1, ..., class_emb. weights, biases
        and class_emb are views of it."""
        if param not in ("eps", "flow"):
            raise ValueError(f"unknown parameterization {param!r}")
        self.data_dim = int(data_dim)
        self.hidden = [int(h) for h in hidden]
        self.n_classes = None if n_classes is None else int(n_classes)
        self.emb_dim = int(emb_dim)
        self.param = param
        self.seed = int(seed)
        in_dim = self.data_dim + 4 + (self.emb_dim if self.n_classes else 0)
        widths = [in_dim] + self.hidden + [self.data_dim]
        self._layout = []  # (name, shape) per block
        for i in range(len(widths) - 1):
            self._layout += [(f"w{i}", (widths[i + 1], widths[i])), (f"b{i}", (widths[i + 1],))]
        if self.n_classes:
            self._layout.append(("class_emb", (self.n_classes + 1, self.emb_dim)))
        self.params = np.empty(sum(math.prod(shape) for _, shape in self._layout), dtype=np.float32)
        blocks = self._blocks(self.params)
        n_layers = len(widths) - 1
        self.weights = blocks[0:2 * n_layers:2]
        self.biases = blocks[1:2 * n_layers:2]
        self.class_emb = blocks[-1] if self.n_classes else None
        self.loss_history: list[tuple[int, float, float]] = []
        self.train_config: TrainConfig | None = None
        self._local = threading.local()  # per-thread buffers (see _buffers)

    def _blocks(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of a flat vector laid out like params, one per parameter
        block in checkpoint order."""
        views, pos = [], 0
        for _, shape in self._layout:
            size = math.prod(shape)
            views.append(flat[pos:pos + size].reshape(shape))
            pos += size
        return views

    @property
    def conditional(self) -> bool:
        return self.class_emb is not None

    def parameter_blocks(self) -> list[np.ndarray]:
        """Live parameter arrays in declaration (= checkpoint) order: views
        of params."""
        return self._blocks(self.params)

    def _map_class_ids(self, n_rows: int, class_ids) -> np.ndarray | None:
        if not self.conditional:
            if class_ids is not None and np.any(np.asarray(class_ids) >= 0):
                raise ValueError("model is unconditional; class ids are not accepted")
            return None
        null = self.n_classes
        if class_ids is None:
            return np.full(n_rows, null, dtype=int)
        ids = class_ids_per_row(class_ids, n_rows)
        if n_rows and ids.max() >= self.n_classes:
            raise ValueError(f"unknown class id in {np.unique(ids)}; model has {self.n_classes} classes")
        return np.where(ids < 0, null, ids)

    def _features(self, x: np.ndarray, level, ids: np.ndarray | None, out: np.ndarray):
        """Input features of a batch x (N, n) with mapped class ids, written
        into out, an (N, in_dim) float32 array; each value but the embedding
        is computed in float64 and then stored. level is one value or one per
        row; a single level stays a scalar, so log, sin and cos run once per
        call, not once per row."""
        d = x.shape[1]
        out[:, :d] = x
        c = np.log(level) if self.param == "eps" else level
        for j, f in enumerate((np.sin(c), np.cos(c), np.sin(0.5 * c), np.cos(0.5 * c))):
            out[:, d + j] = f
        if ids is not None:
            np.take(self.class_emb, ids, axis=0, out=out[:, d + 4:])
        return out

    def _buffers(self, rows: int) -> dict:
        """This thread's float32 buffers for a batch of rows, kept while the
        batch size repeats and shared by inference and training: the (rows,
        in_dim) input features feats that forward and train fill, per hidden
        layer its pre-activation pre, sigmoid sig and output act (the cache
        backprop reads; inference writes its SiLU into pre), the (rows,
        data_dim) output out, and for backprop per hidden layer the SiLU
        derivative dsilu and the delta (views of three arrays; the deltas
        alternate between two, so a layer's input is never its output) and a
        conditional model's gradient demb of its class-embedding input
        columns; _backward adds the block views of the gradient vector it
        last filled. train() drops them, so a trained model carries none."""
        bufs = getattr(self._local, "bufs", None)
        if bufs is None or bufs["rows"] != rows:
            def new(*shape):
                return np.empty(shape, dtype=np.float32)

            flat = [new(rows * max(self.hidden, default=0)) for _ in range(3)]
            bufs = self._local.bufs = {
                "rows": rows,
                "feats": new(rows, self.weights[0].shape[1]),
                "pre": [new(rows, h) for h in self.hidden],
                "sig": [new(rows, h) for h in self.hidden],
                "act": [new(rows, h) for h in self.hidden],
                "out": new(rows, self.data_dim),
                "dsilu": [flat[2][:rows * h].reshape(rows, h) for h in self.hidden],
                "delta": [flat[i % 2][:rows * h].reshape(rows, h) for i, h in enumerate(self.hidden)],
                "demb": new(rows, self.emb_dim) if self.conditional else None,
            }
        return bufs

    def _forward(self, feats: np.ndarray, want_cache: bool = False):
        """Network output for a feature batch, computed in float32 on params
        in this thread's buffers (see _buffers); feats are copied into the
        feature buffer unless they are that buffer. With want_cache, the
        training forward: returns the float32 output and the cache (pre, sig,
        acts), each hidden layer's pre-activation z and its sigmoid s (the
        SiLU is z * s), and the input of every layer. Without it, the
        inference forward writes each SiLU into z and returns the output as a
        new float64 array. Either way the next call on this thread overwrites
        the buffers, and a call allocates no (rows, width) temporaries that
        the C allocator would return to the system and fault in again."""
        bufs = self._buffers(feats.shape[0])
        if feats is not bufs["feats"]:
            np.copyto(bufs["feats"], feats)
        pre, sig, act = bufs["pre"], bufs["sig"], bufs["act"]
        a = bufs["feats"]
        for w, b, z, s, y in zip(self.weights[:-1], self.biases[:-1], pre, sig, act):
            np.matmul(a, w.T, out=z)
            z += b
            _sigmoid(z, out=s)
            a = np.multiply(z, s, out=y if want_cache else z)
        out = np.matmul(a, self.weights[-1].T, out=bufs["out"])
        out += self.biases[-1]
        if want_cache:
            return out, (pre, sig, [bufs["feats"], *act])
        return out.astype(np.float64)

    def forward(self, x, level, class_ids=None) -> np.ndarray:
        """Raw network output (N, n) for a batch x (N, n) at one level, a
        scalar in the model's native noise-level coordinate (per-row levels
        are training's, which builds its features with _features).

        The features are written into this thread's float32 (rows, in_dim)
        feature buffer (see _buffers), which the next forward or training
        batch on this thread reuses."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.data_dim:
            raise ValueError(f"x must have shape (N, {self.data_dim}), got {x.shape}")
        if np.ndim(level):
            raise ValueError(f"forward takes one level per call, got shape {np.shape(level)}")
        ids = self._map_class_ids(len(x), class_ids)
        return self._forward(self._features(x, level, ids, out=self._buffers(len(x))["feats"]))

    def _backward(self, cache, ids, dout, out: np.ndarray | None = None) -> np.ndarray:
        """Gradient of a loss whose output gradient is dout, for the cache of
        _forward(feats, want_cache=True) and the mapped class ids, in float32:
        written into out, a flat vector laid out like params, or into a new
        one. The SiLU derivatives and deltas go into this thread's buffers
        (see _buffers)."""
        pre, sig, acts = cache
        grad = np.empty_like(self.params) if out is None else out
        bufs = self._buffers(dout.shape[0])
        if bufs.get("grad") is not grad:  # block views of the vector the last call filled
            bufs["grad"], bufs["grad_blocks"] = grad, self._blocks(grad)
        blocks = bufs["grad_blocks"]
        delta = dout
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(delta.T, acts[i], out=blocks[2 * i])
            np.add.reduce(delta, axis=0, out=blocks[2 * i + 1])  # delta.sum(axis=0)
            if i > 0:
                # SiLU derivative s * (1 + z * (1 - s)) from the cached sigmoid
                dsilu = np.subtract(1.0, sig[i - 1], out=bufs["dsilu"][i - 1])
                dsilu *= pre[i - 1]
                dsilu += 1.0
                dsilu *= sig[i - 1]
                delta = np.matmul(delta, self.weights[i], out=bufs["delta"][i - 1])
                delta *= dsilu
        if self.class_emb is not None:
            # only the embedding columns of the input gradient: the features
            # are data, so no other column has a parameter to update
            demb = np.matmul(delta, self.weights[0][:, -self.emb_dim:], out=bufs["demb"])
            grad_emb = blocks[-1]
            grad_emb.fill(0.0)
            np.add.at(grad_emb, ids, demb)
        return grad

    def copy(self) -> "ScoreModel":
        """A model with this architecture, parameters and train_config that
        shares no memory with this one."""
        dup = ScoreModel._empty(self.data_dim, self.hidden, self.n_classes, self.param,
                                self.emb_dim, self.seed)
        dup.params[...] = self.params
        dup.train_config = self.train_config
        return dup


def _lr_at(cfg: TrainConfig, batch: int) -> float:
    if batch < cfg.warmup_batches:
        return cfg.lr * (batch + 1) / cfg.warmup_batches
    if not cfg.cosine_anneal:
        return cfg.lr
    span = max(cfg.batches - cfg.warmup_batches, 1)
    frac = (batch - cfg.warmup_batches) / span
    return cfg.lr * 0.5 * (1.0 + np.cos(np.pi * frac))


class _AdamW:
    """Adam (arXiv:1412.6980) with decoupled weight decay (arXiv:1711.05101)
    on a float64 master copy p of a model's flat float32 parameter vector,
    in place (mixed precision after arXiv:1710.03740). The moments m and v
    and the update are float32; only the master and the decay are float64.
    With step = lr / (1 - beta1^t) and rs = 1 / sqrt(1 - beta2^t), computed
    in float64 once per step and then rounded to float32, one pass per
    ADAM_CHUNK elements computes from the float32 gradient g, element by
    element,

        m = beta1 m + (1 - beta1) g
        v = beta2 v + ((1 - beta2) g) g
        a = step m / (sqrt(v) rs + eps)    (float32)
        p -= a
        p -= (lr wd) p    (float64; weights and class embedding only)

    with the operands and order of these expressions, so a step gives the
    same bits as the same expressions evaluated block by block; then it
    rounds p into the model's params. The moments need no more precision
    than float32, but the master does: at lr wd = 1e-8 a float32 decay
    w - 1e-8 w would round back to w. Squaring (1 - beta2) g rather than g
    keeps v finite up to |g| of about 5.8e20 (g g overflows float32 at
    about 1.8e19). Every scalar is an np.float32, so the float32 loops run
    under numpy's legacy and NEP 50 promotion alike."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, model: ScoreModel, weight_decay: float):
        self.params = model.params
        self.master = model.params.astype(np.float64)
        self.m = np.zeros_like(model.params)
        self.v = np.zeros_like(model.params)
        n = self.master.size
        chunk = min(n, ADAM_CHUNK)
        # two float32 scratch chunks for the update, one float64 chunk for
        # the widened update and the decay
        self.scratch = (np.empty(chunk, dtype=np.float32), np.empty(chunk, dtype=np.float32),
                        np.empty(chunk))
        self.weight_decay = weight_decay
        decayed, pos = [], 0
        for name, shape in model._layout:
            size = math.prod(shape)
            if weight_decay > 0 and not name.startswith("b"):  # weights and class_emb
                decayed.append((pos, pos + size))
            pos += size
        # per chunk: (lo, hi, decayed spans relative to lo)
        self.chunks = []
        for lo in range(0, n, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, n)
            spans = [(max(a, lo) - lo, min(b, hi) - lo) for a, b in decayed if a < hi and b > lo]
            self.chunks.append((lo, hi, spans))

    def step(self, grad: np.ndarray, lr: float, t: int) -> None:
        """Update the parameters in place with the float32 gradient grad at
        learning rate lr; t is the 1-based step count."""
        f32 = np.float32
        beta1, beta2, eps = f32(self.beta1), f32(self.beta2), f32(self.eps)
        c1, c2 = f32(1.0 - self.beta1), f32(1.0 - self.beta2)
        step = f32(lr / (1.0 - self.beta1**t))
        rs = f32(1.0 / math.sqrt(1.0 - self.beta2**t))
        decay = lr * self.weight_decay
        for lo, hi, spans in self.chunks:
            p, m, v, g = self.master[lo:hi], self.m[lo:hi], self.v[lo:hi], grad[lo:hi]
            a, c, d = (s[:hi - lo] for s in self.scratch)
            m *= beta1
            m += np.multiply(c1, g, out=a)
            v *= beta2
            np.multiply(c2, g, out=a)
            a *= g
            v += a
            np.sqrt(v, out=c)
            c *= rs
            c += eps
            np.multiply(step, m, out=a)
            a /= c
            # widened exactly first: a mixed-dtype p -= a would allocate a
            # cast buffer on every call
            np.copyto(d, a)
            p -= d
            for s0, s1 in spans:
                w = p[s0:s1]
                w -= np.multiply(decay, w, out=d[s0:s1])
            np.copyto(self.params[lo:hi], p)


def train(dataset: LabeledPointSet, hidden, cfg: TrainConfig, *, conditional: bool = False,
          snapshot_every: int = 200) -> ScoreModel:
    """Minimize E||eps - eps_theta(x + sigma eps)||^2 (dsm) or the matching
    flow objective with adaptive-moment updates and decoupled weight decay.

    Deterministic given cfg.seed. Raises TrainingDiverged (carrying the last
    snapshot) if the loss goes non-finite or above 1e6, or the final
    float64 master parameters do not fit a float32 checkpoint. A batch
    allocates no matrix: inputs, targets, loss terms, activations, deltas,
    the gradient and the Adam scratch live in buffers made once per run;
    only per-row vectors (levels, class ids) are new each batch. Points,
    noise and targets are float64; the residual, the loss terms and
    everything after them are float32, Adam's moments and update too; only
    the master parameters and their weight decay are float64 (see _AdamW).
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    points = dataset.points
    n_classes = int(dataset.labels.max()) + 1 if conditional else None
    param = "eps" if cfg.objective == "dsm" else "flow"
    model = ScoreModel(points.shape[1], hidden, n_classes=n_classes, param=param, seed=cfg.seed)
    model.train_config = cfg

    adam = _AdamW(model, cfg.weight_decay)
    grad = np.empty_like(model.params)
    rows = cfg.batch_size
    x0, noise, xin, flow_target = (np.empty((rows, points.shape[1])) for _ in range(4))
    sq = np.empty((rows, points.shape[1]), dtype=np.float32)

    rng = generator(cfg.seed, 0xBA7C)
    log_smin, log_smax = np.log(cfg.sigma_min), np.log(cfg.sigma_max)
    history = []
    last_good = None

    # a diverging run overflows before its loss turns non-finite; the loss
    # guard below owns that case, so numpy stays silent
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(cfg.batches):
            lr = _lr_at(cfg, b)
            idx = rng.integers(0, len(points), size=rows)
            np.take(points, idx, axis=0, out=x0)
            rng.standard_normal(out=noise)
            if cfg.objective == "dsm":
                level = np.exp(rng.uniform(log_smin, log_smax, size=rows))
                np.multiply(level[:, None], noise, out=xin)
                xin += x0
                target = noise
            else:
                level = rng.random(rows)
                np.multiply((1.0 - level)[:, None], x0, out=xin)
                xin += np.multiply(level[:, None], noise, out=flow_target)
                target = np.subtract(noise, x0, out=flow_target)
            if conditional:
                ids = dataset.labels[idx].copy()
                if cfg.label_dropout > 0:
                    ids[rng.random(rows) < cfg.label_dropout] = -1
            else:
                ids = None
            mapped = model._map_class_ids(rows, ids)
            feats = model._features(xin, level, mapped, out=model._buffers(rows)["feats"])
            out, cache = model._forward(feats, want_cache=True)
            residual = np.subtract(out, target, out=out)
            loss = float(np.multiply(residual, residual, out=sq).sum()) / rows
            if not np.isfinite(loss) or loss > 1e6:
                raise TrainingDiverged(b, loss, last_good)
            dout = np.multiply(2.0, residual, out=sq)
            dout /= rows
            model._backward(cache, mapped, dout, out=grad)
            adam.step(grad, lr, b + 1)
            history.append((b, lr, loss))
            if snapshot_every and (b + 1) % snapshot_every == 0 and _storable(adam.master):
                last_good = model.copy()
    if not _storable(adam.master):
        raise TrainingDiverged(cfg.batches - 1, loss, last_good, "parameters beyond float32 range")
    model.loss_history = history
    model._local = threading.local()  # drop the buffers
    return model


def esm_loss(m, g: oracle.SmoothedGmm, points, sigma: float) -> float:
    """Mean sigma^2 ||oracle score - model score||^2 over the points (N, n)."""
    pts = np.asarray(points, dtype=float)
    s_true = oracle.score(g, pts)
    s_model = eps_to_score(m.predict_eps(pts, sigma), sigma)
    diff = s_true - s_model
    return float(sigma * sigma * np.mean((diff * diff).sum(axis=1)))


class OracleModel(_Predictor):
    """Exact-score stand-in implementing the predict interfaces.

    Useful as a perfectly trained reference: its noise estimate is
    -sigma * score of the smoothed mixture (per-class sub-mixture when a
    class id is given).
    """

    def __init__(self, spec: GmmSpec):
        self.spec = spec
        self.data_dim = spec.dim
        self.param = "eps"
        self._smoothed: dict[tuple[int, float], oracle.SmoothedGmm] = {}

    def smoothed(self, class_id: int, sigma: float) -> oracle.SmoothedGmm:
        """The mixture (class_id -1) or its class_id sub-mixture, smoothed
        to sigma; built once per (class_id, sigma)."""
        key = (class_id, float(sigma))
        if key not in self._smoothed:
            spec = self.spec
            if class_id >= 0:
                mask = spec.labels == class_id
                if not mask.any():
                    raise ValueError(f"unknown class id {class_id}")
                w = spec.weights[mask]
                spec = GmmSpec(w / w.sum(), spec.means[mask], spec.covariances[mask], spec.labels[mask])
            self._smoothed[key] = oracle.smooth(spec, key[1])
        return self._smoothed[key]

    def forward(self, x, level, class_ids=None) -> np.ndarray:
        """The exact noise estimate (N, n) at the batch x (N, n) and noise
        level sigma = level, one value per call."""
        x, sig = np.asarray(x, dtype=float), float(level)
        if class_ids is None:
            score = oracle.score(self.smoothed(-1, sig), x)
        else:
            ids = class_ids_per_row(class_ids, len(x))
            score = np.empty_like(x)
            for cid in np.unique(ids):
                rows = ids == cid
                score[rows] = oracle.score(self.smoothed(max(int(cid), -1), sig), x[rows])
        return -sig * score


def save_checkpoint(model: ScoreModel, path) -> None:
    """Binary checkpoint: magic, version, JSON header, then the parameter
    vector as float32 LE, block by block in checkpoint order."""
    header = {
        "data_dim": model.data_dim,
        "hidden": model.hidden,
        "n_classes": model.n_classes,
        "emb_dim": model.emb_dim,
        "param": model.param,
        "activation": "silu",
        "seed": model.seed,
        "train_config": asdict(model.train_config) if model.train_config else None,
        "blocks": [{"name": name, "shape": list(shape)} for name, shape in model._layout],
    }
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<I", len(hb)))
        fh.write(hb)
        fh.write(model.params.astype("<f4"))


def load_checkpoint(path) -> tuple[ScoreModel, dict]:
    """Inverse of save_checkpoint. Anything but a complete checkpoint (bad
    magic or version, unreadable header, short or surplus block bytes) raises
    ValueError naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if data[:4] != CKPT_MAGIC:
            raise ValueError(f"bad magic {data[:4]!r}")
        version, hlen = struct.unpack_from("<II", data, 4)
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        pos = 12 + hlen
        header = json.loads(data[12:pos].decode("utf-8"))
        model = ScoreModel._empty(header["data_dim"], header["hidden"], header["n_classes"],
                                  header["param"], header["emb_dim"], header["seed"])
        if len(header["blocks"]) != len(model._layout):
            raise ValueError(f"{len(header['blocks'])} parameter blocks, expected {len(model._layout)}")
        end = pos
        for (_, shape), meta in zip(model._layout, header["blocks"]):
            if tuple(meta["shape"]) != shape:
                raise ValueError(f"block {meta['name']} shape {meta['shape']} != {list(shape)}")
            end += 4 * math.prod(shape)
            if end > len(data):
                raise ValueError(f"block {meta['name']} truncated")
        if end != len(data):
            raise ValueError(f"{len(data) - end} trailing bytes after the last block")
        model.params[...] = np.frombuffer(data, dtype="<f4", count=model.params.size, offset=pos)
        if header.get("train_config"):
            model.train_config = TrainConfig(**header["train_config"])
    except (ValueError, KeyError, TypeError, struct.error) as exc:
        raise ValueError(f"{path}: not a valid checkpoint: {exc}") from exc
    return model, header
