"""Trainable noise-prediction MLPs with hand-rolled backprop.

Models predict either the added noise (dsm objective) or a flow velocity
(flow_matching objective). The noise-level coordinate (log sigma, or the flow
time t) enters through 4 Fourier features appended to the input; optional
class conditioning appends a learned embedding with a dedicated null row so
the same network serves the unconditional branch.

Flow convention: x_t = (1 - t) x0 + t eps with t = 0 at the data end and
t = 1 at pure noise, so eps = (1 - t) v + x and sigma(t) = t / (1 - t).
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import oracle
from .datasets import GmmSpec, LabeledPointSet
from .rng import generator

CKPT_MAGIC = b"SFGM"
CKPT_VERSION = 1


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


def _sigmoid(z):
    """Logistic sigmoid in the branch-free form 0.5 * (1 + tanh(z / 2)),
    written in place into one new array. It lies in [0, 1] for every z but
    NaN and cannot overflow. Its error against 1 / (1 + exp(-z)) is absolute,
    at most about 2.2e-16; for z <= -38, where the exact value is below
    3.2e-17, it returns 0."""
    s = np.multiply(z, 0.5)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


@dataclass
class TrainConfig:
    """Training hyperparameters (defaults follow the desk-scale recipe:
    30000 batches of 200, 500 warmup batches, lr 1e-3 cosine-annealed,
    decoupled weight decay 1e-5)."""

    batches: int = 30000
    batch_size: int = 200
    warmup_batches: int = 500
    lr: float = 1e-3
    cosine_anneal: bool = True
    weight_decay: float = 1e-5
    seed: int = 0
    objective: str = "dsm"  # "dsm" | "flow_matching"
    sigma_min: float = 0.02
    sigma_max: float = 10.0
    label_dropout: float = 0.1

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.batches < self.warmup_batches:
            raise ValueError("batches must be >= warmup_batches")
        if self.batches < 1:
            raise ValueError("batches must be >= 1")
        if self.objective not in ("dsm", "flow_matching"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if not (0 < self.sigma_min < self.sigma_max):
            raise ValueError("need 0 < sigma_min < sigma_max")
        if not (0.0 <= self.label_dropout < 1.0):
            raise ValueError("label_dropout must lie in [0, 1)")


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite or explodes."""

    def __init__(self, batch: int, loss: float, last_good: "ScoreModel | None"):
        super().__init__(f"training diverged at batch {batch}: loss = {loss}")
        self.batch = batch
        self.loss = loss
        self.last_good = last_good


class ScoreModel:
    """MLP predicting noise ("eps") or flow velocity ("flow").

    Input layout: [x, sin(c), cos(c), sin(c/2), cos(c/2), class embedding?]
    where c = log(sigma) for eps models and c = t for flow models.
    """

    def __init__(self, data_dim: int, hidden, *, n_classes: int | None = None,
                 param: str = "eps", emb_dim: int = 8, seed: int = 0):
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
        rng = generator(seed, 0xC0DE)
        self.weights = [
            rng.standard_normal((widths[i + 1], widths[i])) * np.sqrt(2.0 / widths[i])
            for i in range(len(widths) - 1)
        ]
        self.biases = [np.zeros(widths[i + 1]) for i in range(len(widths) - 1)]
        if self.n_classes:
            self.class_emb = rng.standard_normal((self.n_classes + 1, self.emb_dim)) * 0.1
        else:
            self.class_emb = None
        self.loss_history: list[tuple[int, float, float]] = []
        self.train_config: TrainConfig | None = None

    @property
    def conditional(self) -> bool:
        return self.class_emb is not None

    def parameter_blocks(self) -> list[np.ndarray]:
        """Live parameter arrays in declaration (= checkpoint) order."""
        blocks = []
        for w, b in zip(self.weights, self.biases):
            blocks.extend([w, b])
        if self.class_emb is not None:
            blocks.append(self.class_emb)
        return blocks

    def _map_class_ids(self, n_rows: int, class_ids) -> np.ndarray | None:
        if not self.conditional:
            if class_ids is not None and np.any(np.asarray(class_ids) >= 0):
                raise ValueError("model is unconditional; class ids are not accepted")
            return None
        null = self.n_classes
        if class_ids is None:
            return np.full(n_rows, null, dtype=int)
        ids = class_ids_per_row(class_ids, n_rows)
        if np.any(ids >= self.n_classes):
            raise ValueError(f"unknown class id in {np.unique(ids)}; model has {self.n_classes} classes")
        return np.where(ids < 0, null, ids)

    def _features(self, x: np.ndarray, level: np.ndarray, ids: np.ndarray | None) -> np.ndarray:
        c = np.log(level) if self.param == "eps" else level
        four = np.stack([np.sin(c), np.cos(c), np.sin(0.5 * c), np.cos(0.5 * c)], axis=1)
        parts = [x, four]
        if ids is not None:
            parts.append(self.class_emb[ids])
        return np.concatenate(parts, axis=1)

    def _forward(self, feats: np.ndarray, want_cache: bool = False):
        """Network output for a feature batch. With want_cache, also return
        (pre, sig, acts): each hidden layer's pre-activation z and its
        sigmoid s (the SiLU is z * s), and the input of every layer."""
        a = feats
        pre, sig, acts = [], [], [feats]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = a @ w.T
            z += b
            s = _sigmoid(z)
            a = z * s
            if want_cache:
                pre.append(z)
                sig.append(s)
                acts.append(a)
        out = a @ self.weights[-1].T
        out += self.biases[-1]
        if want_cache:
            return out, (pre, sig, acts)
        return out

    def forward(self, x, level, class_ids=None) -> np.ndarray:
        """Raw network output at the model's native noise-level coordinate;
        x is a point (n,) or a batch (N, n), the output has its shape."""
        x = np.asarray(x, dtype=float)
        xb = np.atleast_2d(x)
        lv = np.broadcast_to(np.asarray(level, dtype=float), (xb.shape[0],))
        ids = self._map_class_ids(xb.shape[0], class_ids)
        return self._forward(self._features(xb, lv, ids)).reshape(x.shape)

    def _backward(self, cache, ids, dout):
        pre, sig, acts = cache
        n_layers = len(self.weights)
        grads_w = [None] * n_layers
        grads_b = [None] * n_layers
        delta = dout
        for i in range(n_layers - 1, -1, -1):
            grads_w[i] = delta.T @ acts[i]
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                # SiLU derivative s * (1 + z * (1 - s)) from the cached sigmoid
                dsilu = 1.0 - sig[i - 1]
                dsilu *= pre[i - 1]
                dsilu += 1.0
                dsilu *= sig[i - 1]
                delta = delta @ self.weights[i]
                delta *= dsilu
        grad_emb = None
        if self.class_emb is not None:
            dfeat = delta @ self.weights[0]
            grad_emb = np.zeros_like(self.class_emb)
            np.add.at(grad_emb, ids, dfeat[:, -self.emb_dim:])
        return grads_w, grads_b, grad_emb

    def predict_eps(self, x, sigma, class_ids=None) -> np.ndarray:
        """Noise estimate at the diffusion-scale point x and noise level sigma."""
        if np.any(np.asarray(sigma) <= 0):
            raise ValueError("sigma must be > 0")
        if self.param == "eps":
            return self.forward(x, sigma, class_ids)
        sigma = np.asarray(sigma, dtype=float)
        t = sigma / (1.0 + sigma)
        x = np.asarray(x, dtype=float)
        tb = t[..., None]
        xf = (1.0 - tb) * x
        v = self.forward(xf, t, class_ids)
        return (1.0 - tb) * v + xf

    def predict_velocity(self, x, t, class_ids=None) -> np.ndarray:
        """Flow velocity estimate at the flow-scale point x and time t in [0, 1)."""
        t = _check_flow_time(t)
        if self.param == "flow":
            return self.forward(x, t, class_ids)
        x = np.asarray(x, dtype=float)
        tb = t[..., None]
        sigma = t / (1.0 - t)
        x_diff = x / (1.0 - tb)
        eps = self.forward(x_diff, sigma, class_ids)
        return (eps - x) / (1.0 - tb)

    def copy(self) -> "ScoreModel":
        dup = ScoreModel(self.data_dim, self.hidden, n_classes=self.n_classes,
                         param=self.param, emb_dim=self.emb_dim, seed=self.seed)
        dup.weights = [w.copy() for w in self.weights]
        dup.biases = [b.copy() for b in self.biases]
        if self.class_emb is not None:
            dup.class_emb = self.class_emb.copy()
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


def train(dataset: LabeledPointSet, hidden, cfg: TrainConfig, *, conditional: bool = False,
          snapshot_every: int = 200) -> ScoreModel:
    """Minimize E||eps - eps_theta(x + sigma eps)||^2 (dsm) or the matching
    flow objective with adaptive-moment updates and decoupled weight decay.

    Deterministic given cfg.seed. Raises TrainingDiverged (carrying the last
    snapshot) if the loss goes non-finite or above 1e6.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    points = dataset.points
    n_classes = int(dataset.labels.max()) + 1 if conditional else None
    param = "eps" if cfg.objective == "dsm" else "flow"
    model = ScoreModel(points.shape[1], hidden, n_classes=n_classes, param=param, seed=cfg.seed)
    model.train_config = cfg

    blocks = model.parameter_blocks()
    m_state = [np.zeros_like(p) for p in blocks]
    v_state = [np.zeros_like(p) for p in blocks]
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8

    rng = generator(cfg.seed, 0xBA7C)
    log_smin, log_smax = np.log(cfg.sigma_min), np.log(cfg.sigma_max)
    history = []
    last_good = None

    for b in range(cfg.batches):
        lr = _lr_at(cfg, b)
        idx = rng.integers(0, len(points), size=cfg.batch_size)
        x0 = points[idx]
        noise = rng.standard_normal(x0.shape)
        if cfg.objective == "dsm":
            level = np.exp(rng.uniform(log_smin, log_smax, size=cfg.batch_size))
            xin = x0 + level[:, None] * noise
            target = noise
        else:
            level = rng.random(cfg.batch_size)
            xin = (1.0 - level)[:, None] * x0 + level[:, None] * noise
            target = noise - x0
        if conditional:
            ids = dataset.labels[idx].copy()
            if cfg.label_dropout > 0:
                ids[rng.random(cfg.batch_size) < cfg.label_dropout] = -1
        else:
            ids = None
        mapped = model._map_class_ids(cfg.batch_size, ids)
        feats = model._features(xin, level, mapped)
        out, cache = model._forward(feats, want_cache=True)
        residual = out - target
        with np.errstate(over="ignore"):  # divergence guard below owns this case
            loss = float((residual * residual).sum() / cfg.batch_size)
        if not np.isfinite(loss) or loss > 1e6:
            raise TrainingDiverged(b, loss, last_good)
        gw, gb, gemb = model._backward(cache, mapped, 2.0 * residual / cfg.batch_size)
        grads = []
        for i in range(len(gw)):
            grads.extend([gw[i], gb[i]])
        if gemb is not None:
            grads.append(gemb)
        t_step = b + 1
        bc1 = 1.0 - beta1**t_step
        bc2 = 1.0 - beta2**t_step
        for p, g, ms, vs in zip(blocks, grads, m_state, v_state):
            ms *= beta1
            ms += (1.0 - beta1) * g
            vs *= beta2
            vs += (1.0 - beta2) * g * g
            p -= lr * (ms / bc1) / (np.sqrt(vs / bc2) + adam_eps)
        if cfg.weight_decay > 0:
            for w in model.weights:
                w -= lr * cfg.weight_decay * w
            if model.class_emb is not None:
                model.class_emb -= lr * cfg.weight_decay * model.class_emb
        history.append((b, lr, loss))
        if snapshot_every and (b + 1) % snapshot_every == 0:
            last_good = model.copy()
    model.loss_history = history
    return model


def esm_loss(m, g: oracle.SmoothedGmm, points, sigma: float) -> float:
    """Mean sigma^2 ||oracle score - model score||^2 over the points."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    pts = np.asarray(points, dtype=float)
    s_true = oracle.score(g, pts)
    s_model = eps_to_score(m.predict_eps(pts, sigma), sigma)
    diff = s_true - s_model
    return float(sigma * sigma * np.mean((diff * diff).sum(axis=1)))


class OracleModel:
    """Exact-score stand-in implementing the predict interfaces.

    Useful as a perfectly trained reference: its noise estimate is
    -sigma * score of the smoothed mixture (per-class sub-mixture when a
    class id is given).
    """

    def __init__(self, spec: GmmSpec):
        self.spec = spec
        self.data_dim = spec.dim
        self.param = "eps"
        self._smoothed: dict[float, oracle.SmoothedGmm] = {}
        self._subs: dict[int, GmmSpec] = {}

    def _smooth(self, sigma: float) -> oracle.SmoothedGmm:
        key = float(sigma)
        if key not in self._smoothed:
            self._smoothed[key] = oracle.smooth(self.spec, key)
        return self._smoothed[key]

    def _sub_spec(self, class_id: int) -> GmmSpec:
        if class_id not in self._subs:
            mask = self.spec.labels == class_id
            if not mask.any():
                raise ValueError(f"unknown class id {class_id}")
            w = self.spec.weights[mask]
            covs = self.spec.covariances[mask]
            self._subs[class_id] = GmmSpec(w / w.sum(), self.spec.means[mask], covs,
                                           self.spec.labels[mask])
        return self._subs[class_id]

    def _score_at(self, x: np.ndarray, sigma: float, ids) -> np.ndarray:
        if ids is None:
            return oracle.score(self._smooth(sigma), x)
        ids = class_ids_per_row(ids, x.shape[0])
        out = np.empty_like(x)
        for cid in np.unique(ids):
            rows = ids == cid
            spec = self.spec if cid < 0 else self._sub_spec(int(cid))
            g = oracle.smooth(spec, sigma) if cid >= 0 else self._smooth(sigma)
            out[rows] = oracle.score(g, x[rows])
        return out

    def predict_eps(self, x, sigma, class_ids=None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.size(sigma) != 1:
            raise ValueError(f"the oracle takes one sigma per call, got {np.size(sigma)}")
        sig = float(np.asarray(sigma).item())
        return (-sig * self._score_at(np.atleast_2d(x), sig, class_ids)).reshape(x.shape)

    def predict_velocity(self, x, t, class_ids=None) -> np.ndarray:
        t = float(_check_flow_time(t))
        x = np.asarray(x, dtype=float)
        sigma = t / (1.0 - t)
        if sigma <= 0:
            raise ValueError("flow velocity of the oracle needs t > 0")
        eps = self.predict_eps(x / (1.0 - t), sigma, class_ids)
        return (eps - x) / (1.0 - t)


def save_checkpoint(model: ScoreModel, path, extra: dict | None = None) -> None:
    """Binary checkpoint: magic, version, JSON header, float32 LE blocks."""
    blocks = model.parameter_blocks()
    names = []
    for i in range(len(model.weights)):
        names.extend([f"w{i}", f"b{i}"])
    if model.class_emb is not None:
        names.append("class_emb")
    header = {
        "data_dim": model.data_dim,
        "hidden": model.hidden,
        "n_classes": model.n_classes,
        "emb_dim": model.emb_dim,
        "param": model.param,
        "activation": "silu",
        "seed": model.seed,
        "train_config": asdict(model.train_config) if model.train_config else None,
        "blocks": [{"name": n, "shape": list(b.shape)} for n, b in zip(names, blocks)],
    }
    if extra:
        header["extra"] = extra
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<I", len(hb)))
        fh.write(hb)
        for b in blocks:
            fh.write(np.ascontiguousarray(b, dtype="<f4").tobytes())


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
        model = ScoreModel(header["data_dim"], header["hidden"],
                           n_classes=header["n_classes"], param=header["param"],
                           emb_dim=header["emb_dim"], seed=header["seed"])
        blocks = model.parameter_blocks()
        if len(header["blocks"]) != len(blocks):
            raise ValueError(f"{len(header['blocks'])} parameter blocks, expected {len(blocks)}")
        for block, meta in zip(blocks, header["blocks"]):
            if tuple(meta["shape"]) != block.shape:
                raise ValueError(f"block {meta['name']} shape {meta['shape']} != {list(block.shape)}")
            if pos + 4 * block.size > len(data):
                raise ValueError(f"block {meta['name']} truncated")
            block[...] = np.frombuffer(data, dtype="<f4", count=block.size, offset=pos).reshape(block.shape)
            pos += 4 * block.size
        if pos != len(data):
            raise ValueError(f"{len(data) - pos} trailing bytes after the last block")
        if header.get("train_config"):
            model.train_config = TrainConfig(**header["train_config"])
    except (ValueError, KeyError, TypeError, struct.error) as exc:
        raise ValueError(f"{path}: not a valid checkpoint: {exc}") from exc
    return model, header
