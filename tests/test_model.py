import json
import struct
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from sfglab.datasets import GmmSpec, LabeledPointSet, make_two_gaussian
from sfglab.model import (ADAM_CHUNK, CKPT_MAGIC, CKPT_VERSION, OracleModel, ScoreModel,
                          TrainConfig, TrainingDiverged, _AdamW, _lr_at, _sigmoid, eps_to_flow,
                          eps_to_score, esm_loss, flow_to_eps, load_checkpoint,
                          save_checkpoint, score_to_eps, train)
from sfglab import oracle
from sfglab.rng import generator
from sfglab.oracle import smooth


def gaussian_dataset(n, dim, variance=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledPointSet(rng.standard_normal((n, dim)) * np.sqrt(variance),
                           np.zeros(n, dtype=int))


class TestConversions:
    def test_eps_score_round_trip(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(5)
        back = eps_to_score(score_to_eps(s, 0.37), 0.37)
        assert np.allclose(back, s, rtol=1e-15)

    def test_zero_eps_zero_score(self):
        assert np.all(eps_to_score(np.zeros(3), 2.0) == 0)

    def test_sigma_zero_rejected(self):
        with pytest.raises(ValueError):
            eps_to_score(np.ones(3), 0.0)

    def test_flow_round_trip(self):
        rng = np.random.default_rng(1)
        v, x = rng.standard_normal(4), rng.standard_normal(4)
        back = eps_to_flow(flow_to_eps(v, x, 0.5), x, 0.5)
        assert np.abs(back - v).max() < 1e-12 * max(1, np.abs(v).max())
        for t in (0.0, 0.25, 0.9, 1 - 1e-6):  # 1/(1-t) amplifies roundoff near 1
            back = eps_to_flow(flow_to_eps(v, x, t), x, t)
            assert np.abs(back - v).max() < 1e-9 * max(1, np.abs(v).max())

    def test_flow_at_t0_with_zero_x(self):
        v = np.array([1.0, -2.0])
        assert np.array_equal(flow_to_eps(v, np.zeros(2), 0.0), v)

    def test_t_one_rejected(self):
        with pytest.raises(ValueError):
            flow_to_eps(np.ones(2), np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            eps_to_flow(np.ones(2), np.zeros(2), 1.0)

    def test_identity_guidance_through_flow(self):
        rng = np.random.default_rng(2)
        v, x = rng.standard_normal(3), rng.standard_normal(3)
        eps = flow_to_eps(v, x, 0.4)
        assert np.allclose(eps_to_flow(eps, x, 0.4), v, rtol=1e-12)


def masked_sigmoid(z):
    """Reference: 1 / (1 + exp(-z)) on z >= 0 and exp(z) / (1 + exp(z)) below,
    so neither branch overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_matches_masked_reference(self):
        edges = [0.0, 1e-300, -1e-300, 1.0, -1.0, 36.0, -36.0, 745.0, -745.0, 1e300, -1e300]
        z = np.concatenate([edges, np.random.default_rng(11).standard_normal(4000) * 30])
        z = z.reshape(-1, 1)
        with np.errstate(all="raise"):
            s = _sigmoid(z)
        with np.errstate(under="ignore"):
            ref = masked_sigmoid(z)
        assert s.shape == z.shape
        assert np.abs(s - ref).max() <= 4.5e-16
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert s[0, 0] == 0.5


def reference_features(m, x, level, ids, class_emb=None):
    """The model's input layout built out of place from one level per row,
    with the embedding rows of class_emb (default: the model's)."""
    c = np.log(level) if m.param == "eps" else level
    parts = [x, np.stack([np.sin(c), np.cos(c), np.sin(0.5 * c), np.cos(0.5 * c)], axis=1)]
    if ids is not None:
        parts.append((m.class_emb if class_emb is None else class_emb)[ids])
    return np.concatenate(parts, axis=1)


def built_features(m, x, level, ids):
    """The model's float32 features of a batch, through _features."""
    return m._features(x, level, ids, out=np.empty((x.shape[0], m.weights[0].shape[1]), dtype=np.float32))


def reference_forward(weights, biases, feats):
    """Out-of-place forward pass: output and (pre, sig, acts) as fresh arrays."""
    a = feats
    pre, sig, acts = [], [], [feats]
    for w, b in zip(weights[:-1], biases[:-1]):
        z = a @ w.T
        z += b
        s = _sigmoid(z)
        a = z * s
        pre.append(z)
        sig.append(s)
        acts.append(a)
    out = a @ weights[-1].T
    out += biases[-1]
    return out, (pre, sig, acts)


def reference_backward(weights, class_emb, cache, ids, dout, full_product=False):
    """Out-of-place backprop: per-layer weight and bias gradients and the
    embedding gradient as fresh arrays. The embedding gradient comes from
    the embedding columns of the first weight, or with full_product from
    the slice of the whole input-feature gradient."""
    pre, sig, acts = cache
    n_layers = len(weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    delta = dout
    for i in range(n_layers - 1, -1, -1):
        grads_w[i] = delta.T @ acts[i]
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            dsilu = 1.0 - sig[i - 1]
            dsilu *= pre[i - 1]
            dsilu += 1.0
            dsilu *= sig[i - 1]
            delta = delta @ weights[i]
            delta *= dsilu
    grad_emb = None
    if class_emb is not None:
        emb_dim = class_emb.shape[1]
        demb = (delta @ weights[0])[:, -emb_dim:] if full_product else delta @ weights[0][:, -emb_dim:]
        grad_emb = np.zeros_like(class_emb)
        np.add.at(grad_emb, ids, demb)
    return grads_w, grads_b, grad_emb


def reference_train(dataset, hidden, cfg, conditional=False):
    """The out-of-place training loop: per-block initialisation drawn in
    float64 and rounded to float32; forward and backward in float32; Adam's
    moments and update in float32 (PyTorch's AdamW form) from the float32
    gradient, added to float64 master blocks, then the float64 weight decay,
    rounded into the float32 blocks after each step; each batch building
    fresh temporaries. Returns the float32 parameter blocks in checkpoint
    order and the loss history."""
    points = dataset.points
    n_classes = int(dataset.labels.max()) + 1 if conditional else None
    param = "eps" if cfg.objective == "dsm" else "flow"
    shell = ScoreModel(points.shape[1], hidden, n_classes=n_classes, param=param, seed=cfg.seed)
    widths = [shell.weights[0].shape[1]] + list(hidden) + [points.shape[1]]
    init = generator(cfg.seed, 0xC0DE)

    def rounded(a):
        return a.astype(np.float32).astype(np.float64)

    master_w = [rounded(init.standard_normal((widths[i + 1], widths[i])) * np.sqrt(2.0 / widths[i]))
                for i in range(len(widths) - 1)]
    master_b = [np.zeros(widths[i + 1]) for i in range(len(widths) - 1)]
    master_emb = rounded(init.standard_normal((n_classes + 1, shell.emb_dim)) * 0.1) if conditional else None
    master = []
    for w, b in zip(master_w, master_b):
        master.extend([w, b])
    if master_emb is not None:
        master.append(master_emb)
    m_state = [np.zeros(p.shape, dtype=np.float32) for p in master]
    v_state = [np.zeros(p.shape, dtype=np.float32) for p in master]
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    f32 = np.float32
    rng = generator(cfg.seed, 0xBA7C)
    log_smin, log_smax = np.log(cfg.sigma_min), np.log(cfg.sigma_max)
    history = []
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
        mapped = shell._map_class_ids(cfg.batch_size, ids)
        weights = [w.astype(np.float32) for w in master_w]
        biases = [b.astype(np.float32) for b in master_b]
        class_emb = None if master_emb is None else master_emb.astype(np.float32)
        feats = reference_features(shell, xin, level, mapped, class_emb).astype(np.float32)
        out, cache = reference_forward(weights, biases, feats)
        residual = (out - target).astype(np.float32)
        loss = float((residual * residual).sum()) / cfg.batch_size
        gw, gb, gemb = reference_backward(weights, class_emb, cache, mapped,
                                          2.0 * residual / cfg.batch_size)
        grads = []
        for i in range(len(gw)):
            grads.extend([gw[i], gb[i]])
        if gemb is not None:
            grads.append(gemb)
        step = f32(lr / (1.0 - beta1**(b + 1)))
        rs = f32(1.0 / np.sqrt(1.0 - beta2**(b + 1)))
        for i, (p, g) in enumerate(zip(master, grads)):
            m_state[i] = f32(beta1) * m_state[i] + f32(1.0 - beta1) * g
            v_state[i] = f32(beta2) * v_state[i] + (f32(1.0 - beta2) * g) * g
            p -= step * m_state[i] / (np.sqrt(v_state[i]) * rs + f32(adam_eps))
        if cfg.weight_decay > 0:
            for w in master_w:
                w -= lr * cfg.weight_decay * w
            if master_emb is not None:
                master_emb -= lr * cfg.weight_decay * master_emb
        history.append((b, lr, loss))
    return [p.astype(np.float32) for p in master], history


def reference_save_checkpoint(model, path):
    """The checkpoint writer block by block: header, then each block as
    float32 LE in checkpoint order."""
    blocks = model.parameter_blocks()
    names = []
    for i in range(len(model.weights)):
        names.extend([f"w{i}", f"b{i}"])
    if model.class_emb is not None:
        names.append("class_emb")
    header = {
        "data_dim": model.data_dim, "hidden": model.hidden, "n_classes": model.n_classes,
        "emb_dim": model.emb_dim, "param": model.param, "activation": "silu", "seed": model.seed,
        "train_config": asdict(model.train_config) if model.train_config else None,
        "blocks": [{"name": n, "shape": list(b.shape)} for n, b in zip(names, blocks)],
    }
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(hb)) + hb)
        for b in blocks:
            fh.write(np.ascontiguousarray(b, dtype="<f4").tobytes())


def arrays_held(obj, seen=None):
    """Every ndarray reachable from obj through attributes (including its
    thread-local buffers), lists, tuples and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
    elif isinstance(obj, (ScoreModel, threading.local)):
        items = list(vars(obj).values())
    else:
        return []
    return [a for item in items for a in arrays_held(item, seen)]


class TestForward:
    def test_cached_forward_matches_plain_forward(self):
        # both passes run in float32 on params: the plain (inference) forward
        # returns the bytes of the cached (training) output cast to float64,
        # and both are the out-of-place forward's; the cache is checked
        # first, because the plain call overwrites the thread's buffers
        m = ScoreModel(3, [16, 8], n_classes=2, seed=13)
        rng = np.random.default_rng(14)
        ids = m._map_class_ids(6, np.array([0, 1, -1, 0, 1, -1]))
        feats = built_features(m, rng.standard_normal((6, 3)), np.full(6, 0.6), ids)
        out, (pre, sig, acts) = m._forward(feats, want_cache=True)
        want = reference_forward(m.weights, m.biases, feats)[0]
        assert out.dtype == want.dtype == np.float32
        assert out.tobytes() == want.tobytes()
        assert len(pre) == len(sig) == 2 and len(acts) == 3
        for z, s, a in zip(pre, sig, acts[1:]):
            assert s.tobytes() == _sigmoid(z).tobytes()
            assert a.tobytes() == (z * s).tobytes()
        plain = m._forward(feats)
        assert plain.dtype == np.float64
        assert plain.tobytes() == want.astype(np.float64).tobytes()

    def test_plain_forwards_between_batches_leave_the_gradient_unchanged(self):
        # training and inference share one buffer store per thread: plain
        # forwards between two cached forward + backward passes, at the same
        # row count or at one that rebuilds the store, change no gradient
        # byte, into a new vector or into one that is reused
        m = ScoreModel(3, [16, 8], n_classes=2, seed=31)
        rng = np.random.default_rng(32)
        ids = m._map_class_ids(6, np.array([0, 1, -1, 0, 1, -1]))
        feats = built_features(m, rng.standard_normal((6, 3)), np.full(6, 0.6), ids)
        dout = rng.standard_normal((6, 3)).astype(np.float32)
        reused = np.empty_like(m.params)

        def grads():
            cache = m._forward(feats, want_cache=True)[1]
            fresh = m._backward(cache, ids, dout).tobytes()
            cache = m._forward(feats, want_cache=True)[1]
            return fresh, m._backward(cache, ids, dout, out=reused).tobytes()

        want = grads()
        assert want[0] == want[1]
        for rows in (6, 11, 6):
            m.forward(rng.standard_normal((rows, 3)), 0.3, rng.integers(-1, 2, rows))
            assert grads() == want

    def test_plain_forward_buffers_are_per_thread(self):
        # the plain forward reuses per-thread buffers: threads that share a
        # model still get the serial plain forward's bytes, also when the
        # batch size changes, and no output is overwritten by a later call
        m = ScoreModel(2, [64, 64], seed=3)
        rng = np.random.default_rng(4)
        feats = [rng.standard_normal((n, 6)) for n in (400, 400, 400, 400, 7)]
        want = [m._forward(f).tobytes() for f in feats]
        orders = [[(k + shift) % 4 for k in range(40)] + [4, shift] for shift in range(4)]

        def run(order):
            return [m._forward(feats[j]) for j in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = [f.result(timeout=120) for f in [pool.submit(run, order) for order in orders]]
        finally:
            sys.setswitchinterval(interval)
        for order, outs in zip(orders, results):
            assert [out.tobytes() for out in outs] == [want[j] for j in order]

    @pytest.mark.parametrize("param", ["eps", "flow"])
    @pytest.mark.parametrize("n_classes", [None, 3])
    def test_buffered_forward_matches_built_features(self, param, n_classes):
        # _features with one level per row (training's input) builds the
        # out-of-place layout; forward at one level fills this thread's
        # feature buffer with the bytes of those features, and a point (n,)
        # is not a batch
        m = ScoreModel(3, [16, 8], n_classes=n_classes, param=param, seed=21)
        rng = np.random.default_rng(22)
        for rows in (1, 7, 64, 300):
            x = rng.standard_normal((rows, 3))
            ids = None if n_classes is None else rng.integers(-1, 3, rows)
            mapped = m._map_class_ids(rows, ids)
            for level in (0.002, 0.37, 0.9, np.float64(0.61), rng.uniform(0.01, 0.99, rows)):
                per_row = np.broadcast_to(level, (rows,))
                feats = built_features(m, x, per_row, mapped)
                want = reference_features(m, x, per_row, mapped).astype(np.float32)
                assert feats.tobytes() == want.tobytes()
                if np.ndim(level) == 0:
                    assert m.forward(x, level, ids).tobytes() == m._forward(feats).tobytes()
            one_id = None if ids is None else ids[0]
            with pytest.raises(ValueError, match="x must have shape"):
                m.forward(x[0], 0.37, one_id)

    def test_feature_buffers_are_per_thread(self):
        # four threads (more than cores) run batches of equal and of
        # different row counts side by side; each fills its own feature
        # buffer, so every result equals the serial one
        m = ScoreModel(2, [32, 32], n_classes=2, seed=23)
        rng = np.random.default_rng(24)
        batches = [(rng.standard_normal((n, 2)), rng.integers(-1, 2, n), 0.1 + 0.15 * k)
                   for k, n in enumerate((64, 7, 64, 7, 300, 1))]
        serial = [m.forward(x, level, ids).tobytes() for x, ids, level in batches]
        orders = [[(k + shift) % 6 for k in range(60)] for shift in range(4)]

        def run(order):
            return [m.forward(x, level, ids) for x, ids, level in (batches[j] for j in order)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(run, order) for order in orders]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for order, outs in zip(orders, results):
            assert [out.tobytes() for out in outs] == [serial[j] for j in order]

    def test_a_parameter_write_shows_in_the_next_forward(self):
        # forward reads params itself, with no copy of its own that could
        # go stale after a write, on this thread or another
        m = ScoreModel(2, [16], seed=29)
        x = np.random.default_rng(30).standard_normal((5, 2))
        before = m.forward(x, 0.4)
        m.biases[-1] += 1.0
        after = m.forward(x, 0.4)
        assert np.allclose(after, before + 1.0, rtol=0, atol=1e-5)
        m.params[...] = 0.0
        assert np.all(m.forward(x, 0.4) == 0.0)
        with ThreadPoolExecutor(1) as pool:
            assert np.all(pool.submit(m.forward, x, 0.4).result() == 0.0)

    def test_per_call_checks_raise(self):
        m = ScoreModel(2, [8], n_classes=2, seed=25)
        x = np.ones((4, 2))
        for sigma in (0.0, -1.0, np.float64(0.0), np.array([0.5, 0.5, 0.0, 0.5])):
            with pytest.raises(ValueError, match="sigma must be > 0"):
                m.predict_eps(x, sigma, 0)
        with pytest.raises(ValueError, match="unknown class"):
            m.predict_eps(x, 0.5, np.array([0, 1, 2, 0]))
        with pytest.raises(ValueError, match="one id per row"):
            m.predict_eps(x, 0.5, np.array([0, 1]))
        for bad_x in (np.ones((4, 1)), np.ones((4, 3)), np.ones((2, 4, 2))):
            with pytest.raises(ValueError, match="x must have shape"):
                m.forward(bad_x, 0.5, 0)
        with pytest.raises(ValueError):
            m.forward(x, np.full(3, 0.5), 0)  # one level per row, or one level

    def test_zero_weights_zero_output(self):
        m = ScoreModel(3, [16, 16], seed=1)
        for w in m.weights:
            w[:] = 0.0
        for b in m.biases:
            b[:] = 0.0
        out = m.predict_eps(np.ones((1, 3)), 0.7)
        assert np.all(out == 0.0)

    def test_batch_matches_single(self):
        # a single point is a one-row batch; each row of an N-row batch matches it
        m = ScoreModel(2, [8], seed=2)
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((5, 2))
        batch = m.predict_eps(xs, 0.5)
        for i in range(5):
            assert np.allclose(batch[i], m.predict_eps(xs[i:i + 1], 0.5)[0])

    def test_unknown_class_rejected(self):
        m = ScoreModel(2, [8], n_classes=3, seed=3)
        with pytest.raises(ValueError, match="unknown class"):
            m.predict_eps(np.ones((1, 2)), 0.5, 5)

    def test_conditional_model_rejects_ids_when_unconditional(self):
        m = ScoreModel(2, [8], seed=4)
        with pytest.raises(ValueError, match="unconditional"):
            m.predict_eps(np.ones((1, 2)), 0.5, 1)


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        # width-8 conditional net, 100 random parameter coordinates, 1e-4
        # relative: the float32 backprop against central differences of the
        # float64 out-of-place forward at the same (float32) parameters
        m = ScoreModel(3, [8, 8], n_classes=2, seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3))
        level = np.full(4, 0.8)
        target = rng.standard_normal((4, 3))
        ids = m._map_class_ids(4, np.array([0, 1, -1, 0]))
        blocks = [b.astype(np.float64) for b in m.parameter_blocks()]
        n = len(m.weights)

        def loss_value():
            feats = reference_features(m, x, level, ids, blocks[-1])
            r = reference_forward(blocks[0:2 * n:2], blocks[1:2 * n:2], feats)[0] - target
            return float((r * r).sum() / 4)

        out, cache = m._forward(built_features(m, x, level, ids), want_cache=True)
        grads = m._blocks(m._backward(cache, ids, (2.0 * (out - target) / 4).astype(np.float32)))
        checked = 0
        step = 1e-6
        while checked < 100:
            bi = int(rng.integers(len(blocks)))
            idx = tuple(rng.integers(s) for s in blocks[bi].shape)
            orig = blocks[bi][idx]
            blocks[bi][idx] = orig + step
            up = loss_value()
            blocks[bi][idx] = orig - step
            dn = loss_value()
            blocks[bi][idx] = orig
            fd = (up - dn) / (2 * step)
            an = grads[bi][idx]
            assert abs(fd - an) <= 1e-4 * max(1.0, abs(fd), abs(an))
            checked += 1

    @pytest.mark.parametrize("dim, rows", [(2, 200), (256, 200), (3, 1)])
    def test_embedding_gradient_matches_the_whole_input_gradient(self, dim, rows):
        # backprop multiplies the first-layer delta by the embedding columns
        # of the first weight only: its float32 gradient is the out-of-place
        # product bit for bit, and every other gradient block is unchanged;
        # on the same operands widened to float64, the slice of the whole
        # input-gradient product agrees with that product to rounding
        m = ScoreModel(dim, [32, 16], n_classes=3, seed=11)
        rng = np.random.default_rng(12)
        ids = m._map_class_ids(rows, rng.integers(-1, 3, rows))
        feats = built_features(m, rng.standard_normal((rows, dim)), np.exp(rng.uniform(-3, 2, rows)), ids)
        out, cache = m._forward(feats, want_cache=True)
        dout = rng.standard_normal(out.shape).astype(np.float32)
        got = [b.copy() for b in m._blocks(m._backward(cache, ids, dout))]
        gw, gb, gemb = reference_backward(m.weights, m.class_emb, cache, ids, dout)
        for i in range(len(gw)):
            assert np.array_equal(got[2 * i], gw[i]) and np.array_equal(got[2 * i + 1], gb[i])
        assert np.array_equal(got[-1], gemb)

        def wide(arrays):
            return [a.astype(np.float64) for a in arrays]

        args = (wide(m.weights), m.class_emb.astype(np.float64), tuple(map(wide, cache)), ids,
                dout.astype(np.float64))
        sliced, whole = (reference_backward(*args, full_product=full)[2] for full in (False, True))
        assert np.any(whole != 0)
        np.testing.assert_allclose(sliced, whole, rtol=1e-12, atol=0)


class TestTraining:
    def test_seeded_training_is_bitwise_reproducible(self):
        data = gaussian_dataset(200, 2, seed=7)
        cfg = TrainConfig(batches=50, batch_size=32, warmup_batches=5, lr=1e-3, seed=9)
        m1 = train(data, [16, 16], cfg)
        m2 = train(data, [16, 16], cfg)
        for a, b in zip(m1.parameter_blocks(), m2.parameter_blocks()):
            assert np.array_equal(a, b)

    def test_loss_decreases_on_constant_dataset(self):
        data = LabeledPointSet(np.zeros((64, 2)), np.zeros(64, dtype=int))
        cfg = TrainConfig(batches=400, batch_size=64, warmup_batches=10, lr=3e-4,
                          seed=1, sigma_min=0.05, sigma_max=0.2)
        m = train(data, [32], cfg)
        losses = [h[2] for h in m.loss_history]
        assert np.mean(losses[-50:]) < np.mean(losses[:50])
        assert all(np.isfinite(losses))

    def test_divergence_guard(self):
        # the overflowing loss is the guard's case: no RuntimeWarning escapes
        # the errstate scope around it
        data = LabeledPointSet(np.full((32, 2), 1e200), np.zeros(32, dtype=int))
        for objective in ("dsm", "flow_matching"):
            cfg = TrainConfig(batches=20, batch_size=8, warmup_batches=1, lr=1e-3, seed=2,
                              objective=objective)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(TrainingDiverged):
                    train(data, [8], cfg)

    def test_empty_dataset_rejected(self):
        data = LabeledPointSet(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            train(data, [8], TrainConfig(batches=1, warmup_batches=0, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batches=10, warmup_batches=20)
        with pytest.raises(ValueError):
            TrainConfig(objective="who knows")
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batches=3, warmup_batches=1, batch_size=0)
        # a negative decay would train with no decay at all, and NaN fails every
        # bound; an infinite sigma_max leaves no range to draw levels from, and
        # a fractional or boolean count would train on fractional batches
        for kw in ({"lr": float("nan")}, {"lr": float("inf")}, {"weight_decay": -1.0},
                   {"weight_decay": float("nan")}, {"warmup_batches": -1},
                   {"sigma_max": float("inf")}, {"sigma_max": float("nan")},
                   {"batches": 2.5}, {"batch_size": 4.5}, {"warmup_batches": 1.5},
                   {"batches": 200.0}, {"batch_size": True}, {"warmup_batches": False}):
            with pytest.raises(ValueError, match=next(iter(kw))):
                TrainConfig(**kw)
        assert TrainConfig(batches=np.int64(20), batch_size=np.int32(8), warmup_batches=2).batches == 20

    # (dim, hidden, conditional, objective, weight_decay, label_dropout, batch_size);
    # the [128, 128] nets have more parameters than ADAM_CHUNK, the others fewer
    @pytest.mark.parametrize("dim, hidden, conditional, objective, weight_decay, label_dropout, batch_size", [
        (2, [8], False, "dsm", 1e-5, 0.0, 7),
        (3, [16, 16], False, "flow_matching", 0.0, 0.0, 33),
        (2, [32], True, "dsm", 1e-5, 0.0, 16),
        (2, [128, 128], True, "flow_matching", 1e-5, 0.1, 1),
        (3, [128, 128], True, "dsm", 0.0, 0.1, 9),
        (2, [128, 128], False, "dsm", 1e-5, 0.0, 5),
    ], ids=["eps-small-odd", "flow-wd0", "eps-cond", "flow-cond-big-bs1", "eps-cond-big-wd0",
            "eps-big"])
    def test_step_matches_out_of_place_reference(self, dim, hidden, conditional, objective,
                                                 weight_decay, label_dropout, batch_size):
        rng = np.random.default_rng(40)
        data = LabeledPointSet(rng.standard_normal((50, dim)), rng.integers(0, 3, 50))
        cfg = TrainConfig(batches=25, batch_size=batch_size, warmup_batches=3, lr=3e-3, seed=41,
                          objective=objective, weight_decay=weight_decay, label_dropout=label_dropout)
        m = train(data, hidden, cfg, conditional=conditional)
        assert (m.params.size > ADAM_CHUNK) == (hidden == [128, 128])
        blocks, history = reference_train(data, hidden, cfg, conditional)
        assert [b.tobytes() for b in m.parameter_blocks()] == [b.tobytes() for b in blocks]
        assert m.loss_history == history

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4, 1e19, 1e20])
    def test_first_step_moves_each_parameter_by_lr_at_any_gradient_scale(self, scale):
        # at t = 1 the bias-corrected step is lr g / (|g| + eps), about
        # lr sign(g); at |g| = 1e20, g g overflows float32 where
        # ((1 - beta2) g) g does not
        m = ScoreModel(2, [8], seed=60)
        adam = _AdamW(m, 0.0)
        assert adam.m.dtype == adam.v.dtype == np.float32
        assert adam.master.dtype == np.float64
        start = adam.master.copy()
        grad = np.where(np.arange(m.params.size) % 2 == 0, scale, -scale).astype(np.float32)
        adam.step(grad, 1e-3, 1)
        g = grad.astype(np.float64)
        np.testing.assert_allclose(adam.master - start, -1e-3 * g / (np.abs(g) + _AdamW.eps),
                                   rtol=1e-6, atol=0)

    def test_a_batch_allocates_no_matrix(self, monkeypatch):
        # from the first step to the last, traced memory exceeds the arrays
        # a run keeps by less than one (batch_size, widest layer) float32
        # matrix; those are the parameters, the master, moments and scratch,
        # the gradient and the per-thread buffers, all reachable from the
        # model and the optimizer, and train's five (rows, dim) batch arrays.
        # What remains is Python objects and numpy's fixed 8192-element
        # iterator buffer for a broadcast such as the bias add.
        rows, dim, hidden = 200, 2, [128, 128]
        rng = np.random.default_rng(61)
        data = LabeledPointSet(rng.standard_normal((50, dim)), rng.integers(0, 3, 50))
        cfg = TrainConfig(batches=6, batch_size=rows, warmup_batches=1, seed=62,
                          objective="flow_matching", label_dropout=0.1)
        seen = {}
        real_init, real_step = _AdamW.__init__, _AdamW.step

        def init(adam, model, weight_decay):
            real_init(adam, model, weight_decay)
            seen["model"] = model

        def step(adam, grad, lr, t):
            real_step(adam, grad, lr, t)
            if t == 1:
                owners = {}
                for a in arrays_held(seen["model"]) + arrays_held(vars(adam)) + [grad]:
                    owner = a if a.base is None else a.base
                    owners[id(owner)] = owner.nbytes
                seen["fixed"] = sum(owners.values()) + rows * dim * (4 * 8 + 4)
                tracemalloc.reset_peak()
            elif t == cfg.batches:
                seen["peak"] = tracemalloc.get_traced_memory()[1]

        monkeypatch.setattr(_AdamW, "__init__", init)
        monkeypatch.setattr(_AdamW, "step", step)
        tracemalloc.start()
        try:
            train(data, hidden, cfg, conditional=True)
        finally:
            tracemalloc.stop()
        assert 0 < seen["peak"] - seen["fixed"] < rows * max(hidden) * 4

    def test_weight_decay_below_float32_resolution_reaches_the_parameters(self):
        # at lr * wd = 1e-8 one decay step w - 1e-8 w rounds back to w in
        # float32; on the float64 master, 1000 steps with a zero gradient
        # (so Adam's own update is 0) move every weight by about 1e-5 relative
        m = ScoreModel(2, [16], n_classes=2, seed=50)
        start = m.params.copy()
        w32 = m.weights[0].copy()
        w32 -= np.float32(1e-3 * 1e-5) * w32
        assert np.array_equal(w32, m.weights[0])
        adam = _AdamW(m, 1e-5)
        master = [b.astype(np.float64) for b in m.parameter_blocks()]
        biases = [name.startswith("b") for name, _ in m._layout]
        for t in range(1, 1001):
            adam.step(np.zeros_like(m.params), 1e-3, t)
            for bias, b in zip(biases, master):
                if not bias:
                    b -= 1e-3 * 1e-5 * b
        assert [b.tobytes() for b in m.parameter_blocks()] == [b.astype(np.float32).tobytes() for b in master]
        for bias, moved in zip(biases, m._blocks(m.params != start)):
            assert not moved.any() if bias else moved.all()

    def test_trained_model_holds_no_training_buffers(self):
        data = gaussian_dataset(100, 2, seed=42)
        cfg = TrainConfig(batches=5, batch_size=16, warmup_batches=1, seed=43)
        m = train(data, [16, 16], cfg, conditional=False)
        held = arrays_held(m)
        assert held and all(np.shares_memory(a, m.params) for a in held)

    def test_trained_single_gaussian_matches_optimal_denoiser(self):
        # optimal denoiser for N(0, I): eps(x, sigma) = sigma x / (1 + sigma^2)
        data = gaussian_dataset(2000, 2, seed=11)
        cfg = TrainConfig(batches=1500, batch_size=128, warmup_batches=50, lr=2e-3,
                          seed=12, sigma_min=0.05, sigma_max=3.0)
        m = train(data, [64, 64], cfg)
        rng = np.random.default_rng(13)
        sigma = 1.0
        x = rng.standard_normal((400, 2)) * np.sqrt(1 + sigma**2)
        pred = m.predict_eps(x, sigma)
        ideal = sigma * x / (1 + sigma**2)
        err = np.mean(np.sum((pred - ideal) ** 2, axis=1))
        assert err < 0.1  # pilot run of this config reached ~0.01

    def test_conditional_branches_differ_after_training(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        rng = np.random.default_rng(14)
        comp = rng.integers(0, 2, 600)
        pts = spec.means[comp] + rng.standard_normal((600, 2))
        data = LabeledPointSet(pts, comp)
        cfg = TrainConfig(batches=600, batch_size=100, warmup_batches=20, lr=2e-3, seed=15)
        m = train(data, [32, 32], cfg, conditional=True)
        x = np.zeros((1, 2))
        cond0 = m.predict_eps(x, 0.5, 0)
        cond1 = m.predict_eps(x, 0.5, 1)
        nullb = m.predict_eps(x, 0.5, None)
        assert np.linalg.norm(cond0 - cond1) > 0.1
        assert np.linalg.norm(cond0 - nullb) > 0.01


class TestFlatParameters:
    @pytest.mark.parametrize("n_classes", [None, 3])
    def test_blocks_are_views_of_one_vector(self, n_classes):
        m = ScoreModel(3, [16, 8], n_classes=n_classes, seed=44)
        blocks = m.parameter_blocks()
        assert len(blocks) == 6 + (n_classes is not None)
        for b in blocks:
            assert b.base is m.params and b.flags.c_contiguous
        assert np.concatenate([b.ravel() for b in blocks]).tobytes() == m.params.tobytes()
        m.params[:] = np.arange(m.params.size)
        assert m.weights[0][0, 1] == 1.0 and m.biases[-1][-1] == m.params.size - 1 - (
            0 if n_classes is None else m.class_emb.size)

    def test_copy_shares_no_memory(self):
        m = ScoreModel(2, [8], n_classes=2, seed=45)
        dup = m.copy()
        assert dup.params.tobytes() == m.params.tobytes()
        assert not np.shares_memory(dup.params, m.params)
        for a in arrays_held(dup):
            assert np.shares_memory(a, dup.params) and not np.shares_memory(a, m.params)

    def test_last_good_shares_no_memory_with_the_live_model(self, monkeypatch):
        copies = []
        real_copy = ScoreModel.copy
        monkeypatch.setattr(ScoreModel, "copy", lambda self: copies.append((self, real_copy(self))) or copies[-1][1])
        rng = np.random.default_rng(46)
        data = LabeledPointSet(rng.standard_normal((64, 2)) * 100, np.zeros(64, dtype=int))
        cfg = TrainConfig(batches=20, batch_size=8, warmup_batches=0, lr=10.0, seed=3, cosine_anneal=False)
        with pytest.raises(TrainingDiverged) as info:
            train(data, [8], cfg, snapshot_every=1)
        live, snapshot = copies[-1]
        assert info.value.last_good is snapshot
        held = arrays_held(snapshot)
        assert held and all(np.shares_memory(a, snapshot.params) for a in held)
        assert not np.shares_memory(snapshot.params, live.params)


class TestFlowObjective:
    def test_flow_model_velocity_and_eps_agree(self):
        data = gaussian_dataset(500, 2, seed=16)
        cfg = TrainConfig(batches=200, batch_size=64, warmup_batches=10, lr=1e-3,
                          seed=17, objective="flow_matching")
        m = train(data, [32], cfg)
        assert m.param == "flow"
        x = np.array([[0.4, -0.2]])
        t = 0.5
        sigma = t / (1 - t)
        v = m.forward(x, t)  # the native velocity at the flow-scale point
        eps = m.predict_eps(x / (1 - t), sigma)
        assert np.allclose(flow_to_eps(v, x, t), eps, rtol=1e-10, atol=1e-12)


class TestEsmLoss:
    def test_oracle_model_has_zero_loss(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        om = OracleModel(spec)
        g = smooth(spec, 0.8)
        rng = np.random.default_rng(18)
        pts = rng.standard_normal((100, 2)) * 2
        assert esm_loss(om, g, pts, 0.8) < 1e-24

    def test_zero_model_expectation(self):
        # zero output on N(0, (1+sigma^2) I) at sigma=1: sigma^2 n / (1+sigma^2) = n/2
        class Zero:
            data_dim = 2
            param = "eps"

            def predict_eps(self, x, sigma, class_ids=None):
                return np.zeros_like(np.asarray(x, dtype=float))

        spec = GmmSpec([1.0], np.zeros((1, 2)), [1.0])
        g = smooth(spec, 1.0)
        rng = np.random.default_rng(19)
        pts = rng.standard_normal((200000, 2)) * np.sqrt(2.0)
        assert abs(esm_loss(Zero(), g, pts, 1.0) - 1.0) < 0.02

    def test_sigma_positive_required(self):
        spec = GmmSpec([1.0], np.zeros((1, 2)), [1.0])
        with pytest.raises(ValueError):
            esm_loss(OracleModel(spec), smooth(spec, 0.0), np.zeros((3, 2)), 0.0)

    def test_trained_single_gaussian_quality(self):
        # pilot run of this configuration reached esm ~ 0.003 << 0.05 * n = 0.1
        data = gaussian_dataset(2000, 2, seed=20)
        cfg = TrainConfig(batches=2000, batch_size=200, warmup_batches=100, lr=1e-3, seed=21)
        m = train(data, [128, 128, 128], cfg)
        spec = GmmSpec([1.0], np.zeros((1, 2)), [1.0])
        g = smooth(spec, 1.0)
        rng = np.random.default_rng(22)
        pts = rng.standard_normal((2000, 2)) * np.sqrt(2.0)
        assert esm_loss(m, g, pts, 1.0) < 0.05 * 2


class TestOracleModelConditional:
    def test_conditional_oracle_uses_sub_mixture(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        om = OracleModel(spec)
        x = np.zeros((1, 2))
        eps0 = om.predict_eps(x, 0.5, np.array([0]))
        # class-0 sub-mixture is a single Gaussian at -2 e1: score (mu - x)/v
        v_eff = 1 + 0.25
        expected = -0.5 * (spec.means[0] - 0) / v_eff
        assert np.allclose(eps0[0], expected)

    def test_one_sigma_per_call(self):
        om = OracleModel(make_two_gaussian(4.0, 1.0, 2))
        x = np.ones((2, 2))
        for sigmas in (np.array([0.5, 1.0]), np.array([0.5])):
            with pytest.raises(ValueError, match="one value per call"):
                om.predict_eps(x, sigmas)
        assert om.predict_eps(x, 0.5).shape == (2, 2)

    def test_wrong_length_class_ids_rejected(self):
        om = OracleModel(make_two_gaussian(4.0, 1.0, 2))
        with pytest.raises(ValueError, match="one id per row"):
            om.predict_eps(np.zeros((3, 2)), 0.5, class_ids=[0, 1])

    def test_smoothing_cached_per_class_and_sigma(self, monkeypatch):
        spec = make_two_gaussian(4.0, 1.0, 2)
        x = np.random.default_rng(0).standard_normal((6, 2))
        ids = np.array([0, 1, -1, 0, -5, 1])
        subs = {c: GmmSpec([1.0], spec.means[[c]], spec.covariances[[c]], [c]) for c in (0, 1)}
        want = np.empty_like(x)  # each class smoothed afresh, as before the cache
        for c in np.unique(ids):
            g = smooth(subs[c] if c >= 0 else spec, 0.5)
            want[ids == c] = -0.5 * oracle.score(g, x[ids == c])
        calls = []
        real_smooth = oracle.smooth
        monkeypatch.setattr(oracle, "smooth", lambda *a: calls.append(a[1:]) or real_smooth(*a))
        om = OracleModel(spec)
        outs = [om.predict_eps(x, 0.5, ids) for _ in range(3)] + [om.predict_eps(x, 0.5)]
        assert sorted(calls) == [(0.5,)] * 3  # class 0, class 1 and the full mixture, once each
        for out in outs[:3]:
            assert np.array_equal(out, want)
        assert np.array_equal(outs[3], -0.5 * oracle.score(smooth(spec, 0.5), x))
        om.predict_eps(x, 0.25, 0)
        assert len(calls) == 4

    def test_mixed_class_batch(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        om = OracleModel(spec)
        x = np.zeros((3, 2))
        out = om.predict_eps(x, 0.5, np.array([0, 1, -1]))
        assert np.allclose(out[0], -out[1])  # symmetric classes
        assert np.abs(out[2]).max() < 1e-12  # marginal score vanishes at midpoint


class TestCheckpoint:
    def test_round_trip_predictions(self, tmp_path):
        data = gaussian_dataset(300, 3, seed=23)
        cfg = TrainConfig(batches=60, batch_size=50, warmup_batches=5, lr=1e-3, seed=24)
        m = train(data, [16, 16], cfg, snapshot_every=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        loaded, header = load_checkpoint(path)
        assert header["param"] == "eps"
        assert loaded.train_config == m.train_config
        x = np.random.default_rng(25).standard_normal((10, 3))
        a = loaded.predict_eps(x, 0.7)
        b32 = [blk.astype(np.float32).astype(float) for blk in m.parameter_blocks()]
        for blk, ref in zip(loaded.parameter_blocks(), b32):
            assert np.array_equal(blk, ref)
        assert np.all(np.isfinite(a))

    def test_save_is_deterministic(self, tmp_path):
        m = ScoreModel(2, [8], n_classes=2, seed=26)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        save_checkpoint(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("n_classes", [None, 3])
    def test_bytes_match_the_per_block_writer(self, tmp_path, n_classes):
        data = gaussian_dataset(60, 3, seed=47)
        cfg = TrainConfig(batches=4, batch_size=8, warmup_batches=1, seed=48)
        trained = train(LabeledPointSet(data.points, np.arange(60) % 3), [16, 8], cfg,
                        conditional=n_classes is not None)
        for m in (ScoreModel(3, [16, 8], n_classes=n_classes, param="flow", seed=49), trained):
            save_checkpoint(m, tmp_path / "a.ckpt")
            reference_save_checkpoint(m, tmp_path / "b.ckpt")
            assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
            loaded, _ = load_checkpoint(tmp_path / "a.ckpt")
            assert loaded.params.dtype == np.float32
            assert loaded.params.tobytes() == m.params.tobytes()
            save_checkpoint(loaded, tmp_path / "c.ckpt")
            assert (tmp_path / "c.ckpt").read_bytes() == (tmp_path / "a.ckpt").read_bytes()

    def test_invalid_train_config_in_the_header_rejected(self, tmp_path):
        m = ScoreModel(2, [8], seed=29)
        m.train_config = TrainConfig(batches=10, warmup_batches=1)
        m.train_config.batches = 2.5
        save_checkpoint(m, tmp_path / "m.ckpt")
        with pytest.raises(ValueError, match="m.ckpt.*batches"):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_magic_checked(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    @pytest.mark.parametrize("corrupt", [
        lambda b: b[:300], lambda b: b[:-4], lambda b: b + b"\0\0\0\0", lambda b: b[:4] + b"\2" + b[5:],
        lambda b: b[:-4 * 83], lambda b: b[:-4 * 162], lambda b: b + b"\0",
    ], ids=["cut_in_header", "last_block_short", "trailing_bytes", "unknown_version",
            "cut_in_first_block", "no_parameters", "one_surplus_byte"])
    def test_incomplete_checkpoint_rejected(self, tmp_path, corrupt):
        p = tmp_path / "m.ckpt"
        save_checkpoint(ScoreModel(2, [8], n_classes=2, seed=28), p)
        p.write_bytes(corrupt(p.read_bytes()))
        with pytest.raises(ValueError, match="m.ckpt"):
            load_checkpoint(p)

    def test_conditional_round_trip(self, tmp_path):
        m = ScoreModel(2, [8], n_classes=3, param="flow", seed=27)
        save_checkpoint(m, tmp_path / "c.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "c.ckpt")
        x = np.ones((2, 2)) * 0.3
        got = loaded.forward(x, 0.25, np.array([1, -1]))
        want_src = [b.astype(np.float32).astype(float) for b in m.parameter_blocks()]
        for blk, ref in zip(loaded.parameter_blocks(), want_src):
            assert np.array_equal(blk, ref)
        assert got.shape == (2, 2)


def test_predict_helpers_dispatch():
    # one array contract: an (N, n) batch gives (N, n) estimates, row i that
    # of the one-row batch of row i, and a point (n,) is rejected
    models = [ScoreModel(2, [8], n_classes=2, param="eps", seed=30),
              ScoreModel(2, [8], n_classes=2, param="flow", seed=31),
              OracleModel(make_two_gaussian(4.0, 1.0, 2))]
    xs = np.array([[0.3, -1.2], [1.0, 0.5], [-2.0, 0.1]])
    for m in models:
        for cls in (None, 1):
            eps = m.predict_eps(xs, 0.5, cls)
            assert eps.shape == (3, 2)
            for i in range(len(xs)):
                assert np.allclose(eps[i], m.predict_eps(xs[i:i + 1], 0.5, cls)[0], rtol=1e-6, atol=1e-7)
            with pytest.raises(ValueError):
                m.predict_eps(xs[0], 0.5, cls)
