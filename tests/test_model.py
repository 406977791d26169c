import numpy as np
import pytest

from sfglab.datasets import GmmSpec, LabeledPointSet, make_two_gaussian
from sfglab.model import (OracleModel, ScoreModel, TrainConfig, TrainingDiverged,
                          _sigmoid, eps_to_flow, eps_to_score, esm_loss, flow_to_eps,
                          load_checkpoint,
                          save_checkpoint, score_to_eps, train)
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


class TestForward:
    def test_cached_forward_matches_plain_forward(self):
        m = ScoreModel(3, [16, 8], n_classes=2, seed=13)
        rng = np.random.default_rng(14)
        ids = m._map_class_ids(6, np.array([0, 1, -1, 0, 1, -1]))
        feats = m._features(rng.standard_normal((6, 3)), np.full(6, 0.6), ids)
        out, (pre, sig, acts) = m._forward(feats, want_cache=True)
        assert out.tobytes() == m._forward(feats).tobytes()
        assert len(pre) == len(sig) == 2 and len(acts) == 3
        for z, s, a in zip(pre, sig, acts[1:]):
            assert s.tobytes() == _sigmoid(z).tobytes()
            assert a.tobytes() == (z * s).tobytes()

    def test_zero_weights_zero_output(self):
        m = ScoreModel(3, [16, 16], seed=1)
        for w in m.weights:
            w[:] = 0.0
        for b in m.biases:
            b[:] = 0.0
        out = m.predict_eps(np.ones(3), 0.7)
        assert np.all(out == 0.0)

    def test_batch_matches_single(self):
        m = ScoreModel(2, [8], seed=2)
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((5, 2))
        batch = m.predict_eps(xs, 0.5)
        for i in range(5):
            assert np.allclose(batch[i], m.predict_eps(xs[i], 0.5))

    def test_unknown_class_rejected(self):
        m = ScoreModel(2, [8], n_classes=3, seed=3)
        with pytest.raises(ValueError, match="unknown class"):
            m.predict_eps(np.ones(2), 0.5, 5)

    def test_conditional_model_rejects_ids_when_unconditional(self):
        m = ScoreModel(2, [8], seed=4)
        with pytest.raises(ValueError, match="unconditional"):
            m.predict_eps(np.ones(2), 0.5, 1)


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        # width-8 conditional net, 100 random parameter coordinates, 1e-4 relative
        m = ScoreModel(3, [8, 8], n_classes=2, seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3))
        level = np.full(4, 0.8)
        target = rng.standard_normal((4, 3))
        ids = m._map_class_ids(4, np.array([0, 1, -1, 0]))

        def loss_value():
            out = m._forward(m._features(x, level, ids))
            r = out - target
            return float((r * r).sum() / 4)

        feats = m._features(x, level, ids)
        out, cache = m._forward(feats, want_cache=True)
        gw, gb, gemb = m._backward(cache, ids, 2.0 * (out - target) / 4)
        grads = []
        for i in range(len(gw)):
            grads.extend([gw[i], gb[i]])
        grads.append(gemb)
        blocks = m.parameter_blocks()
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
        data = LabeledPointSet(np.full((32, 2), 1e200), np.zeros(32, dtype=int))
        cfg = TrainConfig(batches=20, batch_size=8, warmup_batches=1, lr=1e-3, seed=2)
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
        x = np.zeros(2)
        cond0 = m.predict_eps(x, 0.5, 0)
        cond1 = m.predict_eps(x, 0.5, 1)
        nullb = m.predict_eps(x, 0.5, None)
        assert np.linalg.norm(cond0 - cond1) > 0.1
        assert np.linalg.norm(cond0 - nullb) > 0.01


class TestFlowObjective:
    def test_flow_model_velocity_and_eps_agree(self):
        data = gaussian_dataset(500, 2, seed=16)
        cfg = TrainConfig(batches=200, batch_size=64, warmup_batches=10, lr=1e-3,
                          seed=17, objective="flow_matching")
        m = train(data, [32], cfg)
        assert m.param == "flow"
        x = np.array([0.4, -0.2])
        t = 0.5
        sigma = t / (1 - t)
        v = m.predict_velocity(x, t)
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
        with pytest.raises(ValueError, match="one sigma"):
            om.predict_eps(x, np.array([0.5, 1.0]))
        assert np.array_equal(om.predict_eps(x, np.array([0.5])), om.predict_eps(x, 0.5))

    def test_wrong_length_class_ids_rejected(self):
        om = OracleModel(make_two_gaussian(4.0, 1.0, 2))
        with pytest.raises(ValueError, match="one id per row"):
            om.predict_eps(np.zeros((3, 2)), 0.5, class_ids=[0, 1])

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

    def test_magic_checked(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    @pytest.mark.parametrize("corrupt", [
        lambda b: b[:300], lambda b: b[:-4], lambda b: b + b"\0\0\0\0", lambda b: b[:4] + b"\2" + b[5:],
    ], ids=["cut_in_header", "last_block_short", "trailing_bytes", "unknown_version"])
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
        got = loaded.predict_velocity(x, 0.25, np.array([1, -1]))
        want_src = [b.astype(np.float32).astype(float) for b in m.parameter_blocks()]
        for blk, ref in zip(loaded.parameter_blocks(), want_src):
            assert np.array_equal(blk, ref)
        assert got.shape == (2, 2)


def test_predict_helpers_dispatch():
    # one array contract: a point (n,) gives row 0 of the same point as a (1, n) batch
    models = [ScoreModel(2, [8], n_classes=2, param="eps", seed=30),
              ScoreModel(2, [8], n_classes=2, param="flow", seed=31),
              OracleModel(make_two_gaussian(4.0, 1.0, 2))]
    x = np.array([0.3, -1.2])
    for m in models:
        for cls in (None, 1):
            eps = m.predict_eps(x, 0.5, cls)
            assert eps.shape == (2,)
            assert np.array_equal(eps, m.predict_eps(x[None, :], 0.5, cls)[0])
            vel = m.predict_velocity(x, 0.4, cls)
            assert vel.shape == (2,)
            assert np.array_equal(vel, m.predict_velocity(x[None, :], 0.4, cls)[0])
