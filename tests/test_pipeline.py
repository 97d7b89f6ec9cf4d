import copy
from dataclasses import astuple

import numpy as np
import pytest

from codedhash import pipeline
from codedhash.bp import TannerGraph
from codedhash.data import SyntheticSpec, generate_synthetic, similarity_matrix
from codedhash.gf2 import build_bch
from codedhash.hashing import (PROB_CLAMP, Encoders, gradients,
                               match_probability, objective)
from codedhash.neural_bp import NeuralBpDecoder, TrainingFailureError
from codedhash.optim import Adam
from codedhash.pipeline import (
    REPORT_HEADER,
    TrainConfig,
    UnsatisfiableMarginError,
    _code_loss_and_grad,
    load_config,
    select_code,
    stage1a,
    stage1b,
    stage2_refine,
    train_pipeline,
    training_map,
)
from codedhash.textio import write_report
from gf2_oracles import encode


def small_dataset(seed=0):
    return generate_synthetic(SyntheticSpec(
        n_subjects=12, images_per_subject=3, d_attr=8, d_img=16, seed=seed))


def small_config(**overrides):
    base = dict(c=31, margin=2.0, epochs_stage1a=3, batch_size=16,
                outer_rounds_max=2, patience=1, bp_iterations=3, seed=42)
    base.update(overrides)
    return TrainConfig(**base)


def encoder_params(encoders):
    return [p.copy() for p in
            encoders.image.parameters() + encoders.attribute.parameters()]


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.c == 63
        assert cfg.margin == 6.0
        assert cfg.kappa == 4.0
        assert cfg.bp_iterations == 5
        assert cfg.batch_size == 128
        assert cfg.snr_db_list == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    def test_distance_margin_scale(self):
        assert TrainConfig(margin=6.0).distance_margin == 24.0

    @pytest.mark.parametrize("kwargs", [
        dict(c=15),
        dict(margin=0.0),
        dict(lr=0.0),
        dict(kappa=-1.0),
        dict(batch_size=0),
        dict(outer_rounds_max=0),
        dict(patience=0),
        dict(gamma=-0.5),
        dict(snr_db_list=()),
        dict(margin=float("inf")),
        dict(margin=float("nan")),
        dict(theta=float("nan")),
        dict(lam=float("inf")),
        dict(gamma=float("nan")),
        dict(lr=float("nan")),
        dict(kappa=float("nan")),
        dict(snr_db_list=(1.0, float("nan"))),
        dict(snr_db_list=(float("-inf"),)),
        dict(seed=-1),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestLoadConfig:
    def test_full_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "c = 63\n"
            "m = 3\n"
            "theta = 0.5\n"
            "lambda = 0.25\n"
            "gamma = 2\n"
            "lr = 0.01\n"
            "batch_size = 64\n"
            "epochs_stage1a = 7\n"
            "outer_rounds_max = 4\n"
            "patience = 3\n"
            "kappa = 2.5\n"
            "L = 4\n"
            "seed = 11\n"
            "snr_db_list = 2, 4, 6\n")
        cfg = load_config(path)
        assert cfg.c == 63
        assert cfg.margin == 3.0
        assert cfg.theta == 0.5
        assert cfg.lam == 0.25
        assert cfg.gamma == 2.0
        assert cfg.lr == 0.01
        assert cfg.batch_size == 64
        assert cfg.epochs_stage1a == 7
        assert cfg.outer_rounds_max == 4
        assert cfg.patience == 3
        assert cfg.kappa == 2.5
        assert cfg.bp_iterations == 4
        assert cfg.seed == 11
        assert cfg.snr_db_list == (2.0, 4.0, 6.0)

    def test_missing_keys_use_defaults(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment line\n\nm = 2\nc = 31\n")
        cfg = load_config(path)
        assert cfg.margin == 2.0
        assert cfg.c == 31
        assert cfg.kappa == 4.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("m = 2\nmomentum = 0.9\n")
        with pytest.raises(ValueError, match=":2"):
            load_config(path)

    def test_unknown_key_lists_every_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("momentum = 0.9\n")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == (
            f"{path}:1: unknown key 'momentum'; valid keys: L, batch_size, c, "
            "epochs_stage1a, gamma, kappa, lambda, lr, m, outer_rounds_max, "
            "patience, seed, snr_db_list, theta")

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("batch_size = lots\n")
        with pytest.raises(ValueError, match=":1"):
            load_config(path)

    def test_missing_separator_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match=":1"):
            load_config(path)

    def test_out_of_range_value_names_the_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("m = 0\n")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: margin must be positive"

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("m = 2\nc = 31\nm = 3\n")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"{path}:3: repeated key 'm'"

    def test_negative_seed_names_the_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed = -1\n")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: seed must be >= 0"


class TestSelectCode:
    @pytest.mark.parametrize("margin,c,k,t", [
        (6.0, 63, 30, 6),
        (3.0, 63, 45, 3),
        (7.0, 63, 24, 7),
        (2.0, 31, 21, 2),
        (5.0, 127, 92, 5),
    ])
    def test_published_selections(self, margin, c, k, t):
        code = select_code(margin, c)
        assert (code.n, code.k, code.t) == (c, k, t)

    def test_fractional_margin_rounds_up(self):
        code = select_code(2.5, 31)
        assert code.t >= 3
        assert code.k == 16

    def test_unsatisfiable_margin_lists_pairs(self):
        with pytest.raises(UnsatisfiableMarginError, match=r"\(k="):
            select_code(40.0, 63)

    def test_bad_length(self):
        with pytest.raises(UnsatisfiableMarginError):
            select_code(2.0, 60)

    def test_deterministic(self):
        a = select_code(6.0, 63)
        b = select_code(6.0, 63)
        assert np.array_equal(a.generator, b.generator)


class TestDecodeTargets:
    def _decoder(self, code, iterations=5):
        return NeuralBpDecoder(TannerGraph(code.parity_check),
                               iterations=iterations)

    def test_codeword_pattern_decodes_to_itself(self):
        code = build_bch(4, 2)
        dec = self._decoder(code)
        rng = np.random.default_rng(0)
        msg = rng.integers(0, 2, size=code.k)
        cw = encode(msg, code)
        acts = (1.0 - 2.0 * cw[None, :]) * 0.9
        target = dec.decode_batch(4.0 * acts)
        assert np.array_equal(target[0], cw)

    def test_small_flip_recovers_same_target(self):
        code = build_bch(4, 2)
        dec = self._decoder(code)
        cw = encode(np.array([1, 0, 1, 1, 0, 0, 1]), code)
        acts = (1.0 - 2.0 * cw[None, :]) * 0.9
        flipped = acts.copy()
        flipped[0, 3] = -np.sign(acts[0, 3]) * 0.05
        assert np.array_equal(dec.decode_batch(4.0 * acts),
                              dec.decode_batch(4.0 * flipped))

    def test_pipeline_code_targets_are_hard_decisions_not_codewords(self):
        cfg = TrainConfig()
        code = select_code(cfg.margin, cfg.c)
        assert (code.n, code.k, code.t) == (63, 30, 6)
        dec = self._decoder(code, iterations=cfg.bp_iterations)
        acts = np.random.default_rng(5).uniform(-1, 1, size=(64, code.n))
        targets = dec.decode_batch(cfg.kappa * acts)
        assert not dec.graph.syndrome_ok(targets.T).all()

    def test_identical_inputs_identical_targets(self):
        code = build_bch(4, 2)
        dec = self._decoder(code)
        acts = np.random.default_rng(1).uniform(-1, 1, size=(5, 15))
        both = dec.decode_batch(4.0 * np.vstack([acts, acts]))
        assert np.array_equal(both[:5], both[5:])


def code_loss(acts, bits, gamma):
    """The refinement loss with every row standing for one sample."""
    return _code_loss_and_grad(acts, bits, gamma, np.ones(len(acts), int))


class TestCodeLoss:
    def test_exact_codeword_pattern_floor(self):
        bits = np.array([[0, 1, 1, 0]])
        acts = 1.0 - 2.0 * bits.astype(np.float64)
        loss, grad = code_loss(acts, bits, gamma=1.0)
        assert loss < 1e-10
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_loss_is_the_clamped_cross_entropy_written_out(self):
        rng = np.random.default_rng(8)
        acts = rng.uniform(-1, 1, size=(400, 63))
        acts[0, :4] = (-1.0, 1.0, 0.0, 1 - 1e-13)
        bits = rng.integers(0, 2, size=acts.shape)
        p = np.clip((1.0 - acts) / 2.0, PROB_CLAMP, 1.0 - PROB_CLAMP)
        ce = -(bits * np.log(p) + (1.0 - bits) * np.log(1.0 - p))
        loss, _ = code_loss(acts, bits, gamma=1.7)
        assert loss == 1.7 * float(ce.sum()) / 400

    def test_gamma_zero(self):
        acts = np.array([[0.3, -0.4]])
        loss, grad = code_loss(acts, np.array([[1, 0]]), gamma=0.0)
        assert loss == 0.0
        assert not grad.any()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        acts = rng.uniform(-0.9, 0.9, size=(4, 6))
        bits = rng.integers(0, 2, size=(4, 6))
        _, grad = code_loss(acts, bits, gamma=1.3)
        h = 1e-6
        fd = np.zeros_like(acts)
        for idx in np.ndindex(acts.shape):
            a = acts.copy()
            a[idx] += h
            hi, _ = code_loss(a, bits, 1.3)
            a[idx] -= 2 * h
            lo, _ = code_loss(a, bits, 1.3)
            fd[idx] = (hi - lo) / (2 * h)
        assert np.abs(grad - fd).max() < 1e-6

    def test_gradient_direction(self):
        # target bit 1 wants the activation pushed toward -1
        loss, grad = code_loss(np.array([[0.5]]), np.array([[1]]), gamma=1.0)
        assert loss > 0
        assert grad[0, 0] > 0


class TestStage1a:
    def test_zero_epochs_leaves_parameters(self):
        ds = small_dataset()
        enc = Encoders.build(ds.d_img, ds.d_attr, 31, hidden=(16,), seed=0)
        before = encoder_params(enc)
        stage1a(enc, ds, small_config(epochs_stage1a=0), seed=1)
        assert params_equal(before, encoder_params(enc))

    def test_non_finite_objective_raises(self, monkeypatch):
        monkeypatch.setattr(pipeline, "objective_grads",
                            lambda *args, counts: (None, None, float("nan"), None))
        ds = small_dataset()
        enc = Encoders.build(ds.d_img, ds.d_attr, 31, hidden=(16,), seed=0)
        with pytest.raises(TrainingFailureError,
                           match=r"objective in stage 1a \(image pass\)"):
            stage1a(enc, ds, small_config(epochs_stage1a=1), seed=1)

    def test_matched_pairs_move_closer(self):
        # start from a non-degenerate init so there is distance to recover
        ds = small_dataset(seed=5)
        enc = Encoders.build(ds.d_img, ds.d_attr, 31, hidden=(16,),
                             init_std=0.3, seed=2)
        s = similarity_matrix(ds.attributes)

        def matched_mean_distance():
            p = enc.encode_images(ds.features)
            q = enc.encode_attributes(ds.attributes.astype(np.float64))
            d = (np.sum(p * p, 1)[:, None] + np.sum(q * q, 1)[None, :]
                 - 2 * p @ q.T)
            return d[s == 1].mean()

        before = matched_mean_distance()
        stage1a(enc, ds, small_config(epochs_stage1a=8), seed=3)
        assert matched_mean_distance() < before

    def test_probability_separation_after_training(self):
        ds = small_dataset(seed=6)
        cfg = small_config(epochs_stage1a=8)
        enc = Encoders.build(ds.d_img, ds.d_attr, 31, hidden=(16,), seed=4)
        stage1a(enc, ds, cfg, seed=5)
        p = enc.encode_images(ds.features)
        q = enc.encode_attributes(ds.attributes.astype(np.float64))
        s = similarity_matrix(ds.attributes)
        d = np.maximum(np.sum(p * p, 1)[:, None] + np.sum(q * q, 1)[None, :]
                       - 2 * p @ q.T, 0.0)
        r = match_probability(d, cfg.distance_margin)
        assert r[s == 1].mean() > r[s == 0].mean()

    def test_deterministic_for_seed(self):
        ds = small_dataset()
        runs = []
        for _ in range(2):
            enc = Encoders.build(ds.d_img, ds.d_attr, 31, hidden=(16,), seed=7)
            stage1a(enc, ds, small_config(), seed=9)
            runs.append(encoder_params(enc))
        assert params_equal(*runs)

    def test_empty_dataset_rejected(self):
        ds = small_dataset().subset([])
        enc = Encoders.build(16, 8, 31, hidden=(16,), seed=0)
        with pytest.raises(ValueError, match="dataset is empty"):
            stage1a(enc, ds, small_config(), seed=0)

    def test_matches_two_pass_reference_loop(self):
        """Bit-identical to a plain loop: per epoch, one image pass and one
        attribute pass over the same shuffled batches, each recomputing
        the batch similarity and using the two-branch gradients.  No
        attribute row repeats, so every batch runs on all its rows
        (TestDistinctAttributeRows covers repeats)."""
        ds = generate_synthetic(SyntheticSpec(
            n_subjects=36, images_per_subject=1, d_attr=16, d_img=16, seed=2))
        assert len(np.unique(ds.attributes, axis=0)) == len(ds)
        cfg = small_config(epochs_stage1a=2)
        enc = Encoders.build(ds.d_img, ds.d_attr, 31, hidden=(16,),
                             init_std=0.3, seed=8)
        ref = Encoders.build(ds.d_img, ds.d_attr, 31, hidden=(16,),
                             init_std=0.3, seed=8)
        stage1a(enc, ds, cfg, seed=4)

        rng = np.random.default_rng(4)
        opt_image = Adam(ref.image.parameters(), lr=cfg.lr)
        opt_attr = Adam(ref.attribute.parameters(), lr=cfg.lr)
        attrs = ds.attributes.astype(np.float64)
        args = (cfg.distance_margin, cfg.theta, cfg.lam)
        for _ in range(cfg.epochs_stage1a):
            order = rng.permutation(len(ds))
            for modality in ("image", "attribute"):
                for start in range(0, len(ds), cfg.batch_size):
                    batch = order[start:start + cfg.batch_size]
                    s = similarity_matrix(ds.attributes[batch])
                    img_grads, attr_grads, _, _ = gradients(
                        ref, ds.features[batch], attrs[batch], s, *args)
                    if modality == "image":
                        opt_image.step(ref.image.parameters(), img_grads)
                    else:
                        opt_attr.step(ref.attribute.parameters(), attr_grads)
        got, want = encoder_params(enc), encoder_params(ref)
        assert len(got) == len(want)
        assert params_equal(got, want)

    def test_matches_two_branch_loop_at_pipeline_sizes(self):
        """The criterion-7 shapes, with a short last batch: bit-identical to
        two-branch gradients stepped by a one-line Adam update.  The 400
        rows are 400 subjects of one image each, so no attribute row
        repeats (TestDistinctAttributeRows covers repeats)."""
        ds = generate_synthetic(SyntheticSpec(
            n_subjects=400, images_per_subject=1, d_attr=40, d_img=128, seed=3))
        cfg = TrainConfig(c=63, epochs_stage1a=1, batch_size=128)
        assert len(ds) % cfg.batch_size == 16
        assert len(np.unique(ds.attributes, axis=0)) == len(ds)
        enc = Encoders.build(ds.d_img, ds.d_attr, 63, hidden=(512, 512),
                             init_std=0.1, seed=11)
        ref = Encoders.build(ds.d_img, ds.d_attr, 63, hidden=(512, 512),
                             init_std=0.1, seed=11)
        stage1a(enc, ds, cfg, seed=4)

        def adam_step(params, grads, m, v, t, lr=cfg.lr, b1=0.9, b2=0.999):
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= b1
                mi += (1.0 - b1) * g
                vi *= b2
                vi += (1.0 - b2) * g * g
                p -= lr * (mi / (1.0 - b1 ** t)) / (
                    np.sqrt(vi / (1.0 - b2 ** t)) + 1e-8)

        rng = np.random.default_rng(4)
        order = rng.permutation(len(ds))
        attrs = ds.attributes.astype(np.float64)
        args = (cfg.distance_margin, cfg.theta, cfg.lam)
        for which, net in enumerate((ref.image, ref.attribute)):
            m = [np.zeros_like(p) for p in net.parameters()]
            v = [np.zeros_like(p) for p in net.parameters()]
            for t, start in enumerate(range(0, len(ds), cfg.batch_size), 1):
                batch = order[start:start + cfg.batch_size]
                s = similarity_matrix(ds.attributes[batch])
                grads = gradients(ref, ds.features[batch], attrs[batch], s,
                                  *args)[which]
                adam_step(net.parameters(), grads, m, v, t)
        got, want = encoder_params(enc), encoder_params(ref)
        assert len(got) == 12
        for x, y in zip(got, want):
            assert x.tobytes() == y.tobytes()


class TestStage1b:
    def test_code_and_decoder_shapes(self):
        code, dec = stage1b(small_config(seed=1), decoder_epochs=5)
        assert (code.n, code.k, code.t) == (31, 21, 2)
        assert dec.graph.n_var == 31
        assert dec.iterations == 3

    def test_zero_epochs_keeps_unit_weights(self):
        _, dec = stage1b(small_config(), decoder_epochs=0)
        assert (dec.weight_vector() == 1.0).all()

    def test_training_moves_weights(self):
        _, dec = stage1b(small_config(seed=2), decoder_epochs=5)
        assert not (dec.weight_vector() == 1.0).all()


class TestStage2:
    def _setup(self, gamma=1.0, train_epochs=4):
        ds = small_dataset(seed=8)
        cfg = small_config(gamma=gamma)
        enc = Encoders.build(ds.d_img, ds.d_attr, 31, hidden=(16,), seed=3)
        stage1a(enc, ds, small_config(epochs_stage1a=train_epochs), seed=4)
        _, dec = stage1b(cfg, decoder_epochs=0)
        return ds, cfg, enc, dec

    def test_gamma_zero_leaves_parameters(self):
        ds, cfg, enc, dec = self._setup(gamma=0.0)
        before = encoder_params(enc)
        lc_img, lc_attr = stage2_refine(enc, dec, ds, cfg)
        assert lc_img == 0.0 and lc_attr == 0.0
        assert params_equal(before, encoder_params(enc))

    def test_decoder_untouched(self):
        ds, cfg, enc, dec = self._setup()
        before = dec.weight_vector()
        stage2_refine(enc, dec, ds, cfg)
        assert np.array_equal(before, dec.weight_vector())

    def test_losses_positive_and_finite(self):
        ds, cfg, enc, dec = self._setup()
        lc_img, lc_attr = stage2_refine(enc, dec, ds, cfg)
        assert np.isfinite(lc_img) and np.isfinite(lc_attr)
        assert lc_img > 0 and lc_attr > 0

    def test_codeword_agreement_does_not_drop(self):
        ds, cfg, enc, dec = self._setup(train_epochs=8)
        s = similarity_matrix(ds.attributes)

        def agreement():
            img = dec.decode_batch(
                cfg.kappa * enc.encode_images(ds.features).astype(np.float64))
            att = dec.decode_batch(cfg.kappa * enc.encode_attributes(
                ds.attributes.astype(np.float64)).astype(np.float64))
            same = (img[:, None, :] == att[None, :, :]).all(axis=2)
            return same[s == 1].mean()

        before = agreement()
        stage2_refine(enc, dec, ds, cfg)
        assert agreement() >= before

    def test_decoder_input_is_float32_kappa_times_activations(self, monkeypatch):
        """Stage 2 decodes the float32 product kappa * a of its float32
        activations a, byte for byte, at a kappa (3) that is not a power
        of two: every row of the image batch, and each distinct attribute
        vector of the batch once."""
        ds, _, enc, dec = self._setup()
        cfg = small_config(kappa=3.0)
        llrs, acts = [], []
        decode, weighted_loss = dec.decode_batch, pipeline._code_loss_and_grad

        def record_llrs(x):
            llrs.append(np.array(x, copy=True))
            return decode(x)

        def record_acts(a, targets, gamma, counts):
            acts.append(np.array(a, copy=True))
            return weighted_loss(a, targets, gamma, counts)

        monkeypatch.setattr(dec, "decode_batch", record_llrs)
        monkeypatch.setattr(pipeline, "_code_loss_and_grad", record_acts)
        stage2_refine(enc, dec, ds, cfg)
        batches = [ds.attributes[start:start + cfg.batch_size]
                   for start in range(0, len(ds), cfg.batch_size)]
        assert len(llrs) == len(acts) == 2 * len(batches)
        rows = [n for b in batches for n in (len(b), len(np.unique(b, axis=0)))]
        assert [len(a) for a in acts] == rows
        assert sum(rows[1::2]) < len(ds)  # the data repeats attribute rows
        for x, a in zip(llrs, acts):
            assert a.dtype == x.dtype == np.float32
            assert x.tobytes() == np.multiply(a, np.float32(3.0)).tobytes()

    def test_non_finite_loss_raises(self, monkeypatch):
        ds, cfg, enc, dec = self._setup(train_epochs=0)
        monkeypatch.setattr(pipeline, "_code_loss_and_grad",
                            lambda acts, targets, gamma, counts: (
                                float("nan"), None))
        with pytest.raises(TrainingFailureError,
                           match=r"loss in stage 2 \(image branch\)"):
            stage2_refine(enc, dec, ds, cfg)

    def test_empty_dataset_rejected(self):
        ds, cfg, enc, dec = self._setup(train_epochs=0)
        with pytest.raises(ValueError, match="dataset is empty"):
            stage2_refine(enc, dec, ds.subset([]), cfg)

    def test_mismatched_decoder_rejected(self):
        ds, cfg, enc, _ = self._setup()
        code = build_bch(4, 2)
        wrong = NeuralBpDecoder(
            TannerGraph(code.parity_check), iterations=2)
        with pytest.raises(ValueError):
            stage2_refine(enc, wrong, ds, cfg)


def pipeline_sized():
    """Criterion 7's training set: 50 subjects x 8 images, whose 400 rows
    hold 50 distinct attribute vectors, with its encoders' 512-512 hidden
    layers at the run's 0.1 init scale and 63-bit codes."""
    ds = generate_synthetic(SyntheticSpec(
        n_subjects=50, images_per_subject=8, d_attr=40, d_img=128, seed=3))
    enc = Encoders.build(ds.d_img, ds.d_attr, 63, hidden=(512, 512),
                         init_std=0.1, seed=11)
    return ds, enc


def copies(attributes):
    """For each row of a batch's attributes, the index of its vector among
    the batch's distinct vectors in order of first occurrence."""
    _, first, inverse = np.unique(attributes, axis=0, return_index=True,
                                  return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.reshape(-1)]


class TestDistinctAttributeRows:
    """Stages 1a and 2 run the attribute branch on each distinct attribute
    vector of a batch once, with its count; at the pipeline's shapes that
    agrees with running every row."""

    # float32 networks on different row counts round differently; set
    # from float32's epsilon, relative to each array's largest entry
    TOL = 256 * np.finfo(np.float32).eps

    def test_batch_source_keeps_first_occurrence_order(self):
        """Rows 0, 2 and 5 share vector A and rows 1 and 4 vector B.  A
        batch's attribute rows are each vector's first row in it, in order
        of first occurrence (not np.unique's sorted order, which puts D,
        B, A, C), with the vector's count, and S is the batch similarity's
        columns of those rows, in C order."""
        attributes = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1], [1, 1, 1],
                               [0, 1, 0], [1, 0, 1], [0, 0, 1]], np.uint8)
        batches = pipeline._batch_source(attributes)
        order = np.array([2, 4, 0, 6, 1, 5, 3])  # A B A D B A C
        want = {7: [([2, 4, 6, 3], [3, 2, 1, 1])],
                4: [([2, 4, 6], [2, 1, 1]), ([1, 5, 3], [1, 1, 1])]}
        for batch_size, expected in want.items():
            got = list(batches(order, batch_size))
            assert len(got) == len(expected)
            starts = range(0, len(order), batch_size)
            for start, (rows, attribute_rows, s, counts), (first_rows, n) in (
                    zip(starts, got, expected)):
                assert rows.tolist() == order[start:start + batch_size].tolist()
                assert attribute_rows.tolist() == first_rows
                assert counts.tolist() == n
                first = [rows.tolist().index(r) for r in first_rows]
                assert np.array_equal(
                    s, similarity_matrix(attributes[rows])[:, first])
                assert s.flags.c_contiguous

    def test_batch_source_without_repeats_takes_every_row(self):
        """With no repeated attribute vector, every batch's attribute rows
        are its rows, each with a count of one, and S is the batch
        similarity itself."""
        ds = generate_synthetic(SyntheticSpec(
            n_subjects=36, images_per_subject=1, d_attr=16, d_img=16, seed=2))
        assert len(np.unique(ds.attributes, axis=0)) == len(ds)
        order = np.random.default_rng(1).permutation(len(ds))
        got = list(pipeline._batch_source(ds.attributes)(order, 16))
        assert len(got) == 3
        for rows, attribute_rows, s, counts in got:
            assert np.array_equal(attribute_rows, rows)
            assert (counts == 1).all()
            assert s.tobytes() == similarity_matrix(ds.attributes[rows]).tobytes()

    def test_stage1a_computes_similarities_per_batch(self, monkeypatch):
        """Stage 1a builds each batch's similarities from that batch's
        distinct vectors, once per batch and epoch for both passes, so no
        table grows with the data's distinct vectors."""
        ds = small_dataset(seed=2)
        cfg = small_config(epochs_stage1a=3)
        assert len(ds) > 2 * cfg.batch_size
        enc = Encoders.build(ds.d_img, ds.d_attr, 31, hidden=(16,), seed=8)
        calls = []

        def spy(attributes):
            calls.append(np.array(attributes, copy=True))
            return similarity_matrix(attributes)

        monkeypatch.setattr(pipeline, "similarity_matrix", spy)
        stage1a(enc, ds, cfg, seed=4)
        rng = np.random.default_rng(4)  # stage 1a's epoch orders
        want = []
        for _ in range(cfg.epochs_stage1a):
            order = rng.permutation(len(ds))
            want += [len(np.unique(ds.attributes[order[i:i + cfg.batch_size]],
                                   axis=0))
                     for i in range(0, len(ds), cfg.batch_size)]
        assert [len(x) for x in calls] == want
        assert max(want) < len(np.unique(ds.attributes, axis=0))
        for x in calls:
            assert len(np.unique(x, axis=0)) == len(x)

    def test_stage1a_runs_the_attribute_branch_on_distinct_rows(
            self, monkeypatch):
        """Both passes run the attribute branch (forward_cache, which the
        frozen forward calls too) once per batch on its distinct vectors,
        and the image branch on every row."""
        ds = small_dataset(seed=2)
        cfg = small_config(epochs_stage1a=2)
        enc = Encoders.build(ds.d_img, ds.d_attr, 31, hidden=(16,), seed=8)
        seen = {"image": [], "attribute": []}
        layouts = []
        objective_grads = pipeline.objective_grads

        def spy_objective(p, q, s, *args, **kwargs):
            layouts.append(s.flags.c_contiguous)
            return objective_grads(p, q, s, *args, **kwargs)

        monkeypatch.setattr(pipeline, "objective_grads", spy_objective)
        for name in seen:
            net = getattr(enc, name)

            def spy(x, forward=net.forward_cache, rows=seen[name]):
                rows.append(np.array(x, copy=True))
                return forward(x)

            monkeypatch.setattr(net, "forward_cache", spy)
        stage1a(enc, ds, cfg, seed=4)
        n_batches = -(-len(ds) // cfg.batch_size)
        calls = 2 * cfg.epochs_stage1a * n_batches
        assert len(seen["image"]) == len(seen["attribute"]) == calls
        assert [len(x) for x in seen["image"]].count(cfg.batch_size) == (
            calls - 2 * cfg.epochs_stage1a)
        for x in seen["attribute"]:
            assert len(np.unique(x, axis=0)) == len(x)
        # S's distinct columns stay in C order, as the batch S is
        assert layouts == [True] * calls
        assert sum(map(len, seen["attribute"])) < sum(map(len, seen["image"]))

    def test_stage1a_steps_match_full_row_gradients(self, monkeypatch):
        """The first step of each pass, taken on the batch's distinct
        attribute rows, equals hashing.gradients on all 128 rows at the
        encoders the step saw: the attribute branch's backward of the
        count-summed dQ is the sum over every copy's."""
        ds, enc = pipeline_sized()
        cfg = TrainConfig(c=63, epochs_stage1a=1, batch_size=128)
        firsts = []  # (encoders before the step, its gradients) per pass
        step = Adam.step

        def spy(self, params, grads):
            if self.t == 0:
                firsts.append((copy.deepcopy(enc), [g.copy() for g in grads]))
            step(self, params, grads)

        monkeypatch.setattr(Adam, "step", spy)
        stage1a(enc, ds, cfg, seed=4)
        batch = np.random.default_rng(4).permutation(len(ds))[:cfg.batch_size]
        assert len(np.unique(ds.attributes[batch], axis=0)) < 60
        s = similarity_matrix(ds.attributes[batch])
        args = (cfg.distance_margin, cfg.theta, cfg.lam)
        assert len(firsts) == 2
        for which, (state, got) in enumerate(firsts):
            want = gradients(state, ds.features[batch],
                             ds.attributes[batch].astype(np.float64), s,
                             *args)[which]
            assert len(got) == len(want) == 6
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.float32
                scale = float(np.abs(w).max())
                assert scale > 0
                assert np.abs(g - w).max() <= self.TOL * scale

    def test_stage2_copies_share_one_target_and_the_expanded_loss(
            self, monkeypatch):
        """Each attribute batch is decoded once per distinct vector, so
        every copy of a vector gets that vector's target; the weighted
        loss equals the loss over every row within 1e-12, its gradient the
        sum of the copies' gradients, and the returned mean is per
        sample."""
        ds, enc = pipeline_sized()
        cfg = TrainConfig(c=63, batch_size=128)
        _, dec = stage1b(cfg, decoder_epochs=0)
        calls = []
        weighted_loss = pipeline._code_loss_and_grad

        def record(a, targets, gamma, counts):
            loss, da = weighted_loss(a, targets, gamma, counts)
            calls.append((np.array(a, copy=True), targets.copy(),
                          counts.copy(), loss, da))
            return loss, da

        monkeypatch.setattr(pipeline, "_code_loss_and_grad", record)
        _, lc_attr = stage2_refine(enc, dec, ds, cfg)
        starts = range(0, len(ds), cfg.batch_size)
        assert len(calls) == 2 * len(starts)
        # each batch's image call takes its rows with counts of one
        assert all((counts == 1).all() for _, _, counts, _, _ in calls[::2])
        calls = calls[1::2]
        total = 0.0
        for start, (a, targets, counts, loss, da) in zip(starts, calls):
            attrs = ds.attributes[start:start + cfg.batch_size]
            copy_of = copies(attrs)
            assert counts.tolist() == np.bincount(copy_of).tolist()
            assert len(a) == len(counts) < len(attrs)
            # a copy decoded on its own gets its vector's target
            full_targets = dec.decode_batch(
                np.multiply(a[copy_of], cfg.kappa, dtype=np.float32))
            assert np.array_equal(full_targets, targets[copy_of])
            want, want_da = code_loss(a[copy_of], full_targets, cfg.gamma)
            assert loss == pytest.approx(want, rel=1e-12)
            group_sum = np.zeros_like(da)
            np.add.at(group_sum, copy_of, want_da)
            assert np.abs(da - group_sum).max() <= 1e-12 * np.abs(da).max()
            total += want * len(attrs)
        assert lc_attr == pytest.approx(total / len(ds), rel=1e-12)


class TestTrainPipeline:
    def _run(self, seed=42):
        ds = small_dataset(seed=2)
        cfg = small_config(seed=seed)
        return train_pipeline(ds, cfg, decoder_epochs=5), ds

    def test_round_structure(self):
        result, ds = self._run()
        rounds = [r.round for r in result.rounds]
        assert rounds[0] == 0
        assert rounds == list(range(len(rounds)))
        assert len(rounds) - 1 <= 2
        assert np.isnan(result.rounds[0].lc_image)
        assert result.rounds[1].lc_image > 0

    def test_single_round_bound(self):
        ds = small_dataset(seed=2)
        cfg = small_config(outer_rounds_max=1)
        result = train_pipeline(ds, cfg, decoder_epochs=3)
        assert [r.round for r in result.rounds] == [0, 1]

    def test_best_state_matches_reported_map(self):
        result, ds = self._run()
        best = result.rounds[result.best_round]
        assert training_map(result.encoders, ds) == best.train_map
        assert best.train_map == max(r.train_map for r in result.rounds)

    def test_round_record_encodes_the_training_images_once(self, monkeypatch):
        """A round's objective and training MAP share one encoding of the
        training images, and the MAP is training_map's."""
        ds = small_dataset(seed=2)
        cfg = small_config()
        encoders = pipeline.initial_encoders(ds, cfg)
        calls = []
        encode = Encoders.encode_images

        def spy(self, x):
            calls.append(x)
            return encode(self, x)

        monkeypatch.setattr(Encoders, "encode_images", spy)
        record = pipeline._round_record(0, encoders, ds, cfg)
        assert len(calls) == 1
        monkeypatch.undo()
        assert record.train_map == training_map(encoders, ds)

    def test_round_record_scores_the_expanded_objective(self):
        """A round's objective, taken on the distinct attribute vectors
        with their counts, is that of every training row's vector within
        1e-12."""
        ds = small_dataset(seed=2)
        cfg = small_config()
        encoders = pipeline.initial_encoders(ds, cfg)
        record = pipeline._round_record(0, encoders, ds, cfg)
        copy_of = copies(ds.attributes)
        assert copy_of.max() + 1 < len(ds)  # the data repeats attribute rows
        _, first = np.unique(copy_of, return_index=True)
        q = encoders.encode_attributes(ds.attributes[first])
        j, parts = objective(encoders.encode_images(ds.features), q[copy_of],
                             similarity_matrix(ds.attributes),
                             cfg.distance_margin, cfg.theta, cfg.lam)
        assert record.j == pytest.approx(j, rel=1e-12)
        got = (record.dll, record.quant, record.balance)
        assert got == pytest.approx(parts, rel=1e-12)

    def test_round_record_without_repeats_is_the_plain_objective(
            self, monkeypatch):
        """With no repeated attribute row, a round's objective is the
        plain call on every row, bit for bit, with S in C order as
        similarity_matrix gives it (an F-ordered S sums its loss matrix in
        another order)."""
        ds = generate_synthetic(SyntheticSpec(
            n_subjects=400, images_per_subject=1, d_attr=40, d_img=16, seed=3))
        assert len(np.unique(ds.attributes, axis=0)) == len(ds)
        cfg = small_config()
        encoders = Encoders.build(ds.d_img, ds.d_attr, 31, hidden=(16,),
                                  init_std=0.3, seed=5)
        layouts = []

        def spy(p, q, s, *args, **kwargs):
            layouts.append(s.flags.c_contiguous)
            return objective(p, q, s, *args, **kwargs)

        monkeypatch.setattr(pipeline, "objective", spy)
        record = pipeline._round_record(0, encoders, ds, cfg)
        assert layouts == [True]
        want = objective(encoders.encode_images(ds.features),
                         encoders.encode_attributes(ds.attributes),
                         similarity_matrix(ds.attributes),
                         cfg.distance_margin, cfg.theta, cfg.lam)
        got = (record.j, (record.dll, record.quant, record.balance))
        assert repr(got) == repr(want)

    def test_deterministic_runs(self):
        (a, _), (b, _) = self._run(), self._run()
        assert params_equal(encoder_params(a.encoders),
                            encoder_params(b.encoders))
        assert np.array_equal(a.decoder.weight_vector(),
                              b.decoder.weight_vector())
        # repr-compare so the round-0 NaN placeholders count as equal
        assert repr(a.rounds) == repr(b.rounds)

    def test_seed_changes_outcome(self):
        (a, _), (b, _) = self._run(seed=42), self._run(seed=43)
        assert not params_equal(encoder_params(a.encoders),
                                encoder_params(b.encoders))

    def test_margin_checked_before_stage1a(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("stage 1a ran before the margin was checked")

        monkeypatch.setattr(pipeline, "stage1a", fail)
        with pytest.raises(UnsatisfiableMarginError):
            train_pipeline(small_dataset(), small_config(margin=20.0))

    def test_report_file(self, tmp_path):
        result, _ = self._run()
        path = tmp_path / "report.csv"
        write_report(path, REPORT_HEADER, map(astuple, result.rounds))
        lines = path.read_text().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == len(result.rounds) + 1
        first = lines[1].split(", ")
        assert first[0] == "0"
        assert first[5] == "nan"
