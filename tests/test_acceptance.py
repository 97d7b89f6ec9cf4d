"""Acceptance gate: one test per release criterion.

Each test is self-contained (its own fixtures and oracles) and checks one
externally stated property of the package, from codec correctness up to the
end-to-end retrieval trend.  Run with ``pytest -v tests/test_acceptance.py``
to get one pass/fail line per criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from codedhash.bp import BpDecoder, TannerGraph, bp_decode_batch
from codedhash.cli import main
from codedhash.data import SyntheticSpec, generate_synthetic
from codedhash.gf2 import bch_code_table, build_bch
from codedhash.hashing import (
    Encoders,
    Mlp,
    gradients,
    match_probability,
    objective,
    sign_hash,
)
from codedhash.neural_bp import (
    DecoderTrainConfig,
    NeuralBpDecoder,
    evaluate_error_rates,
    train_decoder,
)
from codedhash.pipeline import TrainConfig, train_pipeline, training_map
from codedhash.retrieval import (
    average_precision,
    build_index,
    enumerate_query_masks,
    evaluate_queries,
    ndcg_at_k,
)
from gf2_oracles import bounded_distance_decode
from retrieval_oracles import score_rankings


# --------------------------------------------------------------------------
# 1. BCH codec: published (k, t) ladder and exhaustive bounded-distance
#    correction on the two enumerable codes.
# --------------------------------------------------------------------------

LADDER_63 = {
    (51, 2), (45, 3), (39, 4), (36, 5), (30, 6),
    (24, 7), (18, 10), (16, 11), (10, 13),
}


def all_codewords(code):
    msgs = ((np.arange(1 << code.k)[:, None] >> np.arange(code.k)) & 1)
    return (msgs.astype(np.uint8) @ code.generator % 2).astype(np.uint8)


def error_patterns(n, t):
    yield np.zeros(n, dtype=np.uint8)
    for w in range(1, t + 1):
        for pos in itertools.combinations(range(n), w):
            e = np.zeros(n, dtype=np.uint8)
            e[list(pos)] = 1
            yield e


def test_criterion_1_bch_ladder_and_exhaustive_correction():
    start = time.monotonic()
    table = {(k, t) for _, k, t in bch_code_table(6)}
    assert LADDER_63 <= table
    for k_expect, t in sorted(LADDER_63):
        code = build_bch(6, t)
        assert (code.n, code.k, code.t) == (63, k_expect, t)
    for m, t, n_expect, k_expect in ((5, 2, 31, 21), (6, 3, 63, 45),
                                     (7, 5, 127, 92)):
        code = build_bch(m, t)
        assert (code.n, code.k, code.t) == (n_expect, k_expect, t)

    for m, t in ((3, 1), (4, 2)):
        code = build_bch(m, t)
        words = all_codewords(code)
        patterns = list(error_patterns(code.n, code.t))
        for word in words:
            for e in patterns:
                decoded = bounded_distance_decode(word ^ e, code)
                assert decoded is not None
                assert np.array_equal(decoded, word)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 1: ladder + exhaustive decode ok in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Unit-weight network == classic flooding BP on BCH(15,7).
# --------------------------------------------------------------------------

def test_criterion_2_unit_network_matches_classic_bp():
    code = build_bch(4, 2)
    graph = TannerGraph(code.parity_check)
    net = NeuralBpDecoder(graph, iterations=5)
    rng = np.random.default_rng(20)
    llrs = rng.normal(0.0, 2.5, size=(1000, code.n))

    soft, hard = net.forward(llrs)
    bp_hard, bp_post, _ = bp_decode_batch(llrs, graph, iterations=5,
                                          early_stop=False,
                                          clamp=net.atanh_clamp)
    assert np.array_equal(hard, bp_hard)
    expected = 1.0 / (1.0 + np.exp(np.clip(bp_post, -36.0, 36.0)))
    worst = float(np.max(np.abs(soft - expected)))
    assert worst <= 1e-9
    print(f"criterion 2: 1000 frames bit-exact, soft max diff {worst:.2e}")


# --------------------------------------------------------------------------
# 3. Training the decoder does not hurt: trained BER <= unit-weight BER at
#    4 dB over 10^4 frames, same noise for both.
# --------------------------------------------------------------------------

def test_criterion_3_trained_decoder_beats_unit_bp():
    start = time.monotonic()
    code = build_bch(4, 2)
    graph = TannerGraph(code.parity_check)
    net = NeuralBpDecoder(graph, iterations=5)
    train_decoder(net, code, DecoderTrainConfig(epochs=800,
                                                frames_per_epoch=512,
                                                seed=1))
    unit = BpDecoder(graph, iterations=5)
    trained_ber, _ = evaluate_error_rates(net, code, 4.0, 10000, seed=7)
    unit_ber, _ = evaluate_error_rates(unit, code, 4.0, 10000, seed=7)
    elapsed = time.monotonic() - start
    assert trained_ber <= unit_ber
    assert elapsed < 600.0
    print(f"criterion 3: BER {trained_ber:.5f} (trained) vs {unit_ber:.5f} "
          f"(unit) in {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 4. Analytic gradients match central finite differences on 20 random
#    small instances for both trainable components.
# --------------------------------------------------------------------------

FD_STEP = 1e-6
FD_TOL = 1e-5


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def test_criterion_4_hashing_gradients_match_finite_differences():
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        built = Encoders.build(5, 4, 8, hidden=(6,), init_std=0.5,
                               seed=int(rng.integers(1 << 31)))
        # float64 networks of the built (float32) weights: the central
        # difference needs float64's digits
        enc = Encoders(*(Mlp([w.astype(np.float64) for w in net.weights],
                             [b.astype(np.float64) for b in net.biases])
                         for net in (built.image, built.attribute)))
        x = rng.normal(size=(3, 5))
        y = rng.normal(size=(3, 4))
        s = rng.integers(0, 2, size=(3, 3)).astype(np.uint8)
        margin, theta, lam = 8.0, 1.0, 0.5

        img_grads, attr_grads, _, _ = gradients(enc, x, y, s, margin,
                                                theta, lam)

        def j_value():
            p = enc.image.forward(x)
            q = enc.attribute.forward(y)
            return objective(p, q, s, margin, theta, lam)[0]

        params = list(enc.image.parameters()) + list(enc.attribute.parameters())
        grads = list(img_grads) + list(attr_grads)
        for _ in range(8):
            which = int(rng.integers(len(params)))
            arr, grad = params[which], grads[which]
            flat = int(rng.integers(arr.size))
            idx = np.unravel_index(flat, arr.shape)
            keep = arr[idx]
            arr[idx] = keep + FD_STEP
            up = j_value()
            arr[idx] = keep - FD_STEP
            down = j_value()
            arr[idx] = keep
            fd = (up - down) / (2.0 * FD_STEP)
            assert rel_err(fd, grad[idx]) < FD_TOL
    print("criterion 4a: 20 hashing instances x 8 weights ok")


def test_criterion_4_decoder_gradients_match_finite_differences():
    code = build_bch(3, 1)
    graph = TannerGraph(code.parity_check)
    for trial in range(20):
        rng = np.random.default_rng(200 + trial)
        net = NeuralBpDecoder(graph, iterations=2)
        net.set_weight_vector(1.0 + 0.2 * rng.standard_normal(net.num_weights))
        llrs = rng.normal(0.0, 2.0, size=(4, code.n))
        targets = rng.integers(0, 2, size=(4, code.n))

        _, grads = net.loss_and_grads(llrs, targets)
        params = net.parameters()
        for _ in range(6):
            which = int(rng.integers(len(params)))
            arr = params[which]
            idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
            keep = arr[idx]
            arr[idx] = keep + FD_STEP
            up, _ = net.loss_and_grads(llrs, targets)
            arr[idx] = keep - FD_STEP
            down, _ = net.loss_and_grads(llrs, targets)
            arr[idx] = keep
            fd = (up - down) / (2.0 * FD_STEP)
            assert rel_err(fd, grads[which][idx]) < FD_TOL
    print("criterion 4b: 20 decoder instances x 6 weights ok")


# --------------------------------------------------------------------------
# 5. Closed-form checks of the pairwise match probability.
# --------------------------------------------------------------------------

def test_criterion_5_match_probability_closed_form():
    for m in (2.0, 4.0, 6.0, 8.0):
        assert match_probability(np.array(0.0), m) == 1.0
        at_margin = float(match_probability(np.array(m), m))
        assert abs(at_margin - (1.0 + math.exp(-m)) / 2.0) <= 1e-12
    grid = np.linspace(0.0, 24.0, 100)
    values = match_probability(grid, 6.0)
    assert np.all(np.diff(values) < 0)
    print("criterion 5: exact endpoints and strict decrease ok")


# --------------------------------------------------------------------------
# 6. BP is exact on a cycle-free graph: 3-bit repetition code posteriors
#    vs brute-force enumeration.
# --------------------------------------------------------------------------

def brute_force_posteriors(llrs, codewords):
    """Exact bitwise posterior LLRs by summing over all codewords."""
    weights = -codewords.astype(np.float64) @ llrs.T  # (words, batch) log-weights
    out = np.empty_like(llrs)
    for v in range(codewords.shape[1]):
        on = codewords[:, v] == 1
        num = np.logaddexp.reduce(weights[~on], axis=0)
        den = np.logaddexp.reduce(weights[on], axis=0)
        out[:, v] = num - den
    return out


def test_criterion_6_tree_bp_matches_brute_force():
    h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    graph = TannerGraph(h)
    codewords = np.array([[0, 0, 0], [1, 1, 1]], dtype=np.uint8)
    rng = np.random.default_rng(31)
    llrs = rng.normal(0.0, 2.0, size=(1000, 3))
    _, posteriors, _ = bp_decode_batch(llrs, graph, iterations=2,
                                       early_stop=False)
    exact = brute_force_posteriors(llrs, codewords)
    worst = float(np.max(np.abs(posteriors - exact)))
    assert worst <= 1e-9
    print(f"criterion 6: 1000 frames, max posterior diff {worst:.2e}")


# --------------------------------------------------------------------------
# 7. End-to-end trend on seeded synthetic data: the refinement loop does not
#    lose training MAP, and test MAP decreases with query arity.
# --------------------------------------------------------------------------

def test_criterion_7_end_to_end_retrieval_trend():
    start = time.monotonic()
    ds = generate_synthetic(SyntheticSpec(n_subjects=50, images_per_subject=10,
                                          d_attr=40, d_img=128, seed=0))
    idx = np.arange(len(ds))
    train = ds.subset(idx[idx % 10 < 8])
    test = ds.subset(idx[idx % 10 >= 8])

    result = train_pipeline(train, TrainConfig(seed=0))
    assert (result.code.n, result.code.k, result.code.t) == (63, 30, 6)

    stage1a_map = result.rounds[0].train_map
    final_map = training_map(result.encoders, train)
    assert final_map >= stage1a_map

    gallery = build_index(sign_hash(result.encoders.encode_images(test.features)),
                          test.subject_ids, test.attributes)
    maps = []
    for arity, seed in ((1, 11), (2, 12), (3, 13)):
        masks = enumerate_query_masks(test.d_attr, arity,
                                      max_queries=100, seed=seed)
        ev = evaluate_queries(result.encoders.encode_attributes, gallery, masks)
        assert ev.skipped_map == 0
        maps.append(ev.mean_average_precision)
    assert maps[0] >= maps[1] >= maps[2]
    elapsed = time.monotonic() - start
    assert elapsed < 1800.0
    print(f"criterion 7: train MAP {stage1a_map:.4f} -> {final_map:.4f}, "
          f"test MAP by arity {maps[0]:.4f} >= {maps[1]:.4f} >= {maps[2]:.4f} "
          f"in {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 8. Ranking metrics reproduce hand-computed fixtures.
# --------------------------------------------------------------------------

def test_criterion_8_metric_fixtures():
    assert average_precision(np.array([1, 0, 1])) == pytest.approx(5.0 / 6.0,
                                                                   abs=1e-12)
    assert average_precision(np.array([0, 1])) == pytest.approx(0.5, abs=1e-12)
    assert average_precision(np.array([1, 1, 1])) == 1.0
    assert average_precision(np.array([0, 0, 1, 1])) == pytest.approx(
        (1.0 / 3.0 + 2.0 / 4.0) / 2.0, abs=1e-12)
    two_queries = [np.array([1, 0, 1]), np.array([0, 1])]
    scored = score_rankings(two_queries, two_queries)
    assert scored.mean_average_precision == pytest.approx(
        (5.0 / 6.0 + 0.5) / 2.0, abs=1e-12)
    assert scored.skipped_map == 0

    # binary gains (0, 1) at k=2: DCG = 1/log2(3), ideal = 1
    assert ndcg_at_k(np.array([0, 1]), 2) == pytest.approx(
        0.6309297535714575, abs=1e-12)
    # graded (1, 2, 0) at k=3 against ideal ordering (2, 1, 0)
    assert ndcg_at_k(np.array([1, 2, 0]), 3) == pytest.approx(
        0.7967075809905066, abs=1e-12)
    assert ndcg_at_k(np.array([3, 2, 1]), 3) == 1.0
    print("criterion 8: 8 hand-computed fixtures ok")


# --------------------------------------------------------------------------
# 9. Full-run determinism at the command-line level: identical seeds give
#    bit-identical artifacts, codes, and rankings.
# --------------------------------------------------------------------------

DETERMINISM_CONFIG = """
c = 31
m = 2
epochs_stage1a = 2
outer_rounds_max = 1
patience = 1
batch_size = 8
L = 3
seed = 5
"""


def test_criterion_9_full_run_determinism(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(DETERMINISM_CONFIG)
    data = tmp_path / "data.txt"
    assert main(["gen-data", "--out", str(data), "--subjects", "8",
                 "--images-per-subject", "2", "--seed", "3"]) == 0

    def run(tag):
        out = tmp_path / tag
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out-dir", str(out), "--decoder-epochs", "5"]) == 0
        assert main(["encode", "--encoders", str(out / "encoders.bin"),
                     "--data", str(data), "--modality", "image",
                     "--out", str(out / "codes.txt")]) == 0
        assert main(["retrieve", "--encoders", str(out / "encoders.bin"),
                     "--data", str(data), "--codes", str(out / "codes.txt"),
                     "--query", "1" + "0" * 39, "--query", "01" + "0" * 38,
                     "--out", str(out / "rankings.txt")]) == 0
        return out

    first, second = run("a"), run("b")
    for name in ("encoders.bin", "decoder.bin", "code.txt", "report.csv",
                 "codes.txt", "rankings.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    print("criterion 9: two seeded runs bit-identical across 6 artifacts")
