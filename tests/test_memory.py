"""tracemalloc peaks of the gallery path at 10^4 to 10^5 items.

Each bound is the arrays a call must build plus a little slack, so a
full-size temporary (an unused copy of the features, a layer's
pre-activation beside its activation, a per-entry index array of a 0/1
check) fails it.  Entry checks, sign hashing and word packing walk a
gallery-sized array in pieces of `_checks.PIECE` entries, so their bound
is the arrays they keep plus one float64 piece (256 KiB), less than the
boolean mask of one 10^5 x 63 array (6.0 MiB).
"""

import tracemalloc

import numpy as np
import pytest

from codedhash import cli, pipeline
from codedhash._checks import PIECE
from codedhash.bp import TannerGraph
from codedhash.data import (Dataset, SyntheticSpec, generate_synthetic,
                            load_dataset, save_dataset)
from codedhash.hashing import (FORWARD_ROWS, Encoders, load_encoders, save_encoders,
                              sign_hash)
from codedhash.neural_bp import NeuralBpDecoder
from codedhash.retrieval import build_index
from codedhash.textio import CHUNK_ROWS

MiB = 2 ** 20
PIECE_BYTES = PIECE * 8  # one piece of float64 entries


def traced_peak(fn, *args):
    """(peak bytes allocated while fn runs, fn's result)."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def rejected(fn, *args):
    """fn(*args) with the ValueError of a non-finite input."""
    with pytest.raises(ValueError, match="finite"):
        fn(*args)


@pytest.fixture(scope="module")
def gallery():
    """10^5 items: 1000 subjects x 100 images, 40 attributes, 128 features."""
    return generate_synthetic(SyntheticSpec(n_subjects=1000,
                                            images_per_subject=100, seed=4))


@pytest.mark.parametrize("rows", [10_000, 100_000])
def test_encode_images_keeps_one_array_per_layer(rows):
    enc = Encoders.build(d_img=128, d_attr=40, code_length=63, seed=0)
    x = np.random.default_rng(0).normal(size=(rows, 128))
    peak, out = traced_peak(enc.encode_images, x)
    # the output, and the activations of at most FORWARD_ROWS rows at a
    # time: a bound that does not grow with the row count past the output
    piece = FORWARD_ROWS * (512 + 512 + 63) * enc.image.weights[0].itemsize
    assert peak <= out.nbytes + piece + 2 * MiB


def test_generate_synthetic_within_its_outputs():
    spec = SyntheticSpec(n_subjects=1000, images_per_subject=100, seed=4)
    peak, ds = traced_peak(generate_synthetic, spec)
    assert ds.features.shape == (100_000, 128)
    kept = ds.features.nbytes + ds.attributes.nbytes + ds.subject_ids.nbytes
    prototypes = spec.n_subjects * spec.d_img * 8
    # the dataset itself and the float64 per-subject prototypes added into
    # its features (0.98 MiB); the slack covers the generator's own
    # allocations, and Dataset's checks hold one piece, where a finiteness
    # mask of the features would add 12.2 MiB
    assert peak <= kept + prototypes + 2 * MiB


def test_load_dataset_holds_float32_runs(tmp_path):
    spec = SyntheticSpec(n_subjects=1000, images_per_subject=10, seed=2)
    path = tmp_path / "gallery.txt"
    save_dataset(generate_synthetic(spec), path)
    peak, ds = traced_peak(load_dataset, path)
    rows = spec.n_subjects * spec.images_per_subject
    # the float32 output, int64 ids and uint8 attributes (5.3 MiB): once
    # as the runs read_records yields and once as their concatenation,
    # plus one run's float64 feature parse (1.0 MiB) and its text; float64
    # runs and output would add 9.8 MiB
    output = rows * (spec.d_img * 4 + spec.d_attr + 8)
    run_parse = CHUNK_ROWS * spec.d_img * 8
    assert peak <= 2 * output + run_parse + MiB
    assert len(ds) == rows and ds.features.dtype == np.float32


def test_subset_builds_only_its_output():
    ds = generate_synthetic(SyntheticSpec(n_subjects=2000,
                                          images_per_subject=10, seed=3))
    idx = np.arange(0, len(ds), 2)
    peak, sub = traced_peak(ds.subset, idx)
    # the three indexed fields (5.3 MiB for 10^4 rows) and Dataset's
    # checks, which hold one piece; a copy of each field would double it
    output = (sub.subject_ids.nbytes + sub.attributes.nbytes
              + sub.features.nbytes)
    assert len(sub) == 10_000
    assert peak <= output + MiB


def test_stage1a_memory_grows_linearly_with_distinct_vectors():
    """One stage-1a epoch at 1000 and 4000 rows, every attribute vector
    distinct: each batch's S covers the batch's own distinct vectors, so
    the peak grows by per-row arrays only."""
    config = pipeline.TrainConfig(epochs_stage1a=1)
    peaks = {}
    for rows in (1000, 4000):
        ds = generate_synthetic(SyntheticSpec(n_subjects=rows,
                                              images_per_subject=1, seed=5))
        assert len(np.unique(ds.attributes, axis=0)) == rows
        enc = Encoders.build(ds.d_img, ds.d_attr, 63, init_std=0.1, seed=0)
        peaks[rows], _ = traced_peak(pipeline.stage1a, enc, ds, config, 1)
        params = sum(p.nbytes for p in enc.image.parameters()
                     + enc.attribute.parameters())
        # Adam's two moments and a step's gradients of the float32
        # weights (2.6 MiB), and at most 1 KiB a row: the attribute input
        # in float32, the grouping, the epoch's batches with their S rows
        assert peaks[rows] <= 3 * params + rows * 1024 + 2 * MiB
    # a table of all 4000 distinct vectors would add 15.3 MiB in uint8 and
    # 122 MiB for its float64 product
    assert peaks[4000] - peaks[1000] <= 3000 * 1024 + MiB


def test_dataset_validation_at_1e5_items(gallery):
    peak, _ = traced_peak(Dataset, gallery.subject_ids, gallery.attributes,
                          gallery.features)
    # the checks walk the arrays in pieces: no mask of the features
    # (12.2 MiB) or of the attributes
    assert peak <= PIECE_BYTES


@pytest.mark.parametrize("kind", ["activations", "codes"])
def test_build_index_at_1e5_items(gallery, kind):
    values = np.random.default_rng(5).normal(size=(len(gallery), 63))
    if kind == "codes":
        values = sign_hash(values)
    peak, index = traced_peak(build_index, values, gallery.subject_ids,
                              gallery.attributes)
    # the packed words, and the new int8 codes of hashed activations; int8
    # codes and uint8 attributes are shared, not counted.  sign_hash, the
    # +-1 and 0/1 checks and the packing hold one piece's masks, where one
    # mask of the codes would add 6.0 MiB
    kept = index.words.nbytes + index.attribute_words.nbytes
    if kind == "activations":
        kept += index.codes.nbytes
    assert peak <= kept + PIECE_BYTES


def test_sign_hash_builds_only_its_output():
    values = np.random.default_rng(6).normal(size=(100_000, 63))
    peak, codes = traced_peak(sign_hash, values)
    # the int8 codes, and one piece's NaN mask
    assert peak <= codes.nbytes + PIECE_BYTES


def test_decode_holds_one_block():
    config = pipeline.TrainConfig()
    code = pipeline.select_code(config.margin, config.c)
    net = NeuralBpDecoder(TannerGraph(code.parity_check), iterations=5)
    llrs = np.random.default_rng(7).normal(0.0, 2.5, size=(10_000, code.n))
    # the largest block a batch of more than 64 frames is decoded in
    block, _ = traced_peak(net.decode_batch, llrs[:127])
    peak, hard = traced_peak(net.decode_batch, llrs)
    assert hard.shape == llrs.shape
    # float64 soft outputs, uint8 hard bits and one block's messages
    assert peak <= llrs.size * (8 + 1) + block
    # the LLR check, alone in a rejected call, holds one piece's
    # finiteness mask, not one of the input (0.60 MiB)
    bad = llrs.copy()
    bad[-1, -1] = np.nan
    peak, _ = traced_peak(rejected, net.decode_batch, bad)
    assert peak <= PIECE_BYTES


def test_loss_and_grads_holds_its_layer_cache_and_workspace():
    config = pipeline.TrainConfig()
    code = pipeline.select_code(config.margin, config.c)
    net = NeuralBpDecoder(TannerGraph(code.parity_check), iterations=5)
    rng = np.random.default_rng(8)
    llrs = rng.normal(0.0, 2.5, size=(128, code.n))
    targets = rng.integers(0, 2, size=llrs.shape)
    peak, _ = traced_peak(net.loss_and_grads, llrs, targets)
    # the layer cache is three (edges, frames) float64 arrays per layer;
    # the workspace tables, of which the sibling tables span only the
    # variables of degree >= 2, and the backward's temporaries take less
    # than the cache again (a bound of 15.6 MiB on BCH(63,30) at 128
    # frames)
    cache = 3 * net.iterations * net.graph.num_edges * llrs.shape[0] * 8
    assert peak <= 2 * cache


@pytest.mark.parametrize("modality", ["image", "attribute"])
def test_encode_command_streams_the_gallery(tmp_path, modality):
    block = tmp_path / "block.txt"
    save_dataset(generate_synthetic(SyntheticSpec(n_subjects=1000,
                                                  images_per_subject=1,
                                                  seed=1)), block)
    enc = Encoders.build(128, 40, 63, seed=0)
    save_encoders(enc, tmp_path / "enc.bin")
    piece = (FORWARD_ROWS * (512 + 512 + 63)
             * getattr(enc, modality).weights[0].itemsize)
    peaks = {}
    for rows in (10_000, 40_000):
        gallery = tmp_path / f"gallery-{rows}.txt"
        gallery.write_text(block.read_text() * (rows // 1000))
        peak, rc = traced_peak(cli.main, [
            "encode", "--encoders", str(tmp_path / "enc.bin"), "--data",
            str(gallery), "--modality", modality, "--out", str(tmp_path / "c.txt")])
        assert rc == 0
        codes = rows * 63
        # one piece's activations and the int8 codes (the pieces' and their
        # concatenation); the slack covers one branch's weights (1.4 MiB),
        # the rows of the pieces waiting to be encoded, and one run's text
        assert peak <= piece + 2 * codes + 8 * MiB
        peaks[rows] = peak
    assert peaks[40_000] - peaks[10_000] <= 2 * 30_000 * 63 + MiB


def test_retrieve_command_holds_one_query_block(tmp_path):
    gallery = generate_synthetic(SyntheticSpec(n_subjects=1000,
                                               images_per_subject=10, seed=2))
    data, enc, codes = (tmp_path / name for name in (
        "gallery.txt", "enc.bin", "codes.txt"))
    save_dataset(gallery, data)
    save_encoders(Encoders.build(128, 40, 63, seed=0), enc)
    cli.write_codes(codes, sign_hash(
        np.random.default_rng(9).normal(size=(len(gallery), 63))))
    masks = ["".join("1" if j == i else "0" for j in range(40))
             for i in range(40)]
    peaks = {}
    for queries in (4, 40):
        peak, rc = traced_peak(cli.main, [
            "retrieve", "--encoders", str(enc), "--data", str(data),
            "--codes", str(codes), "--out", str(tmp_path / "r.txt")]
            + [a for q in masks[:queries] for a in ("--query", q)])
        assert rc == 0
        peaks[queries] = peak
    # each ranked block (int64 ids, distances and grades: 0.23 MiB at 10^4
    # items) is written before the next query is ranked
    assert peaks[40] - peaks[4] <= MiB


def test_eval_command_holds_one_query_block(tmp_path):
    gallery = generate_synthetic(SyntheticSpec(n_subjects=1000,
                                               images_per_subject=10, seed=3))
    data, enc, codes = (tmp_path / name for name in (
        "gallery.txt", "enc.bin", "codes.txt"))
    save_dataset(gallery, data)
    save_encoders(Encoders.build(128, 40, 63, seed=0), enc)
    cli.write_codes(codes, sign_hash(
        np.random.default_rng(10).normal(size=(len(gallery), 63))))
    masks = ["".join("1" if j == i else "0" for j in range(40))
             for i in range(40)]
    peaks = {}
    for queries in (4, 40):
        rankings = tmp_path / f"r{queries}.txt"
        assert cli.main([
            "retrieve", "--encoders", str(enc), "--data", str(data),
            "--codes", str(codes), "--out", str(rankings)]
            + [a for q in masks[:queries] for a in ("--query", q)]) == 0
        peak, rc = traced_peak(cli.main, [
            "eval", "--rankings", str(rankings), "--out",
            str(tmp_path / "metrics.csv")])
        assert rc == 0
        peaks[queries] = peak
    # each block (a mask and three int64 columns: 0.23 MiB at 10^4 items)
    # is scored and dropped before the next is parsed; 36 more held blocks
    # would add 8 MiB
    assert peaks[40] - peaks[4] <= MiB


def test_load_encoders_holds_one_copy(tmp_path):
    path = tmp_path / "enc.bin"
    save_encoders(Encoders.build(128, 40, 63, seed=0), path)
    peak, enc = traced_peak(load_encoders, path)
    params = enc.image.parameters() + enc.attribute.parameters()
    payload = sum(p.nbytes for p in params)
    # each branch's float32 weights (1.38 and 1.21 MiB) exceed the slack,
    # so a second copy of either branch fails the bound
    assert all(sum(p.nbytes for p in net.parameters()) > MiB
               for net in (enc.image, enc.attribute))
    # the weights once: no second copy of the file's bytes or the arrays
    assert peak <= payload + MiB
