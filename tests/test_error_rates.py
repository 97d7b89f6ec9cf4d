"""Monte-Carlo error rates decoded on several threads: the rates equal a
serial reference loop for any worker count, decoding a batch in pieces or
from two threads at once gives the serial hard bits, and a failing piece
surfaces its exception and leaves no thread behind."""

import sys
import threading

import numpy as np
import pytest

from codedhash import channel, neural_bp, pipeline
from codedhash.bp import BpDecoder, TannerGraph
from codedhash.channel import awgn, bpsk_modulate, llr_from_channel
from codedhash.neural_bp import NeuralBpDecoder, evaluate_error_rates


def pipeline_code(c=None):
    """The code the default training configuration selects: BCH(63,30), or
    the length-c one."""
    config = pipeline.TrainConfig()
    return pipeline.select_code(config.margin, config.c if c is None else c)


def serial_error_rates(decoder, code, snr_db, frames, seed):
    """Reference: the single-threaded Monte-Carlo loop, one decode_batch
    call per batch of 2048 random codewords."""
    rng = np.random.default_rng(seed)
    bit_errors = 0
    frame_errors = 0
    done = 0
    gen = code.generator.astype(np.int64)
    while done < frames:
        b = min(2048, frames - done)
        msgs = rng.integers(0, 2, size=(b, code.k))
        words = (msgs @ gen % 2).astype(np.uint8)
        received, sigma = awgn(bpsk_modulate(words), snr_db, rng, rate=code.rate)
        llrs = llr_from_channel(received, sigma)
        hard = decoder.decode_batch(llrs)
        errs = hard != words
        bit_errors += int(errs.sum())
        frame_errors += int(errs.any(axis=1).sum())
        done += b
    return bit_errors / (frames * code.n), frame_errors / frames


def make_decoder(kind, code):
    graph = TannerGraph(code.parity_check)
    if kind == "classic":
        return BpDecoder(graph, iterations=20, early_stop=True)
    net = NeuralBpDecoder(graph, 5)
    rng = np.random.default_rng(7)
    net.set_weight_vector(rng.uniform(0.5, 1.5, size=net.num_weights))
    return net


def noisy_llrs(code, frames, snr_db, seed):
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, 2, size=(frames, code.k))
    words = msgs @ code.generator.astype(np.int64) % 2
    received, sigma = channel.awgn(bpsk_modulate(words), snr_db, rng, rate=code.rate)
    return llr_from_channel(received, sigma)


CODES = {"bch63": pipeline_code(), "bch127": pipeline_code(127)}


@pytest.mark.parametrize("frames", [1, 3, 257, 2049])
@pytest.mark.parametrize("kind", ["neural", "classic"])
def test_rates_equal_serial_loop_for_any_worker_count(kind, frames, monkeypatch):
    code = CODES["bch63"]
    decoder = make_decoder(kind, code)
    expected = serial_error_rates(decoder, code, 2.0, frames, seed=frames)
    if frames >= 257:
        assert expected[0] > 0.0  # errors occur, so the comparison has teeth
    for workers in (1, 2, 3):
        monkeypatch.setattr(neural_bp, "_worker_count", lambda: workers)
        got = evaluate_error_rates(decoder, code, 2.0, frames, seed=frames)
        assert got == expected, f"{workers} workers"


@pytest.mark.parametrize("code_name", sorted(CODES))
@pytest.mark.parametrize("kind", ["neural", "classic"])
class TestSplitDecoding:
    def test_pieces_concatenate_to_whole_batch(self, kind, code_name):
        code = CODES[code_name]
        decoder = make_decoder(kind, code)
        llrs = noisy_llrs(code, 512, 2.0, seed=3)
        whole = decoder.decode_batch(llrs)
        assert whole.shape == (512, code.n)
        for pieces in (2, 3, 7):
            parts = [decoder.decode_batch(p) for p in np.array_split(llrs, pieces)]
            assert np.array_equal(np.concatenate(parts), whole), f"{pieces} pieces"

    def test_two_threads_on_one_decoder_match_serial(self, kind, code_name):
        code = CODES[code_name]
        decoder = make_decoder(kind, code)
        batches = [noisy_llrs(code, 256, 2.0, seed=s) for s in (4, 5)]
        expected = [decoder.decode_batch(b) for b in batches]
        results = [[], []]

        def run(i):
            for _ in range(3):
                results[i].append(decoder.decode_batch(batches[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in (0, 1):
            assert len(results[i]) == 3
            for hard in results[i]:
                assert np.array_equal(hard, expected[i])


class PieceFailure(RuntimeError):
    pass


class FailsOffCallingThread:
    """Decodes like `inner` on the calling thread, raises anywhere else."""

    def __init__(self, inner, caller):
        self.inner = inner
        self.caller = caller

    def decode_batch(self, llrs):
        if threading.current_thread() is not self.caller:
            raise PieceFailure("worker piece failed")
        return self.inner.decode_batch(llrs)


def test_worker_exception_is_reraised_and_threads_end(monkeypatch):
    code = CODES["bch63"]
    decoder = FailsOffCallingThread(make_decoder("classic", code),
                                    threading.current_thread())
    monkeypatch.setattr(neural_bp, "_worker_count", lambda: 2)
    before = threading.active_count()
    with pytest.raises(PieceFailure, match="worker piece failed"):
        evaluate_error_rates(decoder, code, 2.0, frames=256, seed=1)
    assert threading.active_count() == before


@pytest.mark.parametrize("workers, frames", [(1, 4096), (2, 127)])
def test_one_piece_batches_stay_on_the_calling_thread(workers, frames,
                                                       monkeypatch):
    """One worker, or a batch too small to split, decodes every frame on
    the calling thread: the pool starts no thread of its own."""
    code = CODES["bch63"]
    decoder = FailsOffCallingThread(make_decoder("classic", code),
                                    threading.current_thread())
    monkeypatch.setattr(neural_bp, "_worker_count", lambda: workers)
    want = serial_error_rates(decoder.inner, code, 2.0, frames, seed=4)
    assert evaluate_error_rates(decoder, code, 2.0, frames, seed=4) == want


def test_no_thread_outlives_a_call(monkeypatch):
    code = CODES["bch63"]
    decoder = make_decoder("neural", code)
    before = threading.active_count()
    for workers in (1, 2, 3):
        monkeypatch.setattr(neural_bp, "_worker_count", lambda: workers)
        evaluate_error_rates(decoder, code, 3.0, frames=300, seed=2)
        assert threading.active_count() == before


class RecordsBatches:
    """Decodes like `inner` and records each call's frame count."""

    def __init__(self, inner):
        self.inner = inner
        self.sizes = []

    def decode_batch(self, llrs):
        self.sizes.append(len(llrs))
        return self.inner.decode_batch(llrs)


@pytest.mark.parametrize("frames, workers, sizes", [
    (127, 2, [127]),            # two pieces would be under 64 frames
    (128, 2, [64, 64]),
    (200, 3, [67, 67, 66]),     # 200 // 64 = 3 pieces
    (1000, 2, [500, 500]),      # capped at the worker count
    (130, 8, [65, 65]),
])
def test_batches_split_in_pieces_of_at_least_64_frames(frames, workers, sizes,
                                                        monkeypatch):
    code = CODES["bch63"]
    decoder = RecordsBatches(make_decoder("classic", code))
    monkeypatch.setattr(neural_bp, "_worker_count", lambda: workers)
    evaluate_error_rates(decoder, code, 3.0, frames=frames, seed=5)
    assert sorted(decoder.sizes, reverse=True) == sizes


def test_worker_count_falls_back_to_cpu_count(monkeypatch):
    assert neural_bp._worker_count() >= 1
    monkeypatch.delattr(neural_bp.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(neural_bp.os, "cpu_count", lambda: 5)
    assert neural_bp._worker_count() == 5
    monkeypatch.setattr(neural_bp.os, "cpu_count", lambda: None)
    assert neural_bp._worker_count() == 1
