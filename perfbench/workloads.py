"""The four benchmark workloads, driven through codedhash's public API.

Every workload is a closed loop: one process, one caller, each call waiting
on the previous result.  ``setup`` makes the inputs from the seed, ``run_pass``
is the timed section, and ``checks`` compares outputs with references that
do not share the code under test.  A pass returns a fingerprint of its
deterministic outputs; all passes of a run see the same inputs, so their
fingerprints must be identical, traced or not.

Library calls go through module attributes (``retrieval.rank``) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from codedhash import (bp, channel, cli, data, hashing, neural_bp, pipeline,
                       retrieval)

D_ATTR = 40
D_IMG = 128


@dataclass
class PassResult:
    ops: int                  # operations attempted in the pass
    fingerprint: dict         # deterministic outputs, equal in every pass
    failed: int = 0           # operations that returned an error
    timings: dict = field(default_factory=dict)


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _held_out_split(dataset):
    """Images 0-7 of every subject train, images 8-9 test."""
    image = np.arange(len(dataset)) % 10
    return dataset.subset(image < 8), dataset.subset(image >= 8)


def _answerable_masks(attributes, arity, count, rng):
    """Up to `count` arity-k masks, sampled among those with at least one
    binary-relevant gallery item, so MAP skips no query."""
    masks = retrieval.enumerate_query_masks(attributes.shape[1], arity)
    held = attributes.astype(np.int64) @ masks.T.astype(np.int64)
    masks = masks[(held == arity).any(axis=0)]
    if len(masks) > count:
        masks = masks[np.sort(rng.choice(len(masks), size=count, replace=False))]
    return masks


def _quality(evaluations):
    out = {}
    for arity, ev in evaluations.items():
        out[f"map_a{arity}"] = ev.mean_average_precision
        out[f"ndcg_a{arity}"] = ev.ndcg
        out[f"skipped_map_a{arity}"] = ev.skipped_map
    return out


class TrainC63:
    """The criterion-7 training run at reduced size.

    Stage 1a runs 10 epochs per call instead of 40, the decoder trains for
    24 epochs instead of 150, and there are two outer rounds instead of up
    to three, so that one pass takes about eight seconds and the stage mix
    stays near the full run's: stage 1b (decoder training) largest, then
    stage 1a.  Stage 2 and the MAP evaluations are not cut, so their share
    is larger than in the full run.  With patience equal to the round
    limit, every seed runs both rounds and the work per pass does not
    depend on where early stopping would fall.
    """

    name = "train-c63"
    ops_per_pass = 1
    EPOCHS_STAGE1A = 10
    OUTER_ROUNDS = 2
    DECODER_EPOCHS = 24
    QUERIES = 100

    def setup(self, seed, workdir):
        ds = data.generate_synthetic(data.SyntheticSpec(
            n_subjects=50, images_per_subject=10, d_attr=D_ATTR, d_img=D_IMG,
            seed=seed))
        train, test = _held_out_split(ds)
        config = pipeline.TrainConfig(seed=seed,
                                      epochs_stage1a=self.EPOCHS_STAGE1A,
                                      outer_rounds_max=self.OUTER_ROUNDS,
                                      patience=self.OUTER_ROUNDS)
        masks = {arity: _answerable_masks(test.attributes, arity, self.QUERIES,
                                          _rng(seed, arity))
                 for arity in (1, 2, 3)}
        self._warm_up(train, config)
        return {"train": train, "test": test, "config": config, "masks": masks}

    @staticmethod
    def _warm_up(train, config):
        """One step of each hot kernel on throwaway models, so the first
        timed pass does not pay for first-touch allocation."""
        code = pipeline.select_code(config.margin, config.c)
        decoder = neural_bp.NeuralBpDecoder(bp.TannerGraph(code.parity_check),
                                            config.bp_iterations)
        llrs = np.full((config.batch_size, code.n), 2.0)
        decoder.loss_and_grads(llrs, np.zeros_like(llrs))
        encoders = hashing.Encoders.build(train.d_img, train.d_attr, config.c,
                                          seed=config.seed)
        batch = np.arange(config.batch_size)
        hashing.gradients(encoders, train.features[batch],
                          train.attributes[batch].astype(np.float64),
                          data.similarity_matrix(train.attributes[batch]),
                          config.distance_margin, config.theta, config.lam)

    def run_pass(self, fx):
        train, test = fx["train"], fx["test"]
        result = pipeline.train_pipeline(train, fx["config"],
                                         decoder_epochs=self.DECODER_EPOCHS)
        final_map = pipeline.training_map(result.encoders, train)
        gallery = retrieval.build_index(result.encoders.encode_images(test.features),
                                        test.subject_ids, test.attributes)
        evaluations = {arity: retrieval.evaluate_queries(
                           result.encoders.encode_attributes, gallery, masks)
                       for arity, masks in fx["masks"].items()}
        code = result.code
        fingerprint = {"code": [code.n, code.k, code.t],
                       "round_train_map": [r.train_map for r in result.rounds],
                       "best_round": result.best_round,
                       "train_map": final_map, **_quality(evaluations)}
        return PassResult(self.ops_per_pass, fingerprint)

    def checks(self, fx, fp):
        rounds = fp["round_train_map"]
        return [
            ("bch_63_30_6", fp["code"] == [63, 30, 6], f"code {fp['code']}"),
            # the returned encoders must be the restored best round: their
            # recomputed MAP equals that round's, which is at least the
            # stage-1a MAP and within the improvement threshold of every round
            ("final_map_is_best_round",
             fp["train_map"] == rounds[fp["best_round"]]
             and fp["train_map"] >= rounds[0]
             and fp["train_map"] + pipeline.MAP_IMPROVEMENT_THRESHOLD >= max(rounds),
             f"final {fp['train_map']}, round {fp['best_round']} of {rounds}"),
            ("map_decreases_with_arity",
             fp["map_a1"] >= fp["map_a2"] >= fp["map_a3"],
             f"{fp['map_a1']}, {fp['map_a2']}, {fp['map_a3']}"),
            ("no_skipped_map",
             not any(fp[f"skipped_map_a{a}"] for a in (1, 2, 3)), ""),
        ]

    def summarize(self, passes, run_s):
        fp = passes[0].fingerprint
        return {"train_map": fp["train_map"], "map_a1": fp["map_a1"],
                "map_a2": fp["map_a2"], "map_a3": fp["map_a3"],
                "ndcg_a1": fp["ndcg_a1"]}, {}


class DecodeC63:
    """Monte-Carlo decoding on the pipeline's BCH(63,30) code: a unit-weight
    neural decoder (L=5, forward only) and classic BP (20 iterations, early
    stop) at 1-6 dB, with the same noise for both decoders."""

    name = "decode-c63"
    SNRS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    FRAMES = 512
    ops_per_pass = 2 * len(SNRS)
    CHECK_FRAMES = 256

    def setup(self, seed, workdir):
        config = pipeline.TrainConfig()
        code = pipeline.select_code(config.margin, config.c)
        graph = bp.TannerGraph(code.parity_check)
        decoders = {"neural": neural_bp.NeuralBpDecoder(graph, config.bp_iterations),
                    "classic": bp.BpDecoder(graph, iterations=20, early_stop=True)}
        seeds = np.random.SeedSequence(seed).generate_state(len(self.SNRS)).tolist()
        for dec in decoders.values():  # warm-up
            neural_bp.evaluate_error_rates(dec, code, 4.0, frames=64, seed=seed)
        return {"code": code, "graph": graph, "decoders": decoders,
                "seeds": seeds, "seed": seed}

    def run_pass(self, fx):
        rates = {}
        for name, dec in fx["decoders"].items():
            rates[name] = {}
            for snr, s in zip(self.SNRS, fx["seeds"]):
                ber, fer = neural_bp.evaluate_error_rates(
                    dec, fx["code"], snr, frames=self.FRAMES, seed=s)
                rates[name][f"{snr:g}dB"] = [ber, fer]
        code = fx["code"]
        return PassResult(self.ops_per_pass,
                          {"code": [code.n, code.k, code.t], "ber_fer": rates})

    def checks(self, fx, fp):
        code, graph = fx["code"], fx["graph"]
        neural = fx["decoders"]["neural"]
        rng = _rng(fx["seed"], 4)
        msgs = rng.integers(0, 2, size=(self.CHECK_FRAMES, code.k))
        words = msgs @ code.generator.astype(np.int64) % 2
        received, sigma = channel.awgn(channel.bpsk_modulate(words), 4.0, rng,
                                       rate=code.rate)
        llrs = channel.llr_from_channel(received, sigma)
        unit = neural.decode_batch(llrs)
        flooded, _, _ = bp.bp_decode_batch(llrs, graph, neural.iterations,
                                           early_stop=False,
                                           clamp=neural.atanh_clamp)
        hard, _, conv = bp.bp_decode_batch(llrs, graph, 20, early_stop=True)
        return [
            ("bch_63_30_6", fp["code"] == [63, 30, 6], f"code {fp['code']}"),
            ("unit_neural_equals_flooding_bp", np.array_equal(unit, flooded),
             f"{int((unit != flooded).any(axis=1).sum())} frames differ"),
            ("converged_frames_are_codewords",
             bool(graph.syndrome_ok(hard[conv].T).all()),
             f"{int(conv.sum())} converged"),
        ]

    def summarize(self, passes, run_s):
        ber, fer = passes[0].fingerprint["ber_fer"]["neural"]["4dB"]
        frames = self.ops_per_pass * self.FRAMES
        return {"frames_per_s": frames / run_s, "ber_4db": ber, "fer_4db": fer}, {}


class Retrieve1e5:
    """Hamming ranking over a gallery of 10^5 image codes: batched
    evaluate_queries at arity 1-3, then single interactive queries."""

    name = "retrieve-1e5"
    SUBJECTS = 10_000
    TRAIN_ITEMS = 500
    EPOCHS_STAGE1A = 5
    CHUNK = 10_000
    SAMPLED = 40
    LATENCY_QUERIES = 100
    CHECK_QUERIES = 6

    BATCHED_QUERIES = D_ATTR + 2 * SAMPLED
    ops_per_pass = BATCHED_QUERIES + LATENCY_QUERIES

    def setup(self, seed, workdir):
        ds = data.generate_synthetic(data.SyntheticSpec(
            n_subjects=self.SUBJECTS, images_per_subject=10, d_attr=D_ATTR,
            d_img=D_IMG, seed=seed))
        encoders = hashing.Encoders.build(D_IMG, D_ATTR, 63, init_std=0.1,
                                          seed=seed)
        config = pipeline.TrainConfig(seed=seed, epochs_stage1a=self.EPOCHS_STAGE1A)
        pipeline.stage1a(encoders, ds.subset(np.arange(self.TRAIN_ITEMS)),
                         config, seed=seed)
        codes = np.concatenate([
            hashing.sign_hash(encoders.encode_images(ds.features[i:i + self.CHUNK]))
            for i in range(0, len(ds), self.CHUNK)])
        index = retrieval.build_index(codes, ds.subject_ids, ds.attributes)
        masks = {1: retrieval.enumerate_query_masks(D_ATTR, 1)}
        for arity in (2, 3):
            masks[arity] = retrieval.enumerate_query_masks(
                D_ATTR, arity, max_queries=self.SAMPLED,
                seed=int(_rng(seed, arity).integers(2 ** 31)))
        latency = np.concatenate(list(masks.values()))[:self.LATENCY_QUERIES]
        retrieval.rank(hashing.sign_hash(encoders.encode_attributes(
            latency[0].astype(np.float64))), index)  # warm-up
        return {"encoders": encoders, "index": index, "masks": masks,
                "latency_masks": latency.astype(np.float64)}

    def run_pass(self, fx):
        encoders, index = fx["encoders"], fx["index"]
        start = perf_counter()
        evaluations = {arity: retrieval.evaluate_queries(
                           encoders.encode_attributes, index, masks)
                       for arity, masks in fx["masks"].items()}
        batched_s = perf_counter() - start
        latency = []
        for mask in fx["latency_masks"]:
            t = perf_counter()
            retrieval.rank(hashing.sign_hash(encoders.encode_attributes(mask)),
                           index)
            latency.append(perf_counter() - t)
        return PassResult(self.ops_per_pass, _quality(evaluations),
                          timings={"batched_s": batched_s, "latency_s": latency})

    def checks(self, fx, fp):
        encoders, index = fx["encoders"], fx["index"]
        masks = np.concatenate(list(fx["masks"].values()))
        pick = np.linspace(0, len(masks) - 1, self.CHECK_QUERIES).astype(int)
        ids_all = np.arange(len(index))
        bad = 0
        for mask in masks[pick]:
            q = hashing.sign_hash(encoders.encode_attributes(mask.astype(np.float64)))
            ids, dists = retrieval.rank(q, index)
            naive = (index.codes != q).sum(axis=1)
            order = np.lexsort((ids_all, naive))
            bad += not (np.array_equal(ids, order)
                        and np.array_equal(dists, naive[order]))
        return [("rank_matches_naive_scan", bad == 0,
                 f"{bad} of {self.CHECK_QUERIES} queries differ")]

    def summarize(self, passes, run_s):
        fp = passes[0].fingerprint
        batched = float(np.median([p.timings["batched_s"] for p in passes]))
        latency_ms = 1000.0 * np.concatenate([p.timings["latency_s"] for p in passes])
        pct, tail = tail_percentile(latency_ms)
        metrics = {"queries_per_s": self.BATCHED_QUERIES / batched,
                   "query_ms_p50": float(np.median(latency_ms)),
                   "query_ms_tail": tail,
                   "map_a1": fp["map_a1"], "map_a2": fp["map_a2"],
                   "map_a3": fp["map_a3"], "ndcg_a1": fp["ndcg_a1"]}
        return metrics, {"query_ms_tail_percentile": pct,
                         "latency_samples": int(latency_ms.size)}


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)


def tail_percentile(samples):
    """The highest ladder percentile with at least ten samples above it."""
    samples = np.asarray(samples)
    for pct in TAIL_LADDER:
        value = float(np.percentile(samples, pct))
        if (samples > value).sum() >= 10:
            return pct, value
    return 50.0, float(np.percentile(samples, 50.0))


class CliRoundtrip:
    """The command-line file path at 10^4 items, run in-process through
    cli.main: encode, retrieve 40 arity-1 queries, eval, ber."""

    name = "cli-roundtrip"
    ops_per_pass = 4
    SUBJECTS = 1000
    TRAIN_SUBJECTS = 50
    SNRS = ("2", "4")
    FRAMES = 1024

    @staticmethod
    def _cli(*argv):
        rc = cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"codedhash {argv[0]} exited with {rc}")

    def setup(self, seed, workdir):
        w = Path(workdir)
        paths = {name: w / name for name in (
            "gallery.txt", "train-data.txt", "train.cfg", "model", "codes.txt",
            "rankings.txt", "metrics.csv", "ber.csv")}
        self._cli("gen-data", "--out", paths["gallery.txt"], "--subjects",
                  self.SUBJECTS, "--images-per-subject", 10, "--seed", seed)
        self._cli("gen-data", "--out", paths["train-data.txt"], "--subjects",
                  self.TRAIN_SUBJECTS, "--images-per-subject", 10, "--seed", seed)
        paths["train.cfg"].write_text(
            f"seed = {seed}\nepochs_stage1a = 2\nouter_rounds_max = 1\n")
        self._cli("train", "--data", paths["train-data.txt"], "--config",
                  paths["train.cfg"], "--out-dir", paths["model"],
                  "--decoder-epochs", 3)
        masks = np.eye(D_ATTR, dtype=np.uint8)
        return {"paths": paths, "seed": seed, "masks": masks,
                "queries": ["".join(str(b) for b in m) for m in masks]}

    def run_pass(self, fx):
        p = fx["paths"]
        model = p["model"]
        commands = [
            ["encode", "--encoders", model / "encoders.bin", "--data",
             p["gallery.txt"], "--modality", "image", "--out", p["codes.txt"]],
            ["retrieve", "--encoders", model / "encoders.bin", "--data",
             p["gallery.txt"], "--codes", p["codes.txt"], "--out",
             p["rankings.txt"]] + [a for q in fx["queries"] for a in ("--query", q)],
            ["eval", "--rankings", p["rankings.txt"], "--out", p["metrics.csv"]],
            ["ber", "--code", model / "code.txt", "--decoder", model / "decoder.bin",
             "--snr", *self.SNRS, "--frames", self.FRAMES, "--seed", fx["seed"],
             "--out", p["ber.csv"]],
        ]
        failed = sum(cli.main([str(a) for a in argv]) != 0 for argv in commands)
        if failed:
            return PassResult(self.ops_per_pass, {}, failed=failed)
        fingerprint = {
            "sha256": {path.name: _sha256(path) for path in (
                p["rankings.txt"], model / "encoders.bin", p["codes.txt"])},
            "eval": _read_csv_rows(p["metrics.csv"]),
            "ber": _read_csv_rows(p["ber.csv"]),
        }
        return PassResult(self.ops_per_pass, fingerprint)

    def checks(self, fx, fp):
        p = fx["paths"]
        spec = data.SyntheticSpec(n_subjects=self.SUBJECTS, images_per_subject=10,
                                  seed=fx["seed"])
        gallery = data.generate_synthetic(spec)
        encoders = hashing.load_encoders(p["model"] / "encoders.bin")
        index = retrieval.build_index(cli.read_codes(p["codes.txt"]),
                                      gallery.subject_ids, gallery.attributes)
        ev = retrieval.evaluate_queries(encoders.encode_attributes, index,
                                        fx["masks"])
        got = _eval_values(fp)
        ok = (got.get("map") is not None
              and abs(got["map"] - ev.mean_average_precision) <= 1e-12
              and abs(got["ndcg"] - ev.ndcg) <= 1e-12)
        return [("eval_matches_library", ok,
                 f"eval {got}, library map {ev.mean_average_precision} "
                 f"ndcg {ev.ndcg}")]

    def summarize(self, passes, run_s):
        got = _eval_values(passes[0].fingerprint)
        return {"map_a1": got["map"], "ndcg_a1": got["ndcg"]}, {}


def _read_csv_rows(path):
    lines = Path(path).read_text().splitlines()[1:]
    return [[field.strip() for field in line.split(",")] for line in lines]


def _eval_values(fp):
    return {row[0]: float(row[2]) for row in fp["eval"] if row[1] == "1"}


WORKLOADS = {w.name: w for w in (TrainC63(), DecodeC63(), Retrieve1e5(),
                                 CliRoundtrip())}

# spans each workload must call, from the layer table in README.md
EXPECTED_SPANS = {
    "train-c63": (
        "gf2.build_bch", "bp.TannerGraph", "bp.segment_sum",
        "bp.check_products_except_self", "neural_bp.forward",
        "neural_bp.loss_and_grads", "neural_bp.train_decoder",
        "optim.adam_step", "hashing.forward", "hashing.backward",
        "hashing.objective_grads", "hashing.gradients",
        "data.generate_synthetic", "data.similarity_matrix",
        "pipeline.stage1a", "pipeline.stage1b", "pipeline.stage2_refine",
        "pipeline.training_map", "retrieval.evaluate_queries"),
    "decode-c63": (
        "gf2.build_bch", "bp.TannerGraph", "bp.segment_sum",
        "bp.check_products_except_self", "bp.check_messages",
        "bp.bp_decode_batch", "neural_bp.forward",
        "neural_bp.evaluate_error_rates"),
    "retrieve-1e5": (
        "hashing.forward", "retrieval.build_index", "retrieval.rank",
        "retrieval.evaluate_queries", "retrieval.relevance",
        "retrieval.graded_relevance", "retrieval.average_precision",
        "retrieval.ndcg_at_k", "data.generate_synthetic"),
    "cli-roundtrip": (
        "cli.encode", "cli.retrieve", "cli.eval", "cli.ber", "cli.read_codes",
        "cli.write_codes", "hashing.save_encoders", "hashing.load_encoders",
        "neural_bp.load_decoder", "neural_bp.evaluate_error_rates",
        "retrieval.rank", "retrieval.write_rankings", "retrieval.read_rankings",
        "data.save_dataset", "data.load_dataset", "data.generate_synthetic"),
}
