"""End-to-end training: hash encoders, decoder, and the refinement loop.

The flow is: pick a BCH code whose correction capability covers the margin
and train the neural decoder on it (stage 1b, which reads no data and so
runs first), train the coupled encoders on pairwise similarity (stage 1a),
then alternate encoder training with a refinement stage (stage 2) that runs
each sample's real-valued activation through the decoder and pulls the
activation toward the decoder's hard decision with a bitwise cross-entropy;
that hard decision is usually not a codeword.  After every outer round the
training-set retrieval quality (arity-1 MAP) is measured; the loop stops
when it stops improving and the best-scoring encoder state is returned.
Every step draws its seed from the run's seed by one rule, so a stage run
on its own reproduces that step of the full run.

The margin in the pairwise objective is expressed in Hamming units; squared
Euclidean distance between sign codes is four times Hamming distance, so the
objective internally scales it by HAMMING_MARGIN_SCALE.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .bp import TannerGraph
from .data import Dataset, similarity_matrix
from .gf2 import LinearCode, bch_code_table, build_bch
from .hashing import (
    HAMMING_MARGIN_SCALE,
    PROB_CLAMP,
    Encoders,
    dll_loss,
    objective,
    objective_grads,
)
from .neural_bp import (DecoderTrainConfig, NeuralBpDecoder,
                        TrainingFailureError, train_decoder)
from .optim import Adam
from .retrieval import build_index, enumerate_query_masks, evaluate_queries
from .textio import open_text

VALID_CODE_LENGTHS = (31, 63, 127)
MAP_IMPROVEMENT_THRESHOLD = 1e-4
REPORT_HEADER = "round, J, dll, quant, balance, Lc_image, Lc_attr, train_map"


class UnsatisfiableMarginError(ValueError):
    """No available code covers the requested margin."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    c: int = 63
    margin: float = 6.0
    theta: float = 1.0
    lam: float = 1.0
    gamma: float = 1.0
    lr: float = 1e-3
    batch_size: int = 128
    epochs_stage1a: int = 40
    outer_rounds_max: int = 3
    patience: int = 2
    kappa: float = 4.0
    bp_iterations: int = 5
    seed: int = 0
    snr_db_list: tuple = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    def __post_init__(self):
        if self.c not in VALID_CODE_LENGTHS:
            raise ValueError(f"c must be one of {VALID_CODE_LENGTHS}, "
                             f"got {self.c}")
        for name in ("margin", "theta", "lam", "gamma", "lr", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not all(math.isfinite(snr) for snr in self.snr_db_list):
            raise ValueError("snr_db_list entries must be finite")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.gamma < 0:
            raise ValueError("gamma cannot be negative")
        if self.lr <= 0 or self.kappa <= 0:
            raise ValueError("lr and kappa must be positive")
        if self.batch_size < 1 or self.bp_iterations < 1:
            raise ValueError("batch_size and L must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if (self.epochs_stage1a < 0 or self.outer_rounds_max < 1
                or self.patience < 1):
            raise ValueError("epochs_stage1a must be >= 0; outer_rounds_max "
                             "and patience must be >= 1")
        if not self.snr_db_list:
            raise ValueError("snr_db_list must not be empty")

    @property
    def distance_margin(self) -> float:
        """The margin rescaled from Hamming to squared-distance units."""
        return HAMMING_MARGIN_SCALE * self.margin


# config-file keys are TrainConfig's field names but for these aliases
_CONFIG_ALIASES = {"margin": "m", "lam": "lambda", "bp_iterations": "L"}
# a field's parser by its annotation, a string under postponed annotations
_FIELD_PARSERS = {"int": int, "float": float, "tuple": lambda v: tuple(
    float(x) for x in v.split(",") if x.strip())}
# config-file key -> (TrainConfig field, parser)
_CONFIG_KEYS = {_CONFIG_ALIASES.get(f.name, f.name): (f.name, _FIELD_PARSERS[f.type])
                for f in fields(TrainConfig)}


def load_config(path) -> TrainConfig:
    """Parse a flat `key = value` file; unknown or repeated keys are
    rejected and missing keys fall back to the defaults."""
    overrides = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}; "
                                 f"valid keys: {', '.join(sorted(_CONFIG_KEYS))}")
            name, parse = _CONFIG_KEYS[key]
            if name in overrides:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            try:
                overrides[name] = parse(value.strip())
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}")
    try:
        return TrainConfig(**overrides)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Code selection
# ---------------------------------------------------------------------------

def select_code(margin: float, c: int) -> LinearCode:
    """The length-c BCH code with the smallest t covering the margin.

    Smallest t at or above the margin maximizes the dimension k, keeping
    the code as informative as the correction requirement allows.
    """
    degree = c.bit_length()
    if c <= 0 or (1 << degree) - 1 != c:
        raise UnsatisfiableMarginError(
            f"no BCH family of length {c}; lengths are 2**m - 1")
    table = bch_code_table(degree)
    needed = math.ceil(margin)
    feasible = [(n, k, t) for n, k, t in table if t >= needed]
    if not feasible:
        pairs = ", ".join(f"(k={k}, t={t})" for _, k, t in table)
        raise UnsatisfiableMarginError(
            f"no length-{c} BCH code with t >= {margin}; available: {pairs}")
    _, _, t_sel = min(feasible, key=lambda row: row[2])
    return build_bch(degree, t_sel)


# ---------------------------------------------------------------------------
# Training stages
# ---------------------------------------------------------------------------

def _run_seeds(config: TrainConfig):
    """(init, decoder, per-round) seeds of a run, drawn from its config
    seed; every step of a run, staged or full, takes its seed from here."""
    seeds = np.random.SeedSequence(config.seed).generate_state(
        2 + config.outer_rounds_max).tolist()
    return seeds[0], seeds[1], seeds[2:]


def _batch_source(attributes):
    """A function of (order, batch_size) yielding, per mini-batch of
    `order`, its (image rows, attribute rows, S, counts).

    The attribute rows are the batch's distinct attribute vectors, each
    by its first row in the batch and in order of first occurrence, and
    counts[k] is the number of the batch's rows with vector k; a batch
    with no repeated vector gives its own rows and counts of one.  S is
    the batch similarity's columns of the attribute rows, gathered from
    one similarity table of the data's distinct vectors built here, so a
    stage groups its rows and computes similarities once per call."""
    vectors, groups = np.unique(attributes, axis=0, return_inverse=True)
    groups = groups.reshape(-1)
    table = similarity_matrix(vectors)

    def batches(order, batch_size):
        for start in range(0, len(order), batch_size):
            rows = order[start:start + batch_size]
            _, first, counts = np.unique(groups[rows], return_index=True,
                                         return_counts=True)
            by_first = np.argsort(first)
            attribute_rows = rows[first[by_first]]
            yield (rows, attribute_rows,
                   table[np.ix_(groups[rows], groups[attribute_rows])],
                   counts[by_first])
    return batches


def _branches(encoders: Encoders, dataset: Dataset, lr: float):
    """(modality, network, its inputs, fresh Adam) per branch, image first:
    the order of objective_grads' (dP, dQ).  Each branch's whole input is
    cast once to the network's dtype, so a batch is one gather of it.  An
    empty dataset is rejected here, for both stages that train on data."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    return [(modality, net, x.astype(net.dtype, copy=False),
             Adam(net.parameters(), lr=lr))
            for modality, net, x in (
                ("image", encoders.image, dataset.features),
                ("attribute", encoders.attribute, dataset.attributes))]


def stage1a(encoders: Encoders, dataset: Dataset, config: TrainConfig,
            seed=0) -> None:
    """Alternating-minimization training of the two encoder branches.

    Each epoch runs one pass updating the image branch with the attribute
    branch frozen, then one pass the other way around, over the same
    shuffled mini-batches and their similarity matrices.  A pass
    backpropagates only the branch it updates; the frozen branch is run
    forward without a cache.  Encoders are updated in place.

    The attribute side of a batch is its distinct attribute vectors (see
    _batch_source): the attribute branch runs on those rows only, and the
    objective sees their columns of the batch similarity with their
    counts, which gives the gradients of the full batch.  A batch with no
    repeated vector trains as it would on every row.
    """
    rng = np.random.default_rng(seed)
    branches = _branches(encoders, dataset, config.lr)
    args = (config.distance_margin, config.theta, config.lam)
    batches = _batch_source(dataset.attributes)
    for _ in range(config.epochs_stage1a):
        epoch = list(batches(rng.permutation(len(dataset)), config.batch_size))
        for which, (modality, net, x, opt) in enumerate(branches):
            _, frozen, x_frozen, _ = branches[1 - which]
            for *rows, s, counts in epoch:
                acts, cache = net.forward_cache(x[rows[which]])
                held = frozen.forward(x_frozen[rows[1 - which]])
                p, q = (acts, held) if which == 0 else (held, acts)
                *douts, j, _ = objective_grads(p, q, s, *args, counts=counts)
                if not np.isfinite(j):
                    raise TrainingFailureError(
                        f"non-finite objective in stage 1a ({modality} pass)")
                opt.step(net.parameters(), net.backward(cache, douts[which]))


def initial_encoders(dataset: Dataset, config: TrainConfig) -> Encoders:
    """Round 0's encoders: built at Encoders.build's hidden sizes with the
    run's init seed, then trained by stage 1a with round 0's seed.

    They are trained from scratch, so their weight scale is 0.1, larger
    than Encoders.build's: at 0.01 the stacked layers shrink the outputs
    geometrically and every pairwise distance starts below the
    probability-clamp knee, where the contrastive loss has no gradient.  A
    0.1 scale puts initial distances inside the active region.
    """
    init_seed, _, round_seeds = _run_seeds(config)
    encoders = Encoders.build(dataset.d_img, dataset.d_attr, config.c,
                              init_std=0.1, seed=init_seed)
    stage1a(encoders, dataset, config, seed=round_seeds[0])
    return encoders


def stage1b(config: TrainConfig, decoder_epochs: int):
    """Select the margin-covering code and train the decoder on it for
    `decoder_epochs` epochs of DecoderTrainConfig's frames, with the run's
    decoder seed."""
    code = select_code(config.margin, config.c)
    graph = TannerGraph(code.parity_check)
    net = NeuralBpDecoder(graph, iterations=config.bp_iterations)
    train_decoder(net, code, DecoderTrainConfig(
        snr_db_list=tuple(config.snr_db_list),
        epochs=decoder_epochs,
        learning_rate=config.lr,
        seed=_run_seeds(config)[1]))
    return code, net


def _code_loss_and_grad(activations, target_bits, gamma, counts):
    """gamma-scaled bitwise cross-entropy pulling activations toward the
    sign pattern of target bits, with its float64 gradient in the
    activations, which are cast to float64 first.  Row i stands for
    counts[i] identical samples: the loss is the mean over all of them
    and row i's gradient the sum of its samples'."""
    a = np.asarray(activations, dtype=np.float64)
    w = np.asarray(counts, dtype=np.float64)[:, None]
    n = float(w.sum())
    p_one = (1.0 - a) / 2.0
    clamped = np.clip(p_one, PROB_CLAMP, 1.0 - PROB_CLAMP)
    interior = (p_one > PROB_CLAMP) & (p_one < 1.0 - PROB_CLAMP)
    b = target_bits.astype(np.float64)
    loss = gamma * float((dll_loss(p_one, b) * w).sum()) / n
    dp = (-(b / clamped) + (1.0 - b) / (1.0 - clamped)) * interior
    da = gamma * dp * (-0.5) * w / n
    return loss, da


def stage2_refine(encoders: Encoders, decoder: NeuralBpDecoder,
                  dataset: Dataset, config: TrainConfig):
    """One refinement pass pulling activations toward the decoder's output.

    For each mini-batch and each modality: decode the float32 LLRs
    kappa * a of the current float32 activations a into the decoder's
    hard-decision bits (usually not a codeword), then update that
    modality's encoder on the cross-entropy between its activations and
    the frozen targets.  The decoder computes in the LLRs' float32 and is
    never modified.  The image branch takes every row of a batch with a
    count of one; the attribute branch decodes and backpropagates each
    distinct attribute vector of the batch once (see _batch_source), with
    its loss and gradient weighted by the vector's count, so every copy of
    a vector has the same target.  Returns the mean per-sample loss for
    each modality.
    """
    if encoders.code_length != decoder.graph.n_var:
        raise ValueError("encoder code length does not match the decoder")
    branches = _branches(encoders, dataset, config.lr)
    totals = {"image": 0.0, "attribute": 0.0}
    batches = _batch_source(dataset.attributes)
    for rows, attribute_rows, _, counts in batches(np.arange(len(dataset)),
                                                   config.batch_size):
        for (modality, net, x, opt), taken, weights in zip(
                branches, (rows, attribute_rows), (np.ones_like(rows), counts)):
            acts, cache = net.forward_cache(x[taken])
            targets = decoder.decode_batch(
                np.multiply(acts, config.kappa, dtype=np.float32))
            loss, da = _code_loss_and_grad(acts, targets, config.gamma, weights)
            if not np.isfinite(loss):
                raise TrainingFailureError(
                    f"non-finite refinement loss in stage 2 ({modality} branch)")
            totals[modality] += loss * len(rows)
            opt.step(net.parameters(), net.backward(cache, da))
    n = len(dataset)
    return totals["image"] / n, totals["attribute"] / n


def training_map(encoders: Encoders, dataset: Dataset, *,
                 image_acts=None) -> float:
    """Arity-1 MAP of attribute queries against the image-code gallery.
    `image_acts`, when given, are the encoders' activations of
    dataset.features, which are then not encoded again."""
    if image_acts is None:
        image_acts = encoders.encode_images(dataset.features)
    index = build_index(image_acts, dataset.subject_ids, dataset.attributes)
    masks = enumerate_query_masks(dataset.d_attr, arity=1)
    result = evaluate_queries(encoders.encode_attributes, index, masks)
    return result.mean_average_precision


# ---------------------------------------------------------------------------
# The outer loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundRecord:
    round: int
    j: float
    dll: float
    quant: float
    balance: float
    lc_image: float
    lc_attr: float
    train_map: float


@dataclass
class TrainResult:
    encoders: Encoders
    code: LinearCode
    decoder: NeuralBpDecoder
    rounds: list = field(default_factory=list)
    best_round: int = 0


def _round_record(outer, encoders, dataset, config,
                  lc_image=float("nan"), lc_attr=float("nan")) -> RoundRecord:
    """A round's report line: the encoders' objective and training MAP, and
    the round's stage-2 losses (NaN for round 0).  The training images
    are encoded once, for both; the objective scores them against the
    distinct attribute vectors of one batch of every row, with their
    counts (see _batch_source)."""
    image_acts = encoders.encode_images(dataset.features)
    _, attribute_rows, s, counts = next(_batch_source(dataset.attributes)(
        np.arange(len(dataset)), len(dataset)))
    q = encoders.encode_attributes(dataset.attributes[attribute_rows])
    j, (dll, quant, balance) = objective(
        image_acts, q, s, config.distance_margin, config.theta, config.lam,
        counts=counts)
    return RoundRecord(outer, j, dll, quant, balance, lc_image, lc_attr,
                       training_map(encoders, dataset, image_acts=image_acts))


def train_pipeline(dataset: Dataset, config: TrainConfig,
                   decoder_epochs: int = 150) -> TrainResult:
    """Full training loop; deterministic for a fixed seed.

    Sequence: stage 1b once, then round 0's encoders (``initial_encoders``),
    then outer rounds of (stage 1a for rounds after the first) + stage 2,
    measuring training MAP after every round.  Stage 1b reads no data, so
    running it first checks the margin and the decoder settings before any
    encoder trains.  Stops once MAP has failed to improve by more than
    MAP_IMPROVEMENT_THRESHOLD for `patience` consecutive rounds, and
    restores the encoder state of the best-scoring round.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    code, decoder = stage1b(config, decoder_epochs)
    _, _, round_seeds = _run_seeds(config)
    encoders = initial_encoders(dataset, config)
    rounds = [_round_record(0, encoders, dataset, config)]

    best_map, best_state, best_round = (
        rounds[0].train_map, copy.deepcopy(encoders), 0)
    stale = 0
    for outer in range(1, config.outer_rounds_max + 1):
        if outer > 1:
            stage1a(encoders, dataset, config, seed=round_seeds[outer - 1])
        losses = stage2_refine(encoders, decoder, dataset, config)
        rounds.append(_round_record(outer, encoders, dataset, config, *losses))
        current = rounds[-1].train_map
        if current > best_map + MAP_IMPROVEMENT_THRESHOLD:
            best_map, best_state, best_round = (
                current, copy.deepcopy(encoders), outer)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return TrainResult(best_state, code, decoder, rounds, best_round)
