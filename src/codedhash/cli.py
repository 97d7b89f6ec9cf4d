"""Command-line entry points for dataset generation, training, encoding,
retrieval, evaluation, and decoder benchmarking."""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from ._checks import all_either
from .data import (SyntheticSpec, generate_synthetic, load_dataset, read_records,
                   save_dataset)
from .gf2 import bch_code_table, load_code, save_code
from .hashing import FORWARD_ROWS, load_encoders, save_encoders, sign_hash
from .neural_bp import evaluate_error_rates, load_decoder, save_decoder
from .pipeline import (
    REPORT_HEADER,
    TrainConfig,
    initial_encoders,
    load_config,
    stage1b,
    stage2_refine,
    train_pipeline,
)
from .retrieval import (
    aggregate_scores,
    build_index,
    graded_relevance,
    iter_rankings,
    rank,
    check_query_mask,
    score_query,
    write_rankings,
)
from .textio import (open_text, parse_bits, parse_rows, parse_run,
                     read_chunks, write_report, write_rows)

ENCODERS_FILE = "encoders.bin"
DECODER_FILE = "decoder.bin"
CODE_FILE = "code.txt"
REPORT_FILE = "report.csv"


def write_codes(path, codes) -> None:
    """One gallery item per line as space-separated +1/-1 bits."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"codes must be a 2-D array, got shape {codes.shape}")
    with open(path, "w") as fh:
        fh.write("# columns: code bits (+1/-1), one item per line\n")
        write_rows(fh, " ".join(["%d"] * codes.shape[1]) + "\n", codes)


def read_codes(path) -> np.ndarray:
    """Inverse of write_codes; blank lines and `#` comment lines are
    skipped.  numpy parses each run of lines in one call; a run that fails
    is parsed again line by line to name its first bad line."""
    chunks, width = [], None
    with open_text(path) as fh:
        for linenos, lines in read_chunks(fh, comment="#"):
            table, width = parse_run(path, linenos, lines, _parse_codes, width)
            chunks.append(table)
    if not chunks:
        return np.zeros((0, 0), dtype=np.int8)
    return np.concatenate(chunks)


def _parse_codes(lines, width):
    """(int8 table, width) of a run of +1/-1 code lines whose length must
    equal `width`, or the run's own when that is None."""
    table = parse_rows(lines, np.int8)
    if table is None:
        raise ValueError("unparseable code line")
    if not all_either(table, -1, 1):
        raise ValueError("code bits must be +1/-1")
    if width not in (None, table.shape[1]):
        raise ValueError("inconsistent code length")
    return table, table.shape[1]


def _parse_mask(text: str, d_attr: int) -> np.ndarray:
    if (mask := parse_bits(text)) is None:
        raise ValueError(f"query mask must be a 0/1 string, got {text!r}")
    return check_query_mask(mask, d_attr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec(n_subjects=args.subjects,
                         images_per_subject=args.images_per_subject,
                         seed=args.seed)
    save_dataset(generate_synthetic(spec), args.out)
    return 0


def _cmd_train(args) -> int:
    config = load_config(args.config) if args.config else TrainConfig()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.stage in ("1a", "2", "all") and args.data is None:
        raise ValueError(f"--data is required for stage {args.stage}")
    dataset = load_dataset(args.data) if args.data else None

    if args.stage == "all":
        result = train_pipeline(dataset, config,
                                decoder_epochs=args.decoder_epochs)
        save_encoders(result.encoders, out_dir / ENCODERS_FILE)
        save_code(result.code, out_dir / CODE_FILE)
        save_decoder(result.decoder, result.code, out_dir / DECODER_FILE)
        write_report(out_dir / REPORT_FILE, REPORT_HEADER,
                     map(astuple, result.rounds))
    elif args.stage == "1a":
        encoders = initial_encoders(dataset, config)
        save_encoders(encoders, out_dir / ENCODERS_FILE)
    elif args.stage == "1b":
        code, decoder = stage1b(config, args.decoder_epochs)
        save_code(code, out_dir / CODE_FILE)
        save_decoder(decoder, code, out_dir / DECODER_FILE)
    else:  # stage 2 refines artifacts from a previous run, as round 1 does
        encoders = load_encoders(out_dir / ENCODERS_FILE)
        code = load_code(out_dir / CODE_FILE)
        decoder = load_decoder(out_dir / DECODER_FILE, code)
        stage2_refine(encoders, decoder, dataset, config)
        save_encoders(encoders, out_dir / ENCODERS_FILE)
    return 0


def _row_pieces(runs):
    """Regroup runs of at most CHUNK_ROWS rows into consecutive pieces of
    at least FORWARD_ROWS / 2 rows.  A piece is passed on only once the
    runs after it hold that many rows too, so rows left over at the end
    join the last piece, which Mlp.forward splits if it has more than
    FORWARD_ROWS rows.  Every piece encoded then has FORWARD_ROWS / 2 to
    FORWARD_ROWS rows, the range of Mlp.forward's own pieces, unless all
    the rows fit in one; with FORWARD_ROWS equal to CHUNK_ROWS, each full
    run is one piece."""
    ready, pending, held = None, [], 0
    for run in runs:
        pending.append(run)
        held += len(run)
        if held >= FORWARD_ROWS // 2:
            if ready is not None:
                yield ready
            ready, pending, held = np.concatenate(pending), [], 0
    if ready is not None:
        pending.insert(0, ready)
    if pending:
        # the parts are dropped before the joined piece is encoded
        last, ready, pending = np.concatenate(pending), None, None
        yield last


def _cmd_encode(args) -> int:
    # only the modality's branch and the gallery's int8 codes are kept: the
    # gallery streams through in row pieces, and --out is written once
    # every record has parsed
    net = getattr(load_encoders(args.encoders), args.modality)
    image = args.modality == "image"
    runs = (feats if image else attrs for _, attrs, feats in
            read_records(args.data, with_features=image))
    codes = [sign_hash(net.forward(rows)) for rows in _row_pieces(runs)]
    if not codes:
        raise ValueError(f"{args.data}: no records")
    write_codes(args.out, np.concatenate(codes))
    return 0


def _cmd_retrieve(args) -> int:
    # only the attribute branch is kept, and ranking reads the gallery's ids
    # and attributes, never its features
    net = load_encoders(args.encoders).attribute
    dataset = load_dataset(args.data, with_features=False)
    index = build_index(read_codes(args.codes), dataset.subject_ids,
                        dataset.attributes)
    if (net.d_in, net.d_out) != (dataset.d_attr, index.code_length):
        raise ValueError(f"{args.encoders}: the attribute branch maps "
                         f"{net.d_in} attributes to {net.d_out} bits, the "
                         f"gallery has {dataset.d_attr} attributes and "
                         f"{index.code_length}-bit codes")
    # every mask is checked before --out is opened; each query is then
    # ranked as write_rankings asks for it, so one block is held at a time
    masks = [_parse_mask(text, dataset.d_attr) for text in args.query]

    def blocks():
        for mask in masks:
            ids, dists = rank(sign_hash(net.forward(mask)), index)
            yield mask, ids, dists, graded_relevance(mask, index)[ids]

    write_rankings(args.out, blocks())
    return 0


def _cmd_eval(args) -> int:
    # each block is scored as it is read and only its (AP, NDCG) is kept,
    # so the rankings are never all held; every block is still read, so a
    # bad line anywhere fails the command
    by_arity = {}
    for mask, _, _, rels in iter_rankings(args.rankings):
        arity = int(mask.sum())
        by_arity.setdefault(arity, []).append(score_query(rels == arity, rels))
    if not by_arity:
        raise ValueError(f"{args.rankings}: no query blocks")
    rows = []
    for arity in sorted(by_arity):
        result = aggregate_scores(by_arity[arity])
        rows += [("map", arity, result.mean_average_precision),
                 ("ndcg", arity, result.ndcg),
                 ("queries", arity, result.queries),
                 ("skipped_map", arity, result.skipped_map),
                 ("skipped_ndcg", arity, result.skipped_ndcg)]
    write_report(args.out, "metric, query_arity, value", rows)
    return 0


def _cmd_ber(args) -> int:
    code = load_code(args.code)
    decoder = load_decoder(args.decoder, code)
    seeds = np.random.SeedSequence(args.seed).generate_state(len(args.snr))
    # every row is computed before --out is opened, so a failing SNR leaves
    # no partial report behind
    rows = [(snr, *evaluate_error_rates(decoder, code, snr,
                                        frames=args.frames, seed=seed))
            for snr, seed in zip(args.snr, seeds.tolist())]
    write_report(args.out, "snr_db, ber, fer", rows)
    return 0


def _cmd_codes(args) -> int:
    degree = args.c.bit_length()
    if args.c <= 0 or (1 << degree) - 1 != args.c:
        raise ValueError(f"no code family of length {args.c}; "
                         f"lengths are 2**m - 1")
    print("n k t")
    for n, k, t in bch_code_table(degree):
        print(f"{n} {k} {t}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedhash",
        description="Cross-modal hashing with error-corrected codes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--images-per-subject", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train encoders and decoder")
    p.add_argument("--config", help="key = value settings file")
    p.add_argument("--data", help="dataset file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--stage", choices=("1a", "1b", "2", "all"), default="all")
    p.add_argument("--decoder-epochs", type=int, default=150)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("encode", help="hash a dataset into binary codes")
    p.add_argument("--encoders", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--modality", choices=("image", "attribute"),
                   required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("retrieve", help="rank a gallery for attribute queries")
    p.add_argument("--encoders", required=True)
    p.add_argument("--data", required=True, help="gallery metadata")
    p.add_argument("--codes", required=True, help="gallery code file")
    p.add_argument("--query", action="append", required=True,
                   help="0/1 attribute mask, repeatable")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("eval", help="score a rankings file")
    p.add_argument("--rankings", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ber", help="decoder error rates over AWGN")
    p.add_argument("--code", required=True)
    p.add_argument("--decoder", required=True)
    p.add_argument("--snr", type=float, nargs="+", required=True)
    p.add_argument("--frames", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser("codes", help="list BCH codes for a hash length")
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(func=_cmd_codes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
