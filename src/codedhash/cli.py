"""Command-line entry points for dataset generation, training, encoding,
retrieval, evaluation, and decoder benchmarking."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .gf2 import bch_code_table, load_code, save_code
from .hashing import load_encoders, save_encoders, sign_hash, Encoders
from .neural_bp import evaluate_error_rates, load_decoder, save_decoder
from .pipeline import (
    TrainConfig,
    load_config,
    stage1a,
    stage1b,
    stage2_refine,
    train_pipeline,
    write_report,
)
from .retrieval import (
    _grades,
    build_index,
    rank,
    read_rankings,
    check_query_mask,
    score_rankings,
    write_metric_report,
    write_rankings,
)
from .textio import parse_rows, read_chunks, write_rows

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
    is rescanned only to name its first bad line."""
    chunks = []
    with open(path) as fh:
        for linenos, lines in read_chunks(fh, comment="#"):
            width = chunks[0].shape[1] if chunks else None
            table = parse_rows(lines, np.int8)
            if (table is None or width not in (None, table.shape[1])
                    or not np.isin(table, (-1, 1)).all()):
                _raise_code_fault(path, linenos, lines, width)
            chunks.append(table)
    if not chunks:
        return np.zeros((0, 0), dtype=np.int8)
    return np.concatenate(chunks)


def _raise_code_fault(path, linenos, lines, width):
    """Raise the error of the first bad line of a rejected run of code lines."""
    for lineno, line in zip(linenos, lines):
        row = parse_rows([line], np.int8)
        if row is None:
            raise ValueError(f"{path}:{lineno}: unparseable code line")
        if not np.isin(row, (-1, 1)).all():
            raise ValueError(f"{path}:{lineno}: code bits must be +1/-1")
        if width is None:
            width = row.shape[1]
        elif row.shape[1] != width:
            raise ValueError(f"{path}:{lineno}: inconsistent code length")
    raise ValueError(f"{path}:{linenos[0]}: malformed code lines")


def _parse_mask(text: str, d_attr: int) -> np.ndarray:
    if set(text) - {"0", "1"}:
        raise ValueError(f"query mask must be a 0/1 string, got {text!r}")
    return check_query_mask(np.frombuffer(text.encode(), dtype=np.uint8)
                            - ord("0"), d_attr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec(n_subjects=args.subjects,
                         images_per_subject=args.images_per_subject,
                         d_attr=args.d_attr, d_img=args.d_img,
                         attribute_density=args.density,
                         feature_noise_std=args.noise_std, seed=args.seed)
    save_dataset(generate_synthetic(spec), args.out)
    return 0


def _hidden_sizes(text: str):
    if not text.strip():
        return ()
    return tuple(int(v) for v in text.split(","))


def _cmd_train(args) -> int:
    config = load_config(args.config) if args.config else TrainConfig()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    hidden = _hidden_sizes(args.hidden)

    if args.stage in ("1a", "2", "all") and args.data is None:
        raise ValueError(f"--data is required for stage {args.stage}")
    dataset = load_dataset(args.data) if args.data else None

    if args.stage == "all":
        result = train_pipeline(dataset, config, hidden=hidden,
                                init_std=args.init_std,
                                decoder_epochs=args.decoder_epochs,
                                decoder_frames_per_epoch=args.decoder_frames)
        save_encoders(result.encoders, out_dir / ENCODERS_FILE)
        save_code(result.code, out_dir / CODE_FILE)
        save_decoder(result.decoder, result.code, out_dir / DECODER_FILE)
        write_report(out_dir / REPORT_FILE, result.rounds)
    elif args.stage == "1a":
        encoders = Encoders.build(dataset.d_img, dataset.d_attr, config.c,
                                  hidden=hidden, init_std=args.init_std,
                                  seed=config.seed)
        stage1a(encoders, dataset, config, seed=config.seed)
        save_encoders(encoders, out_dir / ENCODERS_FILE)
    elif args.stage == "1b":
        code, decoder = stage1b(config, decoder_epochs=args.decoder_epochs,
                                frames_per_epoch=args.decoder_frames)
        save_code(code, out_dir / CODE_FILE)
        save_decoder(decoder, code, out_dir / DECODER_FILE)
    else:  # stage 2 refines artifacts from a previous run
        encoders = load_encoders(out_dir / ENCODERS_FILE)
        code = load_code(out_dir / CODE_FILE)
        decoder = load_decoder(out_dir / DECODER_FILE, code)
        stage2_refine(encoders, decoder, dataset, config)
        save_encoders(encoders, out_dir / ENCODERS_FILE)
    return 0


def _cmd_encode(args) -> int:
    encoders = load_encoders(args.encoders)
    dataset = load_dataset(args.data)
    if args.modality == "image":
        activations = encoders.encode_images(dataset.features)
    else:
        activations = encoders.encode_attributes(
            dataset.attributes.astype(np.float64))
    write_codes(args.out, sign_hash(activations))
    return 0


def _cmd_retrieve(args) -> int:
    encoders = load_encoders(args.encoders)
    dataset = load_dataset(args.data)
    codes = read_codes(args.codes)
    index = build_index(codes, dataset.subject_ids, dataset.attributes)
    blocks = []
    for text in args.query:
        mask = _parse_mask(text, dataset.d_attr)
        code = sign_hash(encoders.encode_attributes(mask.astype(np.float64)))
        ids, dists = rank(code, index)
        grades = _grades(mask, index.attribute_words)[ids]
        blocks.append((mask, ids, dists, grades))
    write_rankings(args.out, blocks)
    return 0


def _cmd_eval(args) -> int:
    blocks = read_rankings(args.rankings)
    if not blocks:
        raise ValueError(f"{args.rankings}: no query blocks")
    by_arity = {}
    for mask, ids, dists, rels in blocks:
        by_arity.setdefault(int(mask.sum()), []).append(rels)
    arities = [args.arity] if args.arity else sorted(by_arity)
    rows = []
    for arity in arities:
        grade_lists = by_arity.get(arity, [])
        if not grade_lists:
            raise ValueError(f"no arity-{arity} queries in {args.rankings}")
        result = score_rankings([rels == arity for rels in grade_lists],
                                grade_lists, args.k)
        rows += [("map", arity, result.mean_average_precision),
                 ("ndcg", arity, result.ndcg),
                 ("queries", arity, result.queries),
                 ("skipped_map", arity, result.skipped_map),
                 ("skipped_ndcg", arity, result.skipped_ndcg)]
    write_metric_report(args.out, rows)
    return 0


def _cmd_ber(args) -> int:
    code = load_code(args.code)
    decoder = load_decoder(args.decoder, code)
    seeds = np.random.SeedSequence(args.seed).generate_state(len(args.snr))
    with open(args.out, "w") as fh:
        fh.write("snr_db, ber, fer\n")
        for snr, seed in zip(args.snr, seeds.tolist()):
            ber, fer = evaluate_error_rates(decoder, code, snr,
                                            frames=args.frames, seed=seed)
            fh.write(f"{snr!r}, {ber!r}, {fer!r}\n")
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
    p.add_argument("--d-attr", type=int, default=40)
    p.add_argument("--d-img", type=int, default=128)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--noise-std", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train encoders and decoder")
    p.add_argument("--config", help="key = value settings file")
    p.add_argument("--data", help="dataset file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--stage", choices=("1a", "1b", "2", "all"), default="all")
    p.add_argument("--hidden", default="512,512",
                   help="comma-separated encoder hidden layer sizes")
    p.add_argument("--init-std", type=float, default=0.1,
                   help="encoder weight init scale")
    p.add_argument("--decoder-epochs", type=int, default=150)
    p.add_argument("--decoder-frames", type=int, default=128)
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
    p.add_argument("--arity", type=int, choices=(1, 2, 3))
    p.add_argument("--k", type=int, help="NDCG truncation (default: gallery)")
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
