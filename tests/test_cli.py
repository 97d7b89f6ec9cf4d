import argparse
import importlib.metadata
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import codedhash
from codedhash import cli
from codedhash.cli import main, read_codes, write_codes
from codedhash.data import (SyntheticSpec, generate_synthetic, load_dataset,
                            save_dataset)
from codedhash.gf2 import load_code
from codedhash.hashing import (FORWARD_ROWS, Encoders, load_encoders, save_encoders,
                               sign_hash)
from codedhash.neural_bp import NeuralBpDecoder, load_decoder
from codedhash.pipeline import load_config, stage1a, stage2_refine
from codedhash.retrieval import (build_index, enumerate_query_masks,
                                 evaluate_queries, read_rankings)

TINY_CONFIG = (
    "c = 31\n"
    "m = 2\n"
    "epochs_stage1a = 2\n"
    "outer_rounds_max = 1\n"
    "patience = 1\n"
    "batch_size = 8\n"
    "L = 3\n"
    "seed = 5\n"
)


def gen_tiny_data(path, seed=3):
    save_dataset(generate_synthetic(
        SyntheticSpec(8, 2, d_attr=8, d_img=16, seed=seed)), path)


def console_script(name):
    """The console_scripts entry point `name`: from the installed
    distribution if there is one, else from `[project.scripts]` in the
    checkout's pyproject.toml."""
    for ep in importlib.metadata.entry_points(group="console_scripts",
                                              name=name):
        return ep
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    return importlib.metadata.EntryPoint(name=name, value=target,
                                         group="console_scripts")


def assert_codes_31(command, env=None):
    proc = subprocess.run(command + ["codes", "--c", "31"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "31 21 2" in proc.stdout.splitlines(), proc.stderr


class TestCodesFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "codes.txt"
        codes = np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8)
        write_codes(path, codes)
        assert np.array_equal(read_codes(path), codes)

    def test_bad_bit_value(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("1 0 1\n")
        with pytest.raises(ValueError, match=":1"):
            read_codes(path)

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("1 -1\n1 -1 1\n")
        with pytest.raises(ValueError, match=":2"):
            read_codes(path)


class TestGenData:
    def test_deterministic_files(self, tmp_path):
        a, b, lib = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "lib.txt"
        for path in (a, b):
            assert main(["gen-data", "--out", str(path), "--subjects", "8",
                         "--images-per-subject", "2", "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()
        save_dataset(generate_synthetic(SyntheticSpec(8, 2, seed=7)), lib)
        assert a.read_bytes() == lib.read_bytes()
        ds = load_dataset(a)
        assert len(ds) == 16
        assert (ds.d_attr, ds.d_img) == (40, 128)


class TestCodesCommand:
    def test_lists_length_63_family(self, capsys):
        assert main(["codes", "--c", "63"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "n k t"
        for expected in ("63 57 1", "63 45 3", "63 30 6", "63 24 7",
                         "63 18 10", "63 16 11"):
            assert expected in lines

    def test_bad_length(self, capsys):
        assert main(["codes", "--c", "60"]) == 1
        assert "error:" in capsys.readouterr().err


class TestParsing:
    OPTIONS = {
        "gen-data": {"--out", "--subjects", "--images-per-subject", "--seed"},
        "train": {"--config", "--data", "--out-dir", "--stage",
                  "--decoder-epochs"},
        "encode": {"--encoders", "--data", "--modality", "--out"},
        "retrieve": {"--encoders", "--data", "--codes", "--query", "--out"},
        "eval": {"--rankings", "--out"},
        "ber": {"--code", "--decoder", "--snr", "--frames", "--seed", "--out"},
        "codes": {"--c"},
    }

    def test_option_sets(self):
        """Every subcommand's options, exactly: each has a caller outside
        the tests (the README or perfbench)."""
        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert set(commands) == set(self.OPTIONS)
        for name, sub in commands.items():
            options = {s for a in sub._actions for s in a.option_strings}
            assert options - {"-h", "--help"} == self.OPTIONS[name], name

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["codes", "--c", "63", "--fast"]) == 2

    def test_missing_required(self, capsys):
        assert main(["encode", "--data", "x"]) == 2

    def test_entry_point_installed(self):
        # Runs the declared `codedhash` command in a fresh interpreter the
        # way pip's generated wrapper does, so no install is needed; an
        # installed script on PATH must give the same output.
        ep = console_script("codedhash")
        src = str(Path(codedhash.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        wrapper = (f"import sys; from {ep.module} import {ep.attr}; "
                   f"sys.exit({ep.attr}())")
        assert_codes_31([sys.executable, "-c", wrapper],
                        env=dict(os.environ, PYTHONPATH=pythonpath))
        script = shutil.which("codedhash")
        if script is not None:
            assert_codes_31([script])


class TestTrainStages:
    def test_stage_1b_needs_no_data(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--out-dir", str(out),
                   "--stage", "1b", "--decoder-epochs", "2"])
        assert rc == 0
        code = load_code(out / "code.txt")
        assert (code.n, code.k, code.t) == (31, 21, 2)
        assert (out / "decoder.bin").exists()
        assert not (out / "encoders.bin").exists()

    def test_stage_1a_then_2_updates_encoders(self, tmp_path):
        data = tmp_path / "data.txt"
        gen_tiny_data(data)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "run"
        base = ["train", "--config", str(cfg), "--out-dir", str(out),
                "--decoder-epochs", "2"]
        assert main(base + ["--stage", "1a", "--data", str(data)]) == 0
        first = (out / "encoders.bin").read_bytes()
        assert main(base + ["--stage", "1b"]) == 0
        assert main(base + ["--stage", "2", "--data", str(data)]) == 0
        assert (out / "encoders.bin").read_bytes() != first

    def test_stage_1b_writes_the_full_runs_decoder(self, tmp_path):
        data = tmp_path / "data.txt"
        gen_tiny_data(data)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        flags = ["--config", str(cfg), "--decoder-epochs", "2"]
        full, staged = tmp_path / "all", tmp_path / "1b"
        assert main(["train", "--data", str(data), "--out-dir", str(full),
                     "--stage", "all"] + flags) == 0
        assert main(["train", "--out-dir", str(staged),
                     "--stage", "1b"] + flags) == 0
        for name in ("code.txt", "decoder.bin"):
            assert (staged / name).read_bytes() == (full / name).read_bytes(), name

    def test_stages_1a_and_2_write_the_runs_first_round(self, tmp_path):
        """--stage 1a writes round 0's encoders and 1a -> 1b -> 2 round 1's,
        with the seeds a full run draws from its config seed."""
        data = tmp_path / "data.txt"
        gen_tiny_data(data)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "run"
        base = ["train", "--config", str(cfg), "--out-dir", str(out),
                "--decoder-epochs", "2"]
        config, dataset = load_config(cfg), load_dataset(data)
        seeds = np.random.SeedSequence(config.seed).generate_state(
            2 + config.outer_rounds_max).tolist()
        expected = Encoders.build(dataset.d_img, dataset.d_attr, config.c,
                                  init_std=0.1, seed=seeds[0])
        stage1a(expected, dataset, config, seed=seeds[2])

        def saved(encoders):
            save_encoders(encoders, tmp_path / "expected.bin")
            return (tmp_path / "expected.bin").read_bytes()

        assert main(base + ["--stage", "1a", "--data", str(data)]) == 0
        assert (out / "encoders.bin").read_bytes() == saved(expected)
        assert main(base + ["--stage", "1b"]) == 0
        assert main(base + ["--stage", "2", "--data", str(data)]) == 0
        decoder = load_decoder(out / "decoder.bin", load_code(out / "code.txt"))
        stage2_refine(expected, decoder, dataset, config)
        assert (out / "encoders.bin").read_bytes() == saved(expected)

    def test_infinite_margin_fails_cleanly(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        gen_tiny_data(data)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG.replace("m = 2", "m = inf"))
        rc = main(["train", "--config", str(cfg), "--data", str(data),
                   "--out-dir", str(tmp_path / "run"),
                   "--decoder-epochs", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "margin must be finite" in err
        assert "Traceback" not in err

    def test_non_finite_decoder_loss_fails_cleanly(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(NeuralBpDecoder, "loss_and_grads",
                            lambda net, llrs, targets: (float("nan"), None))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        rc = main(["train", "--config", str(cfg), "--out-dir",
                   str(tmp_path / "run"), "--stage", "1b",
                   "--decoder-epochs", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite decoder training loss")
        assert "Traceback" not in err

    def test_stage_2_on_empty_dataset_fails_cleanly(self, tmp_path, capsys):
        data, empty = tmp_path / "data.txt", tmp_path / "empty.txt"
        gen_tiny_data(data)
        empty.write_text("")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        base = ["train", "--config", str(cfg), "--out-dir",
                str(tmp_path / "run"), "--decoder-epochs", "2"]
        assert main(base + ["--stage", "1a", "--data", str(data)]) == 0
        assert main(base + ["--stage", "1b"]) == 0
        capsys.readouterr()
        rc = main(base + ["--stage", "2", "--data", str(empty)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: dataset is empty")

    def test_negative_decoder_epochs_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        rc = main(["train", "--config", str(cfg), "--out-dir",
                   str(tmp_path / "run"), "--stage", "1b",
                   "--decoder-epochs", "-1"])
        assert rc == 1
        assert (capsys.readouterr().err
                == "error: decoder epochs must be >= 0, got -1\n")

    def test_stage_2_without_artifacts_fails(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        gen_tiny_data(data)
        rc = main(["train", "--out-dir", str(tmp_path / "empty"),
                   "--stage", "2", "--data", str(data)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_stage_1a_requires_data(self, tmp_path, capsys):
        rc = main(["train", "--out-dir", str(tmp_path / "o"),
                   "--stage", "1a"])
        assert rc == 1


class TestWorkflow:
    def test_end_to_end(self, tmp_path):
        data = tmp_path / "data.txt"
        gen_tiny_data(data)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(data),
                   "--out-dir", str(out), "--stage", "all",
                   "--decoder-epochs", "2"])
        assert rc == 0
        for name in ("encoders.bin", "decoder.bin", "code.txt", "report.csv"):
            assert (out / name).exists()
        report_lines = (out / "report.csv").read_text().splitlines()
        assert report_lines[0].startswith("round, J")
        assert len(report_lines) == 3  # header + round 0 + round 1

        codes_file = tmp_path / "img_codes.txt"
        assert main(["encode", "--encoders", str(out / "encoders.bin"),
                     "--data", str(data), "--modality", "image",
                     "--out", str(codes_file)]) == 0
        codes = read_codes(codes_file)
        assert codes.shape == (16, 31)

        attr_codes = tmp_path / "attr_codes.txt"
        assert main(["encode", "--encoders", str(out / "encoders.bin"),
                     "--data", str(data), "--modality", "attribute",
                     "--out", str(attr_codes)]) == 0
        assert read_codes(attr_codes).shape == (16, 31)

        rankings = tmp_path / "rankings.txt"
        assert main(["retrieve", "--encoders", str(out / "encoders.bin"),
                     "--data", str(data), "--codes", str(codes_file),
                     "--query", "10000000", "--query", "01000000",
                     "--out", str(rankings)]) == 0
        blocks = read_rankings(rankings)
        assert len(blocks) == 2
        assert blocks[0][1].size == 16

        metrics = tmp_path / "metrics.csv"
        assert main(["eval", "--rankings", str(rankings),
                     "--out", str(metrics)]) == 0
        text = metrics.read_text()
        assert "map, 1, " in text
        assert "ndcg, 1, " in text
        assert "queries, 1, 2" in text

    def test_retrieve_bad_mask(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        gen_tiny_data(data)
        rc = main(["retrieve", "--encoders", "nowhere.bin",
                   "--data", str(data), "--codes", "nowhere.txt",
                   "--query", "2", "--out", str(tmp_path / "r.txt")])
        assert rc == 1


class TestGalleryFields:
    """retrieve and attribute encoding load the gallery without parsing its
    features; image encoding parses every field."""

    @pytest.fixture
    def files(self, tmp_path):
        data, encoders, codes = (tmp_path / name for name in (
            "data.txt", "encoders.bin", "codes.txt"))
        gen_tiny_data(data)
        save_encoders(Encoders.build(16, 8, 31, hidden=(16,), seed=0), encoders)
        assert main(["encode", "--encoders", str(encoders), "--data", str(data),
                     "--modality", "image", "--out", str(codes)]) == 0
        return data, encoders, codes

    @staticmethod
    def retrieve(files, data, out):
        _, encoders, codes = files
        return main(["retrieve", "--encoders", str(encoders), "--data",
                     str(data), "--codes", str(codes), "--query", "10000000",
                     "--query", "01100000", "--out", str(out)])

    @staticmethod
    def rewrite_line(data, path, index, edit):
        lines = data.read_text().splitlines(keepends=True)
        lines[index] = edit(lines[index])
        path.write_text("".join(lines))

    def test_rankings_equal_a_full_load(self, files, tmp_path, monkeypatch):
        data = files[0]
        assert self.retrieve(files, data, tmp_path / "skipped.txt") == 0
        monkeypatch.setattr(cli, "load_dataset",
                            lambda path, **_: load_dataset(path))
        assert self.retrieve(files, data, tmp_path / "full.txt") == 0
        skipped = (tmp_path / "skipped.txt").read_bytes()
        assert len(read_rankings(tmp_path / "skipped.txt")) == 2
        assert skipped == (tmp_path / "full.txt").read_bytes()

    def test_corrupt_feature_fails_image_encoding_only(self, files, tmp_path,
                                                       capsys):
        data, encoders, _ = files
        bad = tmp_path / "bad.txt"

        def corrupt(line):
            head, feats = line.rsplit("|", 1)
            tokens = feats.split()
            tokens[3] = "x"
            return f"{head}| {' '.join(tokens)}\n"

        self.rewrite_line(data, bad, 4, corrupt)
        assert self.retrieve(files, data, tmp_path / "good.txt") == 0
        assert self.retrieve(files, bad, tmp_path / "bad-rankings.txt") == 0
        assert ((tmp_path / "bad-rankings.txt").read_bytes()
                == (tmp_path / "good.txt").read_bytes())
        encode = ["encode", "--encoders", str(encoders), "--data", str(bad),
                  "--out", str(tmp_path / "c.txt"), "--modality"]
        assert main(encode + ["attribute"]) == 0
        capsys.readouterr()
        assert main(encode + ["image"]) == 1
        assert f"{bad}:5: unparseable feature value" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("1 | 0 1 0 0 1 0 0 1\n", "expected 3 '|'-separated fields"),
        ("x | 0 1 0 0 1 0 0 1 | 0.5\n", "bad subject id"),
        ("1 | 0 1 0 0 2 0 0 1 | 0.5\n", "attribute values must be 0 or 1"),
        ("1 | 0 1 0 0 1 0 0 | 0.5\n", "inconsistent field widths"),
    ])
    def test_retrieve_rejects_bad_structure(self, files, tmp_path, capsys,
                                            line, message):
        bad = tmp_path / "bad.txt"
        self.rewrite_line(files[0], bad, 1, lambda _: line)
        capsys.readouterr()
        assert self.retrieve(files, bad, tmp_path / "r.txt") == 1
        assert f"{bad}:2: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()

    def test_bad_later_mask_leaves_no_file(self, files, tmp_path, capsys):
        data, encoders, codes = files
        out = tmp_path / "r.txt"
        queries = ["10000000", "01100000", "0010000", "00010000"]
        capsys.readouterr()
        assert main(["retrieve", "--encoders", str(encoders), "--data",
                     str(data), "--codes", str(codes), "--out", str(out)]
                    + [a for q in queries for a in ("--query", q)]) == 1
        assert "query mask length 7 does not match" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("d_attr,c,message", [(8, 15, "8 attributes to 15 bits"),
                                                  (9, 31, "9 attributes to 31 bits")])
    def test_mismatched_encoders_leave_no_file(self, files, tmp_path, capsys,
                                               d_attr, c, message):
        data, _, codes = files
        other = tmp_path / "other.bin"
        save_encoders(Encoders.build(16, d_attr, c, hidden=(16,), seed=0), other)
        out = tmp_path / "r.txt"
        capsys.readouterr()
        assert main(["retrieve", "--encoders", str(other), "--data", str(data),
                     "--codes", str(codes), "--query", "10000000",
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestStreamingEncode:
    """encode streams the gallery in row pieces and writes --out only once
    the last record has parsed; its codes are those of one encoding of
    every row."""

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("stream")
        encoders = Encoders.build(128, 40, 63, seed=2)
        save_encoders(encoders, root / "encoders.bin")
        dataset = generate_synthetic(SyntheticSpec(n_subjects=10_001,
                                                   images_per_subject=1, seed=3))
        save_dataset(dataset, root / "all.txt")
        return root, encoders, dataset

    @staticmethod
    def encode(root, data, modality, out):
        return main(["encode", "--encoders", str(root / "encoders.bin"),
                     "--data", str(data), "--modality", modality,
                     "--out", str(out)])

    @pytest.mark.parametrize("modality", ["image", "attribute"])
    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2049, 10_001])
    def test_codes_equal_whole_gallery_encoding(self, model, tmp_path, rows,
                                                modality):
        root, encoders, dataset = model
        lines = (root / "all.txt").read_text().splitlines(keepends=True)[:rows]
        # blank and whitespace-only lines between records
        data = tmp_path / "gallery.txt"
        data.write_text("".join(line + "\n" * (i % 7 == 3) + " \t\n" * (i % 11 == 5)
                                for i, line in enumerate(lines)))
        if modality == "image":
            want = encoders.encode_images(dataset.features[:rows])
        else:
            want = encoders.encode_attributes(
                dataset.attributes[:rows].astype(np.float64))
        write_codes(tmp_path / "want.txt", sign_hash(want))
        assert self.encode(root, data, modality, tmp_path / "codes.txt") == 0
        assert ((tmp_path / "codes.txt").read_bytes()
                == (tmp_path / "want.txt").read_bytes())

    @pytest.mark.parametrize("sizes", [[1], [1023], [1024] * 2, [1024] * 3,
                                       [1000, 1024, 1024, 3], [1024] * 10 + [17],
                                       [5] * 700])
    def test_row_pieces(self, sizes):
        rows = np.arange(sum(sizes))
        pieces = list(cli._row_pieces(np.split(rows, np.cumsum(sizes)[:-1])))
        assert np.array_equal(np.concatenate(pieces), rows)
        assert all(FORWARD_ROWS // 2 <= len(p) <= FORWARD_ROWS for p in pieces[:-1])
        # Mlp.forward splits a last piece of more than FORWARD_ROWS rows
        # into two of at least FORWARD_ROWS / 2
        assert len(pieces[-1]) < FORWARD_ROWS + FORWARD_ROWS // 2
        assert len(pieces) == 1 or len(pieces[-1]) >= FORWARD_ROWS // 2

    @pytest.mark.parametrize("modality", ["image", "attribute"])
    def test_malformed_last_record_leaves_no_file(self, model, tmp_path,
                                                  capsys, modality):
        root = model[0]
        lines = (root / "all.txt").read_text().splitlines(keepends=True)[:2049]
        sid, bits, feats = lines[-1].split("|")
        lines[-1] = f"{sid}|{bits.replace('0', '2', 1)}|{feats}"
        bad = tmp_path / "bad.txt"
        bad.write_text("".join(lines))
        out = tmp_path / "codes.txt"
        capsys.readouterr()
        assert self.encode(root, bad, modality, out) == 1
        assert (f"{bad}:2049: attribute values must be 0 or 1"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("modality", ["image", "attribute"])
    @pytest.mark.parametrize("text", ["", "\n \n\t\n"])
    def test_gallery_without_records_fails(self, model, tmp_path, capsys,
                                           modality, text):
        empty = tmp_path / "empty.txt"
        empty.write_text(text)
        out = tmp_path / "codes.txt"
        capsys.readouterr()
        assert self.encode(model[0], empty, modality, out) == 1
        assert capsys.readouterr().err == f"error: {empty}: no records\n"
        assert not out.exists()


class TestEval:
    def test_hand_built_single_relevant_at_rank_two(self, tmp_path):
        rankings = tmp_path / "hand.txt"
        rankings.write_text("# query 10\n1, 0, 0, 0\n2, 1, 1, 1\n")
        out = tmp_path / "metrics.csv"
        assert main(["eval", "--rankings", str(rankings),
                     "--out", str(out)]) == 0
        assert "map, 1, 0.5" in out.read_text()

    def test_arity_groups_discovered(self, tmp_path):
        rankings = tmp_path / "hand.txt"
        rankings.write_text(
            "# query 10\n1, 0, 0, 1\n2, 1, 1, 0\n"
            "# query 11\n1, 0, 0, 2\n2, 1, 1, 1\n")
        out = tmp_path / "m.csv"
        assert main(["eval", "--rankings", str(rankings),
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "map, 1, 1.0" in text
        assert "map, 2, 1.0" in text


    def test_group_without_relevant_item_fails(self, tmp_path, capsys):
        rankings = tmp_path / "hand.txt"
        rankings.write_text("# query 11\n1, 0, 0, 1\n2, 1, 1, 0\n")
        rc = main(["eval", "--rankings", str(rankings),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        assert "no query with a relevant item" in capsys.readouterr().err

    def test_rows_equal_library_evaluation(self, tmp_path):
        data = tmp_path / "data.txt"
        gen_tiny_data(data, seed=4)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out-dir", str(out), "--stage", "1a"]) == 0
        codes = tmp_path / "codes.txt"
        assert main(["encode", "--encoders", str(out / "encoders.bin"),
                     "--data", str(data), "--modality", "image",
                     "--out", str(codes)]) == 0
        masks = {arity: enumerate_query_masks(8, arity, max_queries=6, seed=1)
                 for arity in (1, 2)}
        queries = ["".join(map(str, m)) for a in masks for m in masks[a]]
        rankings = tmp_path / "rankings.txt"
        assert main(["retrieve", "--encoders", str(out / "encoders.bin"),
                     "--data", str(data), "--codes", str(codes),
                     "--out", str(rankings)]
                    + [arg for q in queries for arg in ("--query", q)]) == 0
        metrics = tmp_path / "metrics.csv"
        assert main(["eval", "--rankings", str(rankings),
                     "--out", str(metrics)]) == 0
        rows = {}
        for line in metrics.read_text().splitlines()[1:]:
            name, arity, value = (v.strip() for v in line.split(","))
            rows[name, int(arity)] = value

        encoders = load_encoders(out / "encoders.bin")
        dataset = load_dataset(data)
        index = build_index(read_codes(codes), dataset.subject_ids,
                            dataset.attributes)
        assert len(rows) == 5 * len(masks)
        for arity, group in masks.items():
            ev = evaluate_queries(encoders.encode_attributes, index, group)
            assert float(rows["map", arity]) == ev.mean_average_precision
            assert float(rows["ndcg", arity]) == ev.ndcg
            assert int(rows["queries", arity]) == ev.queries
            assert int(rows["skipped_map", arity]) == ev.skipped_map
            assert int(rows["skipped_ndcg", arity]) == ev.skipped_ndcg


class TestBer:
    def _decoder_files(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                     "--stage", "1b", "--decoder-epochs", "0"]) == 0
        return out / "code.txt", out / "decoder.bin"

    def test_csv_rows_and_determinism(self, tmp_path):
        code, decoder = self._decoder_files(tmp_path)
        out = tmp_path / "ber.csv"
        args = ["ber", "--code", str(code), "--decoder", str(decoder),
                "--snr", "6", "8", "--frames", "200", "--seed", "1",
                "--out", str(out)]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db, ber, fer"
        assert len(lines) == 3
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_failing_snr_leaves_no_report(self, tmp_path):
        code, decoder = self._decoder_files(tmp_path)
        out = tmp_path / "ber.csv"
        assert main(["ber", "--code", str(code), "--decoder", str(decoder),
                     "--snr", "4", "inf", "--frames", "20",
                     "--out", str(out)]) == 1
        assert not out.exists()

    # 3081 dB has a finite sigma whose LLR scale 2 / sigma^2 overflows
    @pytest.mark.parametrize("snr", ["-inf", "-4000", "4000", "nan", "inf",
                                     "3081"])
    def test_snr_without_noise_sigma_fails_cleanly(self, tmp_path, capsys, snr):
        code, decoder = self._decoder_files(tmp_path)
        capsys.readouterr()
        rc = main(["ber", "--code", str(code), "--decoder", str(decoder),
                   f"--snr={snr}", "--frames", "20",
                   "--out", str(tmp_path / "ber.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "snr_db" in err
        assert "Traceback" not in err
