import importlib.metadata
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import codedhash
from codedhash.cli import main, read_codes, write_codes
from codedhash.data import load_dataset
from codedhash.gf2 import load_code
from codedhash.hashing import load_encoders
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
    assert main(["gen-data", "--out", str(path), "--subjects", "8",
                 "--images-per-subject", "2", "--d-attr", "8",
                 "--d-img", "16", "--seed", str(seed)]) == 0


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
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        gen_tiny_data(a, seed=7)
        gen_tiny_data(b, seed=7)
        assert a.read_bytes() == b.read_bytes()
        ds = load_dataset(a)
        assert len(ds) == 16
        assert ds.d_attr == 8

    def test_invalid_density_fails(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "x.txt"),
                   "--subjects", "2", "--images-per-subject", "1",
                   "--density", "0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


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
                   "--stage", "1b", "--decoder-epochs", "2",
                   "--decoder-frames", "8"])
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
                "--hidden", "16", "--decoder-epochs", "2",
                "--decoder-frames", "8"]
        assert main(base + ["--stage", "1a", "--data", str(data)]) == 0
        first = (out / "encoders.bin").read_bytes()
        assert main(base + ["--stage", "1b"]) == 0
        assert main(base + ["--stage", "2", "--data", str(data)]) == 0
        assert (out / "encoders.bin").read_bytes() != first

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
                   "--hidden", "16", "--decoder-epochs", "2",
                   "--decoder-frames", "8"])
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
        assert main(["eval", "--rankings", str(rankings), "--arity", "1",
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


class TestEval:
    def test_hand_built_single_relevant_at_rank_two(self, tmp_path):
        rankings = tmp_path / "hand.txt"
        rankings.write_text("# query 10\n1, 0, 0, 0\n2, 1, 1, 1\n")
        out = tmp_path / "metrics.csv"
        assert main(["eval", "--rankings", str(rankings), "--arity", "1",
                     "--out", str(out)]) == 0
        assert "map, 1, 0.5" in out.read_text()

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_nonpositive_k_rejected(self, tmp_path, capsys, k):
        rankings = tmp_path / "hand.txt"
        rankings.write_text("# query 10\n1, 0, 0, 0\n2, 1, 1, 1\n")
        rc = main(["eval", "--rankings", str(rankings), "--k", k,
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        assert "k must be >= 1" in capsys.readouterr().err

    def test_missing_arity_group(self, tmp_path, capsys):
        rankings = tmp_path / "hand.txt"
        rankings.write_text("# query 10\n1, 0, 0, 1\n")
        rc = main(["eval", "--rankings", str(rankings), "--arity", "2",
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1

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
                     "--out-dir", str(out), "--stage", "1a",
                     "--hidden", "16"]) == 0
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

    @pytest.mark.parametrize("snr", ["-inf", "-4000", "4000", "nan", "inf"])
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
