"""The text files read and written in bulk: codes, rankings and datasets.

The byte-identity oracles are per-line writers kept here as the formats'
reference; they share no code with the library.
"""

import tracemalloc

import numpy as np
import pytest

from codedhash.cli import main, read_codes, write_codes
from codedhash.data import (Dataset, DatasetFormatError, SyntheticSpec,
                            generate_synthetic, load_dataset, save_dataset)
from codedhash.gf2 import build_bch, load_code, save_code
from codedhash.pipeline import load_config
from codedhash.retrieval import iter_rankings, read_rankings, write_rankings
from codedhash.textio import (CHUNK_ROWS, parse_bits, parse_rows, parse_run,
                              read_chunks, write_rows)

MIB = 1 << 20


def reference_write_codes(path, codes):
    with open(path, "w") as fh:
        fh.write("# columns: code bits (+1/-1), one item per line\n")
        for row in codes:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def reference_write_rankings(path, blocks):
    with open(path, "w") as fh:
        fh.write("# columns: rank, item_id, hamming_distance, relevance\n")
        for mask, item_ids, distances, relevances in blocks:
            fh.write("# query " + "".join(str(int(b)) for b in mask) + "\n")
            for pos, (item, dist, rel) in enumerate(
                    zip(item_ids, distances, relevances), start=1):
                fh.write(f"{pos}, {int(item)}, {int(dist)}, {int(rel)}\n")


def reference_save_dataset(path, dataset):
    with open(path, "w") as fh:
        for sid, attrs, feats in zip(dataset.subject_ids, dataset.attributes,
                                     dataset.features):
            attr_part = " ".join(str(int(a)) for a in attrs)
            feat_part = " ".join(repr(float(v)) for v in feats)
            fh.write(f"{int(sid)} | {attr_part} | {feat_part}\n")


def random_codes(n, c, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, c))


def random_blocks(n_queries, n_items, c, d_attr, seed, id_offset=0):
    rng = np.random.default_rng(seed)
    blocks = []
    for q in range(n_queries):
        mask = np.zeros(d_attr, dtype=np.uint8)
        mask[q % d_attr] = 1
        dists = np.sort(rng.integers(0, c + 1, size=n_items))
        blocks.append((mask, rng.permutation(n_items) + id_offset, dists,
                       rng.integers(0, 2, size=n_items)))
    return blocks


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHelpers:
    def test_read_chunks_numbers_lines_across_chunks(self, tmp_path):
        path = tmp_path / "t.txt"
        text = []
        for i in range(1, 2 * CHUNK_ROWS + 10):
            text.append("   \n" if i % 7 == 0 else
                        "  # note\n" if i % 11 == 0 else f"{i}\n")
        path.write_text("".join(text))
        with open(path) as fh:
            got = [(n, line) for linenos, lines in read_chunks(fh, comment="#")
                   for n, line in zip(linenos, lines)]
        assert [n for n, _ in got] == [i for i in range(1, len(text) + 1)
                                       if i % 7 and i % 11]
        assert all(line == f"{n}\n" for n, line in got)

    def test_parse_rows(self):
        assert parse_rows(["1, 2\n", "3, -4"], np.int64, ",").tolist() == [
            [1, 2], [3, -4]]
        assert parse_rows(["1 2"], np.int64).shape == (1, 2)
        for bad in (["1, 2", "3"], ["1, 2", "  "], ["1, 2", "\n"], [],
                    ["1, 2 # x"], ["1, 1.0"], ["1, 1_0"], ["1, ٣"],
                    ["1, 9223372036854775808"]):
            assert parse_rows(bad, np.int64, ",") is None, bad
        assert parse_rows(["128"], np.int8) is None
        assert parse_rows(["1_0.5"], np.float64) is None

    def test_parse_run_names_first_bad_line_across_runs(self):
        class SequenceError(ValueError):
            pass

        def parse(lines, first):
            """One integer per line, counting up from the state."""
            values = [int(line) for line in lines]
            if values != list(range(first, first + len(values))):
                raise SequenceError("out of sequence")
            return values, first + len(values)

        assert parse_run("t.txt", (1, 2), ["1\n", "2\n"], parse, 1) == (
            [1, 2], 3)
        # the second run is in sequence on its own, but not after the first
        runs = [((1, 2), ["1\n", "2\n"]), ((4, 5, 7), ["3\n", "4\n", "6\n"])]
        state = 1
        with pytest.raises(SequenceError, match=r"^t\.txt:7: out of sequence$"):
            for linenos, lines in runs:
                _, state = parse_run("t.txt", linenos, lines, parse, state)
        assert state == 3
        # the rule's own ValueError keeps its type and reason
        with pytest.raises(ValueError, match=r"^t\.txt:5: invalid literal") as err:
            parse_run("t.txt", (4, 5), ["3\n", "x\n"], parse, 3)
        assert type(err.value) is ValueError

    def test_parse_run_names_first_line_when_every_line_passes(self):
        def parse(lines, state):
            if len(set(lines)) != len(lines):
                raise ValueError("repeated line")
            return list(lines), state

        with pytest.raises(ValueError, match=r"^t\.txt:3: repeated line$"):
            parse_run("t.txt", (3, 4, 9), ["a\n", "b\n", "a\n"], parse, None)

    def test_parse_bits(self):
        bits = parse_bits("0110")
        assert bits.dtype == np.uint8 and bits.tolist() == [0, 1, 1, 0]
        assert parse_bits("").shape == (0,)
        for bad in ("012", "0 1", "01\n", "-1", "1/0", "٠1", "a"):
            assert parse_bits(bad) is None, bad

    @pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2500])
    def test_write_rows_over_chunk_boundaries(self, tmp_path, n):
        table = np.arange(2 * n).reshape(n, 2)
        with open(tmp_path / "t.txt", "w") as fh:
            write_rows(fh, "%d:%d\n", table)
        assert (tmp_path / "t.txt").read_text() == "".join(
            f"{a}:{b}\n" for a, b in table.tolist())


class TestByteIdentity:
    @pytest.mark.parametrize("shape", [(10_000, 63), (0, 63), (37, 1), (1, 1)])
    def test_write_codes(self, tmp_path, shape):
        codes = random_codes(*shape, seed=shape[0])
        write_codes(tmp_path / "new.txt", codes)
        reference_write_codes(tmp_path / "old.txt", codes)
        assert ((tmp_path / "new.txt").read_bytes()
                == (tmp_path / "old.txt").read_bytes())
        if shape[0]:
            assert np.array_equal(read_codes(tmp_path / "new.txt"), codes)

    @pytest.mark.parametrize("n_queries,n_items,c,id_offset", [
        (3, 10_000, 63, 0),      # seeded cli-size blocks
        (2, 0, 63, 0),           # empty gallery
        (4, 50, 1, 0),           # c = 1
        (2, 300, 63, 1 << 31),   # ids past int32
        (1, 5, 63, 1 << 40),
    ])
    def test_write_rankings(self, tmp_path, n_queries, n_items, c, id_offset):
        blocks = random_blocks(n_queries, n_items, c, 40, seed=n_items,
                               id_offset=id_offset)
        write_rankings(tmp_path / "new.txt", blocks)
        reference_write_rankings(tmp_path / "old.txt", blocks)
        assert ((tmp_path / "new.txt").read_bytes()
                == (tmp_path / "old.txt").read_bytes())
        if n_items:
            for (mask, ids, dists, rels), back in zip(
                    blocks, read_rankings(tmp_path / "new.txt")):
                for want, got in zip((mask, ids, dists, rels), back):
                    assert np.array_equal(want, got)

    def test_write_rankings_rejects_ragged_block(self, tmp_path):
        block = (np.array([1, 0]), np.arange(3), np.arange(3), np.arange(2))
        with pytest.raises(ValueError, match="one entry per ranked item"):
            write_rankings(tmp_path / "r.txt", [block])

    @pytest.mark.parametrize("column, values, reason", [
        (1, [5, 5], "item id repeated in the query block"),
        (2, [-1, 2], "negative Hamming distance"),
        (3, [3, 0], r"relevance grade outside 0\.\.1"),
    ], ids=["repeated_id", "negative_distance", "grade_above_arity"])
    def test_write_rankings_keeps_the_readers_value_rules(self, tmp_path, column,
                                                          values, reason):
        """A block under `# query 10` that read_rankings would reject is not
        written, and the writer gives the reader's reason."""
        block = [np.array([1, 0]), np.array([5, 6]), np.array([0, 2]),
                 np.array([1, 0])]
        block[column] = np.array(values)
        with pytest.raises(ValueError, match=f"^{reason}$"):
            write_rankings(tmp_path / "w.txt", [tuple(block)])
        rows = "".join(f"{r}, {i}, {d}, {g}\n"
                       for r, (i, d, g) in enumerate(zip(*block[1:]), start=1))
        (tmp_path / "r.txt").write_text("# query 10\n" + rows)
        with pytest.raises(ValueError, match=rf"r\.txt:\d: {reason}$"):
            read_rankings(tmp_path / "r.txt")

    @pytest.mark.parametrize("dataset", [
        Dataset(np.array([0, 7, -3], dtype=np.int64),
                np.array([[1, 0], [0, 0], [1, 1]], dtype=np.uint8),
                np.array([[-0.0, 5e-324, 1e308, 0.1, 1e16],
                          [0.0, -5e-324, -1e308, -0.1, -1e16],
                          [1e16 + 2.0, 0.1 + 0.2, 1e-310, 1.0, 123456789.0]])),
        generate_synthetic(SyntheticSpec(n_subjects=40, images_per_subject=3,
                                         d_attr=7, d_img=5, seed=4)),
    ], ids=["edge_floats", "synthetic"])
    def test_save_dataset(self, tmp_path, dataset):
        """Every feature keeps its own repr's shortest round-trip digits:
        signed zero, subnormals, 1e308 and 1e16 (printed as 1e+16)."""
        save_dataset(dataset, tmp_path / "new.txt")
        reference_save_dataset(tmp_path / "old.txt", dataset)
        assert ((tmp_path / "new.txt").read_bytes()
                == (tmp_path / "old.txt").read_bytes())

    def test_dataset_round_trip_across_chunks(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_subjects=250,
                                              images_per_subject=9,
                                              d_attr=7, d_img=5, seed=4))
        save_dataset(ds, tmp_path / "d.txt")
        back = load_dataset(tmp_path / "d.txt")
        for field in ("subject_ids", "attributes", "features"):
            want, got = getattr(ds, field), getattr(back, field)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_dataset_without_features_across_chunks(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_subjects=250,
                                              images_per_subject=9,
                                              d_attr=7, d_img=5, seed=4))
        save_dataset(ds, tmp_path / "d.txt")
        back = load_dataset(tmp_path / "d.txt", with_features=False)
        for field in ("subject_ids", "attributes"):
            want, got = getattr(ds, field), getattr(back, field)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert back.features.shape == (len(ds), 0)

    def test_dataset_zero_widths(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("3 |  | \n\n4 | | \n")
        ds = load_dataset(path)
        assert ds.subject_ids.tolist() == [3, 4]
        assert ds.attributes.shape == (2, 0) and ds.features.shape == (2, 0)


GOOD_RECORD = "0 | 0 1 | 0.5 -1.5\n"
# faults a load rejects at the same line whether or not it parses features
STRUCTURE_FAULTS = [
    ("0 | 0 1\n", 1),                                     # two fields
    ("0 | 0 1 | 0.5 | 1\n", 1),                           # four fields
    ("x | 0 1 | 0.5 0.5\n", 1),
    (" | 0 1 | 0.5 0.5\n", 1),
    ("1 2 | 0 1 | 0.5 0.5\n", 1),
    ("1.0 | 0 1 | 0.5 0.5\n", 1),
    ("1_0 | 0 1 | 0.5 0.5\n", 1),
    ("9223372036854775808 | 0 1 | 0.5 0.5\n", 1),
    ("-9223372036854775809 | 0 1 | 0.5 0.5\n", 1),
    ("# note\n" + GOOD_RECORD, 1),
    (GOOD_RECORD + "1 | 0 2 | 0.5 0.5\n", 2),
    (GOOD_RECORD + "1 | 0 01 | 0.5 0.5\n", 2),
    (GOOD_RECORD + "1 | 0 1 1 | 0.5 0.5\n", 2),
    (GOOD_RECORD * 1100 + "x | 0 1 | 0.5 0.5\n", 1101),
]
# faults in the feature field alone
FEATURE_FAULTS = [
    (GOOD_RECORD + "1 | 0 1 | x 0.5\n", 2),
    (GOOD_RECORD + "1 | 0 1 | 0.5 1_0\n", 2),
    (GOOD_RECORD + "1 | 0 1 | 0.5 ٣\n", 2),
    (GOOD_RECORD + "1 | 0 1 | 0.5 0.5 # c\n", 2),
    (GOOD_RECORD + "1 | 0 1 | nan 0.5\n", 2),
    (GOOD_RECORD + "1 | 0 1 | 0.5 1e999\n", 2),
    (GOOD_RECORD + "1 | 0 1 | 0.5\n", 2),
    (GOOD_RECORD + "1 | 0 1 |\n", 2),
    ("0 | 0 1 |\n1 | 0 1 | 0.5\n", 2),
    (GOOD_RECORD + "\n   \n" + "1 | 0 1 | 0.5\n", 4),
    # a fault in a later chunk, and a width change at a chunk boundary
    (GOOD_RECORD * 1500 + "1 | 0 1 | 0.5 inf\n" + GOOD_RECORD, 1501),
    (GOOD_RECORD * CHUNK_ROWS + "1 | 0 1 | 0.5 0.5 0.5\n", CHUNK_ROWS + 1),
]
# a feature fault on line 2 before a structure fault on line 3: the first
# fault in line order wins, and a load without features sees only the second
MIXED_FAULTS = [
    GOOD_RECORD + "1 | 0 1 | x 0.5\n" + "2 | 0 1\n",
    GOOD_RECORD + "1 | 0 1 | 0.5 0.5 0.5\n" + "2 | 0 2 | 0.5 0.5\n",
]
DATASET_FAULTS = (STRUCTURE_FAULTS + FEATURE_FAULTS
                  + [(text, 2) for text in MIXED_FAULTS])

RANKING_FAULTS = [
    ("1, 5, 0, 1\n", 1),                                  # row before a query
    ("# query 12\n1, 5, 0, 1\n", 1),
    ("# query\n1, 5, 0, 1\n", 2),                          # a comment, not a query
    ("# query 10\n# query 01\n1, 5, 0, 1\n", 1),          # empty block
    ("# query 10\n", 1),
    ("# query 10\n1, 5, 0, 1\n2, three, 2, 0\n", 3),
    ("# query 10\n2, 5, 0, 1\n", 2),
    ("# query 10\n1, 5, 0\n", 2),
    ("# query 10\n1, 5, 0, 1, 7\n", 2),
    ("# query 10\n1, 5, 0, 1,\n", 2),
    ("# query 10\n1, , 0, 1\n", 2),
    ("# query 10\n1, 99999999999999999999, 0, 1\n", 2),
    ("# query 10\n1, 5.0, 0, 1\n", 2),
    ("# query 10\n1, 1_0, 0, 1\n", 2),
    ("# query 10\n1, ٣, 0, 1\n", 2),
    ("# query 10\n1, 5, 0, 1 # note\n", 2),
    ("# query 10\n1 5 0 1\n", 2),
    ("# query 10\n1, 5, 0, 1\n\n  \n# c\n3, 6, 1, 0\n", 6),
    ("# query 10\n1, 5, 0, 1\n2, x, 0, 1\n4, 6, 1, 0\n", 3),
    ("# query 10\n1, 5, 0, 1\n3, 6, 0, 1\n2, x, 1, 0\n", 3),
    ("# query 10\n1, 5, 0, 1\n# query 2\n", 3),
    ("# query 00\n1, 5, 0, 1\n", 1),                     # selects no attribute
    ("# query 10\n" + "".join(f"{r}, {r}, 0, 1\n" for r in range(1, 1501))
     + "1501, 7, 0\n", 1502),
    ("# query 10\n1, 5, 0, 1\n# query 01\n"
     + "".join(f"{r}, {r}, 0, 1\n" for r in range(1, 2001))
     + "2002, 1, 1, 1\n", 2004),
    ("# query 10\n1, 5, -4, 1\n2, 5, 1, 3\n", 2),      # negative distance
    ("# query 10\n1, 5, 0, 1\n2, 6, 1, 2\n", 3),       # grade above arity
    ("# query 11\n1, 5, 0, 2\n2, 6, 1, 3\n", 3),
    ("# query 10\n1, 5, 0, -1\n", 2),                   # grade below 0
    ("# query 10\n1, 5, 0, 1\n2, 6, 1, 0\n3, 5, 2, 0\n", 4),  # repeated id
    ("# query 10\n" + "".join(f"{r}, {r}, 0, 1\n" for r in range(1, 1501))
     + "1501, 3, 1, 0\n", 1502),
    ("# query 10\n1, 5, 0, 1\n# query 01\n1, 5, 0, 1\n2, 5, 0, 1\n", 5),
    ("# query 10\n1, 5, 0, 1\n# query 011\n1, 5, 0, 1\n", 3),  # mask length
    ("# query 101\n1, 5, 0, 1\n# query 01\n1, 5, 0, 1\n", 3),
]

CODE_FAULTS = [
    ("1 0 1\n", 1),
    ("1 -1\n1 -1 1\n", 2),
    ("# header\n1 -1\nx 1\n", 3),
    ("1 -1\n\n1 2\n", 3),
    ("1 300\n", 1),
    ("1 -1 # note\n", 1),
    ("1 1.0\n", 1),
    ("1 1_0\n", 1),
    ("1 ١\n", 1),
    ("1 -1\n1 0 1\n", 2),                                  # bits before width
    ("1 -1\n" * 1500 + "1 -1 1\n", 1501),
    ("1 -1\n" * CHUNK_ROWS + "1 -1 1\n", CHUNK_ROWS + 1),
]


class TestMalformedInputs:
    @pytest.mark.parametrize("text,lineno", DATASET_FAULTS)
    def test_dataset(self, tmp_path, text, lineno):
        path = tmp_path / "d.txt"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match=f"d.txt:{lineno}: "):
            load_dataset(path)

    @pytest.mark.parametrize("text,lineno", STRUCTURE_FAULTS
                             + [(text, 3) for text in MIXED_FAULTS])
    def test_dataset_without_features(self, tmp_path, text, lineno):
        path = tmp_path / "d.txt"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match=f"d.txt:{lineno}: "):
            load_dataset(path, with_features=False)

    @pytest.mark.parametrize("text,lineno", FEATURE_FAULTS)
    def test_feature_faults_load_without_features(self, tmp_path, text, lineno):
        path = tmp_path / "d.txt"
        path.write_text(text)
        ds = load_dataset(path, with_features=False)
        assert len(ds) == sum(bool(line.strip()) for line in text.splitlines())
        assert ds.attributes.shape == (len(ds), 2)
        assert ds.features.shape == (len(ds), 0)

    @pytest.mark.parametrize("text,lineno", RANKING_FAULTS)
    def test_rankings(self, tmp_path, text, lineno):
        path = tmp_path / "r.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"r.txt:{lineno}: "):
            read_rankings(path)

    @pytest.mark.parametrize("text,lineno", CODE_FAULTS)
    def test_codes(self, tmp_path, text, lineno):
        path = tmp_path / "c.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"c.txt:{lineno}: "):
            read_codes(path)

    def test_accepted_variants(self, tmp_path):
        """Signs, tabs, CRLF endings and blank or comment lines still parse."""
        (tmp_path / "r.txt").write_text(
            "\n# query 01\r\n +1,\t-5 , +0, 1\r\n\n# note\n2, 7, 3, 0")
        [(mask, ids, dists, rels)] = read_rankings(tmp_path / "r.txt")
        assert (mask.tolist(), ids.tolist(), dists.tolist(), rels.tolist()) == (
            [0, 1], [-5, 7], [0, 3], [1, 0])
        (tmp_path / "c.txt").write_text("  # c\n+1\t-1\r\n\n-1 1")
        assert read_codes(tmp_path / "c.txt").tolist() == [[1, -1], [-1, 1]]
        (tmp_path / "d.txt").write_text(
            "-9223372036854775808|1\t0|+1E3  -0.5\n"
            "\n9223372036854775807 | 0 0 | 2 3\n")
        ds = load_dataset(tmp_path / "d.txt")
        assert ds.subject_ids.tolist() == [-(1 << 63), (1 << 63) - 1]
        assert ds.features.tolist() == [[1000.0, -0.5], [2.0, 3.0]]


# (writer of a valid file, its loader) for every text format
TEXT_LOADERS = pytest.mark.parametrize("write, load", [
    (lambda p: p.write_text("0 | 1 0 | 0.5 0.25\n"), load_dataset),
    (lambda p: p.write_text("1 -1 1\n"), read_codes),
    (lambda p: p.write_text("# query 10\n1, 4, 0, 1\n"),
     lambda p: list(iter_rankings(p))),
    (lambda p: save_code(build_bch(4, 2), p), load_code),
    (lambda p: p.write_text("m = 2\n"), load_config),
], ids=["dataset", "codes", "rankings", "code", "config"])


@TEXT_LOADERS
def test_undecodable_byte_names_the_file(tmp_path, write, load):
    """A byte the file's encoding cannot decode, past the loader's first
    buffer of valid lines, is a ValueError naming the file."""
    path = tmp_path / "f.txt"
    write(path)
    with open(path, "ab") as fh:
        fh.write(b"\n" * 10_000 + b"\xff\n")
    with pytest.raises(ValueError) as info:
        load(path)
    assert not isinstance(info.value, UnicodeDecodeError)
    assert str(info.value).startswith(f"{path}: byte 0xff is not ")


class TestOutOfRangeIntegersInCli:
    def test_eval_rejects_out_of_range_id(self, tmp_path, capsys):
        rankings = tmp_path / "rankings.txt"
        rankings.write_text("# query 10\n1, 99999999999999999999, 0, 1\n")
        rc = main(["eval", "--rankings", str(rankings),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rankings.txt:2: " in err

    def test_train_rejects_out_of_range_subject_id(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("0 | 0 1 | 0.5\n18446744073709551616 | 1 0 | 0.5\n")
        rc = main(["train", "--stage", "1a", "--data", str(data),
                   "--out-dir", str(tmp_path / "model")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "data.txt:2: bad subject id" in err


class TestMemoryAtCliSizes:
    """tracemalloc peaks at the cli-roundtrip sizes: a 10^4 x 128 gallery
    with 40 attributes, 63-bit codes and 40 ranked queries."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-sizes")
        gallery = generate_synthetic(SyntheticSpec(n_subjects=1000,
                                                   images_per_subject=10,
                                                   seed=1))
        save_dataset(gallery, root / "gallery.txt")
        codes = random_codes(10_000, 63, seed=2)
        write_codes(root / "codes.txt", codes)
        blocks = random_blocks(40, 10_000, 63, 40, seed=3)
        write_rankings(root / "rankings.txt", blocks)
        return root, codes, blocks

    def test_readers(self, files):
        root, _, _ = files
        assert peak_bytes(load_dataset, root / "gallery.txt") < 32 * MIB
        assert peak_bytes(read_rankings, root / "rankings.txt") < 16 * MIB
        assert peak_bytes(read_codes, root / "codes.txt") < 8 * MIB

    def test_writers(self, files, tmp_path):
        root, codes, blocks = files
        assert peak_bytes(write_codes, tmp_path / "c.txt", codes) < 4 * MIB
        assert peak_bytes(write_rankings, tmp_path / "r.txt", blocks) < 4 * MIB
        # a 25 MiB text file, formatted a row at a time
        gallery = load_dataset(root / "gallery.txt")
        assert peak_bytes(save_dataset, gallery, tmp_path / "g.txt") < 1 * MIB
