import numpy as np
import pytest

from codedhash._checks import PIECE
from codedhash.data import (
    ATTRIBUTE_DENSITY,
    FEATURE_NOISE_STD,
    Dataset,
    DatasetFormatError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    similarity_matrix,
)
from codedhash.hashing import Encoders


def containment_oracle(attrs):
    n = attrs.shape[0]
    s = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        for j in range(n):
            s[i, j] = all(attrs[i, b] >= attrs[j, b]
                          for b in range(attrs.shape[1]))
    return s


def repeat_formula(spec):
    """(float64 features, per-subject attributes) of `spec` by the
    whole-array formula: every noise row drawn at once, added to the
    repeated prototypes."""
    rng = np.random.default_rng(spec.seed)
    embed = rng.normal(size=(spec.d_attr, spec.d_img)) / np.sqrt(spec.d_attr)
    subject_attrs = (rng.random((spec.n_subjects, spec.d_attr))
                     < ATTRIBUTE_DENSITY).astype(np.uint8)
    prototypes = subject_attrs.astype(np.float64) @ embed
    n = spec.n_subjects * spec.images_per_subject
    noise = rng.normal(0.0, 1.0, size=(n, spec.d_img))
    return (np.repeat(prototypes, spec.images_per_subject, axis=0)
            + FEATURE_NOISE_STD * noise), subject_attrs


class TestSyntheticSpec:
    def test_defaults(self):
        spec = SyntheticSpec(n_subjects=5, images_per_subject=2)
        assert spec.d_attr == 40
        assert spec.d_img == 128
        assert (ATTRIBUTE_DENSITY, FEATURE_NOISE_STD) == (0.5, 0.1)

    @pytest.mark.parametrize("kwargs", [
        dict(n_subjects=0, images_per_subject=1),
        dict(n_subjects=1, images_per_subject=0),
        dict(n_subjects=1, images_per_subject=1, d_attr=0),
        dict(n_subjects=1, images_per_subject=1, d_img=0),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)


class TestGenerateSynthetic:
    def test_shapes_and_grouping(self):
        spec = SyntheticSpec(n_subjects=4, images_per_subject=3, d_attr=6,
                             d_img=10, seed=1)
        ds = generate_synthetic(spec)
        assert len(ds) == 12
        assert ds.attributes.shape == (12, 6)
        assert ds.features.shape == (12, 10)
        assert ds.subject_ids.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
        for sid in range(4):
            rows = ds.attributes[ds.subject_ids == sid]
            assert (rows == rows[0]).all()

    def test_fixed_seed_bit_identical(self):
        spec = SyntheticSpec(n_subjects=6, images_per_subject=2, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.attributes, b.attributes)

    def test_seed_changes_data(self):
        base = SyntheticSpec(n_subjects=6, images_per_subject=2, seed=1)
        other = SyntheticSpec(n_subjects=6, images_per_subject=2, seed=2)
        assert not np.array_equal(generate_synthetic(base).features,
                                  generate_synthetic(other).features)

    def test_empirical_attribute_density(self):
        # 250 subjects x 40 attributes = 1e4 Bernoulli draws
        spec = SyntheticSpec(n_subjects=250, images_per_subject=1, seed=3)
        ds = generate_synthetic(spec)
        density = ds.attributes[::1].mean()
        assert abs(density - 0.5) < 0.02

    @pytest.mark.parametrize("kwargs", [
        dict(n_subjects=50, images_per_subject=8, seed=1),
        dict(n_subjects=100, images_per_subject=100, seed=2),
        dict(n_subjects=6, images_per_subject=5),
        dict(n_subjects=9, images_per_subject=1, seed=3),
        dict(n_subjects=1, images_per_subject=1, d_attr=1, d_img=1),
        # the cases above hold 2-32 subjects in a piece of PIECE entries;
        # these split one subject's images, and one image's features
        dict(n_subjects=3, images_per_subject=300, seed=4),
        dict(n_subjects=2, images_per_subject=3, d_attr=3, d_img=PIECE + 5,
             seed=5),
    ])
    def test_features_match_repeat_formula(self, kwargs):
        """Generation in pieces gives the float32 rounding of
        `repeat(prototypes) + std * noise`, the float64 formula it
        replaced: the pieces draw the one noise stream in C order."""
        spec = SyntheticSpec(**kwargs)
        want, subject_attrs = repeat_formula(spec)
        ds = generate_synthetic(spec)
        assert ds.features.dtype == np.float32
        assert ds.features.tobytes() == want.astype(np.float32).tobytes()
        assert np.array_equal(
            ds.attributes,
            np.repeat(subject_attrs, spec.images_per_subject, axis=0))

    def test_encoder_activations_match_the_float64_formula(self):
        """float32 features give the activations of the float64 formula's
        features bit for bit, as the encoders cast their input to float32."""
        spec = SyntheticSpec(n_subjects=40, images_per_subject=8, seed=6)
        want, _ = repeat_formula(spec)
        ds = generate_synthetic(spec)
        enc = Encoders.build(spec.d_img, spec.d_attr, 63, seed=2)
        assert (enc.encode_images(ds.features).tobytes()
                == enc.encode_images(want).tobytes())

    def test_subset(self):
        ds = generate_synthetic(SyntheticSpec(n_subjects=3,
                                              images_per_subject=2, seed=0))
        sub = ds.subset([0, 3, 5])
        assert len(sub) == 3
        assert np.array_equal(sub.features[1], ds.features[3])


class TestSimilarityMatrix:
    def test_hand_fixture(self):
        attrs = np.array([
            [1, 1, 0],
            [1, 0, 0],
            [0, 0, 0],
        ], dtype=np.uint8)
        s = similarity_matrix(attrs)
        # row i marks which attribute sets j are contained in i's
        assert s.tolist() == [
            [1, 1, 1],
            [0, 1, 1],
            [0, 0, 1],
        ]

    def test_diagonal_always_one(self):
        rng = np.random.default_rng(4)
        attrs = rng.integers(0, 2, size=(20, 8))
        assert (np.diag(similarity_matrix(attrs)) == 1).all()

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        attrs = rng.integers(0, 2, size=(15, 6)).astype(np.uint8)
        assert np.array_equal(similarity_matrix(attrs),
                              containment_oracle(attrs))

    @pytest.mark.parametrize("rows,d_attr", [(1, 1), (128, 40), (400, 40),
                                             (64, 200)])
    def test_equals_int64_product(self, rows, d_attr):
        rng = np.random.default_rng(rows)
        attrs = rng.integers(0, 2, size=(rows, d_attr)).astype(np.uint8)
        attrs[::7] = 0
        attrs[3::11] = 1
        a = attrs.astype(np.int64)
        want = ((1 - a) @ a.T == 0).astype(np.uint8)
        got = similarity_matrix(attrs)
        assert got.dtype == np.uint8
        assert got.tobytes() == want.tobytes()


class TestDatasetFiles:
    def test_round_trip_exact(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_subjects=4,
                                              images_per_subject=3,
                                              d_attr=5, d_img=6, seed=11))
        path = tmp_path / "data.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.subject_ids, ds.subject_ids)
        assert np.array_equal(back.attributes, ds.attributes)
        assert back.features.dtype == np.float32
        assert back.features.tobytes() == ds.features.tobytes()

    def test_feature_beyond_float32_range_names_line(self, tmp_path):
        """1e39 is finite in float64 but not in float32: the reader names
        its line, with no overflow warning from the cast."""
        path = tmp_path / "big.txt"
        path.write_text("0 | 1 0 | 0.5 0.5\n1 | 0 1 | 1e39 0.5\n")
        with pytest.raises(DatasetFormatError, match=r"big\.txt:2: non-finite"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        ds = load_dataset(path)
        assert len(ds) == 0

    def test_bad_attribute_value_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 | 0 1 | 0.5 0.5\n1 | 0 2 | 0.5 0.5\n")
        with pytest.raises(DatasetFormatError, match=":2"):
            load_dataset(path)

    def test_bad_field_count_names_line(self, tmp_path):
        path = tmp_path / "fields.txt"
        path.write_text("0 | 0 1\n")
        with pytest.raises(DatasetFormatError, match=":1"):
            load_dataset(path)

    def test_inconsistent_width_names_line(self, tmp_path):
        path = tmp_path / "width.txt"
        path.write_text("0 | 0 1 | 1.0 2.0\n1 | 0 1 1 | 1.0 2.0\n")
        with pytest.raises(DatasetFormatError, match=":2"):
            load_dataset(path)

    def test_unparseable_feature_names_line(self, tmp_path):
        path = tmp_path / "feat.txt"
        path.write_text("0 | 1 | x\n")
        with pytest.raises(DatasetFormatError, match=":1"):
            load_dataset(path)

    @pytest.mark.parametrize("field, value", [
        ("subject_ids", np.zeros((3, 1), dtype=np.int64)),
        ("subject_ids", np.array(0)),
        ("attributes", np.zeros(3, dtype=np.uint8)),
        ("attributes", np.zeros((3, 4, 1), dtype=np.uint8)),
        ("features", np.zeros(3)),
        ("features", np.zeros((3, 2, 2))),
    ])
    def test_dataset_rejects_misshapen_field(self, field, value):
        fields = dict(subject_ids=np.arange(3),
                      attributes=np.zeros((3, 4), dtype=np.uint8),
                      features=np.zeros((3, 2)))
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            Dataset(**fields)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(2, dtype=np.int64),
                    np.array([[0, 2], [0, 1]], dtype=np.uint8),
                    np.zeros((2, 3)))
        with pytest.raises(ValueError):
            Dataset(np.zeros(1, dtype=np.int64),
                    np.zeros((1, 2), dtype=np.uint8),
                    np.array([[np.inf, 0.0]]))

    def test_dataset_rejects_features_beyond_float32_range(self):
        """A float64 feature finite in float64 but not in float32 is
        rejected after the cast, with no overflow warning."""
        with pytest.raises(ValueError, match="feature entries must be finite"):
            Dataset(np.zeros(1, dtype=np.int64),
                    np.zeros((1, 2), dtype=np.uint8),
                    np.array([[1e39, 0.0]]))

    def test_dataset_holds_float32_features(self):
        """Float64 features are held as their float32 cast; float32
        features are held as they are, not copied."""
        ids, attrs = np.arange(3), np.zeros((3, 2), dtype=np.uint8)
        feats = np.random.default_rng(7).normal(size=(3, 4))
        ds = Dataset(ids, attrs, feats)
        assert ds.features.dtype == np.float32
        assert ds.features.tobytes() == feats.astype(np.float32).tobytes()
        feats32 = feats.astype(np.float32)
        assert Dataset(ids, attrs, feats32).features is feats32
