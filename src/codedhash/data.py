"""Synthetic attribute/feature datasets and their text serialization.

Each record pairs a subject id with the subject's binary attribute vector
and one image feature vector.  Synthetic data draws per-subject attributes
from a Bernoulli(ATTRIBUTE_DENSITY) distribution, embeds them through one
fixed random linear map into feature space, and perturbs each image around
that subject prototype with Gaussian noise of std FEATURE_NOISE_STD.
Features are float32 everywhere in this module, generated, read or
built, as the encoders compute in float32; a generated feature is the
float32 rounding of its float64 prototype-plus-noise sum, and the text
format holds each float32 value's exact `repr`.

An image is similar to an attribute vector when the image's subject
possesses every attribute the vector sets, so the similarity matrix is
superset containment: S[i, j] = 1 iff attributes_j is a subset of
attributes_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import all_either, all_finite, row_blocks
from .textio import open_text, parse_bits, parse_rows, parse_run, read_chunks


ATTRIBUTE_DENSITY = 0.5
FEATURE_NOISE_STD = 0.1


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Sizes and seed of a synthetic dataset; every generated set has the
    module's attribute density and feature noise."""

    n_subjects: int
    images_per_subject: int
    d_attr: int = 40
    d_img: int = 128
    seed: int = 0

    def __post_init__(self):
        for name in ("n_subjects", "images_per_subject", "d_attr", "d_img"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class Dataset:
    subject_ids: np.ndarray  # (n,)
    attributes: np.ndarray   # (n, d_attr) entries in {0, 1}
    features: np.ndarray     # (n, d_img) float32: any other dtype is cast
                             # once, float32 kept without a copy

    def __post_init__(self):
        # a value beyond float32's range casts to inf, which the finiteness
        # check below rejects, so numpy's overflow warning is not raised
        with np.errstate(over="ignore"):
            object.__setattr__(self, "features",
                               np.asarray(self.features, dtype=np.float32))
        for name, ndim in (("subject_ids", 1), ("attributes", 2),
                           ("features", 2)):
            shape = np.shape(getattr(self, name))
            if len(shape) != ndim:
                raise ValueError(f"{name} must be a {ndim}-D array, "
                                 f"got shape {shape}")
        n = self.subject_ids.shape[0]
        if self.attributes.shape[0] != n or self.features.shape[0] != n:
            raise ValueError("record counts disagree across fields")
        if not all_either(self.attributes, 0, 1):
            raise ValueError("attribute entries must be 0 or 1")
        if not all_finite(self.features):
            raise ValueError("feature entries must be finite")

    def __len__(self) -> int:
        return self.subject_ids.shape[0]

    @property
    def d_attr(self) -> int:
        return self.attributes.shape[1]

    @property
    def d_img(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        if idx.dtype != bool:
            idx = idx.astype(np.int64, copy=False)
        return Dataset(self.subject_ids[idx], self.attributes[idx],
                       self.features[idx])


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset for a given spec (seed included)."""
    rng = np.random.default_rng(spec.seed)
    embed = rng.normal(size=(spec.d_attr, spec.d_img)) / np.sqrt(spec.d_attr)
    subject_attrs = (rng.random((spec.n_subjects, spec.d_attr))
                     < ATTRIBUTE_DENSITY).astype(np.uint8)
    prototypes = subject_attrs.astype(np.float64) @ embed
    n = spec.n_subjects * spec.images_per_subject
    subject_ids = np.repeat(np.arange(spec.n_subjects, dtype=np.int64),
                            spec.images_per_subject)
    attributes = np.repeat(subject_attrs, spec.images_per_subject, axis=0)
    # one float64 piece of noise at a time, drawn in C order as one draw of
    # every row would be, scaled and added to its prototypes in float64
    # (std * noise + prototype is the same IEEE sum as prototype + std *
    # noise), then rounded into the float32 output
    features = np.empty((n, spec.d_img), dtype=np.float32)
    per_subject = features.reshape(spec.n_subjects, spec.images_per_subject,
                                   spec.d_img)
    per_image = np.broadcast_to(prototypes[:, None, :], per_subject.shape)
    for idx in row_blocks(per_subject.shape):
        piece = rng.standard_normal(per_subject[idx].shape)
        piece *= FEATURE_NOISE_STD
        piece += per_image[idx]
        per_subject[idx] = piece
    return Dataset(subject_ids, attributes, features)


def similarity_matrix(attributes) -> np.ndarray:
    """S[i, j] = 1 iff row j's attribute set is contained in row i's, over
    the rows of one attribute array."""
    a = np.asarray(attributes, dtype=np.float64)
    # count the attributes j sets that i lacks; containment means zero.  The
    # counts are integers of at most d_attr, exact in float64, and the
    # float64 product runs on BLAS where an int64 one does not
    missing = (1.0 - a) @ a.T
    return (missing == 0).astype(np.uint8)


# ---------------------------------------------------------------------------
# Text files
# ---------------------------------------------------------------------------

def save_dataset(dataset: Dataset, path) -> None:
    """Lines of `subject_id | 0/1 attributes | features`, each feature the
    exact `repr` of its float32 value."""
    with open(path, "w") as fh:
        for sid, attrs, feats in zip(dataset.subject_ids.tolist(),
                                     dataset.attributes, dataset.features):
            fh.write(f"{sid} | {' '.join(map(str, attrs.tolist()))} | "
                     f"{' '.join(map(repr, feats.tolist()))}\n")


def read_records(path, *, with_features: bool = True):
    """Yield (subject ids, attributes, float32 features) for each run of
    CHUNK_ROWS records of a save_dataset file, the last run taking the
    rest; blank lines are skipped.

    One rule checks a run (three `|` fields, attribute tokens that are
    literally 0 or 1, one width per field across the file, features finite
    in float32) as numpy parses its subject ids and features in one call
    each, the features in float64 and then cast; a rejected run meets it
    again line by line to name its first bad line as `path:lineno`, when
    the runs before it have been yielded.

    With `with_features` false the feature field is neither parsed nor
    checked, and each run carries an (n, 0) feature array: for callers
    that read only subject ids and attributes.
    """
    state = (None, with_features)  # (d_attr, d_img) once a record is read
    with open_text(path) as fh:
        for linenos, lines in read_chunks(fh):
            fields, state = parse_run(path, linenos, lines, _parse_records,
                                      state)
            yield fields


def load_dataset(path, *, with_features: bool = True) -> Dataset:
    """Inverse of save_dataset: every run of read_records, concatenated."""
    runs = list(read_records(path, with_features=with_features))
    if not runs:
        return Dataset(np.zeros(0, dtype=np.int64),
                       np.zeros((0, 0), dtype=np.uint8),
                       np.zeros((0, 0)))
    return Dataset(*(np.concatenate(field) for field in zip(*runs)))


def _parse_records(lines, state):
    """((subject ids, attributes, features), state) of a run of record
    lines, for a state of (widths, with_features): every line's (d_attr,
    d_img) must equal widths, or the first line's when widths is None.
    Without features, d_img reads 0 and the feature field is not read."""
    widths, with_features = state
    id_fields, bit_fields, feature_fields = [], [], []
    for line in lines:
        fields = line.split("|")
        if len(fields) != 3:
            raise DatasetFormatError(
                f"expected 3 '|'-separated fields, got {len(fields)}")
        bits = fields[1].split()
        if widths is None:
            widths = (len(bits),
                      len(fields[2].split()) if with_features else 0)
        if len(bits) != widths[0]:
            raise DatasetFormatError("inconsistent field widths")
        id_fields.append(fields[0])
        bit_fields.extend(bits)
        feature_fields.append(fields[2])
    ids = parse_rows(id_fields, np.int64)
    if ids is None or ids.shape[1] != 1:
        raise DatasetFormatError("bad subject id")
    # one character per token, or a token such as "01" reads as two bits
    attrs = parse_bits("".join(bit_fields))
    if attrs is None or attrs.size != len(bit_fields):
        raise DatasetFormatError("attribute values must be 0 or 1")
    feats = np.zeros((len(lines), 0), dtype=np.float32)
    if with_features and (widths[1] or "".join(feature_fields).strip()):
        parsed = parse_rows(feature_fields, np.float64)
        if parsed is None:
            raise DatasetFormatError("unparseable feature value")
        # a value beyond float32's range casts to inf, rejected below
        with np.errstate(over="ignore"):
            feats = parsed.astype(np.float32)
    if feats.shape[1] != widths[1]:
        raise DatasetFormatError("inconsistent field widths")
    if not all_finite(feats):
        raise DatasetFormatError("non-finite feature value")
    return ((ids[:, 0], attrs.reshape(len(lines), widths[0]), feats),
            (widths, with_features))
