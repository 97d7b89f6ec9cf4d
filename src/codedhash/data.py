"""Synthetic attribute/feature datasets and their text serialization.

Each record pairs a subject id with the subject's binary attribute vector
and one image feature vector.  Synthetic data draws per-subject attributes
from a Bernoulli distribution, embeds them through one fixed random linear
map into feature space, and perturbs each image around that subject
prototype with Gaussian noise.

An image is similar to an attribute vector when the image's subject
possesses every attribute the vector sets, so the similarity matrix is
superset containment: S[i, j] = 1 iff attributes_j is a subset of
attributes_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import all_either
from .textio import parse_rows, read_chunks


_BITS = frozenset("01")


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


@dataclass(frozen=True)
class SyntheticSpec:
    n_subjects: int
    images_per_subject: int
    d_attr: int = 40
    d_img: int = 128
    attribute_density: float = 0.5
    feature_noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("n_subjects", "images_per_subject", "d_attr", "d_img"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.attribute_density < 1.0:
            raise ValueError("attribute_density must be strictly inside (0, 1)")
        if self.feature_noise_std < 0:
            raise ValueError("feature_noise_std cannot be negative")


@dataclass(frozen=True)
class Dataset:
    subject_ids: np.ndarray  # (n,)
    attributes: np.ndarray   # (n, d_attr) entries in {0, 1}
    features: np.ndarray     # (n, d_img) float64

    def __post_init__(self):
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
        if not np.isfinite(self.features).all():
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
        return Dataset(self.subject_ids[idx].copy(),
                       self.attributes[idx].copy(),
                       self.features[idx].copy())


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset for a given spec (seed included)."""
    rng = np.random.default_rng(spec.seed)
    embed = rng.normal(size=(spec.d_attr, spec.d_img)) / np.sqrt(spec.d_attr)
    subject_attrs = (rng.random((spec.n_subjects, spec.d_attr))
                     < spec.attribute_density).astype(np.uint8)
    prototypes = subject_attrs.astype(np.float64) @ embed
    n = spec.n_subjects * spec.images_per_subject
    subject_ids = np.repeat(np.arange(spec.n_subjects, dtype=np.int64),
                            spec.images_per_subject)
    attributes = np.repeat(subject_attrs, spec.images_per_subject, axis=0)
    # in place, with no full-size temporary: std * noise + prototype is
    # the same IEEE sum as prototype + std * noise
    features = rng.standard_normal((n, spec.d_img))
    features *= spec.feature_noise_std
    per_subject = features.reshape(spec.n_subjects, spec.images_per_subject,
                                   spec.d_img)
    per_subject += prototypes[:, None, :]
    return Dataset(subject_ids, attributes, features)


def similarity_matrix(attributes) -> np.ndarray:
    """S[i, j] = 1 iff row j's attribute set is contained in row i's, over
    the rows of one attribute array."""
    a = np.asarray(attributes, dtype=np.int64)
    # count the attributes j sets that i lacks; containment means zero
    missing = (1 - a) @ a.T
    return (missing == 0).astype(np.uint8)


# ---------------------------------------------------------------------------
# Text files
# ---------------------------------------------------------------------------

def save_dataset(dataset: Dataset, path) -> None:
    """Lines of `subject_id | 0/1 attributes | full-precision features`."""
    with open(path, "w") as fh:
        for sid, attrs, feats in zip(dataset.subject_ids,
                                     dataset.attributes, dataset.features):
            attr_part = " ".join(str(int(a)) for a in attrs)
            feat_part = " ".join(repr(float(v)) for v in feats)
            fh.write(f"{int(sid)} | {attr_part} | {feat_part}\n")


def read_records(path, *, with_features: bool = True):
    """Yield (subject ids, attributes, features) for each run of CHUNK_ROWS
    lines of a save_dataset file; blank lines are skipped.

    One pass over each run checks its structure (three `|` fields,
    attribute tokens that are literally 0 or 1, one attribute width across
    the file), then numpy parses the run's subject ids and features in one
    call each.  A run that fails is rescanned only to name its first bad
    line, as `path:lineno`; the runs before it have been yielded by then.

    With `with_features` false the feature field is neither parsed nor
    checked, and each run carries an (n, 0) feature array: for callers
    that read only subject ids and attributes.
    """
    widths = None  # (d_attr, d_img) of the first record
    with open(path) as fh:
        for linenos, lines in read_chunks(fh):
            records = _parse_records(lines, widths, with_features)
            if records is None:
                _raise_record_fault(path, linenos, lines, widths, with_features)
            *fields, widths = records
            yield fields


def load_dataset(path, *, with_features: bool = True) -> Dataset:
    """Inverse of save_dataset: every run of read_records, concatenated."""
    runs = list(read_records(path, with_features=with_features))
    if not runs:
        return Dataset(np.zeros(0, dtype=np.int64),
                       np.zeros((0, 0), dtype=np.uint8),
                       np.zeros((0, 0)))
    return Dataset(*(np.concatenate(field) for field in zip(*runs)))


def _parse_records(lines, widths, with_features):
    """(subject ids, attributes, features, widths) of a run of record lines,
    or None when any line is malformed or its (d_attr, d_img) widths differ
    from `widths`, or from the run's first line when `widths` is None.
    Without features, d_img reads 0 and the feature field is not looked at."""
    id_fields, bit_fields, feature_fields = [], [], []
    for line in lines:
        fields = line.split("|")
        if len(fields) != 3:
            return None
        bits = fields[1].split()
        if widths is None:
            widths = (len(bits),
                      len(fields[2].split()) if with_features else 0)
        if len(bits) != widths[0] or not _BITS.issuperset(bits):
            return None
        id_fields.append(fields[0])
        bit_fields.append("".join(bits))
        feature_fields.append(fields[2])
    ids = parse_rows(id_fields, np.int64)
    if not with_features:
        feats = np.zeros((len(lines), 0))
    elif widths[1]:
        feats = parse_rows(feature_fields, np.float64)
    else:  # every feature field must be blank
        feats = (None if "".join(feature_fields).strip()
                 else np.zeros((len(lines), 0)))
    if (ids is None or ids.shape[1] != 1 or feats is None
            or feats.shape[1] != widths[1] or not np.isfinite(feats).all()):
        return None
    attrs = np.frombuffer("".join(bit_fields).encode(), dtype=np.uint8)
    return (ids[:, 0], (attrs - ord("0")).reshape(len(lines), widths[0]),
            feats, widths)


def _raise_record_fault(path, linenos, lines, widths, with_features):
    """Raise the DatasetFormatError of the first bad line of a rejected run,
    checking each line as a whole file would be checked up to it."""
    for lineno, line in zip(linenos, lines):
        where = f"{path}:{lineno}"
        fields = line.split("|")
        if len(fields) != 3:
            raise DatasetFormatError(
                f"{where}: expected 3 '|'-separated fields, got {len(fields)}")
        sid = parse_rows([fields[0]], np.int64)
        if sid is None or sid.shape != (1, 1):
            raise DatasetFormatError(
                f"{where}: bad subject id {fields[0].strip()!r}")
        bits = fields[1].split()
        if not _BITS.issuperset(bits):
            raise DatasetFormatError(f"{where}: attribute values must be 0 or 1")
        feats = (parse_rows([fields[2]], np.float64)
                 if with_features and fields[2].strip() else np.zeros((1, 0)))
        if feats is None:
            raise DatasetFormatError(f"{where}: unparseable feature value")
        if not np.isfinite(feats).all():
            raise DatasetFormatError(f"{where}: non-finite feature value")
        if widths is None:
            widths = (len(bits), feats.shape[1])
        elif (len(bits), feats.shape[1]) != widths:
            raise DatasetFormatError(f"{where}: inconsistent field widths")
    raise DatasetFormatError(f"{path}:{linenos[0]}: malformed records")
