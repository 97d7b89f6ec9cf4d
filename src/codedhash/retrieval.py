"""Hamming-ranking retrieval over binary codes, with MAP and NDCG metrics.

A gallery is indexed as sign codes plus per-item metadata (subject id and
binary attribute vector).  Queries are attribute masks: an item is a binary
match when it possesses every queried attribute, and its graded relevance is
the number of queried attributes it possesses.  Rankings sort the whole
gallery by Hamming distance ascending, breaking ties by ascending item id so
results are reproducible.  The index packs each code and each attribute
vector into uint64 words once, so a query's distances are XOR + popcount over
the code words and its grades are AND + popcount over the attribute words.
Each query is scored on the spot: one mask check, one popcount and one gather
give its grades, binary relevance is grades == arity, and only its AP and
NDCG are kept.  The NDCG normalizer comes from the grade histogram, not from
sorting the gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .hashing import sign_hash
from .textio import parse_rows, write_rows


class UndefinedMetricError(ValueError):
    """Raised when a requested metric has no valid query to average over."""


@dataclass(frozen=True)
class RetrievalIndex:
    codes: np.ndarray        # (n_items, c) int8 entries in {-1, +1}
    subject_ids: np.ndarray  # (n_items,)
    attributes: np.ndarray   # (n_items, d_attr) entries in {0, 1}
    words: np.ndarray        # (n_items, ceil(c / 64)) uint64, bit set where +1
    attribute_words: np.ndarray  # (n_items, ceil(d_attr / 64)) uint64, set where 1

    def __len__(self) -> int:
        return self.codes.shape[0]

    @property
    def code_length(self) -> int:
        return self.codes.shape[1]

    @property
    def d_attr(self) -> int:
        return self.attributes.shape[1]


def _pack_words(codes) -> np.ndarray:
    """Pack each row of a (n, c) array into ceil(c / 64) uint64 words with
    one bit per entry, set where the entry is 1 (+1 of a code, or a present
    attribute); padding bits are 0."""
    n, c = codes.shape
    packed = np.packbits(codes == 1, axis=1, bitorder="little")
    words = np.zeros((n, -(-c // 64) * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view(np.uint64)


def _popcount_rows(op, words: np.ndarray, query_words: np.ndarray,
                   dtype) -> np.ndarray:
    """Per row, the popcount of op(row word, query word) summed over the
    word columns into dtype; one column at a time, so no (n, words)
    temporary is built."""
    n, n_words = words.shape
    if n_words == 0:
        return np.zeros(n, dtype=dtype)
    total = np.bitwise_count(op(words[:, 0], query_words[0, 0])).astype(
        dtype, copy=False)
    for j in range(1, n_words):
        total += np.bitwise_count(op(words[:, j], query_words[0, j]))
    return total


def build_index(values, subject_ids, attributes) -> RetrievalIndex:
    """Index a gallery; real-valued activations are sign-hashed first."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError("gallery values must be a 2-D array")
    if np.issubdtype(values.dtype, np.floating):
        codes = sign_hash(values)
    else:
        if values.size and not np.isin(values, (-1, 1)).all():
            raise ValueError("integer codes must have entries in {-1, +1}")
        codes = values.astype(np.int8)
    subject_ids = np.asarray(subject_ids, dtype=np.int64)
    attributes = np.asarray(attributes)
    if attributes.ndim != 2:
        raise ValueError("attributes must be a 2-D array")
    if attributes.size and not np.isin(attributes, (0, 1)).all():
        raise ValueError("attribute entries must be 0 or 1")
    n = codes.shape[0]
    if subject_ids.shape != (n,) or attributes.shape[0] != n:
        raise ValueError(f"metadata count must match gallery size {n}")
    attributes = attributes.astype(np.uint8)
    return RetrievalIndex(codes, subject_ids, attributes, _pack_words(codes),
                          _pack_words(attributes))


def rank(query_code, index: RetrievalIndex):
    """Full-gallery ranking: (item ids, Hamming distances), distance
    ascending with ties broken by ascending id.

    Distances are summed in the smallest unsigned dtype that holds the
    code length, so the stable sort takes numpy's radix path for small keys.
    """
    q = np.asarray(query_code)
    if q.shape != (index.code_length,):
        raise ValueError(f"query length {q.shape} does not match "
                         f"code length {index.code_length}")
    if not np.isin(q, (-1, 1)).all():
        raise ValueError("query code entries must be in {-1, +1}")
    distances = _popcount_rows(np.bitwise_xor, index.words, _pack_words(q[None, :]),
                               np.min_scalar_type(index.code_length))
    order = np.argsort(distances, kind="stable")
    return order.astype(np.int64), distances[order].astype(np.int64)


# ---------------------------------------------------------------------------
# Relevance
# ---------------------------------------------------------------------------

def check_query_mask(mask, d_attr: int | None = None) -> np.ndarray:
    m = np.asarray(mask)
    if m.ndim != 1 or (m.size and not np.isin(m, (0, 1)).all()):
        raise ValueError("query mask must be a 1-D 0/1 vector")
    if not m.any():
        raise ValueError("query mask must select at least one attribute")
    if d_attr is not None and m.size != d_attr:
        raise ValueError(f"query mask length {m.size} does not match "
                         f"attribute dimension {d_attr}")
    return m.astype(np.uint8)


def _grades(mask: np.ndarray, attribute_words: np.ndarray) -> np.ndarray:
    """Number of a checked mask's attributes each item possesses, counted
    as AND + popcount over the items' packed attribute words."""
    return _popcount_rows(np.bitwise_and, attribute_words,
                          _pack_words(mask[None, :]), np.int64)


def relevance(mask, attributes) -> np.ndarray:
    """1 for items possessing every queried attribute, else 0."""
    attributes = np.asarray(attributes)
    m = check_query_mask(mask, attributes.shape[1])
    arity = np.count_nonzero(m)
    return (_grades(m, _pack_words(attributes)) == arity).astype(np.uint8)


def graded_relevance(mask, attributes) -> np.ndarray:
    """Number of queried attributes each item possesses."""
    attributes = np.asarray(attributes)
    m = check_query_mask(mask, attributes.shape[1])
    return _grades(m, _pack_words(attributes))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def average_precision(ranked_relevance) -> float:
    """AP of one binary relevance list given in rank order."""
    rels = np.asarray(ranked_relevance)
    hits = np.nonzero(rels)[0]
    if hits.size == 0:
        raise UndefinedMetricError("no relevant item in the gallery")
    precision_at_hits = np.arange(1, hits.size + 1) / (hits + 1)
    return float(precision_at_hits.mean())


def mean_average_precision(ranked_relevances) -> float:
    """Mean AP over queries; queries with no relevant item are skipped."""
    aps = []
    for rels in ranked_relevances:
        if np.asarray(rels).any():
            aps.append(average_precision(rels))
    if not aps:
        raise UndefinedMetricError("no query with a relevant item")
    return float(np.mean(aps))


def ndcg_at_k(ranked_grades, k: int) -> float:
    """NDCG truncated at k for one graded relevance list in rank order.

    Gains are 2^grade - 1 with 1/log2(rank+1) discounts; the normalizer is
    the same sum over the descending-sorted grades, read off the grade
    histogram.  Grades must lie in [0, 1023]: 2^1024 overflows a float.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    grades = np.asarray(ranked_grades, dtype=np.int64)
    if (grades < 0).any():
        raise ValueError("relevance grades must be nonnegative")
    if (grades > 1023).any():
        raise ValueError("relevance grades must be at most 1023")
    counts = np.bincount(grades)
    if counts.size < 2:  # no grade above 0
        raise UndefinedMetricError("all relevance grades are zero")
    depth = min(k, grades.size)
    discounts = 1.0 / np.log2(np.arange(2, depth + 2, dtype=np.float64))
    gain_of = 2.0 ** np.arange(counts.size) - 1.0
    # the gains repeated over the histogram are the per-item gains sorted
    # ascending.  Dotted through the reversed, negative-stride view, numpy
    # sums them one by one in rank order; a contiguous copy would go
    # through BLAS, which sums in another order and changes the last bits
    with np.errstate(over="ignore"):
        ideal = float(np.repeat(gain_of, counts)[::-1][:depth] @ discounts)
    if not np.isfinite(ideal):
        raise ValueError("ideal DCG overflows a float; grades are too large")
    return float(gain_of.take(grades[:depth]) @ discounts) / ideal


def enumerate_query_masks(d_attr: int, arity: int, max_queries=None,
                          seed=0) -> np.ndarray:
    """All attribute masks with `arity` ones, optionally subsampled."""
    if not 1 <= arity <= d_attr:
        raise ValueError(f"arity must be in [1, {d_attr}], got {arity}")
    combos = list(combinations(range(d_attr), arity))
    if max_queries is not None and len(combos) > max_queries:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(combos), size=max_queries, replace=False)
        combos = [combos[i] for i in sorted(chosen)]
    masks = np.zeros((len(combos), d_attr), dtype=np.uint8)
    for row, combo in enumerate(combos):
        masks[row, list(combo)] = 1
    return masks


@dataclass(frozen=True)
class QueryEvaluation:
    mean_average_precision: float
    ndcg: float
    queries: int
    skipped_map: int
    skipped_ndcg: int


def _score_query(binary, grades, k):
    """(AP, NDCG@k) of one query's relevance lists in rank order, each None
    when the query is skipped for that metric."""
    ap = average_precision(binary) if binary.any() else None
    ndcg = (ndcg_at_k(grades, grades.size if k is None else k)
            if grades.any() else None)
    return ap, ndcg


def _aggregate(scores) -> QueryEvaluation:
    """Means and skip counts over per-query (AP, NDCG) pairs; MAP's
    UndefinedMetricError is raised first."""
    aps = [ap for ap, _ in scores if ap is not None]
    ndcgs = [ndcg for _, ndcg in scores if ndcg is not None]
    if not aps:
        raise UndefinedMetricError("no query with a relevant item")
    if not ndcgs:
        raise UndefinedMetricError("no query with a nonzero relevance grade")
    return QueryEvaluation(float(np.mean(aps)), float(np.mean(ndcgs)),
                           len(scores), len(scores) - len(aps),
                           len(scores) - len(ndcgs))


def score_rankings(binary_lists, grade_lists, k=None) -> QueryEvaluation:
    """MAP, NDCG@k and both skip counts over per-query relevance lists in
    rank order; k=None scores each NDCG over its whole list.  Queries with
    no relevant item are skipped for MAP and all-zero grade lists for NDCG;
    MAP's UndefinedMetricError is raised first."""
    return _aggregate([_score_query(np.asarray(binary), np.asarray(grades), k)
                       for binary, grades in zip(binary_lists, grade_lists,
                                                 strict=True)])


def evaluate_queries(encode_attributes, index: RetrievalIndex, masks,
                     k=None) -> QueryEvaluation:
    """Run attribute-mask queries through an encoder and the index.

    encode_attributes maps a float attribute vector to a real activation
    (it is sign-hashed here).  Each ranking is scored as it is made, as
    score_rankings scores it; k=None scores NDCG over the whole gallery.
    """
    masks = np.atleast_2d(np.asarray(masks))
    scores = []
    for mask in masks:
        m = check_query_mask(mask, index.d_attr)
        code = sign_hash(encode_attributes(mask.astype(np.float64)))
        ids, _ = rank(code, index)
        grades = _grades(m, index.attribute_words)[ids]
        scores.append(_score_query(grades == np.count_nonzero(m), grades, k))
    return _aggregate(scores)


# ---------------------------------------------------------------------------
# Ranking and report files
# ---------------------------------------------------------------------------

def write_rankings(path, blocks) -> None:
    """One block per query: a `# query <mask>` line, then one
    `rank, item_id, hamming_distance, relevance` line per gallery item."""
    with open(path, "w") as fh:
        fh.write("# columns: rank, item_id, hamming_distance, relevance\n")
        for mask, item_ids, distances, relevances in blocks:
            mask = check_query_mask(mask)
            columns = [np.asarray(v, dtype=np.int64)
                       for v in (item_ids, distances, relevances)]
            if any(col.shape != columns[0].shape or col.ndim != 1
                   for col in columns):
                raise ValueError("item ids, distances and relevances must be "
                                 "1-D with one entry per ranked item")
            ranks = np.arange(1, columns[0].size + 1, dtype=np.int64)
            fh.write("# query " + "".join(str(int(b)) for b in mask) + "\n")
            write_rows(fh, "%d, %d, %d, %d\n", np.column_stack([ranks, *columns]))


def read_rankings(path):
    """Parse a rankings file back into (mask, item_ids, distances,
    relevances) blocks.

    The file is read block by block: one pass sorts out the `#` lines, and
    numpy parses each block's rows in one call.  A block that fails to
    parse or whose ranks are not 1, 2, ... is rescanned only to name its
    first bad line.
    """
    blocks = []
    mask = None
    query_lineno = None
    linenos, lines = [], []

    def flush():
        if mask is None:
            if lines:
                raise ValueError(f"{path}:{linenos[0]}: malformed ranking line")
            return
        if not lines:
            raise ValueError(f"{path}:{query_lineno}: query block with no rows")
        table = parse_rows(lines, np.int64, delimiter=",")
        if (table is None or table.shape[1] != 4
                or (table[:, 0] != np.arange(1, len(lines) + 1)).any()):
            _raise_ranking_fault(path, linenos, lines)
        ids, dists, rels = table[:, 1:].T.copy()
        blocks.append((mask, ids, dists, rels))

    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            if "#" in line and (text := line.strip()).startswith("#"):
                if text.startswith("# query "):
                    flush()
                    digits = text[len("# query "):].strip()
                    if not digits or set(digits) - {"0", "1"}:
                        raise ValueError(f"{path}:{lineno}: bad query mask")
                    mask = np.frombuffer(digits.encode(), dtype=np.uint8) - ord("0")
                    query_lineno = lineno
                    linenos, lines = [], []
                continue
            linenos.append(lineno)
            lines.append(line)
    flush()
    return blocks


def _raise_ranking_fault(path, linenos, lines):
    """Raise the error of the first bad row of a rejected query block."""
    for pos, (lineno, line) in enumerate(zip(linenos, lines), start=1):
        row = parse_rows([line], np.int64, delimiter=",")
        if row is None or row.shape != (1, 4):
            raise ValueError(f"{path}:{lineno}: malformed ranking line")
        if row[0, 0] != pos:
            raise ValueError(f"{path}:{lineno}: rank out of sequence")
    raise ValueError(f"{path}:{linenos[0]}: malformed query block")


def write_metric_report(path, rows) -> None:
    """Rows of (metric name, query arity, value)."""
    with open(path, "w") as fh:
        fh.write("metric, query_arity, value\n")
        for metric, arity, value in rows:
            fh.write(f"{metric}, {int(arity)}, {value!r}\n")
