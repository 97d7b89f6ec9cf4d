"""Hamming-ranking retrieval over binary codes, with MAP and NDCG metrics.

A gallery is indexed as sign codes plus per-item metadata (subject id and
binary attribute vector).  Queries are attribute masks: an item is a binary
match when it possesses every queried attribute, and its graded relevance is
the number of queried attributes it possesses.  Rankings sort the whole
gallery by Hamming distance ascending, breaking ties by ascending item id so
results are reproducible.  The index packs each code and each attribute
vector into uint64 words once, so a query's distances are XOR + popcount over
the code words and its grades are AND + popcount over the attribute words.
evaluate_queries checks, packs and float-converts its masks once per call.
Each query is then scored on the spot: one XOR popcount and one stable radix
sort give its order, one AND popcount and one gather give its grades in the
popcount's uint8, binary relevance is grades == arity, and only its AP and
NDCG are kept; no int64 copy of a distance or grade list is made.  The NDCG
normalizer comes from the count of each nonzero grade, not from sorting the
gains, and the discounts of a depth are computed once and reused.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._checks import all_either, row_blocks
from .hashing import sign_hash
from .textio import open_text, parse_bits, parse_rows, parse_run, write_rows


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
    attribute); padding bits are 0.  The words are filled one piece at a
    time, so the only temporaries are one piece's mask and bytes; a piece
    of a row wider than a piece starts on a multiple of 8 entries, so its
    bytes start on a whole byte of the row."""
    n, c = codes.shape
    words = np.zeros((n, -(-c // 64) * 8), dtype=np.uint8)
    for idx in row_blocks(codes.shape):
        rows, cols = idx if len(idx) == 2 else (idx[0], slice(0, c))
        packed = np.packbits(codes[rows, cols] == 1, axis=-1, bitorder="little")
        start = cols.start // 8
        words[rows, start:start + packed.shape[-1]] = packed
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
    """Index a gallery; real-valued activations are sign-hashed first.

    Codes already int8 and attributes already uint8 are not copied: the
    index shares those arrays with the caller, who must not change them
    while the index is in use, as ranking reads the words packed here.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError("gallery values must be a 2-D array")
    if np.issubdtype(values.dtype, np.floating):
        codes = sign_hash(values)
    else:
        if not all_either(values, -1, 1):
            raise ValueError("integer codes must have entries in {-1, +1}")
        codes = values.astype(np.int8, copy=False)
    subject_ids = np.asarray(subject_ids, dtype=np.int64)
    attributes = np.asarray(attributes)
    if attributes.ndim != 2:
        raise ValueError("attributes must be a 2-D array")
    if not all_either(attributes, 0, 1):
        raise ValueError("attribute entries must be 0 or 1")
    n = codes.shape[0]
    if subject_ids.shape != (n,) or attributes.shape[0] != n:
        raise ValueError(f"metadata count must match gallery size {n}")
    attributes = attributes.astype(np.uint8, copy=False)
    return RetrievalIndex(codes, subject_ids, attributes, _pack_words(codes),
                          _pack_words(attributes))


def _order(query_code, index: RetrievalIndex):
    """(item ids in rank order, unsorted Hamming distances) of a checked
    query code: XOR + popcount summed in the smallest unsigned dtype that
    holds the code length, so the stable sort takes numpy's radix path."""
    q = np.asarray(query_code)
    if q.shape != (index.code_length,):
        raise ValueError(f"query length {q.shape} does not match "
                         f"code length {index.code_length}")
    if not all_either(q, -1, 1):
        raise ValueError("query code entries must be in {-1, +1}")
    distances = _popcount_rows(np.bitwise_xor, index.words, _pack_words(q[None, :]),
                               np.min_scalar_type(index.code_length))
    return np.argsort(distances, kind="stable"), distances


def rank(query_code, index: RetrievalIndex):
    """Full-gallery ranking: int64 (item ids, Hamming distances), distance
    ascending with ties broken by ascending id."""
    order, distances = _order(query_code, index)
    return (order.astype(np.int64, copy=False),
            distances.take(order).astype(np.int64))


# ---------------------------------------------------------------------------
# Relevance
# ---------------------------------------------------------------------------

def check_query_mask(mask, d_attr: int | None = None) -> np.ndarray:
    m = np.asarray(mask)
    if m.ndim != 1:
        raise ValueError("query mask must be a 1-D 0/1 vector")
    return _check_masks(m[None, :], d_attr)[0]


def _check_masks(masks: np.ndarray, d_attr: int | None) -> np.ndarray:
    """uint8 copy of a 2-D array with one query mask per row, each checked
    as check_query_mask checks one."""
    if masks.ndim != 2 or not all_either(masks, 0, 1):
        raise ValueError("query mask must be a 1-D 0/1 vector")
    if not masks.any(axis=1).all():
        raise ValueError("query mask must select at least one attribute")
    if d_attr is not None and masks.shape[1] != d_attr:
        raise ValueError(f"query mask length {masks.shape[1]} does not match "
                         f"attribute dimension {d_attr}")
    return masks.astype(np.uint8)


def _grades(mask_words: np.ndarray, attribute_words: np.ndarray,
            d_attr: int) -> np.ndarray:
    """Number of a packed mask's attributes each item possesses, counted
    as AND + popcount over the items' packed attribute words in the
    smallest unsigned dtype that holds d_attr."""
    return _popcount_rows(np.bitwise_and, attribute_words, mask_words,
                          np.min_scalar_type(d_attr))


def relevance(mask, attributes) -> np.ndarray:
    """1 for items possessing every queried attribute, else 0."""
    attributes = np.asarray(attributes)
    m = check_query_mask(mask, attributes.shape[1])
    grades = _grades(_pack_words(m[None, :]), _pack_words(attributes), m.size)
    return (grades == np.count_nonzero(m)).astype(np.uint8)


def graded_relevance(mask, index: RetrievalIndex) -> np.ndarray:
    """Number of queried attributes each item of the index possesses,
    counted over the index's packed attribute words."""
    m = check_query_mask(mask, index.d_attr)
    return _grades(_pack_words(m[None, :]), index.attribute_words,
                   m.size).astype(np.int64)


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


@functools.lru_cache(maxsize=4)
def _discounts(depth: int) -> np.ndarray:
    """The read-only 1/log2(rank+1) discounts of ranks 1..depth."""
    discounts = 1.0 / np.log2(np.arange(2, depth + 2, dtype=np.float64))
    discounts.flags.writeable = False
    return discounts


def ndcg_at_k(ranked_grades, k: int) -> float:
    """NDCG truncated at k for one graded relevance list in rank order.

    Gains are 2^grade - 1 with 1/log2(rank+1) discounts; the normalizer is
    the same sum over the descending-sorted grades, read off the count of
    each nonzero grade: one pass over the list per value up to the largest
    grade, which suits grades bounded by a query's arity.  Grades must lie
    in [0, 1023]: 2^1024 overflows a float.  Unsigned grades are read as
    they are; others go through int64.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    grades = np.asarray(ranked_grades)
    if grades.dtype.kind != "u" or not np.can_cast(grades.dtype, np.int64):
        grades = np.asarray(grades, dtype=np.int64)
        if (grades < 0).any():
            raise ValueError("relevance grades must be nonnegative")
    top = int(grades.max(initial=0))
    if top > 1023:
        raise ValueError("relevance grades must be at most 1023")
    if top == 0:
        raise UndefinedMetricError("all relevance grades are zero")
    depth = min(k, grades.size)
    discounts = _discounts(depth)
    gain_of = 2.0 ** np.arange(top + 1) - 1.0
    # a compare-and-count pass per grade value beats bincount, whose serial
    # increments of a few bins wait on each other.  The nonzero gains
    # repeated by their counts are the per-item gains sorted ascending,
    # less the zeros, which would only add 0.0 after them.  Dotted through
    # the reversed, negative-stride view, numpy sums them one by one in
    # rank order; a contiguous copy would go through BLAS, which sums in
    # another order and changes the last bits
    counts = [np.count_nonzero(grades == g) for g in range(1, top + 1)]
    ideal_gains = np.repeat(gain_of[1:], counts)[::-1][:depth]
    with np.errstate(over="ignore"):
        ideal = float(ideal_gains @ discounts[:ideal_gains.size])
    if not np.isfinite(ideal):
        raise ValueError("ideal DCG overflows a float; grades are too large")
    # 2^g exactly, as gain_of holds it; faster than gathering gain_of
    gains = np.ldexp(1.0, grades[:depth])
    gains -= 1.0
    return float(gains @ discounts) / ideal


def enumerate_query_masks(d_attr: int, arity: int, max_queries=None,
                          seed=0) -> np.ndarray:
    """All attribute masks with `arity` ones, optionally subsampled."""
    if not 1 <= arity <= d_attr:
        raise ValueError(f"arity must be in [1, {d_attr}], got {arity}")
    combos = np.array(list(combinations(range(d_attr), arity)), dtype=np.intp)
    if max_queries is not None and len(combos) > max_queries:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(combos), size=max_queries, replace=False)
        combos = combos[np.sort(chosen)]
    masks = np.zeros((len(combos), d_attr), dtype=np.uint8)
    masks[np.arange(len(combos))[:, None], combos] = 1
    return masks


@dataclass(frozen=True)
class QueryEvaluation:
    mean_average_precision: float
    ndcg: float
    queries: int
    skipped_map: int
    skipped_ndcg: int


def score_query(binary, grades):
    """(AP, NDCG) of one query's relevance arrays in rank order, NDCG over
    the whole list; each is None when the query is skipped for that
    metric."""
    ap = average_precision(binary) if binary.any() else None
    ndcg = ndcg_at_k(grades, grades.size) if grades.any() else None
    return ap, ndcg


def aggregate_scores(scores) -> QueryEvaluation:
    """Means and skip counts over a list of score_query's (AP, NDCG)
    pairs; MAP's UndefinedMetricError is raised first."""
    aps = [ap for ap, _ in scores if ap is not None]
    ndcgs = [ndcg for _, ndcg in scores if ndcg is not None]
    if not aps:
        raise UndefinedMetricError("no query with a relevant item")
    if not ndcgs:
        raise UndefinedMetricError("no query with a nonzero relevance grade")
    return QueryEvaluation(float(np.mean(aps)), float(np.mean(ndcgs)),
                           len(scores), len(scores) - len(aps),
                           len(scores) - len(ndcgs))


def evaluate_queries(encode_attributes, index: RetrievalIndex,
                     masks) -> QueryEvaluation:
    """Run attribute-mask queries through an encoder and the index.

    encode_attributes maps a float attribute vector to a real activation
    (it is sign-hashed here).  Each ranking is scored as it is made by
    score_query (NDCG over the whole gallery), and aggregate_scores
    averages the scores.
    """
    masks = _check_masks(np.atleast_2d(np.asarray(masks)), index.d_attr)
    arities = np.count_nonzero(masks, axis=1)
    scores = []
    for mask, mask_words, arity in zip(masks.astype(np.float64),
                                       _pack_words(masks)[:, None],
                                       arities.tolist()):
        order, _ = _order(sign_hash(encode_attributes(mask)), index)
        grades = _grades(mask_words, index.attribute_words,
                         index.d_attr).take(order)
        scores.append(score_query(grades == arity, grades))
    return aggregate_scores(scores)


# ---------------------------------------------------------------------------
# Ranking files
# ---------------------------------------------------------------------------

def write_rankings(path, blocks) -> None:
    """One block per query: a `# query <mask>` line, then one
    `rank, item_id, hamming_distance, relevance` line per item, under
    read_rankings' value rules.  `blocks` may be any iterable of
    (mask, item ids, distances, relevances); each block is checked and
    written as it arrives, so a generator's blocks are never all held."""
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
            _check_rank_values(*columns, int(mask.sum()), set())
            ranks = np.arange(1, columns[0].size + 1, dtype=np.int64)
            fh.write("# query " + "".join(str(int(b)) for b in mask) + "\n")
            write_rows(fh, "%d, %d, %d, %d\n", np.column_stack([ranks, *columns]))


def read_rankings(path):
    """Every (mask, item_ids, distances, relevances) block of a rankings
    file, as a list; see iter_rankings."""
    return list(iter_rankings(path))


def iter_rankings(path):
    """Yield a rankings file's (mask, item_ids, distances, relevances)
    blocks, each as soon as it is parsed, so a caller that drops a block
    before asking for the next holds one at a time.

    One pass sorts out the `#` lines, and numpy parses each block's rows in
    one call.  A block that fails to parse or breaks a value rule (ranks 1,
    2, ...; distances >= 0; grades in 0..arity; no item id twice) is parsed
    again line by line to name its first bad line, and the error is raised
    when that block is reached.  A query mask must set an attribute and
    have the first mask's length.
    """
    mask = None
    d_attr = None
    query_lineno = None
    linenos, lines = [], []

    def finished():
        """The block under the current `# query` line, or None before the
        first."""
        if mask is None:
            if lines:
                raise ValueError(f"{path}:{linenos[0]}: malformed ranking line")
            return None
        if not lines:
            raise ValueError(f"{path}:{query_lineno}: query block with no rows")
        table, _ = parse_run(path, linenos, lines, _parse_rank_rows,
                             (1, int(mask.sum()), set()))
        ids, dists, rels = table[:, 1:].T.copy()
        return mask, ids, dists, rels

    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            if "#" in line and (text := line.strip()).startswith("#"):
                if text.startswith("# query "):
                    if (block := finished()) is not None:
                        yield block
                    mask = parse_bits(text[len("# query "):].strip())
                    if mask is None or not mask.any():
                        raise ValueError(f"{path}:{lineno}: bad query mask")
                    d_attr = mask.size if d_attr is None else d_attr
                    if mask.size != d_attr:
                        raise ValueError(
                            f"{path}:{lineno}: query mask length {mask.size} "
                            f"does not match the first mask's {d_attr}")
                    query_lineno = lineno
                    linenos, lines = [], []
                continue
            linenos.append(lineno)
            lines.append(line)
    if (block := finished()) is not None:
        yield block


def _parse_rank_rows(lines, state):
    """(int64 table, next state) of a run of `rank, item_id, distance,
    relevance` rows.  The state is (first rank, query arity, set of the
    block's item ids before the run); the run's ids join that set in place
    only when the run is accepted, so a rejected run leaves it as it was."""
    first_rank, arity, seen = state
    table = parse_rows(lines, np.int64, delimiter=",")
    if table is None or table.shape[1] != 4:
        raise ValueError("malformed ranking line")
    ranks, ids, distances, grades = table.T
    if (ranks != np.arange(first_rank, first_rank + len(lines))).any():
        raise ValueError("rank out of sequence")
    seen |= _check_rank_values(ids, distances, grades, arity, seen)
    return table, (first_rank + len(lines), arity, seen)


def _check_rank_values(ids, distances, grades, arity, seen) -> set:
    """The rows' ids as a set, after the value rules: a distance < 0, a
    grade outside 0..arity, or an id twice or in `seen` raises its reason."""
    if (distances < 0).any():
        raise ValueError("negative Hamming distance")
    if ((grades < 0) | (grades > arity)).any():
        raise ValueError(f"relevance grade outside 0..{arity}")
    new = set(ids.tolist())
    if len(new) < len(ids) or not seen.isdisjoint(new):
        raise ValueError("item id repeated in the query block")
    return new
