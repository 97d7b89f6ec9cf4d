"""Test-side scoring of relevance lists already in rank order, composed of
the library's per-query scorer and its aggregate, as `codedhash eval` and
`evaluate_queries` use them."""

import numpy as np

from codedhash.retrieval import QueryEvaluation, aggregate_scores, score_query


def score_rankings(binary_lists, grade_lists) -> QueryEvaluation:
    """MAP, NDCG and both skip counts over per-query relevance lists in
    rank order, each NDCG over its whole list.  Queries with no relevant
    item are skipped for MAP and all-zero grade lists for NDCG; MAP's
    UndefinedMetricError is raised first."""
    return aggregate_scores([score_query(np.asarray(binary),
                                         np.asarray(grades))
                             for binary, grades in zip(binary_lists, grade_lists,
                                                       strict=True)])
