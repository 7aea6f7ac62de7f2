"""Tests for the rank-(n-1) matrix count."""

import itertools

import numpy as np
import pytest

from qgms import gf2
from qgms.counting import (
    EnumerationTooLarge,
    brute_count_rank_n_minus_1,
    count_rank_n_minus_1,
    rank_deficit_one_formula,
)


def slow_count(n, s):
    """Independent pure-python count via the packed matrix rank routine."""
    hyperplane = [x for x in range(1 << n) if bin(x & s).count("1") % 2 == 0]
    hits = 0
    for rows in itertools.product(hyperplane, repeat=n):
        mat = gf2.BitMatrix(n, n, list(rows))
        if gf2.rank(mat) == n - 1:
            hits += 1
    return hits


def test_formula_values():
    assert rank_deficit_one_formula(2) == 3
    assert rank_deficit_one_formula(3) == 42
    assert rank_deficit_one_formula(4) == 2520
    assert rank_deficit_one_formula(5) == 624960


def test_brute_matches_independent_count():
    for n in (2, 3):
        for s in range(1, 1 << n):
            assert brute_count_rank_n_minus_1(n, s) == slow_count(n, s)


def test_brute_matches_formula_small():
    for n in (2, 3, 4):
        report = count_rank_n_minus_1(n)
        assert report.brute_count == report.formula_count
        assert report.agreement is True


def test_count_is_hyperplane_independent():
    for s in (1, 2, 3):
        assert brute_count_rank_n_minus_1(2, s) == 3
    for s in (1, 5, 7):
        assert brute_count_rank_n_minus_1(3, s) == 42


def test_enumeration_refused_past_limit():
    with pytest.raises(EnumerationTooLarge):
        brute_count_rank_n_minus_1(6)
    report = count_rank_n_minus_1(6)
    assert report.brute_count is None
    assert report.agreement is None
    assert report.formula_count == rank_deficit_one_formula(6)


def test_relaxation_bound_holds():
    # 2^(n(n-1)) is every choice of n rows from the 2^(n-1)-element hyperplane
    for n in range(2, 13):
        assert rank_deficit_one_formula(n) < 2 ** (n * (n - 1))


def test_mode_validation():
    with pytest.raises(ValueError):
        rank_deficit_one_formula(1)
    with pytest.raises(ValueError):
        brute_count_rank_n_minus_1(3, s=8)


def span_sort_count(n, s):
    """The earlier brute count: a matrix has rank n-1 when the XOR-span of
    its rows holds 2^(n-1) distinct values, found by sorting every span."""
    hyperplane = np.array(
        [x for x in range(1 << n) if bin(x & s).count("1") % 2 == 0], dtype=np.uint8
    )
    bits = n - 1
    mask = (1 << bits) - 1
    total = 1 << (bits * n)
    index = np.arange(total, dtype=np.int64)
    spans = np.zeros((total, 1), dtype=np.uint8)
    for i in range(n):
        row = hyperplane[(index >> (bits * i)) & mask]
        spans = np.concatenate([spans, spans ^ row[:, None]], axis=1)
    spans.sort(axis=1)
    distinct = 1 + np.count_nonzero(spans[:, 1:] != spans[:, :-1], axis=1)
    return int(np.count_nonzero(distinct == 1 << bits))


def test_kernel_mask_count_matches_span_sort_for_every_s():
    for n in (2, 3, 4):
        for s in range(1, 1 << n):
            assert brute_count_rank_n_minus_1(n, s) == span_sort_count(n, s)


def test_exhaustive_n5_count_is_hyperplane_independent():
    for s in (6, 19, 31):
        assert brute_count_rank_n_minus_1(5, s) == 624960


def test_exhaustive_n5_count_holds_one_kernel_mask_per_matrix():
    import tracemalloc

    tracemalloc.start()
    try:
        count = brute_count_rank_n_minus_1(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2^20 uint32 kernels take 4 MiB; one int64 per matrix would take 8
    assert peak <= 8 << 20
    assert count == 624960
