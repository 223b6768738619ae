import pytest
from hypothesis import given
from hypothesis import strategies as st

from booklab.partitions import (
    Partition,
    achievable_sums,
    beta,
    enumerate_partitions,
    is_s_sum_free,
    offending_subset,
)

from conftest import oracle_beta, oracle_partitions, oracle_subset_sums


def test_partition_validation():
    Partition((3, 1))
    Partition((2, 2, 2))
    with pytest.raises(ValueError):
        Partition((1, 3))
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_enumeration_and_beta_reject_bad_arguments():
    parts = enumerate_partitions(0)  # a generator: the check runs at the first next()
    with pytest.raises(ValueError, match="r >= 1"):
        next(parts)
    with pytest.raises(ValueError, match="need 1 <= s < r"):
        beta(3, 3)


def test_partition_r_and_len():
    p = Partition((4, 2, 1))
    assert p.r == 7
    assert len(p) == 3


@pytest.mark.parametrize("r", range(1, 13))
def test_enumerate_matches_oracle(r):
    ours = [p.parts for p in enumerate_partitions(r)]
    assert sorted(ours) == sorted(oracle_partitions(r))
    assert len(set(ours)) == len(ours)
    # reverse lexicographic: (r,) first, all-ones last
    assert ours[0] == (r,)
    assert ours[-1] == (1,) * r


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=7))
def test_achievable_sums_matches_oracle(parts):
    p = Partition(tuple(sorted(parts, reverse=True)))
    mask = achievable_sums(p)
    got = {s for s in range(p.r + 1) if mask >> s & 1}
    assert got == oracle_subset_sums(p.parts)


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=7),
    st.integers(min_value=1, max_value=12),
)
def test_sum_free_consistent_with_offender(parts, s):
    p = Partition(tuple(sorted(parts, reverse=True)))
    if not 1 <= s < p.r:
        return
    off = offending_subset(p, s)
    assert is_s_sum_free(p, s) == (off is None)
    if off is not None:
        assert sum(off) == s


def test_sum_free_requires_valid_s():
    with pytest.raises(ValueError):
        is_s_sum_free(Partition((3, 1)), 0)
    with pytest.raises(ValueError):
        is_s_sum_free(Partition((3, 1)), 4)


def test_beta_matches_brute_force():
    for r in range(2, 13):
        for s in range(1, r):
            length, witness = beta(r, s)
            assert length == oracle_beta(r, s), (r, s)
            assert witness.r == r
            assert len(witness) == length
            assert is_s_sum_free(witness, s)


def test_beta_paper_values():
    assert beta(4, 2) == (2, Partition((3, 1)))
    assert beta(6, 3)[0] == 3
    assert beta(3, 1)[0] == 1
    assert beta(12, 6)[0] == 6
