import numpy as np
import pytest

from steinclt import RngStream, sample_std_normal


def test_same_stream_is_bit_identical():
    a = RngStream(12345, 7, 3).generator().standard_normal(64)
    b = RngStream(12345, 7, 3).generator().standard_normal(64)
    assert np.array_equal(a, b)


def test_children_and_blocks_differ():
    base = RngStream(99)
    draws = {
        "base": base.generator().standard_normal(8),
        "child0": base.child(0).generator().standard_normal(8),
        "child1": base.child(1).generator().standard_normal(8),
        "block1": base.block(1).generator().standard_normal(8),
    }
    keys = list(draws)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            assert not np.array_equal(draws[keys[i]], draws[keys[j]])


def test_child_is_deterministic():
    a = RngStream(5).child(17).generator().standard_normal(16)
    b = RngStream(5).child(17).generator().standard_normal(16)
    assert np.array_equal(a, b)


def test_sample_std_normal_moments():
    draws = sample_std_normal(1_000_000, 2, RngStream(2024))
    assert np.all(np.abs(draws.mean(axis=0)) < 4.0 / 1000.0)
    cov = np.cov(draws.T)
    assert np.max(np.abs(cov - np.eye(2))) < 0.01


def test_block_layout_independent_of_chunking():
    # drawing block 0 then block 1 equals drawing them in reverse order
    s = RngStream(7)
    a0 = s.block(0).generator().standard_normal(10)
    a1 = s.block(1).generator().standard_normal(10)
    b1 = s.block(1).generator().standard_normal(10)
    b0 = s.block(0).generator().standard_normal(10)
    assert np.array_equal(a0, b0) and np.array_equal(a1, b1)


@pytest.mark.parametrize("d", [0, 1, 3, 1000])
def test_a_block_at_position_d_draws_its_words_from_word_4d_on(d):
    # each Philox step gives four 64-bit words; the position is the low counter word
    s = RngStream(7, 5)
    words = s.block(2).generator().bit_generator.random_raw(4 * d + 10)
    assert np.array_equal(s.block(2, d).generator().bit_generator.random_raw(10), words[4 * d:])
    assert s.block(2, d).block(2) == s.block(2)
