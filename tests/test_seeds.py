"""Named substreams of one root seed: any integer >= 0, none aliasing another."""

import pytest

from rtp import seeds


@pytest.mark.parametrize("small", [0, 5, 2**64 - 1])
def test_root_seeds_of_2_64_and_above_have_their_own_streams(small):
    for big in (small + 2**64, small + 2**100):
        assert seeds.subseed(big, "corpus") != seeds.subseed(small, "corpus")
        big_draws = seeds.substream(big, "split").integers(0, 2**62, size=4)
        small_draws = seeds.substream(small, "split").integers(0, 2**62, size=4)
        assert big_draws.tolist() != small_draws.tolist()


def test_root_seeds_below_2_64_keep_their_streams():
    # Values of the 64-bit entropy word every earlier run was seeded from.
    assert seeds.subseed(0, "corpus") == 7209869619324095970
    assert seeds.subseed(2**64 - 1, "corpus") == 4928911878024227216
    assert seeds.substream(2**64 - 1, "split").integers(0, 2**62) == 3918557871257890193
