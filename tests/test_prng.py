"""The pinned verification stream and the range of its seeds."""

import pytest

from kaluza.prng import SEED_LIMIT, Stream


def test_streams_keep_their_words_up_to_the_largest_seed():
    # words of the stream as it was before seeds were range-checked
    for seed, words in (
        (5, [14665266241186068207, 8942898672575478019]),
        (2**63 - 1, [12082607849862758611, 10925846349399216663]),
    ):
        s = Stream(seed)
        assert [s.next_word(), s.next_word()] == words


def test_a_seed_that_would_alias_another_is_refused():
    # The state is 2 * seed + 1 mod 2**64, so seed + 2**63 would give the
    # stream of seed word for word.
    assert SEED_LIMIT == 2**63
    for seed in (2**63, 5 + 2**63, 2**64, -1):
        with pytest.raises(ValueError, match=rf"^seed must be in 0\.\.2\*\*63 - 1, got {seed}$"):
            Stream(seed)
