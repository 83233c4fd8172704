"""The in-package PCG64 stream against numpy's ``default_rng``, its oracle.

`SeededStream(seed)` must give the draws of ``np.random.default_rng(seed)``
for ``integers(low, high, size)`` and ``choice(n, size, replace=False)``,
call after call, so every seeded output of the package is what it was when
numpy drew it.  Every call below runs interleaved on one stream per seed,
so the buffered 32-bit half of one call carries over into the next.
"""

import numpy as np
import pytest

from ribbonsyz.rng import SeededStream

# 2^200 has more 32-bit words of entropy than SeedSequence's pool of four
SEEDS = [*range(200), 2026, 2**32 + 5, 2**64 + 1, 2**200]
MODULI = (2, 3, 101, 65521, 2**31 - 1)
SIZES = (1, 5, (2, 3), 0, (0, 4), 7)
# (n, k): Floyd's algorithm up to n = 10000 or k <= n // 50, else the tail
# shuffle; (20000, 400) and (20000, 401) sit on either side of the cutoff
CHOICES = ((1, 1), (3, 0), (10, 10), (101, 3), (84, 5), (10000, 200), (20000, 400), (20000, 401))


def calls():
    for p in MODULI:
        for size in SIZES:
            yield "integers", (0, p, size)
        yield "choice", CHOICES[p % len(CHOICES)]
    for n, k in CHOICES:
        yield "choice", (n, k)
        yield "integers", (0, 3, 1)  # one draw: leaves a half in the buffer
    yield "integers", (-5, 9, (3, 1))
    # wide ranges, where Lemire's method rejects often (threshold 2^32 mod
    # (2^31 + 1) = 2^31 - 1), and the full 32-bit range, which never rejects
    yield "integers", (0, 2**31 + 1, 8)
    yield "integers", (7, 2**32 + 7, 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_equal_default_rng(seed):
    ours, theirs = SeededStream(seed), np.random.default_rng(seed)
    for name, args in calls():
        if name == "integers":
            got, want = ours.integers(*args), theirs.integers(*args)
        else:
            got, want = ours.choice(*args, replace=False), theirs.choice(*args, replace=False)
        assert got.dtype == want.dtype == np.int64, (name, args)
        assert got.shape == want.shape, (name, args)
        assert np.array_equal(got, want), (name, args)


@pytest.mark.parametrize("seed", [0, 1, 2**64 + 1])
def test_whole_range_on_both_branches(seed):
    # k = n: Floyd's first draw, and the tail shuffle's last, are on [0, 0]
    # and take no bits
    ours, theirs = SeededStream(seed), np.random.default_rng(seed)
    for n in (10000, 20000, 10):
        assert np.array_equal(ours.choice(n, n, replace=False), theirs.choice(n, n, replace=False))
        assert np.array_equal(ours.integers(0, 101, 3), theirs.integers(0, 101, 3))


@pytest.mark.parametrize("n, k, shuffled", [(20000, 400, 400), (20000, 401, 20000), (10000, 9000, 9000), (101, 3, 3)])
def test_choice_takes_numpy_branch(monkeypatch, n, k, shuffled):
    # the Fisher-Yates pass runs over the k draws of Floyd's algorithm, or
    # over all of range(n) in the tail shuffle
    lengths = []
    original = SeededStream._shuffle

    def spy(self, data, first):
        lengths.append(len(data))
        return original(self, data, first)

    monkeypatch.setattr(SeededStream, "_shuffle", spy)
    SeededStream(0).choice(n, k, replace=False)
    assert lengths == [shuffled]


def test_refusals():
    with pytest.raises(ValueError, match="non-negative"):
        SeededStream(-1)
    stream = SeededStream(0)
    with pytest.raises(ValueError, match="low < high"):
        stream.integers(5, 5, 1)
    with pytest.raises(ValueError, match="wider than 2"):
        stream.integers(0, 2**32 + 1, 1)
    with pytest.raises(ValueError, match="without replacement"):
        stream.choice(5, 2, replace=True)
    with pytest.raises(ValueError, match="distinct"):
        stream.choice(5, 6, replace=False)
    # a refused call draws nothing
    assert np.array_equal(stream.integers(0, 101, 4), np.random.default_rng(0).integers(0, 101, 4))
