import tracemalloc

import numpy as np
import pytest

from lqpoison import pcg64

# 2**32 and above take SeedSequence's multi-word entropy path
SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64, 2**200 + 3]
# odd counts end on half a 64-bit output in the 0/1 draw
SHAPES = [(1, 1), (7, 1), (500, 2), (701, 3), (5000, 3)]


def reference(seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_matches_numpy_bit_for_bit(seed, shape):
    for a in (0.7, 1.7):
        got = pcg64.uniform(seed, -a, a, shape)
        want = reference(seed).uniform(-a, a, size=shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    got = pcg64.bits(seed, shape)
    want = reference(seed).integers(0, 2, size=shape)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("draw", [lambda: pcg64.uniform(5, -1.0, 1.0, (10**6,)),
                                  lambda: pcg64.bits(5, (10**6,))], ids=["uniform", "bits"])
def test_working_memory_does_not_grow_with_the_draw(draw):
    tracemalloc.start()
    try:
        out = draw()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2**20
