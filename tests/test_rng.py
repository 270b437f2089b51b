import numpy as np
import pytest

from conedsl.rng import SplitMix64

MASK = (1 << 64) - 1


def reference_stream(seed, count):
    """Independent splitmix64 written against the published constants."""
    state = seed & MASK
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        z = z ^ (z >> 31)
        out.append(z)
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 123456789])
def test_matches_reference_bits(seed):
    rng = SplitMix64(seed)
    got = [rng.next_u64() for _ in range(64)]
    assert got == reference_stream(seed, 64)


def test_uniform_range_and_determinism():
    a = SplitMix64(7)
    b = SplitMix64(7)
    ua = [a.uniform() for _ in range(1000)]
    ub = [b.uniform() for _ in range(1000)]
    assert ua == ub
    assert all(0.0 <= u < 1.0 for u in ua)
    assert abs(np.mean(ua) - 0.5) < 0.05


def test_uniform_open_avoids_zero():
    rng = SplitMix64(3)
    vals = [rng.uniform_open() for _ in range(2000)]
    assert all(0.0 < u < 1.0 for u in vals)


def test_normals_shape_and_moments():
    rng = SplitMix64(11)
    z = rng.normals(200, 5)
    assert z.shape == (200, 5)
    assert abs(z.mean()) < 0.1
    assert abs(z.std() - 1.0) < 0.1


def test_uniforms_shape():
    rng = SplitMix64(2)
    u = rng.uniforms(7, 3)
    assert u.shape == (7, 3)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_randint_bounds_and_coverage():
    rng = SplitMix64(5)
    draws = [rng.randint(10) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 9
    assert set(draws) == set(range(10))


def test_spawn_gives_distinct_streams():
    rng = SplitMix64(9)
    child = rng.spawn()
    a = [child.next_u64() for _ in range(8)]
    b = [rng.next_u64() for _ in range(8)]
    assert a != b


def test_seed_sensitivity():
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


# The block methods work in chunks of 2**16 draws, which is 2**15 normals
# (two draws each) or 2**16 uniforms; an int n below stands for the shape
# (n chunks + 1,).
@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
@pytest.mark.parametrize("shape", [(), (0, 3), (1,), (3, 4), 1, 2],
                         ids=["none", "0x3", "1", "3x4", "chunk+1",
                              "2chunks+1"])
@pytest.mark.parametrize("block,scalar,chunk", [
    ("normals", "normal", 2**15), ("uniforms", "uniform", 2**16)])
def test_block_draws_equal_the_scalar_stream(seed, shape, block, scalar,
                                             chunk):
    if isinstance(shape, int):
        shape = (shape * chunk + 1,)
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    got = getattr(fast, block)(*shape)
    size = int(np.prod(shape)) if shape else 1
    want = np.array([getattr(slow, scalar)() for _ in range(size)])
    assert got.shape == (shape if shape else (1,))
    assert got.tobytes() == want.tobytes()
    assert fast.next_u64() == slow.next_u64()


def test_block_draws_make_no_scalar_calls(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("scalar draw in a block method")

    for name in ("next_u64", "normal", "uniform", "uniform_open"):
        monkeypatch.setattr(SplitMix64, name, refuse)
    rng = SplitMix64(1)
    assert rng.normals(1000).shape == (1000,)
    assert rng.uniforms(1000).shape == (1000,)
