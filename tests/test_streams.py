import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from gharnack import streams
from gharnack.streams import (
    CONTROL_SPACE,
    PATH_SPACE,
    normal_matrix,
    philox,
    uniform_levels,
)

SEEDS = [0, 7, 2 ** 63 + 5, -1]
M32 = 2 ** 32 - 1

# Random123 known answers for Philox4x32-10 (Salmon, Moraes, Dror and Shaw,
# SC 2011): counter, 64-bit key (low word first), output words.
KNOWN_ANSWERS = [
    ((0, 0, 0, 0), 0, (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((M32,) * 4, 2 ** 64 - 1, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), 0x299F31D0A4093822,
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


def philox_rounds(counter, key):
    """Philox4x32-10 on Python ints, one round at a time."""
    c0, c1, c2, c3 = counter
    k0, k1 = key & M32, (key >> 32) & M32
    for _ in range(10):
        p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = ((p1 >> 32) ^ c1 ^ k0, p1 & M32,
                          (p0 >> 32) ^ c3 ^ k1, p0 & M32)
        k0, k1 = (k0 + 0x9E3779B9) & M32, (k1 + 0xBB67AE85) & M32
    return c0, c1, c2, c3


def unit(word):
    return (word + 0.5) * 2.0 ** -32


def reference_normal(seed, stream, step):
    """The normal at `step` of `stream`, one counter and one ziggurat draw
    at a time, as the module docstring states it, with the branches taken."""
    lo, hi = stream & M32, (stream >> 32) & M32
    z = philox_rounds((step // 4, lo, hi, 0), seed)[step % 4]
    taken, attempt = [], 0
    while True:
        layer, mag = z & 0xFF, z >> 9
        sign = -1.0 if z & 0x100 else 1.0
        if mag < streams._ACCEPT[layer]:
            return sign * (mag * streams._WIDTH[layer]), taken + ["fast"]
        attempt += 1
        w = philox_rounds((step, lo, hi, attempt), seed)
        u = unit(w[1])
        if layer == 0:
            xx = -math.log(u) / streams._R
            if -2.0 * math.log(unit(w[2])) > xx * xx:
                return sign * (streams._R + xx), taken + ["tail"]
            taken.append("tail refused")
            continue
        x = mag * streams._WIDTH[layer]
        if streams._LOWER[layer] + u * streams._RISE[layer] < \
                math.exp(-0.5 * x * x):
            return sign * x, taken + ["wedge"]
        taken.append("wedge refused")
        z = w[0]


def fresh(seed, stream, n):
    """The first n normals of `stream`, drawn by the reference loop."""
    return np.array([reference_normal(seed, stream & (2 ** 64 - 1), j)[0]
                     for j in range(n)])


def first_words(seed, n):
    """The attempt-0 words of steps 0 ... 4n - 1 of stream 0."""
    return philox(np.arange(n, dtype=np.uint32), 0, 0, 0, seed).reshape(-1)


class TestPhilox:
    @pytest.mark.parametrize("counter, key, want", KNOWN_ANSWERS)
    def test_known_answers(self, counter, key, want):
        assert philox_rounds(counter, key) == want
        got = philox(*counter, key)
        assert got.shape == (1, 4) and got.dtype == np.uint32
        assert tuple(int(v) for v in got[0]) == want

    @pytest.mark.parametrize("key", [0, 5, 2 ** 64 - 1, 0x299F31D0A4093822])
    def test_broadcast_counters_match_the_rounds(self, key):
        # c0 along one axis and c1, c2 along the other, as a block of quads
        # by streams is drawn, and every word of the counter
        rng = np.random.default_rng(3)
        c0 = rng.integers(0, 2 ** 32, 6, dtype=np.uint32)
        c1, c2 = rng.integers(0, 2 ** 32, (2, 4, 1), dtype=np.uint32)
        c3 = np.array([M32], dtype=np.uint32)
        got = philox(c0, c1, c2, c3, key)
        assert got.shape == (4, 6, 4)
        for i in range(4):
            for j in range(6):
                counter = (int(c0[j]), int(c1[i, 0]), int(c2[i, 0]), M32)
                assert tuple(int(v) for v in got[i, j]) == \
                    philox_rounds(counter, key)


class TestNormalMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_equal_fresh_generators(self, seed):
        m = normal_matrix(seed, 12, 37)
        assert m.shape == (12, 37) and m.dtype == np.float64
        for p in range(12):
            assert m[p].tobytes() == fresh(seed, PATH_SPACE + p, 37).tobytes(), p

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prefix_rows_equal_shorter_matrix(self, seed):
        tall = normal_matrix(seed, 40, 19)
        for k in (1, 5, 39):
            assert tall[:k].tobytes() == normal_matrix(seed, k, 19).tobytes()
        # rows first ... first + k - 1 of a taller matrix, drawn on their own
        for first, k in ((1, 5), (17, 23), (39, 1), (40, 0)):
            assert normal_matrix(seed, k, 19, first=first).tobytes() == \
                tall[first:first + k].tobytes()

    def test_row_longer_than_one_counter_block(self):
        # 1001 normals take 251 quad counters, the last one part-used, and
        # the next row still starts from quad 0 of its own stream
        m = normal_matrix(3, 3, 1001)
        for p in range(3):
            assert m[p].tobytes() == fresh(3, PATH_SPACE + p, 1001).tobytes()

    def test_interleaved_calls_match_separate_calls(self):
        a1 = normal_matrix(11, 6, 25)
        b1 = normal_matrix(12, 6, 25)
        a2 = normal_matrix(11, 6, 25)
        b2 = normal_matrix(12, 9, 25)
        assert a1.tobytes() == a2.tobytes()
        assert b1.tobytes() == b2[:6].tobytes()
        assert a1.tobytes() != b1.tobytes()

    def test_no_state_survives_the_call(self):
        before = normal_matrix(5, 4, 8)
        normal_matrix(5, 1000, 3)
        assert normal_matrix(5, 4, 8).tobytes() == before.tobytes()
        # the module holds constants only: read-only tables, no generator
        arrays = [v for v in vars(streams).values() if isinstance(v, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)
        assert not any(isinstance(v, (np.random.Generator,
                                      np.random.BitGenerator))
                       for v in vars(streams).values())

    def test_empty_shapes(self):
        assert normal_matrix(1, 0, 5).shape == (0, 5)
        assert normal_matrix(1, 3, 0).shape == (3, 0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 63, 2 ** 64 - 1, -1,
                                      20240811])
    @pytest.mark.parametrize("first", [0, 5, 2 ** 40])
    @pytest.mark.parametrize("shape", [(3, 1), (4, 7), (2, 256)])
    def test_same_bits_as_the_array_state_loop(self, seed, first, shape):
        # the reference loop: one scalar counter and one ziggurat draw per
        # step of each row's own stream
        n_paths, n_steps = shape
        want = np.array([fresh(seed, PATH_SPACE + first + i, n_steps)
                         for i in range(n_paths)])
        got = normal_matrix(seed, n_paths, n_steps, first=first)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 64, 8192])
    def test_rows_do_not_depend_on_the_chunk(self, monkeypatch, chunk):
        want = normal_matrix(21, 150, 37)
        monkeypatch.setattr(streams, "_CHUNK", chunk)
        assert normal_matrix(21, 150, 37).tobytes() == want.tobytes()
        assert normal_matrix(21, 1, 37, first=149).tobytes() == \
            want[149:].tobytes()


def window(seed, stream, n, j0, m):
    """Steps j0 ... j0 + m - 1 of n streams from `stream`, as one window."""
    out = np.full((m, n), np.nan)
    for got in streams.normal_windows(seed, stream, n, j0, j0 + m, out):
        assert got.base is out or got is out
    return out


class TestNormalWindows:
    """A window, steps j0 ... j0 + m - 1 of n streams one row per step, is
    the transpose of those columns of the path-major matrix, bit for bit,
    alone or as one of a run of windows through one buffer."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 64 - 1), first=st.integers(0, 2 ** 64 - 1),
           n=st.integers(0, 40), quad=st.integers(0, 40),
           m=st.integers(0, 70), width=st.integers(1, 6))
    def test_windows_are_the_matrix_columns(self, seed, first, n, quad, m,
                                            width):
        j0 = 4 * quad
        want = normal_matrix(seed, n, j0 + m, first=first)[:, j0:].T
        got = window(seed, PATH_SPACE + first, n, j0, m)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        # windows of 4 width steps, the last one short, share one buffer
        steps = [w.copy() for w in streams.normal_windows(
            seed, PATH_SPACE + first, n, j0, j0 + m, np.empty((4 * width, n)))]
        assert [len(w) for w in steps] == \
            [min(4 * width, m - a) for a in range(0, m, 4 * width)]
        if steps:
            assert np.concatenate(steps).tobytes() == got.tobytes()

    def test_windows_start_on_a_quad(self):
        for j0, m in ((6, 4), (0, 6)):
            with pytest.raises(ValueError, match="multiple of 4"):
                next(streams.normal_windows(1, 0, 3, j0, 12, np.empty((m, 3))))

    # (stream, step) under the bundled seed of draws found by scanning the
    # streams from 5 * 2^32 + 17 on: a tail draw, a word settled at the
    # second attempt by the fast path, a tail refused once, and a tail
    # refused twice, settled at the third attempt, past the retries' first
    # philox call
    @pytest.mark.parametrize("stream, step, branches", [
        (5 * 2 ** 32 + 35, 193, ("tail",)),
        (5 * 2 ** 32 + 115, 100, ("wedge refused", "wedge refused", "fast")),
        (5 * 2 ** 32 + 566, 119, ("tail refused", "tail")),
        (5 * 2 ** 32 + 6376, 46, ("tail refused", "tail refused", "tail")),
    ])
    def test_pinned_slow_draws(self, stream, step, branches):
        seed = 20240811
        value, taken = reference_normal(seed, stream, step)
        assert tuple(taken) == branches
        if "tail" in branches:
            assert abs(value) > streams._R
        # a window from the quad before the step's, among the neighbouring
        # streams
        j0 = step // 4 * 4 - 4
        steps = window(seed, stream - 3, 7, j0, step - j0 + 5)
        assert steps[step - j0, 3] == value

    @pytest.mark.parametrize("attempts", [1, 3])
    def test_retries_do_not_depend_on_the_batch(self, monkeypatch, attempts):
        # one attempt per philox call sends every word refused twice to a
        # second call of the retries
        want = normal_matrix(32, 64, 256)
        monkeypatch.setattr(streams, "_ATTEMPTS", attempts)
        assert normal_matrix(32, 64, 256).tobytes() == want.tobytes()


class TestZiggurat:
    def test_layers_have_equal_area(self):
        r, v = streams._R, 4.92867323399e-3
        x = streams._WIDTH[1:256] * 2.0 ** 23
        assert x[-1] == r and np.all(np.diff(x) > 0)
        f = np.exp(-0.5 * x * x)
        # a layer above the base: [0, x_i] between f(x_i) and f(x_{i-1})
        assert np.allclose(x * (np.concatenate([[1.0], f[:-1]]) - f), v,
                           rtol=1e-9, atol=0)
        # the base: [0, r] at height f(r) and the tail beyond r
        tail = math.sqrt(math.pi / 2) * math.erfc(r / math.sqrt(2))
        assert r * f[-1] + tail == pytest.approx(v, rel=1e-9)
        assert streams._WIDTH[0] * 2.0 ** 23 * f[-1] == pytest.approx(v, rel=1e-15)
        # about 1.5 % of the words leave the fast path
        fast = np.minimum(streams._ACCEPT[:256], 2 ** 23).mean() / 2 ** 23
        assert 0.984 < fast < 0.986

    @pytest.mark.parametrize("branches", [
        ("wedge",), ("wedge refused", "fast"), ("wedge refused", "wedge"),
        ("tail",), ("tail refused", "tail")])
    def test_forced_slow_draw_matches_the_reference(self, branches):
        # a step of stream 0 whose first word leaves the fast path and whose
        # retries take `branches`: accepted on the wedge or the tail at the
        # first attempt, refused there and settled at the second, by a new
        # word that the fast path takes or by a second wedge test on it
        seed = 31
        words = first_words(seed, 2 ** 16)
        slow = np.flatnonzero(words >> 9 >= streams._ACCEPT[words & 0xFF])
        for step in slow:
            value, taken = reference_normal(seed, 0, int(step))
            if tuple(taken) == branches:
                break
        else:
            pytest.fail(f"no draw takes {branches} in the first steps")
        got = normal_matrix(seed, 1, int(step) + 1)[0, step]
        assert got == value
        if "tail" in branches:
            assert abs(got) > streams._R

    def test_slow_draws_match_the_reference(self):
        # every refused word of the first 8192 steps of stream 0
        seed = 32
        words = first_words(seed, 2048)
        steps = np.flatnonzero(words >> 9 >= streams._ACCEPT[words & 0xFF])
        assert len(steps) > 80
        got = normal_matrix(seed, 1, 8192)[0]
        want = [reference_normal(seed, 0, int(j))[0] for j in steps]
        assert got[steps].tolist() == want


class TestDistribution:
    N = 2 ** 18

    @pytest.fixture(scope="class")
    def draws(self):
        return normal_matrix(20240811, 1024, 256).reshape(-1)

    def test_mean_and_variance(self, draws):
        assert draws.size == self.N
        assert abs(draws.mean()) < 5 / math.sqrt(self.N)
        assert abs(draws.var() - 1.0) < 5 * math.sqrt(2 / self.N)

    def test_kolmogorov_smirnov_against_the_normal(self, draws):
        assert stats.kstest(draws, stats.norm.cdf).pvalue > 1e-3

    def test_tail_mass_beyond_the_base(self, draws):
        p = math.erfc(streams._R / math.sqrt(2))
        beyond = int(np.count_nonzero(np.abs(draws) > streams._R))
        assert abs(beyond - self.N * p) < 5 * math.sqrt(self.N * p * (1 - p))


class TestUniformLevels:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_fresh_control_stream(self, seed):
        for control_id in (0, 3):
            got = uniform_levels(seed, control_id, 64, 0.9, 1.1)
            stream = CONTROL_SPACE + control_id
            words = [philox_rounds((q, stream & M32, stream >> 32, M32), seed)
                     for q in range(16)]
            u = np.array([unit(w) for quad in words for w in quad])
            assert got.tobytes() == (0.9 + (1.1 - 0.9) * u).tobytes()

    def test_independent_of_path_draws(self):
        before = uniform_levels(20240811, 2, 32, 0.8, 1.2)
        normal_matrix(20240811, 50, 32)
        assert uniform_levels(20240811, 2, 32, 0.8, 1.2).tobytes() == \
            before.tobytes()
