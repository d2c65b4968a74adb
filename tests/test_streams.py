import numpy as np
import pytest

from gharnack import streams
from gharnack.streams import (
    _MASK64,
    CONTROL_SPACE,
    PATH_SPACE,
    normal_matrix,
    uniform_levels,
)

SEEDS = [0, 7, 2 ** 63 + 5, -1]


def fresh(seed, stream):
    """A new generator on the key (seed, stream), built the documented way."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class TestNormalMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_equal_fresh_generators(self, seed):
        m = normal_matrix(seed, 12, 37)
        assert m.shape == (12, 37) and m.dtype == np.float64
        for p in range(12):
            row = fresh(seed, PATH_SPACE + p).standard_normal(37)
            assert m[p].tobytes() == row.tobytes(), p

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
        # 1001 normals consume several Philox blocks and a part-used buffer;
        # the next row must still start from counter 0 of its own key
        m = normal_matrix(3, 3, 1001)
        for p in range(3):
            assert m[p].tobytes() == \
                fresh(3, PATH_SPACE + p).standard_normal(1001).tobytes()

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
        # the earlier loop: reset from the generator's own array-valued
        # state and copy each drawn row into the matrix
        n_paths, n_steps = shape
        want = np.empty(shape)
        gen = fresh(seed, PATH_SPACE)
        bits = gen.bit_generator
        state = bits.state
        key = state["state"]["key"]
        for i in range(n_paths):
            key[1] = PATH_SPACE + first + i
            bits.state = state
            want[i] = gen.standard_normal(n_steps)
        got = normal_matrix(seed, n_paths, n_steps, first=first)
        assert got.tobytes() == want.tobytes()


class TestUniformLevels:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_fresh_control_stream(self, seed):
        for control_id in (0, 3):
            got = uniform_levels(seed, control_id, 64, 0.9, 1.1)
            want = fresh(seed, CONTROL_SPACE + control_id).uniform(
                0.9, 1.1, size=64)
            assert got.tobytes() == want.tobytes()

    def test_independent_of_path_draws(self):
        before = uniform_levels(20240811, 2, 32, 0.8, 1.2)
        normal_matrix(20240811, 50, 32)
        assert uniform_levels(20240811, 2, 32, 0.8, 1.2).tobytes() == \
            before.tobytes()
