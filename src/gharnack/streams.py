"""Counter-based random number streams (Philox).

Each path owns the keyed stream (seed, PATH_SPACE + path index), so any row of
an increment matrix can be regenerated independently of execution order.
Control-level draws live in a disjoint key space.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
PATH_SPACE = 0
CONTROL_SPACE = 1 << 48


def _generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_matrix(seed: int, n_paths: int, n_steps: int,
                  first: int = 0) -> np.ndarray:
    """Standard-normal increments, one row per path, one column per step, for
    the paths first ... first + n_paths - 1.

    Row i is the first n_steps normals of the stream
    (seed, PATH_SPACE + first + i), so a path depends only on (seed, its
    index): the first k rows of a taller matrix equal the matrix of height k,
    and rows f ... f + k - 1 equal the matrix of height k from f. One
    generator serves every row: before each row its state is reset to that
    of a fresh generator on the row's key (counter 0, empty buffer), which
    draws the same numbers without building a generator per row. The state
    is a dict of plain ints, which the bit generator reads faster than
    arrays, and each row is drawn in place.
    """
    out = np.empty((n_paths, n_steps), dtype=float)
    gen = _generator(seed, PATH_SPACE)
    bits = gen.bit_generator
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": [seed & _MASK64, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0}
    key = fresh["state"]["key"]
    for i, row in enumerate(out):
        key[1] = PATH_SPACE + first + i
        bits.state = fresh
        gen.standard_normal(out=row)
    return out


def uniform_levels(seed: int, control_id: int, n_steps: int,
                   low: float, high: float) -> np.ndarray:
    """Per-step uniform draws in [low, high] for one control."""
    g = _generator(seed, CONTROL_SPACE + control_id)
    return g.uniform(low, high, size=n_steps)
