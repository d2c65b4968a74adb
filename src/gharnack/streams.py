"""Counter-based random number streams: Philox4x32-10 and a ziggurat.

Every number a run draws is a pure function of (seed, stream, step), so any
row of an increment matrix can be regenerated on its own, in any order and
in any chunking. The generator is Philox4x32-10 (Salmon, Moraes, Dror and
Shaw, SC 2011), vectorised over counters with numpy:

- the key is the 64-bit seed, low word first;
- the counter is (step quad, stream low word, stream high word, attempt);
- the counter (q, s, 0) gives the normal words of steps 4q ... 4q + 3 of
  stream s, and (q, s, 2^32 - 1) its uniform words.

Paths own the streams PATH_SPACE + path index, controls CONTROL_SPACE +
control index and randomised trials TRIAL_SPACE + trial index, so no two of
them share a word.

Normals come from a 256-layer ziggurat (Marsaglia and Tsang 2000): each word
gives one normal, its low 8 bits the layer, bit 8 the sign and its high 23
bits the magnitude m, so the fast path returns +-m x_layer 2^-23, a point of
a 2^-23 lattice of the layer's width, as numpy's float32 ziggurat does. About
1.5 % of words fall outside the layer's inner rectangle; those draws retry
on the step's own counters (step, stream, attempt) for attempt = 1, 2, ...:
word 1 is the uniform of the wedge test, words 1 and 2 the pair of the tail
test, and word 0 replaces a word that the wedge test refused.

The one draw is `normal_windows`: steps j0 ... j1 - 1 of the streams s ...
s + n - 1 as time-major windows, one row per step, from counters laid out
as (quad, stream) through one set of scratch arrays. The refused words of
a window retry together, a few attempts per philox call. A path-major
matrix (`normals`, `normal_matrix`) is such windows transposed, with the
same bits.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
PATH_SPACE = 0
CONTROL_SPACE = 1 << 48
TRIAL_SPACE = 2 << 48

# Philox4x32 round multipliers, and the Weyl key increments of each round
_ROUNDS = 10
_MULT = np.array([0xD2511F53, 0xCD9E8D57], dtype=np.uint64)
_BUMPS = np.arange(_ROUNDS, dtype=np.uint64)[:, None] * np.array(
    [0x9E3779B9, 0xBB67AE85], dtype=np.uint64)
_MULT.setflags(write=False)
_BUMPS.setflags(write=False)
# the attempt word of the counters whose words are uniforms
_UNIFORM = _MASK32
# counters per chunk of a draw: numpy's cost per call is paid per chunk,
# and a chunk's words and scratch take about 14 bytes a normal (0.44 MB),
# about twice the window of 32 steps by 1024 streams that it fills
_CHUNK = 8192
# the place of the low word of a uint64 in memory
_LOW = 0 if sys.byteorder == "little" else 1


def _halves(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and the high uint32 words of a uint64 array, as views."""
    v = p.view(np.uint32)
    return v[..., _LOW::2], v[..., 1 - _LOW::2]


def philox(c0, c1, c2, c3, key: int, out: np.ndarray | None = None,
           work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Philox4x32-10 of the counters (c0, c1, c2, c3) under the 64-bit
    `key`: uint32 arrays that broadcast to one shape, whose four output
    words come back in `out`, a uint32 array of that shape + (4,).

    The pair (c0, c2) to multiply is stacked on one leading axis of 2 (see
    `_philox_work`), so a round is three ufunc calls whatever the shape:
    the uint64 products of the pair, and the high words of the products,
    swapped, xored with the low words of the round before and with the
    round's keys. The products' high and low words are uint32 views.
    """
    c0, c1, c2, c3 = (np.array(v, dtype=np.uint32, copy=None, ndmin=1)
                      for v in (c0, c1, c2, c3))
    shape = np.broadcast(c0, c1, c2, c3).shape
    axes = (1,) * len(shape)
    # the round keys, mod 2^32 as the cast to uint32 wraps
    keys = _BUMPS + np.array([key & _MASK32, (key >> 32) & _MASK32],
                             dtype=np.uint64)
    keys = keys.astype(np.uint32).reshape((_ROUNDS, 2) + axes)
    mult = _MULT.reshape((2,) + axes)
    x, products = _philox_work(shape) if work is None else work
    lo, hi = _halves(products)
    np.copyto(x[0], c0)
    np.copyto(x[1], c2)
    for r in range(_ROUNDS):
        p = r % 2
        np.multiply(x, mult, out=products[p], dtype=np.uint64)
        if r == 0:
            np.bitwise_xor(hi[p, 1], c1, out=x[0])
            np.bitwise_xor(hi[p, 0], c3, out=x[1])
        else:
            np.bitwise_xor(hi[p, ::-1], lo[1 - p, ::-1], out=x)
        np.bitwise_xor(x, keys[r], out=x)
    if out is None:
        out = np.empty(shape + (4,), dtype=np.uint32)
    # words 0 and 2 are the pair a next round would multiply, words 1 and
    # 3 the low words of the last products
    word_axis_first = (len(shape), *range(len(shape)))
    np.copyto(out[..., ::2].transpose(word_axis_first), x)
    np.copyto(out[..., 1::2].transpose(word_axis_first), lo[p, ::-1])
    return out


def _philox_work(shape) -> tuple[np.ndarray, np.ndarray]:
    """Scratch of `philox` on counters of `shape`: the uint32 pair to
    multiply and the two alternating uint64 product pairs, each round
    reading the low words of the round before."""
    return (np.empty((2,) + shape, dtype=np.uint32),
            np.empty((2, 2) + shape, dtype=np.uint64))


def _ziggurat_tables():
    """Layer i of the ziggurat spans [0, x_i] at heights f(x_i) ...
    f(x_{i-1}), with x_0 = 0 and x_255 = r; layer 0 is the base strip,
    [0, r] at height f(r) with the tail beyond r folded into its width v /
    f(r). Returns the signed width per magnitude unit indexed by the low 9
    bits of a word (layer, then sign), the magnitudes below which the fast
    path accepts, f at the lower edge of each layer and the rise of f
    across it."""
    r, v = 3.6541528853610088, 4.92867323399e-3
    x = [0.0] * 256
    x[255] = r
    for i in range(254, 0, -1):
        f = math.exp(-0.5 * x[i + 1] ** 2)
        x[i] = math.sqrt(-2.0 * math.log(v / x[i + 1] + f))
    right = [v / math.exp(-0.5 * r * r)] + x[1:]
    inner = [r] + x[:255]
    width = np.array(right) * 2.0 ** -23
    # the lattice points strictly inside the layer's inner rectangle
    accept = np.array([math.ceil(a / b * 2.0 ** 23)
                       for a, b in zip(inner, right)], dtype=float)
    lower = np.exp(-0.5 * np.array(x) ** 2)
    rise = np.concatenate([[1.0], lower[:-1]]) - lower
    tables = (np.concatenate([width, -width]), np.tile(accept, 2), lower, rise)
    for table in tables:
        table.setflags(write=False)
    return (r, *tables)


_R, _WIDTH, _ACCEPT, _LOWER, _RISE = _ziggurat_tables()
# A magnitude m is below its layer's threshold a exactly when the word
# 2^9 m + (low 9 bits) is below 2^9 a.
_ACCEPT_WORD = (_ACCEPT * 2.0 ** 9).astype(np.uint32)
_ACCEPT_WORD.setflags(write=False)


def _fast_path(words: np.ndarray, out: np.ndarray, low: np.ndarray,
               refused: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Writes the fast-path normal of each word into `out`, and `refused`,
    the mask of the words outside their layer's inner rectangle; returns
    the flat indices and the words of those refused. `low` (intp) receives
    the low 9 bits of each word and `words` keeps only its magnitude; `out`,
    C-contiguous, holds each word's threshold on the way."""
    np.bitwise_and(words, 0x1FF, out=low)
    threshold = out.reshape(-1).view(np.uint32)[:words.size]
    np.take(_ACCEPT_WORD, low, out=threshold.reshape(words.shape), mode="clip")
    np.greater_equal(words, threshold.reshape(words.shape), out=refused)
    at = np.flatnonzero(refused)
    kept = words.reshape(-1)[at]
    np.right_shift(words, 9, out=words)
    np.take(_WIDTH, low, out=out, mode="clip")
    np.multiply(words, out, out=out)
    return at, kept


def _unit(words: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1), (word + 1/2) 2^-32."""
    return (words + 0.5) * 2.0 ** -32


# attempts of the slow path drawn and tested at once: about one refused
# word in 8000 needs a third, so one window of 32 x 1024 normals in 16
# makes a second philox call
_ATTEMPTS = 2


def _slow_path(seed: int, s_lo: np.ndarray, s_hi: np.ndarray,
               step: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The normals of the refused `words` at `step` of the streams with the
    low and high words (s_lo, s_hi), each from its own counters (step,
    stream, attempt) for attempt = 1, 2, ...

    One philox call draws the next _ATTEMPTS attempts of every word still
    refused, and every attempt is tested at once, as an (attempts, words)
    array: the word of an attempt is the word of the attempt before,
    replaced by that attempt's word 0 unless it lies in the base layer. A
    word takes the normal of its first attempt that settles."""
    value = np.empty(words.size)
    todo = np.arange(words.size)
    attempt = 0
    while todo.size:
        attempts = np.arange(attempt + 1, attempt + 1 + _ATTEMPTS,
                             dtype=np.uint32)
        w = philox(step, s_lo, s_hi, attempts[:, None], seed)
        # z[a]: the word of attempt a, and z[-1] that of the next batch
        z = np.empty((_ATTEMPTS + 1, words.size), dtype=np.uint32)
        layer = np.empty((_ATTEMPTS, words.size), dtype=np.uint32)
        tail = np.empty((_ATTEMPTS, words.size), dtype=bool)
        z[0] = words
        for a in range(_ATTEMPTS):
            np.bitwise_and(z[a], 0xFF, out=layer[a])
            np.equal(layer[a], 0, out=tail[a])
            z[a + 1] = w[a, :, 0]
            np.copyto(z[a + 1], z[a], where=tail[a])
        z, words = z[:-1], z[-1]
        u = _unit(w[..., 1])
        # the wedge test: a uniform height in the layer, under f(x)
        x = (z >> 9) * _WIDTH[layer]
        done = _LOWER[layer] + u * _RISE[layer] < np.exp(-0.5 * x * x)
        # the tail test (Marsaglia 1964) on the words of the base layer
        if tail.any():
            xx = -np.log(u[tail]) / _R
            x[tail] = _R + xx
            done[tail] = -2.0 * np.log(_unit(w[..., 2][tail])) > xx * xx
        np.negative(x, out=x, where=(z & 0x100).astype(bool))
        # a word the wedge refused gives way to word 0 of the attempt,
        # which takes the fast path first
        fast, ok = np.empty(z.shape), np.empty(z.shape, dtype=bool)
        _fast_path(w[..., 0], fast, np.empty(z.shape, dtype=np.intp), ok)
        ok |= done | tail
        np.logical_not(ok, out=ok)
        np.copyto(x, fast, where=ok)
        done |= ok
        first, settled = x[-1], done[-1]
        for a in range(_ATTEMPTS - 2, -1, -1):
            first = np.where(done[a], x[a], first)
            settled = settled | done[a]
        # a word still refused is settled by a later batch
        value[todo] = first
        if settled.all():
            break
        left = ~settled
        todo, step, s_lo, s_hi, words = (todo[left], step[left], s_lo[left],
                                         s_hi[left], words[left])
        attempt += _ATTEMPTS
    return value


def _stream_words(stream: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The low and high words of the streams stream ... stream + n - 1
    (mod 2^64), as (n,) uint32 views."""
    s = np.arange(n, dtype=np.uint64) + np.uint64(stream & _MASK64)
    return _halves(s)


def normal_windows(seed: int, stream: int, n: int, j0: int, j1: int,
                   out: np.ndarray):
    """Standard normals of the steps j0 ... j1 - 1 of the streams stream ...
    stream + n - 1 under the key `seed`, time-major, as windows of len(out)
    steps: each window is the rows of `out`, a C-contiguous (m, n) array,
    that it fills, row j holding step j0' + j of every stream, and is valid
    until the next. j0 and, past one window, m are multiples of 4.

    The counters are laid out as (quad, stream), so the four words of a
    quad land in four rows. Every word takes the fast path, a chunk of
    about _CHUNK counters at a time through one set of scratch arrays for
    every window, and a window's refused words then retry together."""
    m = len(out)
    if j1 <= j0:
        return
    if j0 % 4 or m % 4 and j1 - j0 > m:
        raise ValueError(f"windows of {m} steps from step {j0}: a window "
                         "starts at a multiple of 4 steps")
    s_lo, s_hi = _stream_words(stream, n)
    rows = min(-(-min(m, j1 - j0) // 4), max(1, _CHUNK // max(n, 1)))
    words = np.empty((rows, 4, n), dtype=np.uint32)
    pair, products = _philox_work((rows, n))
    # once a chunk's words are drawn, its products hold their low 9 bits
    # and its pair the mask of the words refused
    low = products.reshape(-1).view(np.intp).reshape(4 * rows, n)
    refused = pair.reshape(-1).view(bool)[:4 * rows * n].reshape(4 * rows, n)
    for a in range(j0, j1, m):
        window = out[:min(m, j1 - a)]
        quads = -(-len(window) // 4)
        refused_at, refused_words = [], []
        for q0 in range(0, quads, rows):
            c = min(rows, quads - q0)
            quad = np.arange(a // 4 + q0, a // 4 + q0 + c, dtype=np.uint32)
            philox(quad[:, None], s_lo, s_hi, 0, seed,
                   out=words[:c].transpose(0, 2, 1),
                   work=(pair[:, :c], products[:, :, :c]))
            k = min(4 * c, len(window) - 4 * q0)
            z = words[:c].reshape(4 * c, n)[:k]
            at, kept = _fast_path(z, window[4 * q0:4 * q0 + k], low[:k],
                                  refused[:k])
            refused_at.append(at + 4 * q0 * n)
            refused_words.append(kept)
        j, s = np.divmod(np.concatenate(refused_at), n)
        window[j, s] = _slow_path(seed, s_lo[s], s_hi[s],
                                  (a + j).astype(np.uint32),
                                  np.concatenate(refused_words))
        yield window


def normals(seed: int, stream: int, n_rows: int, n_cols: int) -> np.ndarray:
    """Standard normals, row i the first n_cols normals of the stream
    stream + i under the key `seed`: one window of every step for about
    _CHUNK counters of streams at a time, transposed into their rows."""
    out = np.empty((n_rows, n_cols))
    rows = max(1, _CHUNK // max(1, -(-n_cols // 4)))
    for first in range(0, n_rows, rows):
        block = out[first:first + rows]
        for steps in normal_windows(seed, stream + first, len(block), 0,
                                    n_cols, np.empty((n_cols, len(block)))):
            block[...] = steps.T
    return out


def normal_matrix(seed: int, n_paths: int, n_steps: int,
                  first: int = 0) -> np.ndarray:
    """Standard-normal increments, one row per path, one column per step, for
    the paths first ... first + n_paths - 1.

    Row i is the first n_steps normals of the stream PATH_SPACE + first + i
    under the key `seed`, so a path depends only on (seed, its index): the
    first k rows of a taller matrix equal the matrix of height k, rows
    f ... f + k - 1 equal the matrix of height k from f, and the first k
    columns equal the matrix of width k.
    """
    return normals(seed, PATH_SPACE + first, n_paths, n_steps)


def uniforms(seed: int, stream: int, n_rows: int, n_cols: int) -> np.ndarray:
    """Uniforms in (0, 1), row i the first n_cols of the stream stream + i
    under the key `seed`, (word + 1/2) 2^-32 of the uniform words."""
    s_lo, s_hi = _stream_words(stream, n_rows)
    quads = np.arange(-(-n_cols // 4), dtype=np.uint32)
    words = philox(quads, s_lo[:, None], s_hi[:, None], _UNIFORM, seed)
    return _unit(words.reshape(n_rows, 4 * quads.size)[:, :n_cols])


def uniform_levels(seed: int, control_id: int, n_steps: int,
                   low: float, high: float) -> np.ndarray:
    """Per-step uniform draws in (low, high) for one control."""
    u = uniforms(seed, CONTROL_SPACE + control_id, 1, n_steps)[0]
    return low + (high - low) * u
