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

# Philox4x32 round multipliers and Weyl key increments
_MULT = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_BUMP = (0x9E3779B9, 0xBB67AE85)
_ROUNDS = 10
# the attempt word of the counters whose words are uniforms
_UNIFORM = _MASK32
# counters per chunk of a draw: numpy's cost per call is paid per chunk,
# and the chunk's words and scratch (about 15 bytes a normal, 0.5 MB) stay
# well below one block of increments
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

    A round multiplies the pair (c0, c2) into uint64 products and reads
    their high and low words as uint32 views. While a multiplicand is
    smaller than the full shape (the first rounds of a block of quads by
    streams, whose c0 varies along one axis and c1, c2 along the other) the
    round runs on the small operands. From then on a round is six ufunc
    calls on `work` (see `_philox_work`).
    """
    c = [np.atleast_1d(np.asarray(v, dtype=np.uint32))
         for v in (c0, c1, c2, c3)]
    shape = np.broadcast_shapes(*(v.shape for v in c))
    k0, k1 = key & _MASK32, (key >> 32) & _MASK32
    keys = np.array([((k0 + r * _BUMP[0]) & _MASK32,
                      (k1 + r * _BUMP[1]) & _MASK32) for r in range(_ROUNDS)],
                    dtype=np.uint32)
    m0, m1 = _MULT
    # (x0, x1): the pair to multiply; (l0, l1): the words that the high
    # words of the products meet, (c3, c1) and then the previous low words
    x0, x1, l0, l1 = c[0], c[2], c[3], c[1]
    r = 0
    while x0.shape != shape or x1.shape != shape:
        lo0, hi0 = _halves(np.multiply(x0, m0, dtype=np.uint64))
        lo1, hi1 = _halves(np.multiply(x1, m1, dtype=np.uint64))
        ka, kb = keys[r]
        x0, x1, l0, l1 = hi1 ^ (l1 ^ ka), hi0 ^ (l0 ^ kb), lo0, lo1
        r += 1
    (a, b), products = _philox_work(shape) if work is None else work
    lo, hi = _halves(products)
    views = [(products[i, 0], products[i, 1], lo[i, 0], lo[i, 1], hi[i, 0],
              hi[i, 1]) for i in (0, 1)]
    for r in range(r, _ROUNDS):
        p0, p1, lo0, lo1, hi0, hi1 = views[r % 2]
        np.multiply(x0, m0, out=p0, dtype=np.uint64)
        np.multiply(x1, m1, out=p1, dtype=np.uint64)
        ka, kb = keys[r]
        if r == _ROUNDS - 1:
            break
        np.bitwise_xor(hi1, l1, out=a)
        np.bitwise_xor(a, ka, out=a)
        np.bitwise_xor(hi0, l0, out=b)
        np.bitwise_xor(b, kb, out=b)
        x0, x1, l0, l1 = a, b, lo0, lo1
    if out is None:
        out = np.empty(shape + (4,), dtype=np.uint32)
    w0, w1, w2, w3 = np.moveaxis(out, -1, 0)
    np.bitwise_xor(hi1, l1, out=w0)
    np.bitwise_xor(w0, ka, out=w0)
    np.copyto(w1, lo1)
    np.bitwise_xor(hi0, l0, out=w2)
    np.bitwise_xor(w2, kb, out=w2)
    np.copyto(w3, lo0)
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


def _fast_path(words: np.ndarray, out: np.ndarray, low: np.ndarray,
               refused: np.ndarray) -> np.ndarray:
    """Writes the fast-path normal of each word into `out` and returns
    `refused`, the mask of the words outside their layer's inner rectangle.
    `low` (intp) receives the low 9 bits of each word and `words` keeps
    only its magnitude; `out` holds each word's threshold on the way."""
    np.bitwise_and(words, 0x1FF, out=low)
    np.right_shift(words, 9, out=words)
    np.take(_ACCEPT, low, out=out, mode="clip")
    np.greater_equal(words, out, out=refused)
    np.take(_WIDTH, low, out=out, mode="clip")
    np.multiply(words, out, out=out)
    return refused


def _unit(words: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1), (word + 1/2) 2^-32."""
    return (words + 0.5) * 2.0 ** -32


def _slow_path(seed: int, s_lo: np.ndarray, s_hi: np.ndarray,
               step: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The normals of the refused `words` at `step` of the streams with the
    low and high words (s_lo, s_hi), each from its own counters (step,
    stream, attempt) for attempt = 1, 2, ..."""
    value = np.empty(words.size)
    todo = np.arange(words.size)
    attempt = 0
    while todo.size:
        attempt += 1
        w = philox(step[todo], s_lo[todo], s_hi[todo], attempt, seed)
        z = words[todo]
        layer = z & 0xFF
        u = _unit(w[:, 1])
        # the wedge test: a uniform height in the layer, under f(x)
        x = (z >> 9) * _WIDTH[layer]
        done = _LOWER[layer] + u * _RISE[layer] < np.exp(-0.5 * x * x)
        # the tail test (Marsaglia 1964) on the words of the base layer
        tail = np.flatnonzero(layer == 0)
        xx = -np.log(u[tail]) / _R
        x[tail] = _R + xx
        done[tail] = -2.0 * np.log(_unit(w[tail, 2])) > xx * xx
        value[todo[done]] = np.where(z[done] & 0x100, -x[done], x[done])
        # a word the wedge refused gives way to word 0 of the attempt,
        # which takes the fast path first; a tail draw keeps its word
        fresh = np.flatnonzero(~done & (layer != 0))
        z, x = w[fresh, 0], np.empty(fresh.size)
        words[todo[fresh]] = z
        ok = ~_fast_path(z, x, np.empty(fresh.size, dtype=np.intp),
                         np.empty(fresh.size, dtype=bool))
        value[todo[fresh[ok]]] = x[ok]
        done[fresh[ok]] = True
        todo = todo[~done]
    return value


def _stream_words(stream: int, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The low and high words of the streams stream ... stream + n_rows - 1
    (mod 2^64), as (n_rows, 1) uint32 columns."""
    s = np.arange(n_rows, dtype=np.uint64) + np.uint64(stream & _MASK64)
    return _halves(s[:, None])


def normals(seed: int, stream: int, n_rows: int, n_cols: int) -> np.ndarray:
    """Standard normals, row i the first n_cols normals of the stream
    stream + i under the key `seed`: every word takes the fast path, and
    the words it refuses then retry together."""
    out = np.empty((n_rows, n_cols))
    if out.size == 0:
        return out
    s_lo, s_hi = _stream_words(stream, n_rows)
    at, words = _fast_rows(seed, s_lo, s_hi, out)
    i, j = np.divmod(at, n_cols)
    out.reshape(-1)[at] = _slow_path(seed, s_lo[i, 0], s_hi[i, 0],
                                     j.astype(np.uint32), words)
    return out


def _fast_rows(seed: int, s_lo: np.ndarray, s_hi: np.ndarray,
               out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fills `out` with the fast-path normals of the streams with the low
    and high words (s_lo, s_hi), one (n_rows, 1) column each, in chunks of
    about _CHUNK counters through one set of scratch arrays, and returns
    the flat indices and the words of the draws it refused."""
    n_rows, n_cols = out.shape
    quads = -(-n_cols // 4)
    rows = max(1, _CHUNK // quads)
    words = np.empty((rows, quads, 4), dtype=np.uint32)
    pair, products = _philox_work((rows, quads))
    # once a chunk's words are drawn, its products hold their low 9 bits
    low = products.reshape(-1)[:rows * n_cols].view(np.intp)
    low = low.reshape(rows, n_cols)
    refused = np.empty((rows, n_cols), dtype=bool)
    quad = np.arange(quads, dtype=np.uint32)
    refused_at, refused_words = [], []
    for first in range(0, n_rows, rows):
        m = min(rows, n_rows - first)
        w = philox(quad, s_lo[first:first + m], s_hi[first:first + m], 0, seed,
                   out=words[:m], work=(pair[:, :m], products[:, :, :m]))
        w = w.reshape(m, 4 * quads)[:, :n_cols]
        r = _fast_path(w, out[first:first + m], low[:m], refused[:m])
        at = np.flatnonzero(r)
        refused_at.append(at + first * n_cols)
        refused_words.append(
            (w[r] << 9) | low[:m].reshape(-1)[at].astype(np.uint32))
    return np.concatenate(refused_at), np.concatenate(refused_words)


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
    words = philox(quads, s_lo, s_hi, _UNIFORM, seed)
    return _unit(words.reshape(n_rows, 4 * quads.size)[:, :n_cols])


def uniform_levels(seed: int, control_id: int, n_steps: int,
                   low: float, high: float) -> np.ndarray:
    """Per-step uniform draws in (low, high) for one control."""
    u = uniforms(seed, CONTROL_SPACE + control_id, 1, n_steps)[0]
    return low + (high - low) * u
