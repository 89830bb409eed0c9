"""Deterministic splittable random streams and heavy-tailed variate generation.

Every law here is an explicit transform of uniforms, so each sampler doubles
as its own distributional oracle: the Frechet family inverts a closed-form
CDF, and the one-sided stable sampler realizes a known Laplace transform.

Streams are value-like handles (seed, stream_id).  Two handles with equal
fields always reproduce the same variate sequence, independent of process,
thread, or how many other streams were consumed in between.  That property
is what makes chunked and multiprocess sweeps bit-reproducible.

``RngStream.generator()`` defines a stream: a Philox generator keyed by
numpy's SeedSequence(entropy=seed, spawn_key=(stream_id,)), counter 0.  The
estimators draw whole blocks of streams at once with ``draw_block``, which
gives the same variates without building a SeedSequence or a Generator per
stream:

1. ``_philox_keys`` runs SeedSequence's hash mixing and ``generate_state(2,
   uint64)`` in numpy over all stream ids of the block.  The streams share
   their entropy words, so the pool mixing of the seed runs once per block,
   and only the one or two spawn-key words of each id are mixed per stream.
2. One Philox, reused for the whole block, is reset to each stream's key
   (counter 0, empty buffer) and draws that stream's uniforms straight into
   its row of the block, law after law, then its fair signs.
3. The Frechet transform runs once per block, in place.

The tests hold ``draw_block`` to ``generator()`` and the samplers bit for
bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence, Union

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Smallest uniform we ever feed into a log; avoids the measure-zero u == 0
# draw turning into a degenerate variate.
_U_FLOOR = 2.0 ** -64


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective scrambling of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Reproducible variate stream identified by (seed, stream_id).

    The handle itself holds no generator state.  ``generator()`` materializes
    a fresh counter-based generator positioned at the start of the stream, so
    consuming one generator never perturbs another handle.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed & _MASK64,
            spawn_key=(self.stream_id & _MASK64,),
        )
        return np.random.Generator(np.random.Philox(ss))


def split_stream(stream: RngStream, task_index: int) -> RngStream:
    """Derive the child stream for a task index.

    Children of one parent are pairwise distinct, and splitting is a pure
    function of (parent, task_index): the same split always returns the same
    child no matter what was sampled before.
    """
    if task_index < 0:
        raise ValueError("task_index must be nonnegative")
    child = _mix64(stream.stream_id ^ _mix64((task_index + 1) * _GOLDEN))
    return RngStream(seed=stream.seed, stream_id=child)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """_mix64 over a uint64 array (numpy's uint64 products wrap like the masks)."""
    z = z ^ (z >> 30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> 27
    z *= np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def split_ids(stream: RngStream, lo: int, hi: int) -> np.ndarray:
    """stream_id of split_stream(stream, i) for i in lo..hi-1, as a uint64 array."""
    if lo < 0:
        raise ValueError("task_index must be nonnegative")
    golden = _mix64_array(np.arange(lo + 1, hi + 1, dtype=np.uint64) * np.uint64(_GOLDEN))
    return _mix64_array(np.uint64(stream.stream_id & _MASK64) ^ golden)


# numpy's SeedSequence, as generator() builds it: a pool of four 32-bit words
# hashed from the entropy words, then from the spawn-key words, and read out
# by generate_state.
_M32 = 0xFFFFFFFF
_SS_POOL = 4
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715


def _ss_hash(words: np.ndarray, h: int, mult: int):
    """SeedSequence's hashmix of uint32 words under hash constant h; returns the next h."""
    h_next = (h * mult) & _M32
    words = (words ^ np.uint32(h)) * np.uint32(h_next)
    return words ^ (words >> np.uint32(16)), h_next


def _ss_mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def _philox_keys(seed: int, stream_ids) -> np.ndarray:
    """Philox keys of RngStream(seed, i).generator() for each i, as (streams, 2) uint64.

    stream_ids is a uint64 array or a sequence of ints; like generator(),
    every id and the seed are taken modulo 2**64.  The entropy words
    (the seed's two 32-bit words, zero-padded to the pool) are the same for
    every stream, so their mixing runs once; an id below 2**32 is one
    spawn-key word and any other id two.
    """
    ids = np.asarray(stream_ids)
    if ids.dtype != np.uint64:
        ids = np.array([int(i) & _MASK64 for i in stream_ids], dtype=np.uint64)
    e = seed & _MASK64
    entropy = np.array([[e & _M32], [e >> 32], [0], [0]], dtype=np.uint32)
    h = _SS_INIT_A
    pool = []
    for word in entropy:
        mixed, h = _ss_hash(word, h, _SS_MULT_A)
        pool.append(mixed)
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                mixed, h = _ss_hash(pool[src], h, _SS_MULT_A)
                pool[dst] = _ss_mix(pool[dst], mixed)
    low = (ids & np.uint64(_M32)).astype(np.uint32)
    high = (ids >> np.uint64(32)).astype(np.uint32)
    for dst in range(_SS_POOL):
        mixed, h = _ss_hash(low, h, _SS_MULT_A)
        pool[dst] = _ss_mix(pool[dst], mixed)
    two_words = high != 0
    for dst in range(_SS_POOL):
        mixed, h = _ss_hash(high, h, _SS_MULT_A)
        pool[dst] = np.where(two_words, _ss_mix(pool[dst], mixed), pool[dst])
    h = _SS_INIT_B
    state = []
    for word in pool:
        out, h = _ss_hash(word, h, _SS_MULT_B)
        state.append(out.astype(np.uint64))
    keys = np.empty((ids.size, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | (state[1] << np.uint64(32))
    keys[:, 1] = state[2] | (state[3] << np.uint64(32))
    return keys


class TailKind(Enum):
    BUMP_HEIGHT = "bump_height"
    GAP_LENGTH = "gap_length"


@dataclass(frozen=True)
class TailLaw:
    """Tail family for the structural randomness, indexed by alpha in (0,1).

    ``kind`` records which structural role the law plays: bump heights are
    squared Frechet variates (so their square roots are Frechet), gap lengths
    are plain Frechet variates.  This is the single knob a variant tail
    family would be swapped through.
    """

    alpha: float
    kind: TailKind

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if not isinstance(self.kind, TailKind):
            raise ValueError("kind must be a TailKind")


StreamLike = Union[RngStream, np.random.Generator]


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def _as_generator(stream: StreamLike) -> np.random.Generator:
    if isinstance(stream, np.random.Generator):
        return stream
    return stream.generator()


def _maybe_scalar(x: np.ndarray, size) -> Union[float, np.ndarray]:
    if size is None:
        return float(x)
    return x


def frechet_from_uniform(alpha: float, u) -> Union[float, np.ndarray]:
    """Inverse-CDF transform of uniforms: P(Z > z) = 1 - exp(-z**-alpha).

    Accepts scalars or arrays of uniforms in (0, 1).  Exposed separately from
    the samplers so the transform itself can be pinned against known values.
    A scalar goes through the same array power as an array element (numpy's
    scalar power can differ from it in the last bit), so a uniform gives the
    same bits either way.
    """
    _check_alpha(alpha)
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    arr = np.where(arr < _U_FLOOR, _U_FLOOR, arr)
    z = (-np.log(arr)) ** (-1.0 / alpha)
    if np.ndim(u) == 0:
        return float(z[0])
    return z


def sample_frechet(alpha: float, stream: StreamLike, size=None):
    """Frechet(alpha) variates: positive, infinite mean for alpha < 1."""
    gen = _as_generator(stream)
    return frechet_from_uniform(alpha, gen.random(size) if size is not None else gen.random())


def sample_bump_height(law: TailLaw, stream: StreamLike, size=None):
    """Bump heights X with sqrt(X) Frechet(alpha): P(X > x) = 1 - exp(-x**(-alpha/2))."""
    if law.kind is not TailKind.BUMP_HEIGHT:
        raise ValueError("law.kind must be BUMP_HEIGHT")
    z = sample_frechet(law.alpha, stream, size)
    return z * z if size is not None else float(z * z)


def sample_gap_length(law: TailLaw, stream: StreamLike, size=None):
    """Gap lengths Y, Frechet(alpha): P(Y > y) = 1 - exp(-y**-alpha)."""
    if law.kind is not TailKind.GAP_LENGTH:
        raise ValueError("law.kind must be GAP_LENGTH")
    return sample_frechet(law.alpha, stream, size)


def _frechet_in_place(alpha: float, u: np.ndarray) -> None:
    """frechet_from_uniform on a float array of uniforms, overwriting it."""
    np.maximum(u, _U_FLOOR, out=u)
    np.log(u, out=u)
    np.negative(u, out=u)
    np.power(u, -1.0 / alpha, out=u)


# Streams whose sign words draw_block holds at once before turning them into
# signs: one array call per group, and a buffer far smaller than the signs.
_SIGN_ROWS = 64


def draw_block(seed: int, stream_ids, n: int, laws: Sequence[TailLaw],
               signs: bool = False) -> List[np.ndarray]:
    """n variates of each law, then optionally n fair signs, for many streams at once.

    Row r of the returned arrays belongs to the stream RngStream(seed,
    stream_ids[r]).  Returns one (streams, n) float array per law, in order:
    row r of the k-th is what sample_bump_height or sample_gap_length(laws[k],
    gen, size=n) returns on that stream's generator() after the draws of
    laws[:k].  With signs, a last (streams, n) int64 array holds
    gen.integers(0, 2, size=n), drawn after all the laws.
    """
    keys = _philox_keys(seed, stream_ids)
    m = keys.shape[0]
    blocks = [np.empty((m, n)) for _ in laws]
    if signs:
        eps = np.empty((m, n), dtype=np.int64)
        # the raw words of up to _SIGN_ROWS streams at a time, stored
        # little-endian so that their 32-bit halves read low half first
        words = np.empty((min(m, _SIGN_ROWS), (n + 1) // 2), dtype="<u8")
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # the state generator() starts from, with this stream's key: counter 0,
    # buffer used up, no buffered 32-bit half
    key = [0, 0]
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for r, (k0, k1) in enumerate(keys.tolist()):
        key[0] = k0
        key[1] = k1
        bitgen.state = fresh
        for block in blocks:
            gen.random(out=block[r])
        if signs:
            i = r % _SIGN_ROWS
            words[i] = bitgen.random_raw(words.shape[1])
            if i == len(words) - 1 or r == m - 1:
                # gen.integers(0, 2, size=n) is the top bit of n 32-bit
                # halves of raw words, each word's low half first
                np.right_shift(words.view("<u4")[:i + 1, :n], 31, out=eps[r - i:r + 1])
    for law, block in zip(laws, blocks):
        _frechet_in_place(law.alpha, block)
        if law.kind is TailKind.BUMP_HEIGHT:
            np.multiply(block, block, out=block)
    if signs:
        blocks.append(eps)
    return blocks


def sample_stable_oracle(alpha: float, stream: StreamLike, size=None):
    """One-sided alpha-stable variates with E[exp(-s S)] = exp(-s**alpha).

    Kanter's construction: with U uniform on (0,1), W standard exponential,
    and theta = pi U,

        A(theta) = sin((1-alpha) theta) sin(alpha theta)^(alpha/(1-alpha))
                   / sin(theta)^(1/(1-alpha)),
        S = (A / W)^((1-alpha)/alpha).

    Used as the independent comparison law for nonlinear-scale limit checks.
    """
    _check_alpha(alpha)
    gen = _as_generator(stream)
    u = np.asarray(gen.random(size) if size is not None else gen.random(), dtype=float)
    w = np.asarray(
        gen.standard_exponential(size) if size is not None else gen.standard_exponential(),
        dtype=float,
    )
    u = np.where(u < _U_FLOOR, _U_FLOOR, u)
    w = np.where(w < _U_FLOOR, _U_FLOOR, w)
    theta = np.pi * u
    ratio = alpha / (1.0 - alpha)
    a = (
        np.sin((1.0 - alpha) * theta)
        * np.sin(alpha * theta) ** ratio
        / np.sin(theta) ** (1.0 + ratio)
    )
    s = (a / w) ** ((1.0 - alpha) / alpha)
    return _maybe_scalar(s, size)


def frechet_tail(alpha: float, z) -> Union[float, np.ndarray]:
    """Survival function P(Z > z) = 1 - exp(-z**-alpha) of the Frechet law."""
    _check_alpha(alpha)
    arr = np.asarray(z, dtype=float)
    out = -np.expm1(-arr ** (-alpha))
    if np.ndim(z) == 0:
        return float(out)
    return out


def frechet_cdf(alpha: float, z) -> Union[float, np.ndarray]:
    """CDF exp(-z**-alpha) of the Frechet law, 0 for z <= 0."""
    _check_alpha(alpha)
    arr = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.where(arr > 0.0, np.exp(-np.where(arr > 0.0, arr, 1.0) ** (-alpha)), 0.0)
    if np.ndim(z) == 0:
        return float(out)
    return out
