"""Self-contained deterministic random generator.

A splitmix64 stream feeds uniforms and Box-Muller normals.  Keeping the
generator in-package pins the sample streams across platforms and library
versions, which the byte-identical-output guarantees rely on.

``normals(n)`` draws a batch bit for bit equal to ``n`` calls of
``normal()``.  It does the integer steps in numpy ``uint64``, whose
arithmetic wraps mod 2**64 as the scalar code's masking does, and the
uniform scaling, the square root and the products in float64; all of
these are exact or correctly rounded.  The transcendentals (``log``,
``sin``, ``cos``) stay ``math.*`` calls on each value: numpy's vectorised
versions may differ in the last bit from platform to platform.

The stream is counter-based: the k-th draw after a state is a function of
``state + k * golden`` alone.  So pair p of ``normals()`` on a stream with
no spare pending, made from draws 2p + 1 and 2p + 2, can be drawn without
the pairs before it.  ``_normal_pairs`` draws any pairs of any streams at
once this way, and ``normals()`` is its call on pairs 0, 1, 2, ...
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNIT = 1.0 / (1 << 53)


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK
        self._spare_normal = None

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform in (0, 1); never returns exactly 0, so it is log-safe."""
        return (self.next_u64() >> 11) * _UNIT or 5e-324

    def normal(self) -> float:
        """Standard normal via Box-Muller, caching the second deviate."""
        if self._spare_normal is not None:
            value, self._spare_normal = self._spare_normal, None
            return value
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int) -> np.ndarray:
        """The next ``n`` normals as a float64 array, equal to ``n`` calls
        of ``normal()``, cached spare included."""
        out = np.empty(n)
        start = 0
        if n and self._spare_normal is not None:
            out[0], self._spare_normal = self._spare_normal, None
            start = 1
        pairs = (n - start + 1) // 2
        draws = np.arange(1, 2 * pairs + 1, dtype=np.uint64).reshape(pairs, 2)
        flat = _normal_pairs(np.uint64(self.state), draws).reshape(-1)
        self.state = (self.state + _GOLDEN * 2 * pairs) & _MASK
        out[start:] = flat[:n - start]
        if len(flat) > n - start:
            self._spare_normal = float(flat[-1])
        return out

    def fork(self, tag: int) -> "SplitMix64":
        """Independent child stream, decorrelated from the parent."""
        return SplitMix64(self.next_u64() ^ (tag * 0xD1B54A32D192ED03))


def _mapped(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of each of ``values``, one Python float at a time."""
    return np.fromiter(map(fn, values.tolist()), np.float64, len(values))


def _normal_pairs(states, draws: np.ndarray) -> np.ndarray:
    """Box-Muller pairs drawn at counter positions: row i of the (m, 2)
    uint64 ``draws`` holds the positions of two uniforms after the uint64
    state ``states[i]`` (1 is the next draw; ``states`` is an (m, 1) array,
    or a scalar that serves every row), and row i of the result is the
    cosine and the sine deviate made from them.  Pair p of ``normals()`` on
    a stream with no spare pending is the pair at draws (2p + 1, 2p + 2),
    and no other draw is made."""
    steps = draws * np.uint64(_GOLDEN)
    z = steps + states
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)).astype(np.float64) * _UNIT
    u[u == 0.0] = 5e-324
    r = np.sqrt(-2.0 * _mapped(math.log, u[:, 0]))
    theta = (2.0 * math.pi) * u[:, 1]
    both = np.empty((len(u), 2))
    np.multiply(r, _mapped(math.cos, theta), out=both[:, 0])
    np.multiply(r, _mapped(math.sin, theta), out=both[:, 1])
    return both
