"""Small fully-connected ReLU network with manual backprop and Adam."""

from __future__ import annotations

import numpy as np

from .rng import SplitMix64

ROWS = 512  # forward()'s block: a 64-wide activation of 512 rows is 256 KB


class MlpModel:
    """Two hidden ReLU layers: sizes [2, 64, 64, K] by default."""

    def __init__(self, sizes, rng: SplitMix64):
        self.sizes = list(sizes)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            w = rng.normals(fan_in * fan_out)
            self.weights.append(scale * w.reshape(fan_in, fan_out))
            self.biases.append(np.zeros(fan_out, dtype=np.float64))

    def parameters(self):
        return self.weights + self.biases

    def forward(self, x: np.ndarray, cache: list = None) -> np.ndarray:
        """Logits for inputs of shape (N, in_dim).

        The rows go through all layers in near-equal blocks of at most
        ``ROWS``, with the bits of a whole-batch pass.  A block's activations
        stay in L2, and an uncached call holds one block's beside its (N, K)
        result: a 1000 x 1000 surface peaks at 240-280 MB by mode, not 1 GB.

        When ``cache`` is given, forward() keeps in it what backward() needs:
        the input, each hidden layer's post-ReLU activation and ReLU mask,
        and room for the deltas and parameter gradients.  A cache that
        already holds these buffers for as many rows is refilled in place,
        so a training loop that hands one cache to every epoch allocates no
        batch-sized array after the first; the returned logits then live in
        the cache until the next call.  A fresh cache gets fresh arrays, and
        without a cache no mask is kept.
        """
        x = np.asarray(x, dtype=np.float64)
        work = None if cache is None else _Buffers.of(cache, self.sizes, x)
        last = len(self.weights) - 1
        result = None if work is None else work.acts[last]
        # equal blocks, as numpy sends a one-row product to gemv, which rounds
        # unlike gemm; zero rows still make one empty block
        blocks = max(1, -(-len(x) // ROWS))
        for j in range(blocks):
            rows = slice(j * len(x) // blocks, (j + 1) * len(x) // blocks)
            h = x[rows]
            for i, (w, b) in enumerate(zip(self.weights, self.biases)):
                if work is not None:
                    out = work.acts[i][rows]
                elif i < last:
                    out = np.empty((len(h), w.shape[1]))
                else:
                    result = np.empty((len(x), w.shape[1])) if result is None else result
                    out = result[rows]
                np.matmul(h, w, out=out)
                out += b
                if i < last:
                    if work is not None:
                        np.greater(out, 0.0, out=work.masks[i][rows])
                    np.maximum(out, 0.0, out=out)
                h = out
        return result

    def backward(self, cache: list, grad_logits: np.ndarray):
        """Parameter gradients given upstream dL/dlogits.

        ``cache`` is the list forward() filled.  Returns (weight grads, bias
        grads); they are buffers of the cache, overwritten by the next
        backward() on it.
        """
        work = cache[0]
        delta = np.asarray(grad_logits, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            a = work.x if i == 0 else work.acts[i - 1]
            np.matmul(a.T, delta, out=work.grads_w[i])
            np.matmul(work.ones, delta, out=work.grads_b[i])
            if i > 0:
                np.matmul(delta, self.weights[i].T, out=work.deltas[i - 1])
                delta = work.deltas[i - 1]
                np.multiply(delta, work.masks[i - 1], out=delta)
        return list(work.grads_w), list(work.grads_b)

    def to_dict(self) -> dict:
        return {
            "sizes": self.sizes,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MlpModel":
        model = cls.__new__(cls)
        model.sizes = list(data["sizes"])
        model.weights = [np.asarray(w, dtype=np.float64) for w in data["weights"]]
        model.biases = [np.asarray(b, dtype=np.float64) for b in data["biases"]]
        return model


class Adam:
    """Full-batch Adam with fixed learning rate.

    The moments of all parameters live in one flat vector each, so a step
    is a few operations on whole vectors.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr=1e-3):
        self.params = params
        self.lr = lr
        sizes = [p.size for p in params]
        self.m = np.zeros(sum(sizes))
        self.v = np.zeros(sum(sizes))
        self.grad = np.empty(sum(sizes))
        self.update = np.empty(sum(sizes))
        parts = np.split(self.update, np.cumsum(sizes)[:-1])
        self.updates = [part.reshape(p.shape) for part, p in zip(parts, params)]
        self.t = 0

    def step(self, grads):
        """One update, in place.

        The bias corrections c1 = 1 - beta1**t and c2 = 1 - beta2**t are
        folded into the step size and into eps:
        lr * (m / c1) / (sqrt(v / c2) + eps) equals
        (lr * sqrt(c2) / c1) * m / (sqrt(v) + eps * sqrt(c2)).
        """
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        root_c2 = np.sqrt(1 - b2 ** self.t)
        step = self.lr * root_c2 / (1 - b1 ** self.t)
        eps = self.EPS * root_c2
        g, m, v, u = self.grad, self.m, self.v, self.update
        np.concatenate([grad.reshape(-1) for grad in grads], out=g)
        m *= b1
        np.multiply(g, 1 - b1, out=u)
        m += u
        v *= b2
        np.multiply(g, 1 - b2, out=u)
        u *= g
        v += u
        np.sqrt(v, out=u)
        u += eps
        np.divide(m, u, out=u)
        u *= step
        for p, update in zip(self.params, self.updates):
            p -= update


class _Buffers:
    """The arrays one forward() and backward() pair writes, for ``rows``
    inputs to a network of layer widths ``sizes``."""

    def __init__(self, sizes, rows):
        layers = list(zip(sizes, sizes[1:]))
        self.rows = rows
        self.x = None
        self.acts = [np.empty((rows, out)) for _, out in layers]
        self.masks = [np.empty((rows, out), dtype=bool) for _, out in layers[:-1]]
        self.deltas = [np.empty((rows, out)) for _, out in layers[:-1]]
        self.grads_w = [np.empty((fan_in, out)) for fan_in, out in layers]
        self.grads_b = [np.empty(out) for _, out in layers]
        self.ones = np.ones(rows)

    @classmethod
    def of(cls, cache: list, sizes, x: np.ndarray) -> "_Buffers":
        """The buffers held by ``cache`` for input ``x``; a cache that is
        empty or sized for another batch gets new ones."""
        if not cache or cache[0].rows != len(x):
            cache[:] = [cls(sizes, len(x))]
        cache[0].x = x
        return cache[0]
