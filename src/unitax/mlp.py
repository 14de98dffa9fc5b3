"""Small fully-connected ReLU network with manual backprop and Adam."""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np

from .rng import SplitMix64

ROWS = 512  # forward()'s block: a 64-wide activation of 512 rows is 256 KB


def row_blocks(n: int) -> list:
    """The row blocks forward() runs a batch of ``n`` rows in: near-equal
    slices of at most ``ROWS`` rows, in order, the last one the largest.

    The blocks are equal, as numpy sends a one-row product to gemv, which
    rounds unlike gemm; zero rows still make one empty block.
    """
    blocks = max(1, -(-n // ROWS))
    return [slice(j * n // blocks, (j + 1) * n // blocks) for j in range(blocks)]


@functools.cache
def blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None on
    a numpy build that exports no such calls."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one BLAS thread and restore the count after it.

    backward()'s weight gradient ``a.T @ delta`` reduces over the rows, and
    OpenBLAS splits that sum across its threads, so its bits would depend on
    the thread count.  On a numpy build without blas_threads() this does
    nothing.
    """
    calls = blas_threads()
    before = calls[0]() if calls else 1
    if before != 1:
        calls[1](1)
    try:
        yield
    finally:
        if before != 1:
            calls[1](before)


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

    def forward(self, x: np.ndarray, work: Workspace = None) -> np.ndarray:
        """Logits for inputs of shape (N, in_dim).

        The rows go through all layers in the blocks of ``row_blocks(N)``.
        A block's activations stay in L2, and an uncached call holds one
        block's beside its (N, K) result.  An uncached call allocates each
        hidden layer's block buffer once and writes every block into a view
        of it, so a 200 x 200 surface maps two 256 KB buffers, not 158.

        A block's logits depend only on its rows, so calling forward() on
        each block of ``row_blocks(N)`` in turn gives the bits of one call
        on all N rows, on every OpenBLAS kernel.  On SkylakeX and
        Sandybridge they are also the bits of a whole-batch pass; on
        Haswell and Nehalem the 64 x 64 hidden product rounds a row by how
        many rows share the product, so there they are not.

        Given a Workspace of at least N rows, forward() fills its
        activations in place, and the returned logits, its first N rows,
        live in it until the next call.  backward() needs one of exactly N.
        """
        x = np.asarray(x, dtype=np.float64)
        last = len(self.weights) - 1
        blocks = row_blocks(len(x))
        if work is None:
            block = blocks[-1].stop - blocks[-1].start
            acts = [np.empty((block, w.shape[1])) for w in self.weights[:last]]
            acts.append(np.empty((len(x), self.sizes[-1])))
        else:
            work.x = x
            acts = work.acts
        for rows in blocks:
            h = x[rows]
            for i, (w, b) in enumerate(zip(self.weights, self.biases)):
                out = acts[i][:len(h)] if work is None and i < last else acts[i][rows]
                np.matmul(h, w, out=out)
                out += b
                if i < last:
                    np.maximum(out, 0.0, out=out)
                h = out
        return acts[-1][:len(x)]

    def backward(self, work: Workspace, grad_logits: np.ndarray):
        """Parameter gradients given upstream dL/dlogits.

        ``work`` is the Workspace forward() filled; backward() writes the ReLU
        gates into its masks and the deltas over its hidden activations, so
        only the logits stay.  Returns (weight grads, bias grads); they are
        its buffers, overwritten by the next backward() on it.
        """
        delta = np.asarray(grad_logits, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            a = work.x if i == 0 else work.acts[i - 1]
            np.matmul(a.T, delta, out=work.grads_w[i])
            np.matmul(work.ones, delta, out=work.grads_b[i])
            if i > 0:
                # the gate: a > 0 after the ReLU iff before; then a takes the delta
                np.greater(a, 0.0, out=work.masks[i - 1])
                np.matmul(delta, self.weights[i].T, out=a)
                np.multiply(a, work.masks[i - 1], out=a)
                delta = a
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


class Workspace:
    """What forward() writes (x, acts) and backward() writes (masks, deltas
    over acts, grads), for ``rows`` inputs to a network of widths ``sizes``."""

    def __init__(self, sizes, rows):
        layers = list(zip(sizes, sizes[1:]))
        self.x = None
        self.acts = [np.empty((rows, out)) for _, out in layers]
        self.masks = [np.empty((rows, out), dtype=bool) for _, out in layers[:-1]]
        self.grads_w = [np.empty((fan_in, out)) for fan_in, out in layers]
        self.grads_b = [np.empty(out) for _, out in layers]
        self.ones = np.ones(rows)
