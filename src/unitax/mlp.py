"""Small fully-connected ReLU network with manual backprop and Adam."""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np

from .errors import ValidationError, require_field
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


def _layout(sizes):
    """One float64 vector for a network of widths ``sizes``, and its views:
    every layer's (fan_in, fan_out) weights in turn, then every layer's
    biases.  The vector is not initialised."""
    layers = range(len(sizes) - 1)
    flat = np.empty(sum([sizes[i] * sizes[i + 1] + sizes[i + 1] for i in layers]))
    weights, biases, at = [], [], 0
    for i in layers:
        weights.append(flat[at:at + sizes[i] * sizes[i + 1]].reshape(sizes[i], sizes[i + 1]))
        at += sizes[i] * sizes[i + 1]
    for fan_out in sizes[1:]:
        biases.append(flat[at:at + fan_out])
        at += fan_out
    return flat, weights, biases


class MlpModel:
    """A ReLU network of the layer widths ``sizes``, [2, *training.HIDDEN, K] in train().

    All parameters live in one float64 vector, ``params``: every layer's
    weights in turn, then every layer's biases, the order of parameters().
    ``weights`` and ``biases`` are views of it, so Adam steps the vector
    and the layers see the step.
    """

    def __init__(self, sizes, rng: SplitMix64):
        self.sizes = list(sizes)
        self.params, self.weights, self.biases = _layout(self.sizes)
        for w, b, fan_in in zip(self.weights, self.biases, self.sizes):
            np.multiply(np.sqrt(2.0 / fan_in), rng.normals(w.size).reshape(w.shape), out=w)
            b.fill(0.0)

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
        only the logits stay.  Returns (weight grads, bias grads), the views
        of its gradient vector ``grad``, overwritten by the next backward()
        on it.
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
    def from_dict(cls, data) -> "MlpModel":
        """Read the ``model`` section to_dict writes.

        Raises ValidationError naming the first missing or mistyped field
        of ``model``: its sizes, then its weights and biases, then their
        layer counts, shapes and values, which must be finite numbers, not
        true or false.  Only then is ``params`` allocated and filled, layer
        by layer, so that no size asks for more memory than the layers in
        the file hold.
        """
        sizes = require_field(data, "sizes", list, "model.")
        layers = {key: require_field(data, key, list, "model.") for key in ("weights", "biases")}
        if len(sizes) < 2 or not all(type(n) is int and n > 0 for n in sizes):
            raise ValidationError("field 'model.sizes' must list at least two positive integers")
        if sizes[0] != 2:
            raise ValidationError("field 'model.sizes' must start with the input width 2")
        arrays = []
        for key, values in layers.items():
            if len(values) != len(sizes) - 1:
                raise ValidationError(f"field 'model.{key}' needs {len(sizes) - 1} layers "
                                      f"for sizes {sizes}, not {len(values)}")
            for i, value in enumerate(values):
                shape = (sizes[i], sizes[i + 1]) if key == "weights" else (sizes[i + 1],)
                try:
                    array = np.asarray(value)
                except ValueError:  # ragged nesting
                    array = None
                if array is None or array.dtype.kind not in "fi" or array.shape != shape:
                    raise ValidationError(f"field 'model.{key}[{i}]' must hold numbers "
                                          f"of shape {shape} for sizes {sizes}")
                # numpy reads true and false as 1 and 0, so only a layer that
                # holds a 1 or a 0 can hold one; only such a layer is scanned
                if (((array == 0) | (array == 1)).any()
                        and any(bool in map(type, row) for row in
                                (value if array.ndim == 2 else [value]))):
                    raise ValidationError(f"field 'model.{key}[{i}]' holds true or false, "
                                          f"not a number")
                if not np.all(np.isfinite(array)):
                    raise ValidationError(f"field 'model.{key}[{i}]' holds a non-finite value")
                arrays.append(array.reshape(-1))
        model = cls.__new__(cls)
        model.sizes = list(sizes)
        model.params, model.weights, model.biases = _layout(model.sizes)
        np.concatenate(arrays, out=model.params)
        return model


class Adam:
    """Adam(params, lr): full-batch Adam with the fixed learning rate
    ``lr``, stepping the parameter vector ``params`` in place.

    The moments live in one vector each, the length of ``params``, so a
    step is a few operations on whole vectors.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.m, self.v, self.update = (np.zeros_like(params) for _ in range(3))

    def step(self, grad):
        """One update of ``params`` by the gradient vector ``grad`` of the
        same layout, in place.

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
        g, m, v, u = grad, self.m, self.v, self.update
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
        self.params -= u


class Workspace:
    """What forward() writes (x, acts) and backward() writes (masks, deltas
    over acts, grad), for ``rows`` inputs to a network of widths ``sizes``.

    ``grad`` is one vector in the layout of MlpModel.params; ``grads_w``
    and ``grads_b`` are its views per layer.
    """

    def __init__(self, sizes, rows):
        self.acts = [np.empty((rows, out)) for out in sizes[1:]]
        self.masks = [np.empty((rows, out), dtype=bool) for out in sizes[1:-1]]
        self.grad, self.grads_w, self.grads_b = _layout(sizes)
        self.ones = np.empty(rows)
        self.ones.fill(1.0)  # half the time of np.ones
