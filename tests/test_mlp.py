import tracemalloc

import numpy as np
import pytest

from unitax import mlp
from unitax.mlp import ROWS, Adam, MlpModel, Workspace
from unitax.rng import SplitMix64

from openblas_kernels import KERNELS, run_on_kernel, runtime_kernel


def tiny_model(seed=0, sizes=(2, 4, 3, 2)):
    return MlpModel(list(sizes), SplitMix64(seed))


def test_zero_parameters_give_zero_logits():
    model = tiny_model()
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    x = np.random.default_rng(0).normal(size=(5, 2))
    assert np.all(model.forward(x) == 0.0)


def test_output_width_matches_last_layer():
    model = tiny_model(sizes=(2, 8, 8, 7))
    out = model.forward(np.zeros((3, 2)))
    assert out.shape == (3, 7)


def test_same_seed_same_init():
    a, b = tiny_model(3), tiny_model(3)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_parameter_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    model = tiny_model(5)
    x = rng.normal(size=(6, 2))
    target = rng.normal(size=(6, 2))

    def loss_value():
        out = model.forward(x)
        return 0.5 * float(np.sum((out - target) ** 2))

    work = Workspace(model.sizes, len(x))
    out = model.forward(x, work)
    grads_w, grads_b = model.backward(work, out - target)

    step = 1e-6
    params = model.weights + model.biases
    grads = grads_w + grads_b
    for p, g in zip(params, grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            keep = flat_p[i]
            flat_p[i] = keep + step
            up = loss_value()
            flat_p[i] = keep - step
            down = loss_value()
            flat_p[i] = keep
            fd = (up - down) / (2 * step)
            assert abs(flat_g[i] - fd) / max(abs(fd), 1e-6) < 1e-4


def test_serialization_round_trip():
    model = tiny_model(8)
    clone = MlpModel.from_dict(model.to_dict())
    x = np.random.default_rng(2).normal(size=(4, 2))
    assert np.array_equal(model.forward(x), clone.forward(x))


def test_adam_reduces_quadratic_loss():
    rng = SplitMix64(0)
    model = tiny_model(9)
    x = np.random.default_rng(3).normal(size=(32, 2))
    target = np.random.default_rng(4).normal(size=(32, 2))
    opt = Adam(model.params, lr=1e-2)
    first = None
    for _ in range(200):
        work = Workspace(model.sizes, len(x))
        out = model.forward(x, work)
        loss = 0.5 * float(np.mean((out - target) ** 2))
        if first is None:
            first = loss
        model.backward(work, (out - target) / len(x))
        opt.step(work.grad)
    assert loss < first * 0.5


class PerArrayAdam:
    """Adam over a list of parameter arrays: the gradients are concatenated
    into one vector, stepped, and the update split back per array."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        size = sum(p.size for p in params)
        self.m, self.v = np.zeros(size), np.zeros(size)

    def step(self, grads):
        self.t += 1
        b1, b2 = Adam.BETA1, Adam.BETA2
        root_c2 = np.sqrt(1 - b2 ** self.t)
        step = self.lr * root_c2 / (1 - b1 ** self.t)
        g = np.concatenate([grad.reshape(-1) for grad in grads])
        self.m = self.m * b1 + g * (1 - b1)
        self.v = self.v * b2 + (g * (1 - b2)) * g
        update = self.m / (np.sqrt(self.v) + Adam.EPS * root_c2) * step
        parts = np.split(update, np.cumsum([p.size for p in self.params])[:-1])
        for p, part in zip(self.params, parts):
            p -= part.reshape(p.shape)


def test_adam_vector_step_equals_a_per_array_step_bit_for_bit():
    sizes = (2, 8, 8, 5)
    model, reference = tiny_model(12, sizes), tiny_model(12, sizes)
    per_array = [p.copy() for p in reference.parameters()]
    rng = np.random.default_rng(10)
    x = rng.normal(scale=3.0, size=(40, 2))
    target = rng.normal(size=(40, 5))
    opt, ref = Adam(model.params, lr=3e-2), PerArrayAdam(per_array, lr=3e-2)
    work = Workspace(model.sizes, len(x))
    for _ in range(25):
        reference.params[...] = np.concatenate([p.reshape(-1) for p in per_array])
        ref_work = Workspace(reference.sizes, len(x))
        grads_w, grads_b = reference.backward(ref_work, reference.forward(x, ref_work) - target)
        ref.step([g.copy() for g in grads_w + grads_b])
        model.backward(work, model.forward(x, work) - target)
        opt.step(work.grad)
        assert all(p.tobytes() == q.tobytes() for p, q in zip(model.parameters(), per_array))
    assert opt.t == 25 and not np.array_equal(model.params, tiny_model(12, sizes).params)


def test_parameters_and_gradients_are_views_of_one_vector():
    model = tiny_model(13, (2, 6, 5, 3))
    sizes = [(2, 6), (6, 5), (5, 3)]
    assert model.params.shape == (2 * 6 + 6 * 5 + 5 * 3 + 6 + 5 + 3,)
    for loaded in (model, MlpModel.from_dict(model.to_dict())):
        assert loaded.params.tobytes() == model.params.tobytes()
        views = loaded.parameters()
        assert [v.shape for v in views] == sizes + [(6,), (5,), (3,)]
        assert all(v.base is loaded.params for v in views)
        # every weight in turn, then every bias: the order of parameters()
        assert np.concatenate([v.reshape(-1) for v in views]).tobytes() == \
            loaded.params.tobytes()
    work = Workspace(model.sizes, 7)
    grads_w, grads_b = model.backward(work, model.forward(np.ones((7, 2)), work))
    assert work.grad.shape == model.params.shape
    for got, views in ((grads_w, work.grads_w), (grads_b, work.grads_b)):
        assert all(g is v and v.base is work.grad for g, v in zip(got, views))
    assert np.concatenate([g.reshape(-1) for g in grads_w + grads_b]).tobytes() == \
        work.grad.tobytes()


def test_backward_of_separate_caches_do_not_alias():
    model = tiny_model(10)
    rng = np.random.default_rng(5)
    x1, x2 = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    first_work, second_work = Workspace(model.sizes, 6), Workspace(model.sizes, 6)
    out1 = model.forward(x1, first_work)
    first = model.backward(first_work, out1)
    kept = [g.copy() for g in first[0] + first[1]]
    out2 = model.forward(x2, second_work)
    second = model.backward(second_work, out2 * 3.0)
    assert not np.shares_memory(out1, out2)
    for a in first[0] + first[1]:
        for b in second[0] + second[1]:
            assert not np.shares_memory(a, b)
    for g, k in zip(first[0] + first[1], kept):
        assert np.array_equal(g, k)


def test_reused_cache_matches_fresh_caches_bit_for_bit():
    # training hands one workspace to every epoch; the results must equal those
    # of a fresh workspace per call, and of forward() without one
    model = tiny_model(11, sizes=(2, 8, 8, 3))
    rng = np.random.default_rng(6)
    x = rng.normal(size=(9, 2))
    reused = Workspace(model.sizes, len(x))
    for _ in range(3):
        grad_logits = rng.normal(size=(9, 3))
        out = model.forward(x, reused)
        got = model.backward(reused, grad_logits)
        fresh = Workspace(model.sizes, len(x))
        expected_out = model.forward(x, fresh)
        expected = model.backward(fresh, grad_logits)
        assert np.array_equal(out, expected_out)
        assert np.array_equal(out, model.forward(x))
        for a, b in zip(got[0] + got[1], expected[0] + expected[1]):
            assert np.array_equal(a, b)
        for w in model.weights:
            w *= 0.9


def test_init_weights_equal_scalar_draws():
    # the training sizes of a two-split universal model
    sizes = [2, 64, 64, 7]
    model = MlpModel(sizes, SplitMix64(5 ^ 0xA5A5A5A5A5A5A5A5))
    rng = SplitMix64(5 ^ 0xA5A5A5A5A5A5A5A5)
    for w, b, fan_in, fan_out in zip(model.weights, model.biases, sizes, sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        draws = [rng.normal() for _ in range(fan_in * fan_out)]
        assert w.tolist() == [[scale * z for z in draws[i * fan_out:(i + 1) * fan_out]]
                              for i in range(fan_in)]
        assert b.tolist() == [0.0] * fan_out


def whole_batch_forward(model, x):
    """The logits of one product, bias and ReLU per layer over all rows."""
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        out = np.matmul(h, w)
        out += b
        if i < last:
            out = np.maximum(out, 0.0)
        h = out
    return h


# the kernels whose 64 x 64 hidden product rounds a row by how many rows
# share the product, so that a blocked forward has no whole-batch bits
ROW_COUNT_KERNELS = ("Haswell", "Nehalem")


# output widths of the two-split universal, concat and heads spaces
@pytest.mark.parametrize("width", [13, 22, 24])
@pytest.mark.parametrize("rows", [0, 1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 24])
def test_blocked_forward_and_backward_equal_whole_batch_bit_for_bit(monkeypatch, rows, width):
    """Whole-batch bits, except on ROW_COUNT_KERNELS: there a batch has the
    bits of forward() on each of its row blocks in turn, and its forward
    and backward repeat bit for bit."""
    model = MlpModel([2, 64, 64, width], SplitMix64(width))
    rng = np.random.default_rng(rows)
    x = rng.normal(scale=3.0, size=(rows, 2))
    grad_logits = rng.normal(size=(rows, width))
    row_count_kernel = runtime_kernel() in ROW_COUNT_KERNELS
    if row_count_kernel:
        expected = np.vstack([model.forward(x[block]) for block in mlp.row_blocks(rows)])
    else:
        expected = whole_batch_forward(model, x)
    blocked = Workspace(model.sizes, rows)
    for got in (model.forward(x), model.forward(x, blocked)):
        assert got.shape == (rows, width) and got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
    got = model.backward(blocked, grad_logits)
    if row_count_kernel:
        again = Workspace(model.sizes, rows)
        assert model.forward(x, again).tobytes() == expected.tobytes()
        want = model.backward(again, grad_logits)
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            assert a.tobytes() == b.tobytes()
        return

    # with one block for any batch, forward fills the workspace whole-batch
    monkeypatch.setattr(mlp, "ROWS", 10**9)
    whole = Workspace(model.sizes, rows)
    assert model.forward(x, whole).tobytes() == expected.tobytes()
    want = model.backward(whole, grad_logits)
    for a, b in zip(got[0] + got[1], want[0] + want[1]):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kernel", KERNELS)
def test_blocked_forward_and_backward_hold_on_every_openblas_kernel(kernel):
    test = f"{__file__}::test_blocked_forward_and_backward_equal_whole_batch_bit_for_bit"
    done = run_on_kernel(kernel, f"import pytest\nraise SystemExit(pytest.main("
                                 f"[{test!r}, '-q', '-p', 'no:cacheprovider']))\n")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "18 passed" in done.stdout, done.stdout


@pytest.mark.parametrize("rows", [0, 1, ROWS, ROWS + 1, 3 * ROWS + 24, 26_000])
def test_row_blocks_cover_the_rows_in_near_equal_blocks(rows):
    blocks = mlp.row_blocks(rows)
    sizes = [b.stop - b.start for b in blocks]
    assert len(blocks) == max(1, -(-rows // ROWS))
    assert blocks[0].start == 0 and blocks[-1].stop == rows
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert sizes[-1] == max(sizes) <= ROWS and max(sizes) - min(sizes) <= 1


def test_forward_fills_the_first_rows_of_a_larger_workspace():
    # the argmax callers reuse one block's workspace for every block
    model = MlpModel([2, 64, 64, 13], SplitMix64(2))
    x = np.random.default_rng(9).normal(scale=3.0, size=(300, 2))
    work = Workspace(model.sizes, ROWS)
    got = model.forward(x, work)
    assert got.shape == (300, 13) and np.shares_memory(got, work.acts[-1])
    assert got.tobytes() == model.forward(x).tobytes()


def test_uncached_forward_holds_one_block_beside_its_result():
    model = MlpModel([2, 64, 64, 13], SplitMix64(3))
    x = np.random.default_rng(7).normal(size=(100_000, 2))
    tracemalloc.start()
    try:
        logits = model.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert logits.shape == (100_000, 13)
    assert peak < logits.nbytes + 2**20


def test_backward_takes_its_own_relu_gates():
    # backward() must not read masks left in the workspace by anything before it
    model = MlpModel([2, 16, 16, 5], SplitMix64(4))
    rng = np.random.default_rng(8)
    x = rng.normal(scale=3.0, size=(700, 2))
    grad_logits = rng.normal(size=(700, 5))
    clean = Workspace(model.sizes, len(x))
    model.forward(x, clean)
    want = model.backward(clean, grad_logits)
    stale = Workspace(model.sizes, len(x))
    model.forward(x, stale)
    for mask in stale.masks:
        mask[:] = True
    got = model.backward(stale, grad_logits)
    for a, b in zip(got[0] + got[1], want[0] + want[1]):
        assert a.tobytes() == b.tobytes()
