import numpy as np
import pytest

from minidet3d.errors import ShapeMismatch
from minidet3d.lora import LoRAAdapter, adapter_grads, adapter_init, merge_adapter
from oracles import apply_adapted


class TestAdapterInit:
    def test_zero_update_at_init(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(16, 16))
        a = adapter_init(16, 16, r=4, alpha=32.0, seed=1)
        x = rng.normal(size=16)
        # B = 0 makes the adapted forward bit-identical to the base forward
        assert np.array_equal(apply_adapted(w, a, x), w @ x)
        assert np.array_equal(merge_adapter(w, a), w)

    def test_param_count_square_case(self):
        a = adapter_init(768, 768, r=16, alpha=32.0, seed=0)
        assert a.param_count == 2 * 768 * 16 == 24_576

    def test_param_count_rectangular(self):
        a = adapter_init(48, 80, r=8, alpha=1.0, seed=0)
        assert a.param_count == 8 * (48 + 80)

    def test_rank_boundary(self):
        adapter_init(16, 32, r=16, alpha=1.0, seed=0)  # r == min dim allowed
        with pytest.raises(ShapeMismatch, match=r"^rank 17 exceeds min\(16, 32\)$"):
            adapter_init(16, 32, r=17, alpha=1.0, seed=0)

    def test_deterministic(self):
        a1 = adapter_init(8, 8, r=2, alpha=1.0, seed=42)
        a2 = adapter_init(8, 8, r=2, alpha=1.0, seed=42)
        assert np.array_equal(a1.A, a2.A)
        assert np.array_equal(a1.B, a2.B)


class TestApplyAndMerge:
    def test_rank_one_hand_case(self):
        # W = 0, alpha = 2, A = row of ones, B = column of ones, x = e1
        w = np.zeros((4, 4))
        a = LoRAAdapter(A=np.ones((1, 4)), B=np.ones((4, 1)), r=1, alpha=2.0)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(apply_adapted(w, a, x), [2.0, 2.0, 2.0, 2.0])
        assert np.array_equal(merge_adapter(w, a) @ x, [2.0, 2.0, 2.0, 2.0])

    def test_factored_matches_merged(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.normal(size=(32, 32))
            a = LoRAAdapter(
                A=rng.normal(size=(4, 32)), B=rng.normal(size=(32, 4)), r=4, alpha=0.5
            )
            x = rng.normal(size=32)
            assert np.allclose(apply_adapted(w, a, x), merge_adapter(w, a) @ x, atol=1e-9)

    def test_alpha_linearity(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(16, 16))
        A = rng.normal(size=(2, 16))
        B = rng.normal(size=(16, 2))
        x = rng.normal(size=16)
        base = w @ x
        c = 0.7
        out_c = apply_adapted(w, LoRAAdapter(A, B, 2, c), x)
        out_2c = apply_adapted(w, LoRAAdapter(A, B, 2, 2 * c), x)
        assert np.allclose(out_2c - base, 2.0 * (out_c - base), atol=1e-9)

    def test_shape_mismatch(self):
        a = adapter_init(8, 8, r=2, alpha=1.0, seed=0)
        with pytest.raises(ShapeMismatch):
            apply_adapted(np.zeros((4, 8)), a, np.zeros(8))
        with pytest.raises(ShapeMismatch):
            apply_adapted(np.zeros((8, 8)), a, np.zeros(5))
        with pytest.raises(ShapeMismatch):
            merge_adapter(np.zeros((8, 9)), a)


def random_adapter(rng, d_in=12, d_out=9, r=3, alpha=1.7):
    """A base weight and an adapter with a non-zero B, so every term is live."""
    w = rng.normal(size=(d_out, d_in))
    return w, LoRAAdapter(rng.normal(size=(r, d_in)), rng.normal(size=(d_out, r)), r, alpha)


class TestBatchedMap:
    def test_leading_axes_are_batch_axes(self):
        rng = np.random.default_rng(20)
        w, a = random_adapter(rng)
        x = rng.normal(size=(5, 2, 12))
        y = apply_adapted(w, a, x)
        assert y.shape == (5, 2, 9)
        # the (B, T, d_in) batch is the flattened (B*T, d_in) batch, bit for bit
        assert np.array_equal(y.reshape(-1, 9), apply_adapted(w, a, x.reshape(-1, 12)))
        # per-row 1-D calls run a matrix-vector product instead of a
        # matrix-matrix one, whose summation order differs in the last bits
        rows = np.array([[apply_adapted(w, a, v) for v in row] for row in x])
        assert np.allclose(y, rows, rtol=1e-13, atol=1e-13)

    def test_equals_the_two_term_expression_bit_for_bit(self):
        rng = np.random.default_rng(22)
        w, a = random_adapter(rng)
        x = rng.normal(size=(64, 12))
        y = apply_adapted(w, a, x)
        assert y.tobytes() == (x @ w.T + a.alpha * ((x @ a.A.T) @ a.B.T)).tobytes()

    def test_last_axis_mismatch(self):
        rng = np.random.default_rng(21)
        w, a = random_adapter(rng)
        with pytest.raises(ShapeMismatch):
            apply_adapted(w, a, np.zeros((4, 9)))
        with pytest.raises(ShapeMismatch):
            adapter_grads(a, np.zeros((4, 9)), np.zeros((4, 9)))
        with pytest.raises(ShapeMismatch):
            adapter_grads(a, np.zeros((4, 12)), np.zeros((4, 12)))
        with pytest.raises(ShapeMismatch):
            adapter_grads(a, np.zeros((4, 12)), np.zeros((3, 9)))


class TestAdapterGrads:
    def test_matches_central_differences(self):
        # the loss sum(dy * y) is linear in each of x, A and B separately, so
        # central differences carry no truncation error; the input gradient
        # is one GEMM on the merged weight
        rng = np.random.default_rng(22)
        w, a = random_adapter(rng)
        x = rng.normal(size=(4, 2, 12))
        dy = rng.normal(size=(4, 2, 9))
        dA, dB = adapter_grads(a, x, dy)
        dx = dy @ merge_adapter(w, a)
        assert dx.shape == x.shape and dA.shape == a.A.shape and dB.shape == a.B.shape

        def loss():
            return float((dy * apply_adapted(w, a, x)).sum())

        h = 1e-4
        for arr, grad in ((x, dx), (a.A, dA), (a.B, dB)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for i in rng.choice(flat.size, size=10, replace=False):
                orig = flat[i]
                flat[i] = orig + h
                fp = loss()
                flat[i] = orig - h
                fm = loss()
                flat[i] = orig
                assert (fp - fm) / (2 * h) == pytest.approx(gflat[i], rel=1e-7, abs=1e-9)

    def test_matches_dense_merged_weight_gradient(self):
        rng = np.random.default_rng(23)
        w, a = random_adapter(rng)
        x = rng.normal(size=(6, 12))
        dy = rng.normal(size=(6, 9))
        dA, dB = adapter_grads(a, x, dy)
        dW = dy.T @ x  # gradient w.r.t. the merged weight W + alpha*B@A
        dx = dy @ merge_adapter(w, a)
        assert np.allclose(dx, dy @ w + a.alpha * ((dy @ a.B) @ a.A), atol=1e-12)
        assert np.allclose(dA, a.alpha * a.B.T @ dW, atol=1e-12)
        assert np.allclose(dB, a.alpha * dW @ a.A.T, atol=1e-12)

    def test_out_equals_the_allocating_call(self):
        rng = np.random.default_rng(24)
        w, a = random_adapter(rng)
        x, dy = rng.normal(size=(64, 12)), rng.normal(size=(64, 9))
        out = (np.full(a.A.shape, np.nan), np.full(a.B.shape, np.nan))
        dA, dB = adapter_grads(a, x, dy, out=out)
        assert dA is out[0] and dB is out[1]
        fresh = adapter_grads(a, x, dy)
        assert dA.tobytes() == fresh[0].tobytes() and dB.tobytes() == fresh[1].tobytes()
        # a column block of a wider gradient, as the model passes q/k/v's
        wide = np.concatenate([rng.normal(size=(64, 4)), dy, rng.normal(size=(64, 3))], axis=1)
        block = adapter_grads(a, x, wide[:, 4:13])
        assert block[0].tobytes() == dA.tobytes() and block[1].tobytes() == dB.tobytes()


class TestMergeAdapter:
    def test_out_equals_the_allocating_call(self):
        rng = np.random.default_rng(25)
        w, a = random_adapter(rng)
        out = np.full(w.shape, np.nan)
        assert merge_adapter(w, a, out=out) is out
        assert out.tobytes() == merge_adapter(w, a).tobytes()
        assert out.tobytes() == (w + a.alpha * (a.B @ a.A)).tobytes()

    def test_stack_equals_the_per_matrix_calls(self):
        # factors laid out as the model's arena holds them: (A, B) of each
        # matrix side by side in one block, so each stack is a strided view
        rng = np.random.default_rng(26)
        r, d_in, d_out, alpha = 3, 12, 9, 1.7
        block = rng.normal(size=(2, 4, r * (d_in + d_out)))
        A, B = block[..., : r * d_in], block[..., r * d_in :]
        A.shape, B.shape = (2, 4, r, d_in), (2, 4, d_out, r)
        w = rng.normal(size=(2, 4, d_out, d_in))
        a = LoRAAdapter(A, B, r, alpha)
        assert a.A is A and a.param_count == block.size
        out = np.full(w.shape, np.nan)
        assert merge_adapter(w, a, out=out) is out
        for i, j in np.ndindex(2, 4):
            one = merge_adapter(w[i, j], LoRAAdapter(A[i, j], B[i, j], r, alpha))
            assert out[i, j].tobytes() == one.tobytes()
        with pytest.raises(ShapeMismatch):
            merge_adapter(w[:1], a)
        with pytest.raises(ShapeMismatch):
            merge_adapter(w[0, 0], a)
        with pytest.raises(ShapeMismatch):
            LoRAAdapter(A[:1], B, r, alpha)
