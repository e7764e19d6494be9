"""Graph mechanics: Tensor, backward, grad(), no_grad."""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.backend import default_dtype
from repro.autodiff import Tensor, enable_grad, grad, is_grad_enabled, no_grad, ops


class TestTensorBasics:
    def test_construction_from_list(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert x.shape == (3,)
        assert x.dtype == default_dtype()  # dtype-less data follows the policy
        assert not x.requires_grad

    def test_construction_from_tensor(self):
        x = Tensor([1.0, 2.0])
        y = Tensor(x, requires_grad=True)
        assert np.allclose(y.data, x.data)
        assert y.requires_grad

    def test_item_and_len(self):
        assert Tensor(3.5).item() == 3.5
        assert len(Tensor([1.0, 2.0, 3.0])) == 3

    def test_detach_cuts_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ops.square(x).detach()
        assert y._op is None and not y.requires_grad

    def test_operators(self):
        a = Tensor([2.0, 4.0])
        b = Tensor([1.0, 2.0])
        assert np.allclose((a + b).data, [3.0, 6.0])
        assert np.allclose((a - b).data, [1.0, 2.0])
        assert np.allclose((a * b).data, [2.0, 8.0])
        assert np.allclose((a / b).data, [2.0, 2.0])
        assert np.allclose((-a).data, [-2.0, -4.0])
        assert np.allclose((a ** 2).data, [4.0, 16.0])
        assert np.allclose((3.0 + a).data, [5.0, 7.0])
        assert np.allclose((3.0 * a).data, [6.0, 12.0])
        assert np.allclose((8.0 / a).data, [4.0, 2.0])
        assert np.allclose((1.0 - a).data, [-1.0, -3.0])

    def test_getitem_returns_tensor(self):
        a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        b = a[1]
        assert isinstance(b, Tensor)
        assert np.allclose(b.data, np.arange(4.0) + 4)

    def test_comparisons_return_arrays(self):
        a = Tensor([1.0, 3.0])
        assert (a > 2.0).tolist() == [False, True]
        assert (a <= Tensor([1.0, 1.0])).tolist() == [True, False]


class TestBackward:
    def test_scalar_backward(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        y = ops.sum(ops.square(x))
        y.backward()
        assert np.allclose(x.grad, 2 * x.data)

    def test_backward_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        ops.sum(x).backward()
        ops.sum(x).backward()
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        ops.sum(x).backward()
        x.zero_grad()
        assert x.grad is None

    def test_backward_with_explicit_grad_output(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ops.square(x)
        y.backward(Tensor([1.0, 10.0]))
        assert np.allclose(x.grad, [2.0, 40.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = ops.square(x)
        assert y._op is None
        assert not y.requires_grad

    def test_no_grad_nesting_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with enable_grad():
                assert is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_shared_subexpression(self):
        x = Tensor([2.0], requires_grad=True)
        y = ops.square(x)
        z = ops.sum(ops.add(y, y))
        z.backward()
        assert np.allclose(x.grad, [8.0])

    def test_diamond_graph(self):
        x = Tensor([3.0], requires_grad=True)
        a = ops.square(x)      # x^2
        b = ops.mul(x, Tensor([2.0]))  # 2x
        y = ops.sum(ops.mul(a, b))     # 2x^3 -> dy/dx = 6x^2
        y.backward()
        assert np.allclose(x.grad, [6 * 9.0])


class TestGradAPI:
    def test_grad_single_tensor(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        g = grad(ops.sum(ops.square(x)), x)
        assert np.allclose(g.data, 2 * x.data)
        assert x.grad is None  # functional API must not touch .grad

    def test_grad_multiple_inputs(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([2.0], requires_grad=True)
        gx, gy = grad(ops.sum(ops.mul(x, y)), [x, y])
        assert np.allclose(gx.data, y.data)
        assert np.allclose(gy.data, x.data)

    def test_grad_unused_input_returns_none(self):
        x = Tensor([1.0], requires_grad=True)
        z = Tensor([5.0], requires_grad=True)
        g = grad(ops.sum(ops.square(x)), [x, z])
        assert g[1] is None

    def test_grad_unused_raises_when_not_allowed(self):
        x = Tensor([1.0], requires_grad=True)
        z = Tensor([5.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            grad(ops.sum(x), [z], allow_unused=False)

    def test_grad_outputs_shape_mismatch(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ops.square(x)
        with pytest.raises(ValueError):
            grad(y, x, grad_outputs=Tensor([1.0, 2.0, 3.0]))

    def test_grad_with_grad_outputs(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ops.square(x)
        g = grad(y, x, grad_outputs=Tensor([0.0, 1.0]))
        assert np.allclose(g.data, [0.0, 4.0])

    def test_create_graph_retains_differentiability(self):
        x = Tensor([0.5], requires_grad=True)
        g1 = grad(ops.sum(ops.exp(x)), x, create_graph=True)
        g2 = grad(ops.sum(g1), x)
        assert np.allclose(g2.data, np.exp(0.5))

    def test_without_create_graph_gradients_are_detached(self):
        x = Tensor([0.5], requires_grad=True)
        g1 = grad(ops.sum(ops.exp(x)), x, create_graph=False)
        assert g1._op is None

    def test_grad_through_constant_is_none(self):
        x = Tensor([1.0])  # requires_grad=False
        y = Tensor([2.0], requires_grad=True)
        out = ops.sum(ops.mul(x, y))
        assert grad(out, x) is None


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


class TestGraphLifetime:
    """``backward`` frees the graph as it sweeps; ``grad`` keeps it."""

    @staticmethod
    def leaf(shape=(256, 256)):
        data = np.random.default_rng(0).standard_normal(shape).astype(default_dtype())
        return Tensor(data, requires_grad=True)

    @pytest.mark.parametrize("sweep", ["backward", "grad"])
    def test_sweep_peak_is_a_few_arrays_whatever_the_depth(self, sweep):
        """Each intermediate gradient dies once its rule has used it: a
        16-op chain's sweep holds ~4 arrays at its peak, not one per op
        (19 when every gradient lived until the sweep returned)."""
        x = self.leaf()
        h = x
        for _ in range(16):
            h = ops.tanh(h)
        loss = ops.sum(h)
        del h
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            kept = loss.backward() if sweep == "backward" else grad(loss, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del kept
        assert (peak - start) / x.data.nbytes <= 5

    def test_backward_frees_the_activations_while_the_loss_lives(self):
        x = self.leaf((8, 8))
        mid = ops.tanh(ops.tanh(x))
        loss = ops.sum(ops.tanh(mid))
        activation = weakref.ref(mid.data)
        del mid
        assert activation() is not None  # the graph holds it until the sweep
        loss.backward()
        assert activation() is None
        assert loss._op.inputs is None

    def test_a_second_backward_through_a_swept_graph_raises(self):
        x = self.leaf((8, 8))
        y = ops.tanh(x)
        first, second = ops.sum(y), ops.sum(ops.square(y))
        first.backward()
        swept = x.grad.copy()
        with pytest.raises(RuntimeError, match=r"Sum .*grad"):
            first.backward()
        with pytest.raises(RuntimeError, match=r"Tanh .*grad"):
            second.backward()
        assert _same_bytes(x.grad, swept)  # the refused sweeps added nothing

    def test_grad_twice_keeps_the_graph(self):
        x = self.leaf((8, 8))
        loss = ops.sum(ops.tanh(ops.tanh(x)))
        g1, g2 = grad(loss, x), grad(loss, x)
        assert _same_bytes(g1.data, g2.data)
        loss.backward()  # the graph is intact for a final sweep
        assert _same_bytes(x.grad, g1.data)

    def test_double_backward_keeps_the_first_graph(self):
        x = self.leaf((8, 8))
        loss = ops.sum(ops.tanh(ops.tanh(x)))
        gx = grad(loss, x, create_graph=True)
        assert _same_bytes(gx.data, grad(loss, x).data)
        curvature = ops.sum(ops.square(gx))
        h1, h2 = grad(curvature, x), grad(curvature, x)
        assert _same_bytes(h1.data, h2.data)
        curvature.backward()
        assert _same_bytes(x.grad, h1.data)
