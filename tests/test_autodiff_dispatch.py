"""The eager tape's dispatch: one ``Op.apply`` for every mode, results wrapped
without the constructor, and backward rules that compute only the gradients
somebody asked for.  Everything here is a deterministic count or an exact
dtype/shape, never a timing."""

import itertools

import numpy as np
import pytest

from repro.autodiff import Tensor, enable_grad, grad, inference_mode, nn_ops, no_grad, ops
from repro.autodiff import tensor as tensor_module
from repro.autodiff.tensor import Op, set_op_hook
from repro.core import LossWeights, MeshfreeFlowNet, MeshfreeFlowNetConfig, compute_losses
from repro.nn import Parameter
from repro.pde import RayleighBenard2D


class CountingHook:
    """The ``set_op_hook`` protocol, keeping the name of every op it sees."""

    def __init__(self):
        self.names = []

    def start(self):
        return None

    def finish(self, token, op_name, out_data):
        self.names.append(op_name)


@pytest.fixture
def op_names():
    hook = CountingHook()
    set_op_hook(hook)
    try:
        yield hook.names
    finally:
        set_op_hook(None)


def _all_op_classes(cls=Op):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_op_classes(sub)


# ------------------------------------------------------------- needed branches
class TestRulesSkipConstantOperands:
    """Only ``w`` requires grad; ``c`` broadcasts, so its gradient would cost
    a ``Sum`` and a ``Reshape`` on top of the branch itself."""

    @pytest.fixture
    def w(self, rng):
        return Tensor(rng.uniform(1.0, 2.0, (2, 3)), requires_grad=True)

    @pytest.fixture
    def c(self, rng):
        return Tensor(rng.uniform(1.0, 2.0, (3,)))

    @pytest.mark.parametrize("build, expected", [
        (lambda w, c: ops.mul(w, c), ["Mul"]),
        (lambda w, c: ops.mul(w, 2.0), ["Mul"]),
        (lambda w, c: ops.add(w, c), []),
        (lambda w, c: ops.sub(w, c), []),
        (lambda w, c: ops.sub(c, w), ["Neg"]),
        (lambda w, c: ops.div(w, c), ["Div"]),
        (lambda w, c: ops.maximum(w, c), ["GreaterEqualMask", "Mul"]),
        (lambda w, c: ops.matmul(w, ops.transpose(c.reshape(1, 3))), ["Transpose", "MatMul"]),
        (lambda w, c: ops.concatenate([c.reshape(1, 3), w], axis=0), ["GetIndex"]),
    ])
    def test_backward_emits_exactly_the_needed_branch(self, w, c, build, expected, op_names):
        y = build(w, c)
        del op_names[:]
        y.backward()
        assert op_names == expected
        assert w.grad is not None and c.grad is None

    def test_conv3d_skips_the_input_gradient_of_a_constant_batch(self, rng, op_names):
        x = Tensor(rng.standard_normal((1, 2, 3, 4, 4)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3, 3)), requires_grad=True)
        y = nn_ops.conv3d(x, w, padding=1)
        del op_names[:]
        y.backward()
        assert op_names == ["Conv3dGradWeight"]

    def test_vertex_gather_skips_a_constant_grid(self, rng, op_names):
        grid = Tensor(rng.standard_normal((1, 2, 2, 2, 3)))
        index = ops.floor(Tensor(rng.uniform(0, 1.9, (1, 5)), requires_grad=True))
        y = ops.gather_vertices(grid, index, index, index)
        assert y.requires_grad  # recorded through the (gradient-free) index operands
        del op_names[:]
        y.backward()
        assert op_names == []


# ------------------------------------------------------- a whole training step
class TestTrainingStepDropsNothing:
    #: Ops of one eager forward + backward on the ``tiny`` model, as measured
    #: when the rules stopped computing unasked gradients (1267 / 4381 before).
    OP_BUDGET = {0.0: 1140, 0.0125: 3843}

    @pytest.fixture
    def dropped(self, monkeypatch):
        """Non-``None`` rule results for inputs that do not require grad."""
        found = []

        def checked(rule):
            def backward(self, grad_output):
                results = rule(self, grad_output)
                found.extend((type(self).__name__, i)
                             for i, (x, g) in enumerate(zip(self.inputs, results))
                             if g is not None and not x.requires_grad)
                return results
            return backward

        for cls in set(_all_op_classes()):
            if "backward" in vars(cls):
                monkeypatch.setattr(cls, "backward", checked(vars(cls)["backward"]))
        return found

    @pytest.mark.parametrize("gamma", [0.0, 0.0125])
    def test_no_rule_result_is_dropped_and_the_op_count_holds(self, gamma, rng, dropped, op_names):
        model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny())
        model.train()
        lowres = Tensor(rng.standard_normal((1, 4, 2, 8, 8)))
        coords = Tensor(rng.random((1, 8, 3)), requires_grad=gamma > 0)
        targets = Tensor(rng.standard_normal((1, 8, 4)))
        total, _ = compute_losses(model, lowres, coords, targets,
                                  RayleighBenard2D() if gamma > 0 else None,
                                  LossWeights(gamma=gamma))
        total.backward()
        assert dropped == []
        assert all(p.grad is not None for p in model.parameters())
        assert len(op_names) <= self.OP_BUDGET[gamma]


# ------------------------------------------------------------- the mode contract
class TestSingleApply:
    @pytest.mark.parametrize("mode", [no_grad, inference_mode])
    def test_graph_free_modes_leave_no_history(self, mode, rng):
        w = Tensor(rng.standard_normal(4), requires_grad=True)
        with mode():
            for y in (ops.mul(w, w), ops.mul(w, 2.0), ops.sum(w), w.detach()):
                assert y._op is None and y.requires_grad is False

    @pytest.mark.parametrize("mode", [enable_grad, no_grad, inference_mode])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("build, shape", [
        (lambda t: ops.sum(t), ()),                       # forward returns a NumPy scalar
        (lambda t: ops.greater_mask(t, 0.0), (3, 4)),     # a bool array cast by the kernel
        (lambda t: ops.floor(t), (3, 4)),
        (lambda t: t[1, 2], ()),                          # all-integer index: a 0-d copy
        (lambda t: t[np.array([0, 2])], (2, 4)),          # integer-array index
    ])
    def test_results_keep_dtype_and_shape(self, mode, dtype, build, shape, rng):
        t = Tensor(rng.standard_normal((3, 4)).astype(dtype))
        with mode():
            y = build(t)
        assert type(y.data) is np.ndarray
        assert y.dtype == dtype and y.shape == shape

    def test_non_float_forward_results_take_the_constructor_route(self, rng):
        """A bool or integer array is not wrapped as it is: it becomes the
        policy dtype, exactly as ``Tensor(data)`` makes it."""
        class IsPositive(Op):
            def forward(self, a):
                return a > 0

        class Rank(Op):
            def forward(self, a):
                return np.argsort(a)

        a = rng.standard_normal(5)
        for op, raw in ((IsPositive, a > 0), (Rank, np.argsort(a))):
            y = op.apply(Tensor(a))
            expected = Tensor(raw)
            assert y.dtype == expected.dtype and np.array_equal(y.data, expected.data)

    def test_parameter_operand_records_a_graph(self, rng):
        p = Parameter(rng.standard_normal(3))
        y = ops.mul(p, 2.0)
        assert y.requires_grad and y._op.inputs[0] is p
        y.backward()
        assert np.array_equal(p.grad, np.full(3, 2.0))

    @pytest.mark.parametrize("mode", [enable_grad, no_grad, inference_mode])
    def test_hook_sees_every_op_once(self, mode, rng, op_names):
        w = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        with mode():
            ops.add(ops.matmul(w, w), ops.mul(w, 3.0))
        assert op_names == ["MatMul", "Mul", "Add"]

    def test_python_scalar_takes_the_tensor_dtype(self):
        for dtype in (np.float32, np.float64):
            t = Tensor(np.ones(3, dtype=dtype), requires_grad=True)
            for y in (ops.mul(t, 2.0), ops.sub(1, t), ops.maximum(t, 0.5)):
                constant = next(x for x in y._op.inputs if x is not t)
                assert y.dtype == dtype and constant.dtype == dtype and constant.shape == ()

    def test_first_order_sweep_hands_back_rule_outputs_undetached(self, monkeypatch):
        """Gradients made under ``no_grad`` have no history to cut."""
        calls = []
        monkeypatch.setattr(Tensor, "detach", lambda self: calls.append(self) or self)
        w = Tensor(np.ones(3), requires_grad=True)
        ops.mul(ops.exp(w), 2.0).backward()
        assert calls == []
        seed = ops.mul(Tensor(np.ones(3), requires_grad=True), 1.0)  # a seed with history
        ops.exp(w).backward(seed)
        assert calls == [seed]


# ------------------------------------------------------------------ satellites
class TestTransposeBackward:
    @pytest.mark.parametrize("axes", [None, *itertools.permutations(range(3))])
    def test_gradient_undoes_the_permutation(self, axes, rng, op_names):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        upstream = rng.standard_normal(np.transpose(a.data, axes).shape)
        y = ops.transpose(a, axes)
        del op_names[:]
        y.backward(Tensor(upstream))
        assert op_names == ["Transpose"]
        inverse = None if axes is None else tuple(np.argsort(axes))
        assert np.array_equal(a.grad, np.transpose(upstream, inverse))


class TestSumBackward:
    @pytest.mark.parametrize("axis, keepdims, expected", [
        (None, False, ["Reshape", "BroadcastTo"]),
        (None, True, ["BroadcastTo"]),
        ((0, 2), False, ["Reshape", "BroadcastTo"]),
        ((0, 2), True, ["BroadcastTo"]),
    ])
    def test_one_reshape_at_most(self, axis, keepdims, expected, rng, op_names):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        y = ops.sum(a, axis=axis, keepdims=keepdims)
        upstream = rng.standard_normal(y.shape)
        del op_names[:]
        y.backward(Tensor(upstream))
        assert op_names == expected
        kept = np.sum(a.data, axis=axis, keepdims=True).shape
        assert np.array_equal(a.grad, np.broadcast_to(upstream.reshape(kept), a.shape))


def test_wrap_is_what_the_constructor_would_build(rng):
    for data in (rng.standard_normal((2, 3)), rng.standard_normal(4).astype(np.float32)):
        wrapped, built = tensor_module._wrap(data), Tensor(data)
        assert wrapped.data is data and built.data is data
        assert all(getattr(wrapped, slot) is getattr(built, slot)
                   for slot in Tensor.__slots__ if slot != "data")


def test_second_order_sweep_skips_constant_operands_too(rng, op_names):
    """``create_graph=True`` runs the same rules: d/dw of d(sum(w*w*c))/dw."""
    w = Tensor(rng.standard_normal(3), requires_grad=True)
    c = Tensor(rng.standard_normal(3))
    loss = ops.sum(ops.mul(ops.mul(w, w), c))
    del op_names[:]
    (g,) = grad(loss, [w], create_graph=True)
    # Sum's rule, grad*c (not grad*(w*w)), both branches of w*w, their sum.
    assert op_names == ["Reshape", "BroadcastTo", "Mul", "Mul", "Mul", "Add"]
    del op_names[:]
    (gg,) = grad(ops.sum(g), [w])
    assert op_names == ["Sum", "Reshape", "BroadcastTo", "Mul", "Mul", "Add"]
    assert np.array_equal(gg.data, 2.0 * c.data)
