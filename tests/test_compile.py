"""Graph-capture fused executor: equivalence, caching, allocation regression.

The contract under test (ISSUE 5 acceptance criteria):

* compiled execution matches eager **bit-for-bit** — forward, first- and
  second-order derivative graphs (nested ``grad(create_graph=True)``
  sweeps through the decoder MLP) — under both precision policies;
* plans are cached per (module fingerprint, input shapes/dtypes, dtype
  policy) and invalidate on shape, dtype-policy and weight-identity
  changes;
* steady-state execution of a fully lowered plan allocates **nothing**
  (buffer-arena regression pin);
* fallback to eager execution is automatic whenever a plan could be wrong
  (gradients through ``compile(module)``, impure modules) — and never
  silent: one :class:`~repro.compile.CompileFallbackWarning` per
  (wrapper, reason), with per-call counts in ``stats()`` and the metrics
  registry (ISSUE 8);
* :class:`~repro.compile.CompiledTrainingStep` replays the whole
  equation-loss training step (forward, residuals, loss, parameter VJP
  and BatchNorm effects) bit-identically (ISSUE 8), and is the only
  compiled object a compiled trainer owns (ISSUE 20);
* the module-state guard has one owner, ``CompiledFunction``, and the
  same invalidation rules behind both module-bound entry points
  (ISSUE 20);
* every kernel step is a generated function making each op's own kernel
  call (``repro.compile.codegen.LOWERINGS``, read off the op classes; each
  lowered class checked against eager by a test parametrised over it, and
  every other op class accounted for as a view or an eager-only op),
  maximal elementwise runs
  sharing one function, preserving both bit-exactness and the
  steady-state zero-allocation pin (ISSUE 8, ISSUE 14).
"""

import collections
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import compile as rc
from repro import nn, obs
from repro.autodiff import Tensor, grad, inference_mode, nn_ops, no_grad, ops
from repro.autodiff.ops import KernelOp
from repro.autodiff.tensor import Op
from repro.backend import get_backend, precision
from repro.compile.codegen import LOWERINGS
from repro.compile.passes import VIEW_OPS
from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.core.imnet import ImNet
from repro.inference import InferenceEngine
from repro.training import DistributedTrainer, Trainer, TrainerConfig


def make_imnet(dtype=None):
    if dtype is None:
        return ImNet(coord_dim=3, latent_dim=6, out_channels=4, hidden=(16, 16)).eval()
    with precision(dtype):
        return ImNet(coord_dim=3, latent_dim=6, out_channels=4, hidden=(16, 16)).eval()


def decoder_input(shape=(2, 64, 9), seed=0, dtype=np.float64, requires_grad=False):
    data = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    return Tensor(data, requires_grad=requires_grad)


class TestTracer:
    def test_trace_captures_linear_program(self):
        imnet = make_imnet()
        program, structure, result = rc.trace(imnet, decoder_input())
        assert structure == "single"
        assert np.array_equal(result.data, imnet(decoder_input()).data)
        # 3 Linear layers (matmul + bias add) + 2 softplus activations.
        assert [n.op_name for n in program.nodes] == [
            "MatMul", "Add", "Softplus", "MatMul", "Add", "Softplus", "MatMul", "Add",
        ]
        assert len(program.input_ids) == 1 and len(program.output_ids) == 1

    def test_trace_rejects_non_tensor_inputs(self):
        with pytest.raises(TypeError):
            rc.trace(lambda x: x, np.zeros(3))

    def test_nested_tracer_install_rejected(self):
        from repro.autodiff.tensor import tracing

        with tracing(rc.Tracer()):
            with pytest.raises(RuntimeError, match="nested"):
                with tracing(rc.Tracer()):
                    pass

    def test_compiled_callee_inlines_into_outer_trace(self):
        """A compiled function invoked while another trace records must run
        eagerly so its primitives land in the outer program — replaying its
        plan would freeze one result into the capture as a constant."""
        imnet = make_imnet()
        inner = rc.compile_fn(imnet, copy_outputs=False)
        with inference_mode():
            inner(decoder_input(seed=21))  # warm the inner plan cache

        def outer(x):
            return ops.mul(inner(x), 2.0)

        cf = rc.compile_fn(outer)
        with no_grad():
            cf(decoder_input(seed=22))           # traces the outer program
            x = decoder_input(seed=23)           # replay must use live data
            out = cf(x)
        assert np.array_equal(out.data, 2.0 * imnet(x).data)
        assert cf.stats()["n_plans"] == 1 and cf.stats()["n_fallback_keys"] == 0

    def test_trace_miss_runs_the_function_once(self):
        calls = {"n": 0}
        imnet = make_imnet()

        def counted(x):
            calls["n"] += 1
            return imnet(x)

        cf = rc.compile_fn(counted)
        with no_grad():
            first = cf(decoder_input(seed=24))   # miss: served by the trace itself
        assert calls["n"] == 1
        with no_grad():
            second = cf(decoder_input(seed=24))  # hit: plan replay, no fn call
        assert calls["n"] == 1
        assert np.array_equal(first.data, second.data)

    def test_describe_lists_ops(self):
        imnet = make_imnet()
        cm = rc.compile(imnet)
        with inference_mode():
            cm(decoder_input())
        text = cm.plans[0].describe()
        assert "MatMul" in text and "Softplus" in text and "n_inplace" in text


class TestForwardEquivalence:
    @pytest.mark.parametrize("policy", ["float64", "float32"])
    def test_forward_bitwise_equal(self, policy):
        imnet = make_imnet(policy)
        dtype = np.dtype(policy)
        cm = rc.compile(imnet)
        with precision(policy):
            x = decoder_input(dtype=dtype, seed=1)
            with inference_mode():
                eager = imnet(x)
                compiled = cm(x)
        assert compiled.dtype == dtype
        assert np.array_equal(eager.data, compiled.data)

    def test_fresh_data_replays_not_bakes(self):
        """A cached plan must recompute from live inputs, not trace-time data."""
        imnet = make_imnet()
        cm = rc.compile(imnet)
        with inference_mode():
            cm(decoder_input(seed=1))
            x2 = decoder_input(seed=2)
            assert np.array_equal(imnet(x2).data, cm(x2).data)
        assert cm.stats()["n_plans"] == 1

    def test_engine_compiled_decode_bitwise_equal(self):
        model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()
        lowres = np.random.default_rng(0).standard_normal((2, 4, 2, 8, 8))
        eager = InferenceEngine(model)
        compiled = InferenceEngine(model, compile=True)
        out_e = eager.predict_grid(lowres, (4, 16, 16))
        # One tile decodes its grid in blocks of the same shape, one decoder
        # call each: the first grid traces, the second replays.
        for _ in range(2):
            out_c = compiled.predict_grid(lowres, (4, 16, 16))
            assert np.array_equal(out_e, out_c)
        stats = compiled.compile_stats
        assert stats["plan_hits"] > 0 and stats["runtime_allocs"] == 0

    def test_engine_compiled_query_points_bitwise_equal(self):
        model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()
        rng = np.random.default_rng(3)
        lowres = rng.standard_normal((1, 4, 2, 8, 8))
        pts = rng.random((257, 3))
        out_e = InferenceEngine(model).query_points(lowres, pts)
        out_c = InferenceEngine(model, compile=True).query_points(lowres, pts)
        assert np.array_equal(out_e, out_c)


class TestDerivativeEquivalence:
    @staticmethod
    def derivative_stack(imnet):
        """First and second coordinate derivatives through the decoder MLP by
        nested reverse-mode sweeps: ``grad(create_graph=True)`` as the public
        autodiff feature it is (the model's own equation loss carries these
        derivatives forward instead, ``ImNet.forward_jets``)."""

        def fn(x):
            y = imnet(x)
            g1 = grad(ops.sum(y), x, create_graph=True)
            d_dt = ops.getitem(g1, (slice(None), slice(None), 0))
            g2 = grad(ops.sum(d_dt), x, create_graph=True)
            return y, g1, g2

        return fn

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    def test_second_order_bitwise_equal(self, policy):
        imnet = make_imnet(policy)
        dtype = np.dtype(policy)
        fn = self.derivative_stack(imnet)
        cf = rc.compile_fn(fn)
        with precision(policy):
            x = decoder_input((1, 32, 9), seed=4, dtype=dtype, requires_grad=True)
            eager = fn(x)
            compiled = cf(x)  # traces
            x2 = decoder_input((1, 32, 9), seed=5, dtype=dtype, requires_grad=True)
            eager2, compiled2 = fn(x2), cf(x2)  # replays
        for e, c in zip((*eager, *eager2), (*compiled, *compiled2)):
            assert np.array_equal(e.data, c.data)
        assert cf.stats() == {**cf.stats(), "n_plans": 1, "runtime_allocs": 0}


class TestCompiledBackward:
    """Where gradients meet compiled code: ``compile(module)`` replays no-grad
    calls only, and a compiled trainer owns exactly one wrapper, its
    ``CompiledTrainingStep``."""

    def test_inplace_weight_update_visible_without_retrace(self):
        imnet = make_imnet()
        cm = rc.compile(imnet)
        x = decoder_input(seed=10)
        with inference_mode():
            cm(x)
        assert cm.stats()["n_plans"] == 1
        for p in imnet.parameters():
            p.data[...] = p.data * 0.5  # optimizer-style in-place update
        with inference_mode():
            assert np.array_equal(imnet(x).data, cm(x).data)
        stats = cm.stats()
        assert stats["n_plans"] == 1 and stats["retraces"] == 1  # no invalidation
        assert stats["plan_hits"] == 1

    def test_backward_keyword_is_gone(self):
        with pytest.raises(TypeError):
            rc.compile(make_imnet(), backward=True)

    def test_trainer_compile_prediction_only_bit_identical(self, tiny_dataset):
        def run(compile_flag):
            model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(seed=3))
            cfg = TrainerConfig(epochs=1, batch_size=1, world_size=2, gamma=0.0,
                                steps_per_epoch=2, compile=compile_flag)
            Trainer(model, tiny_dataset, config=cfg).train()
            return model

        eager, compiled = run(False), run(True)
        for pe, pc in zip(eager.parameters(), compiled.parameters()):
            assert np.array_equal(pe.data, pc.data)

    @pytest.mark.parametrize("trainer_cls", [Trainer, DistributedTrainer])
    def test_compiled_trainer_with_validation_never_falls_back(self, trainer_cls, tiny_dataset):
        """A compiled trainer owns one wrapper, its training step: an epoch
        with a validation set followed by ``evaluate()`` warns of no
        fallback and leaves every ``compile.fallbacks`` series at zero."""
        from repro.obs.metrics import REGISTRY

        model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(seed=3))
        cfg = TrainerConfig(epochs=1, batch_size=1, world_size=2, gamma=0.0,
                            steps_per_epoch=2, compile=True)
        trainer = trainer_cls(model, tiny_dataset, config=cfg, val_dataset=tiny_dataset)
        before = REGISTRY.collect()  # wrappers other tests left alive
        with warnings.catch_warnings():
            warnings.simplefilter("error", rc.CompileFallbackWarning)
            history = trainer.train()
            trainer.evaluate()
        assert np.isfinite(history.records[-1]["val_loss"])
        assert trainer._compiled_step.stats()["plan_hits"] >= 1
        fallbacks = {k: v for k, v in REGISTRY.collect().items()
                     if k.startswith("compile.fallbacks{") and v != before.get(k, 0)}
        assert fallbacks == {}


_S = (3, 4, 5)


def _case(build, *shapes, positive=False):
    """One table-test case: ``build(*tensors)`` applies the op once."""
    return build, shapes or (_S,), positive


_X, _C = (2, 3, 2, 3, 4), (3,)  # a batch-norm input and its per-channel shape


def _bn_grad_input(x, g, w=None):
    stats, eps = nn_ops.BatchStats.apply(x), 1e-5
    affine = () if w is None else (w,)
    return nn_ops.BatchNormGradInput.apply(
        x, g, stats, ops.sum(g, axis=(0, 2, 3, 4)),
        nn_ops.BatchNormGradWeight.apply(x, g, stats, eps=eps), *affine, eps=eps)


#: At least one case per class in ``codegen.LOWERINGS`` — the parametrised
#: test below fails for a lowered op that has none.  The random-DAG tests
#: draw their builders from the same list.
LOWERING_CASES = {
    ops.Neg: [_case(ops.neg)],
    ops.Exp: [_case(ops.exp)],
    ops.Log: [_case(ops.log, positive=True)],
    ops.Sin: [_case(ops.sin)],
    ops.Cos: [_case(ops.cos)],
    ops.Tanh: [_case(ops.tanh)],
    ops.Abs: [_case(ops.abs)],
    ops.Sign: [_case(ops.sign)],
    ops.Floor: [_case(ops.floor)],
    ops.Add: [_case(ops.add, _S, _S), _case(ops.add, _S, (5,))],
    ops.Sub: [_case(ops.sub, _S, _S), _case(lambda a: ops.sub(1.0, a))],
    ops.Mul: [_case(ops.mul, _S, _S), _case(lambda a: ops.mul(a, 0.3))],
    ops.Div: [_case(ops.div, _S, _S)],
    ops.Maximum: [_case(ops.maximum, _S, _S)],
    ops.Minimum: [_case(ops.minimum, _S, _S)],
    ops.GreaterMask: [_case(ops.greater_mask, _S, _S)],
    ops.GreaterEqualMask: [_case(ops.greater_equal_mask, _S, _S)],
    ops.LessEqualMask: [_case(ops.less_equal_mask, _S, _S)],
    ops.Pow: [_case(lambda a, p=p: ops.pow(a, p), positive=True)
              for p in (0.5, 1.0, 2.0, 3.0, 2.5)],
    ops.ReLU: [_case(ops.relu)],
    ops.LeakyReLU: [_case(lambda a, s=s: ops.leaky_relu(a, s)) for s in (0.1, 1.5)],
    ops.LeakyReLUMask: [_case(lambda a: ops.leaky_relu_mask(a, 0.1))],
    ops.Sigmoid: [_case(ops.sigmoid)],
    ops.Softplus: [_case(ops.softplus)],
    ops.BroadcastTo: [_case(lambda a: ops.broadcast_to(a, _S), (4, 1)),
                      _case(lambda a: ops.broadcast_to(a, _S))],
    ops.MatMul: [_case(ops.matmul, (3, 4), (4, 5)), _case(ops.matmul, (2, 3, 4), (4, 4))],
    ops.Sum: [_case(ops.sum),
              _case(lambda a: ops.sum(a, axis=1)),
              _case(lambda a: ops.sum(a, axis=(0, 2), keepdims=True)),
              _case(lambda a: ops.sum(a, axis=1, initial=-0.0))],
    ops.Concatenate: [_case(lambda a, b: ops.concatenate([a, b], axis=1), _S, (3, 2, 5)),
                      _case(lambda a, b: ops.concatenate([a, b], axis=-1), _S, _S)],
    ops.Pad: [_case(lambda a: ops.pad(a, ((1, 2), (0, 0), (0, 1))))],
    ops.PutIndex: [_case(lambda a: ops.put_index(a, (slice(None), [0, 2, 2, 1]), (3, 6, 5))),
                   _case(lambda a: ops.put_index(a, (slice(1, 4),), (5, 4, 5))),
                   _case(lambda a: ops.put_index(a, (slice(None), slice(None), 1), (3, 4, 2)), (3, 4)),
                   _case(lambda a: ops.put_index(a, (1, 2, 0), _S), ())],
    nn_ops.BatchStats: [_case(nn_ops.BatchStats.apply, _X)],
    nn_ops.BatchNorm: [
        _case(lambda x: nn_ops.BatchNorm.apply(x, nn_ops.BatchStats.apply(x), eps=1e-5), _X),
        _case(lambda x, w, b: nn_ops.BatchNorm.apply(x, nn_ops.BatchStats.apply(x), w, b, eps=0.1),
              _X, _C, _C)],
    nn_ops.BatchNormGradWeight: [_case(lambda x, g: nn_ops.BatchNormGradWeight.apply(
        x, g, nn_ops.BatchStats.apply(x), eps=1e-5), _X, _X)],
    nn_ops.BatchNormGradInput: [_case(_bn_grad_input, _X, _X), _case(_bn_grad_input, _X, _X, _C)],
    nn_ops.BatchNormRunningStat: [
        _case(lambda x, r, v=v: nn_ops.BatchNormRunningStat.apply(
            nn_ops.BatchStats.apply(x), r, momentum=0.1, variance=v), _X, _C) for v in (False, True)],
}


class TestLoweringTable:
    """Every entry of the one lowering table, by construction: a new entry
    without a case here fails, and each case runs alone and fed by a dying
    same-shape intermediate (the in-place candidate)."""

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    @pytest.mark.parametrize("cls", list(LOWERINGS), ids=lambda cls: cls.__name__)
    def test_entry_matches_eager(self, cls, policy):
        assert cls in LOWERING_CASES, f"add a LOWERING_CASES entry for {cls.__name__}"
        rng = np.random.default_rng(7)
        for build, shapes, positive in LOWERING_CASES[cls]:
            arrays = [rng.standard_normal(shape) for shape in shapes]
            if positive:
                arrays = [np.abs(a) + 0.5 for a in arrays]
            variants = {
                "alone": build,
                "dying operand": lambda a, *rest: build(ops.mul(a, 1.5), *rest),
            }
            for label, fn in variants.items():
                with precision(policy), no_grad():
                    xs = [Tensor(a.astype(policy)) for a in arrays]
                    cf = rc.compile_fn(fn)
                    cf(*xs)                      # served by the trace
                    replay = cf(*xs)
                    eager = fn(*xs)
                plan = cf.plans[0]
                op = plan.program.nodes[-1].op
                assert type(op) is cls
                assert replay.dtype == eager.dtype == np.dtype(policy)
                assert np.array_equal(replay.data, eager.data), (cls.__name__, label)
                assert plan.stats.n_fallback == 0 and plan.runtime_allocs == 0
                # The rule is the op's: in place exactly when it says so and
                # the dying intermediate has the output's shape.
                fits = label != "alone" and eager.shape == arrays[0].shape
                assert plan.stats.n_inplace == int(fits and op.inplace)


def _op_classes(root=Op):
    """Every ``Op`` subclass the package defines, at any depth."""
    for cls in root.__subclasses__():
        if cls.__module__.startswith("repro."):
            yield cls
        yield from _op_classes(cls)


class TestEveryOpAccountedFor:
    """Each op class either lowers (a ``KernelOp`` with a kernel, and then a
    ``LOWERING_CASES`` entry), is a view, or says why it stays eager."""

    def test_every_op_class_lowers_is_a_view_or_states_why_not(self):
        unaccounted = []
        for cls in _op_classes():
            if issubclass(cls, KernelOp):
                # A KernelOp without a kernel is a shared base (UfuncOp, the masks' base).
                accounted = cls in LOWERINGS or bool(cls.__subclasses__())
            else:
                accounted = cls in VIEW_OPS or cls is ops.GetIndex or bool(cls.eager_only)
            if not accounted:
                unaccounted.append(cls.__name__)
        assert unaccounted == []

    def test_every_lowered_class_has_cases(self):
        assert [cls.__name__ for cls in LOWERINGS if cls not in LOWERING_CASES] == []
        assert set(LOWERING_CASES) <= set(LOWERINGS)


def _as_bytes(array) -> np.ndarray:
    """``array``'s bytes as a flat ``uint8`` array (signed zeros and NaN payloads included)."""
    return np.ascontiguousarray(array).reshape(-1).view(np.uint8)


def _assert_same_bytes(got, want, label):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), label
    assert np.array_equal(_as_bytes(got), _as_bytes(want)), label


# The NumPy expressions these ops' forwards were before each became one
# kernel call: the references the kernels must match byte for byte.
def _ref_pow(a, exponent):
    if exponent == 2.0:
        return np.multiply(a, a)
    if exponent == 3.0:
        return np.multiply(np.multiply(a, a), a)
    if exponent == 1.0:
        return np.array(a, copy=True)
    return np.sqrt(a) if exponent == 0.5 else np.power(a, exponent)


def _ref_relu(a):
    out = np.empty_like(a)
    np.greater(a, 0, out=out)
    return np.multiply(a, out, out=out)


def _ref_leaky_relu_mask(a, negative_slope):
    return np.where(a > 0, 1.0, negative_slope).astype(a.dtype)


def _ref_sigmoid(a):
    t, num = np.empty_like(a), np.empty_like(a)
    np.abs(a, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.greater_equal(a, 0.0, out=num)
    np.maximum(t, num, out=num)
    np.add(t, 1.0, out=t)
    return np.divide(num, t, out=num)


def _ref_softplus(a):
    t, out = np.empty_like(a), np.empty_like(a)
    np.abs(a, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    np.maximum(a, 0.0, out=out)
    return np.add(out, t, out=out)


def _ref_put_index(a, index, shape):
    out = np.zeros(shape, dtype=a.dtype)
    view = ops._basic_view(out, index)
    if view is not None:
        np.add(view, a, out=view)
    else:
        np.add.at(out, index, a)
    return out


_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3)


def _values(data, dtype, shape):
    """Drawn values: any float of ``dtype`` (±0.0, ±inf and NaNs included)."""
    return data.draw(hnp.arrays(dtype, shape, elements=st.floats(width=8 * np.dtype(dtype).itemsize)))


def _draw_elementwise(data, dtype):
    a = _values(data, dtype, data.draw(_SHAPES))
    return [a], {}


def _draw_pow(data, dtype):
    arrays, _ = _draw_elementwise(data, dtype)
    return arrays, {"exponent": data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 2.5]))}


def _draw_slope(data, dtype):
    arrays, _ = _draw_elementwise(data, dtype)
    return arrays, {"negative_slope": data.draw(st.sampled_from([0.1, 1.5]))}


def _draw_pair(data, dtype):
    shape = data.draw(_SHAPES)
    other = data.draw(st.sampled_from([shape, shape[1:], ()]))
    return [_values(data, dtype, shape), _values(data, dtype, other)], {}


def _draw_sum(data, dtype):
    shape = data.draw(_SHAPES)
    ndim = len(shape)
    axes = [None]
    if ndim:
        axes += [data.draw(st.integers(-ndim, ndim - 1)),
                 tuple(data.draw(st.lists(st.integers(0, ndim - 1), min_size=1, unique=True)))]
    kwargs = {"axis": data.draw(st.sampled_from(axes)), "keepdims": data.draw(st.booleans()),
              "initial": data.draw(st.sampled_from([0.0, -0.0]))}
    return [_values(data, dtype, shape)], kwargs


def _draw_put_index(data, dtype):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4))
    if data.draw(st.booleans()):  # basic: a slice or an integer per leading axis
        index = tuple(data.draw(st.one_of(st.integers(0, d - 1), st.builds(slice, st.integers(0, d - 1))))
                      for d in shape[:data.draw(st.integers(1, len(shape)))])
    else:  # advanced, rows repeated
        rows = data.draw(st.lists(st.integers(0, shape[0] - 1), min_size=2, max_size=5))
        index = (rows + rows[:1],)
    a = _values(data, dtype, np.zeros(shape)[index].shape)
    return [a], {"index": index, "shape": shape}


def _draw_broadcast(data, dtype):
    shape = data.draw(_SHAPES)
    source = data.draw(st.sampled_from([shape, shape[1:], (1,) * len(shape), ()]))
    return [_values(data, dtype, source)], {"shape": shape}


def _draw_concatenate(data, dtype):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=3))
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    parts = []
    for _ in range(data.draw(st.integers(1, 3))):
        part = list(shape)
        part[axis] = data.draw(st.integers(1, 3))
        parts.append(_values(data, dtype, tuple(part)))
    return parts, {"axis": axis}


def _draw_pad(data, dtype):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=3))
    widths = tuple(tuple(data.draw(st.lists(st.integers(0, 2), min_size=2, max_size=2))) for _ in shape)
    return [_values(data, dtype, shape)], {"pad_width": widths}


#: ``op class -> (draw(data, dtype) -> (operands, kwargs), reference(*operands, **kwargs))``.
KERNEL_REFERENCES = {
    ops.Pow: (_draw_pow, _ref_pow),
    ops.ReLU: (_draw_elementwise, _ref_relu),
    ops.LeakyReLU: (_draw_slope, lambda a, negative_slope: a * _ref_leaky_relu_mask(a, negative_slope)),
    ops.LeakyReLUMask: (_draw_slope, _ref_leaky_relu_mask),
    ops.Sigmoid: (_draw_elementwise, _ref_sigmoid),
    ops.Softplus: (_draw_elementwise, _ref_softplus),
    ops.GreaterMask: (_draw_pair, lambda a, b: (a > b).astype(a.dtype)),
    ops.GreaterEqualMask: (_draw_pair, lambda a, b: (a >= b).astype(a.dtype)),
    ops.LessEqualMask: (_draw_pair, lambda a, b: (a <= b).astype(a.dtype)),
    ops.Sum: (_draw_sum, get_backend().sum),
    ops.PutIndex: (_draw_put_index, _ref_put_index),
    ops.BroadcastTo: (_draw_broadcast, lambda a, shape: np.broadcast_to(a, shape).copy()),
    ops.Concatenate: (_draw_concatenate, lambda *arrays, axis: np.concatenate(arrays, axis=axis)),
    ops.Pad: (_draw_pad, lambda a, pad_width: np.pad(a, pad_width, mode="constant")),
}


class TestKernelsMatchTheirReferences:
    """Each op that became one kernel call computes, eagerly and through a
    compiled plan (out of place and in place over a dying intermediate),
    the bytes of the NumPy expression its forward used to be."""

    @pytest.mark.parametrize("cls", list(KERNEL_REFERENCES), ids=lambda cls: cls.__name__)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from([np.float64, np.float32]))
    def test_kernel_bytes(self, cls, data, dtype):
        draw, reference = KERNEL_REFERENCES[cls]
        arrays, kwargs = draw(data, dtype)
        one = np.ones((), dtype)
        variants = {
            "out of place": (lambda *ts: cls.apply(*ts, **kwargs), arrays),
            # x * 1.0 on both sides: it may quiet a signalling NaN.
            "in place": (lambda a, *ts: cls.apply(ops.mul(a, one), *ts, **kwargs),
                         [np.multiply(arrays[0], one), *arrays[1:]]),
        }
        with np.errstate(all="ignore"), no_grad():
            want = reference(*arrays, **kwargs)
            _assert_same_bytes(cls.apply(*map(Tensor, arrays), **kwargs).data, want, "eager")
            for label, (fn, inputs) in variants.items():
                want = reference(*inputs, **kwargs)
                cf = rc.compile_fn(fn)
                tensors = [Tensor(a) for a in arrays]
                cf(*tensors)                      # served by the trace
                _assert_same_bytes(cf(*tensors).data, want, label)
                plan = cf.plans[0]
                op = plan.program.nodes[-1].op
                assert type(op) is cls and plan.stats.n_fallback == 0
                fits = label == "in place" and want.shape == arrays[0].shape
                assert plan.stats.n_inplace == int(fits and op.inplace), label


class TestKernelExactness:
    """Fused lowerings whose natural fast form would diverge from eager."""

    def test_relu_matches_eager_including_zero_sign(self):
        x = Tensor(np.array([-3.0, -0.0, 0.0, 2.0, -1e-300]))
        cf = rc.compile_fn(lambda t: ops.relu(t))
        with no_grad():
            compiled = cf(x)
        eager = ops.relu(x)
        assert np.array_equal(eager.data, compiled.data)
        assert np.array_equal(np.signbit(eager.data), np.signbit(compiled.data))

    @pytest.mark.parametrize("slope", [0.01, 1.0, 1.5, -0.5])
    def test_leaky_relu_all_slopes_match_eager(self, slope):
        """One formula, ``a * where(a > 0, 1, slope)``, for every slope: no
        slope takes the eager fallback, and none diverges."""
        x = Tensor(np.random.default_rng(0).standard_normal(128))
        cf = rc.compile_fn(lambda t: ops.leaky_relu(t, slope))
        with no_grad():
            cf(x)
            compiled = cf(x)
        assert np.array_equal(ops.leaky_relu(x, slope).data, compiled.data)
        assert cf.plans[0].stats.n_fallback == 0

    def test_live_buffer_constants_are_not_folded(self):
        """Eval-mode BatchNorm arithmetic on running statistics is all-constant
        at trace time, but the statistics are *live* module state: an
        in-place update (load_state_dict writes in place) must reach
        replays, so folding may not snapshot them.  Nor may value numbering
        treat the two layers' byte-equal statistics as one value: only the
        second layer's are updated, and the replay must follow."""
        bn = nn.Sequential(nn.BatchNorm3d(3), nn.BatchNorm3d(3)).eval()
        cm = rc.compile(bn)
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 2, 4, 4)))
        with inference_mode():
            first = cm(x)
            assert np.array_equal(bn(x).data, first.data)
            # in-place running-stat update, array identity unchanged
            bn[1].running_var[...] = bn[1].running_var * 3.0
            bn[1].running_mean[...] = bn[1].running_mean + 0.25
            second = cm(x)
            assert np.array_equal(bn(x).data, second.data)
        assert not np.array_equal(first.data, second.data)

    def test_unfreezing_a_parameter_invalidates_grad_plans(self):
        """A VJP traced while a parameter was frozen has no gradient output
        for it; un-freezing must re-trace, not silently skip."""
        sc, ds, pde, weights, compute_losses = TestCompiledTrainingStep._scenario_setup()
        m_eager, m_comp = sc.build_model("tiny"), sc.build_model("tiny")
        m_comp.load_state_dict(m_eager.state_dict())
        step = rc.CompiledTrainingStep(m_comp, pde, weights)
        batch = ds.sample_batch([0, 1], epoch=0)
        dt = m_eager.dtype
        frozen_e, frozen_c = m_eager.imnet.net[0].bias, m_comp.imnet.net[0].bias
        for trainable in (False, True):
            frozen_e.requires_grad = frozen_c.requires_grad = trainable
            m_eager.zero_grad()
            m_comp.zero_grad()
            total, bd_e = compute_losses(
                m_eager,
                Tensor(np.asarray(batch.lowres, dtype=dt)),
                Tensor(np.asarray(batch.coords, dtype=dt)),
                Tensor(np.asarray(batch.targets, dtype=dt)),
                pde, weights, coord_scales=batch.coord_scales)
            total.backward()
            assert step(batch) == bd_e
            assert (frozen_c.grad is not None) == trainable
            for (name, pe), pc in zip(m_eager.named_parameters(), m_comp.parameters()):
                assert (pe.grad is None) == (pc.grad is None), name
                assert pe.grad is None or np.array_equal(pe.grad, pc.grad), name
        stats = step.stats()
        assert stats["retraces"] == 2 and stats["n_plans"] == 1 and stats["fallbacks"] == {}


class TestValueNumbering:
    """The optimise stage's fourth pass: two nodes that are the same
    computation run once.  Every case compares values against eager, so it
    fails on a wrong merge, not only on a missing one."""

    @staticmethod
    def replay(fn, *arrays, copy_outputs=True):
        """``(replayed outputs, eager outputs, plan)`` of ``fn`` on fresh data."""
        cf = rc.compile_fn(fn, copy_outputs=copy_outputs)
        with no_grad():
            cf(*(Tensor(np.zeros_like(a)) for a in arrays))  # trace on other data
            compiled = cf(*(Tensor(a) for a in arrays))
            eager = fn(*(Tensor(a) for a in arrays))
        return compiled, eager, cf.plans[0]

    @pytest.mark.parametrize("copy_outputs", [True, False])
    def test_identical_ops_merge_and_both_outputs_are_right(self, copy_outputs):
        def fn(a, b):
            return ops.exp(a), ops.exp(a), ops.exp(b)

        rng = np.random.default_rng(0)
        compiled, eager, plan = self.replay(fn, rng.standard_normal(8), rng.standard_normal(8),
                                            copy_outputs=copy_outputs)
        assert plan.stats.n_merged == 1 and plan.stats.n_ops == 2
        assert plan.stats.n_ops == len(plan.program.nodes)
        for c, e in zip(compiled, eager):
            assert np.array_equal(c.data, e.data)
        # Copied outputs are independent arrays even when one value backs both.
        assert (compiled[0].data is compiled[1].data) == (not copy_outputs)

    @pytest.mark.parametrize("first, second", [
        (lambda a: ops.sum(a, axis=0), lambda a: ops.sum(a, axis=1)),
        (lambda a: ops.sum(a, axis=0), lambda a: ops.sum(a, axis=0, keepdims=True)),
        (lambda a: ops.pow(a, 2.0), lambda a: ops.pow(a, 3.0)),
        (lambda a: a[:, 0], lambda a: a[:, 1]),
        (lambda a: a[[0, 1]], lambda a: a[(0, 1)]),
        (lambda a: a[0:2], lambda a: a[0:2:1]),
        (lambda a: ops.transpose(a, (0, 1)), lambda a: ops.transpose(a, (1, 0))),
        (lambda a: ops.leaky_relu(a, 0.0), lambda a: ops.leaky_relu(a, -0.0)),
        (lambda a: ops.sum(a, axis=0), lambda a: ops.sum(a, axis=0, initial=-0.0)),
    ], ids=["sum-axis", "sum-keepdims", "pow", "getindex", "list-vs-tuple-index",
            "slice-step", "transpose", "signed-zero-slope", "sum-signed-zero-start"])
    def test_static_arguments_are_part_of_the_value_number(self, first, second):
        a = np.random.default_rng(1).standard_normal((4, 4))
        a[0, 0] = -1.0  # -1 * 0.0 and -1 * -0.0 differ in the sign bit

        def differ(x):
            return ops.mul(first(x), 1.0), ops.mul(second(x), 1.0)

        def same(x):
            return ops.mul(first(x), 1.0), ops.mul(first(x), 1.0)

        compiled, eager, plan = self.replay(differ, a)
        # Only the two coerced ``1.0`` scalars are one value.
        assert plan.stats.n_merged == 0
        for c, e in zip(compiled, eager):
            assert c.shape == e.shape and np.array_equal(c.data, e.data)
            assert np.array_equal(np.signbit(c.data), np.signbit(e.data))
        # The same static arguments merge: slices (unhashable before Python
        # 3.12), lists and tuples all have a key.
        compiled, eager, plan = self.replay(same, a)
        assert plan.stats.n_merged == 2
        for c, e in zip(compiled, eager):
            assert np.array_equal(c.data, e.data)

    @pytest.mark.parametrize("first, second", [
        (lambda x, g, s, sg, sgx: nn_ops.BatchNorm.apply(x, s, eps=1e-5),
         lambda x, g, s, sg, sgx: nn_ops.BatchNorm.apply(x, s, eps=1e-3)),
        (lambda x, g, s, sg, sgx: nn_ops.BatchNormGradWeight.apply(x, g, s, eps=1e-5),
         lambda x, g, s, sg, sgx: nn_ops.BatchNormGradWeight.apply(x, g, s, eps=1e-3)),
        (lambda x, g, s, sg, sgx: nn_ops.BatchNormGradInput.apply(x, g, s, sg, sgx, eps=1e-5),
         lambda x, g, s, sg, sgx: nn_ops.BatchNormGradInput.apply(x, g, s, sg, sgx, eps=1e-3)),
        (lambda x, g, s, sg, sgx: nn_ops.BatchNormRunningStat.apply(s, sg, momentum=0.1, variance=False),
         lambda x, g, s, sg, sgx: nn_ops.BatchNormRunningStat.apply(s, sg, momentum=0.2, variance=False)),
        (lambda x, g, s, sg, sgx: nn_ops.BatchNormRunningStat.apply(s, sg, momentum=0.1, variance=False),
         lambda x, g, s, sg, sgx: nn_ops.BatchNormRunningStat.apply(s, sg, momentum=0.1, variance=True)),
    ], ids=["batch-norm-eps", "grad-weight-eps", "grad-input-eps", "running-momentum",
            "running-moment"])
    def test_batch_norm_static_arguments_are_part_of_the_value_number(self, first, second):
        """The batch-norm primitives over one shared set of operands: two
        applications merge exactly when their static arguments agree."""
        rng = np.random.default_rng(3)
        x, g = rng.standard_normal(_X), rng.standard_normal(_X)

        def operands(x, g):
            stats = nn_ops.BatchStats.apply(x)
            return (x, g, stats, ops.sum(g, axis=(0, 2, 3, 4)),
                    nn_ops.BatchNormGradWeight.apply(x, g, stats, eps=1e-5))

        def differ(x, g):
            shared = operands(x, g)
            return first(*shared), second(*shared)

        def same(x, g):
            shared = operands(x, g)
            return first(*shared), first(*shared)

        compiled, eager, plan = self.replay(differ, x, g)
        assert plan.stats.n_merged == 0
        for c, e in zip(compiled, eager):
            assert c.data.tobytes() == e.data.tobytes()
        assert not np.array_equal(compiled[0].data, compiled[1].data)
        compiled, eager, plan = self.replay(same, x, g)
        assert plan.stats.n_merged == 1
        for c, e in zip(compiled, eager):
            assert c.data.tobytes() == e.data.tobytes()

    def test_byte_equal_linear_layers_stay_distinct(self):
        """Two layers initialised alike are two values: an in-place optimizer
        update of one must reach the replay, and only that layer's output."""
        class Twin(nn.Module):
            def __init__(self):
                super().__init__()
                self.a, self.b = nn.Linear(4, 4), nn.Linear(4, 4)
                for pa, pb in zip(self.a.parameters(), self.b.parameters()):
                    pb.data[...] = pa.data

            def forward(self, x):
                return ops.sub(ops.mul(self.a(x), 2.0), self.b(x))

        twin = Twin()
        cm = rc.compile(twin)
        x = Tensor(np.random.default_rng(2).standard_normal((3, 4)))
        with inference_mode():
            cm(x)
            assert cm.plans[0].stats.n_merged == 0
            for p in twin.b.parameters():
                p.data[...] = p.data * 0.5
            assert np.array_equal(cm(x).data, twin(x).data)
        assert cm.stats()["n_plans"] == 1

    def test_live_scalar_constants_are_not_interned(self):
        """0-d constants merge by bytes only when a pass may snapshot them:
        not a Parameter (flagged at capture, so even ``compile_fn``, which is
        told of no live array, keeps them apart), not a pinned buffer."""
        class Gains(nn.Module):
            def __init__(self):
                super().__init__()
                self.register_buffer("g1", np.array(2.0))
                self.register_buffer("g2", np.array(2.0))
                self.p1, self.p2 = nn.Parameter(np.array(3.0)), nn.Parameter(np.array(3.0))

            def forward(self, x):
                buffers = ops.add(ops.mul(x, Tensor(self.g1)), ops.mul(x, Tensor(self.g2)))
                return ops.sub(buffers, self.scaled_by_parameters(x))

            def scaled_by_parameters(self, x):
                return ops.add(ops.mul(x, self.p1), ops.mul(x, self.p2))

        gains = Gains()
        x = Tensor(np.random.default_rng(3).standard_normal(6))
        for wrapper, eager in ((rc.compile(gains), gains),
                               (rc.compile_fn(gains.scaled_by_parameters),
                                gains.scaled_by_parameters)):
            gains.g2[...], gains.p2.data[...] = gains.g1, gains.p1.data  # byte-equal again
            with inference_mode():
                wrapper(x)
                assert wrapper.plans[0].stats.n_merged == 0
                gains.g2[...] = gains.g2 + 3.0
                gains.p2.data[...] = gains.p2.data + 4.0
                assert np.array_equal(wrapper(x).data, eager(x).data)
            assert wrapper.stats()["n_plans"] == 1

    def test_equal_scalars_of_different_dtype_stay_distinct(self):
        def fn(a):
            return (ops.mul(a, Tensor(np.float32(1.0))), ops.mul(a, Tensor(np.float64(1.0))),
                    ops.mul(a, Tensor(np.float32(1.0))))

        a = np.random.default_rng(4).standard_normal(5).astype(np.float32)
        compiled, eager, plan = self.replay(fn, a)
        assert plan.stats.n_merged == 1  # the two float32 products, nothing else
        assert [c.dtype for c in compiled] == [e.dtype for e in eager] \
            == [np.float32, np.float64, np.float32]
        for c, e in zip(compiled, eager):
            assert np.array_equal(c.data, e.data)

    def test_merged_value_is_not_overwritten_by_its_first_consumer(self):
        """``exp`` could write over its dying operand ``s1`` — but after the
        merge ``s1`` is also ``s2``, read later.  Liveness runs on the merged
        program, so the value survives; still no allocation at run time."""
        def fn(a):
            s1, s2 = ops.sigmoid(a), ops.sigmoid(a)
            return ops.add(ops.exp(s1), ops.neg(s2))

        compiled, eager, plan = self.replay(fn, np.random.default_rng(5).standard_normal((3, 7)))
        assert plan.stats.n_merged == 1
        assert np.array_equal(compiled.data, eager.data)
        assert plan.stats.n_inplace == 2  # neg over the merged value, add over exp's
        assert plan.stats.n_fallback == 0 and plan.runtime_allocs == 0

    def test_nodes_with_unkeyable_arguments_are_left_alone(self):
        """An op constructed with a live object has no value-numbering key:
        two identical applications both stay in the program and both run."""
        class Scaler:
            def __init__(self):
                self.calls = 0

            def __call__(self, array):
                self.calls += 1
                return array * 3.0

        class ApplyLive(Op):
            def __init__(self, scaler):
                self.scaler = scaler

            def forward(self, a):
                return self.scaler(a)

        scaler = Scaler()

        def fn(a):
            return ApplyLive.apply(a, scaler=scaler), ApplyLive.apply(a, scaler=scaler)

        a = np.random.default_rng(6).standard_normal(5)
        program, _, _ = rc.trace(fn, Tensor(np.zeros_like(a)))
        plan = rc.compile_program(program)
        assert [n.op_name for n in plan.program.nodes] == ["ApplyLive", "ApplyLive"]
        assert plan.stats.n_merged == 0
        scaler.calls = 0
        for out in plan.run(a):
            assert np.array_equal(out, a * 3.0)
        assert scaler.calls == 2


def _square_builders(n):
    """The ``LOWERING_CASES`` builders whose operands fit ``(n, n)``, by operand count.

    A case fits when its builder maps ``(n, n)`` operands to a value that
    broadcasts to ``(n, n)``; as a DAG node the value is broadcast back (so
    reductions join), and a positive-domain case reads ``|a| + 0.5``.
    """
    def node(build, positive):
        def apply(*xs):
            y = build(*(ops.add(ops.abs(x), 0.5) if positive else x for x in xs))
            return y if y.shape == (n, n) else ops.broadcast_to(y, (n, n))
        return apply

    square = Tensor(np.ones((n, n)))
    builders = {1: [], 2: []}
    for cases in LOWERING_CASES.values():
        for build, shapes, positive in cases:
            try:
                with no_grad():
                    fits = np.broadcast_shapes(build(*[square] * len(shapes)).shape, (n, n)) == (n, n)
            except (ValueError, IndexError):  # shapes that do not fit
                continue
            if fits:
                builders[len(shapes)].append(node(build, positive))
    return builders


class TestGeneratedPrograms:
    """Random DAGs over two inputs: every node draws its operands from *all*
    earlier values, so duplicate nodes and shared subexpressions occur by
    construction.  Every value stays ``(N, N)`` so any builder composes with
    any operand; the builders are the lowering cases that fit, plus views."""

    N = 4
    UNARY = [*_square_builders(N)[1],
             # views
             ops.transpose, lambda a: a[::-1], lambda a: a[:, ::-1],
             lambda a: ops.reshape(ops.reshape(a, (-1,)), a.shape)]
    BINARY = _square_builders(N)[2]

    @classmethod
    def draw_dag(cls, data):
        """A drawn DAG (``(builder, operand indices)`` per node) and the
        indices of the nodes chosen as outputs."""
        nodes = st.one_of(
            st.tuples(st.sampled_from(cls.UNARY), st.tuples(st.integers(0, 13))),
            st.tuples(st.sampled_from(cls.BINARY), st.tuples(st.integers(0, 13), st.integers(0, 13))))
        dag = data.draw(st.lists(nodes, min_size=4, max_size=12))
        outputs = data.draw(st.lists(st.integers(0, len(dag) - 1), min_size=1, max_size=4,
                                     unique=True))
        return dag, outputs

    @staticmethod
    def build(dag, outputs):
        """The traced function of a drawn DAG: the chosen values, then the
        gradients of their sum with respect to both inputs."""
        def fn(a, b):
            values = [a, b]
            for builder, operands in dag:
                values.append(builder(*(values[i % len(values)] for i in operands)))
            chosen = [values[2 + i] for i in outputs]
            total = chosen[0].sum()
            for value in chosen[1:]:
                total = ops.add(total, value.sum())
            return (*chosen, *grad(total, [a, b], create_graph=True, allow_unused=True))

        return fn

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), policy=st.sampled_from(["float64", "float32"]))
    def test_compiled_dag_matches_eager(self, data, policy):
        dag, outputs = self.draw_dag(data)
        fn = self.build(dag, outputs)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        cf = rc.compile_fn(fn)
        with precision(policy), np.errstate(all="ignore"):
            def inputs():
                return [Tensor(rng.uniform(-1, 1, (self.N, self.N)).astype(policy),
                               requires_grad=True) for _ in range(2)]

            cf(*inputs())  # traces on other data
            xs = inputs()
            compiled, eager = cf(*xs), fn(*xs)
        plan = cf.plans[0]
        assert plan.stats.n_fallback == 0 and plan.runtime_allocs == 0
        for c, e in zip(compiled, eager):
            assert (c is None) == (e is None)
            if e is not None:
                assert c.dtype == e.dtype
                assert np.array_equal(c.data, e.data, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), policy=st.sampled_from(["float64", "float32"]))
    def test_masked_leaves_get_the_gradients_of_the_full_graph(self, data, policy):
        """The eager tape against itself: backward rules skip the gradient of
        an input that does not require one, so a graph in which only some
        leaves require grad must hand those leaves, bit for bit, what the
        same graph computes when every leaf does — in a first-order sweep
        and in a second ``grad`` through a ``create_graph=True`` one."""
        n_leaves = 3
        dag, outputs = self.draw_dag(data)
        mask = data.draw(st.lists(st.booleans(), min_size=n_leaves, max_size=n_leaves)
                         .filter(lambda m: any(m) and not all(m)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        arrays = [rng.uniform(-1, 1, (self.N, self.N)).astype(policy) for _ in range(n_leaves)]

        def sweep(requires_grad):
            leaves = [Tensor(a, requires_grad=r) for a, r in zip(arrays, requires_grad)]
            values = list(leaves)
            for builder, operands in dag:
                values.append(builder(*(values[i % len(values)] for i in operands)))
            total = values[n_leaves + outputs[0]].sum()
            for i in outputs[1:]:
                total = ops.add(total, values[n_leaves + i].sum())
            wanted = [leaf for leaf, m in zip(leaves, mask) if m]
            first = grad(total, wanted)
            again = grad(total, wanted, create_graph=True)
            live = [g for g in again if g is not None and g.requires_grad]
            second = (grad(ops.sum(ops.concatenate(live)), wanted) if live
                      else (None,) * len(wanted))
            return (*first, *again, *second)

        with precision(policy), np.errstate(all="ignore"):
            masked, full = sweep(mask), sweep([True] * n_leaves)
        for m, f in zip(masked, full):
            assert (m is None) == (f is None)
            if f is not None:
                assert m.dtype == f.dtype
                assert np.array_equal(m.data, f.data, equal_nan=True)


class TestPlanCache:
    def test_hit_on_repeat_and_miss_on_shape_change(self):
        cm = rc.compile(make_imnet())
        with inference_mode():
            cm(decoder_input((2, 64, 9)))        # miss: served by the trace
            cm(decoder_input((2, 64, 9), seed=2))
            stats = cm.stats()
            assert stats["n_plans"] == 1 and stats["plan_hits"] == 1
            cm(decoder_input((2, 33, 9)))
            assert cm.stats()["n_plans"] == 2

    def test_per_policy_plans(self):
        """The same wrapper serves both policies with separate plans."""
        imnet64 = make_imnet()
        cm = rc.compile(imnet64)
        with inference_mode():
            cm(decoder_input())
            with precision("float32"):
                # float64 weights + float32 input: eager promotes; the plan
                # must be traced under the float32 policy key, not reuse the
                # float64 plan.
                x32 = decoder_input(dtype=np.float32, seed=11)
                out = cm(x32)
                assert np.array_equal(out.data, imnet64(x32).data)
        assert cm.stats()["n_plans"] == 2

    def test_invalidation_on_weight_rebind(self):
        # Built explicitly float64 so the float32 cast below re-materialises
        # the weights under any ambient policy (a same-dtype cast is a no-op).
        imnet = make_imnet("float64")
        cm = rc.compile(imnet)
        with inference_mode():
            cm(decoder_input())
            assert cm.stats()["n_plans"] == 1
            imnet.astype("float32")  # re-materialises every parameter array
            x32 = decoder_input(dtype=np.float32, seed=12)
            with precision("float32"):
                out = cm(x32)
                assert np.array_equal(out.data, imnet(x32).data)
        stats = cm.stats()
        assert stats["n_plans"] == 1  # old plan dropped, one fresh plan

    def test_invalidation_on_mode_flip(self):
        imnet = make_imnet()
        cm = rc.compile(imnet)
        with inference_mode():
            cm(decoder_input())
        imnet.train()
        with inference_mode():
            cm(decoder_input())
        assert cm.stats()["n_plans"] == 1  # re-traced under the new mode

    def test_lru_bound(self):
        cm = rc.compile(make_imnet(), max_plans=2)
        with inference_mode():
            for n in (8, 16, 24):
                cm(decoder_input((1, n, 9), seed=n))
        assert cm.stats()["n_plans"] == 2

    def test_grad_fallback_without_backward(self):
        imnet = make_imnet()
        cm = rc.compile(imnet)  # backward=False
        x = decoder_input(seed=13, requires_grad=True)
        g = grad(ops.sum(cm(x)), x)  # must fall back eagerly, not break
        assert np.array_equal(g.data, grad(ops.sum(imnet(x)), x).data)
        assert cm.stats()["eager_calls"] >= 1 and cm.stats()["n_plans"] == 0

    def test_impure_modules_rejected(self):
        dropout_net = nn.Sequential(nn.Linear(4, 4), nn.Dropout(0.5))
        with pytest.raises(ValueError, match="Dropout"):
            rc.compile(dropout_net)
        bn = nn.Sequential(nn.BatchNorm3d(3))
        with pytest.raises(ValueError, match="BatchNorm"):
            rc.compile(bn)
        rc.compile(bn.eval())  # fine in eval mode


class TestAllocationRegression:
    #: Steady-state budget: one NumPy buffered-iteration scratch
    #: (``np.getbufsize()`` elements, ~64 KB, constant in the problem size —
    #: ufuncs use it for broadcast operands such as bias rows even with
    #: ``out=``) plus Python-object noise.  Any arena rot shows up as
    #: per-op *intermediate* arrays, which at the test size are ~2 MB each.
    STEADY_STATE_BUDGET = 192 * 1024

    def test_steady_state_decode_allocates_nothing(self):
        """The buffer-arena pin: a warmed compiled ImNet decode step must not
        allocate arrays — neither plan-reported fallback allocations nor
        tracemalloc peaks beyond the constant NumPy-internal budget."""
        imnet = make_imnet()
        cm = rc.compile(imnet, copy_outputs=False)
        x = decoder_input((4, 4096, 9), seed=14)
        with inference_mode():
            cm(x)  # warm: trace + arena allocation
            plan = cm.plans[0]
            before = plan.runtime_allocs
            tracemalloc.start()
            for _ in range(3):
                cm(x)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert plan.runtime_allocs == before  # no fallback allocations
        assert peak < self.STEADY_STATE_BUDGET, f"compiled decode allocated {peak} bytes"

    def test_eager_same_step_allocates_orders_more(self):
        """Companion measurement keeping the pin honest: the same workload on
        the eager tape allocates an intermediate per primitive — far above
        the compiled budget, so the threshold separates the two regimes."""
        imnet = make_imnet()
        x = decoder_input((4, 4096, 9), seed=14)
        with inference_mode():
            imnet(x)
            tracemalloc.start()
            for _ in range(3):
                imnet(x)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak > 8 * self.STEADY_STATE_BUDGET

    def test_fused_chain_and_arena_stats(self):
        cm = rc.compile(make_imnet(), copy_outputs=False)
        with inference_mode():
            cm(decoder_input())
        stats = cm.plans[0].stats
        assert stats.n_fallback == 0
        assert stats.n_inplace >= 5          # bias adds + activations fused
        assert stats.n_buffers <= 3          # whole MLP flows through <= 3 buffers
        assert stats.arena_bytes > 0

    def test_derivative_plan_folds_and_eliminates(self):
        imnet = make_imnet()
        fn = TestDerivativeEquivalence.derivative_stack(imnet)
        cf = rc.compile_fn(fn)
        cf(decoder_input((1, 32, 9), seed=4, requires_grad=True))
        stats = cf.plans[0].stats
        assert stats.n_folded > 0            # constant grad seeds fold away
        assert stats.n_dead > 0              # unused forward tail eliminated
        assert stats.n_fallback == 0


class TestPowLowering:
    """Satellite: small integer exponents route through multiplies."""

    def test_values_match_multiplies(self):
        x = Tensor(np.random.default_rng(0).standard_normal(64))
        assert np.array_equal(ops.pow(x, 2.0).data, (x.data * x.data))
        assert np.array_equal(ops.pow(x, 3.0).data, (x.data * x.data) * x.data)
        assert np.array_equal(ops.pow(x, 1.0).data, x.data)
        positive = ops.abs(x)
        assert np.array_equal(ops.pow(positive, 0.5).data, np.sqrt(positive.data))

    @pytest.mark.parametrize("exponent", [2.0, 3.0, 1.0])
    def test_gradients_match_closed_form(self, exponent):
        x = Tensor(np.random.default_rng(1).standard_normal(32), requires_grad=True)
        g = grad(ops.sum(ops.pow(x, exponent)), x)
        expected = exponent * x.data ** (exponent - 1.0)
        assert np.allclose(g.data, expected, rtol=1e-12, atol=0)

    def test_second_order_still_works(self):
        x = Tensor(np.random.default_rng(2).standard_normal(16), requires_grad=True)
        g1 = grad(ops.sum(ops.pow(x, 3.0)), x, create_graph=True)
        g2 = grad(ops.sum(g1), x)
        assert np.allclose(g2.data, 6.0 * x.data, rtol=1e-12, atol=1e-12)


class TestFusionTier:
    """The codegen fusion tier: elementwise regions become one generated
    callable each, with replays bit-identical and allocation-free."""

    def test_decode_plan_has_codegen_regions(self):
        imnet = make_imnet()
        cm = rc.compile(imnet, copy_outputs=False)
        x = decoder_input()
        with inference_mode():
            y = cm(x)
            plan = cm.plans[0]
            stats = plan.stats
            assert stats.n_codegen_regions >= 1
            # Regions are maximal elementwise runs of any length >= 1.
            assert stats.n_codegen_ops >= stats.n_codegen_regions
            assert any(name.startswith("fused[") for name in plan.step_names)
            assert np.array_equal(y.data, imnet(x).data)

    def test_fused_regions_bitwise_equal_across_replays(self):
        imnet = make_imnet()
        cm = rc.compile(imnet, copy_outputs=True)
        xs = [decoder_input(seed=s) for s in (3, 4, 5)]
        with inference_mode():
            compiled = [cm(x).data for x in xs]
            eager = [imnet(x).data for x in xs]
        assert cm.plans[0].stats.n_codegen_regions >= 1
        for c, e in zip(compiled, eager):
            assert np.array_equal(c, e)

    def test_fused_regions_steady_state_allocates_nothing(self):
        """PR 5's arena pin, extended to the codegen tier: a warmed plan
        *containing generated regions* must stay allocation-free."""
        imnet = make_imnet()
        cm = rc.compile(imnet, copy_outputs=False)
        x = decoder_input((4, 4096, 9), seed=14)
        with inference_mode():
            cm(x)  # warm: trace + arena + region compilation
            plan = cm.plans[0]
            assert plan.stats.n_codegen_regions >= 1
            before = plan.runtime_allocs
            tracemalloc.start()
            for _ in range(3):
                cm(x)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert plan.runtime_allocs == before
        assert peak < TestAllocationRegression.STEADY_STATE_BUDGET, \
            f"fused-region replay allocated {peak} bytes"


class _Doubled(Op):
    """No lowering-table entry: the plan runs it as an eager fallback step."""

    def forward(self, a):
        return a * 2.0


class TestBoundViews:
    """A view of an arena buffer or a constant is bound once at compile time;
    a view of a plan input or of a fallback output (a fresh array each run)
    is rebound by a step on every replay."""

    @staticmethod
    def _program(x, c):
        per_run_input = ops.reshape(x, (6, 4))             # view of a plan input
        bound_arena = ops.transpose(ops.mul(x, 3.0))       # view of an arena buffer
        bound_constant = ops.reshape(c, (6, 4))            # view of a constant
        per_run_fallback = ops.reshape(_Doubled.apply(x), (6, 4))  # view of a fallback output
        return ops.add(ops.add(per_run_input, ops.reshape(bound_arena, (6, 4))),
                       ops.mul(bound_constant, per_run_fallback))

    def test_per_run_views_rebind_on_every_replay(self):
        c = nn.Parameter(np.random.default_rng(1).standard_normal((4, 6)))  # live: never folded
        cf = rc.compile_fn(lambda x: self._program(x, c), copy_outputs=True)
        xs = [Tensor(np.random.default_rng(seed).standard_normal((4, 6))) for seed in (2, 3, 4)]
        with no_grad():
            for x in xs:
                assert np.array_equal(cf(x).data, self._program(x, c).data)
            for x in reversed(xs):  # replays on earlier data see that data, not the last run's
                assert np.array_equal(cf(x).data, self._program(x, c).data)
            c.data *= -0.5  # an in-place update shows through the bound view
            assert np.array_equal(cf(xs[0]).data, self._program(xs[0], c).data)
        plan = cf.plans[0]
        assert plan.stats.n_views == 5 and plan.stats.n_fallback == 1
        # Only the two views over fresh arrays are steps.
        assert [n for n in plan.step_names if n.startswith("view:")] == ["view:Reshape"] * 2

    def test_bound_views_do_not_end_a_fused_run(self):
        def f(x):
            y = ops.reshape(ops.exp(x), (6, 4))  # a bound view between two elementwise ops
            return ops.sin(ops.mul(y, 2.0))

        cf = rc.compile_fn(f, copy_outputs=True)
        x = Tensor(np.random.default_rng(5).standard_normal((4, 6)))
        with no_grad():
            cf(x)
            assert np.array_equal(cf(x).data, f(x).data)
        plan = cf.plans[0]
        assert plan.step_names == ["fused[3]"]
        assert plan.stats.n_codegen_regions == 1 and plan.runtime_allocs == 0

    def test_step_names_match_steps_under_profiling(self):
        c = nn.Parameter(np.random.default_rng(1).standard_normal((4, 6)))
        cf = rc.compile_fn(lambda x: self._program(x, c), copy_outputs=True)
        x = Tensor(np.random.default_rng(6).standard_normal((4, 6)))
        with no_grad():
            cf(x)  # served by the trace
            plan = cf.plans[0]
            assert len(plan.step_names) == len(plan._steps)
            with obs.observed(trace=False, profile_kernels=True):
                cf(x)
                counts = {name: h.count for name, h in plan._kernel_hists.items()}
                cf(x)
        deltas = {name: h.count - counts[name] for name, h in plan._kernel_hists.items()}
        assert deltas == collections.Counter(plan.step_names)


class TestDump:
    """Program and plan pretty-printers: ops, liveness, buffers, regions."""

    def test_program_dump_lists_ops_and_liveness(self):
        def f(a, b):
            return ops.mul(ops.add(a, b), b)

        program, _, _ = rc.trace(
            f, Tensor(np.ones(4)), Tensor(np.full(4, 2.0)))
        text = program.dump()
        assert "Add" in text and "Mul" in text
        assert "dies@" in text
        assert "output" in text

    def test_plan_dump_shows_buffers_and_regions(self):
        cm = rc.compile(make_imnet(), copy_outputs=False)
        with inference_mode():
            cm(decoder_input())
        text = cm.plans[0].dump()
        assert "arena:" in text
        assert "buf[" in text
        assert "region=" in text
        assert "regions)" in text  # header counts fused regions


class TestFallbackWarnings:
    """Eager degradation is never silent: one warning per (wrapper, reason),
    per-call counts in ``stats()`` and the metrics registry."""

    def test_unsupported_grad_fallback_warns_once_and_counts(self):
        imnet = make_imnet()
        cm = rc.compile(imnet)  # backward=False: grads are the opt-out
        x = decoder_input(seed=13, requires_grad=True)
        with pytest.warns(rc.CompileFallbackWarning, match="unsupported"):
            grad(ops.sum(cm(x)), x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            grad(ops.sum(cm(x)), x)
        assert cm.stats()["fallbacks"] == {"unsupported": 2}

    def test_trace_failure_warns_and_counts(self):
        def hostile(a):
            raise RuntimeError("untraceable")

        cf = rc.compile_fn(hostile)
        with pytest.raises(RuntimeError):
            with pytest.warns(rc.CompileFallbackWarning, match="trace-failure"):
                cf(Tensor(np.ones(3)))
        assert cf.stats()["fallbacks"]["trace-failure"] == 1

    def test_fallback_counts_reach_metrics_registry(self):
        from repro.obs.metrics import REGISTRY

        imnet = make_imnet()
        cm = rc.compile(imnet)
        x = decoder_input(seed=13, requires_grad=True)
        with pytest.warns(rc.CompileFallbackWarning):
            grad(ops.sum(cm(x)), x)
        snap = REGISTRY.snapshot()["gauges"]
        keys = [k for k in snap
                if k.startswith("compile.fallbacks{") and 'reason="unsupported"' in k]
        assert keys, f"no fallback gauge in {sorted(snap)[:10]}..."
        assert any(snap[k] >= 1 for k in keys)


class TestCompiledTrainingStep:
    """The full physics-constrained training step as one compiled program."""

    @staticmethod
    def _scenario_setup():
        from repro.core.losses import LossWeights, compute_losses
        from repro.scenarios import get_scenario

        sc = get_scenario("rayleigh_benard")
        hr = sc.generate(nt=8, nz=8, nx=16, seed=7)
        ds = sc.make_dataset(results=hr, lr_factors=(2, 2, 2),
                             crop_shape_lr=(2, 4, 4), n_points=8,
                             samples_per_epoch=8, seed=0)
        return sc, ds, sc.make_pde_system(), LossWeights(gamma=0.0125), compute_losses

    def test_equation_loss_step_bitwise_equal(self):
        """Losses, per-constraint norms, every parameter gradient and every
        BatchNorm running-stat write of a *replayed* compiled step match
        the eager loss + ``backward()`` sequence bit-for-bit."""
        sc, ds, pde, weights, compute_losses = self._scenario_setup()
        m_eager, m_comp = sc.build_model("tiny"), sc.build_model("tiny")
        for pe, pc in zip(m_eager.parameters(), m_comp.parameters()):
            pc.data[...] = pe.data
        step = rc.CompiledTrainingStep(m_comp, pde, weights, loss_scale=0.5)
        for call in range(3):  # call 0 traces, 1..2 replay
            batch = ds.sample_batch([2 * call, 2 * call + 1], epoch=0)
            m_eager.zero_grad()
            m_comp.zero_grad()
            dt = m_eager.dtype
            total, bd_e = compute_losses(
                m_eager,
                Tensor(np.asarray(batch.lowres, dtype=dt)),
                Tensor(np.asarray(batch.coords, dtype=dt), requires_grad=True),
                Tensor(np.asarray(batch.targets, dtype=dt)),
                pde, weights, coord_scales=batch.coord_scales)
            (total * 0.5).backward()
            bd_c = step(batch)
            assert (bd_e.total, bd_e.prediction, bd_e.equation) == \
                   (bd_c.total, bd_c.prediction, bd_c.equation)
            assert bd_e.per_constraint == bd_c.per_constraint
            for pe, pc in zip(m_eager.parameters(), m_comp.parameters()):
                assert (pe.grad is None) == (pc.grad is None)
                if pe.grad is not None:
                    assert np.array_equal(pe.grad, pc.grad)
            for me, mc in zip(m_eager.modules(), m_comp.modules()):
                for be, bc in zip(me._buffers.values(), mc._buffers.values()):
                    assert np.array_equal(be, bc)
        stats = step.stats()
        assert stats["n_plans"] == 1
        assert stats["plan_hits"] == 2
        assert stats["fallbacks"] == {}

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    def test_value_numbered_step_runs_each_activation_once(self, policy):
        """The forward derivative pass asks for ``sigmoid(h)`` at every
        Softplus and the parameter VJP's ``Softplus.backward`` re-derives
        it; the optimised program keeps one per (corner, hidden layer) —
        and three steps of it are still eager's records, gradients and
        BatchNorm buffers, bit for bit."""
        with precision(policy):
            sc, ds, pde, weights, compute_losses = self._scenario_setup()
            m_eager, m_comp = sc.build_model("tiny"), sc.build_model("tiny")
            for pe, pc in zip(m_eager.parameters(), m_comp.parameters()):
                pc.data[...] = pe.data
            step = rc.CompiledTrainingStep(m_comp, pde, weights)
            dt = m_eager.dtype
            assert dt == np.dtype(policy)
            for call in range(3):  # call 0 traces, 1..2 replay
                batch = ds.sample_batch([2 * call, 2 * call + 1], epoch=0)
                m_eager.zero_grad()
                m_comp.zero_grad()
                total, bd_e = compute_losses(
                    m_eager,
                    Tensor(np.asarray(batch.lowres, dtype=dt)),
                    Tensor(np.asarray(batch.coords, dtype=dt), requires_grad=True),
                    Tensor(np.asarray(batch.targets, dtype=dt)),
                    pde, weights, coord_scales=batch.coord_scales)
                total.backward()
                assert step(batch) == bd_e
                for pe, pc in zip(m_eager.parameters(), m_comp.parameters()):
                    assert (pe.grad is None) == (pc.grad is None)
                    assert pe.grad is None or np.array_equal(pe.grad, pc.grad)
                for (_, be), (_, bc) in zip(m_eager.named_buffers(), m_comp.named_buffers()):
                    assert np.array_equal(be, bc)
        assert step.stats() == {**step.stats(), "n_plans": 1, "plan_hits": 2, "fallbacks": {}}
        plan = step.plans[0]
        names = [node.op_name for node in plan.program.nodes]
        # The eight corners go through the decoder in one pass.
        once_each = len(m_comp.config.imnet_hidden)  # one per hidden layer
        assert names.count("Sigmoid") == names.count("Softplus") == once_each
        s = plan.stats
        assert s.n_ops == len(names) == s.n_traced_ops - s.n_folded - s.n_dead - s.n_merged
        # One forward pass and one backward: the nested-grad step this
        # replaced traced 25 969 ops and replayed 10 420 at these shapes,
        # and a decoder pass per corner traced 3 291 and replayed 2 886.
        assert s.n_traced_ops <= 1500 and s.n_ops <= 1300
        assert names.count("MatMul") <= 48

    def test_equation_loss_step_is_one_plan_reaching_the_encoder(self):
        """With the equation loss on, the residuals' coordinate derivatives
        are part of the forward pass — one plan, no fallback, and gradients
        for the *encoder* parameters populated too."""
        sc, ds, pde, weights, _ = self._scenario_setup()
        model = sc.build_model("tiny")
        step = rc.CompiledTrainingStep(model, pde, weights)
        step(ds.sample_batch([0, 1], epoch=0))
        n_with_grad = sum(p.grad is not None for p in model.parameters())
        assert n_with_grad >= len(model.parameters()) - 2
        assert step.stats()["n_plans"] == 1
        assert step.stats()["fallbacks"] == {}

    def test_parameter_rebind_invalidates_plans(self):
        sc, ds, pde, weights, _ = self._scenario_setup()
        model = sc.build_model("tiny")
        step = rc.CompiledTrainingStep(model, pde, weights)
        batch = ds.sample_batch([0, 1], epoch=0)
        step(batch)
        assert step.stats()["n_plans"] == 1
        p = model.parameters()[0]
        p.data = p.data.copy()  # rebind: new array identity
        model.zero_grad()
        step(batch)
        stats = step.stats()
        assert stats["retraces"] == 2  # fingerprint change forced a re-trace

    def test_active_dropout_degrades_loudly_to_eager(self):
        sc, ds, pde, weights, _ = self._scenario_setup()
        model = sc.build_model("tiny")
        model.imnet.net = nn.Sequential(nn.Dropout(0.5), model.imnet.net)
        step = rc.CompiledTrainingStep(model, pde, weights)
        batch = ds.sample_batch([0, 1], epoch=0)
        with pytest.warns(rc.CompileFallbackWarning, match="impure"):
            bd = step(batch)
        assert np.isfinite(bd.total)
        stats = step.stats()
        assert stats["n_plans"] == 0
        assert stats["fallbacks"]["impure"] == 1


class TestTrainingPlanCounts:
    """Deterministic gate on the compiled ``train-eqloss`` plan: the
    benchmark workload's trainer (tiny model, ``gamma = 0.0125``, 2 nodes x
    2 ranks, batch 2, 128 points, ``(4, 4, 8)`` crops of a ``(16, 16, 32)``
    simulation) at seed 3, built here through the package's own APIs."""

    #: The plan's counts before every lowered op's kernel moved onto its op
    #: class; none of them may get worse.
    FALLBACKS, ALLOCS_PER_REPLAY, STEPS = 41, 41, 345
    INPLACE, ARENA_BYTES = 204, 16_527_896

    def test_counts_are_no_worse(self):
        from repro.scenarios import get_scenario

        sc = get_scenario("rayleigh_benard")
        data = sc.generate(seed=3, nt=16, nz=16, nx=32)
        dataset = sc.make_dataset(data, lr_factors=(2, 2, 2), crop_shape_lr=(4, 4, 8),
                                  n_points=128, samples_per_epoch=256)
        model = sc.build_model("tiny")
        model.train()
        config = TrainerConfig(batch_size=2, world_size=4, nodes=2, gamma=0.0125,
                               learning_rate=1e-3, compile=True)
        trainer = DistributedTrainer(model, dataset, pde_system=sc.make_pde_system(), config=config)
        for step in range(2):  # the first step traces
            trainer.train_step(step, 0)
        compiled = trainer._compiled_step
        (plan,) = compiled.plans
        hits, allocs = compiled.stats()["plan_hits"], plan.runtime_allocs
        trainer.train_step(2, 0)
        replays = compiled.stats()["plan_hits"] - hits
        assert replays >= 1
        assert plan.stats.n_fallback <= self.FALLBACKS
        assert (plan.runtime_allocs - allocs) / replays <= self.ALLOCS_PER_REPLAY
        assert len(plan.step_names) <= self.STEPS
        assert plan.stats.n_inplace >= self.INPLACE
        assert plan.stats.arena_bytes <= self.ARENA_BYTES


class TestEagerStepMemory:
    """Deterministic gate on the eager ``train-ddp`` step: the benchmark
    workload's trainer (small model, ``gamma = 0``, 4 nodes x 2 ranks,
    batch 2, 256 points, ``(4, 8, 16)`` crops of a ``(16, 32, 64)``
    simulation) at seed 3, built here through the package's own APIs.

    ``Tensor.backward`` frees each micro-batch's graph as it sweeps, so an
    activation dies once the rule of its last consumer has run and an
    intermediate gradient once its own rule has.  The tracemalloc peak of
    step 1 read 70.24 MiB when the sweep held every activation and gradient
    until it returned, 45.12 MiB with a first prototype of the freeing
    sweep, and 43.10 MiB with this one (float64)."""

    PEAK_MIB = 44.0

    def test_step_peak_is_no_worse(self):
        from repro.scenarios import get_scenario

        sc = get_scenario("rayleigh_benard")
        data = sc.generate(seed=3, nt=16, nz=32, nx=64)
        dataset = sc.make_dataset(data, lr_factors=(2, 2, 2), crop_shape_lr=(4, 8, 16),
                                  n_points=256, samples_per_epoch=256)
        model = sc.build_model("small")
        model.train()
        config = TrainerConfig(batch_size=2, world_size=8, nodes=4, gamma=0.0, compile=False)
        trainer = DistributedTrainer(model, dataset, pde_system=sc.make_pde_system(), config=config)
        trainer.train_step(0, 0)  # warm-up: optimizer state, kernel caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            trainer.train_step(1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / 2**20 <= self.PEAK_MIB


class TestModuleStateGuard:
    """``CompiledFunction.check_module_state`` is the one guard behind both
    module-bound entry points, so the same changes invalidate behind each."""

    @staticmethod
    def decode_wrapper():
        imnet = make_imnet("float64")
        cm = rc.compile(imnet)

        def call():
            with precision(imnet.dtype), inference_mode():
                x = decoder_input(dtype=imnet.dtype)
                assert np.array_equal(cm(x).data, imnet(x).data)

        return imnet, cm, call

    @staticmethod
    def training_wrapper():
        from repro.core.losses import LossWeights

        with precision("float64"):
            sc, ds, _, _, _ = TestCompiledTrainingStep._scenario_setup()
            model = sc.build_model("tiny")
        step = rc.CompiledTrainingStep(model, None, LossWeights(gamma=0.0))
        batch = ds.sample_batch([0, 1], epoch=0)

        def call():
            model.zero_grad()
            with precision(model.dtype):
                assert np.isfinite(step(batch).total)

        return model, step, call

    CHANGES = {
        "rebind": lambda module, p: setattr(p, "data", p.data.copy()),
        "astype": lambda module, p: module.astype("float32"),
        "mode-flip": lambda module, p: module.train(not module.training),
        "requires-grad-flip": lambda module, p: setattr(p, "requires_grad", False),
        "in-place": lambda module, p: p.data.__setitem__(Ellipsis, p.data * 0.5),
    }

    @pytest.mark.parametrize("change", list(CHANGES))
    @pytest.mark.parametrize("make", [decode_wrapper, training_wrapper],
                             ids=["compile", "CompiledTrainingStep"])
    def test_identity_changes_invalidate_and_value_updates_do_not(self, make, change):
        module, wrapper, call = make()
        call()
        assert wrapper.stats() == {**wrapper.stats(), "n_plans": 1, "retraces": 1}
        self.CHANGES[change](module, module.parameters()[0])
        call()
        stats = wrapper.stats()
        assert stats["n_plans"] == 1 and stats["fallbacks"] == {}
        if change == "in-place":
            assert stats["retraces"] == 1 and stats["plan_hits"] == 1
        else:
            assert stats["retraces"] == 2 and stats["plan_hits"] == 0
