"""Layer-level tests: shapes, values, gradients, mode-dependent behaviour."""

import numpy as np
import pytest

from repro import nn
from repro.autodiff import Tensor, grad, gradcheck, ops


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestLinear:
    def test_shape(self, rng):
        layer = nn.Linear(6, 4, rng=rng)
        out = layer(Tensor(rng.standard_normal((3, 6))))
        assert out.shape == (3, 4)

    def test_batched_leading_dims(self, rng):
        layer = nn.Linear(5, 2, rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 7, 5))))
        assert out.shape == (2, 7, 2)

    def test_no_bias(self, rng):
        layer = nn.Linear(3, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_matches_manual_affine(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        x = rng.standard_normal((5, 4))
        expected = x @ layer.weight.data + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)

    def test_gradcheck(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        x = t(rng.standard_normal((4, 3)))
        assert gradcheck(lambda a, w, b: ops.sum(ops.square(layer(a))),
                         [x, layer.weight, layer.bias], atol=1e-4)


class TestConv3dLayer:
    def test_shape_and_bias(self, rng):
        layer = nn.Conv3d(3, 6, kernel_size=3, padding=1, rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 3, 4, 4, 4))))
        assert out.shape == (2, 6, 4, 4, 4)

    def test_1x1_kernel(self, rng):
        layer = nn.Conv3d(4, 2, kernel_size=1, rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 4, 2, 3, 3))))
        assert out.shape == (1, 2, 2, 3, 3)

    def test_parameters_count(self, rng):
        layer = nn.Conv3d(2, 3, kernel_size=(1, 3, 3), rng=rng)
        assert layer.weight.shape == (3, 2, 1, 3, 3)
        assert layer.bias.shape == (3,)

    def test_gradients_flow(self, rng):
        layer = nn.Conv3d(2, 2, kernel_size=3, padding=1, rng=rng)
        x = Tensor(rng.standard_normal((1, 2, 2, 4, 4)))
        ops.sum(layer(x)).backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestNormalisation:
    def test_batchnorm_normalises_training(self, rng):
        bn = nn.BatchNorm3d(3)
        x = Tensor(rng.standard_normal((4, 3, 2, 5, 5)) * 3.0 + 2.0)
        out = bn(x).data
        assert np.allclose(out.mean(axis=(0, 2, 3, 4)), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=(0, 2, 3, 4)), 1.0, atol=1e-2)

    def test_batchnorm_running_stats_updated(self, rng):
        bn = nn.BatchNorm3d(2, momentum=0.5)
        x = Tensor(rng.standard_normal((4, 2, 2, 2, 2)) + 5.0)
        bn(x)
        assert np.all(bn.running_mean > 1.0)

    def test_batchnorm_eval_uses_running_stats(self, rng):
        bn = nn.BatchNorm3d(2)
        x = Tensor(rng.standard_normal((4, 2, 2, 2, 2)))
        bn(x)
        bn.eval()
        y1 = bn(Tensor(np.zeros((1, 2, 2, 2, 2)))).data
        y2 = bn(Tensor(np.zeros((1, 2, 2, 2, 2)))).data
        assert np.allclose(y1, y2)

    def test_batchnorm_gradcheck(self, rng):
        bn = nn.BatchNorm3d(2, track_running_stats=False)
        x = t(rng.standard_normal((3, 2, 2, 2, 2)))
        assert gradcheck(lambda a, w, b: ops.sum(ops.square(bn(a))),
                         [x, bn.weight, bn.bias], atol=2e-4)

    def test_groupnorm_shapes_and_divisibility(self, rng):
        gn = nn.GroupNorm3d(2, 4)
        out = gn(Tensor(rng.standard_normal((2, 4, 2, 3, 3))))
        assert out.shape == (2, 4, 2, 3, 3)
        with pytest.raises(ValueError):
            nn.GroupNorm3d(3, 4)

    def test_layernorm(self, rng):
        ln = nn.LayerNorm(8)
        out = ln(Tensor(rng.standard_normal((4, 8)) * 5 + 1)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-7)


class TestActivationsAndDropout:
    @pytest.mark.parametrize("name", ["relu", "leaky_relu", "tanh", "sigmoid", "softplus", "sin", "identity"])
    def test_get_activation(self, name, rng):
        act = nn.get_activation(name)
        x = Tensor(rng.standard_normal(10))
        assert act(x).shape == (10,)

    def test_get_activation_unknown(self):
        with pytest.raises(ValueError):
            nn.get_activation("swishish")

    @pytest.mark.parametrize("act", [nn.ReLU(), nn.LeakyReLU(0.2), nn.Tanh(), nn.Sigmoid(),
                                     nn.Softplus(), nn.Sin(1.7), nn.Identity()],
                             ids=lambda act: type(act).__name__)
    def test_stated_derivatives_match_reverse_mode(self, act, rng):
        """``derivatives`` is what differentiating ``forward`` twice gives."""
        x = t(rng.standard_normal(40) * 2)
        g1 = grad(ops.sum(act(x)), x, create_graph=True)
        g2 = grad(ops.sum(g1), x) if g1.requires_grad else None
        d1, d2 = act.derivatives(x, True)
        assert np.allclose(np.broadcast_to(d1.data, x.shape), g1.data, rtol=1e-13, atol=0)
        if g2 is None or not np.any(g2.data):
            assert d2 is None
        else:
            assert np.allclose(d2.data, g2.data, rtol=1e-13, atol=1e-15)
        assert act.derivatives(x, False)[1] is None

    def test_dropout_sample_mask_is_the_forward_mask(self):
        x = Tensor(np.full((50, 50), 3.0))
        a, b = (nn.Dropout(0.4, rng=np.random.default_rng(2)) for _ in range(2))
        assert np.array_equal(a(x).data, 3.0 * b.sample_mask(x).data)
        assert a.eval().sample_mask(x) is None and nn.Dropout(0.0).sample_mask(x) is None

    def test_dropout_train_vs_eval(self, rng):
        drop = nn.Dropout(0.5, rng=rng)
        x = Tensor(np.ones((100, 100)))
        out_train = drop(x).data
        assert np.count_nonzero(out_train == 0) > 0
        drop.eval()
        assert np.allclose(drop(x).data, 1.0)

    def test_dropout_preserves_expectation(self, rng):
        drop = nn.Dropout(0.3, rng=rng)
        x = Tensor(np.ones((200, 200)))
        assert drop(x).data.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.5)


class TestContainers:
    def test_sequential_applies_in_order(self, rng):
        seq = nn.Sequential(nn.Linear(3, 4, rng=rng), nn.ReLU(), nn.Linear(4, 2, rng=rng))
        out = seq(Tensor(rng.standard_normal((5, 3))))
        assert out.shape == (5, 2)
        assert len(seq) == 3
        assert isinstance(seq[1], nn.ReLU)

    def test_sequential_collects_parameters(self, rng):
        seq = nn.Sequential(nn.Linear(3, 3, rng=rng), nn.Linear(3, 3, rng=rng))
        assert len(seq.parameters()) == 4

    def test_sequential_append(self, rng):
        seq = nn.Sequential(nn.Linear(2, 2, rng=rng))
        seq.append(nn.Tanh())
        assert len(seq) == 2

    def test_module_list(self, rng):
        ml = nn.ModuleList([nn.Linear(2, 2, rng=rng), nn.Linear(2, 2, rng=rng)])
        assert len(ml) == 2
        assert len(ml.parameters()) == 4
        with pytest.raises(RuntimeError):
            ml(Tensor(np.zeros((1, 2))))

    def test_pooling_and_upsample_modules(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4, 4)))
        assert nn.MaxPool3d(2)(x).shape == (1, 2, 2, 2, 2)
        assert nn.AvgPool3d((1, 2, 2))(x).shape == (1, 2, 4, 2, 2)
        assert nn.UpsampleNearest3d(2)(x).shape == (1, 2, 8, 8, 8)
