"""Context Generation Network (U-Net) and Continuous Decoding Network (ImNet)."""

import numpy as np
import pytest

from repro import nn
from repro.autodiff import Tensor, gradcheck, ops
from repro.core import ImNet, MeshfreeFlowNetConfig, ResBlock3d, UNet3d
from repro.core import unet as unet_module


class TestResBlock:
    def test_shape_preserved(self, rng):
        block = ResBlock3d(4, 4, rng=rng)
        out = block(Tensor(rng.standard_normal((2, 4, 2, 4, 4))))
        assert out.shape == (2, 4, 2, 4, 4)

    def test_channel_change_uses_projection(self, rng):
        block = ResBlock3d(3, 8, rng=rng)
        out = block(Tensor(rng.standard_normal((1, 3, 2, 4, 4))))
        assert out.shape == (1, 8, 2, 4, 4)

    def test_gradients_reach_all_parameters(self, rng):
        block = ResBlock3d(2, 4, rng=rng)
        x = Tensor(rng.standard_normal((1, 2, 2, 4, 4)))
        ops.sum(block(x)).backward()
        assert all(p.grad is not None for p in block.parameters())

    def test_group_norm_variant(self, rng):
        block = ResBlock3d(2, 4, norm="group", rng=rng)
        out = block(Tensor(rng.standard_normal((1, 2, 2, 4, 4))))
        assert np.isfinite(out.data).all()


class TestUNet3d:
    def test_latent_grid_shape(self, rng):
        net = UNet3d(in_channels=4, latent_channels=6, base_channels=4,
                     pool_factors=((1, 2, 2), (2, 2, 2)), rng=rng)
        x = Tensor(rng.standard_normal((2, 4, 2, 8, 8)))
        out = net(x)
        assert out.shape == (2, 6, 2, 8, 8)

    def test_fully_convolutional_larger_input(self, rng):
        """The same network processes a larger domain (the key scalability claim)."""
        net = UNet3d(in_channels=4, latent_channels=3, base_channels=4,
                     pool_factors=((1, 2, 2),), rng=rng)
        small = net(Tensor(rng.standard_normal((1, 4, 2, 4, 4))))
        large = net(Tensor(rng.standard_normal((1, 4, 4, 16, 16))))
        assert small.shape[2:] == (2, 4, 4)
        assert large.shape[2:] == (4, 16, 16)

    def test_indivisible_input_raises(self, rng):
        net = UNet3d(in_channels=2, latent_channels=2, base_channels=2,
                     pool_factors=((2, 2, 2),), rng=rng)
        with pytest.raises(ValueError, match="divisible"):
            net(Tensor(rng.standard_normal((1, 2, 3, 4, 4))))

    def test_wrong_channel_count_raises(self, rng):
        net = UNet3d(in_channels=4, latent_channels=2, base_channels=2,
                     pool_factors=((1, 2, 2),), rng=rng)
        with pytest.raises(ValueError, match="channels"):
            net(Tensor(rng.standard_normal((1, 3, 2, 4, 4))))

    def test_wrong_rank_raises(self, rng):
        net = UNet3d(in_channels=4, latent_channels=2, base_channels=2, pool_factors=((1, 2, 2),), rng=rng)
        with pytest.raises(ValueError):
            net(Tensor(rng.standard_normal((4, 2, 4, 4))))

    def test_required_divisor(self):
        net = UNet3d(4, 2, 2, pool_factors=((1, 2, 2), (2, 2, 2), (2, 2, 2)))
        assert net.required_divisor() == (4, 8, 8)

    def test_from_config(self):
        cfg = MeshfreeFlowNetConfig.tiny()
        net = UNet3d.from_config(cfg)
        assert net.latent_channels == cfg.latent_channels

    def test_gradients_flow(self, rng):
        net = UNet3d(in_channels=2, latent_channels=2, base_channels=2,
                     pool_factors=((1, 2, 2),), rng=rng)
        x = Tensor(rng.standard_normal((1, 2, 2, 4, 4)))
        ops.sum(ops.square(net(x))).backward()
        grads = [p.grad is not None for p in net.parameters()]
        assert all(grads)


def _randomise_batchnorm(module, rng):
    """Give every BatchNorm non-trivial statistics and affine parameters."""
    for m in module.modules():
        if isinstance(m, nn.BatchNorm3d):
            m.running_mean[...] = rng.standard_normal(m.num_features)
            m.running_var[...] = rng.uniform(0.5, 2.0, m.num_features)
            m.weight.data[...] = rng.uniform(0.5, 1.5, m.num_features)
            m.bias.data[...] = rng.standard_normal(m.num_features)
    return module


@pytest.fixture
def unfolded(monkeypatch):
    """Run the enclosed forwards as the plain ``norm(conv(x))`` composition."""
    def activate():
        monkeypatch.setattr(unet_module, "_conv_norm", lambda conv, norm, x: norm(conv(x)))
    return activate


class TestEvalBatchNormFold:
    @pytest.mark.float64_default
    @pytest.mark.parametrize("build,shape", [
        (lambda rng: ResBlock3d(3, 6, rng=rng), (2, 3, 2, 4, 4)),
        (lambda rng: ResBlock3d(4, 4, rng=rng), (1, 4, 2, 4, 4)),
        (lambda rng: UNet3d(in_channels=4, latent_channels=6, base_channels=4, rng=rng), (2, 4, 2, 8, 8)),
    ])
    def test_eval_matches_unfolded_composition(self, rng, unfolded, build, shape):
        net = _randomise_batchnorm(build(rng), rng).eval()
        x = Tensor(rng.standard_normal(shape))
        state = {k: np.array(v).tobytes() for k, v in net.state_dict().items()}
        folded = net(x).data
        assert {k: np.array(v).tobytes() for k, v in net.state_dict().items()} == state
        unfolded()
        reference = net(x).data
        assert np.max(np.abs(folded - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_gradcheck_through_the_fold(self, rng):
        block = _randomise_batchnorm(ResBlock3d(2, 3, activation="tanh", rng=rng), rng).eval()
        x = Tensor(rng.standard_normal((1, 2, 2, 3, 3)), requires_grad=True)
        params = list(block.parameters())
        assert gradcheck(lambda *_: ops.sum(ops.square(block(x))), [x, *params])

    def test_train_mode_is_the_unfolded_composition(self, rng, unfolded):
        block = _randomise_batchnorm(ResBlock3d(3, 6, rng=rng), rng)
        x = Tensor(rng.standard_normal((2, 3, 2, 4, 4)))
        state = block.state_dict()

        def step():
            block.load_state_dict(state)
            block.zero_grad()
            out = block(x)
            ops.sum(ops.square(out)).backward()
            return [out.data, *(p.grad.copy() for p in block.parameters()), *block.state_dict().values()]

        ours = step()
        unfolded()
        assert all(np.array_equal(a, b) for a, b in zip(ours, step()))


class TestImNet:
    def test_output_shape(self, rng):
        net = ImNet(coord_dim=3, latent_dim=8, out_channels=4, hidden=(16, 8), rng=rng)
        out = net(Tensor(rng.standard_normal((2, 5, 11))))
        assert out.shape == (2, 5, 4)

    def test_in_features(self):
        net = ImNet(coord_dim=3, latent_dim=5, out_channels=2, hidden=(4,))
        assert net.in_features == 8

    def test_wrong_trailing_dim_raises(self, rng):
        net = ImNet(coord_dim=3, latent_dim=8, out_channels=4, hidden=(8,), rng=rng)
        with pytest.raises(ValueError):
            net(Tensor(rng.standard_normal((2, 5, 7))))

    @pytest.mark.parametrize("activation", ["softplus", "tanh", "relu", "sin"])
    def test_activations(self, activation, rng):
        net = ImNet(coord_dim=3, latent_dim=4, out_channels=2, hidden=(8,), activation=activation, rng=rng)
        out = net(Tensor(rng.standard_normal((3, 7))))
        assert np.isfinite(out.data).all()

    def test_from_config(self):
        cfg = MeshfreeFlowNetConfig.tiny()
        net = ImNet.from_config(cfg)
        assert net.latent_dim == cfg.latent_channels
        assert net.out_channels == cfg.out_channels

    def test_smoothness_softplus_has_nonzero_second_derivative(self, rng):
        """Softplus decoders keep Laplacian information (unlike ReLU)."""
        from repro.autodiff import grad
        net = ImNet(coord_dim=1, latent_dim=0, out_channels=1, hidden=(8, 8),
                    activation="softplus", rng=rng)
        x = Tensor(rng.standard_normal((5, 1)), requires_grad=True)
        y = ops.sum(net(x))
        g1 = grad(y, x, create_graph=True)
        g2 = grad(ops.sum(g1), x)
        assert np.any(np.abs(g2.data) > 1e-8)


class TestConfig:
    def test_presets(self):
        assert MeshfreeFlowNetConfig.paper().latent_channels == 32
        assert MeshfreeFlowNetConfig.tiny().latent_channels < 32

    def test_min_input_shape(self):
        cfg = MeshfreeFlowNetConfig.paper()
        assert cfg.min_input_shape() == (4, 16, 16)

    def test_roundtrip_dict(self):
        cfg = MeshfreeFlowNetConfig.small()
        cfg2 = MeshfreeFlowNetConfig.from_dict(cfg.to_dict())
        assert cfg2 == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            MeshfreeFlowNetConfig(field_names=("a", "b"))
        with pytest.raises(ValueError):
            MeshfreeFlowNetConfig(interpolation="bicubic")
