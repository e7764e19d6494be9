"""End-to-end MeshfreeFlowNet model: forward, dense prediction, derivatives."""

import numpy as np
import pytest

from repro import nn
from repro.autodiff import Tensor, grad, ops
from repro.backend import precision
from repro.core import LossWeights, MeshfreeFlowNet, MeshfreeFlowNetConfig, compute_losses
from repro.core.losses import loss_terms
from repro.pde import PDESystem, RayleighBenard2D, divergence_free_system
from repro.scenarios import available_scenarios, get_scenario


@pytest.fixture
def model():
    return MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny())


class TestForward:
    def test_point_prediction_shape(self, model, tiny_lowres, tiny_coords):
        out = model(tiny_lowres, tiny_coords)
        assert out.shape == (2, 12, 4)

    def test_latent_grid_shape(self, model, tiny_lowres):
        grid = model.latent_grid(tiny_lowres)
        assert grid.shape == (2, model.config.latent_channels, 2, 8, 8)

    def test_decode_precomputed_grid_matches_forward(self, model, tiny_lowres, tiny_coords):
        direct = model(tiny_lowres, tiny_coords)
        grid = model.latent_grid(tiny_lowres)
        decoded = model.decode(grid, tiny_coords)
        assert np.allclose(direct.data, decoded.data)

    def test_deterministic_given_seed(self, tiny_lowres, tiny_coords):
        m1 = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(seed=7))
        m2 = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(seed=7))
        assert np.allclose(m1(tiny_lowres, tiny_coords).data, m2(tiny_lowres, tiny_coords).data)

    def test_count_parameters(self, model):
        counts = model.count_parameters()
        assert counts["total"] == counts["unet"] + counts["imnet"]
        assert counts["total"] > 0

    def test_gradients_reach_both_subnetworks(self, model, tiny_lowres, tiny_coords):
        out = model(tiny_lowres, tiny_coords)
        ops.sum(ops.square(out)).backward()
        assert all(p.grad is not None for p in model.unet.parameters())
        assert all(p.grad is not None for p in model.imnet.parameters())


class TestPredictGrid:
    def test_output_shape(self, model, tiny_lowres):
        out = model.predict_grid(tiny_lowres, (4, 16, 16), chunk_size=300)
        assert out.shape == (2, 4, 4, 16, 16)
        assert np.isfinite(out).all()

    def test_chunking_invariance(self, model, tiny_lowres):
        small_chunks = model.predict_grid(tiny_lowres, (2, 8, 8), chunk_size=17)
        one_chunk = model.predict_grid(tiny_lowres, (2, 8, 8), chunk_size=10_000)
        assert np.allclose(small_chunks, one_chunk)

    def test_super_resolve_factors(self, model, tiny_lowres):
        out = model.super_resolve(tiny_lowres, (2, 2, 2))
        assert out.shape == (2, 4, 4, 16, 16)

    def test_bad_output_shape(self, model, tiny_lowres):
        with pytest.raises(ValueError):
            model.predict_grid(tiny_lowres, (4, 16))


class TestDerivatives:
    def test_values_contains_all_symbols(self, model, tiny_lowres, tiny_coords):
        pde = RayleighBenard2D(rayleigh=1e5)
        _, values = model.forward_with_derivatives(tiny_lowres, tiny_coords, pde)
        needed = {s.symbol for s in pde.required_derivatives()} | set(pde.fields)
        assert needed <= set(values)
        for v in values.values():
            assert v.shape == (2, 12)

    def test_first_derivative_matches_finite_difference(self, model, tiny_lowres):
        """Autodiff derivative of the full model w.r.t. query coordinates == FD."""
        pde = divergence_free_system()
        coords_np = np.random.default_rng(0).random((1, 4, 3)) * 0.6 + 0.2
        lowres = Tensor(tiny_lowres.data[:1])
        _, values = model.forward_with_derivatives(lowres, Tensor(coords_np, requires_grad=True), pde)

        eps = 1e-5
        u_idx = model.config.field_names.index("u")
        x_axis = model.config.coord_names.index("x")
        plus = coords_np.copy(); plus[..., x_axis] += eps
        minus = coords_np.copy(); minus[..., x_axis] -= eps
        fd = (model(lowres, Tensor(plus)).data[..., u_idx]
              - model(lowres, Tensor(minus)).data[..., u_idx]) / (2 * eps)
        assert np.allclose(values["u_x"].data, fd, rtol=1e-4, atol=1e-6)

    def test_second_derivative_matches_finite_difference(self, model, tiny_lowres):
        pde = RayleighBenard2D(rayleigh=1e4, include_momentum=False)
        coords_np = np.random.default_rng(1).random((1, 3, 3)) * 0.5 + 0.25
        lowres = Tensor(tiny_lowres.data[:1])
        _, values = model.forward_with_derivatives(lowres, Tensor(coords_np, requires_grad=True), pde)

        eps = 3e-4
        t_idx = model.config.field_names.index("T")
        x_axis = model.config.coord_names.index("x")
        base = model(lowres, Tensor(coords_np)).data[..., t_idx]
        plus = coords_np.copy(); plus[..., x_axis] += eps
        minus = coords_np.copy(); minus[..., x_axis] -= eps
        fd2 = (model(lowres, Tensor(plus)).data[..., t_idx]
               - 2 * base + model(lowres, Tensor(minus)).data[..., t_idx]) / eps**2
        assert np.allclose(values["T_xx"].data, fd2, rtol=2e-3, atol=1e-4)

    def test_coordinate_scaling(self, model, tiny_lowres, tiny_coords):
        """Derivatives in physical units scale inversely with the crop extent."""
        pde = divergence_free_system()
        _, v1 = model.forward_with_derivatives(tiny_lowres, tiny_coords, pde, coord_scales=(1.0, 1.0, 1.0))
        _, v2 = model.forward_with_derivatives(tiny_lowres, tiny_coords, pde, coord_scales=(1.0, 1.0, 4.0))
        assert np.allclose(v2["u_x"].data, v1["u_x"].data / 4.0)
        assert np.allclose(v2["w_z"].data, v1["w_z"].data)

    def test_invalid_scales(self, model, tiny_lowres, tiny_coords):
        pde = divergence_free_system()
        with pytest.raises(ValueError):
            model.forward_with_derivatives(tiny_lowres, tiny_coords, pde, coord_scales=(1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            model.forward_with_derivatives(tiny_lowres, tiny_coords, pde, coord_scales=(1.0, 1.0))

    def test_equation_loss_backprop_reaches_unet(self, model, tiny_lowres, tiny_coords):
        """The PDE residual loss must provide gradients to the encoder parameters."""
        pde = divergence_free_system()
        _, values = model.forward_with_derivatives(tiny_lowres, tiny_coords, pde)
        residual = pde.residuals(values)["continuity"]
        loss = ops.mean(ops.abs(residual))
        loss.backward()
        unet_grads = [p.grad for p in model.unet.parameters() if p.grad is not None]
        assert len(unet_grads) > 0
        assert any(np.any(g != 0) for g in unet_grads)


def nested_grad_derivatives(model, lowres, coords, pde_system, coord_scales=None):
    """The oracle: ``forward_with_derivatives`` as reverse-mode autodiff does it.

    This is the body the method had before its forward derivative pass — one
    ``grad(create_graph=True)`` sweep per field, one more per (field, axis)
    second derivative — and is kept only here, as the reference the jets are
    compared against.  Same signature as the method, so it can stand in for it.
    """
    coords = Tensor(np.asarray(coords.data if isinstance(coords, Tensor) else coords),
                    requires_grad=True)
    scales = np.ones(3) if coord_scales is None else np.asarray(coord_scales, dtype=np.float64)
    field_names = list(model.config.field_names)
    coord_names = list(model.config.coord_names)

    pred = model.forward(lowres, coords)
    values = {name: pred[:, :, i] for i, name in enumerate(field_names)}
    first_order: dict = {}   # field -> d(field)/d(normalised coords), (N, P, 3)
    second_order: dict = {}  # (field, c1) -> d2(field)/d(c1)d(coords), (N, P, 3)

    def first(field):
        if field not in first_order:
            g = grad(ops.sum(values[field]), coords, create_graph=True)
            first_order[field] = g if g is not None else Tensor(np.zeros_like(coords.data))
        return first_order[field]

    def second(field, c1):
        if (field, c1) not in second_order:
            d1 = first(field)[:, :, coord_names.index(c1)]
            g = grad(ops.sum(d1), coords, create_graph=True)
            second_order[field, c1] = g if g is not None else Tensor(np.zeros_like(coords.data))
        return second_order[field, c1]

    for spec in pde_system.required_derivatives():
        if spec.order == 1:
            axis = coord_names.index(spec.coords[0])
            values[spec.symbol] = ops.mul(first(spec.field)[:, :, axis], float(1.0 / scales[axis]))
        else:
            c1, c2 = spec.coords
            axis1, axis2 = coord_names.index(c1), coord_names.index(c2)
            values[spec.symbol] = ops.mul(second(spec.field, c1)[:, :, axis2],
                                          float(1.0 / (scales[axis1] * scales[axis2])))
    return pred, values


#: Relative agreement demanded between the jets and the oracle, per policy.
JET_TOLERANCE = {"float64": 1e-12, "float32": 1e-5}
COORD_SCALES = (2.0, 3.0, 0.5)


def _system_and_config(system: str, **overrides):
    """A PDE system by scenario name (or the synthetic mixed-partial one) and
    the tiny model config wired to its fields."""
    if system != "mixed_partials":
        scenario = get_scenario(system)
        return scenario.make_pde_system(), scenario.model_config("tiny", **overrides)
    config = MeshfreeFlowNetConfig.tiny(**overrides)
    pde = PDESystem(config.field_names, config.coord_names)
    pde.add_constraint("mixed", [(1.0, ["u_xz"]), (-2.0, ["T_tz"]), (0.5, ["w_tx", "u"]),
                                 (1.0, ["p_tt"]), (3.0, ["u_zz"])])
    return pde, config


def _inputs(config, seed: int, nt: int = 2, n_points: int = 10):
    """A seeded crop and query points; the first points of each batch entry
    sit exactly on cell boundaries (corners of the domain included)."""
    rng = np.random.default_rng(seed)
    dtype = MeshfreeFlowNet(config).dtype
    lowres = rng.standard_normal((2, config.in_channels, nt, 4, 4)).astype(dtype)
    coords = rng.random((2, n_points, 3))
    coords[:, 0] = (0.0, 0.0, 0.0)
    coords[:, 1] = (1.0, 1.0, 1.0)
    coords[:, 2] = (1.0, 1.0 / 3.0, 2.0 / 3.0)
    coords[:, 3, 1] = 2.0 / 3.0
    return Tensor(lowres), coords.astype(dtype)


def _assert_jets_match_oracle(model, pde, lowres, coords, tolerance, reseed=lambda: None):
    reseed()
    want_pred, want = nested_grad_derivatives(model, lowres, coords, pde, COORD_SCALES)
    reseed()
    got_pred, got = model.forward_with_derivatives(lowres, Tensor(coords), pde, COORD_SCALES)
    assert np.array_equal(got_pred.data, want_pred.data)
    assert list(got) == list(want)
    orders = {spec.symbol: spec.order for spec in pde.required_derivatives()}
    # A derivative that is exactly zero (pure seconds of a piecewise-linear
    # decoder) has no scale of its own: compare within each order.
    scale = {order: max([1.0] + [float(np.max(np.abs(want[s].data)))
                                 for s, o in orders.items() if o == order])
             for order in (0, 1, 2)}
    for symbol, ref in want.items():
        assert got[symbol].shape == ref.shape and got[symbol].dtype == ref.dtype
        error = float(np.max(np.abs(got[symbol].data - ref.data)))
        assert error <= tolerance * scale[orders.get(symbol, 0)], (symbol, error)


ACTIVATIONS = ["softplus", "tanh", "sigmoid", "sin", "relu", "leaky_relu"]
SYSTEMS = [*available_scenarios(), "mixed_partials"]


class TestJetsAgainstNestedGrad:
    """``forward_with_derivatives`` carries derivatives forward; the nested
    reverse-mode sweeps it replaced are the oracle."""

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    @pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_requested_symbol(self, system, activation, interpolation, policy):
        with precision(policy):
            pde, config = _system_and_config(system, imnet_activation=activation,
                                             interpolation=interpolation)
            lowres, coords = _inputs(config, seed=len(system) + len(activation))
            assert coords.dtype == np.dtype(policy)
            _assert_jets_match_oracle(MeshfreeFlowNet(config), pde, lowres, coords,
                                      JET_TOLERANCE[policy])

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    @pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
    def test_latent_axis_of_size_one(self, interpolation, policy):
        with precision(policy):
            pde, config = _system_and_config("mixed_partials", interpolation=interpolation)
            lowres, coords = _inputs(config, seed=3, nt=1)
            _assert_jets_match_oracle(MeshfreeFlowNet(config), pde, lowres, coords,
                                      JET_TOLERANCE[policy])

    @pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
    def test_decoder_without_hidden_layers(self, interpolation):
        """A purely linear decoder: its tangents are weight rows (broadcast
        over the points) and its second derivatives identically zero."""
        pde, config = _system_and_config("mixed_partials", imnet_hidden=(),
                                         interpolation=interpolation)
        lowres, coords = _inputs(config, seed=13)
        model = MeshfreeFlowNet(config)
        _assert_jets_match_oracle(model, pde, lowres, coords, JET_TOLERANCE[str(model.dtype)])

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_dropout_ahead_of_a_nested_sequential(self, training, policy):
        """One sampled mask scales the value and every tangent alike."""
        with precision(policy):
            pde, config = _system_and_config("mixed_partials")
            model = MeshfreeFlowNet(config)
            dropout = nn.Dropout(0.5)
            model.imnet.net = nn.Sequential(dropout, model.imnet.net)
            model.train(training)
            lowres, coords = _inputs(config, seed=4)

            def reseed():
                dropout._rng = np.random.default_rng(11)

            _assert_jets_match_oracle(model, pde, lowres, coords, JET_TOLERANCE[policy], reseed)
            if training:  # the mask was live: the seeded draw changes the output
                reseed()
                masked = model(lowres, Tensor(coords)).data
                assert not np.array_equal(masked, model.eval()(lowres, Tensor(coords)).data)

    def test_unsupported_decoder_layer_is_named(self, model, tiny_lowres, tiny_coords):
        model.imnet.net = nn.Sequential(nn.LayerNorm(model.imnet.in_features), model.imnet.net)
        with pytest.raises(TypeError, match="LayerNorm"):
            model.forward_with_derivatives(tiny_lowres, tiny_coords, divergence_free_system())

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_parameter_gradients(self, system, policy, monkeypatch):
        """``compute_losses(...).backward()`` on the jets and on the oracle
        leave the same gradient on every parameter, relative to the model's
        largest."""
        with precision(policy):
            pde, config = _system_and_config(system)
            model = MeshfreeFlowNet(config)
            lowres, coords = _inputs(config, seed=5)
            targets = Tensor(np.random.default_rng(6).standard_normal(
                (*coords.shape[:2], config.out_channels)).astype(coords.dtype))
            weights = LossWeights(gamma=0.5)

            def gradients():
                model.zero_grad()
                total, breakdown = compute_losses(model, lowres, Tensor(coords), targets,
                                                  pde, weights, COORD_SCALES)
                total.backward()
                return breakdown, [p.grad for p in model.parameters()]

            got_breakdown, got = gradients()
            monkeypatch.setattr(MeshfreeFlowNet, "forward_with_derivatives",
                                nested_grad_derivatives)
            want_breakdown, want = gradients()
        tolerance = JET_TOLERANCE[policy]
        assert got_breakdown.prediction == want_breakdown.prediction
        assert got_breakdown.equation == pytest.approx(want_breakdown.equation, rel=tolerance)
        largest = max(float(np.max(np.abs(g))) for g in want if g is not None)
        assert largest > 0
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if g is not None:
                assert g.dtype == w.dtype
                assert float(np.max(np.abs(g - w))) <= 10 * tolerance * largest

    def test_coordinates_requiring_grad_change_no_parameter_gradient_bit(self):
        """Callers that still mark the query coordinates ``requires_grad``
        get the parameter gradients of those that do not."""
        pde, config = _system_and_config("rayleigh_benard")
        model = MeshfreeFlowNet(config)
        lowres, coords = _inputs(config, seed=7)
        targets = Tensor(np.zeros((*coords.shape[:2], config.out_channels), dtype=coords.dtype))
        grads = []
        for requires_grad in (False, True):
            model.zero_grad()
            total, _ = compute_losses(model, lowres, Tensor(coords, requires_grad=requires_grad),
                                      targets, pde, LossWeights(gamma=0.0125), COORD_SCALES)
            total.backward()
            grads.append([p.grad for p in model.parameters()])
        for plain, marked in zip(*grads):
            assert np.array_equal(plain, marked)

    def test_mixed_second_derivative_matches_central_differences(self):
        with precision("float64"):
            pde, config = _system_and_config("mixed_partials")
            model = MeshfreeFlowNet(config)
            lowres, _ = _inputs(config, seed=8)
            # Cell interiors only: the trilinear blend's derivatives jump at
            # cell faces, where a centred stencil straddles two cells.
            cells = np.array([1, 3, 3])
            coords = (np.random.default_rng(9).integers(0, cells, (2, 6, 3))
                      + np.random.default_rng(10).uniform(0.2, 0.8, (2, 6, 3))) / cells
            _, values = model.forward_with_derivatives(lowres, Tensor(coords), pde)

            u, (z, x), eps = config.field_names.index("u"), (1, 2), 1e-4

            def shifted(dz, dx):
                moved = coords.copy()
                moved[..., z] += dz * eps
                moved[..., x] += dx * eps
                return model(lowres, Tensor(moved)).data[..., u]

            fd = (shifted(1, 1) - shifted(1, -1) - shifted(-1, 1) + shifted(-1, -1)) / (4 * eps**2)
        assert np.allclose(values["u_xz"].data, fd, rtol=1e-5, atol=1e-6)

    def test_equation_loss_terms_never_run_a_backward_sweep(self, monkeypatch):
        """With gamma > 0 the loss terms are pure forward tape expressions:
        no ``grad`` (nor ``backward``) call happens before the caller's own."""
        from repro.autodiff import tensor as tensor_module

        def forbidden(*args, **kwargs):
            raise AssertionError("loss_terms ran a reverse-mode sweep")

        monkeypatch.setattr(tensor_module, "_backward_pass", forbidden)
        with pytest.raises(AssertionError, match="reverse-mode"):
            grad(ops.sum(Tensor(np.ones(2), requires_grad=True)), [])
        pde, config = _system_and_config("rayleigh_benard")
        lowres, coords = _inputs(config, seed=12)
        targets = Tensor(np.zeros((*coords.shape[:2], config.out_channels), dtype=coords.dtype))
        total, _, equation, per_constraint = loss_terms(
            MeshfreeFlowNet(config), lowres, Tensor(coords), targets, pde,
            LossWeights(gamma=0.0125), COORD_SCALES)
        assert np.isfinite(total.data) and float(equation.data) > 0
        assert set(per_constraint) == {c.name for c in pde.constraints}
