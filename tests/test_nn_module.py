"""Module / Parameter registry, state dicts, train/eval modes."""

import numpy as np
import pytest

from repro import nn
from repro.autodiff import Tensor, ops
from repro.backend import default_dtype, precision


class Toy(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc1 = nn.Linear(3, 5, rng=np.random.default_rng(0))
        self.fc2 = nn.Linear(5, 2, rng=np.random.default_rng(1))
        self.register_buffer("counter", np.zeros(1))

    def forward(self, x):
        return self.fc2(ops.relu(self.fc1(x)))


class TestModuleRegistry:
    def test_parameters_collected_recursively(self):
        m = Toy()
        names = [n for n, _ in m.named_parameters()]
        assert "fc1.weight" in names and "fc2.bias" in names
        assert len(m.parameters()) == 4

    def test_num_parameters(self):
        m = Toy()
        assert m.num_parameters() == 3 * 5 + 5 + 5 * 2 + 2

    def test_buffers_registered(self):
        m = Toy()
        assert "counter" in dict(m.named_buffers())

    def test_modules_iteration(self):
        m = Toy()
        assert len(list(m.modules())) == 3  # Toy, fc1, fc2

    def test_train_eval_propagates(self):
        m = Toy()
        m.eval()
        assert not m.fc1.training
        m.train()
        assert m.fc2.training

    def test_zero_grad(self):
        m = Toy()
        x = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
        ops.sum(m(x)).backward()
        assert any(p.grad is not None for p in m.parameters())
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())


class TestDtype:
    def test_dtype_is_read_from_the_first_parameter_only(self, monkeypatch):
        """``dtype`` stops at the first parameter instead of collecting all of them."""
        m = Toy()
        monkeypatch.setattr(nn.Module, "parameters", lambda self: pytest.fail("walked every parameter"))
        assert m.dtype == m.fc1.weight.data.dtype

    def test_dtype_follows_an_in_place_astype(self):
        m = Toy()
        for name in ("float32", "float64", "float32"):
            assert m.astype(name).dtype == np.dtype(name)
            assert all(p.data.dtype == m.dtype for p in m.parameters())

    def test_parameterless_module_reports_the_policy_dtype(self):
        class Holder(nn.Module):
            def __init__(self):
                super().__init__()
                self.inner = nn.Module()

        assert Holder().dtype == default_dtype()
        with precision("float32"):
            assert Holder().dtype == np.float32


class TestStateDict:
    def test_roundtrip(self):
        m1, m2 = Toy(), Toy()
        m2.fc1.weight.data += 1.0  # make them differ
        state = m1.state_dict()
        m2.load_state_dict(state)
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            assert np.allclose(p1.data, p2.data)

    def test_state_dict_contains_buffers(self):
        m = Toy()
        assert "counter" in m.state_dict()

    def test_load_buffer_value(self):
        m1, m2 = Toy(), Toy()
        m1.counter[...] = 7.0
        m2.load_state_dict(m1.state_dict())
        assert m2._buffers["counter"][0] == 7.0

    def test_shape_mismatch_raises(self):
        m = Toy()
        state = m.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            m.load_state_dict(state)

    def test_buffer_shape_mismatch_raises(self):
        """A broadcastable but wrong-shape buffer must not load silently."""
        m = Toy()
        state = m.state_dict()
        state["counter"] = np.asarray(7.0)  # shape () broadcasts into shape (1,)
        with pytest.raises(ValueError):
            m.load_state_dict(state)

    def test_failed_load_mutates_nothing(self):
        """Validation runs before any write: a rejected load leaves the module intact."""
        m = Toy()
        before = m.state_dict()
        bad = m.state_dict()
        bad["fc1.weight"] = bad["fc1.weight"] + 1.0
        bad["fc2.bias"] = np.zeros((3, 3))  # shape mismatch triggers rejection
        with pytest.raises(ValueError):
            m.load_state_dict(bad)
        for key, value in m.state_dict().items():
            assert np.array_equal(value, before[key])

        missing = dict(before)
        missing["fc1.weight"] = before["fc1.weight"] + 1.0
        del missing["counter"]  # strict missing-key rejection
        with pytest.raises(KeyError):
            m.load_state_dict(missing)
        assert np.array_equal(m.fc1.weight.data, before["fc1.weight"])

    def test_unexpected_key_raises_when_strict(self):
        m = Toy()
        state = m.state_dict()
        state["does.not.exist"] = np.zeros(3)
        with pytest.raises(KeyError):
            m.load_state_dict(state)
        m.load_state_dict(state, strict=False)  # silently ignored

    def test_state_dict_is_a_copy(self):
        m = Toy()
        state = m.state_dict()
        state["fc1.weight"][...] = 99.0
        assert not np.allclose(m.fc1.weight.data, 99.0)


class TestForwardCall:
    def test_call_invokes_forward(self):
        m = Toy()
        x = Tensor(np.zeros((2, 3)))
        out = m(x)
        assert out.shape == (2, 2)

    def test_base_forward_raises(self):
        with pytest.raises(NotImplementedError):
            nn.Module().forward()
