"""The allocator state ``repro.backend`` pins at import (glibc mmap / trim thresholds)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.backend import numpy_backend


glibc_only = pytest.mark.skipif(
    not numpy_backend._MALLOC_PINNED,
    reason="repro.backend pinned no thresholds here: not glibc, or the environment sets glibc's own")

# A warm grid request decodes through ~512 KiB activations.  Above glibc's
# start-up mmap threshold (128 KiB) each of them is a fresh mapping that
# faults in page by page, thousands of faults per call, unless the process
# has pinned the threshold.
WARM_GRID_FAULTS = textwrap.dedent("""
    import resource

    import numpy as np

    import repro
    from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
    from repro.inference import InferenceEngine

    engine = InferenceEngine(MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval(), tile_shape=(8, 32, 32))
    lowres = np.random.default_rng(0).standard_normal((1, 4, 8, 64, 64))
    for _ in range(3):
        engine.predict_grid(lowres, (4, 32, 32))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    engine.predict_grid(lowres, (4, 32, 32))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@glibc_only
def test_warm_grid_request_barely_faults_in_a_fresh_process():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", WARM_GRID_FAULTS], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    faults = int(run.stdout.split()[-1])
    assert faults <= 100, f"a warm (4, 32, 32) grid call took {faults} minor page faults"


@glibc_only
def test_pins_the_thresholds_on_glibc(monkeypatch):
    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
        monkeypatch.delenv(name, raising=False)
    assert numpy_backend._pin_malloc_thresholds()


@pytest.mark.parametrize("name,value", [
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_TRIM_THRESHOLD_", "0"),
    ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072"),
    ("GLIBC_TUNABLES", "glibc.rtld.nns=4:glibc.malloc.arena_max=2"),
])
def test_user_allocator_settings_win(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert not numpy_backend._pin_malloc_thresholds()


def test_no_op_off_glibc(monkeypatch):
    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
        monkeypatch.delenv(name, raising=False)

    def not_glibc(name):
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr(numpy_backend.os, "confstr", not_glibc)
    assert not numpy_backend._pin_malloc_thresholds()
