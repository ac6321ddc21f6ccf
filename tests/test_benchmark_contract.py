"""The benchmark in perfbench/ relies on the library by name: its output
checks call library functions, and its traced runs wrap the functions listed
in ``perfbench/tracer.py``. These tests fail when a change to the library
breaks either, so a renamed or deleted function is caught here rather than
by a failing benchmark run."""

import importlib.util
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import energy_attention
from energy_attention import attention as attn

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_negative_control_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/negative_control.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.strip().splitlines()[-1] == "negative control passed"


def test_tracer_installs_on_every_traced_name():
    tracer_module = _load("tracer")

    def lookup(module_name, path):
        owner = getattr(energy_attention, module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner

    originals = {entry: lookup(*entry) for entry in tracer_module.TRACED}
    tracer = tracer_module.Tracer(capacity=16)
    tracer.install(energy_attention)
    try:
        for entry, original in originals.items():
            assert lookup(*entry) is not original, entry
    finally:
        tracer.uninstall()
    for entry, original in originals.items():
        assert lookup(*entry) is original, entry


@pytest.mark.parametrize("dim", [8, 16])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 7])
def test_forwards_match_benchmark_references(dim, heads, n):
    # the forward-long workload checks its outputs against these references
    checks = _load("checks")
    rng = np.random.default_rng(1000 * dim + 10 * heads + n)
    head_dim = dim // heads

    def maps(rows, cols):
        return tuple(rng.standard_normal((rows, cols)) / np.sqrt(dim)
                     for _ in range(heads))

    params = attn.AttentionParams(
        w_query=maps(head_dim, dim), w_key=maps(head_dim, dim),
        w_value=maps(head_dim, dim), w_out=maps(dim, head_dim),
        score_temp=tuple(rng.uniform(0.5, 2.0, heads)),
        bias_temp=tuple(rng.uniform(2.0, 4.0, heads)),
        beta=0.9, eta=0.7, tau=tuple(rng.uniform(0.0, 0.1, heads)))
    z = rng.standard_normal(dim)
    tokens = rng.standard_normal((dim, n))
    momentum = rng.standard_normal(dim)
    checks.close(attn.mha(params, z, tokens), checks.ref_mha(params, z, tokens), 1e-10)
    out, state = attn.nag_mha(params, z, tokens, attn.MomentumState(momentum))
    ref_out, ref_state = checks.ref_nag(params, z, tokens, momentum)
    checks.close(out, ref_out, 1e-10)
    checks.close(state.momentum, ref_state, 1e-10)
    for name in ("mha2nd_exact", "mha2nd1st"):
        checks.close(getattr(attn, name)(params, z, tokens),
                     getattr(checks, f"ref_{name}")(params, z, tokens), 1e-10)
    checks.close(attn.light_mha2nd1st(params, z, tokens),
                 checks.ref_light(params, z, tokens), 1e-10)
