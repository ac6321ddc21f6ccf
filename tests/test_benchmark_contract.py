"""The benchmark in perfbench/ relies on the library by name: its output
checks call library functions, and its traced runs wrap the functions listed
in ``perfbench/tracer.py``. These tests fail when a change to the library
breaks either, so a renamed or deleted function is caught here rather than
by a failing benchmark run."""

import importlib.util
import pathlib
import subprocess
import sys

import energy_attention

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
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
    tracer_module = _load_tracer()

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
