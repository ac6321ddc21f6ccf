"""Seeded outputs pinned at values recorded before the energy core replaced
the separate op-level and engine implementations, training outputs
recorded before both trainers shared one epoch loop (``training_pins.json``),
and whole CLI outputs, CSV and JSON, recorded before every subcommand wrote
through one writer (``cli_pins.json``).

Iteration counts, stop reasons and witness seeds must not move; final
energies may move only at the float-reassociation level.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from energy_attention import cli
from energy_attention import descent as de
from energy_attention import energy as en
from energy_attention import equivalence as eq
from energy_attention import loopsim as ls
from energy_attention import numkit as nk

PINS = json.loads((Path(__file__).parent / "training_pins.json").read_text())
CLI_PINS = json.loads((Path(__file__).parent / "cli_pins.json").read_text())


def _check_rows(rows, expected):
    assert [(r["optimizer"], r["iters_to_tol"], r["stop_reason"]) for r in rows] == \
        [row[:3] for row in expected]
    for row, (*_, energy) in zip(rows, expected):
        assert row["final_energy"] == pytest.approx(energy, rel=1e-12, abs=0)


def test_compare_rows_at_cli_defaults():
    # `compare` defaults: elastic, 4 heads (conditioned blocks), d=16, N=64,
    # lr 0.05, beta 0.9, 1000 steps, tol 1e-6, seed 0
    spec, z0, tokens = de.conditioned_multihead_instance(0, 16, 64, 4, 1.0)
    opts = [de.Vanilla(0.05), de.Momentum(0.05, 0.9), de.Nag(0.05, 0.9)]
    rows = de.compare_optimizers(spec, z0, tokens, opts, budget=1000, tol=1e-6)
    _check_rows(rows, [
        ("nag", 186, "converged", -4.039174332768459),
        ("momentum", 211, "converged", -4.039174332768496),
        ("vanilla", 1000, "max_iters", -4.039174332764411),
    ])


@pytest.mark.parametrize("seed, expected", [
    (700, [("nag", 187, "converged", -4.03747620440476),
           ("momentum", 212, "converged", -4.0374762044049355),
           ("newton-exact", 241, "converged", -4.037476204404742),
           ("newton-taylor1", 242, "converged", -4.0374762044047285),
           ("vanilla", 1052, "converged", -4.0374762044046975)]),
    (701, [("nag", 188, "converged", -4.038403436840648),
           ("momentum", 212, "converged", -4.038403436840666),
           ("newton-exact", 242, "converged", -4.038403436840732),
           ("newton-taylor1", 243, "converged", -4.038403436840725),
           ("vanilla", 1054, "converged", -4.038403436840625)]),
])
def test_compare_rows_on_descent_race_instances(seed, expected):
    spec, z0, tokens = de.conditioned_multihead_instance(seed, 16, 64, 4)
    opts = [de.Vanilla(0.05), de.Momentum(0.05, 0.9), de.Nag(0.05, 0.9),
            de.NewtonSubspace(0.2, "exact"), de.NewtonSubspace(0.2, "taylor1")]
    rows = de.compare_optimizers(spec, z0, tokens, opts, budget=2000, tol=1e-6)
    _check_rows(rows, expected)


def test_verify_all_witnesses_at_cli_defaults():
    # `verify all` defaults: d=8, N=16, H=2, rho 1, lr 0.1, T 1, 100 instances, seed 7
    reports = eq.verify_all(eq.InstanceConfig(), 100, 7)
    assert [(r.claim, r.passed, r.witness_seed) for r in reports] == \
        [(claim, True, None) for claim in eq.CLAIMS]
    hessian = reports[-1].details
    assert (hessian["indefinite_witness_seed"], hessian["stationary_checked"],
            hessian["stationary_skipped"]) == (9, 67, 0)


# ---------------------------------------------------------------------------
# alternating training
# ---------------------------------------------------------------------------

def _train(trainer, energy, causal, temp):
    # d=4, 2+2 samples of 5 tokens, 2 loop iterations, rate 0.1, 3 epochs;
    # loop samples carry a random soft label per position
    rng = nk.Rng(31)
    d, n = 4, 5
    weight = rng.normal_matrix(d, d, 1 / math.sqrt(d))
    head = rng.normal_matrix(d, 2, 0.3)
    make = en.elastic_spec if energy == "elastic" else en.inner_product_spec
    cfg = ls.LoopConfig(make(weight, temp), 2, 0.1, causal=causal, head=head)
    data = ls.two_cluster_dataset(rng, 2, n, d)
    if trainer == "single":
        return ls.alternating_optimize(cfg, data, 3)
    sequences = []
    for tokens, _ in data:
        labels = rng.uniforms(2 * n).reshape(2, n)
        sequences.append((tokens, labels / labels.sum(axis=0)))
    return ls.loop_alternating_optimize(cfg, sequences, 3)


@pytest.mark.parametrize("pin", PINS["training"], ids=lambda p: "-".join(
    [p["trainer"], p["energy"], "causal" if p["causal"] else "full", f"T{p['temp']}"]))
def test_training_records_and_parameters(pin):
    trace = _train(pin["trainer"], pin["energy"], pin["causal"], pin["temp"])
    assert trace.stop_reason == pin["stop_reason"]
    got = [[r.epoch, r.cross_entropy, r.free_energy, r.weight_norm, r.head_norm]
           for r in trace.epochs]
    assert [row[0] for row in got] == [row[0] for row in pin["epochs"]]
    np.testing.assert_allclose(got, pin["epochs"], rtol=1e-12, atol=0)
    np.testing.assert_allclose(trace.final_weight, pin["final_weight"],
                               rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(trace.final_head, pin["final_head"],
                               rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("pin", PINS["cli"], ids=lambda p: " ".join(p["args"][1:]))
def test_loop_training_csv_rows(pin, tmp_path):
    # `loop` training at CLI defaults: d=8, 8 tokens, 20 samples, 20 epochs,
    # 4 iterations, lr 0.1, seed 0
    out = tmp_path / "train.csv"
    assert cli.main(["loop", *pin["args"], "--out", str(out)]) == 0
    config, header, *rows = out.read_text().splitlines()
    assert (config, header) == (pin["config"], pin["header"])
    got = [[float(v) for v in row.split(",")] for row in rows]
    assert [row[0] for row in got] == [row[0] for row in pin["rows"]]
    np.testing.assert_allclose(got, pin["rows"], rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# whole CLI outputs
# ---------------------------------------------------------------------------

# CSV columns holding floats; every other cell must match exactly
FLOAT_COLUMNS = {"max_abs_error", "threshold", "energy", "grad_norm",
                 "final_energy", "objective", "cross_entropy", "free_energy",
                 "total", "weight_norm", "head_norm", "full_hessian",
                 "psd_part", "nsd_part", "median_ns", "per-token_ns"}


def _same_json(got, want, where="$"):
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert got == pytest.approx(want, rel=1e-12, abs=0), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


def _same_csv(got, want):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert got_lines[:2] == want_lines[:2]  # config line and header
    assert len(got_lines) == len(want_lines)
    header = want_lines[1].split(",")
    for got_row, want_row in zip(got_lines[2:], want_lines[2:]):
        got_cells, want_cells = got_row.split(","), want_row.split(",")
        assert len(got_cells) == len(want_cells) == len(header), want_row
        for name, g, w in zip(header, got_cells, want_cells):
            if g != w:
                assert name in FLOAT_COLUMNS, (name, want_row)
                assert float(g) == pytest.approx(float(w), rel=1e-12, abs=0), \
                    (name, want_row)


@pytest.mark.parametrize("pin", CLI_PINS, ids=lambda p: " ".join(p["args"]))
def test_cli_output_matches_pin(pin, tmp_path, monkeypatch):
    # bench reads a fake clock, so its timings are part of the pin
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter_ns", lambda: 1000 * next(ticks) ** 2)
    out = tmp_path / "out"
    assert cli.main([*pin["args"], "--out", str(out)]) == pin["exit"]
    text = out.read_text()
    assert text.endswith("\n")
    if pin["args"][-1] == "json":
        _same_json(json.loads(text), json.loads(pin["text"]))
    else:
        _same_csv(text, pin["text"])
