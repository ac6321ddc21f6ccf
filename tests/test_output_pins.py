"""Seeded outputs pinned at values recorded before the energy core replaced
the separate op-level and engine implementations.

Iteration counts, stop reasons and witness seeds must not move; final
energies may move only at the float-reassociation level.
"""

import pytest

from energy_attention import descent as de
from energy_attention import equivalence as eq


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
