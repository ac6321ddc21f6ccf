import math
from dataclasses import dataclass

import numpy as np
import pytest

from energy_attention import attention as attn
from energy_attention import descent as de
from energy_attention import energy as en
from energy_attention import equivalence as eq
from energy_attention import numkit as nk


def _elastic_instance(seed, dim=16, n=64, temp=1.0):
    rng = nk.Rng(seed)
    spec = en.elastic_spec(rng.normal_matrix(dim, dim, 1 / math.sqrt(dim)), temp)
    z0 = nk.sample_hypersphere(rng, dim, 1.0)
    tokens = np.stack([nk.sample_hypersphere(rng, dim, 1.0) for _ in range(n)],
                      axis=1)
    return spec, z0, tokens


def test_descend_records_initial_point_and_stops_on_budget():
    spec, z0, tokens = _elastic_instance(0, n=8)
    trace = de.descend(spec, de.Vanilla(0.01), z0, tokens, max_iters=5, tol=1e-300)
    assert [s.step for s in trace.steps] == list(range(6))
    np.testing.assert_array_equal(trace.steps[0].z, z0)
    assert trace.stop_reason == "max_iters"
    assert trace.steps[0].energy == pytest.approx(
        en.helmholtz_free_energy(spec, z0, tokens), abs=1e-12)


def test_descend_stationary_start_converges_immediately():
    spec, z0, tokens = _elastic_instance(1, n=16)
    fixed = en.stationary_point(spec, z0, tokens)
    assert fixed is not None
    trace = de.descend(spec, de.Vanilla(0.1), fixed, tokens, max_iters=50, tol=1e-8)
    assert len(trace.steps) == 1
    assert trace.stop_reason == "converged"
    assert trace.steps[0].grad_norm < 1e-8


def test_momentum_zero_beta_is_bitwise_vanilla():
    spec, z0, tokens = _elastic_instance(2)
    plain = de.descend(spec, de.Vanilla(0.01), z0, tokens, max_iters=40, tol=1e-300)
    withmom = de.descend(spec, de.Momentum(0.01, 0.0), z0, tokens, max_iters=40,
                         tol=1e-300)
    assert len(plain.steps) == len(withmom.steps)
    for a, b in zip(plain.steps, withmom.steps):
        np.testing.assert_array_equal(a.z, b.z)
        assert a.energy == b.energy and a.grad_norm == b.grad_norm


def test_momentum_and_nag_first_step_equal_vanilla():
    spec, z0, tokens = _elastic_instance(3)
    plain = de.descend(spec, de.Vanilla(0.02), z0, tokens, max_iters=1, tol=1e-300)
    for opt in (de.Momentum(0.02, 0.9), de.Nag(0.02, 0.9)):
        trace = de.descend(spec, opt, z0, tokens, max_iters=1, tol=1e-300)
        np.testing.assert_array_equal(trace.steps[1].z, plain.steps[1].z)


def test_nag_two_step_oracle_at_non_unit_rate():
    # the lookahead sits where the momentum step is about to land, so it
    # carries the learning rate: z - eta beta p
    spec, z0, tokens = _elastic_instance(17)
    eta, beta = 0.3, 0.7
    trace = de.descend(spec, de.Nag(eta, beta), z0, tokens, max_iters=2,
                       tol=1e-300)

    def grad(point):
        return en.grad_z(spec, point, tokens)

    p1 = grad(z0)
    z1 = z0 - eta * p1
    ahead = z1 - eta * beta * p1
    p2 = beta * p1 + grad(ahead)
    z2 = z1 - eta * p2
    np.testing.assert_allclose(trace.steps[1].z, z1, atol=1e-14)
    np.testing.assert_allclose(trace.steps[2].z, z2, atol=1e-14)


def test_vanilla_small_rate_monotone():
    for seed in range(10):
        spec, z0, tokens = _elastic_instance(seed)
        trace = de.descend(spec, de.Vanilla(0.01), z0, tokens, max_iters=100,
                           tol=1e-300)
        assert np.all(np.diff(trace.energies) <= 1e-12)


def test_monotone_descend_finds_rate_and_records_it():
    spec, z0, tokens = _elastic_instance(4)
    trace = de.monotone_descend(spec, z0, tokens, steps=30)
    assert "monotone_eta" in trace.metadata
    assert np.all(np.diff(trace.energies) <= 1e-12)


def test_newton_single_token_identity_map_equals_vanilla():
    # with W = I and one token the Hessian is the identity
    dim = 6
    rng = nk.Rng(5)
    spec = en.elastic_spec(np.eye(dim), 1.0)
    z0 = rng.normal_vector(dim)
    tokens = rng.normal_matrix(dim, 1)
    newton = de.descend(spec, de.NewtonSubspace(0.4, "exact"), z0, tokens,
                        max_iters=1, tol=1e-300)
    vanilla = de.descend(spec, de.Vanilla(0.4), z0, tokens, max_iters=1, tol=1e-300)
    np.testing.assert_allclose(newton.steps[1].z, vanilla.steps[1].z, atol=1e-14)


def test_newton_exact_converges_fast_on_multihead_instance():
    inst = eq.make_tied_instance(nk.Rng(6), "multihead", 8, 16, 2, 1.0, 0.1, 1.0)
    trace = de.descend(inst.spec, de.NewtonSubspace(1.0, "exact"), inst.z,
                       inst.tokens, max_iters=100, tol=1e-10)
    assert trace.stop_reason == "converged"
    assert len(trace.steps) < 60


def test_newton_taylor_step_matches_manual_truncation():
    spec, z0, tokens = _elastic_instance(7, dim=6, n=5)
    trace = de.descend(spec, de.NewtonSubspace(0.3, "taylor1"), z0, tokens,
                       max_iters=1, tol=1e-300)
    weights = en.boltzmann_weights(spec, z0, tokens)
    keys = spec.pair.weight @ tokens
    kbar = keys @ weights
    centered = keys - kbar[:, None]
    variance = (centered * weights) @ centered.T
    expected = z0 - 0.3 * ((np.eye(6) + variance) @ (z0 - kbar))
    np.testing.assert_allclose(trace.steps[1].z, expected, atol=1e-12)


def test_newton_singular_bracket_stops_with_reason():
    # antipodal mapped tokens at T = radius^2 zero out one bracket direction;
    # the start is offset along the other axis so the gradient is nonzero
    spec = en.elastic_spec(np.eye(2), 1.0)
    tokens = np.array([[1.0, -1.0], [0.0, 0.0]])
    z0 = np.array([0.0, 0.5])
    trace = de.descend(spec, de.NewtonSubspace(1.0, "exact"), z0, tokens,
                       max_iters=5, tol=1e-300)
    assert trace.stop_reason == "singular"
    regularized = de.descend(spec, de.NewtonSubspace(1.0, "exact", eps=1e-6),
                             z0, tokens, max_iters=5, tol=1e-300)
    assert regularized.stop_reason != "singular"


def test_newton_requires_elastic_energy():
    rng = nk.Rng(8)
    spec = en.inner_product_spec(rng.normal_matrix(4, 4), 1.0)
    with pytest.raises(ValueError, match="elastic"):
        de.descend(spec, de.NewtonSubspace(), rng.normal_vector(4),
                   rng.normal_matrix(4, 3), max_iters=2, tol=1e-6)


def test_divergence_is_reported_not_raised():
    rng = nk.Rng(9)
    spec = en.square_sum_spec(rng.normal_matrix(4, 4), 1.0)
    z0 = rng.normal_vector(4)
    tokens = rng.normal_matrix(4, 6)
    trace = de.descend(spec, de.Vanilla(10.0), z0, tokens, max_iters=400,
                       tol=1e-300)
    assert trace.stop_reason == "diverged"
    assert all(np.isfinite(s.energy) for s in trace.steps)


def test_radial_projection_keeps_norm():
    spec, z0, tokens = _elastic_instance(10, n=8)
    trace = de.descend(spec, de.Vanilla(0.1), z0, tokens, max_iters=20,
                       tol=1e-300, project_radius=1.0)
    for step in trace.steps[1:]:
        assert abs(np.linalg.norm(step.z) - 1.0) < 1e-12


def test_one_tied_step_reproduces_attention_forward():
    # cross-module: a single descent step under the tied convention equals
    # the softmax attention forward on a tied instance
    inst = eq.make_tied_instance(nk.Rng(11), "softmax", 8, 12, 1, 1.0, 0.1, 1.0)
    bound = en.upper_bound_spec(inst.spec)
    trace = de.descend(bound, de.Vanilla(inst.eta), inst.z, inst.tokens,
                       max_iters=1, tol=1e-300, convention="tied")
    forward = attn.softmax_attention(inst.params, inst.z, inst.tokens)
    assert np.max(np.abs(trace.steps[1].z - forward)) < 1e-10


def test_traces_are_reproducible():
    spec, z0, tokens = _elastic_instance(12)
    a = de.descend(spec, de.Nag(0.05, 0.9), z0, tokens, max_iters=30, tol=1e-300)
    b = de.descend(spec, de.Nag(0.05, 0.9), z0, tokens, max_iters=30, tol=1e-300)
    for ra, rb in zip(a.steps, b.steps):
        np.testing.assert_array_equal(ra.z, rb.z)
        assert ra.energy == rb.energy


def test_compare_optimizers_single_row_matches_descend():
    spec, z0, tokens = _elastic_instance(13, n=16)
    rows = de.compare_optimizers(spec, z0, tokens, [de.Vanilla(0.05)],
                                 budget=50, tol=1e-4)
    assert len(rows) == 1
    trace = de.descend(spec, de.Vanilla(0.05), z0, tokens, max_iters=50, tol=1e-4)
    assert rows[0]["final_energy"] == trace.steps[-1].energy
    iters = trace.iters_to_tol(1e-4)
    assert rows[0]["iters_to_tol"] == (50 if iters is None else iters)


def test_compare_optimizers_zero_beta_tie():
    spec, z0, tokens = _elastic_instance(14, n=16)
    rows = de.compare_optimizers(spec, z0, tokens,
                                 [de.Vanilla(0.05), de.Momentum(0.05, 0.0)],
                                 budget=200, tol=1e-5)
    assert rows[0]["iters_to_tol"] == rows[1]["iters_to_tol"]
    assert rows[0]["final_energy"] == rows[1]["final_energy"]


def test_conditioned_instance_gram_is_scaled_identity():
    spec, z0, tokens = de.conditioned_multihead_instance(15, 16, 8, 4)
    gram = sum(w.T @ w for w in spec.pair.w_query) / 4
    np.testing.assert_allclose(gram, np.eye(16) / 4, atol=1e-12)
    assert tokens.shape == (16, 8)


def test_compare_optimizers_momentum_accelerates_on_conditioned_instance():
    spec, z0, tokens = de.conditioned_multihead_instance(16, 16, 64, 4)
    rows = de.compare_optimizers(
        spec, z0, tokens,
        [de.Vanilla(0.05), de.Momentum(0.05, 0.9), de.Nag(0.05, 0.9)],
        budget=3000, tol=1e-6)
    by = {r["optimizer"]: r["iters_to_tol"] for r in rows}
    assert all(v < 3000 for v in by.values())
    assert by["momentum"] <= by["vanilla"]
    assert by["nag"] <= by["vanilla"]


def test_optimizer_validation():
    with pytest.raises(ValueError):
        de.descend(en.elastic_spec(np.eye(2), 1.0), de.Vanilla(-0.1),
                   np.zeros(2), np.ones((2, 1)))
    with pytest.raises(ValueError):
        de.descend(en.elastic_spec(np.eye(2), 1.0), de.Momentum(0.1, 1.0),
                   np.zeros(2), np.ones((2, 1)))
    with pytest.raises(ValueError):
        de.descend(en.elastic_spec(np.eye(2), 1.0), de.NewtonSubspace(mode="pade"),
                   np.zeros(2), np.ones((2, 1)))

    # an unknown optimizer type fails before step 0, even at a start point
    # that already meets the tolerance
    @dataclass(frozen=True)
    class Adam:
        eta: float

        label = "adam"

    with pytest.raises(ValueError, match="unknown optimizer Adam"):
        de.descend(en.elastic_spec(np.eye(2), 1.0), Adam(0.1), np.ones(2),
                   np.ones((2, 1)))


@pytest.mark.parametrize("optimizer, kwargs, message", [
    (de.Vanilla(math.nan), {}, "learning rate must be finite and > 0"),
    (de.NewtonSubspace(eta=math.nan), {}, "learning rate must be finite and > 0"),
    (de.NewtonSubspace(eta=math.inf), {}, "learning rate must be finite and > 0"),
    (de.NewtonSubspace(eps=math.nan), {}, "regularization must be finite and >= 0"),
    (de.Vanilla(0.1), {"tol": math.nan}, "tolerance must be finite and > 0"),
])
def test_descend_rejects_non_finite_scalars(optimizer, kwargs, message):
    with pytest.raises(ValueError, match=message):
        de.descend(en.elastic_spec(np.eye(2), 1.0), optimizer, np.zeros(2),
                   np.ones((2, 1)), max_iters=3, **kwargs)


@pytest.mark.parametrize("optimizer", [de.Vanilla(0.1), de.NewtonSubspace(0.5)])
@pytest.mark.parametrize("bad, message", [
    ("nan token", "tokens have non-finite entries"),
    ("inf token", "tokens have non-finite entries"),
    ("no tokens", r"tokens must be a 6 x N matrix with N >= 1"),
    ("wrong token dim", r"tokens must be a 6 x N matrix with N >= 1"),
    ("short start", "query must be a length-6 vector"),
    ("nan start", "query has non-finite entries"),
])
def test_descend_rejects_bad_inputs_at_entry(optimizer, bad, message):
    spec, z0, tokens = _elastic_instance(31, dim=6, n=5)
    z0, tokens = {
        "nan token": (z0, np.where(np.arange(5) == 2, np.nan, tokens)),
        "inf token": (z0, np.where(np.arange(5) == 0, np.inf, tokens)),
        "no tokens": (z0, tokens[:, :0]),
        "wrong token dim": (z0, tokens[:5]),
        "short start": (z0[:5], tokens),
        "nan start": (np.where(np.arange(6) == 1, np.nan, z0), tokens),
    }[bad]
    with pytest.raises(ValueError, match=message):
        de.descend(spec, optimizer, z0, tokens, max_iters=3, tol=1e-6)
    with pytest.raises(ValueError, match=message):
        de.compare_optimizers(spec, z0, tokens, [optimizer], budget=3, tol=1e-6)


def test_descend_checks_per_head_and_kernel_dimensions():
    rng = nk.Rng(32)
    maps = [tuple(rng.normal_matrix(2, 6, 0.3) for _ in range(3)) for _ in range(2)]
    specs = (en.per_head_elastic_spec(*maps, 1.0),
             en.kernel_spec(rng.normal_matrix(4, 6, 0.3), rng.normal_matrix(4, 6, 0.3), 1.0))
    for spec in specs:
        trace = de.descend(spec, de.Vanilla(0.1), rng.normal_vector(6),
                           rng.normal_matrix(6, 4), max_iters=2, tol=1e-300)
        assert trace.stop_reason == "max_iters"
        with pytest.raises(ValueError, match=r"tokens must be a 6 x N matrix"):
            de.descend(spec, de.Vanilla(0.1), rng.normal_vector(6),
                       rng.normal_matrix(4, 4), max_iters=2, tol=1e-300)
