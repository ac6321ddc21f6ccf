import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from energy_attention import energy as en
from energy_attention import numkit as nk


def _random_specs(seed, d=8, heads=2):
    """One spec of every kind on a shared dimension."""
    rng = nk.Rng(seed)
    w = rng.normal_matrix(d, d, 1 / math.sqrt(d))
    head_dim = d // heads
    w1 = tuple(rng.normal_matrix(head_dim, d, 1 / math.sqrt(d)) for _ in range(heads))
    w2 = tuple(rng.normal_matrix(head_dim, d, 1 / math.sqrt(d)) for _ in range(heads))
    return {
        "elastic": en.elastic_spec(w, 0.7),
        "inner": en.inner_product_spec(w, 0.7),
        "kernel-exp": en.kernel_spec(rng.normal_matrix(d, d, 0.3),
                                     rng.normal_matrix(d, d, 0.3), 0.7),
        "kernel-identity": en.kernel_spec(rng.normal_matrix(d, d, 0.3),
                                          rng.normal_matrix(d, d, 0.3), 0.7,
                                          "identity"),
        "per-head-elastic": en.per_head_elastic_spec(w1, w2, 0.7),
        "per-head-inner": en.per_head_inner_spec(w1, w2, 0.7),
        "square-sum": en.square_sum_spec(w, 0.7, rng.uniforms(12)),
    }


# ---------------------------------------------------------------------------
# pair energies
# ---------------------------------------------------------------------------

def test_pair_energy_elastic_zero_displacement():
    z = np.array([0.3, -0.4])
    spec = en.elastic_spec(np.eye(2), 1.0)
    assert en.pair_energy(spec, z, z) == 0.0


def test_pair_energy_inner_orthogonal():
    spec = en.inner_product_spec(np.eye(2), 1.0)
    assert en.pair_energy(spec, np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0


def test_pair_energy_elastic_unit_offset():
    spec = en.elastic_spec(np.eye(2), 1.0)
    assert en.pair_energy(spec, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_pair_energy_per_head_indexing():
    specs = _random_specs(0)
    spec = specs["per-head-elastic"]
    z = nk.Rng(1).normal_vector(8)
    h = nk.Rng(2).normal_vector(8)
    for head in range(2):
        w1, w2 = spec.pair.w_query[head], spec.pair.w_key[head]
        expected = 0.5 * float(np.sum((w1 @ z - w2 @ h) ** 2))
        assert en.pair_energy(spec, z, h, head) == pytest.approx(expected, abs=1e-14)
    for head in (-1, 2):
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            en.pair_energy(spec, z, h, head)
    with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
        en.pair_energy(specs["elastic"], z, h, 1)


# ---------------------------------------------------------------------------
# explicit free energy and the Boltzmann minimum
# ---------------------------------------------------------------------------

def test_free_energy_uniform_equal_energies():
    # N equal energies under uniform weights: E - T ln N
    z = np.zeros(2)
    tokens = np.stack([np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                       np.array([-1.0, 0.0])], axis=1)
    spec = en.elastic_spec(np.eye(2), 0.5)
    val = en.free_energy(spec, z, tokens, np.full(3, 1 / 3))
    assert val == pytest.approx(0.5 - 0.5 * math.log(3), abs=1e-12)


def test_free_energy_one_hot_is_single_energy():
    specs = _random_specs(3)
    spec = specs["elastic"]
    rng = nk.Rng(4)
    z = rng.normal_vector(8)
    tokens = rng.normal_matrix(8, 5)
    p = np.zeros(5)
    p[2] = 1.0
    energies = en.pair_energies(spec, z, tokens)
    assert en.free_energy(spec, z, tokens, p) == pytest.approx(energies[2], abs=1e-13)


def test_free_energy_boltzmann_attains_minimum_value():
    specs = _random_specs(5)
    rng = nk.Rng(6)
    z = rng.normal_vector(8)
    tokens = rng.normal_matrix(8, 6)
    for name in ("elastic", "inner", "kernel-exp"):
        spec = specs[name]
        p = en.boltzmann_weights(spec, z, tokens)
        assert en.free_energy(spec, z, tokens, p) == pytest.approx(
            en.helmholtz_free_energy(spec, z, tokens), abs=1e-12)


def test_free_energy_rejects_off_simplex():
    spec = _random_specs(7)["elastic"]
    z = np.zeros(8)
    tokens = nk.Rng(8).normal_matrix(8, 3)
    with pytest.raises(ValueError, match="simplex"):
        en.free_energy(spec, z, tokens, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError, match="simplex"):
        en.free_energy(spec, z, tokens, np.array([1.2, -0.2, 0.0]))
    for nan_weights in ([np.nan, 0.5, 0.5], [np.nan] * 3):
        with pytest.raises(ValueError, match="simplex"):
            en.free_energy(spec, z, tokens, np.array(nan_weights))


def test_boltzmann_weights_equal_energies_uniform():
    spec = en.elastic_spec(np.eye(2), 1.0)
    tokens = np.stack([[1.0, 0.0], [0.0, 1.0]], axis=1)
    np.testing.assert_allclose(en.boltzmann_weights(spec, np.zeros(2), tokens),
                               [0.5, 0.5], atol=1e-15)


def test_boltzmann_weights_analytic_ratio():
    # energies [0, T ln 3] -> weights [3/4, 1/4]; realized with the identity
    # feature map: E = -z . h
    t = 0.8
    spec = en.kernel_spec(np.eye(1), np.eye(1), t, "identity")
    z = np.array([1.0])
    tokens = np.array([[0.0, -t * math.log(3.0)]])
    np.testing.assert_allclose(en.boltzmann_weights(spec, z, tokens),
                               [0.75, 0.25], atol=1e-14)


def test_boltzmann_weights_extended_precision_oracle():
    # energies [1, 2, 3] at T=1 against a 50-digit evaluation
    t = 1.0
    spec = en.kernel_spec(np.eye(1), np.eye(1), t, "identity")
    z = np.array([1.0])
    tokens = np.array([[-1.0, -2.0, -3.0]])
    got = en.boltzmann_weights(spec, z, tokens)
    with mpmath.workdps(50):
        terms = [mpmath.e ** (-e) for e in (1, 2, 3)]
        total = sum(terms)
        expected = [float(term / total) for term in terms]
    np.testing.assert_allclose(got, expected, rtol=1e-14)
    # frozen values from the same oracle
    np.testing.assert_allclose(
        got, [0.6652409557748219, 0.24472847105479764, 0.09003057317038046],
        rtol=1e-14)


def test_boltzmann_weights_per_head_shape_and_rows():
    spec = _random_specs(9)["per-head-elastic"]
    rng = nk.Rng(10)
    z = rng.normal_vector(8)
    tokens = rng.normal_matrix(8, 5)
    weights = en.boltzmann_weights(spec, z, tokens)
    assert weights.shape == (2, 5)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# global energies
# ---------------------------------------------------------------------------

def test_helmholtz_single_token_is_its_energy():
    spec = _random_specs(11)["elastic"]
    rng = nk.Rng(12)
    z = rng.normal_vector(8)
    token = rng.normal_matrix(8, 1)
    assert en.helmholtz_free_energy(spec, z, token) == pytest.approx(
        en.pair_energies(spec, z, token)[0], abs=1e-13)


def test_helmholtz_identical_energies():
    spec = en.elastic_spec(np.eye(2), 0.3)
    tokens = np.stack([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], axis=1)
    val = en.helmholtz_free_energy(spec, np.zeros(2), tokens)
    assert val == pytest.approx(0.5 - 0.3 * math.log(4), abs=1e-13)


def test_helmholtz_multi_head_is_mean_of_per_head_values():
    spec = _random_specs(13)["per-head-elastic"]
    rng = nk.Rng(14)
    z = rng.normal_vector(8)
    tokens = rng.normal_matrix(8, 7)
    per_head = []
    for w1, w2 in zip(spec.pair.w_query, spec.pair.w_key):
        single = en.per_head_elastic_spec([w1], [w2], spec.temperature)
        per_head.append(en.helmholtz_free_energy(single, z, tokens))
    assert en.helmholtz_free_energy(spec, z, tokens) == pytest.approx(
        float(np.mean(per_head)), abs=1e-13)


def _sphere_instance(seed, d=8, n=6, radius=1.3, temp=0.9):
    rng = nk.Rng(seed)
    while True:
        w = rng.normal_matrix(d, d, 1 / math.sqrt(d))
        try:
            w_inv = nk.solve_inverse(w)
            break
        except ValueError:
            continue
    z = nk.sample_hypersphere(rng, d, radius)
    tokens = np.stack([w_inv @ nk.sample_hypersphere(rng, d, radius)
                       for _ in range(n)], axis=1)
    return en.elastic_spec(w, temp), z, tokens


def test_upper_bound_sphere_identity():
    # on a common sphere the elastic free energy exceeds the bound by radius^2
    for seed in range(10):
        spec, z, tokens = _sphere_instance(seed)
        lhs = en.helmholtz_free_energy(spec, z, tokens)
        rhs = en.upper_bound_energy(spec, z, tokens) + 1.3 ** 2
        assert abs(lhs - rhs) < 1e-10


def test_upper_bound_single_token():
    spec, z, tokens = _sphere_instance(20, n=1)
    expected = -float(z @ (spec.pair.weight @ tokens[:, 0]))
    assert en.upper_bound_energy(spec, z, tokens) == pytest.approx(expected, abs=1e-12)


def test_upper_bound_relaxed_norms_inequality():
    # norms <= radius: elastic free energy <= bound + radius^2
    for seed in range(30):
        spec, z, tokens = _sphere_instance(seed + 100)
        rng = nk.Rng(seed + 900)
        z = z * (0.2 + 0.8 * rng.uniform())
        tokens = tokens * (0.2 + 0.8 * rng.uniforms(tokens.shape[1]))
        lhs = en.helmholtz_free_energy(spec, z, tokens)
        rhs = en.upper_bound_energy(spec, z, tokens) + 1.3 ** 2
        assert lhs <= rhs + 1e-12


def test_square_sum_orthogonal_scores_zero():
    spec = en.square_sum_spec(np.eye(2), 1.0)
    z = np.array([1.0, 0.0])
    tokens = np.array([[0.0, 0.0], [1.0, -2.0]])
    assert en.square_sum_energy(spec, z, tokens) == 0.0


def test_square_sum_single_analytic():
    # score 2, gate 1, T=1: -(1/2) * 4 = -2
    spec = en.square_sum_spec(np.eye(1), 1.0, np.array([1.0]))
    assert en.square_sum_energy(spec, np.array([2.0]), np.array([[1.0]])) == -2.0


def test_square_sum_gated_extended_precision_oracle():
    rng = nk.Rng(21)
    w = rng.normal_matrix(4, 4)
    z = rng.normal_vector(4)
    tokens = rng.normal_matrix(4, 6)
    gates = rng.uniforms(6)
    spec = en.square_sum_spec(w, 1.7, gates)
    got = en.square_sum_energy(spec, z, tokens)
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for i in range(6):
            score = mpmath.mpf(0)
            for a in range(4):
                for b in range(4):
                    score += mpmath.mpf(z[a]) * mpmath.mpf(w[a, b]) * mpmath.mpf(tokens[b, i])
            total += mpmath.mpf(gates[i]) * score * score
        expected = float(-mpmath.mpf("1.7") / 2 * total)
    assert got == pytest.approx(expected, rel=1e-13)


def test_square_sum_gate_length_mismatch():
    spec = en.square_sum_spec(np.eye(2), 1.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="gates"):
        en.square_sum_energy(spec, np.ones(2), np.ones((2, 3)))


@pytest.mark.parametrize("gates", [
    [1.0, 1.0, 1.0, 1.0],
    np.array([1.0, np.nan, 1.0, 1.0]),
    np.array([1.0, np.inf, 1.0, 1.0]),
    np.array([1.0, -0.5, 1.0, 1.0]),
    np.ones((2, 2)),
    np.ones(4, dtype=int),
])
def test_square_sum_gates_checked_when_the_spec_is_built(gates):
    with pytest.raises(ValueError, match="gates must be a finite, nonnegative 1-D float"):
        en.EnergySpec(en.InnerProduct(np.eye(4)), en.WeightedSquareSum(1.0, gates))


def test_square_sum_all_ones_gates_match_default():
    rng = nk.Rng(22)
    w = rng.normal_matrix(3, 3)
    z = rng.normal_vector(3)
    tokens = rng.normal_matrix(3, 5)
    gated = en.square_sum_spec(w, 0.9, np.ones(5))
    plain = en.square_sum_spec(w, 0.9)
    assert en.square_sum_energy(gated, z, tokens) == en.square_sum_energy(plain, z, tokens)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_grad_z_elastic_single_token_identity_map():
    spec = en.elastic_spec(np.eye(3), 1.0)
    z = np.array([1.0, 2.0, 3.0])
    h = np.array([0.5, 0.0, -1.0])
    np.testing.assert_allclose(en.grad_z(spec, z, h[:, None]), z - h, atol=1e-15)


def test_grad_z_elastic_symmetric_tokens_vanishes():
    spec = en.elastic_spec(np.eye(2), 1.0)
    tokens = np.stack([[1.0, 0.5], [-1.0, -0.5]], axis=1)
    np.testing.assert_allclose(en.grad_z(spec, np.zeros(2), tokens), 0.0, atol=1e-15)


def test_grad_z_matches_finite_differences_all_variants():
    # 100 seeded instances per variant across small shapes
    shapes = [(4, 6, 2), (8, 12, 2), (16, 32, 4), (8, 5, 4)]
    for name in ("elastic", "inner", "kernel-exp", "kernel-identity",
                 "per-head-elastic", "per-head-inner", "square-sum",
                 "kernel-square-sum"):
        count = 0
        for seed in range(100):
            d, n, heads = shapes[seed % len(shapes)]
            specs = _random_specs(seed, d=d, heads=heads)
            gated = name in ("square-sum", "kernel-square-sum")
            if name == "square-sum":
                spec = en.square_sum_spec(specs[name].pair.weight, 0.7,
                                          nk.Rng(seed).uniforms(n))
            elif name == "kernel-square-sum":
                spec = en.EnergySpec(specs["kernel-exp"].pair,
                                     en.WeightedSquareSum(0.7,
                                                          nk.Rng(seed).uniforms(n)))
            else:
                spec = specs[name]
            rng = nk.Rng(1000 + seed)
            z = rng.normal_vector(d)
            tokens = rng.normal_matrix(d, n)
            value_of = en.square_sum_energy if gated else en.helmholtz_free_energy
            grad = en.grad_z(spec, z, tokens, "strict")
            fd = nk.fd_gradient(lambda v: value_of(spec, v, tokens), z)
            scale = max(np.max(np.abs(fd)), 1e-10)
            assert np.max(np.abs(grad - fd)) / scale < 1e-6, (name, seed)
            count += 1
        assert count == 100


def test_grad_z_tied_scales_inner_product_forms_only():
    specs = _random_specs(23)
    rng = nk.Rng(24)
    z = rng.normal_vector(8)
    tokens = rng.normal_matrix(8, 6)
    t = 0.7
    for name in ("inner", "per-head-inner"):
        strict = en.grad_z(specs[name], z, tokens, "strict")
        tied = en.grad_z(specs[name], z, tokens, "tied")
        np.testing.assert_allclose(tied, t * strict, atol=1e-14)
    for name in ("elastic", "per-head-elastic"):
        np.testing.assert_array_equal(en.grad_z(specs[name], z, tokens, "strict"),
                                      en.grad_z(specs[name], z, tokens, "tied"))
    with pytest.raises(ValueError, match="convention"):
        en.grad_z(specs["elastic"], z, tokens, "loose")


def test_grad_weight_zero_query_inner_product():
    spec = _random_specs(25)["inner"]
    tokens = nk.Rng(26).normal_matrix(8, 4)
    np.testing.assert_allclose(en.grad_weight(spec, np.zeros(8), tokens), 0.0)


def test_grad_weight_elastic_equilibrium():
    z = nk.Rng(27).normal_vector(5)
    spec = en.elastic_spec(np.eye(5), 1.0)
    np.testing.assert_allclose(en.grad_weight(spec, z, z[:, None]), 0.0, atol=1e-15)


def test_grad_weight_matches_finite_differences():
    for seed in range(10):
        for name in ("elastic", "inner"):
            spec = _random_specs(seed)[name]
            rng = nk.Rng(2000 + seed)
            z = rng.normal_vector(8)
            tokens = rng.normal_matrix(8, 6)
            w0 = spec.pair.weight
            kind = en.elastic_spec if name == "elastic" else en.inner_product_spec

            def value(flat):
                respec = kind(flat.reshape(8, 8), spec.temperature)
                return en.helmholtz_free_energy(respec, z, tokens)

            grad = en.grad_weight(spec, z, tokens)
            fd = nk.fd_gradient(value, w0.ravel()).reshape(8, 8)
            scale = max(np.max(np.abs(fd)), 1e-10)
            assert np.max(np.abs(grad - fd)) / scale < 1e-6


def test_grad_weight_unsupported():
    specs = _random_specs(28)
    z = np.zeros(8)
    tokens = np.zeros((8, 2))
    for name in ("kernel-exp", "per-head-elastic", "square-sum"):
        with pytest.raises(ValueError, match="no analytic weight gradient"):
            en.grad_weight(specs[name], z, tokens)


# ---------------------------------------------------------------------------
# Hessians
# ---------------------------------------------------------------------------

def test_hessian_single_token_elastic_is_identity():
    spec = en.elastic_spec(np.eye(3), 0.8)
    z = np.array([0.1, 0.2, 0.3])
    np.testing.assert_allclose(en.hessian_z(spec, z, np.ones((3, 1))), np.eye(3),
                               atol=1e-14)


def test_hessian_single_token_inner_is_zero():
    spec = _random_specs(29)["inner"]
    rng = nk.Rng(30)
    np.testing.assert_allclose(
        en.hessian_z(spec, rng.normal_vector(8), rng.normal_matrix(8, 1)), 0.0,
        atol=1e-14)


def test_hessian_matches_fd_jacobian_and_is_symmetric():
    for seed in range(8):
        specs = _random_specs(seed)
        rng = nk.Rng(3000 + seed)
        z = rng.normal_vector(8)
        tokens = rng.normal_matrix(8, 9)
        for name in ("elastic", "inner", "per-head-elastic", "per-head-inner"):
            spec = specs[name]
            hess = en.hessian_z(spec, z, tokens)
            assert np.max(np.abs(hess - hess.T)) < 1e-10
            fd = nk.fd_jacobian(lambda v: en.grad_z(spec, v, tokens, "strict"), z)
            scale = max(np.max(np.abs(hess)), 1e-10)
            assert np.max(np.abs(hess - fd)) / scale < 1e-4


def test_hessian_split_signs_and_sum():
    for seed in range(8):
        specs = _random_specs(seed)
        rng = nk.Rng(4000 + seed)
        z = rng.normal_vector(8)
        tokens = rng.normal_matrix(8, 9)
        for name in ("elastic", "inner", "per-head-elastic", "per-head-inner"):
            psd, nsd = en.hessian_split(specs[name], z, tokens)
            np.testing.assert_allclose(psd + nsd,
                                       en.hessian_z(specs[name], z, tokens),
                                       atol=1e-12)
            assert nk.sym_eigvals(nsd)[-1] <= 1e-8
            assert nk.sym_eigvals(psd)[0] >= -1e-8


def test_hessian_split_single_token_nsd_zero():
    spec = _random_specs(31)["per-head-elastic"]
    rng = nk.Rng(32)
    psd, nsd = en.hessian_split(spec, rng.normal_vector(8), rng.normal_matrix(8, 1))
    np.testing.assert_allclose(nsd, 0.0, atol=1e-14)
    assert nk.sym_eigvals(psd + nsd)[0] >= -1e-10


def test_upper_bound_hessian_concave():
    for seed in range(10):
        specs = _random_specs(seed)
        rng = nk.Rng(5000 + seed)
        z = rng.normal_vector(8)
        tokens = rng.normal_matrix(8, 10)
        for name in ("elastic", "per-head-elastic"):
            bound = en.upper_bound_spec(specs[name])
            assert nk.sym_eigvals(en.hessian_z(bound, z, tokens))[-1] <= 1e-8


def test_hessian_indefinite_instance_exists():
    # sharp temperature: spread tokens make the covariance part dominate
    found = False
    for seed in range(10):
        rng = nk.Rng(seed)
        w1 = tuple(rng.normal_matrix(4, 8, 1 / math.sqrt(8)) for _ in range(2))
        w2 = tuple(rng.normal_matrix(4, 8, 1 / math.sqrt(8)) for _ in range(2))
        spec = en.per_head_elastic_spec(w1, w2, 0.1)
        z = nk.sample_hypersphere(rng, 8, 1.0)
        tokens = np.stack([nk.sample_hypersphere(rng, 8, 1.0) for _ in range(16)],
                          axis=1)
        eigs = nk.sym_eigvals(en.hessian_z(spec, z, tokens))
        if eigs[0] <= -1e-8 and eigs[-1] >= 1e-8:
            found = True
            break
    assert found


def test_hessian_unsupported_forms():
    specs = _random_specs(33)
    z = np.zeros(8)
    tokens = np.zeros((8, 2))
    with pytest.raises(ValueError):
        en.hessian_z(specs["square-sum"], z, tokens)
    with pytest.raises(ValueError):
        en.hessian_z(specs["kernel-exp"], z, tokens)


# ---------------------------------------------------------------------------
# stationary points and the engine
# ---------------------------------------------------------------------------

def test_stationary_point_single_head():
    spec, z, tokens = _sphere_instance(40, temp=1.0)
    fixed = en.stationary_point(spec, z, tokens)
    assert fixed is not None
    assert np.linalg.norm(en.grad_z(spec, fixed, tokens, "strict")) <= 1e-8


def test_stationary_point_per_head():
    specs = _random_specs(41)
    spec = specs["per-head-elastic"]
    rng = nk.Rng(42)
    z = rng.normal_vector(8)
    tokens = rng.normal_matrix(8, 10)
    fixed = en.stationary_point(spec, z, tokens)
    assert fixed is not None
    assert np.linalg.norm(en.grad_z(spec, fixed, tokens, "strict")) <= 1e-8


def test_gradient_engine_matches_ops():
    specs = _random_specs(43)
    rng = nk.Rng(44)
    z = rng.normal_vector(8)
    tokens = rng.normal_matrix(8, 9)
    for name in ("elastic", "inner", "kernel-exp", "kernel-identity",
                 "per-head-elastic", "per-head-inner"):
        for conv in ("strict", "tied"):
            evaluate = en.gradient_engine(specs[name], tokens, conv)
            value, grad = evaluate(z)
            assert value == pytest.approx(
                en.energy_value(specs[name], z, tokens), abs=1e-12)
            np.testing.assert_allclose(
                grad, en.grad_z(specs[name], z, tokens, conv), atol=1e-13)
            value, grad = evaluate(z, 4)
            prefix = tokens[:, :4]
            assert value == pytest.approx(
                en.energy_value(specs[name], z, prefix), abs=1e-12)
            np.testing.assert_allclose(
                grad, en.grad_z(specs[name], z, prefix, conv), atol=1e-13)
    gates = nk.Rng(45).uniforms(9)
    for sq in (en.square_sum_spec(specs["square-sum"].pair.weight, 0.7, gates),
               en.EnergySpec(specs["kernel-exp"].pair, en.WeightedSquareSum(0.7, gates))):
        evaluate = en.gradient_engine(sq, tokens)
        value, grad = evaluate(z)
        assert value == pytest.approx(en.energy_value(sq, z, tokens), abs=1e-12)
        np.testing.assert_allclose(grad, en.grad_z(sq, z, tokens), atol=1e-13)


def _engine_specs(seed, tokens):
    """One spec of every kind; the square-sum kinds gated over ``tokens``."""
    specs = _random_specs(seed)
    gates = nk.Rng(seed + 1).uniforms(tokens)
    specs["square-sum"] = en.square_sum_spec(specs["square-sum"].pair.weight, 0.7,
                                             gates)
    specs["kernel-square-sum"] = en.EnergySpec(specs["kernel-exp"].pair,
                                               en.WeightedSquareSum(0.7, gates))
    return specs


def _prefix_spec(spec, n):
    """``spec`` restricted to the first ``n`` tokens (gates truncated)."""
    g = spec.global_energy
    if isinstance(g, en.WeightedSquareSum) and g.gates is not None:
        return en.EnergySpec(spec.pair, en.WeightedSquareSum(g.temperature, g.gates[:n]))
    return spec


def test_gradient_engine_block_matches_ops_on_prefixes():
    n, q = 9, 7
    rng = nk.Rng(46)
    block = rng.normal_matrix(8, q)
    tokens = rng.normal_matrix(8, n)
    limits = np.array([1 + int(u * n) for u in rng.uniforms(q)])
    limits[:2] = (1, n)
    for spec in _engine_specs(47, n).values():
        for conv in ("strict", "tied"):
            evaluate = en.gradient_engine(spec, tokens, conv)
            for limit in (limits, None):
                values, grads = evaluate(block, limit)
                assert values.shape == (q,) and grads.shape == (8, q)
                for k in range(q):
                    m = n if limit is None else limit[k]
                    prefix_spec, prefix = _prefix_spec(spec, m), tokens[:, :m]
                    z = block[:, k]
                    assert values[k] == pytest.approx(
                        en.energy_value(prefix_spec, z, prefix), abs=1e-12)
                    np.testing.assert_allclose(
                        grads[:, k], en.grad_z(prefix_spec, z, prefix, conv),
                        atol=1e-13)


@pytest.mark.parametrize("limit, message", [
    ([3, 3], "length 3"),
    ([[1, 2, 3]], "length 3"),
    ([1.0, 2.0, 3.0], "integer"),
    ([1, 0, 3], r"\[1, 4\]"),
    ([1, 5, 3], r"\[1, 4\]"),
    ([-1, 2, 3], r"\[1, 4\]"),
])
def test_gradient_engine_block_rejects_bad_limits(limit, message):
    rng = nk.Rng(48)
    block = rng.normal_matrix(8, 3)
    tokens = rng.normal_matrix(8, 4)
    for spec in _engine_specs(49, 4).values():
        evaluate = en.gradient_engine(spec, tokens)
        with pytest.raises(ValueError, match=message):
            evaluate(block, np.array(limit))


_ENGINE_KINDS = ("elastic", "inner", "kernel-exp", "kernel-identity",
                 "per-head-elastic", "per-head-inner", "square-sum",
                 "kernel-square-sum")


@st.composite
def _block_cases(draw):
    n = draw(st.integers(1, 8))
    q = draw(st.integers(1, 6))
    return {
        "kind": draw(st.sampled_from(_ENGINE_KINDS)),
        "convention": draw(st.sampled_from(("strict", "tied"))),
        "dim": draw(st.integers(1, 6)),
        "heads": draw(st.integers(1, 3)),
        "head_dim": draw(st.integers(1, 3)),
        "tokens": n,
        "queries": q,
        # None, causal (query i is token i and sees tokens 0..i), or explicit
        "limit": draw(st.one_of(
            st.none(), st.just("causal"),
            st.lists(st.integers(1, n), min_size=q, max_size=q))),
        "temperature": 10.0 ** draw(st.floats(-3.0, 3.0)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _case_spec(case, rng):
    d, t = case["dim"], case["temperature"]
    if case["kind"].startswith("per-head"):
        maps = [tuple(rng.standard_normal((case["head_dim"], d)) / math.sqrt(d)
                      for _ in range(case["heads"])) for _ in range(2)]
        build = (en.per_head_elastic_spec if case["kind"] == "per-head-elastic"
                 else en.per_head_inner_spec)
        return build(*maps, t)
    if case["kind"].startswith("kernel"):
        maps = [rng.standard_normal((case["head_dim"], d)) * (0.3 / math.sqrt(d))
                for _ in range(2)]
        spec = en.kernel_spec(*maps, t, "identity" if "identity" in case["kind"]
                              else "exp")
        if case["kind"] == "kernel-square-sum":
            spec = en.EnergySpec(spec.pair, en.WeightedSquareSum(
                t, rng.uniform(size=case["tokens"])))
        return spec
    w = rng.standard_normal((d, d)) / math.sqrt(d)
    if case["kind"] == "square-sum":
        return en.square_sum_spec(w, t, rng.uniform(size=case["tokens"]))
    build = en.elastic_spec if case["kind"] == "elastic" else en.inner_product_spec
    return build(w, t)


@settings(max_examples=150, deadline=None)
@given(_block_cases())
@example({"kind": "elastic", "convention": "strict", "dim": 3, "heads": 1,
          "head_dim": 1, "tokens": 1, "queries": 1, "limit": "causal",
          "temperature": 1e-3, "seed": 0})
@example({"kind": "per-head-inner", "convention": "tied", "dim": 4, "heads": 2,
          "head_dim": 2, "tokens": 5, "queries": 5, "limit": "causal",
          "temperature": 1e3, "seed": 1})
def test_gradient_engine_block_equals_vector_calls(case):
    rng = np.random.default_rng(case["seed"])
    spec = _case_spec(case, rng)
    tokens = rng.standard_normal((case["dim"], case["tokens"]))
    if case["limit"] == "causal":
        block, limit = tokens, np.arange(1, case["tokens"] + 1)
    else:
        block = rng.standard_normal((case["dim"], case["queries"]))
        limit = None if case["limit"] is None else np.array(case["limit"])
    evaluate = en.gradient_engine(spec, tokens, case["convention"])
    values, grads = evaluate(block, limit)
    assert values.shape == (block.shape[1],) and grads.shape == block.shape
    for k in range(block.shape[1]):
        value, grad = evaluate(block[:, k], None if limit is None else int(limit[k]))
        assert np.isfinite(values[k]) and np.all(np.isfinite(grads[:, k]))
        assert values[k] == pytest.approx(value, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grads[:, k], grad, rtol=1e-12, atol=1e-12)


def test_gradient_engine_block_equals_vector_calls_across_small_tiles(monkeypatch):
    # the property's blocks (Q <= 6) then span up to three row tiles
    monkeypatch.setattr(en, "_TILE_ROWS", 2)
    test_gradient_engine_block_equals_vector_calls()


def _assert_reassociated(got, expected):
    """Equal to within 16 roundings of the larger of 1 and the reference's
    largest magnitude: a tile sums the same terms over fewer masked zeros,
    and BLAS picks its kernel, and so its summation order, by matrix width."""
    scale = max(1.0, float(np.abs(expected).max()))
    np.testing.assert_allclose(got, expected, rtol=0,
                               atol=16 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("name", _ENGINE_KINDS)
def test_block_tiles_equal_one_untiled_masked_block(name):
    q = 3 * en._TILE_ROWS + 5
    rng = nk.Rng(60)
    tokens = rng.normal_matrix(8, q)
    spec = _engine_specs(61, q)[name]
    unsorted = np.array([1 + int(u * q) for u in rng.uniforms(q)])
    one_tile = tokens[:, :en._TILE_ROWS]
    for conv in ("strict", "tied"):
        core = en._Core(spec, tokens, conv)
        for limit in (np.arange(1, q + 1), unsorted, np.ones(q, dtype=int), None):
            values, grads = core.evaluate(tokens, limit)
            mask = None if limit is None else np.arange(q) >= limit[:, None]
            expected = core.measure(tokens, mask)[:2]
            _assert_reassociated(values, expected[0])
            _assert_reassociated(grads, expected[1])
            if limit is None:  # every tile scores full rows of the same product
                assert np.array_equal(values, expected[0])
        # a block of one tile over all its tokens is the untiled call itself
        core = en._Core(_prefix_spec(spec, one_tile.shape[1]), one_tile, conv)
        for limit in (np.arange(1, one_tile.shape[1] + 1), None):
            values, grads = core.evaluate(one_tile, limit)
            mask = None if limit is None else ~np.tri(one_tile.shape[1], dtype=bool)
            expected = core.measure(one_tile, mask)[:2]
            assert np.array_equal(values, expected[0])
            assert np.array_equal(grads, expected[1])


def test_causal_block_peak_memory_stays_far_below_n_by_n():
    n = 2048
    rng = np.random.default_rng(62)
    tokens = rng.standard_normal((8, n))
    evaluate = en.gradient_engine(en.elastic_spec(rng.standard_normal((8, 8)), 1.0),
                                  tokens)
    limit = np.arange(1, n + 1)
    tracemalloc.start()
    try:
        evaluate(tokens, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float64 N x N array is 32 MiB
    assert peak < n * n * 8 / 8


@pytest.mark.parametrize("limit", [-2, 0, 10, 14])
def test_gradient_engine_rejects_bad_vector_limits(limit):
    rng = nk.Rng(52)
    z = rng.normal_vector(8)
    tokens = rng.normal_matrix(8, 9)
    for spec in _engine_specs(53, 9).values():
        evaluate = en.gradient_engine(spec, tokens)
        with pytest.raises(ValueError, match=r"\[1, 9\]"):
            evaluate(z, limit)
        with pytest.raises(ValueError, match="integer"):
            evaluate(z, float(limit))


def test_queries_checked_by_operations_not_by_the_engine():
    rng = nk.Rng(54)
    tokens = rng.normal_matrix(8, 5)
    z = rng.normal_vector(8)
    nan_z = np.where(np.arange(8) == 3, np.nan, z)
    nan_tokens = np.where(np.arange(5) == 4, np.nan, tokens)
    bad_inputs = [
        (nan_z, tokens, "query has non-finite"),
        (z[:7], tokens, "query must be a length-8 vector"),
        (z, nan_tokens, "tokens have non-finite"),
        (z, tokens[:7], "tokens must be a 8 x N matrix"),
        (z, tokens[:, :0], "tokens must be a 8 x N matrix"),
        (z, tokens[:, 0], "tokens must be a 8 x N matrix"),
    ]
    ops = (en.pair_energies, en.boltzmann_weights, en.helmholtz_free_energy,
           en.upper_bound_energy, en.energy_value, en.grad_z, en.grad_weight,
           en.hessian_split, en.hessian_z, en.stationary_point,
           lambda spec, z, tokens: en.free_energy(spec, z, tokens, np.full(5, 0.2)))
    covered = set()
    for spec in _engine_specs(55, 5).values():
        for op in ops:
            try:
                op(spec, z, tokens)
            except ValueError:
                continue  # the operation is not defined for this kind
            covered.add(op)
            for bad_z, bad_tokens, message in bad_inputs:
                with pytest.raises(ValueError, match=message):
                    op(spec, bad_z, bad_tokens)
        # a diverging iteration must see its non-finite energy, not an error
        values, grads = en.gradient_engine(spec, tokens)(np.stack([nan_z, nan_z], axis=1))
        assert not np.any(np.isfinite(values))
    assert covered == set(ops)
    # one token, as a list too, goes through the same check
    spec = en.elastic_spec(np.eye(8), 1.0)
    assert en.pair_energy(spec, list(z), list(tokens[:, 0])) == \
        en.pair_energies(spec, z, tokens[:, :1])[0]
    with pytest.raises(ValueError, match="tokens must be a 8 x N matrix"):
        en.pair_energy(spec, z, list(tokens[:7, 0]))


# ---------------------------------------------------------------------------
# an independent dense oracle: textbook formulas, one Python loop per head
# ---------------------------------------------------------------------------

def _oracle_heads(spec, z, tokens):
    """Per head: the pair energies (N,), their gradients in z (d x N) and the
    query-side Gram term of the Hessian."""
    pair, d = spec.pair, z.shape[0]
    if isinstance(pair, en.KernelInner):
        fmap, fderiv = en.FEATURE_MAPS[pair.feature_map]
        keyed = fmap(pair.w_key @ tokens)
        energies = -(keyed.T @ fmap(pair.w_query @ z))
        grads = -pair.w_query.T @ (fderiv(pair.w_query @ z)[:, None] * keyed)
        return [(energies, grads, None)]
    if isinstance(pair, (en.Elastic, en.InnerProduct)):
        maps = [(np.eye(d), pair.weight)]
    else:
        maps = list(zip(pair.w_query, pair.w_key))
    heads = []
    for w1, w2 in maps:
        q, keys = w1 @ z, w2 @ tokens
        if isinstance(pair, (en.Elastic, en.PerHeadElastic)):
            diff = q[:, None] - keys
            heads.append((0.5 * np.sum(diff * diff, axis=0), w1.T @ diff, w1.T @ w1))
        else:
            heads.append((-(keys.T @ q), -(w1.T @ keys), np.zeros((d, d))))
    return heads


def _oracle(spec, z, tokens, convention="strict"):
    """(energies, weights, value, gradient, (psd, nsd)); the weights are None
    for the square sum, and the Hessian parts for it and for kernels."""
    t, heads = spec.temperature, _oracle_heads(spec, z, tokens)
    if isinstance(spec.global_energy, en.WeightedSquareSum):
        e, grads, _ = heads[0]
        g = spec.global_energy.gates
        return e, None, -0.5 * t * float(np.sum(g * e * e)), -t * grads @ (g * e), None
    d, h = z.shape[0], len(heads)
    energies, weights, value = [], [], 0.0
    grad, psd, nsd = np.zeros(d), np.zeros((d, d)), np.zeros((d, d))
    for e, grads, gram in heads:
        low = float(np.min(e))
        boltz = np.exp(-(e - low) / t)
        p = boltz / np.sum(boltz)
        energies.append(e)
        weights.append(p)
        value += (low - t * math.log(float(np.sum(boltz)))) / h
        grad += grads @ p / h
        if gram is not None:
            centered = grads - (grads @ p)[:, None]
            psd += gram / h
            nsd -= (centered * p) @ centered.T / (t * h)
    if convention == "tied" and isinstance(spec.pair, (en.InnerProduct, en.PerHeadInner)):
        grad = t * grad
    hessian = None if heads[0][2] is None else (psd, nsd)
    if not spec.per_head:
        return energies[0], weights[0], value, grad, hessian
    return np.stack(energies), np.stack(weights), value, grad, hessian


@pytest.mark.parametrize("name", _ENGINE_KINDS)
def test_core_and_ops_match_dense_oracle(name):
    n, q = 9, 4
    rng = nk.Rng(56)
    tokens = rng.normal_matrix(8, n)
    block = rng.normal_matrix(8, q)
    spec = _engine_specs(57, n)[name]
    core = en._Core(spec, tokens)
    block_energies = core.energies(block)
    for conv in ("strict", "tied"):
        values, grads = en.gradient_engine(spec, tokens, conv)(block)
        for k in range(q):
            z = block[:, k]
            energies, weights, value, grad, hessian = _oracle(spec, z, tokens, conv)
            np.testing.assert_allclose(en.pair_energies(spec, z, tokens), energies,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(block_energies[k], energies, rtol=0, atol=1e-12)
            assert en.energy_value(spec, z, tokens) == pytest.approx(value, abs=1e-12)
            assert values[k] == pytest.approx(value, abs=1e-12)
            np.testing.assert_allclose(en.grad_z(spec, z, tokens, conv), grad, atol=1e-13)
            np.testing.assert_allclose(grads[:, k], grad, atol=1e-13)
            if weights is None:
                continue
            np.testing.assert_allclose(en.boltzmann_weights(spec, z, tokens), weights,
                                       atol=1e-13)
            np.testing.assert_allclose(core.boltzmann(block)[0][k], weights, atol=1e-13)
            assert en.helmholtz_free_energy(spec, z, tokens) == pytest.approx(
                value, abs=1e-12)
            if hessian is not None:
                for got, expected in zip(en.hessian_split(spec, z, tokens), hessian):
                    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_per_head_spec_needs_equal_nonempty_weight_lists():
    w = np.ones((1, 2))
    for w_query, w_key in (((), ()), ((w,), (w, w))):
        with pytest.raises(ValueError, match="nonempty and equally long"):
            en.EnergySpec(en.PerHeadElastic(w_query, w_key), en.Helmholtz(1.0))
        with pytest.raises(ValueError, match="nonempty and equally long"):
            en.per_head_inner_spec(w_query, w_key, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError, match="temperature"):
        en.elastic_spec(np.eye(2), 0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="temperature must be finite and > 0"):
            en.elastic_spec(np.eye(2), bad)
        with pytest.raises(ValueError, match="temperature must be finite and > 0"):
            en.square_sum_spec(np.eye(2), bad)
    with pytest.raises(ValueError, match="nonnegative"):
        en.square_sum_spec(np.eye(2), 1.0, np.array([-0.5, 1.0]))
