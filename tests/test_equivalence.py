import numpy as np
import pytest

from energy_attention import energy as en
from energy_attention import equivalence as eq
from energy_attention import numkit as nk

CFG = eq.InstanceConfig()


# ---------------------------------------------------------------------------
# tied-instance construction
# ---------------------------------------------------------------------------

def test_softmax_instance_satisfies_sphere_constraints():
    inst = eq.make_tied_instance(nk.Rng(0), "softmax", 8, 5, 1, 1.0, 0.1, 1.0)
    weight = inst.spec.pair.weight
    assert abs(np.linalg.norm(inst.z) - 1.0) < 1e-12
    for i in range(5):
        assert abs(np.linalg.norm(weight @ inst.tokens[:, i]) - 1.0) < 1e-12


def test_multihead_instance_satisfies_all_norm_constraints():
    inst = eq.make_tied_instance(nk.Rng(1), "multihead", 8, 6, 2, 1.0, 0.1, 1.0)
    pair = inst.spec.pair
    for head in range(2):
        assert abs(np.linalg.norm(pair.w_query[head] @ inst.z) - 1.0) < 1e-12
        for i in range(6):
            mapped = pair.w_key[head] @ inst.tokens[:, i]
            assert abs(np.linalg.norm(mapped) - 1.0) < 1e-12
    # tying equalities hold exactly by construction
    params = inst.params
    for head in range(2):
        np.testing.assert_allclose(
            params.w_query[head].T @ params.w_key[head],
            pair.w_query[head].T @ pair.w_key[head], atol=1e-15)
        np.testing.assert_allclose(
            params.w_out[head] @ params.w_value[head],
            (inst.eta * inst.spec.temperature / 2)
            * pair.w_query[head].T @ pair.w_key[head], atol=1e-15)


def test_linear_instance_unconstrained():
    inst = eq.make_tied_instance(nk.Rng(2), "linear", 8, 5, 1, 1.0, 0.1, 1.0)
    assert isinstance(inst.spec.global_energy, en.WeightedSquareSum)


def test_unknown_tying_rejected():
    with pytest.raises(ValueError):
        eq.make_tied_instance(nk.Rng(3), "rotary", 8, 5)


def test_relaxed_instance_norms_inside_ball():
    spec, z, tokens = eq.make_relaxed_instance(nk.Rng(4), 8, 6, 2, 1.0, 1.0)
    for head in range(2):
        assert np.linalg.norm(spec.pair.w_query[head] @ z) <= 1.0 + 1e-12
        for i in range(6):
            assert np.linalg.norm(spec.pair.w_key[head] @ tokens[:, i]) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# equivalence verifiers
# ---------------------------------------------------------------------------

def test_verify_softmax_gd_passes():
    report = eq.verify_softmax_gd(CFG, 25, seed=7)
    assert report.passed
    assert report.max_abs_error <= 1e-10
    assert report.witness_seed is None
    assert report.instances == 25


def test_verify_softmax_gd_eta_zero_degenerate():
    cfg = eq.InstanceConfig(eta=0.0)
    inst = eq.make_tied_instance(nk.Rng(5), "softmax", cfg.dim, cfg.tokens, 1,
                                 cfg.radius, 0.0, cfg.temperature)
    assert eq.check_softmax_instance(inst) == 0.0


def test_verify_linear_gd_passes_gated_and_ungated():
    report = eq.verify_linear_gd(CFG, 25, seed=7)
    assert report.passed
    inst = eq.make_tied_instance(nk.Rng(6), "linear", 8, 16, 1, 1.0, 0.1, 1.0)
    assert eq.check_linear_instance(inst, np.zeros(16)) == 0.0  # gates 0 -> both z


def test_verify_multihead_gd_passes():
    report = eq.verify_multihead_gd(CFG, 25, seed=7)
    assert report.passed
    assert report.threshold == 1e-10


def test_multihead_single_head_reduction_matches_softmax_check():
    inst = eq.make_tied_instance(nk.Rng(8), "multihead", 8, 10, 1, 1.0, 0.1, 1.0)
    assert eq.check_multihead_instance(inst) <= 1e-10


def test_negative_controls_fail_loudly():
    for verify in (eq.verify_softmax_gd, eq.verify_linear_gd,
                   eq.verify_multihead_gd):
        report = verify(CFG, 10, seed=3, break_tying=True)
        assert not report.passed
        assert report.max_abs_error > 1e-3
        assert report.witness_seed is not None


def test_reports_reproducible_bitwise():
    a = eq.verify_multihead_gd(CFG, 10, seed=11)
    b = eq.verify_multihead_gd(CFG, 10, seed=11)
    assert a.max_abs_error == b.max_abs_error


def test_report_invariant_pass_iff_below_threshold():
    report = eq.VerificationReport("x", 1, 2e-10, 1e-10, False, 0)
    assert not report.passed
    merged = eq.merge_reports([eq.verify_softmax_gd(CFG, 3, 0),
                               eq.verify_softmax_gd(CFG, 3, 50)])
    assert merged.instances == 6
    assert merged.passed == (merged.max_abs_error <= merged.threshold)
    with pytest.raises(ValueError):
        eq.merge_reports([])


# ---------------------------------------------------------------------------
# Boltzmann optimality
# ---------------------------------------------------------------------------

def _small_instance(seed, n, temp=1.0):
    rng = nk.Rng(seed)
    weight = rng.normal_matrix(4, 4, 0.5)
    z = nk.sample_hypersphere(rng, 4, 1.0)
    tokens = np.stack([nk.sample_hypersphere(rng, 4, 1.0) for _ in range(n)],
                      axis=1)
    return en.elastic_spec(weight, temp), z, tokens


def test_boltzmann_grid_and_sampling_pass():
    spec, z, tokens = _small_instance(0, 3)
    report = eq.verify_boltzmann_optimality(spec, z, tokens, grid_res=0.02,
                                            dirichlet_draws=500, rng=nk.Rng(1))
    assert report.passed
    assert "argmin_cell_gap" in report.details
    assert report.details["argmin_cell_gap"] <= 0.02 + 1e-12


def test_boltzmann_sampling_mode_eight_tokens():
    spec, z, tokens = _small_instance(2, 8)
    report = eq.verify_boltzmann_optimality(spec, z, tokens, dirichlet_draws=2000,
                                            rng=nk.Rng(3))
    assert report.passed


def test_boltzmann_rejects_many_tokens():
    spec, z, tokens = _small_instance(4, 9)
    with pytest.raises(ValueError, match="use sampling mode"):
        eq.verify_boltzmann_optimality(spec, z, tokens)


def test_uniform_weights_strictly_above_minimum_on_unequal_energies():
    spec, z, tokens = _small_instance(5, 4)
    uniform = en.free_energy(spec, z, tokens, np.full(4, 0.25))
    best = en.helmholtz_free_energy(spec, z, tokens)
    assert uniform > best + 1e-12


def test_boltzmann_suite_invariant_scale():
    # reduced draws keep the 100-instance sweep fast; the full-resolution
    # single sweep runs in the acceptance suite
    report = eq.boltzmann_suite(CFG, 100, seed=7, grid_res=0.02,
                                dirichlet_draws=300)
    assert report.passed
    assert report.instances == 200  # 3-token and 8-token sub-instances


# ---------------------------------------------------------------------------
# Hessian structure
# ---------------------------------------------------------------------------

def test_hessian_structure_passes_with_witness():
    report = eq.verify_hessian_structure(CFG, 30, seed=7)
    assert report.passed
    assert report.details["indefinite_witness_seed"] is not None
    assert report.details["stationary_checked"] > 0
    assert report.details["fd_max_relative_error"] < 1e-4


@pytest.mark.parametrize("instances", [1, 2])
def test_hessian_structure_small_sweep_draws_witness_past_the_sweep(instances):
    # no sharp instance in the sweep: the witness comes from the seeds after it
    report = eq.verify_hessian_structure(CFG, instances, seed=7)
    assert report.passed
    assert report.instances == instances
    assert report.details["indefinite_witness_seed"] == 7 + instances


def test_hessian_structure_six_instance_sweeps_pass():
    failed = [seed for seed in range(1000, 1000 + 6 * 67, 6)
              if not eq.verify_hessian_structure(CFG, 6, seed).passed]
    assert failed == []


def test_hessian_structure_witness_inside_sweep_unchanged():
    report = eq.verify_hessian_structure(CFG, 30, seed=1000)
    assert report.passed
    assert report.details["indefinite_witness_seed"] == 1002
    assert report.details["stationary_checked"] == 20
    assert report.details["stationary_skipped"] == 0


def test_hessian_structure_reproducible():
    a = eq.verify_hessian_structure(CFG, 9, seed=2)
    b = eq.verify_hessian_structure(CFG, 9, seed=2)
    assert a.max_abs_error == b.max_abs_error


def test_verify_all_shapes():
    reports = eq.verify_all(CFG, 6, seed=1)
    assert [r.claim for r in reports] == list(eq.CLAIMS)
    assert all(r.passed for r in reports)
