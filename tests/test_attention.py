import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from energy_attention import attention as attn
from energy_attention import energy as en
from energy_attention import numkit as nk


def _instance(seed, dim=8, heads=2, n=10, scores="distance"):
    rng = nk.Rng(seed)
    params = attn.random_params(rng, dim, heads, scores=scores)
    return params, rng.normal_vector(dim), rng.normal_matrix(dim, n)


def _square(seed, dim=6, n=8, temp=1.3):
    rng = nk.Rng(seed)
    params = attn.single_head_params(rng.normal_matrix(dim, dim, 0.4),
                                     rng.normal_matrix(dim, dim, 0.4),
                                     rng.normal_matrix(dim, dim, 0.4), temp)
    return params, rng.normal_vector(dim), rng.normal_matrix(dim, n)


# ---------------------------------------------------------------------------
# first-order forwards
# ---------------------------------------------------------------------------

def test_softmax_attention_single_token():
    params, z, tokens = _square(0, n=1)
    expected = z + params.w_value[0] @ tokens[:, 0]
    np.testing.assert_allclose(attn.softmax_attention(params, z, tokens),
                               expected, atol=1e-14)


def test_softmax_attention_zero_value_map_is_identity():
    params, z, tokens = _square(1)
    params = dataclasses.replace(params, w_value=(np.zeros((6, 6)),))
    np.testing.assert_array_equal(attn.softmax_attention(params, z, tokens), z)


def test_softmax_attention_requires_square_single_head():
    params, z, tokens = _instance(2)
    with pytest.raises(ValueError):
        attn.softmax_attention(params, z, tokens)


def test_linear_attention_orthogonal_scores():
    dim = 4
    params = attn.single_head_params(np.eye(dim), np.eye(dim), np.eye(dim), 1.0)
    z = np.array([1.0, 0.0, 0.0, 0.0])
    tokens = np.stack([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0]], axis=1)
    np.testing.assert_array_equal(attn.linear_attention(params, z, tokens), z)


def test_linear_attention_single_token():
    params, z, tokens = _square(3, n=1)
    score = float((params.w_query[0] @ z) @ (params.w_key[0] @ tokens[:, 0]))
    expected = z + score * (params.w_value[0] @ tokens[:, 0])
    np.testing.assert_allclose(attn.linear_attention(params, z, tokens), expected,
                               atol=1e-14)


def test_linear_attention_gate_length():
    params, z, tokens = _square(4)
    with pytest.raises(ValueError):
        attn.linear_attention(params, z, tokens, gates=np.ones(3))


def test_mha_zero_output_projection_is_identity():
    params, z, tokens = _instance(5, scores="inner")
    params = dataclasses.replace(
        params, w_out=tuple(np.zeros_like(w) for w in params.w_out))
    np.testing.assert_array_equal(attn.mha(params, z, tokens), z)


def test_mha_single_head_reduces_to_softmax_attention():
    rng = nk.Rng(6)
    dim = 6
    params = attn.random_params(rng, dim, 1, scores="inner")
    z = rng.normal_vector(dim)
    tokens = rng.normal_matrix(dim, 9)
    merged = attn.single_head_params(params.w_query[0], params.w_key[0],
                                     params.w_out[0] @ params.w_value[0],
                                     params.score_temp[0])
    np.testing.assert_allclose(attn.mha(params, z, tokens),
                               attn.softmax_attention(merged, z, tokens),
                               atol=1e-13)


# ---------------------------------------------------------------------------
# momentum variants
# ---------------------------------------------------------------------------

def test_momentum_variants_zero_beta_equal_plain_forward():
    params, z, tokens = _instance(7, scores="inner")
    params = dataclasses.replace(params, beta=0.0, eta=1.0)
    plain = attn.mha(params, z, tokens)
    for forward in (attn.momen_mha, attn.nag_mha):
        out, _ = forward(params, z, tokens, attn.MomentumState.zeros(8))
        assert np.max(np.abs(out - plain)) <= 1e-14


def test_momentum_variants_first_call_equal_plain_forward():
    params, z, tokens = _instance(8, scores="inner")
    params = dataclasses.replace(params, beta=0.9, eta=1.0)
    plain = attn.mha(params, z, tokens)
    for forward in (attn.momen_mha, attn.nag_mha):
        out, state = forward(params, z, tokens, attn.MomentumState.zeros(8))
        assert np.max(np.abs(out - plain)) <= 1e-14
        assert state.momentum.shape == z.shape


def test_momen_mha_two_step_oracle():
    params, z, tokens = _instance(9, scores="inner")
    z1, s1 = attn.momen_mha(params, z, tokens, attn.MomentumState.zeros(8))
    z2, s2 = attn.momen_mha(params, z1, tokens, s1)
    # independent recomputation of the recurrence
    g1 = -(attn.mha(params, z, tokens) - z)
    p1 = g1
    g2 = -(attn.mha(params, z1, tokens) - z1)
    p2 = params.beta * p1 + g2
    np.testing.assert_allclose(z2, z1 - params.eta * p2, atol=1e-14)
    np.testing.assert_allclose(s2.momentum, p2, atol=1e-14)


def test_nag_mha_two_step_oracle():
    params, z, tokens = _instance(10, scores="inner")
    z1, s1 = attn.nag_mha(params, z, tokens, attn.MomentumState.zeros(8))
    z2, _ = attn.nag_mha(params, z1, tokens, s1)
    g1 = -(attn.mha(params, z, tokens) - z)
    p1 = g1
    ahead = z1 - params.eta * params.beta * p1
    g2 = -(attn.mha(params, ahead, tokens) - ahead)
    p2 = params.beta * p1 + g2
    np.testing.assert_allclose(z2, z1 - params.eta * p2, atol=1e-14)


def test_nag_mha_two_step_oracle_at_non_unit_rate():
    params, z, tokens = _instance(10, scores="inner")
    params = dataclasses.replace(params, eta=0.5, beta=0.8)
    z1, s1 = attn.nag_mha(params, z, tokens, attn.MomentumState.zeros(8))
    z2, s2 = attn.nag_mha(params, z1, tokens, s1)

    def grad_proxy(point):
        return -(attn.mha(params, point, tokens) - point)

    p1 = grad_proxy(z)
    np.testing.assert_allclose(z1, z - params.eta * p1, atol=1e-14)
    ahead = z1 - params.eta * params.beta * p1
    p2 = params.beta * p1 + grad_proxy(ahead)
    np.testing.assert_allclose(z2, z1 - params.eta * p2, atol=1e-14)
    np.testing.assert_allclose(s2.momentum, p2, atol=1e-14)


def test_momentum_state_dimension_mismatch():
    params, z, tokens = _instance(11, scores="inner")
    with pytest.raises(ValueError):
        attn.momen_mha(params, z, tokens, attn.MomentumState.zeros(5))


@pytest.mark.parametrize("forward", [attn.momen_mha, attn.nag_mha])
def test_momentum_state_must_be_finite(forward):
    params, z, tokens = _instance(11, scores="inner")
    for bad in (np.nan, np.inf):
        momentum = np.zeros(params.dim)
        momentum[3] = bad
        with pytest.raises(ValueError, match="momentum state has non-finite entries"):
            forward(params, z, tokens, attn.MomentumState(momentum))


# ---------------------------------------------------------------------------
# Newton-preconditioned variants
# ---------------------------------------------------------------------------

def test_mha2nd_exact_single_token_reduction():
    params, z, tokens = _instance(12, n=1)
    cache = attn.range_space_cache(params)
    expected = z.copy()
    for h in range(params.heads):
        q = params.w_query[h] @ z
        k1 = params.w_key[h] @ tokens[:, 0]
        expected -= params.eta / params.heads * (cache.maps[h] @ (q - k1))
    np.testing.assert_allclose(attn.mha2nd_exact(params, z, tokens), expected,
                               atol=1e-14)


def test_mha2nd_exact_orthonormal_high_temperature_limit():
    # bracket -> I, so the preconditioner collapses to the transposed query map
    rng = nk.Rng(13)
    wq = tuple(nk.orthonormal_rows(rng, 4, 8) for _ in range(2))
    params = attn.AttentionParams(
        w_query=wq,
        w_key=tuple(rng.normal_matrix(4, 8, 0.4) for _ in range(2)),
        w_value=tuple(rng.normal_matrix(4, 8, 0.4) for _ in range(2)),
        w_out=tuple(rng.normal_matrix(8, 4, 0.4) for _ in range(2)),
        score_temp=(2.0, 2.0), bias_temp=(1e12, 1e12), eta=0.3)
    z = rng.normal_vector(8)
    tokens = rng.normal_matrix(8, 7)
    out = attn.mha2nd_exact(params, z, tokens)
    expected = z.copy()
    for h in range(2):
        q = params.w_query[h] @ z
        keys = params.w_key[h] @ tokens
        sq = keys - q[:, None]
        weights = nk.softmax(-0.5 * np.sum(sq * sq, axis=0) / 2.0)
        expected -= 0.3 / 2 * (wq[h].T @ (q - keys @ weights))
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_mha2nd_exact_matches_independent_assembly():
    # oracle: per-head energy Hessian + SVD pseudoinverse, assembled by hand
    for seed in range(6):
        params, z, tokens = _instance(100 + seed)
        temp = params.score_temp[0]
        step = np.zeros(8)
        for h in range(params.heads):
            single = en.per_head_elastic_spec([params.w_query[h]],
                                              [params.w_key[h]], temp)
            hess = en.hessian_z(single, z, tokens)
            grad = en.grad_z(single, z, tokens, "strict")
            step += np.linalg.pinv(hess) @ grad
        oracle = z - params.eta / params.heads * step
        np.testing.assert_allclose(attn.mha2nd_exact(params, z, tokens), oracle,
                                   atol=1e-12)


def test_mha2nd_exact_singular_bracket():
    # antipodal keys at matching temperature zero out one bracket direction
    params = attn.AttentionParams(
        w_query=(np.eye(2),), w_key=(np.eye(2),), w_value=(np.eye(2),),
        w_out=(np.eye(2),), score_temp=(1.0,), bias_temp=(1.0,))
    z = np.zeros(2)
    tokens = np.array([[1.0, -1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hessian preconditioner singular"):
        attn.mha2nd_exact(params, z, tokens)
    out = attn.mha2nd_exact(params, z, tokens, eps=1e-8)
    assert np.all(np.isfinite(out))


def test_mha2nd1st_single_token_no_bias():
    params, z, tokens = _instance(14, n=1)
    cache = attn.range_space_cache(params)
    expected = z.copy()
    for h in range(params.heads):
        offset = params.w_query[h] @ z - params.w_key[h] @ tokens[:, 0]
        expected += params.w_out[h] @ (params.w_value[h] @ (cache.maps[h] @ offset))
    np.testing.assert_allclose(attn.mha2nd1st(params, z, tokens), expected,
                               atol=1e-13)


def test_mha2nd1st_bias_temperature_limit():
    # T_b -> infinity kills the bias term
    params, z, tokens = _instance(15)
    cooled = dataclasses.replace(params, bias_temp=(1e18,) * params.heads)
    out = attn.mha2nd1st(cooled, z, tokens)
    cache = attn.range_space_cache(params)
    expected = z.copy()
    for h in range(params.heads):
        q = params.w_query[h] @ z
        keys = params.w_key[h] @ tokens
        sq = keys - q[:, None]
        weights = nk.softmax(-0.5 * np.sum(sq * sq, axis=0) / params.score_temp[h])
        offset = q - keys @ weights
        expected += params.w_out[h] @ (params.w_value[h] @ (cache.maps[h] @ offset))
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_mha2nd1st_inner_first_equals_outer_product_form():
    # associativity check: the complexity-critical rewrite
    for seed in range(6):
        params, z, tokens = _instance(200 + seed, n=12)
        cache = attn.range_space_cache(params)
        out = attn.mha2nd1st(params, z, tokens)
        explicit = z.copy()
        for h in range(params.heads):
            q = params.w_query[h] @ z
            keys = params.w_key[h] @ tokens
            sq = keys - q[:, None]
            weights = nk.softmax(-0.5 * np.sum(sq * sq, axis=0)
                                 / params.score_temp[h])
            kbar = keys @ weights
            centered = keys - kbar[:, None]
            outer = (centered * weights) @ centered.T  # head_dim x head_dim
            offset = q - kbar
            bias = outer @ offset / params.bias_temp[h]
            explicit += params.w_out[h] @ (params.w_value[h]
                                           @ (cache.maps[h] @ (offset + bias)))
        assert np.max(np.abs(out - explicit)) < 1e-12


def test_mha2nd_taylor_fidelity_sweep():
    # relative difference shrinks ~quadratically in the bias temperature
    params, z, tokens = _instance(16)
    tied = attn.tied_newton_params(params)
    max_sq = 0.0
    for h in range(tied.heads):
        q = tied.w_query[h] @ z
        keys = tied.w_key[h] @ tokens
        sq = keys - q[:, None]
        weights = nk.softmax(-0.5 * np.sum(sq * sq, axis=0) / tied.score_temp[h])
        centered = keys - (keys @ weights)[:, None]
        max_sq = max(max_sq, float(np.max(np.sum(centered * centered, axis=0))))
    rels = []
    for factor in (1.0, 10.0, 100.0, 1000.0):
        probe = dataclasses.replace(tied, bias_temp=(factor * max_sq,) * tied.heads)
        exact = attn.mha2nd_exact(probe, z, tokens)
        taylor = attn.mha2nd1st(probe, z, tokens)
        rels.append(np.linalg.norm(exact - taylor) / np.linalg.norm(exact - z))
    assert all(rels[i + 1] <= rels[i] + 1e-12 for i in range(3))
    assert rels[2] < 1e-2


def test_mha2nd1st_no_v_zero_projection_and_single_token():
    params, z, tokens = _instance(17, n=1)
    zeroed = dataclasses.replace(
        params, w_out=tuple(np.zeros_like(w) for w in params.w_out))
    np.testing.assert_array_equal(attn.mha2nd1st_no_v(zeroed, z, tokens), z)
    out = attn.mha2nd1st_no_v(params, z, tokens)
    expected = z.copy()
    for h in range(params.heads):
        expected += params.w_out[h] @ (params.w_query[h] @ z
                                       - params.w_key[h] @ tokens[:, 0])
    np.testing.assert_allclose(out, expected, atol=1e-13)


def test_mha2nd1st_no_v_agrees_under_identity_embedding():
    # orthonormal query rows with w_value = w_query make W_v M the identity
    rng = nk.Rng(18)
    wq = tuple(nk.orthonormal_rows(rng, 4, 8) for _ in range(2))
    params = attn.AttentionParams(
        w_query=wq, w_key=tuple(rng.normal_matrix(4, 8, 0.4) for _ in range(2)),
        w_value=wq, w_out=tuple(rng.normal_matrix(8, 4, 0.4) for _ in range(2)),
        score_temp=(2.0, 2.0), bias_temp=(3.0, 3.0))
    z = rng.normal_vector(8)
    tokens = rng.normal_matrix(8, 9)
    np.testing.assert_allclose(attn.mha2nd1st_no_v(params, z, tokens),
                               attn.mha2nd1st(params, z, tokens), atol=1e-12)


# ---------------------------------------------------------------------------
# light variant
# ---------------------------------------------------------------------------

def test_light_zero_tau_is_plain_projected_forward():
    params, z, tokens = _instance(19, scores="inner")
    zero_tau = dataclasses.replace(params, tau=(0.0,) * params.heads)
    assert np.max(np.abs(attn.light_mha2nd1st(zero_tau, z, tokens)
                         - attn.mha(params, z, tokens))) <= 1e-14


def test_light_single_token_bias_vanishes():
    params, z, tokens = _instance(20, scores="inner", n=1)
    out = attn.light_mha2nd1st(params, z, tokens)
    expected = z.copy()
    for h in range(params.heads):
        expected += params.w_out[h] @ (params.w_value[h] @ tokens[:, 0])
    np.testing.assert_allclose(out, expected, atol=1e-13)


def test_light_bias_matches_covariance_matrix_form():
    for seed in range(6):
        params, z, tokens = _instance(300 + seed, scores="inner", n=11)
        out = attn.light_mha2nd1st(params, z, tokens)
        explicit = z.copy()
        for h in range(params.heads):
            weights = nk.softmax((params.w_query[h] @ z)
                                 @ (params.w_key[h] @ tokens)
                                 / params.score_temp[h])
            values = params.w_value[h] @ tokens
            vbar = values @ weights
            cov = (values * weights) @ values.T - np.outer(vbar, vbar)
            explicit += params.w_out[h] @ (vbar + params.tau[h] * (cov @ vbar))
        assert np.max(np.abs(out - explicit)) < 1e-12


# ---------------------------------------------------------------------------
# shared structure
# ---------------------------------------------------------------------------

def test_permutation_equivariance_of_all_variants():
    params, z, tokens = _instance(21)
    inner_params, _, _ = _instance(21, scores="inner")
    perm = np.argsort(nk.Rng(22).uniforms(tokens.shape[1]))
    shuffled = tokens[:, perm]
    cases = [
        (attn.mha, inner_params), (attn.light_mha2nd1st, inner_params),
        (attn.mha2nd_exact, params), (attn.mha2nd1st, params),
        (attn.mha2nd1st_no_v, params),
    ]
    for forward, p in cases:
        np.testing.assert_allclose(forward(p, z, tokens),
                                   forward(p, z, shuffled), atol=1e-12)
    sq_params, z2, tokens2 = _square(23)
    shuffled2 = tokens2[:, np.argsort(nk.Rng(24).uniforms(tokens2.shape[1]))]
    np.testing.assert_allclose(attn.softmax_attention(sq_params, z2, tokens2),
                               attn.softmax_attention(sq_params, z2, shuffled2),
                               atol=1e-12)


def test_default_score_temperatures():
    assert attn.default_score_temperature(4, "inner") == pytest.approx(2.0)
    assert attn.default_score_temperature(8, "distance") == pytest.approx(4.0)
    with pytest.raises(ValueError):
        attn.default_score_temperature(4, "cosine")


def test_params_validation():
    rng = nk.Rng(25)
    with pytest.raises(ValueError, match="heads"):
        attn.AttentionParams(
            w_query=(rng.normal_matrix(3, 8),), w_key=(rng.normal_matrix(3, 8),),
            w_value=(rng.normal_matrix(3, 8),), w_out=(rng.normal_matrix(8, 3),),
            score_temp=(1.0,), bias_temp=(1.0,))
    with pytest.raises(ValueError, match="temperatures"):
        attn.single_head_params(np.eye(2), np.eye(2), np.eye(2), 0.0)
    good = attn.single_head_params(np.eye(2), np.eye(2), np.eye(2), 1.0)
    for field in ("score_temp", "bias_temp"):
        with pytest.raises(ValueError, match="temperatures must be finite and > 0"):
            dataclasses.replace(good, **{field: (math.nan,)})
    params = attn.random_params(rng, 8, 2)
    assert params.tau == (0.01, 0.01)
    assert params.beta == 0.9 and params.eta == 1.0
    with pytest.raises(ValueError):
        attn.random_params(rng, 9, 2)


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------

def _call_forward(name, params, z, tokens):
    forward = getattr(attn, name)
    if name in ("momen_mha", "nag_mha"):
        return forward(params, z, tokens, attn.MomentumState.zeros(params.dim))
    return forward(params, z, tokens)


def _with(array, index, value):
    bad = array.copy()
    bad[index] = value
    return bad


FORWARD_NAMES = ["softmax_attention", "linear_attention", "mha", "momen_mha",
                 "nag_mha", "mha2nd_exact", "mha2nd1st", "mha2nd1st_no_v",
                 "light_mha2nd1st"]


@pytest.mark.parametrize("name", FORWARD_NAMES)
@pytest.mark.parametrize("bad, message", [
    ("short query", "query must be a length-6 vector"),
    ("matrix query", "query must be a length-6 vector"),
    ("no tokens", r"tokens must be a 6 x N matrix with N >= 1"),
    ("wrong token dim", r"tokens must be a 6 x N matrix with N >= 1"),
    ("token vector", r"tokens must be a 6 x N matrix with N >= 1"),
    ("nan query", "query has non-finite entries"),
    ("inf token", "tokens have non-finite entries"),
    ("nan token", "tokens have non-finite entries"),
])
def test_forwards_reject_bad_inputs(name, bad, message):
    square = name in ("softmax_attention", "linear_attention")
    params, z, tokens = _square(26) if square else _instance(26, dim=6, heads=2)
    z, tokens = {
        "short query": (z[:5], tokens),
        "matrix query": (z[:, None], tokens),
        "no tokens": (z, tokens[:, :0]),
        "wrong token dim": (z, tokens[:5]),
        "token vector": (z, tokens[:, 0]),
        "nan query": (_with(z, 2, np.nan), tokens),
        "inf token": (z, _with(tokens, (1, 3), np.inf)),
        "nan token": (z, _with(tokens, (4, 0), np.nan)),
    }[bad]
    with pytest.raises(ValueError, match=message):
        _call_forward(name, params, z, tokens)


def test_params_reject_bad_scalars():
    good = attn.single_head_params(np.eye(2), np.eye(2), np.eye(2), 1.0)
    for eta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"learning rate must be finite and > 0"):
            dataclasses.replace(good, eta=eta)
    for beta in (-0.1, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"momentum coefficient must lie in \[0, 1\)"):
            dataclasses.replace(good, beta=beta)
    for tau in ((math.nan,), (math.inf,)):
        with pytest.raises(ValueError, match="tau must be finite"):
            dataclasses.replace(good, tau=tau)
    assert dataclasses.replace(good, beta=0.0, tau=(-0.5,)).tau == (-0.5,)


def test_mha2nd_exact_rejects_bad_regularization():
    params, z, tokens = _instance(27)
    for eps in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="regularization must be finite and >= 0"):
            attn.mha2nd_exact(params, z, tokens, eps=eps)


# ---------------------------------------------------------------------------
# inner-product forwards never project the tokens
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["mha", "nag_mha", "light_mha2nd1st"])
def test_inner_forwards_never_project_the_tokens(name):
    # a call's peak allocation stays below a quarter of one d x N float64
    # matrix, so no head forms W_k H or W_v H
    rng = np.random.default_rng(0)
    dim, heads, n = 256, 4, 4096
    params = attn.AttentionParams(
        *(tuple(rng.standard_normal((dim // heads, dim)) for _ in range(heads))
          for _ in range(3)),
        w_out=tuple(rng.standard_normal((dim, dim // heads)) for _ in range(heads)),
        score_temp=(8.0,) * heads, bias_temp=(8.0,) * heads)
    z = rng.standard_normal(dim) / math.sqrt(dim)
    tokens = rng.standard_normal((dim, n)) / math.sqrt(dim)
    _call_forward(name, params, z, tokens)  # build the params' cached stacks
    tracemalloc.start()
    try:
        _call_forward(name, params, z, tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tokens.nbytes / 4
