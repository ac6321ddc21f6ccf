"""The one Newton step shared by descent and the Newton/Taylor forwards, and
the stacked multi-head forwards, against per-head oracles kept here."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from energy_attention import attention as attn
from energy_attention import descent as de
from energy_attention import energy as en
from energy_attention import numkit as nk


# ---------------------------------------------------------------------------
# the Newton step against the dense per-head Hessian
# ---------------------------------------------------------------------------

def _dense_step(spec, z, tokens, mode):
    """(1/H) sum_h pinv(Hess_h) grad_h over each head's own energy.

    The Taylor step puts 2I - B_h in place of the bracket inverse B_h^-1; in
    query space that is G^+ (2G - Hess_h) G^+ grad_h, where G = W1_h^T W1_h
    is the psd part of Hess_h (the identity for the full-space energy).
    """
    if isinstance(spec.pair, en.Elastic):
        heads = [spec]
    else:
        heads = [en.per_head_elastic_spec([w1], [w2], spec.temperature)
                 for w1, w2 in zip(spec.pair.w_query, spec.pair.w_key)]
    step = np.zeros_like(z)
    for single in heads:
        hess = en.hessian_z(single, z, tokens)
        grad = en.grad_z(single, z, tokens)
        if mode == "exact":
            step += np.linalg.pinv(hess) @ grad
        else:
            gram = en.hessian_split(single, z, tokens)[0]
            gram_pinv = np.linalg.pinv(gram)
            step += gram_pinv @ (2.0 * gram - hess) @ gram_pinv @ grad
    return step / len(heads)


def _newton_case(heads, seed):
    """An elastic spec at T = 1 with its query and tokens: the full-space
    energy for one head, conditioned block maps for several."""
    if heads > 1:
        return de.conditioned_multihead_instance(seed, 16, 24, heads)
    rng = nk.Rng(seed)
    spec = en.elastic_spec(rng.normal_matrix(8, 8, 1 / math.sqrt(8)), 1.0)
    tokens = np.stack([nk.sample_hypersphere(rng, 8, 1.0) for _ in range(12)],
                      axis=1)
    return spec, nk.sample_hypersphere(rng, 8, 1.0), tokens


def _forward_params(spec, eta):
    """Attention params whose exact Newton forward takes the spec's Newton
    step (both temperatures T); ``tied_newton_params`` retie them for the
    Taylor form."""
    pair = spec.pair
    w_query = (np.eye(len(pair.weight)),) if spec.heads == 1 else pair.w_query
    w_key = (pair.weight,) if spec.heads == 1 else pair.w_key
    temps = (spec.temperature,) * spec.heads
    return attn.AttentionParams(
        w_query=w_query, w_key=w_key, w_value=w_query,
        w_out=tuple(w.T for w in w_query), score_temp=temps, bias_temp=temps,
        eta=eta)


@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("mode", ["exact", "taylor1"])
@pytest.mark.parametrize("caller", ["descend", "forward"])
def test_newton_step_matches_dense_per_head_oracle(caller, mode, heads):
    eta = 0.3
    spec, z0, tokens = _newton_case(heads, 40 + heads)
    expected = z0 - eta * _dense_step(spec, z0, tokens, mode)
    if caller == "descend":
        trace = de.descend(spec, de.NewtonSubspace(eta, mode), z0, tokens,
                           max_iters=1, tol=1e-300)
        actual = trace.steps[1].z
    else:
        params = _forward_params(spec, eta)
        if mode == "exact":
            actual = attn.mha2nd_exact(params, z0, tokens)
        else:
            actual = attn.mha2nd1st(attn.tied_newton_params(params), z0, tokens)
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the exact bracket, accumulated over key chunks and solved
# ---------------------------------------------------------------------------

def _dense_exact_step(queries, keys, weights, temps, eps):
    """B_h^-1 (q_h - kbar_h) from one N-wide centred copy of each head's keys."""
    steps = []
    for q, k, w, t in zip(queries, keys, weights, temps[:, 0]):
        kbar = k @ w
        centered = k - kbar[:, None]
        bracket = (1.0 + eps) * np.eye(len(q)) - (centered * w) @ centered.T / t
        assert np.linalg.cond(bracket) < 1e3
        steps.append(np.linalg.solve(bracket, q - kbar))
    return np.array(steps)


@pytest.mark.parametrize("heads, head_dim", [(4, 64), (4, 4)])
@pytest.mark.parametrize("count", [1, 511, 512, 513, 3 * 512 + 7])
def test_exact_step_matches_dense_covariance(heads, head_dim, count):
    rng = np.random.default_rng(count + head_dim)
    queries = rng.standard_normal((heads, head_dim))
    keys = rng.standard_normal((heads, head_dim, count)) + 0.5
    weights = rng.random((heads, count)) ** 4
    weights[:, count // 2] = 0.0  # an underflowed Boltzmann weight
    weights[:, 0] += 1e-3  # every head keeps some mass at N = 1
    weights /= weights.sum(axis=1, keepdims=True)
    # negative definite brackets in heads 0 and 1 (T below every covariance
    # eigenvalue), positive definite ones in heads 2 and 3
    temps = np.array([[0.05], [0.1], [20.0], [40.0]])
    for eps in (0.0, 0.25):
        expected = _dense_exact_step(queries, keys, weights, temps, eps)
        actual = en.newton_step(queries, keys, weights, temps, "exact", eps)
        assert actual.shape == (heads, head_dim)
        assert np.max(np.abs(actual - expected)) <= 1e-13 * np.max(np.abs(expected))


def _bracket_case(head_dim, smallest, seed):
    """Four heads' keys and uniform weights whose brackets I - C_h at T = 1
    are Q_h diag(lam_h) Q_h^T: pairs c_h +- s_j Q_h e_j give C_h = Q_h
    diag(s_j^2 / n) Q_h^T. Head 2 has the eigenvalue ``smallest``; every
    other eigenvalue has a modulus in [0.3, 0.9]."""
    rng = np.random.default_rng(seed)
    heads = 4
    lams = rng.uniform(0.3, 0.9, (heads, head_dim)) * rng.choice([-1.0, 1.0], (heads, head_dim))
    lams[2, 0] = smallest
    keys = np.empty((heads, head_dim, 2 * head_dim))
    for h in range(heads):
        rotation = np.linalg.qr(rng.standard_normal((head_dim, head_dim)))[0]
        spread = rotation * np.sqrt(head_dim * (1.0 - lams[h]))
        centre = 0.3 * rng.standard_normal((head_dim, 1))
        keys[h, :, 0::2] = centre + spread
        keys[h, :, 1::2] = centre - spread
    weights = np.full((heads, 2 * head_dim), 1.0 / (2 * head_dim))
    return rng.standard_normal((heads, head_dim)), keys, weights, np.ones((heads, 1))


@pytest.mark.parametrize("head_dim", [4, 64])
@pytest.mark.parametrize("factor", [0.5, 2.0, -0.5, -2.0])
def test_exact_guard_raises_where_the_svd_rule_does(head_dim, factor):
    threshold = math.sqrt(head_dim) * 1e-12
    queries, keys, weights, temps = _bracket_case(head_dim, factor * threshold,
                                                  head_dim)
    # the rule of the SVD guard, on dense brackets of the same keys
    brackets = []
    for k, w in zip(keys, weights):
        centered = k - (k @ w)[:, None]
        brackets.append(np.eye(head_dim) - (centered * w) @ centered.T)
    singular = np.linalg.svd(np.array(brackets), compute_uv=False).min() < threshold
    assert singular == (abs(factor) < 1.0)
    if singular:
        with pytest.raises(ValueError, match="Hessian preconditioner singular"):
            en.newton_step(queries, keys, weights, temps, "exact")
    else:
        steps = en.newton_step(queries, keys, weights, temps, "exact")
        assert np.all(np.isfinite(steps))


def test_exact_overflowing_bracket_is_singular_before_lapack(monkeypatch):
    # finite keys near 1e160 overflow the chunk products; such a bracket is
    # rejected before any LAPACK call sees it
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK called on a non-finite bracket")

    keys = np.array([[[1e160, -1e160, 0.0], [0.0, 1e160, -1e160]]])
    weights = np.array([[0.5, 0.25, 0.25]])
    monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
    monkeypatch.setattr(np.linalg, "solve", no_lapack)
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="Hessian preconditioner singular"):
        en.newton_step(np.zeros((1, 2)), keys, weights, np.ones((1, 1)), "exact")
    monkeypatch.undo()
    params = attn.AttentionParams(
        w_query=(np.eye(2),), w_key=(np.eye(2),), w_value=(np.eye(2),),
        w_out=(np.eye(2),), score_temp=(1.0,), bias_temp=(1.0,))
    tokens = np.array([[1.0, -1.0, 0.5], [0.3, 0.0, -0.7]])
    assert np.all(np.isfinite(attn.mha2nd_exact(params, np.zeros(2), 1e150 * tokens)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="Hessian preconditioner singular"):
        attn.mha2nd_exact(params, np.zeros(2), 1e200 * tokens)


def test_exact_forward_makes_no_n_wide_key_copy():
    # the keys themselves (H x d_h x N, 8 MiB) are the largest array of an
    # exact forward at d = 256, N = 4096; one centred or weighted copy of
    # them would push the peak past 16 MiB
    rng = np.random.default_rng(0)
    dim, heads, n = 256, 4, 4096
    params = attn.AttentionParams(
        *(tuple(rng.standard_normal((dim // heads, dim)) / math.sqrt(dim)
                for _ in range(heads)) for _ in range(3)),
        w_out=tuple(rng.standard_normal((dim, dim // heads)) for _ in range(heads)),
        score_temp=(16.0,) * heads, bias_temp=(16.0,) * heads)
    z = rng.standard_normal(dim)
    tokens = rng.standard_normal((dim, n))
    cache = attn.range_space_cache(params)
    attn.mha2nd_exact(params, z, tokens, cache)  # build the params' cached stacks
    tracemalloc.start()
    try:
        attn.mha2nd_exact(params, z, tokens, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


# ---------------------------------------------------------------------------
# stacked forwards against a plain loop over heads
# ---------------------------------------------------------------------------

def _loop_weights(p, h, z, tokens, distance):
    q = p.w_query[h] @ z
    keys = p.w_key[h] @ tokens
    if distance:
        scores = -0.5 * np.sum((keys - q[:, None]) ** 2, axis=0)
    else:
        scores = q @ keys
    scores = scores / p.score_temp[h]
    weights = np.exp(scores - scores.max())
    return q, keys, weights / weights.sum()


def _loop_forward(name, p, z, tokens, momentum, gates=None):
    """Each forward as one loop over heads with per-head matrices: every
    head projects every token, W_k,h H and W_v,h H."""
    if name == "softmax_attention":
        name = "mha"
    if name in ("momen_mha", "nag_mha"):
        ahead = z - p.eta * p.beta * momentum if name == "nag_mha" else z
        new_p = p.beta * momentum - (_loop_forward("mha", p, ahead, tokens, None)
                                     - ahead)
        return z - p.eta * new_p
    out = z.copy()
    for h in range(p.heads):
        if name == "linear_attention":
            scores = (p.w_query[h] @ z) @ (p.w_key[h] @ tokens)
            out += (p.w_value[h] @ tokens) @ (scores if gates is None
                                              else gates * scores)
            continue
        if name in ("mha", "light_mha2nd1st"):
            _, _, weights = _loop_weights(p, h, z, tokens, distance=False)
            values = p.w_value[h] @ tokens
            vbar = values @ weights
            cov = (values * weights) @ values.T - np.outer(vbar, vbar)
            tau = p.tau[h] if name == "light_mha2nd1st" else 0.0
            out += p.w_out[h] @ (vbar + tau * (cov @ vbar))
            continue
        q, keys, weights = _loop_weights(p, h, z, tokens, distance=True)
        kbar = keys @ weights
        centered = keys - kbar[:, None]
        cov = (centered * weights) @ centered.T
        offset = q - kbar
        pinv = np.linalg.pinv(p.w_query[h])
        if name == "mha2nd_exact":
            bracket = np.eye(len(q)) - cov / p.bias_temp[h]
            out -= p.eta / p.heads * (pinv @ np.linalg.solve(bracket, offset))
            continue
        moved = offset + cov @ offset / p.bias_temp[h]
        if name == "mha2nd1st":
            moved = p.w_value[h] @ (pinv @ moved)
        out += p.w_out[h] @ moved
    return out


def _conditioning(p, z, tokens):
    """The largest condition number among the exact forward's brackets and
    the query Grams W_q W_q^T behind the range maps."""
    conds = []
    for h in range(p.heads):
        _, keys, weights = _loop_weights(p, h, z, tokens, distance=True)
        centered = keys - (keys @ weights)[:, None]
        cov = (centered * weights) @ centered.T
        conds.append(np.linalg.cond(np.eye(len(cov)) - cov / p.bias_temp[h]))
        conds.append(np.linalg.cond(p.w_query[h] @ p.w_query[h].T))
    return max(conds)


FORWARDS = ("mha", "momen_mha", "nag_mha", "mha2nd_exact", "mha2nd1st",
            "mha2nd1st_no_v", "light_mha2nd1st")


@st.composite
def _forward_cases(draw):
    heads = draw(st.sampled_from([1, 2, 4]))
    return {
        "heads": heads,
        "head_dim": draw(st.integers(1, 4)),
        "tokens": draw(st.integers(1, 12)),
        "score_temp": 10.0 ** draw(st.floats(-2.0, 2.0)),
        "bias_temp": 10.0 ** draw(st.floats(-2.0, 2.0)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=60, deadline=None)
@given(_forward_cases())
@example({"heads": 2, "head_dim": 3, "tokens": 1, "score_temp": 0.01,
          "bias_temp": 100.0, "seed": 0})
@example({"heads": 4, "head_dim": 2, "tokens": 7, "score_temp": 100.0,
          "bias_temp": 0.01, "seed": 1})
@example({"heads": 1, "head_dim": 3, "tokens": 1, "score_temp": 1.0,
          "bias_temp": 1.0, "seed": 2})
def test_stacked_forwards_equal_per_head_loop(case):
    rng = np.random.default_rng(case["seed"])
    heads, head_dim = case["heads"], case["head_dim"]
    dim = heads * head_dim
    scale = 1.0 / math.sqrt(dim)

    def maps(rows, cols):
        return tuple(rng.standard_normal((rows, cols)) * scale for _ in range(heads))

    params = attn.AttentionParams(
        w_query=maps(head_dim, dim), w_key=maps(head_dim, dim),
        w_value=maps(head_dim, dim), w_out=maps(dim, head_dim),
        score_temp=(case["score_temp"],) * heads,
        bias_temp=(case["bias_temp"],) * heads,
        beta=0.8, eta=0.7, tau=tuple(rng.uniform(-1.0, 1.0, heads)))
    z = rng.standard_normal(dim)
    tokens = rng.standard_normal((dim, case["tokens"]))
    momentum = rng.standard_normal(dim)
    gates = rng.uniform(0.0, 2.0, case["tokens"])
    # two correct solves of one system differ by up to its condition number
    assume(_conditioning(params, z, tokens) < 1e3)
    calls = [(name, None) for name in FORWARDS]
    if heads == 1:
        calls += [("softmax_attention", None), ("linear_attention", None),
                  ("linear_attention", gates)]
    for name, call_gates in calls:
        expected = _loop_forward(name, params, z, tokens, momentum, call_gates)
        forward = getattr(attn, name)
        if name in ("momen_mha", "nag_mha"):
            actual = forward(params, z, tokens, attn.MomentumState(momentum))[0]
        elif call_gates is not None:
            actual = forward(params, z, tokens, call_gates)
        else:
            actual = forward(params, z, tokens)
        scale_out = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(actual - expected)) <= 1e-12 * scale_out, name
