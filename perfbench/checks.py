"""Reference computations in plain numpy that the workloads check against.

Nothing here calls the library: each reference recomputes a quantity from
the raw arrays (weights, tokens, query points), and ``close``/``require``
raise ``CheckFailed`` when the library's output disagrees.
"""

from __future__ import annotations

import functools

import numpy as np

# contraction order chosen by numpy, so the big products run through BLAS
einsum = functools.partial(np.einsum, optimize=True)


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def logsumexp_rows(values: np.ndarray) -> np.ndarray:
    top = values.max(axis=-1)
    return top + np.log(np.exp(values - top[..., None]).sum(axis=-1))


# ---------------------------------------------------------------------------
# verify-sweep: tied forward == descent step
# ---------------------------------------------------------------------------

def tied_forward(w_query, w_key, w_value, w_out, temps, z, tokens,
                 gates=None) -> np.ndarray:
    """Multi-head inner-product forward (softmax scores, or gated linear
    scores when ``gates`` is given) from raw per-head matrices."""
    out = z.copy()
    for wq, wk, wv, wo, t in zip(w_query, w_key, w_value, w_out, temps):
        scores = (wq @ z) @ (wk @ tokens)
        weights = softmax_rows(scores / t) if gates is None else gates * scores
        out += wo @ ((wv @ tokens) @ weights)
    return out


def tied_step(maps_query, maps_key, z, tokens, eta: float, temperature: float,
              gates=None) -> np.ndarray:
    """One descent step on the head-averaged inner-product bound (softmax
    tying, gradient scaled by T) or on the gated square-sum energy."""
    heads = len(maps_query)
    step = np.zeros_like(z)
    for w1, w2 in zip(maps_query, maps_key):
        mapped = w1.T @ (w2 @ tokens)          # d x N: d(-E_i)/dz per token
        if gates is None:
            weights = softmax_rows((z @ mapped) / temperature)
            step += temperature * (mapped @ weights)
        else:
            energies = -(z @ mapped)
            step -= temperature * (mapped @ (gates * energies))
    return z + eta * step / heads


def free_energy_floor(weight: np.ndarray, z: np.ndarray, tokens: np.ndarray,
                      temperature: float) -> tuple[np.ndarray, float]:
    """Elastic pair energies and the minimum free energy -T log sum exp(-E/T)."""
    diff = z[:, None] - weight @ tokens
    energies = 0.5 * np.sum(diff * diff, axis=0)
    return energies, float(-temperature * logsumexp_rows(-energies / temperature))


def explicit_free_energies(energies: np.ndarray, weights: np.ndarray,
                           temperature: float) -> np.ndarray:
    """U - T S for each row of ``weights`` (0 log 0 = 0)."""
    safe = np.where(weights > 0.0, weights, 1.0)
    entropy = -np.sum(weights * np.log(safe), axis=1)
    return weights @ energies - temperature * entropy


# ---------------------------------------------------------------------------
# descent-race: closed-form per-head elastic gradient
# ---------------------------------------------------------------------------

def per_head_elastic_grad(maps_query, maps_key, z, tokens,
                          temperature: float) -> np.ndarray:
    grad = np.zeros_like(z)
    for w1, w2 in zip(maps_query, maps_key):
        q = w1 @ z
        keys = w2 @ tokens
        energies = 0.5 * np.sum((q[:, None] - keys) ** 2, axis=0)
        weights = softmax_rows(-energies / temperature)
        grad += w1.T @ (q - keys @ weights)
    return grad / len(maps_query)


# ---------------------------------------------------------------------------
# loop-sequence: dense masked N x N update
# ---------------------------------------------------------------------------

def loop_energies(weight: np.ndarray, tokens: np.ndarray,
                  causal: bool) -> tuple[np.ndarray, np.ndarray]:
    """Masked N x N elastic energies E[i, j] = 0.5 ||x_i - W x_j||^2 and
    the mapped tokens W X."""
    mapped = weight @ tokens
    energies = 0.5 * (np.sum(tokens * tokens, axis=0)[:, None]
                      - 2.0 * tokens.T @ mapped
                      + np.sum(mapped * mapped, axis=0)[None, :])
    if causal:
        n = tokens.shape[1]
        energies = np.where(np.tril(np.ones((n, n), dtype=bool)), energies, np.inf)
    return energies, mapped


def loop_step(weight, tokens, eta: float, temperature: float,
              causal: bool) -> np.ndarray:
    energies, mapped = loop_energies(weight, tokens, causal)
    weights = softmax_rows(-energies / temperature)
    return tokens - eta * (tokens - mapped @ weights.T)


def loop_objective(weight, tokens, temperature: float, causal: bool) -> float:
    energies, _ = loop_energies(weight, tokens, causal)
    return float(np.sum(-temperature * logsumexp_rows(-energies / temperature)))


def cross_entropy_sum(head: np.ndarray, finals, label_sets) -> float:
    total = 0.0
    for final, labels in zip(finals, label_sets):
        logits = head.T @ final                 # classes x positions
        lse = logsumexp_rows(logits.T)
        total += float(np.sum(lse - np.sum(labels * logits, axis=0)))
    return total


# ---------------------------------------------------------------------------
# forward-long: einsum references
# ---------------------------------------------------------------------------

def _stack(maps) -> np.ndarray:
    return np.stack(maps)                       # heads x d_h x d


def ref_mha(p, z, tokens) -> np.ndarray:
    q = einsum("hkd,d->hk", _stack(p.w_query), z)
    keys = einsum("hkd,dn->hkn", _stack(p.w_key), tokens)
    values = einsum("hkd,dn->hkn", _stack(p.w_value), tokens)
    temps = np.array(p.score_temp)[:, None]
    weights = softmax_rows(einsum("hk,hkn->hn", q, keys) / temps)
    heads_out = einsum("hkn,hn->hk", values, weights)
    return z + einsum("hdk,hk->d", _stack(p.w_out), heads_out)


def ref_nag(p, z, tokens, momentum) -> tuple[np.ndarray, np.ndarray]:
    ahead = z - p.eta * p.beta * momentum
    new_p = p.beta * momentum - (ref_mha(p, ahead, tokens) - ahead)
    return z - p.eta * new_p, new_p


def _distance_stats(p, z, tokens):
    q = einsum("hkd,d->hk", _stack(p.w_query), z)
    keys = einsum("hkd,dn->hkn", _stack(p.w_key), tokens)
    sq = einsum("hkn,hkn->hn", keys - q[:, :, None], keys - q[:, :, None])
    weights = softmax_rows(-0.5 * sq / np.array(p.score_temp)[:, None])
    kbar = einsum("hkn,hn->hk", keys, weights)
    return q, keys, weights, kbar


def range_maps(p) -> np.ndarray:
    """W_q^T (W_q W_q^T)^-1 per head, by a linear solve."""
    return np.stack([np.linalg.solve(w @ w.T, w).T for w in p.w_query])


def ref_mha2nd_exact(p, z, tokens) -> np.ndarray:
    q, keys, weights, kbar = _distance_stats(p, z, tokens)
    centered = keys - kbar[:, :, None]
    cov = einsum("hkn,hn,hjn->hkj", centered, weights, centered)
    eye = np.eye(p.head_dim)
    steps = [np.linalg.solve(eye - cov[h] / p.bias_temp[h], q[h] - kbar[h])
             for h in range(p.heads)]
    moved = einsum("hdk,hk->d", range_maps(p), np.stack(steps))
    return z - (p.eta / p.heads) * moved


def ref_mha2nd1st(p, z, tokens) -> np.ndarray:
    q, keys, weights, kbar = _distance_stats(p, z, tokens)
    centered = keys - kbar[:, :, None]
    cov = einsum("hkn,hn,hjn->hkj", centered, weights, centered)
    offsets = q - kbar
    biased = offsets + einsum("hkj,hj->hk", cov, offsets) \
        / np.array(p.bias_temp)[:, None]
    chains = einsum("hdk,hkj,hjl->hdl", _stack(p.w_out), _stack(p.w_value),
                       range_maps(p))
    return z + einsum("hdl,hl->d", chains, biased)


def ref_light(p, z, tokens) -> np.ndarray:
    q = einsum("hkd,d->hk", _stack(p.w_query), z)
    keys = einsum("hkd,dn->hkn", _stack(p.w_key), tokens)
    values = einsum("hkd,dn->hkn", _stack(p.w_value), tokens)
    weights = softmax_rows(einsum("hk,hkn->hn", q, keys)
                           / np.array(p.score_temp)[:, None])
    vbar = einsum("hkn,hn->hk", values, weights)
    centered = values - vbar[:, :, None]
    cov = einsum("hkn,hn,hjn->hkj", centered, weights, centered)
    heads_out = vbar + np.array(p.tau)[:, None] * einsum("hkj,hj->hk", cov, vbar)
    return z + einsum("hdk,hk->d", _stack(p.w_out), heads_out)


def close(actual, expected, tol: float) -> float:
    """Largest deviation relative to max(1, |expected|); raises past ``tol``."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    require(actual.shape == expected.shape,
            f"shape {actual.shape} != {expected.shape}")
    require(bool(np.all(np.isfinite(actual))), "non-finite output")
    scale = max(1.0, float(np.max(np.abs(expected))))
    err = float(np.max(np.abs(actual - expected))) / scale
    require(err <= tol, f"deviation {err:.3e} > {tol:.1e}")
    return err
