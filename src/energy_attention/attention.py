"""Attention forwards sharing one parameter container.

Every variant is a pure function of ``(params, z, tokens)``; the momentum
variants additionally thread an explicit ``MomentumState`` so callers decide
whether stacked applications share or reset it. Token matrices are d x N;
every forward rejects a query that is not a finite length-d vector and
tokens that are not a finite d x N matrix with N >= 1.

Two score families exist, both scoring all heads at once. Inner-product
scores q_h . k_i / T (standard, light and linear variants) never project a
token: each head's query is pulled back into token space, u_h = W_k,h^T q_h,
and scored against the raw tokens, and the raw tokens are averaged under
the weights before the value map, vbar_h = W_v,h (H p_h). Only the
negative squared-distance scores -||q - k||^2 / (2 T) of the
Newton-preconditioned variants, whose weights are the Boltzmann weights of
the elastic energy, project the keys, because they need ||k_i||^2. The
Newton step itself, exact or Taylor-truncated, is ``energy.newton_step``,
the one the descent optimizer takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from energy_attention import energy as en
from energy_attention import numkit as nk


@dataclass(frozen=True, eq=False)
class AttentionParams:
    """Per-head projections plus the learnable scalars shared by all variants.

    Shapes: ``w_query``/``w_key``/``w_value`` are d_h x d per head, ``w_out``
    is d x d_h, and heads * d_h must equal d. ``score_temp`` scales attention
    scores, ``bias_temp`` scales the second-order bias term, ``tau`` gates the
    covariance bias of the light variant. Defaults follow the standard
    initializations: beta 0.9, eta 1.0, tau 0.01. Every forward scores all
    heads at once from the stacked forms below, built lazily because the
    verifiers build a parameter set per instance.
    """

    w_query: tuple[np.ndarray, ...]
    w_key: tuple[np.ndarray, ...]
    w_value: tuple[np.ndarray, ...]
    w_out: tuple[np.ndarray, ...]
    score_temp: tuple[float, ...]
    bias_temp: tuple[float, ...]
    beta: float = 0.9
    eta: float = 1.0
    tau: tuple[float, ...] = ()

    def __post_init__(self):
        heads = len(self.w_query)
        if heads < 1:
            raise ValueError("at least one head required")
        for name in ("w_key", "w_value", "w_out", "score_temp", "bias_temp"):
            if len(getattr(self, name)) != heads:
                raise ValueError(f"{name} must have one entry per head")
        head_dim, dim = self.w_query[0].shape
        if heads * head_dim != dim:
            raise ValueError("heads * head_dim must equal the token dimension")
        for w in (*self.w_query, *self.w_key, *self.w_value):
            if w.shape != (head_dim, dim):
                raise ValueError("projection shapes disagree across heads")
        for w in self.w_out:
            if w.shape != (dim, head_dim):
                raise ValueError("output projections must be dim x head_dim")
        if not all(np.isfinite(t) and t > 0.0 for t in self.score_temp + self.bias_temp):
            raise ValueError("temperatures must be finite and > 0")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError("learning rate must be finite and > 0")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("momentum coefficient must lie in [0, 1)")
        if not self.tau:
            object.__setattr__(self, "tau", (0.01,) * heads)
        elif len(self.tau) != heads:
            raise ValueError("tau must have one entry per head")
        if not all(math.isfinite(t) for t in self.tau):
            raise ValueError("tau must be finite")

    @property
    def heads(self) -> int:
        return len(self.w_query)

    @property
    def dim(self) -> int:
        return self.w_query[0].shape[1]

    @property
    def head_dim(self) -> int:
        return self.w_query[0].shape[0]

    # row-stacked W_q/W_k (H d_h x d), head-stacked W_k/W_v (H, d_h, d),
    # side-by-side W_o (d x H d_h) and temperature columns (H, 1), built on
    # first use
    query_stack = cached_property(lambda self: np.vstack(self.w_query))
    key_stack = cached_property(lambda self: np.vstack(self.w_key))
    key_heads = cached_property(lambda self: np.array(self.w_key))
    value_heads = cached_property(lambda self: np.array(self.w_value))
    out_stack = cached_property(lambda self: np.hstack(self.w_out))
    score_temps = cached_property(lambda self: np.array(self.score_temp)[:, None])
    bias_temps = cached_property(lambda self: np.array(self.bias_temp)[:, None])


def single_head_params(w_query, w_key, w_value, temperature: float) -> AttentionParams:
    """Square single-head container (d x d maps, identity output projection)."""
    wq = nk.as_matrix(w_query)
    return AttentionParams(
        w_query=(wq,), w_key=(nk.as_matrix(w_key),),
        w_value=(nk.as_matrix(w_value),), w_out=(np.eye(wq.shape[0]),),
        score_temp=(temperature,), bias_temp=(temperature,))


def default_score_temperature(head_dim: int, scores: str) -> float:
    """Standard initialization: sqrt(d_h) for inner-product scores,
    sqrt(2 d_h) for squared-distance scores."""
    if scores == "inner":
        return float(np.sqrt(head_dim))
    if scores == "distance":
        return float(np.sqrt(2.0 * head_dim))
    raise ValueError(f"unknown score family {scores!r}")


def random_params(rng: nk.Rng, dim: int, heads: int,
                  scores: str = "inner") -> AttentionParams:
    """Gaussian projections scaled 1/sqrt(dim) with the default scalars."""
    if dim % heads != 0:
        raise ValueError("heads must divide the token dimension")
    head_dim = dim // heads
    scale = 1.0 / np.sqrt(dim)
    temp = default_score_temperature(head_dim, scores)

    def draw():
        return tuple(rng.normal_matrix(head_dim, dim, scale) for _ in range(heads))

    return AttentionParams(
        w_query=draw(), w_key=draw(), w_value=draw(),
        w_out=tuple(rng.normal_matrix(dim, head_dim, scale) for _ in range(heads)),
        score_temp=(temp,) * heads, bias_temp=(temp,) * heads)


@dataclass(frozen=True, eq=False)
class MomentumState:
    """Gradient accumulator threaded through the momentum variants."""

    momentum: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "MomentumState":
        return cls(np.zeros(dim))


@dataclass(frozen=True, eq=False)
class RangeSpaceCache:
    """Precomputation shared by every Newton-family call of one parameter set:
    the range maps M_h = W_q^T (W_q W_q^T)^-1 stacked (H, d, d_h), the only
    inverse the Newton variants need, and the fused Taylor output chains
    W_o,h W_v,h M_h side by side, d x (H d_h). The row-stacked projections
    every forward scores with are held by the params."""

    maps: np.ndarray
    taylor_out_stack: np.ndarray


def range_space_cache(params: AttentionParams) -> RangeSpaceCache:
    maps = np.stack([nk.range_space_pinv(w) for w in params.w_query])
    fused = np.hstack([params.w_out[h] @ (params.w_value[h] @ maps[h])
                       for h in range(params.heads)])
    return RangeSpaceCache(maps, fused)


def _inputs(params: AttentionParams, z, tokens) -> tuple[np.ndarray, np.ndarray]:
    """A forward's query as a finite length-d vector and its tokens as a
    finite d x N matrix with N >= 1."""
    return nk.as_query(z, params.dim), nk.as_tokens(tokens, params.dim)


def _distance_weights(params: AttentionParams, z: np.ndarray, tokens: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every head's queries (H, d_h), keys (H, d_h, N) and squared-distance
    softmax weights (H, N). The scores drop the row constant
    -||q||^2 / (2 T), which the softmax ignores."""
    z, tokens = _inputs(params, z, tokens)
    heads, n = params.heads, tokens.shape[1]
    queries = (params.query_stack @ z).reshape(heads, -1)
    keys = (params.key_stack @ tokens).reshape(heads, -1, n)
    scores = np.matmul(queries[:, None, :], keys)[:, 0, :]
    scores -= 0.5 * np.einsum("hdn,hdn->hn", keys, keys)
    return queries, keys, nk.softmax_lse_rows(scores / params.score_temps)[0]


def _value_means(params: AttentionParams, z: np.ndarray, tokens: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Inner-product weights (H, N) and head value means vbar_h (H, d_h) for
    checked inputs: the pulled-back queries W_k,h^T q_h score the raw
    tokens, and the weighted token means H p_h go through W_v,h."""
    queries = (params.query_stack @ z).reshape(params.heads, 1, -1)
    pulled = np.matmul(queries, params.key_heads)[:, 0, :] / params.score_temps
    weights = nk.softmax_lse_rows(pulled @ tokens)[0]
    means = tokens @ weights.T  # column h is H p_h
    return weights, np.matmul(params.value_heads, means.T[:, :, None])[:, :, 0]


# ---------------------------------------------------------------------------
# first-order variants
# ---------------------------------------------------------------------------

def softmax_attention(params: AttentionParams, z: np.ndarray,
                      tokens: np.ndarray) -> np.ndarray:
    """z + W_v H softmax(scores / T) for a square single-head container: the
    multi-head forward, whose W_o is the identity from ``single_head_params``."""
    if params.heads != 1 or params.head_dim != params.dim:
        raise ValueError("softmax_attention requires square single-head params")
    return mha(params, z, tokens)


def linear_attention(params: AttentionParams, z: np.ndarray, tokens: np.ndarray,
                     gates: np.ndarray | None = None) -> np.ndarray:
    """z + sum_i gates_i (q . k_i) W_v h_i; softmax-free scores, gates default 1.

    Computed as z + W_v (H ((W_k^T W_q z)^T H * gates)), so no token is
    projected.
    """
    if params.heads != 1 or params.head_dim != params.dim:
        raise ValueError("linear_attention requires square single-head params")
    z, tokens = _inputs(params, z, tokens)
    scores = ((params.w_query[0] @ z) @ params.w_key[0]) @ tokens
    if gates is not None:
        gates = nk.as_vector(gates, dim=tokens.shape[1])
        scores = gates * scores
    return z + params.w_value[0] @ (tokens @ scores)


def mha(params: AttentionParams, z: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Multi-head forward: z + sum_h W_o,h W_v,h H softmax(scores_h / T_h)."""
    return _mha(params, *_inputs(params, z, tokens))


def _mha(params: AttentionParams, z: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """``mha`` for checked inputs."""
    return z + params.out_stack @ _value_means(params, z, tokens)[1].ravel()


def momen_mha(params: AttentionParams, z: np.ndarray, tokens: np.ndarray,
              state: MomentumState) -> tuple[np.ndarray, MomentumState]:
    """Multi-head forward run through a momentum recurrence.

    The attention update part stands in for the (negative) gradient:
    p' = beta p - (mha(z) - z), output z - eta p'. With zero momentum and
    eta = 1 this reduces to the plain forward.
    """
    return _momentum(params, z, tokens, state, lookahead=False)


def nag_mha(params: AttentionParams, z: np.ndarray, tokens: np.ndarray,
            state: MomentumState) -> tuple[np.ndarray, MomentumState]:
    """Momentum recurrence with the update evaluated at the lookahead point.

    The lookahead is where the momentum step is about to land,
    z - eta beta p: p' = beta p - (mha(a) - a) at a = z - eta beta p, output
    z - eta p'. With zero momentum and eta = 1 this reduces to the plain
    forward.
    """
    return _momentum(params, z, tokens, state, lookahead=True)


def _momentum(params: AttentionParams, z, tokens, state: MomentumState,
              lookahead: bool) -> tuple[np.ndarray, MomentumState]:
    """The recurrence of ``momen_mha`` and, with ``lookahead``, ``nag_mha``;
    a momentum that is not a finite length-d vector raises ``ValueError``."""
    z, tokens = _inputs(params, z, tokens)
    momentum, beta, eta = state.momentum, params.beta, params.eta
    if momentum.shape != z.shape:
        raise ValueError("momentum state dimension mismatch")
    if not np.isfinite(momentum).all():
        raise ValueError("momentum state has non-finite entries")
    ahead = z - eta * beta * momentum if lookahead and beta != 0.0 else z
    grad_proxy = -(_mha(params, ahead, tokens) - ahead)
    new_p = grad_proxy if beta == 0.0 else beta * momentum + grad_proxy
    return z - eta * new_p, MomentumState(new_p)


# ---------------------------------------------------------------------------
# Newton-preconditioned variants
# ---------------------------------------------------------------------------

def mha2nd_exact(params: AttentionParams, z: np.ndarray, tokens: np.ndarray,
                 cache: RangeSpaceCache | None = None,
                 eps: float = 0.0) -> np.ndarray:
    """Per-subspace Newton step with the exact curvature inverse.

    Each head applies the range-space pseudoinverse of its query map and
    solves the d_h x d_h bracket I - (1/T_b) sum_i p_i d_i d_i^T, accumulated
    over chunks of centered keys d_i = k_i - kbar. Output: z - (eta/H) sum_h
    M_h B_h^-1 (q_h - kbar_h). ``eps`` >= 0 optionally regularizes the
    bracket (off by default).
    """
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError("regularization must be finite and >= 0")
    if cache is None:
        cache = range_space_cache(params)
    steps = en.newton_step(*_distance_weights(params, z, tokens),
                           params.bias_temps, "exact", eps)
    moved = np.einsum("hdk,hk->d", cache.maps, steps)
    return z - (params.eta / params.heads) * moved


def mha2nd1st(params: AttentionParams, z: np.ndarray, tokens: np.ndarray,
              cache: RangeSpaceCache | None = None) -> np.ndarray:
    """First-order Taylor truncation of the Newton step, learnable form.

    The bracket inverse is replaced by I + (1/T_b) sum p d d^T, which folds
    into the bias vector b_h; the Newton scale and sign live in the learnable
    W_o W_v. Output: z + sum_h W_o,h W_v,h M_h (q_h - kbar_h + b_h).
    """
    if cache is None:
        cache = range_space_cache(params)
    moved = en.newton_step(*_distance_weights(params, z, tokens),
                           params.bias_temps, "taylor1")
    return z + cache.taylor_out_stack @ moved.ravel()


def mha2nd1st_no_v(params: AttentionParams, z: np.ndarray,
                   tokens: np.ndarray) -> np.ndarray:
    """Taylor-truncated variant with W_v and the range map folded into W_o:
    z + sum_h W_o,h (q_h - kbar_h + b_h)."""
    moved = en.newton_step(*_distance_weights(params, z, tokens),
                           params.bias_temps, "taylor1")
    return z + params.out_stack @ moved.ravel()


def light_mha2nd1st(params: AttentionParams, z: np.ndarray,
                    tokens: np.ndarray) -> np.ndarray:
    """Covariance-bias light variant with inner-product scores.

    Values are preconditioned after parameterization: the head output is
    vbar_h + tau_h * (sum_i p_i v_i (v_i . vbar_h) - vbar_h (vbar_h . vbar_h)),
    the bias being the value covariance applied to vbar_h. With tau = 0 this
    is a plain W_o-projected multi-head forward. Values are never formed:
    v_i . vbar_h is (W_v,h^T vbar_h) . h_i, and the weighted sum of the
    values is W_v,h applied to the weighted sum of the raw tokens.
    """
    z, tokens = _inputs(params, z, tokens)
    weights, vbar = _value_means(params, z, tokens)
    per_value = np.matmul(vbar[:, None, :], params.value_heads)[:, 0, :] @ tokens
    spread = tokens @ (weights * per_value).T
    bias = (np.matmul(params.value_heads, spread.T[:, :, None])[:, :, 0]
            - vbar * np.sum(vbar * vbar, axis=1)[:, None])
    taus = np.array(params.tau)[:, None]
    return z + params.out_stack @ (vbar + taus * bias).ravel()


def tied_newton_params(params: AttentionParams) -> AttentionParams:
    """Retie W_v and W_o so the learnable Taylor form computes the explicit
    -(eta/H)-scaled Newton direction, for comparison against the exact step.

    With W_v,h = W_q,h the value map cancels the range map (W_v M = I), and
    W_o,h = -(eta/H) M_h restores the absorbed scale and sign.
    """
    maps = range_space_cache(params).maps
    return replace(params, w_value=params.w_query,
                   w_out=tuple(-params.eta / params.heads * maps))
