"""Attention forwards sharing one parameter container.

Every variant is a pure function of ``(params, z, tokens)``; the momentum
variants additionally thread an explicit ``MomentumState`` so callers decide
whether stacked applications share or reset it. Token matrices are d x N.

Two score families exist, both routed through the same softmax utility:
inner-product scores q . k / T (standard and light variants) and negative
squared-distance scores -||q - k||^2 / (2 T) (the Newton-preconditioned
variants, whose weights are the Boltzmann weights of the elastic energy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from energy_attention import numkit as nk


@dataclass(frozen=True, eq=False)
class AttentionParams:
    """Per-head projections plus the learnable scalars shared by all variants.

    Shapes: ``w_query``/``w_key``/``w_value`` are d_h x d per head, ``w_out``
    is d x d_h, and heads * d_h must equal d. ``score_temp`` scales attention
    scores, ``bias_temp`` scales the second-order bias term, ``tau`` gates the
    covariance bias of the light variant. Defaults follow the standard
    initializations: beta 0.9, eta 1.0, tau 0.01.
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
        if not self.tau:
            object.__setattr__(self, "tau", (0.01,) * heads)
        elif len(self.tau) != heads:
            raise ValueError("tau must have one entry per head")

    @property
    def heads(self) -> int:
        return len(self.w_query)

    @property
    def dim(self) -> int:
        return self.w_query[0].shape[1]

    @property
    def head_dim(self) -> int:
        return self.w_query[0].shape[0]


def single_head_params(w_query, w_key, w_value, temperature: float,
                       eta: float = 1.0, beta: float = 0.9) -> AttentionParams:
    """Square single-head container (d x d maps, identity output projection)."""
    wq = nk.as_matrix(w_query)
    return AttentionParams(
        w_query=(wq,), w_key=(nk.as_matrix(w_key),),
        w_value=(nk.as_matrix(w_value),), w_out=(np.eye(wq.shape[0]),),
        score_temp=(temperature,), bias_temp=(temperature,),
        beta=beta, eta=eta)


def default_score_temperature(head_dim: int, scores: str) -> float:
    """Standard initialization: sqrt(d_h) for inner-product scores,
    sqrt(2 d_h) for squared-distance scores."""
    if scores == "inner":
        return float(np.sqrt(head_dim))
    if scores == "distance":
        return float(np.sqrt(2.0 * head_dim))
    raise ValueError(f"unknown score family {scores!r}")


def random_params(rng: nk.Rng, dim: int, heads: int, scores: str = "inner",
                  beta: float = 0.9, eta: float = 1.0,
                  tau: float = 0.01) -> AttentionParams:
    """Gaussian projections scaled 1/sqrt(dim) with standard scalar inits."""
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
        score_temp=(temp,) * heads, bias_temp=(temp,) * heads,
        beta=beta, eta=eta, tau=(tau,) * heads)


@dataclass(frozen=True, eq=False)
class MomentumState:
    """Gradient accumulator threaded through the momentum variants."""

    momentum: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "MomentumState":
        return cls(np.zeros(dim))


@dataclass(frozen=True, eq=False)
class RangeSpaceCache:
    """Precomputation shared by every forward call of one parameter set.

    Holds the per-head range maps M_h = W_q^T (W_q W_q^T)^-1 (the only
    inverse the Newton variants need, so it is computed exactly once), the
    row-stacked query/key projections (one matrix product per call instead
    of one per head), and the fused Taylor output chains W_o,h W_v,h M_h.
    """

    maps: tuple[np.ndarray, ...]
    query_stack: np.ndarray
    key_stack: np.ndarray
    taylor_out_stack: np.ndarray
    score_temps: np.ndarray
    bias_temps: np.ndarray


def range_space_cache(params: AttentionParams) -> RangeSpaceCache:
    maps = tuple(nk.range_space_pinv(w) for w in params.w_query)
    fused = np.hstack([params.w_out[h] @ (params.w_value[h] @ maps[h])
                       for h in range(params.heads)])
    return RangeSpaceCache(maps, np.vstack(params.w_query),
                           np.vstack(params.w_key), fused,
                           np.array(params.score_temp)[:, None],
                           np.array(params.bias_temp)[:, None])


# ---------------------------------------------------------------------------
# first-order variants
# ---------------------------------------------------------------------------

def _inner_weights(q: np.ndarray, keys: np.ndarray, temp: float) -> np.ndarray:
    return nk.softmax((q @ keys) / temp)


def _distance_weights(q: np.ndarray, keys: np.ndarray, temp: float) -> np.ndarray:
    sq = keys - q[:, None]
    return nk.softmax(-0.5 * np.sum(sq * sq, axis=0) / temp)


def softmax_attention(params: AttentionParams, z: np.ndarray,
                      tokens: np.ndarray) -> np.ndarray:
    """z + W_v H softmax(scores / T) for a square single-head container."""
    if params.heads != 1 or params.head_dim != params.dim:
        raise ValueError("softmax_attention requires square single-head params")
    weights = _inner_weights(params.w_query[0] @ z, params.w_key[0] @ tokens,
                             params.score_temp[0])
    return z + (params.w_value[0] @ tokens) @ weights


def linear_attention(params: AttentionParams, z: np.ndarray, tokens: np.ndarray,
                     gates: np.ndarray | None = None) -> np.ndarray:
    """z + sum_i gates_i (q . k_i) W_v h_i; softmax-free scores, gates default 1."""
    if params.heads != 1 or params.head_dim != params.dim:
        raise ValueError("linear_attention requires square single-head params")
    scores = (params.w_query[0] @ z) @ (params.w_key[0] @ tokens)
    if gates is not None:
        gates = nk.as_vector(gates, dim=tokens.shape[1])
        scores = gates * scores
    return z + (params.w_value[0] @ tokens) @ scores


def mha(params: AttentionParams, z: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Multi-head forward: z + sum_h W_o,h (W_v,h H) softmax(scores_h / T_h)."""
    out = z.copy()
    for h in range(params.heads):
        weights = _inner_weights(params.w_query[h] @ z, params.w_key[h] @ tokens,
                                 params.score_temp[h])
        out += params.w_out[h] @ ((params.w_value[h] @ tokens) @ weights)
    return out


def momen_mha(params: AttentionParams, z: np.ndarray, tokens: np.ndarray,
              state: MomentumState) -> tuple[np.ndarray, MomentumState]:
    """Multi-head forward run through a momentum recurrence.

    The attention update part stands in for the (negative) gradient:
    p' = beta p - (mha(z) - z), output z - eta p'. With zero momentum and
    eta = 1 this reduces to the plain forward.
    """
    if state.momentum.shape != z.shape:
        raise ValueError("momentum state dimension mismatch")
    grad_proxy = -(mha(params, z, tokens) - z)
    new_p = grad_proxy if params.beta == 0.0 else params.beta * state.momentum + grad_proxy
    return z - params.eta * new_p, MomentumState(new_p)


def nag_mha(params: AttentionParams, z: np.ndarray, tokens: np.ndarray,
            state: MomentumState) -> tuple[np.ndarray, MomentumState]:
    """Momentum recurrence with the update evaluated at the lookahead point.

    The lookahead is where the momentum step is about to land,
    z - eta beta p: p' = beta p - (mha(a) - a) at a = z - eta beta p, output
    z - eta p'. With zero momentum and eta = 1 this reduces to the plain
    forward.
    """
    if state.momentum.shape != z.shape:
        raise ValueError("momentum state dimension mismatch")
    ahead = (z if params.beta == 0.0
             else z - params.eta * params.beta * state.momentum)
    grad_proxy = -(mha(params, ahead, tokens) - ahead)
    new_p = grad_proxy if params.beta == 0.0 else params.beta * state.momentum + grad_proxy
    return z - params.eta * new_p, MomentumState(new_p)


# ---------------------------------------------------------------------------
# Newton-preconditioned variants
# ---------------------------------------------------------------------------

def _head_stats(params: AttentionParams, z: np.ndarray, tokens: np.ndarray,
                h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distance-score weights and key statistics for one head: (q, K, p, kbar)."""
    q = params.w_query[h] @ z
    keys = params.w_key[h] @ tokens
    weights = _distance_weights(q, keys, params.score_temp[h])
    return q, keys, weights, keys @ weights


def mha2nd_exact(params: AttentionParams, z: np.ndarray, tokens: np.ndarray,
                 cache: RangeSpaceCache | None = None,
                 eps: float = 0.0) -> np.ndarray:
    """Per-subspace Newton step with the exact curvature inverse.

    Each head applies the range-space pseudoinverse of its query map and
    inverts the d_h x d_h bracket I - (1/T_b) sum_i p_i d_i d_i^T built from
    centered keys d_i = k_i - kbar. Output: z - (eta/H) sum_h M_h B_h^-1
    (q_h - kbar_h). ``eps`` optionally regularizes the bracket (off by
    default).
    """
    if cache is None:
        cache = range_space_cache(params)
    out = z.copy()
    scale = params.eta / params.heads
    for h in range(params.heads):
        q, keys, weights, kbar = _head_stats(params, z, tokens, h)
        centered = keys - kbar[:, None]
        bracket = -(centered * weights) @ centered.T / params.bias_temp[h]
        bracket += (1.0 + eps) * np.eye(params.head_dim)
        try:
            bracket_inv = nk.solve_inverse(bracket)
        except ValueError as err:
            raise ValueError("Hessian preconditioner singular") from err
        out -= scale * (cache.maps[h] @ (bracket_inv @ (q - kbar)))
    return out


def _taylor_bias(keys: np.ndarray, weights: np.ndarray, kbar: np.ndarray,
                 offset: np.ndarray, temp: float) -> np.ndarray:
    """(1/T) [sum_i p_i k_i (k_i . offset) - kbar (kbar . offset)].

    Inner products first: no head_dim x head_dim intermediate is formed,
    keeping the cost linear in the token count.
    """
    per_key = keys.T @ offset
    return (keys @ (weights * per_key) - kbar * float(kbar @ offset)) / temp


def _batched_offsets_and_biases(params: AttentionParams, z: np.ndarray,
                                tokens: np.ndarray,
                                cache: RangeSpaceCache) -> np.ndarray:
    """(q_h - kbar_h + b_h) for all heads at once, shape (heads, head_dim).

    One stacked key projection feeds every head; scores, means and the
    inner-products-first bias are batched matrix-vector products, so the
    per-call cost beyond the projections stays O(N d + d^2 / heads). The
    row-constant 0.5 ||q||^2 term of the squared distance is dropped: the
    softmax is invariant to it.
    """
    heads, head_dim = params.heads, params.head_dim
    n = tokens.shape[1]
    queries = (cache.query_stack @ z).reshape(heads, head_dim)
    keys = (cache.key_stack @ tokens).reshape(heads, head_dim, n)
    cross = np.matmul(queries[:, None, :], keys)[:, 0, :]           # (H, N)
    scores = (cross - 0.5 * np.einsum("hdn,hdn->hn", keys, keys)) / cache.score_temps
    weights, _ = nk.softmax_lse_rows(scores)
    kbar = np.matmul(keys, weights[:, :, None])[:, :, 0]            # (H, dh)
    offsets = queries - kbar
    per_key = np.matmul(offsets[:, None, :], keys)[:, 0, :]         # (H, N)
    biases = np.matmul(keys, (weights * per_key)[:, :, None])[:, :, 0] \
        - kbar * np.sum(kbar * offsets, axis=1)[:, None]
    return offsets + biases / cache.bias_temps


def mha2nd1st(params: AttentionParams, z: np.ndarray, tokens: np.ndarray,
              cache: RangeSpaceCache | None = None) -> np.ndarray:
    """First-order Taylor truncation of the Newton step, learnable form.

    The bracket inverse is replaced by I + (1/T_b) sum p d d^T, which folds
    into the bias vector b_h; the Newton scale and sign live in the learnable
    W_o W_v. Output: z + sum_h W_o,h W_v,h M_h (q_h - kbar_h + b_h).
    """
    if cache is None:
        cache = range_space_cache(params)
    moved = _batched_offsets_and_biases(params, z, tokens, cache)
    return z + cache.taylor_out_stack @ moved.ravel()


def mha2nd1st_no_v(params: AttentionParams, z: np.ndarray,
                   tokens: np.ndarray) -> np.ndarray:
    """Taylor-truncated variant with W_v and the range map folded into W_o:
    z + sum_h W_o,h (q_h - kbar_h + b_h)."""
    out = z.copy()
    for h in range(params.heads):
        q, keys, weights, kbar = _head_stats(params, z, tokens, h)
        offset = q - kbar
        bias = _taylor_bias(keys, weights, kbar, offset, params.bias_temp[h])
        out += params.w_out[h] @ (offset + bias)
    return out


def light_mha2nd1st(params: AttentionParams, z: np.ndarray,
                    tokens: np.ndarray) -> np.ndarray:
    """Covariance-bias light variant with inner-product scores.

    Values are preconditioned after parameterization: the head output is
    vbar_h + tau_h * (sum_i p_i v_i (v_i . vbar_h) - vbar_h (vbar_h . vbar_h)),
    the bias being the value covariance applied to vbar_h. With tau = 0 this
    is a plain W_o-projected multi-head forward.
    """
    out = z.copy()
    for h in range(params.heads):
        weights = _inner_weights(params.w_query[h] @ z, params.w_key[h] @ tokens,
                                 params.score_temp[h])
        values = params.w_value[h] @ tokens
        vbar = values @ weights
        per_value = values.T @ vbar
        bias = values @ (weights * per_value) - vbar * float(vbar @ vbar)
        out += params.w_out[h] @ (vbar + params.tau[h] * bias)
    return out


def tied_newton_params(params: AttentionParams) -> AttentionParams:
    """Retie W_v and W_o so the learnable Taylor form computes the explicit
    -(eta/H)-scaled Newton direction, for comparison against the exact step.

    With W_v,h = W_q,h the value map cancels the range map (W_v M = I), and
    W_o,h = -(eta/H) M_h restores the absorbed scale and sign.
    """
    maps = range_space_cache(params).maps
    scale = -params.eta / params.heads
    return AttentionParams(
        w_query=params.w_query, w_key=params.w_key, w_value=params.w_query,
        w_out=tuple(scale * m for m in maps),
        score_temp=params.score_temp, bias_temp=params.bias_temp,
        beta=params.beta, eta=params.eta, tau=params.tau)
