"""Pairwise and global energies over a token set, with analytic derivatives.

A configuration is an ``EnergySpec``: a pairwise interaction (elastic
displacement, inner product, kernelized inner product, or their per-head
subspace versions) combined into a global objective (Helmholtz free energy
or a gated square sum). Every operation takes the query point ``z`` and the
token matrix (d x N, one token per column) explicitly and returns plain
floats/arrays. One private core computes every energy, Boltzmann weight,
log-partition and query gradient of every kind, for one query or a d x Q
block of prefix-limited queries, taken in row tiles; the operations are
short calls into it (and reject a non-finite or mis-shaped query or token
matrix), one formula gives every single-head map gradient, and
``gradient_engine`` keeps one core for iterations: it accepts every kind and
checks its prefix limits for both call forms.
``newton_step`` is the per-head Newton step of the elastic free energy, all
heads at once, that the Newton optimizer and attention forwards share.

Gradient conventions
--------------------
``grad_z(..., convention="strict")`` is the exact derivative of the scalar
returned by the matching energy operation. ``convention="tied"`` scales the
inner-product Helmholtz gradient by the temperature; that is the scaling
under which one descent step with rate ``eta`` reproduces an attention
forward whose value map is ``eta * T * W`` (see the equivalence module).
The two conventions coincide for elastic, kernelized and square-sum
objectives.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from energy_attention import numkit as nk

# elementwise feature maps for the kernelized inner product: (map, derivative)
FEATURE_MAPS = {
    "identity": (lambda x: x, lambda x: np.ones_like(x)),
    "exp": (np.exp, np.exp),
}


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Elastic:
    """Pair energy 0.5 * ||z - W h||^2 with a learnable d x d map W."""

    weight: np.ndarray


@dataclass(frozen=True, eq=False)
class InnerProduct:
    """Pair energy -z^T W h."""

    weight: np.ndarray


@dataclass(frozen=True, eq=False)
class KernelInner:
    """Pair energy -phi(Wq z)^T phi(Wk h) with an elementwise feature map."""

    w_query: np.ndarray
    w_key: np.ndarray
    feature_map: str = "exp"


@dataclass(frozen=True, eq=False)
class PerHeadElastic:
    """Per-head pair energy 0.5 * ||W1_h z - W2_h h||^2, W1_h/W2_h: d_h x d."""

    w_query: tuple[np.ndarray, ...]
    w_key: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class PerHeadInner:
    """Per-head pair energy -(W1_h z)^T (W2_h h)."""

    w_query: tuple[np.ndarray, ...]
    w_key: tuple[np.ndarray, ...]


def _pair_dims(pair) -> tuple[int, int]:
    """The query and token dimensions that a pair energy's weights accept."""
    if isinstance(pair, (Elastic, InnerProduct)):
        return pair.weight.shape
    if isinstance(pair, (KernelInner, PerHeadElastic, PerHeadInner)):
        return np.shape(pair.w_query)[-1], np.shape(pair.w_key)[-1]
    raise ValueError(f"unknown pair energy {type(pair).__name__}")


@dataclass(frozen=True)
class Helmholtz:
    """Global energy min_p sum(p E) - T S(p) = -T log sum exp(-E/T)."""

    temperature: float


@dataclass(frozen=True, eq=False)
class WeightedSquareSum:
    """Global energy -(T/2) * sum_i gates_i * E_i^2; gates default to ones."""

    temperature: float
    gates: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class EnergySpec:
    pair: object
    global_energy: object

    def __post_init__(self):
        if self.per_head and not 0 < len(self.pair.w_query) == len(self.pair.w_key):
            raise ValueError("per-head weight lists must be nonempty and equally long")
        if not (np.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError("temperature must be finite and > 0")
        g = self.global_energy
        if isinstance(g, WeightedSquareSum) and g.gates is not None:
            gates = g.gates
            if not (isinstance(gates, np.ndarray) and gates.ndim == 1
                    and np.issubdtype(gates.dtype, np.floating)
                    and np.all(np.isfinite(gates)) and np.all(gates >= 0.0)):
                raise ValueError("gates must be a finite, nonnegative 1-D float array, "
                                 f"got {gates!r}")

    @property
    def temperature(self) -> float:
        return float(self.global_energy.temperature)

    @property
    def per_head(self) -> bool:
        return isinstance(self.pair, (PerHeadElastic, PerHeadInner))

    @property
    def heads(self) -> int:
        """The number of per-head weight pairs, 1 for a single-head pair."""
        return len(self.pair.w_query) if self.per_head else 1


def elastic_spec(weight, temperature: float) -> EnergySpec:
    return EnergySpec(Elastic(nk.as_matrix(weight)), Helmholtz(temperature))


def inner_product_spec(weight, temperature: float) -> EnergySpec:
    return EnergySpec(InnerProduct(nk.as_matrix(weight)), Helmholtz(temperature))


def kernel_spec(w_query, w_key, temperature: float,
                feature_map: str = "exp") -> EnergySpec:
    if feature_map not in FEATURE_MAPS:
        raise ValueError(f"unknown feature map {feature_map!r}")
    return EnergySpec(KernelInner(nk.as_matrix(w_query), nk.as_matrix(w_key),
                                  feature_map),
                      Helmholtz(temperature))


def per_head_elastic_spec(w_query, w_key, temperature: float) -> EnergySpec:
    wq = tuple(nk.as_matrix(w) for w in w_query)
    wk = tuple(nk.as_matrix(w) for w in w_key)
    return EnergySpec(PerHeadElastic(wq, wk), Helmholtz(temperature))


def per_head_inner_spec(w_query, w_key, temperature: float) -> EnergySpec:
    wq = tuple(nk.as_matrix(w) for w in w_query)
    wk = tuple(nk.as_matrix(w) for w in w_key)
    return EnergySpec(PerHeadInner(wq, wk), Helmholtz(temperature))


def square_sum_spec(weight, temperature: float, gates=None) -> EnergySpec:
    g = None if gates is None else nk.as_vector(gates)
    return EnergySpec(InnerProduct(nk.as_matrix(weight)),
                      WeightedSquareSum(temperature, g))


def upper_bound_spec(spec: EnergySpec) -> EnergySpec:
    """Inner-product counterpart of an elastic spec (same weights and T).

    Its Helmholtz energy is the bound that differs from the elastic free
    energy by exactly radius^2 when query and mapped tokens share a norm.
    """
    if isinstance(spec.pair, Elastic):
        return EnergySpec(InnerProduct(spec.pair.weight), spec.global_energy)
    if isinstance(spec.pair, PerHeadElastic):
        return EnergySpec(PerHeadInner(spec.pair.w_query, spec.pair.w_key),
                          spec.global_energy)
    if isinstance(spec.pair, (InnerProduct, PerHeadInner)):
        return spec
    raise ValueError("no inner-product counterpart for this pair energy")


# ---------------------------------------------------------------------------
# the energy core
# ---------------------------------------------------------------------------

def _prefix_limits(limit, queries: tuple, n: int) -> np.ndarray | None:
    """``limit`` checked as None (every token) or one integer in [1, N] per
    query, shape ``queries``; query q then sees tokens ``0 .. limit[q] - 1``.
    A zero limit would leave a query with no tokens, whose softmax is NaN.
    """
    if limit is None:
        return None
    limit = np.asarray(limit)
    if limit.shape != queries or not np.issubdtype(limit.dtype, np.integer):
        expected = (f"an integer array of length {queries[0]} (one per query)"
                    if queries else "an integer")
        raise ValueError(f"limit must be None or {expected}, got dtype "
                         f"{limit.dtype} and shape {limit.shape}")
    if limit.size and (limit.min() < 1 or limit.max() > n):
        raise ValueError(f"limits must lie in [1, {n}], got entries from "
                         f"{limit.min()} to {limit.max()}")
    return limit


# query rows per tile of a block evaluation: a tile's temporaries stay small
# enough for the cache, and a causal tile scores only its rows' prefixes
_TILE_ROWS = 64

# key columns per chunk of an exact Newton bracket: no N-wide copy of the keys
# is made, and at H = 4, d_h = 64 a chunk of centred keys is 1 MiB
_BRACKET_CHUNK = 512


class _Core:
    """Energies, Boltzmann weights and query gradients of one spec over the
    projected keys of one token matrix.

    ``z`` is one query (d,) or a d x Q block. Scores are ``z.T @ keys`` and
    reductions run over the last (token) axis, so both shapes take one path:
    energies are (..., N) single-head and (..., H, N) per head, with ...
    empty or (Q,); gradients come back shaped like ``z``. Per-head keys are
    pulled back into query space (``W1_h^T W2_h h``, d x H*N), so all heads
    score in one product and the gradient is one product back. ``evaluate``
    takes a block as row tiles, not as one Q x N matrix: each tile runs
    ``measure`` on a core over the token prefix its rows reach.
    """

    def __init__(self, spec: EnergySpec, tokens: np.ndarray, convention: str = "strict"):
        if convention not in ("strict", "tied"):
            raise ValueError(f"unknown gradient convention {convention!r}")
        pair = spec.pair
        self.t = spec.temperature
        self.heads = spec.heads
        self.n = tokens.shape[1]
        self.per_head = spec.per_head
        self.elastic = isinstance(pair, (Elastic, PerHeadElastic))
        self.inner = isinstance(pair, (InnerProduct, PerHeadInner))
        self.kernel = isinstance(pair, KernelInner)
        self.query_map = None  # W_q (kernel) or the stacked W1_h (H*d_h x d)
        self.gram = None  # sum_h W1_h^T W1_h, per-head elastic only
        if isinstance(pair, (Elastic, InnerProduct)):
            keys = self.keys = pair.weight @ tokens
        elif self.kernel:
            self.feature, self.feature_deriv = FEATURE_MAPS[pair.feature_map]
            self.query_map = pair.w_query
            self.keys = self.feature(pair.w_key @ tokens)
        elif self.per_head:
            w1 = np.stack(pair.w_query)
            keys = np.stack(pair.w_key) @ tokens  # H x d_h x N
            self.query_map = w1.reshape(-1, w1.shape[2])
            self.keys = np.einsum("hkd,hkn->dhn", w1, keys).reshape(w1.shape[2], -1)
        else:
            raise ValueError(f"unknown pair energy {type(pair).__name__}")
        if self.elastic:
            self.half_sq = 0.5 * (keys * keys).sum(axis=-2)
            # the keys W2_h H of each head, (H, d_h, N), for the Newton bracket
            self.head_keys = keys.reshape(self.heads, -1, self.n)
            if self.per_head:
                self.gram = self.query_map.T @ self.query_map
        self.gates = None
        if isinstance(spec.global_energy, WeightedSquareSum):
            if self.per_head:
                raise ValueError("the square-sum energy is single-head only")
            g = spec.global_energy.gates
            self.gates = np.ones(self.n) if g is None else g
            if self.gates.shape[0] != self.n:
                raise ValueError("gates length must match the token count")
        # the tied convention scales the inner-product Helmholtz gradient by T
        self.tied = convention == "tied" and self.inner and self.gates is None

    def energies(self, z: np.ndarray) -> np.ndarray:
        if self.kernel:
            return -(self.feature(self.query_map @ z).T @ self.keys)
        scores = z.T @ self.keys
        if self.per_head:
            scores = scores.reshape(scores.shape[:-1] + (self.heads, self.n))
        # the arithmetic below runs in place, in the fresh scores buffer
        if self.inner:
            return np.negative(scores, out=scores)
        # the query side W1_h z of every head, (..., H, d_h); z itself single-head
        rows = (z.T if self.gram is None
                else (self.query_map @ z).T.reshape(scores.shape[:-1] + (-1,)))
        np.subtract(0.5 * (rows * rows).sum(axis=-1, keepdims=True), scores, out=scores)
        scores += self.half_sq
        return scores

    def boltzmann(self, z: np.ndarray, mask=None) -> tuple[np.ndarray, np.ndarray]:
        """Weights softmax(-E/T) and log-partitions log sum exp(-E/T) per
        query (and head); pairs where ``mask`` (..., k) is True get zero
        weight, the mask covering the last k <= N tokens."""
        scores = self.energies(z)
        np.divide(scores, -self.t, out=scores)  # bitwise -(E / T)
        if mask is not None:
            np.copyto(scores[..., -mask.shape[-1]:], -np.inf,
                      where=mask[..., None, :] if self.per_head else mask)
        return nk.softmax_lse_rows(scores)

    def pair_grad(self, z: np.ndarray, coeff: np.ndarray, total) -> np.ndarray:
        """sum over pairs (and heads) of coeff * dE/dz, laid out like ``z``;
        ``total`` is the sum of ``coeff`` over the pairs of each head."""
        if self.kernel:
            return -self.query_map.T @ (self.feature_deriv(self.query_map @ z)
                                        * (self.keys @ coeff.T))
        if self.per_head:
            coeff = coeff.reshape(coeff.shape[:-2] + (-1,))
        pulled = self.keys @ coeff.T
        if not self.elastic:
            return -pulled
        # dE_n/dz = W1^T W1 z - (pulled key n), with W1 = I single-head
        return total * (z if self.gram is None else self.gram @ z) - pulled

    def value(self, z: np.ndarray, mask=None):
        """The global energy per query, the coefficients (with their
        per-head total) whose ``pair_grad`` is its strict gradient, and the
        Boltzmann weights (None for the square sum)."""
        t = self.t
        if self.gates is not None:
            energies = self.energies(z)
            coeff = self.gates * energies
            if mask is not None:
                coeff[..., -mask.shape[-1]:][mask] = 0.0
            # d/dz of -(T/2) sum g E^2 = -T sum g E dE/dz
            coeff = -t * coeff
            return 0.5 * (coeff * energies).sum(axis=-1), coeff, coeff.sum(axis=-1), None
        weights, lse = self.boltzmann(z, mask)
        if self.per_head:
            h = self.heads
            return (-t * lse).sum(axis=-1) / h, weights / h, 1.0 / h, weights
        return -t * lse, weights, 1.0, weights

    def evaluate(self, z: np.ndarray, limit=None):
        """(energies, gradients) of ``z`` against its prefixes; a block runs
        in tiles of ``_TILE_ROWS`` queries."""
        limit = _prefix_limits(limit, z.shape[1:], self.n)
        if z.ndim == 1:
            return self.measure(z, None if limit is None
                                else np.arange(self.n) >= limit)[:2]
        if z.shape[1] <= _TILE_ROWS:
            return self._tile(z, limit)
        values, grads = np.empty(z.shape[1]), np.empty(z.shape)
        for a in range(0, z.shape[1], _TILE_ROWS):
            rows = slice(a, a + _TILE_ROWS)
            values[rows], grads[:, rows] = self._tile(
                z[:, rows], None if limit is None else limit[rows])
        return values, grads

    def _tile(self, z: np.ndarray, limit):
        """(energies, gradients) of a block of at most ``_TILE_ROWS`` queries,
        scored against the first m tokens only, m the largest limit, and
        masked only in the columns [lo, m) past the smallest limit lo (the
        diagonal corner of a causal tile)."""
        if limit is None:
            return self.measure(z)[:2]
        m = int(limit.max(initial=1))  # an empty block still gets a token
        lo = int(limit.min(initial=m))
        corner = np.arange(lo, m) >= limit[:, None] if lo < m else None
        return self._prefix(m).measure(z, corner)[:2]

    def _prefix(self, m: int) -> _Core:
        """This core over the first ``m`` tokens, sharing its projections."""
        if m == self.n:
            return self
        part = copy.copy(self)
        part.n = m
        if self.per_head:
            d = self.keys.shape[0]
            part.keys = self.keys.reshape(d, self.heads, self.n)[:, :, :m].reshape(d, -1)
        else:
            part.keys = self.keys[:, :m]
        if self.elastic:
            part.half_sq = self.half_sq[..., :m]
            part.head_keys = self.head_keys[..., :m]
        if self.gates is not None:
            part.gates = self.gates[:m]
        return part

    def measure(self, z: np.ndarray, mask=None):
        """``evaluate`` under a token mask, plus the Boltzmann weights behind
        it (None for the square sum)."""
        value, coeff, total, weights = self.value(z, mask)
        grad = self.pair_grad(z, coeff, total)
        return value, (self.t * grad if self.tied else grad), weights


def newton_step(queries: np.ndarray, keys: np.ndarray, weights: np.ndarray,
                temps: np.ndarray, mode: str, eps: float = 0.0) -> np.ndarray:
    """Every head's Newton step on its elastic free energy, shape (H, d_h).

    Takes head-space queries q_h (H, d_h), keys (H, d_h, N), Boltzmann
    weights (H, N) and bracket temperatures T_h (H, 1). With o_h = q_h -
    kbar_h and C_h the weighted key covariance, "exact" solves B_h x = o_h
    for B_h = (1 + eps) I - C_h / T_h, accumulated over key chunks, all heads
    in one call; "taylor1" returns the truncation o_h + C_h o_h / T_h, inner
    products first so its cost is linear in N (``eps`` unused). A singular
    bracket raises ``ValueError("Hessian preconditioner singular")``.
    """
    kbar = np.matmul(keys, weights[:, :, None])[:, :, 0]
    offsets = queries - kbar
    if mode == "taylor1":
        per_key = np.matmul(offsets[:, None, :], keys)[:, 0, :]
        spread = (np.matmul(keys, (weights * per_key)[:, :, None])[:, :, 0]
                  - kbar * np.sum(kbar * offsets, axis=1)[:, None])
        return offsets + spread / temps
    roots = np.sqrt(weights / temps)
    bracket = (1.0 + eps) * np.eye(queries.shape[1])
    for start in range(0, keys.shape[2], _BRACKET_CHUNK):
        part = keys[:, :, start:start + _BRACKET_CHUNK] - kbar[:, :, None]
        part *= roots[:, None, start:start + _BRACKET_CHUNK]
        bracket = bracket - np.matmul(part, part.transpose(0, 2, 1))
    try:
        if not np.isfinite(bracket).all():  # LAPACK gets finite brackets only
            raise ValueError("non-finite bracket")
        # a symmetric matrix's singular values are its |eigenvalues|
        nk.check_nonsingular(np.abs(np.linalg.eigvalsh(bracket)), bracket.shape[-1])
        return np.linalg.solve(bracket, offsets[:, :, None])[:, :, 0]
    except (ValueError, np.linalg.LinAlgError) as err:
        raise ValueError("Hessian preconditioner singular") from err


def _inputs(spec: EnergySpec, z, tokens) -> tuple[np.ndarray, np.ndarray]:
    """An operation's query point and tokens as float arrays, checked
    against the spec's dimensions: a finite length-d vector and a finite
    d_token x N matrix with N >= 1; anything else raises ``ValueError``."""
    dim, token_dim = _pair_dims(spec.pair)
    return nk.as_query(z, dim), nk.as_tokens(tokens, token_dim)


# ---------------------------------------------------------------------------
# pair and global energies
# ---------------------------------------------------------------------------

def pair_energies(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """All pair energies: shape (N,) single-head, (H, N) per-head."""
    z, tokens = _inputs(spec, z, tokens)
    return _Core(spec, tokens).energies(z)


def pair_energy(spec: EnergySpec, z: np.ndarray, token: np.ndarray,
                head: int = 0) -> float:
    """Energy of the interaction between ``z`` and one token, in one head."""
    if not 0 <= head < spec.heads:
        raise ValueError(f"head {head} outside [0, {spec.heads})")
    return float(pair_energies(spec, z, np.reshape(token, (-1, 1))).reshape(-1)[head])


def boltzmann_weights(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Free-energy-minimizing weights softmax(-E/T), per head if applicable."""
    z, tokens = _inputs(spec, z, tokens)
    return _Core(spec, tokens).boltzmann(z)[0]


def free_energy(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray,
                weights: np.ndarray) -> float:
    """Internal energy minus T times entropy for explicit simplex weights.

    Zero weights contribute zero entropy (the 0*log(0) limit), so one-hot
    weightings are valid inputs.
    """
    if not isinstance(spec.global_energy, Helmholtz):
        raise ValueError("explicit-weight free energy requires the Helmholtz form")
    if spec.per_head:
        raise ValueError("explicit-weight free energy is single-head only")
    p = np.asarray(weights, dtype=np.float64)
    energies = pair_energies(spec, z, tokens)
    if p.shape != energies.shape:
        raise ValueError("weight vector length must match the token count")
    # written so that NaN weights fail
    if not ((p >= -1e-10).all() and abs(float(p.sum()) - 1.0) <= 1e-10):
        raise ValueError("weights off the probability simplex")
    p = np.maximum(p, 0.0)
    internal = float(p @ energies)
    positive = p[p > 0.0]
    entropy = -float(positive @ np.log(positive))
    return internal - spec.temperature * entropy


def helmholtz_free_energy(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> float:
    """Minimum free energy -T log Z; per-head mean in the multi-head case."""
    z, tokens = _inputs(spec, z, tokens)
    lse = _Core(spec, tokens).boltzmann(z)[1]
    return float((-spec.temperature * lse).sum() / spec.heads)


def upper_bound_energy(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> float:
    """Inner-product relaxation of the elastic free energy.

    Equals the elastic Helmholtz energy minus radius^2 whenever the query
    and all mapped tokens lie on a common sphere of that radius; with norms
    only bounded by the radius it is a lower bound shifted by radius^2.
    """
    return helmholtz_free_energy(upper_bound_spec(spec), z, tokens)


def square_sum_energy(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> float:
    """Gated square-sum objective -(T/2) sum_i gates_i E_i^2."""
    if not isinstance(spec.global_energy, WeightedSquareSum):
        raise ValueError("square-sum energy requires the WeightedSquareSum form")
    return energy_value(spec, z, tokens)


def energy_value(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> float:
    """The scalar objective the configuration's global energy selects."""
    z, tokens = _inputs(spec, z, tokens)
    return float(_Core(spec, tokens).value(z)[0])


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def grad_z(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray,
           convention: str = "strict") -> np.ndarray:
    """Gradient of the global energy with respect to the query point.

    See the module docstring for the ``strict`` / ``tied`` conventions.
    """
    z, tokens = _inputs(spec, z, tokens)
    return _Core(spec, tokens, convention).evaluate(z)[1]


def grad_weight(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Gradient of the single-head Helmholtz energy in the pair-energy map W."""
    return _map_grad(spec, *_inputs(spec, z, tokens))


def _map_grad(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray,
              mask=None) -> np.ndarray:
    """``grad_weight`` of one query or summed over a d x Q block Z, with
    ``mask`` (Q x N) True at the pairs left out: W H diag(1^T P) H^T - Z P H^T
    elastic, -Z P H^T inner, for tokens H and Boltzmann weights P (Q x N)."""
    pair = spec.pair
    if not (isinstance(spec.global_energy, Helmholtz)
            and isinstance(pair, (Elastic, InnerProduct))):
        raise ValueError("no analytic weight gradient for this energy configuration")
    core = _Core(spec, tokens)
    block = z.reshape(z.shape[0], -1)
    weights = core.boltzmann(block, mask)[0]
    pulled = block @ weights
    if core.elastic:
        return (core.keys * weights.sum(axis=0) - pulled) @ tokens.T
    return -pulled @ tokens.T


def gradient_engine(spec: EnergySpec, tokens: np.ndarray,
                    convention: str = "strict"):
    """Return ``evaluate(z, limit=None) -> (energy, gradient)`` for any spec.

    The token projections are computed once, here, which is what matters
    inside descent and loop iterations. ``z`` is one query (d,), with
    ``limit`` None or an int, or a d x Q block, with ``limit`` None or Q
    ints; query q sees ``tokens[:, :limit[q]]``, and a limit outside [1, N]
    or of the wrong shape raises ``ValueError``. A block runs in tiles of
    query rows, each scored against only the tokens its largest limit
    reaches, so a causal block skips the upper triangle and never holds a
    Q x N matrix; it returns energies (Q,) and gradients d x Q. Results
    agree with ``energy_value``/``grad_z`` on each prefix up to float
    reassociation (~1e-15 relative). Queries are not checked, so
    an iteration sees a non-finite energy when it diverges.
    """
    return _Core(spec, tokens, convention).evaluate


# ---------------------------------------------------------------------------
# Hessians
# ---------------------------------------------------------------------------

def hessian_split(spec: EnergySpec, z: np.ndarray,
                  tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hessian of the Helmholtz energy as (psd part, nsd part).

    The psd part is the head-averaged Gram term of the query-side maps
    (the identity for the full-space elastic form); the nsd part is the
    -1/T-scaled covariance of the per-pair gradient directions (the
    pulled-back keys, up to a shift per head). Their sum is the full
    Hessian; inner-product forms have a zero psd part, which is what makes
    their objective concave.
    """
    if not isinstance(spec.global_energy, Helmholtz):
        raise ValueError("Hessian is defined for the Helmholtz form only")
    if isinstance(spec.pair, KernelInner):
        raise ValueError("Hessian is not available for this pair energy")
    z, tokens = _inputs(spec, z, tokens)
    core = _Core(spec, tokens)
    d, heads = z.shape[0], spec.heads
    weights = core.boltzmann(z)[0].reshape(heads, -1)
    means = np.sum(core.keys.reshape(d, heads, -1) * weights, axis=-1)  # d x H
    second = (core.keys * weights.ravel()) @ core.keys.T
    nsd = (means @ means.T - second) / (spec.temperature * heads)
    if core.inner:
        return np.zeros((d, d)), nsd
    if core.per_head:
        return core.gram / heads, nsd
    return np.eye(d), nsd


def hessian_z(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    psd, nsd = hessian_split(spec, z, tokens)
    return psd + nsd


# ---------------------------------------------------------------------------
# stationary points
# ---------------------------------------------------------------------------

def stationary_point(spec: EnergySpec, z0: np.ndarray,
                     tokens: np.ndarray) -> np.ndarray | None:
    """Interior stationary point of the elastic Helmholtz energy, or None.

    Damped fixed-point iteration on the first-order condition: the
    full-space form iterates z <- z/2 + sum_i p_i(z) W h_i / 2; the
    per-head form solves the head-averaged Gram system for the same map.
    The result is accepted only when the fixed-point residual falls below
    1e-10 within 500 iterations.
    """
    if not isinstance(spec.pair, (Elastic, PerHeadElastic)):
        raise ValueError("stationary points are defined for elastic energies")
    z0, tokens = _inputs(spec, z0, tokens)
    core = _Core(spec, tokens)
    gram_inv = None
    if core.per_head:
        try:
            gram_inv = nk.solve_inverse(core.gram / spec.heads)
        except ValueError:
            return None

    z = z0.copy()
    for _ in range(500):
        pulled = core.keys @ core.boltzmann(z)[0].ravel() / spec.heads
        if gram_inv is not None:
            pulled = gram_inv @ pulled
        if float(np.linalg.norm(z - pulled)) < 1e-10:
            return z
        z = 0.5 * z + 0.5 * pulled
    return None
