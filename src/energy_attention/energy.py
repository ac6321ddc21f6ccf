"""Pairwise and global energies over a token set, with analytic derivatives.

A configuration is an ``EnergySpec``: a pairwise interaction (elastic
displacement, inner product, kernelized inner product, or their per-head
subspace versions) combined into a global objective (Helmholtz free energy
or a gated square sum). Every operation takes the query point ``z`` and the
token matrix (d x N, one token per column) explicitly and returns plain
floats/arrays; nothing is cached.

Gradient conventions
--------------------
``grad_z(..., convention="strict")`` is the exact derivative of the scalar
returned by the matching energy operation. ``convention="tied"`` scales the
inner-product Helmholtz gradient by the temperature; that is the scaling
under which one descent step with rate ``eta`` reproduces an attention
forward whose value map is ``eta * T * W`` (see the equivalence module).
The two conventions coincide for elastic and square-sum objectives.
"""

from __future__ import annotations

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
    heads: int = 1

    def __post_init__(self):
        if isinstance(self.pair, (PerHeadElastic, PerHeadInner)):
            n_pairs = len(self.pair.w_query)
            if n_pairs != len(self.pair.w_key):
                raise ValueError("per-head weight lists differ in length")
            if self.heads != n_pairs:
                raise ValueError("heads must equal the number of per-head weight pairs")
        elif self.heads != 1:
            raise ValueError("single-head pair energies require heads=1")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        g = self.global_energy
        if isinstance(g, WeightedSquareSum) and g.gates is not None:
            if np.any(np.asarray(g.gates) < 0.0):
                raise ValueError("gates must be nonnegative")

    @property
    def temperature(self) -> float:
        return float(self.global_energy.temperature)

    @property
    def per_head(self) -> bool:
        return isinstance(self.pair, (PerHeadElastic, PerHeadInner))


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
    return EnergySpec(PerHeadElastic(wq, wk), Helmholtz(temperature), heads=len(wq))


def per_head_inner_spec(w_query, w_key, temperature: float) -> EnergySpec:
    wq = tuple(nk.as_matrix(w) for w in w_query)
    wk = tuple(nk.as_matrix(w) for w in w_key)
    return EnergySpec(PerHeadInner(wq, wk), Helmholtz(temperature), heads=len(wq))


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
                          spec.global_energy, heads=spec.heads)
    if isinstance(spec.pair, (InnerProduct, PerHeadInner)):
        return spec
    raise ValueError("no inner-product counterpart for this pair energy")


# ---------------------------------------------------------------------------
# pair and global energies
# ---------------------------------------------------------------------------

def _feature(spec_pair: KernelInner):
    return FEATURE_MAPS[spec_pair.feature_map]


def pair_energies(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """All pair energies: shape (N,) single-head, (H, N) per-head."""
    pair = spec.pair
    if isinstance(pair, Elastic):
        diff = z[:, None] - pair.weight @ tokens
        return 0.5 * np.sum(diff * diff, axis=0)
    if isinstance(pair, InnerProduct):
        return -(pair.weight @ tokens).T @ z
    if isinstance(pair, KernelInner):
        fmap, _ = _feature(pair)
        return -fmap(pair.w_key @ tokens).T @ fmap(pair.w_query @ z)
    if isinstance(pair, PerHeadElastic):
        rows = []
        for w1, w2 in zip(pair.w_query, pair.w_key):
            diff = (w1 @ z)[:, None] - w2 @ tokens
            rows.append(0.5 * np.sum(diff * diff, axis=0))
        return np.stack(rows)
    if isinstance(pair, PerHeadInner):
        rows = [-(w2 @ tokens).T @ (w1 @ z)
                for w1, w2 in zip(pair.w_query, pair.w_key)]
        return np.stack(rows)
    raise ValueError(f"unknown pair energy {type(pair).__name__}")


def pair_energy(spec: EnergySpec, z: np.ndarray, token: np.ndarray,
                head: int = 0) -> float:
    """Energy of the interaction between ``z`` and one token."""
    energies = pair_energies(spec, z, token.reshape(-1, 1))
    if spec.per_head:
        return float(energies[head, 0])
    if head != 0:
        raise ValueError("single-head energy has no head index")
    return float(energies[0])


def boltzmann_weights(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Free-energy-minimizing weights softmax(-E/T), per head if applicable."""
    energies = pair_energies(spec, z, tokens)
    t = spec.temperature
    if energies.ndim == 1:
        return nk.softmax(-energies / t)
    return np.stack([nk.softmax(-row / t) for row in energies])


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
    if np.any(p < -1e-10) or abs(float(np.sum(p)) - 1.0) > 1e-10:
        raise ValueError("weights off the probability simplex")
    p = np.clip(p, 0.0, None)
    internal = float(p @ energies)
    positive = p[p > 0.0]
    entropy = -float(positive @ np.log(positive))
    return internal - spec.temperature * entropy


def helmholtz_free_energy(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> float:
    """Minimum free energy -T log Z; per-head mean in the multi-head case."""
    energies = pair_energies(spec, z, tokens)
    t = spec.temperature
    if energies.ndim == 1:
        return -t * nk.logsumexp(-energies / t)
    per_head = [-t * nk.logsumexp(-row / t) for row in energies]
    return float(np.mean(per_head))


def upper_bound_energy(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> float:
    """Inner-product relaxation of the elastic free energy.

    Equals the elastic Helmholtz energy minus radius^2 whenever the query
    and all mapped tokens lie on a common sphere of that radius; with norms
    only bounded by the radius it is a lower bound shifted by radius^2.
    """
    return helmholtz_free_energy(upper_bound_spec(spec), z, tokens)


def _gates(spec: EnergySpec, n: int) -> np.ndarray:
    g = spec.global_energy.gates
    if g is None:
        return np.ones(n)
    if g.shape[0] != n:
        raise ValueError("gates length must match the token count")
    return g


def square_sum_energy(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> float:
    """Gated square-sum objective -(T/2) sum_i gates_i E_i^2."""
    if not isinstance(spec.global_energy, WeightedSquareSum):
        raise ValueError("square-sum energy requires the WeightedSquareSum form")
    energies = pair_energies(spec, z, tokens)
    gates = _gates(spec, energies.shape[-1])
    return -0.5 * spec.temperature * float(gates @ (energies * energies))


def energy_value(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> float:
    """The scalar objective the configuration's global energy selects."""
    if isinstance(spec.global_energy, Helmholtz):
        return helmholtz_free_energy(spec, z, tokens)
    return square_sum_energy(spec, z, tokens)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _pair_grad_sum(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray,
                   coeff: np.ndarray) -> np.ndarray:
    """sum_i coeff_i * d(pair energy_i)/dz for single-head pair kinds."""
    pair = spec.pair
    if isinstance(pair, Elastic):
        mapped = pair.weight @ tokens
        return float(np.sum(coeff)) * z - mapped @ coeff
    if isinstance(pair, InnerProduct):
        return -(pair.weight @ tokens) @ coeff
    if isinstance(pair, KernelInner):
        fmap, fderiv = _feature(pair)
        keyed = fmap(pair.w_key @ tokens)
        return -pair.w_query.T @ (fderiv(pair.w_query @ z) * (keyed @ coeff))
    raise ValueError(f"unknown pair energy {type(pair).__name__}")


def grad_z(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray,
           convention: str = "strict") -> np.ndarray:
    """Gradient of the global energy with respect to the query point.

    See the module docstring for the ``strict`` / ``tied`` conventions.
    """
    if convention not in ("strict", "tied"):
        raise ValueError(f"unknown gradient convention {convention!r}")
    t = spec.temperature
    pair = spec.pair
    if isinstance(spec.global_energy, WeightedSquareSum):
        energies = pair_energies(spec, z, tokens)
        gates = _gates(spec, energies.shape[-1])
        # d/dz of -(T/2) sum g E^2 = -T sum g E dE/dz; conventions coincide
        return -t * _pair_grad_sum(spec, z, tokens, gates * energies)

    weights = boltzmann_weights(spec, z, tokens)
    if isinstance(pair, (Elastic, InnerProduct, KernelInner)):
        grad = _pair_grad_sum(spec, z, tokens, weights)
        if convention == "tied" and isinstance(pair, InnerProduct):
            grad = t * grad
        return grad
    if isinstance(pair, PerHeadElastic):
        grad = np.zeros_like(z)
        for w1, w2, p in zip(pair.w_query, pair.w_key, weights):
            grad += w1.T @ ((w1 @ z) - (w2 @ tokens) @ p)
        return grad / spec.heads
    if isinstance(pair, PerHeadInner):
        grad = np.zeros_like(z)
        for w1, w2, p in zip(pair.w_query, pair.w_key, weights):
            grad -= w1.T @ ((w2 @ tokens) @ p)
        grad = grad / spec.heads
        if convention == "tied":
            grad = t * grad
        return grad
    raise ValueError(f"unknown pair energy {type(pair).__name__}")


def grad_weight(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Gradient of the single-head Helmholtz energy in the pair-energy map W."""
    if not isinstance(spec.global_energy, Helmholtz):
        raise ValueError("no analytic weight gradient for this energy configuration")
    pair = spec.pair
    weights = boltzmann_weights(spec, z, tokens)
    if isinstance(pair, InnerProduct):
        return -np.outer(z, tokens @ weights)
    if isinstance(pair, Elastic):
        mapped = pair.weight @ tokens
        return ((mapped - z[:, None]) * weights) @ tokens.T
    raise ValueError("no analytic weight gradient for this energy configuration")


# ---------------------------------------------------------------------------
# precomputed evaluation for iterative callers
# ---------------------------------------------------------------------------

_row_softmax_lse = nk.softmax_lse_rows


def _mask_outside_prefix(values: np.ndarray, limit, fill: float) -> np.ndarray:
    """``values`` (..., Q, N) with entry (q, n) set to ``fill`` for n >= limit[q].

    ``limit=None`` keeps every column. A limit array must hold Q integers
    in [1, N]: a zero limit would leave a query with no tokens, whose
    softmax is NaN.
    """
    if limit is None:
        return values
    queries, tokens = values.shape[-2:]
    limit = np.asarray(limit)
    if limit.shape != (queries,) or not np.issubdtype(limit.dtype, np.integer):
        raise ValueError(f"block limit must be None or an integer array of length "
                         f"{queries} (one per query), got dtype {limit.dtype} "
                         f"and shape {limit.shape}")
    if queries and (limit.min() < 1 or limit.max() > tokens):
        raise ValueError(f"block limits must lie in [1, {tokens}], got entries from "
                         f"{limit.min()} to {limit.max()}")
    return np.where(np.arange(tokens) >= limit[:, None], fill, values)


def gradient_engine(spec: EnergySpec, tokens: np.ndarray,
                    convention: str = "strict"):
    """Return ``evaluate(z, limit=None) -> (energy, gradient)``.

    Token projections are computed once at construction, which is what
    matters inside descent and loop iterations. Two call forms:

    - vector: ``z`` of shape (d,) and ``limit`` None or an int; the query
      sees ``tokens[:, :limit]`` and the call returns a float and a (d,)
      gradient;
    - block: ``z`` of shape d x Q (one query per column) and ``limit``
      None (every query sees all N tokens) or a length-Q integer array
      with entries in [1, N] (query q sees ``tokens[:, :limit[q]]``); the
      call returns energies of shape (Q,) and gradients of shape d x Q from
      one masked Q x N score matrix.

    Results agree with ``energy_value``/``grad_z`` on each query's column
    prefix up to float reassociation (~1e-15 relative). Raises for pair
    energies without a precomputable form (kernelized maps), and for block
    limits of the wrong length or outside [1, N].
    """
    if convention not in ("strict", "tied"):
        raise ValueError(f"unknown gradient convention {convention!r}")
    pair = spec.pair
    t = spec.temperature

    if isinstance(spec.global_energy, WeightedSquareSum):
        if not isinstance(pair, InnerProduct):
            raise ValueError("no precomputable form for this energy")
        mapped = pair.weight @ tokens
        gates_full = _gates(spec, tokens.shape[1])

        def evaluate(z, limit=None):
            if z.ndim == 2:
                energies = -(z.T @ mapped)
                coeff = _mask_outside_prefix(gates_full * energies, limit, 0.0)
                value = -0.5 * t * np.sum(coeff * energies, axis=1)
                return value, t * (mapped @ coeff.T)
            u = mapped[:, :limit]
            gates = gates_full[:limit]
            energies = -(u.T @ z)
            value = -0.5 * t * float(gates @ (energies * energies))
            return value, t * (u @ (gates * energies))

        return evaluate

    if isinstance(pair, Elastic):
        mapped = pair.weight @ tokens
        half_sq = 0.5 * np.sum(mapped * mapped, axis=0)

        def evaluate(z, limit=None):
            if z.ndim == 2:
                energies = 0.5 * np.sum(z * z, axis=0)[:, None] - z.T @ mapped + half_sq
                weights, lse = _row_softmax_lse(
                    _mask_outside_prefix(-energies / t, limit, -np.inf))
                return -t * lse, z - mapped @ weights.T
            keys = mapped[:, :limit]
            energies = 0.5 * float(z @ z) - keys.T @ z + half_sq[:limit]
            weights, lse = _row_softmax_lse(-energies / t)
            return -t * float(lse), z - keys @ weights

        return evaluate

    if isinstance(pair, InnerProduct):
        mapped = pair.weight @ tokens
        scale = -t if convention == "tied" else -1.0

        def evaluate(z, limit=None):
            if z.ndim == 2:
                weights, lse = _row_softmax_lse(
                    _mask_outside_prefix((z.T @ mapped) / t, limit, -np.inf))
                return -t * lse, scale * (mapped @ weights.T)
            u = mapped[:, :limit]
            weights, lse = _row_softmax_lse((u.T @ z) / t)
            return -t * float(lse), scale * (u @ weights)

        return evaluate

    if isinstance(pair, (PerHeadElastic, PerHeadInner)):
        heads = spec.heads
        w1_all = np.vstack(pair.w_query)  # (H*dh, d)
        head_dim = pair.w_query[0].shape[0]
        keys_all = np.stack([w2 @ tokens for w2 in pair.w_key])  # (H, dh, N)
        if isinstance(pair, PerHeadElastic):
            half_sq = 0.5 * np.sum(keys_all * keys_all, axis=1)  # (H, N)

            def evaluate(z, limit=None):
                if z.ndim == 2:
                    queries = (w1_all @ z).reshape(heads, head_dim, -1)  # (H, dh, Q)
                    energies = 0.5 * np.sum(queries * queries, axis=1)[:, :, None] \
                        - queries.transpose(0, 2, 1) @ keys_all + half_sq[:, None, :]
                    weights, lse = _row_softmax_lse(
                        _mask_outside_prefix(-energies / t, limit, -np.inf))
                    kbar = keys_all @ weights.transpose(0, 2, 1)  # (H, dh, Q)
                    grad = w1_all.T @ (queries - kbar).reshape(heads * head_dim, -1)
                    return np.mean(-t * lse, axis=0), grad / heads
                keys = keys_all[:, :, :limit]
                queries = (w1_all @ z).reshape(heads, head_dim)
                cross = np.einsum("hd,hdn->hn", queries, keys)
                energies = 0.5 * np.sum(queries * queries, axis=1)[:, None] \
                    - cross + half_sq[:, :limit]
                weights, lse = _row_softmax_lse(-energies / t)
                kbar = np.einsum("hdn,hn->hd", keys, weights)
                grad = w1_all.T @ (queries - kbar).ravel() / heads
                return float(np.mean(-t * lse)), grad

            return evaluate

        scale = -t / heads if convention == "tied" else -1.0 / heads

        def evaluate(z, limit=None):
            if z.ndim == 2:
                queries = (w1_all @ z).reshape(heads, head_dim, -1)  # (H, dh, Q)
                weights, lse = _row_softmax_lse(_mask_outside_prefix(
                    (queries.transpose(0, 2, 1) @ keys_all) / t, limit, -np.inf))
                kbar = keys_all @ weights.transpose(0, 2, 1)  # (H, dh, Q)
                return np.mean(-t * lse, axis=0), \
                    scale * (w1_all.T @ kbar.reshape(heads * head_dim, -1))
            keys = keys_all[:, :, :limit]
            queries = (w1_all @ z).reshape(heads, head_dim)
            scores = np.einsum("hd,hdn->hn", queries, keys)
            weights, lse = _row_softmax_lse(scores / t)
            kbar = np.einsum("hdn,hn->hd", keys, weights)
            return float(np.mean(-t * lse)), scale * (w1_all.T @ kbar.ravel())

        return evaluate

    raise ValueError("no precomputable form for this energy")


# ---------------------------------------------------------------------------
# Hessians
# ---------------------------------------------------------------------------

def _weighted_covariance(columns: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i w_i c_i c_i^T - (sum w c)(sum w c)^T over the columns."""
    mean = columns @ weights
    return (columns * weights) @ columns.T - np.outer(mean, mean)


def hessian_split(spec: EnergySpec, z: np.ndarray,
                  tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hessian of the Helmholtz energy as (psd part, nsd part).

    The psd part is the head-averaged Gram term of the query-side maps
    (the identity for the full-space elastic form); the nsd part is the
    -1/T-scaled covariance of the per-pair gradient directions. Their sum
    is the full Hessian; inner-product forms have a zero psd part, which
    is what makes their objective concave.
    """
    if not isinstance(spec.global_energy, Helmholtz):
        raise ValueError("Hessian is defined for the Helmholtz form only")
    pair = spec.pair
    t = spec.temperature
    d = z.shape[0]
    weights = boltzmann_weights(spec, z, tokens)
    if isinstance(pair, Elastic):
        residuals = z[:, None] - pair.weight @ tokens
        return np.eye(d), -_weighted_covariance(residuals, weights) / t
    if isinstance(pair, InnerProduct):
        mapped = pair.weight @ tokens
        return np.zeros((d, d)), -_weighted_covariance(mapped, weights) / t
    if isinstance(pair, PerHeadElastic):
        psd = np.zeros((d, d))
        nsd = np.zeros((d, d))
        for w1, w2, p in zip(pair.w_query, pair.w_key, weights):
            residuals = w1.T @ ((w1 @ z)[:, None] - w2 @ tokens)
            psd += w1.T @ w1
            nsd -= _weighted_covariance(residuals, p) / t
        return psd / spec.heads, nsd / spec.heads
    if isinstance(pair, PerHeadInner):
        nsd = np.zeros((d, d))
        for w1, w2, p in zip(pair.w_query, pair.w_key, weights):
            nsd -= _weighted_covariance(w1.T @ (w2 @ tokens), p) / t
        return np.zeros((d, d)), nsd / spec.heads
    raise ValueError("Hessian is not available for this pair energy")


def hessian_z(spec: EnergySpec, z: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    psd, nsd = hessian_split(spec, z, tokens)
    return psd + nsd


# ---------------------------------------------------------------------------
# stationary points
# ---------------------------------------------------------------------------

def stationary_point(spec: EnergySpec, z0: np.ndarray, tokens: np.ndarray,
                     damping: float = 0.5, max_iters: int = 500,
                     tol: float = 1e-10) -> np.ndarray | None:
    """Interior stationary point of the elastic Helmholtz energy, or None.

    Damped fixed-point iteration on the first-order condition: the
    full-space form iterates z <- (1-a) z + a * sum_i p_i(z) W h_i; the
    per-head form solves the head-averaged Gram system for the same map.
    The result is accepted only when the fixed-point residual is below
    ``tol``.
    """
    pair = spec.pair
    if isinstance(pair, Elastic):
        mapped = pair.weight @ tokens

        def target(z):
            return mapped @ boltzmann_weights(spec, z, tokens)
    elif isinstance(pair, PerHeadElastic):
        gram = np.zeros((z0.shape[0],) * 2)
        for w1 in pair.w_query:
            gram += w1.T @ w1
        try:
            gram_inv = nk.solve_inverse(gram / spec.heads)
        except ValueError:
            return None

        def target(z):
            weights = boltzmann_weights(spec, z, tokens)
            pulled = np.zeros_like(z)
            for w1, w2, p in zip(pair.w_query, pair.w_key, weights):
                pulled += w1.T @ ((w2 @ tokens) @ p)
            return gram_inv @ (pulled / spec.heads)
    else:
        raise ValueError("stationary points are defined for elastic energies")

    z = z0.copy()
    for _ in range(max_iters):
        pulled = target(z)
        if float(np.linalg.norm(z - pulled)) < tol:
            return z
        z = (1.0 - damping) * z + damping * pulled
    return None
