"""Self-contained dense numerics: stable reductions, guarded LAPACK
eigen/inverse wrappers, finite-difference oracles and seeded randomness.

Everything operates on float64 numpy arrays. Token matrices follow the
d x N convention (one token per column); ``as_token_matrix`` converts
row-per-token data. All functions are pure; ``Rng`` is the only stateful
object and is meant to be owned by exactly one caller at a time.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# validated constructors
# ---------------------------------------------------------------------------

def as_vector(data, dim: int | None = None) -> np.ndarray:
    """Return a finite float64 1-D array, optionally checking its length."""
    v = np.ascontiguousarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={v.ndim}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dim {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def as_matrix(data) -> np.ndarray:
    """Return a finite float64 2-D row-major array."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def as_query(z, dim: int) -> np.ndarray:
    """Return a query point as a finite float64 vector of length ``dim``."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (dim,):
        raise ValueError(f"query must be a length-{dim} vector, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("query has non-finite entries")
    return z


def as_tokens(tokens, dim: int) -> np.ndarray:
    """Return tokens as a finite float64 ``dim`` x N matrix with N >= 1."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] != dim or tokens.shape[1] < 1:
        raise ValueError(f"tokens must be a {dim} x N matrix with N >= 1, "
                         f"got shape {tokens.shape}")
    if not np.isfinite(tokens).all():
        raise ValueError("tokens have non-finite entries")
    return tokens


def as_token_matrix(data, orientation: str = "columns") -> np.ndarray:
    """Coerce token data to the d x N one-token-per-column layout.

    ``orientation="rows"`` accepts the common N x d layout and transposes.
    """
    m = as_matrix(data)
    if orientation == "columns":
        return m
    if orientation == "rows":
        return np.ascontiguousarray(m.T)
    raise ValueError(f"unknown orientation {orientation!r}")


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------

def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """Deterministic xoshiro256** stream seeded through splitmix64.

    The recurrence is fixed integer arithmetic, so a given seed yields the
    same stream on every platform. Instances are cheap; create one per
    independent task instead of sharing.
    """

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, word = _splitmix64(state)
            s.append(word)
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        out = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return out

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([(self.next_u64() >> 11) for _ in range(n)],
                        dtype=np.float64) * 2.0 ** -53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on the uniform stream."""
        pairs = (n + 1) // 2
        # u1 in (0, 1] so the log is always finite
        u1 = (np.array([(self.next_u64() >> 11) for _ in range(pairs)],
                       dtype=np.float64) + 1.0) * 2.0 ** -53
        u2 = self.uniforms(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * math.pi) * u2
        return np.concatenate([radius * np.cos(angle),
                               radius * np.sin(angle)])[:n]

    def normal_vector(self, dim: int) -> np.ndarray:
        return self.normals(dim)

    def normal_matrix(self, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
        return scale * self.normals(rows * cols).reshape(rows, cols)


def orthonormal_rows(rng: Rng, rows: int, cols: int) -> np.ndarray:
    """Random matrix with orthonormal rows (Gaussian draw, Gram-Schmidt)."""
    if rows > cols:
        raise ValueError("cannot orthonormalize more rows than columns")
    while True:
        m = rng.normal_matrix(rows, cols)
        ok = True
        for i in range(rows):
            for j in range(i):
                m[i] -= (m[i] @ m[j]) * m[j]
            norm = float(np.linalg.norm(m[i]))
            if norm < 1e-8:
                ok = False
                break
            m[i] /= norm
        if ok:
            return m


def sample_hypersphere(rng: Rng, dim: int, radius: float) -> np.ndarray:
    """Uniform point on the radius-``radius`` sphere in R^dim.

    A Gaussian draw is rescaled to the exact target norm; degenerate draws
    (norm below 1e-12) are redrawn.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    while True:
        v = rng.normals(dim)
        norm = float(np.linalg.norm(v))
        if norm >= 1e-12:
            return (radius / norm) * v


# ---------------------------------------------------------------------------
# stable reductions
# ---------------------------------------------------------------------------

def logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) computed with a max shift; exact for one entry."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty reduction")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite entries in reduction")
    top = float(np.max(v))
    if v.size == 1:
        return top
    return top + math.log(float(np.sum(np.exp(v - top))))


def softmax(values: np.ndarray) -> np.ndarray:
    """Probability-simplex image of ``values``; shift-invariant by max shift."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty reduction")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite entries in reduction")
    shifted = np.exp(v - np.max(v))
    return shifted / np.sum(shifted)


def softmax_lse_rows(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (softmax, log-sum-exp) with the same max-shift stabilization."""
    top = scores.max(axis=-1, keepdims=True)
    shifted = scores - top
    np.exp(shifted, out=shifted)
    total = shifted.sum(axis=-1)
    shifted /= total[..., None]
    return shifted, top[..., 0] + np.log(total)


# ---------------------------------------------------------------------------
# symmetric eigensolver and inverse (LAPACK through numpy.linalg)
# ---------------------------------------------------------------------------

def _square(a: np.ndarray, what: str) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} requires a square matrix")
    return m


def sym_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix (``numpy.linalg.eigh``).

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns).
    Input must be square and symmetric to within 1e-10 (it is symmetrized
    before solving).
    """
    m = _square(a, "eigensolver")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    return vals, vecs


def sym_eigvals(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (see ``sym_eig``)."""
    vals, _ = sym_eig(a)
    return vals


def solve_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse (``numpy.linalg.inv``) of an n x n matrix or an (H, n, n)
    stack, behind a singularity guard.

    A matrix whose smallest singular value is below sqrt(n) * 1e-12 (any
    one in a stack) raises ``ValueError("singular matrix")``. Gaussian
    elimination with partial pivoting meets a pivot below 1e-12 only on
    such a matrix, since every pivot is at least sigma_min / sqrt(n).
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 3:
        m = _square(m, "inverse")
    elif m.shape[1] != m.shape[2] or not np.isfinite(m).all():
        raise ValueError("inverse requires a stack of finite square matrices")
    # the smallest singular value of the whole stack is its smallest sigma_min
    if np.linalg.svd(m, compute_uv=False).min() < math.sqrt(m.shape[-1]) * 1e-12:
        raise ValueError("singular matrix")
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError as err:
        raise ValueError("singular matrix") from err


def range_space_pinv(w: np.ndarray) -> np.ndarray:
    """Pseudoinverse W^T (W W^T)^-1 of a wide full-row-rank matrix.

    Coincides with the Moore-Penrose pseudoinverse when the rows are
    independent; requires rows <= cols.
    """
    m = as_matrix(w)
    rows, cols = m.shape
    if rows > cols:
        raise ValueError("range-space pseudoinverse requires rows <= cols")
    gram = m @ m.T
    try:
        gram_inv = solve_inverse(gram)
    except ValueError as err:
        raise ValueError("rank-deficient rows") from err
    return m.T @ gram_inv


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def fd_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar field (one-row ``fd_jacobian``)."""
    return fd_jacobian(lambda point: [float(f(point))], x)[0]


def fd_jacobian(f, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian (step 1e-5) of a vector field f: R^n -> R^m."""
    x = as_vector(x)
    probe = x.copy()
    cols = []
    for j in range(x.shape[0]):
        probe[j] = x[j] + 1e-5
        hi = np.asarray(f(probe), dtype=np.float64)
        probe[j] = x[j] - 1e-5
        lo = np.asarray(f(probe), dtype=np.float64)
        probe[j] = x[j]
        if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
            raise ValueError("non-finite function value in finite difference")
        cols.append((hi - lo) / 2e-5)
    return np.stack(cols, axis=1)
