import math

import numpy as np
import pytest

from energy_attention import numkit as nk


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def test_logsumexp_identical_entries():
    assert nk.logsumexp(np.array([0.0, 0.0])) == pytest.approx(math.log(2), abs=1e-15)


def test_logsumexp_single_entry_exact():
    assert nk.logsumexp(np.array([5.0])) == 5.0


def test_logsumexp_overflow_safe():
    val = nk.logsumexp(np.array([1000.0, 1000.0]))
    assert val == pytest.approx(1000.0 + math.log(2), abs=1e-12)


def test_logsumexp_empty_rejected():
    with pytest.raises(ValueError, match="empty reduction"):
        nk.logsumexp(np.array([]))


def test_logsumexp_shift_invariance():
    rng = nk.Rng(1)
    v = rng.normals(16)
    base = nk.logsumexp(v)
    for c in (1e4, -1e4):
        assert nk.logsumexp(v + c) == pytest.approx(base + c, abs=1e-9)


def test_softmax_uniform_and_singleton():
    np.testing.assert_allclose(nk.softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)
    np.testing.assert_allclose(nk.softmax(np.array([7.3])), [1.0])


def test_softmax_analytic():
    np.testing.assert_allclose(nk.softmax(np.array([math.log(3), 0.0])),
                               [0.75, 0.25], atol=1e-15)


def test_softmax_simplex_and_shift_invariance():
    rng = nk.Rng(2)
    for _ in range(20):
        v = 10.0 * rng.normals(9)
        p = nk.softmax(v)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        np.testing.assert_allclose(p, nk.softmax(v + 1e4), atol=1e-9)


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        nk.softmax(np.array([]))


def test_softmax_lse_rows_matches_vector_ops():
    rng = nk.Rng(3)
    scores = rng.normal_matrix(4, 7, 3.0)
    weights, lse = nk.softmax_lse_rows(scores)
    for i in range(4):
        np.testing.assert_allclose(weights[i], nk.softmax(scores[i]), atol=1e-15)
        assert lse[i] == pytest.approx(nk.logsumexp(scores[i]), abs=1e-13)


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

def _eig2_closed_form(a):
    # symmetric 2x2: mean +- sqrt(((a11-a22)/2)^2 + a12^2)
    mean = 0.5 * (a[0, 0] + a[1, 1])
    spread = math.hypot(0.5 * (a[0, 0] - a[1, 1]), a[0, 1])
    return np.array([mean - spread, mean + spread])


def _eig3_closed_form(a):
    # trigonometric closed form for a symmetric 3x3
    q = np.trace(a) / 3.0
    b = a - q * np.eye(3)
    p = math.sqrt(np.sum(b * b) / 6.0)
    if p < 1e-300:
        return np.full(3, q)
    det = np.linalg.det(b / p)
    phi = math.acos(min(1.0, max(-1.0, det / 2.0))) / 3.0
    eigs = [q + 2.0 * p * math.cos(phi + 2.0 * math.pi * k / 3.0) for k in range(3)]
    return np.sort(eigs)


def test_sym_eigvals_identity_and_diagonal():
    np.testing.assert_allclose(nk.sym_eigvals(np.eye(3)), np.ones(3))
    np.testing.assert_allclose(nk.sym_eigvals(np.diag([-2.0, 0.0, 5.0])),
                               [-2.0, 0.0, 5.0])


def test_sym_eigvals_closed_form_2x2_3x3():
    rng = nk.Rng(4)
    for _ in range(25):
        m = rng.normal_matrix(2, 2, 2.0)
        s = m + m.T
        np.testing.assert_allclose(nk.sym_eigvals(s), _eig2_closed_form(s), atol=1e-10)
        m = rng.normal_matrix(3, 3, 2.0)
        s = m + m.T
        np.testing.assert_allclose(nk.sym_eigvals(s), _eig3_closed_form(s), atol=1e-9)


def test_sym_eigvals_characteristic_polynomial_roots_4x4():
    # independent oracle: characteristic polynomial solved via the
    # companion-matrix root finder
    rng = nk.Rng(5)
    for _ in range(10):
        m = rng.normal_matrix(4, 4)
        s = m + m.T
        roots = np.sort(np.roots(np.poly(s)).real)
        np.testing.assert_allclose(nk.sym_eigvals(s), roots, atol=1e-8)


def test_sym_eig_trace_and_reconstruction():
    rng = nk.Rng(6)
    for _ in range(10):
        m = rng.normal_matrix(6, 6)
        s = m + m.T
        vals, vecs = nk.sym_eig(s)
        assert abs(vals.sum() - np.trace(s)) < 1e-9
        # full rotation product reconstructs the matrix
        assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - s)) < 1e-8
        assert np.max(np.abs(vecs.T @ vecs - np.eye(6))) < 1e-10


def test_sym_eig_orthonormal_vectors_rebuild_repeated_eigenvalue():
    # Q diag(-1, 2, 2, 2, 5) Q^T: a three-fold eigenvalue, so any basis of
    # its eigenspace is valid and only orthonormality and the rebuild pin it
    q = nk.orthonormal_rows(nk.Rng(13), 5, 5)
    s = q.T @ np.diag([-1.0, 2.0, 2.0, 2.0, 5.0]) @ q
    s = 0.5 * (s + s.T)
    vals, vecs = nk.sym_eig(s)
    np.testing.assert_allclose(vals, [-1.0, 2.0, 2.0, 2.0, 5.0], atol=1e-12)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(5), atol=1e-12)
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, s, atol=1e-12)
    np.testing.assert_allclose(s @ vecs, vecs * vals, atol=1e-12)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        nk.sym_eigvals(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        nk.sym_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# inverses
# ---------------------------------------------------------------------------

def test_solve_inverse_identity_and_diagonal():
    np.testing.assert_allclose(nk.solve_inverse(np.eye(4)), np.eye(4))
    np.testing.assert_allclose(nk.solve_inverse(np.diag([2.0, 4.0])),
                               np.diag([0.5, 0.25]))


def test_solve_inverse_residual():
    rng = nk.Rng(7)
    for _ in range(10):
        a = rng.normal_matrix(5, 5) + 3.0 * np.eye(5)
        inv = nk.solve_inverse(a)
        assert np.max(np.abs(a @ inv - np.eye(5))) < 1e-8


def test_solve_inverse_singular():
    with pytest.raises(ValueError, match="singular matrix"):
        nk.solve_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_solve_inverse_near_singular():
    # partial pivoting meets the pivot 1e-13 < 1e-12; LAPACK alone would
    # return diag(1, 1e13)
    with pytest.raises(ValueError, match="singular matrix"):
        nk.solve_inverse(np.diag([1.0, 1e-13]))
    with pytest.raises(ValueError, match="singular matrix"):
        nk.solve_inverse(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))
    np.testing.assert_allclose(nk.solve_inverse(np.diag([1.0, 1e-10])),
                               np.diag([1.0, 1e10]))
    # exactly singular, but rounding puts the computed sigma_min near 1e4:
    # the elimination itself meets the zero pivot
    with pytest.raises(ValueError, match="singular matrix"):
        nk.solve_inverse(np.full((2, 2), 1e20))


def test_solve_inverse_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        nk.solve_inverse(np.ones((2, 3)))


def test_check_nonsingular_stack_matches_each_matrix():
    # the guard on a stack's singular values raises exactly when one member's
    # solve_inverse does
    rng = nk.Rng(9)
    for smallest in (1e-13, 1e-10, 0.5):
        stack = np.stack([rng.normal_matrix(4, 4) + 3.0 * np.eye(4) for _ in range(3)]
                         + [np.diag([1.0, 2.0, 3.0, smallest])])
        singular = []
        for a in stack:
            try:
                nk.solve_inverse(a)
                singular.append(False)
            except ValueError:
                singular.append(True)
        assert singular == [False, False, False, smallest < 2e-12]
        values = np.linalg.svd(stack, compute_uv=False)
        if any(singular):
            with pytest.raises(ValueError, match="singular matrix"):
                nk.check_nonsingular(values, 4)
        else:
            nk.check_nonsingular(values, 4)


def test_check_nonsingular_stack_guard():
    # one near-singular member (the same rule as for one matrix) fails the stack
    svd = lambda stack: np.linalg.svd(stack, compute_uv=False)
    with pytest.raises(ValueError, match="singular matrix"):
        nk.check_nonsingular(svd(np.stack([np.eye(2), np.diag([1.0, 1e-13])])), 2)
    nk.check_nonsingular(svd(np.stack([np.eye(2), np.diag([1.0, 1e-10])])), 2)
    # a NaN singular value (a non-finite matrix) is never taken as nonsingular
    for bad in (np.array([[1.0, np.nan]]), np.array([np.nan, np.nan])):
        with pytest.raises(ValueError, match="singular matrix"):
            nk.check_nonsingular(bad, 2)


def test_range_space_pinv_orthonormal_rows_is_transpose():
    w = nk.orthonormal_rows(nk.Rng(8), 3, 7)
    np.testing.assert_allclose(nk.range_space_pinv(w), w.T, atol=1e-12)


def test_range_space_pinv_analytic_1x2():
    np.testing.assert_allclose(nk.range_space_pinv(np.array([[2.0, 0.0]])),
                               [[0.5], [0.0]])


def test_range_space_pinv_residual_and_penrose():
    rng = nk.Rng(9)
    w = rng.normal_matrix(4, 16)
    pinv = nk.range_space_pinv(w)
    assert np.max(np.abs(w @ pinv - np.eye(4))) < 1e-10
    # four Penrose conditions
    assert np.max(np.abs(w @ pinv @ w - w)) < 1e-9
    assert np.max(np.abs(pinv @ w @ pinv - pinv)) < 1e-9
    assert np.max(np.abs((w @ pinv).T - w @ pinv)) < 1e-9
    assert np.max(np.abs((pinv @ w).T - pinv @ w)) < 1e-9


def test_range_space_pinv_rank_deficient():
    w = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="rank-deficient rows"):
        nk.range_space_pinv(w)
    with pytest.raises(ValueError):
        nk.range_space_pinv(np.ones((3, 2)))


def test_range_space_pinv_near_rank_deficient():
    # Gram matrix [[1, 1], [1, 1 + 1e-14]]: second pivot 1e-14
    w = np.array([[1.0, 0.0, 0.0], [1.0, 1e-7, 0.0]])
    with pytest.raises(ValueError, match="rank-deficient rows"):
        nk.range_space_pinv(w)


# (sym_eig calls, z . (1, ..., 8)) of make_tied_instance(Rng(seed), tying,
# 8, 16, heads) as computed by the cyclic Jacobi / Gauss-Jordan solvers the
# LAPACK wrappers replaced; seed 96 (both tyings) and seed 100 (multihead)
# redraw an ill-conditioned map once
_TIED_PINS = {
    "softmax": {
        92: (1, 5.99301008167158), 93: (1, 0.09506082221512357),
        94: (1, -1.3449445596322598), 95: (1, 4.760280202631153),
        96: (2, -8.72191329691971), 97: (1, 4.015381281242399),
        98: (1, 3.3211432660739817), 99: (1, -3.5754216351751946),
        100: (1, -5.527382053086984), 101: (1, -3.9981772462806573),
    },
    "multihead": {
        92: (4, 2.955548105557712), 93: (4, -49.35242764267128),
        94: (4, -217.7092461735348), 95: (4, 13.95661806188918),
        96: (5, 20.602406627743004), 97: (4, 87.8165714101471),
        98: (4, 72.4810687163762), 99: (4, -8.54946441004831),
        100: (5, 14.814623426341193), 101: (4, 6.070854048507897),
    },
}


@pytest.mark.parametrize("tying", sorted(_TIED_PINS))
def test_tied_instance_rejection_draws_pinned(tying, monkeypatch):
    from energy_attention import equivalence as eq

    calls = []
    original = nk.sym_eig
    monkeypatch.setattr(nk, "sym_eig",
                        lambda a: calls.append(1) or original(a))
    heads = 1 if tying == "softmax" else 2
    for seed, (draws, fingerprint) in _TIED_PINS[tying].items():
        calls.clear()
        inst = eq.make_tied_instance(nk.Rng(seed), tying, 8, 16, heads)
        assert len(calls) == draws, seed
        assert float(inst.z @ np.arange(1, 9)) == pytest.approx(
            fingerprint, rel=1e-9, abs=1e-9), seed


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_fd_gradient_quadratic_exact():
    x = np.array([1.0, 2.0, 3.0])
    grad = nk.fd_gradient(lambda v: 0.5 * float(v @ v), x)
    np.testing.assert_allclose(grad, x, atol=1e-8)


def test_fd_gradient_quadratic_form_symmetrized():
    rng = nk.Rng(10)
    a = rng.normal_matrix(5, 5)
    x = rng.normals(5)
    grad = nk.fd_gradient(lambda v: 0.5 * float(v @ a @ v), x)
    np.testing.assert_allclose(grad, 0.5 * (a + a.T) @ x, atol=1e-8)


def test_fd_gradient_constant_is_zero():
    np.testing.assert_allclose(nk.fd_gradient(lambda v: 4.2, np.ones(3)), 0.0)


def test_fd_gradient_nonfinite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        nk.fd_gradient(lambda v: float("nan"), np.ones(2))


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------

def test_rng_deterministic_stream():
    a = [nk.Rng(123).next_u64() for _ in range(1)]
    b = [nk.Rng(123).next_u64() for _ in range(1)]
    assert a == b
    np.testing.assert_array_equal(nk.Rng(9).normals(32), nk.Rng(9).normals(32))


def test_rng_uniform_range_and_rough_moments():
    rng = nk.Rng(11)
    u = rng.uniforms(4000)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.03
    z = rng.normals(4000)
    assert abs(z.mean()) < 0.06
    assert abs(z.std() - 1.0) < 0.05


def test_sample_hypersphere_norm_and_determinism():
    rng = nk.Rng(42)
    v = nk.sample_hypersphere(rng, 8, 1.0)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    np.testing.assert_array_equal(v, nk.sample_hypersphere(nk.Rng(42), 8, 1.0))
    one = nk.sample_hypersphere(nk.Rng(0), 1, 2.0)
    assert abs(abs(one[0]) - 2.0) < 1e-12


def test_orthonormal_rows():
    w = nk.orthonormal_rows(nk.Rng(12), 4, 9)
    np.testing.assert_allclose(w @ w.T, np.eye(4), atol=1e-12)


def test_validators():
    with pytest.raises(ValueError):
        nk.as_vector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        nk.as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        nk.as_vector(np.ones(3), dim=4)
    rows = nk.as_token_matrix(np.arange(6.0).reshape(3, 2), orientation="rows")
    assert rows.shape == (2, 3)


FINITE_CHECKS = (
    ("vector", lambda a: nk.as_vector(a), (6,), "vector has non-finite"),
    ("matrix", lambda a: nk.as_matrix(a), (3, 5), "matrix has non-finite"),
    ("query", lambda a: nk.as_query(a, 6), (6,), "query has non-finite"),
    ("tokens", lambda a: nk.as_tokens(a, 3), (3, 5), "tokens have non-finite"),
)


@pytest.mark.parametrize("name, check, shape, message", FINITE_CHECKS)
def test_validators_reject_every_non_finite_entry(name, check, shape, message):
    base = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)
    for bad in (np.inf, -np.inf, np.nan):
        for at in (0, base.size // 2, base.size - 1):
            data = base.copy()
            data.flat[at] = bad
            for layout in (data, np.asfortranarray(data)):
                with pytest.raises(ValueError, match=message):
                    check(layout)


@pytest.mark.parametrize("name, check, shape, message", FINITE_CHECKS)
def test_validators_accept_finite_overflowing_and_strided_input(name, check, shape,
                                                                 message):
    base = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)
    # finite entries whose squares overflow: the sum of squares is inf
    huge = np.full(shape, 1e200)
    huge.flat[0] = -1e200
    np.testing.assert_array_equal(check(huge), huge)
    wide = np.zeros((shape[0], 2 * shape[-1])) if len(shape) == 2 else np.zeros(2 * shape[0])
    wide[..., ::2] = base
    strided = wide[..., ::2]
    assert not strided.flags.c_contiguous
    for data in (np.asfortranarray(base), strided, base.astype(np.int64)):
        out = check(data)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, base)
    wide[..., -2] = np.nan
    with pytest.raises(ValueError, match=message):
        check(strided)
