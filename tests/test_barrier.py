import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from cbfsim import AdaptiveState, BarrierChain, ErrorBoundModel
from cbfsim.barrier import ConstraintCoeffs, constraint_rdr, epsilon_bound_rdr
from cbfsim.dynamics import EXAMPLE1_A, eval_drift, eval_input_matrix, make_example1_system
from cbfsim.fat import fat_eval
from cbfsim.presets import PRESET_NAMES, make_preset

EXP_BOUND = ErrorBoundModel.exponential(D=2.0, lam=-0.05)
ZERO_BOUND = ErrorBoundModel.constant(0.0)

H_1A = BarrierChain(s=(lambda x: x[1] - 1.0,), grad_s=(lambda x: np.array([0.0, 1.0, 0.0]),), L_k=(1.0,))
H_EX2 = BarrierChain(s=(lambda x: x[1] + 1.0,), grad_s=(lambda x: np.array([0.0, 1.0, 0.0]),), L_k=(1.0,))

CHAIN_1B = BarrierChain(
    s=(lambda x: x[0] - 1.0, lambda x: x[0] + 2.0 * x[1] - 2.0 * x[2] - 2.0),
    grad_s=(lambda x: np.array([1.0, 0.0, 0.0]), lambda x: np.array([1.0, 2.0, -2.0])),
    L_k=(1.0, 3.0),
)

# The top level of example1c's chain, s2 = grad_s1 . A x + 2 s1, typed out:
# the presets derive every level with BarrierChain.affine, and this is the
# one written copy of the formula they must reproduce.
def s2_1c(x):
    return -x[0] + 4.0 * x[1] - 2.0 * x[2] - 4.0


# example1c lifts the same barrier to its relative degree 3; the checks
# below run on the preset's own chain object.
CHAIN_1C = make_preset("example1c").cfg.barrier

XHAT_1A = np.array([3.0, 3.5, 3.0])
XHAT_1B = np.array([3.4, -2.0, -2.0])
XHAT_EX2 = np.array([0.2, 2.0, 3.0])


def _adaptive(n=3, N=3, epsilon=0.1, mu=3.5, theta_hat=None, theta_bar=None, E=0.0):
    if theta_hat is None:
        theta_hat = np.zeros((N, n))
    if theta_bar is None:
        theta_bar = np.full(N, 0.5)
    return AdaptiveState(theta_hat=theta_hat, theta_bar=theta_bar, epsilon=epsilon, mu=mu, E=E)


def _skm(chain, k, xhat, t, bound):
    """Deflated chain level s_k(xhat) - L_k M(t)."""
    return float(chain.s[k](np.asarray(xhat, dtype=float))) - chain.L_k[k] * float(bound.value(t))


def _row(chain, sys_, xhat, st, bound, t):
    """constraint_rdr on the inputs that run_simulation precomputes at time t."""
    top = chain.r - 1
    h_eps = float(chain.s[top](xhat)) - chain.L_k[top] * float(bound.value(t)) - st.epsilon
    return constraint_rdr(chain, sys_, xhat, h_eps, st, st.theta_hat, float(bound.derivative(t)),
                          st.basis_rows([t])[0])


def test_h0_values():
    assert _skm(H_1A, 0, XHAT_1A, 0.0, EXP_BOUND) == pytest.approx(0.5, abs=1e-14)
    ex2_bound = ErrorBoundModel.exponential(D=2.0, lam=-0.15)
    assert _skm(H_EX2, 0, XHAT_EX2, 0.0, ex2_bound) == pytest.approx(1.0, abs=1e-14)
    # perfect observer: deflation vanishes
    assert _skm(H_1A, 0, XHAT_1A, 5.0, ZERO_BOUND) == pytest.approx(2.5, abs=1e-14)


def test_h_eps_values():
    # h_eps = s_0^M - epsilon on the relative-degree-1 chain
    assert _skm(H_1A, 0, XHAT_1A, 0.0, EXP_BOUND) - 0.1 == pytest.approx(0.4, abs=1e-14)
    # h(xhat) = L M + eps exactly -> zero
    xhat = np.array([0.0, 1.0 + 2.0 + 0.1, 0.0])
    assert _skm(H_1A, 0, xhat, 0.0, EXP_BOUND) - 0.1 == pytest.approx(0.0, abs=1e-14)


def test_chain_s_values():
    assert CHAIN_1B.s[0](np.array([2.4, -3.0, -3.0])) == pytest.approx(1.4, abs=1e-14)
    assert CHAIN_1B.s[1](XHAT_1B) == pytest.approx(1.4, abs=1e-14)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=3)
        assert CHAIN_1B.s[0](x) == pytest.approx(x[0] - 1.0, rel=1e-14)


def test_chain_recursion_along_drift():
    # each level s_k must equal grad_s_{k-1} . f + lambda_k s_{k-1}
    # pointwise on the linear plant: on the presets' chains, whose roots are
    # lambda_k = 2, and on chains derived at other roots and coefficients
    sys_ = make_example1_system()
    rng = np.random.default_rng(4)
    cases = [(CHAIN_1B, (2.0,)), (CHAIN_1C, (2.0, 2.0)),
             (BarrierChain.affine((1.0, 0.0, 0.0), -1.0, (2.0, 3.0), EXAMPLE1_A), (2.0, 3.0)),
             (BarrierChain.affine((0.5, -1.0, 2.0), 0.25, (0.5,), EXAMPLE1_A), (0.5,))]
    for chain, lam in cases:
        assert chain.r == len(lam) + 1
        for _ in range(50):
            x = rng.normal(scale=3.0, size=3)
            for k in range(1, chain.r):
                want = (chain.grad_s[k - 1](x) @ eval_drift(sys_, x)
                        + lam[k - 1] * chain.s[k - 1](x))
                assert chain.s[k](x) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_chain_1c_top_level_carries_the_input():
    sys_ = make_example1_system()
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.normal(scale=3.0, size=3)
        a = CHAIN_1C.grad_s[2](x) @ eval_input_matrix(sys_, x)
        np.testing.assert_allclose(a, [2.0], rtol=0, atol=1e-14)
        # the lower levels have no control authority
        for k in (0, 1):
            np.testing.assert_allclose(CHAIN_1C.grad_s[k](x) @ eval_input_matrix(sys_, x),
                                       [0.0], rtol=0, atol=1e-14)


def test_skm_values():
    assert _skm(CHAIN_1B, 0, XHAT_1B, 0.0, EXP_BOUND) == pytest.approx(0.4, abs=1e-14)
    assert _skm(CHAIN_1B, 1, XHAT_1B, 0.0, EXP_BOUND) == pytest.approx(-4.6, abs=1e-14)
    assert _skm(CHAIN_1B, 1, XHAT_1B, 0.0, ZERO_BOUND) == pytest.approx(
        CHAIN_1B.s[1](XHAT_1B), abs=1e-14
    )


def test_epsilon_bound_rd1_values():
    st = _adaptive()
    assert epsilon_bound_rdr(H_1A, XHAT_1A, EXP_BOUND, st) == pytest.approx(0.5 / 3.0, abs=1e-12)
    ex2_bound = ErrorBoundModel.exponential(D=2.0, lam=-0.15)
    assert epsilon_bound_rdr(H_EX2, XHAT_EX2, ex2_bound, st) == pytest.approx(1.0 / 3.0, abs=1e-12)
    # the shipped epsilon passes both
    assert 0.1 <= 0.5 / 3.0 and 0.1 <= 1.0 / 3.0


def test_epsilon_denominator_with_estimates():
    # N=2, theta_bar=[0.5,2], ||theta_1||=0.5: denom = 2 + (2 + 1) = 5
    st = _adaptive(
        n=2, N=2,
        theta_hat=np.array([[0.3, 0.4], [0.0, 0.0]]),
        theta_bar=np.array([0.5, 2.0]),
    )
    bar = BarrierChain(s=(lambda x: x[0],), grad_s=(lambda x: np.array([1.0, 0.0]),), L_k=(1.0,))
    got = epsilon_bound_rdr(bar, np.array([10.0, 0.0]), ZERO_BOUND, st)
    assert got == pytest.approx(10.0 / 5.0, abs=1e-12)


def test_epsilon_bound_soundness_identity():
    st = _adaptive()
    bound = epsilon_bound_rdr(H_1A, XHAT_1A, EXP_BOUND, st)
    h0 = _skm(H_1A, 0, XHAT_1A, 0.0, EXP_BOUND)
    assert abs(h0 - bound * 3.0) <= 1e-12  # denominator is N for zero estimates


def test_epsilon_bound_rdr_values():
    st = _adaptive(mu=10.0)
    got = epsilon_bound_rdr(CHAIN_1B, XHAT_1B, EXP_BOUND, st)
    assert got == pytest.approx(-4.6 / 3.0, abs=1e-12)
    assert got < 0  # infeasible initial data under the gradient-norm convention


def test_epsilon_bound_rdr_degenerate_chain():
    chain = BarrierChain(s=H_1A.s, grad_s=H_1A.grad_s, L_k=(1.0,))
    st = _adaptive()
    a = epsilon_bound_rdr(chain, XHAT_1A, EXP_BOUND, st)
    b = epsilon_bound_rdr(H_1A, XHAT_1A, EXP_BOUND, st)
    assert a == pytest.approx(b, abs=1e-15)
    assert a == pytest.approx(0.5 / 3.0, abs=1e-12)


def test_epsilon_bound_rdr_uniform_levels():
    chain = BarrierChain(
        s=(lambda x: x[0], lambda x: x[0]),
        grad_s=(lambda x: np.array([1.0]), lambda x: np.array([1.0])),
        L_k=(1.0, 1.0),
    )
    st = _adaptive(n=1, N=4, theta_bar=np.full(4, 0.5))
    got = epsilon_bound_rdr(chain, np.array([3.0]), ZERO_BOUND, st)
    assert got == pytest.approx(3.0 / 4.0, abs=1e-14)


def _constant_levels(levels) -> BarrierChain:
    return BarrierChain(s=tuple(lambda x, v=v: v for v in levels),
                        grad_s=(lambda x: np.ones(1),) * len(levels), L_k=(1.0,) * len(levels))


@pytest.mark.parametrize("levels", [(4.0, np.nan, np.nan), (4.0, np.nan), (-1.0, 2.0, np.nan)],
                         ids=["example1c-at-1e308", "second", "third"])
def test_epsilon_bound_rdr_nan_level_is_nan(levels):
    # min() drops a NaN unless it comes first; a level that is not a number
    # must leave no admissible epsilon, wherever it stands in the chain
    st = _adaptive(n=1, N=1)
    assert np.isnan(epsilon_bound_rdr(_constant_levels(levels), np.zeros(1), ZERO_BOUND, st))
    # with numbers in its place the bound is the least level, as before
    numbers = [7.0 if np.isnan(v) else v for v in levels]
    assert epsilon_bound_rdr(_constant_levels(numbers), np.zeros(1), ZERO_BOUND, st) == min(numbers)


def test_constraint_rd1_hand_assembly():
    # all terms at t=0: 0.5 drift slope, 0.1 bound drift, 0.1 tail margin,
    # 1.4 zeroing pull, 1.05 epsilon offset
    sys_ = make_example1_system()
    st = _adaptive(E=0.1)
    c = _row(H_1A, sys_, XHAT_1A, st, EXP_BOUND, 0.0)
    np.testing.assert_allclose(c.a, [1.0], atol=1e-14)
    assert c.b == pytest.approx(-0.35, abs=1e-12)
    # feasible set is u >= 0.35
    assert c.residual(np.array([0.35])) == pytest.approx(0.0, abs=1e-12)


def test_constraint_rd1_reduces_to_nominal_row():
    sys_ = make_example1_system()
    st = _adaptive(epsilon=1e-12, mu=1e-12)
    c = _row(H_1A, sys_, XHAT_1A, st, ZERO_BOUND, 0.0)
    grad = H_1A.grad_s[0](XHAT_1A)
    np.testing.assert_allclose(c.a, grad @ np.array([[0.0], [1.0], [1.0]]), atol=1e-14)
    assert c.b == pytest.approx(grad @ eval_drift(sys_, XHAT_1A), abs=1e-9)


def test_constraint_rd1_uncontrollable_direction():
    from cbfsim import ControlAffineSystem

    sys_ = ControlAffineSystem(
        n=3, m=1, k=1,
        drift=lambda x: np.zeros(3),
        input_map=lambda x: np.zeros((3, 1)),
        output_map=lambda x: x[:1],
    )
    c = _row(H_1A, sys_, XHAT_1A, _adaptive(), ZERO_BOUND, 0.0)
    np.testing.assert_array_equal(c.a, [0.0])


def test_constraint_rdr_matches_rd1_on_degenerate_chain():
    # the r = 1 chain's row is the relative-degree-1 formula a = grad_h . g,
    # b = grad_h . f - L dM/dt - ||grad_h|| E + mu (h - L M - eps) - mu N eps
    # (zero estimates: no series term).
    h, grad_h = H_1A.s[0], H_1A.grad_s[0]
    sys_ = make_example1_system()
    st = _adaptive(E=0.1)
    t = 0.3
    c = _row(H_1A, sys_, XHAT_1A, st, EXP_BOUND, t)
    g = grad_h(XHAT_1A)
    M, dM = EXP_BOUND.value(t), EXP_BOUND.derivative(t)
    want_b = (g @ eval_drift(sys_, XHAT_1A) - dM - 0.1
              + 3.5 * (h(XHAT_1A) - M - 0.1) - 3.5 * 3 * 0.1)
    np.testing.assert_allclose(c.a, g @ eval_input_matrix(sys_, XHAT_1A), atol=1e-15)
    assert c.b == pytest.approx(want_b, abs=1e-12)


def test_constraint_rdr_input_annihilated():
    # grad_s1 . B = [1,2,-2] . [0,1,1] = 0: the row never sees u
    sys_ = make_example1_system()
    st = _adaptive(mu=10.0, E=0.1)
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = _row(CHAIN_1B, sys_, rng.normal(size=3), st, EXP_BOUND, 0.0)
        np.testing.assert_allclose(c.a, [0.0], atol=1e-14)


def test_constraint_rdr_drift_only_reduction():
    sys_ = make_example1_system()
    st = _adaptive(epsilon=1e-12, mu=1e-12)
    c = _row(CHAIN_1B, sys_, XHAT_1B, st, ZERO_BOUND, 0.0)
    want = CHAIN_1B.grad_s[1](XHAT_1B) @ eval_drift(sys_, XHAT_1B)
    assert c.b == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("name", ["example1a", "example1c"])
def test_lean_row_matches_written_out_formula(name):
    # constraint_rdr on precomputed inputs gives, bit for bit, the row
    # written out from fat_eval, bound.value, bound.derivative and
    # np.linalg.norm, on the r = 1 barrier and on the r = 3 chain
    cfg = make_preset(name).cfg
    chain, sys_, bound = cfg.barrier, cfg.system, cfg.observer.bound
    top = chain.r - 1
    L = chain.L_k[top]
    grad_s, s_top = chain.grad_s[top], chain.s[top]
    rng = np.random.default_rng(31)
    for _ in range(300):
        N = int(rng.integers(1, 6))
        xhat = rng.normal(scale=3.0, size=3)
        t = float(rng.uniform(1e-3, 30.0))
        st = AdaptiveState(
            theta_hat=rng.normal(size=(N, 3)),
            theta_bar=rng.uniform(0.1, 2.0, size=N),
            epsilon=float(rng.uniform(1e-3, 1.0)),
            mu=float(rng.uniform(0.1, 10.0)),
            omega=float(rng.uniform(0.2, 3.0)),
            E=float(rng.uniform(1e-3, 2.0)),
        )
        c = _row(chain, sys_, xhat, st, bound, t)

        grad = grad_s(xhat)
        a = grad @ sys_.input_map(xhat)
        deflated = float(s_top(xhat)) - L * float(bound.value(t)) - st.epsilon
        b = float(
            grad @ (sys_.drift(xhat) + fat_eval(st, t))
            - L * float(bound.derivative(t))
            - float(np.linalg.norm(grad)) * st.E
            + st.mu * deflated
            - st.mu * st.N * st.epsilon
        )
        assert c.a.tobytes() == a.tobytes()
        assert c.b.hex() == b.hex()


def test_preset_gradients_are_read_only():
    # constant gradients hand out one shared array; writing into it must fail
    for name in ("example1a", "example1b", "example1c", "example2"):
        cfg = make_preset(name).cfg
        for k in range(cfg.barrier.r):
            grad = cfg.barrier.grad_s[k](cfg.xhat0)
            assert grad is cfg.barrier.grad_s[k](cfg.x0)
            with pytest.raises(ValueError):
                grad[0] = 5.0


def test_monotone_conservatism():
    ts = 0.7
    v1 = _skm(H_1A, 0, XHAT_1A, ts, EXP_BOUND) - 0.1
    v2 = _skm(H_1A, 0, XHAT_1A, ts, EXP_BOUND) - 0.2
    assert v2 < v1
    big = ErrorBoundModel.constant(3.0)
    small = ErrorBoundModel.constant(1.0)
    assert _skm(H_1A, 0, XHAT_1A, ts, big) < _skm(H_1A, 0, XHAT_1A, ts, small)
    sys_ = make_example1_system()
    b_lo = _row(H_1A, sys_, XHAT_1A, _adaptive(E=0.1), EXP_BOUND, 0.0).b
    b_hi = _row(H_1A, sys_, XHAT_1A, _adaptive(E=0.5), EXP_BOUND, 0.0).b
    assert b_hi < b_lo


def test_deflation_implies_true_safety():
    # h0 >= 0 at the estimate plus an in-bound error implies h >= 0 at the
    # true state; sample true states inside the error ball.
    rng = np.random.default_rng(6)
    bound = ErrorBoundModel.constant(0.8)
    for _ in range(200):
        xhat = rng.normal(scale=2.0, size=3)
        if _skm(H_1A, 0, xhat, 0.0, bound) < 0:
            continue
        delta = rng.normal(size=3)
        delta *= rng.uniform(0.0, 1.0) * 0.8 / np.linalg.norm(delta)
        x = xhat - delta
        assert H_1A.s[0](x) >= -1e-12


_PRESET_CHAINS = {name: make_preset(name).cfg.barrier for name in PRESET_NAMES}
_LEVELS = [(name, k) for name, chain in _PRESET_CHAINS.items() for k in range(chain.r)]
_coord = hst.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    level=hst.sampled_from(_LEVELS),
    p=hst.lists(_coord, min_size=3, max_size=3),
    M=hst.floats(0.0, 10.0),
    margin=hst.one_of(hst.just(0.0), hst.floats(0.0, 10.0)),
    kind=hst.sampled_from(["ball", "sphere", "worst"]),
    direction=hst.lists(_coord, min_size=3, max_size=3).filter(lambda d: np.linalg.norm(d) > 1e-3),
    rho=hst.floats(0.0, 1.0),
)
def test_deflation_implies_true_safety_on_every_preset_level(level, p, M, margin, kind, direction, rho):
    # s_k(xhat) - L_k M >= 0 and ||xhat - x|| <= M imply s_k(x) >= 0, for
    # errors inside the ball, on its sphere and along the worst direction
    # M grad_s_k / ||grad_s_k||. The preset levels are affine, so xhat is
    # p moved along grad_s_k onto the level set s_k = L_k M + margin.
    name, k = level
    chain = _PRESET_CHAINS[name]
    s, L = chain.s[k], chain.L_k[k]
    grad = np.asarray(chain.grad_s[k](np.asarray(p)), dtype=float)
    p = np.asarray(p)
    xhat = p + (L * M + margin - s(p)) / (grad @ grad) * grad
    if s(xhat) - L * M < 0:  # rounded just off the deflated safe set
        return
    if kind == "worst":
        e = M * grad / np.linalg.norm(grad)
    else:
        d = np.asarray(direction)
        e = (M if kind == "sphere" else rho * M) * d / np.linalg.norm(d)
    assert s(xhat - e) >= -1e-12


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    fns = [(c.s[k], c.grad_s[k]) for c in (H_1A, H_EX2, CHAIN_1B, CHAIN_1C) for k in range(c.r)]
    for f, g in fns:
        for _ in range(100):
            x = rng.normal(scale=3.0, size=3)
            grad = np.asarray(g(x), dtype=float)
            fd = np.zeros(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = 1e-5
                fd[j] = (f(x + e) - f(x - e)) / 2e-5
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


def test_lipschitz_constant_dominates_gradient():
    rng = np.random.default_rng(12)
    for chain in (H_1A, H_EX2, CHAIN_1B, CHAIN_1C):
        for k in range(chain.r):
            for _ in range(100):
                g = chain.grad_s[k](rng.normal(size=3))
                assert np.linalg.norm(g) <= chain.L_k[k] + 1e-12


def test_preset_barrier_objects_match_module_constants():
    p1 = make_preset("example1a").cfg.barrier
    x = np.array([0.3, 2.7, -1.1])
    assert p1.r == 1 and p1.L_k == (1.0,)
    assert p1.s[0](x) == H_1A.s[0](x)
    pb = make_preset("example1b").cfg.barrier
    assert pb.r == 2
    assert pb.s[1](XHAT_1B) == pytest.approx(1.4, abs=1e-14)


_E1, _E2 = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
# preset -> (its chain typed out, the BarrierChain.affine arguments that derive it)
_AFFINE_REFERENCES = {
    "example1a": (H_1A, (_E2, -1.0)),
    "example2": (H_EX2, (_E2, 1.0)),
    "example1b": (CHAIN_1B, (_E1, -1.0, (2.0,), EXAMPLE1_A)),
    "example1c": (BarrierChain(s=(*CHAIN_1B.s, s2_1c),
                               grad_s=(*CHAIN_1B.grad_s, lambda x: np.array([-1.0, 4.0, -2.0])),
                               L_k=(1.0, 3.0, math.sqrt(21.0))),
                  (_E1, -1.0, (2.0, 2.0), EXAMPLE1_A)),
}


def _bits(level, X) -> bytes:
    return np.array([float(level(x)) for x in X]).tobytes()


@pytest.mark.parametrize("name", list(_AFFINE_REFERENCES))
def test_affine_chain_equals_hand_typed_chain_bit_for_bit(name):
    # same operations in the same order, so the same bits: at every scale,
    # and whatever the coordinates a level's zero coefficients skip hold;
    # the preset is built from the same data
    typed, args = _AFFINE_REFERENCES[name]
    rng = np.random.default_rng(23)
    for chain in (BarrierChain.affine(*args), make_preset(name).cfg.barrier):
        assert chain.L_k == typed.L_k
        for k, level in enumerate(typed.s):
            np.testing.assert_array_equal(chain.grad_s[k](np.zeros(3)), typed.grad_s[k](np.zeros(3)))
            for scale in (1.0, 1e300, 1e-300):
                X = rng.normal(size=(10_000, 3)) * scale
                assert _bits(chain.s[k], X) == _bits(level, X), (scale, k)
            skipped = typed.grad_s[k](np.zeros(3)) == 0.0
            X = rng.normal(size=(1_000, 3))
            X[:, skipped] = rng.choice([math.inf, -math.inf, math.nan], size=(1_000, int(skipped.sum())))
            assert _bits(chain.s[k], X) == _bits(level, X), k
            assert np.isfinite([chain.s[k](x) for x in X]).all()


_BAD_AFFINE = {
    "c0-too-short": (((1.0, 0.0), -1.0, (2.0,), EXAMPLE1_A), "^c0 must have shape"),
    "c0-empty": (((), -1.0), "^c0 must have shape"),
    "c0-matrix": ((np.eye(3), -1.0), "^c0 must have shape"),
    "A-not-square": ((_E1, -1.0, (2.0,), np.ones((3, 2))), "^c0 must have shape"),
    "A-too-small": ((_E1, -1.0, (2.0,), np.eye(2)), "^c0 must have shape"),
    "lambdas-without-A": ((_E1, -1.0, (2.0,)), "^A must be given exactly when"),
    "A-without-lambdas": ((_E1, -1.0, (), EXAMPLE1_A), "^A must be given exactly when"),
    "c0-nan": (((math.nan, 0.0, 0.0), -1.0), "^c0 must be finite$"),
    "c0-inf": (((1.0, math.inf, 0.0), -1.0), "^c0 must be finite$"),
    "d0-nan": ((_E1, math.nan), "^d0 must be finite$"),
    "d0-inf": ((_E1, -math.inf), "^d0 must be finite$"),
    "A-inf": ((_E1, -1.0, (2.0,), np.full((3, 3), math.inf)), "^A must be finite$"),
    "A-nan": ((_E1, -1.0, (2.0,), EXAMPLE1_A * math.nan), "^A must be finite$"),
    "lambda-nan": ((_E1, -1.0, (2.0, math.nan), EXAMPLE1_A), "^lambdas must be finite$"),
    "lambda-inf": ((_E1, -1.0, (math.inf,), EXAMPLE1_A), "^lambdas must be finite$"),
    "lambda-zero": ((_E1, -1.0, (2.0, 0.0), EXAMPLE1_A), "^every lambda must be > 0$"),
    "lambda-negative": ((_E1, -1.0, (-2.0,), EXAMPLE1_A), "^every lambda must be > 0$"),
    "c0-zero": (((0.0, 0.0, 0.0), 1.0), "^all L_k must be > 0$"),
    "d_k-overflow": ((_E1, 1e300, (1e10,), EXAMPLE1_A), "^d_k must be finite$"),
}


@pytest.mark.parametrize("case", list(_BAD_AFFINE))
def test_affine_rejects_bad_data(case):
    args, message = _BAD_AFFINE[case]
    with pytest.raises(ValueError, match=message):
        BarrierChain.affine(*args)


def test_chain_validation():
    with pytest.raises(ValueError):
        BarrierChain(s=(), grad_s=(), L_k=())
    with pytest.raises(ValueError):
        BarrierChain(s=(lambda x: x[0],), grad_s=(lambda x: x,), L_k=(1.0, 1.0))
    with pytest.raises(ValueError):
        BarrierChain(s=(lambda x: x[0],), grad_s=(), L_k=(1.0,))
    with pytest.raises(ValueError):
        BarrierChain(s=(lambda x: x[0],), grad_s=(lambda x: x,), L_k=(0.0,))


def test_constraint_coeffs_residual():
    c = ConstraintCoeffs(a=np.array([2.0, -1.0]), b=0.5)
    assert c.residual(np.array([1.0, 1.0])) == pytest.approx(1.5)
