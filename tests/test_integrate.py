"""The Dormand-Prince 8(5,3) tableau, checked by its order conditions and
by its observed order on y' = λy, so that a mistyped digit shows; its
continuous extension, computed on first read, against the eager
reference, and its right-hand side counts; the Dormand-Prince 5(4) step
against its unsliced reference; and the speed bound of the cubic
Hermite output, on which the return scan relies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import killing_geodesics as kg
from killing_geodesics import integrate
from killing_geodesics.integrate import A8, B8, C8, D8, E3, E5


def test_row_sums_are_the_nodes():
    assert np.max(np.abs(A8.sum(axis=1) - C8)) <= 2e-15


@pytest.mark.parametrize("k", range(1, 9))
def test_weights_integrate_polynomials(k):
    # the 8th-order solution integrates t^(k-1) exactly on [0, 1]
    assert abs(B8 @ C8[:12] ** (k - 1) - 1.0 / k) <= 2e-15


def _extension_weights(theta: float):
    """b(θ) with y(θh) = y0 + h Σ_i b_i(θ) k_i: the coefficients F0..F6 of a
    step as weights on its 16 stages (stage 12 is the derivative at the
    new state), summed as in ``contd8``."""
    W = np.zeros((7, 16))
    W[0, :12] = B8  # F0 = y1 - y0
    W[1] = -W[0]
    W[1, 0] += 1.0  # F1 = h k0 - F0
    W[2] = 2.0 * W[0]
    W[2, [0, 12]] -= 1.0  # F2 = 2 F0 - h (k0 + k12)
    W[3:] = D8
    acc = W[6]
    for j in range(5, -1, -1):
        acc = W[j] + (theta if j % 2 else 1.0 - theta) * acc
    return theta * acc


@pytest.mark.parametrize("theta", [0.1, 0.3, 0.5, 0.77, 1.0])
def test_extension_weights_integrate_polynomials(theta):
    # the 7th-order extension integrates t^(k-1) exactly on [0, θ]
    b = _extension_weights(theta)
    for k in range(1, 8):
        assert abs(b @ C8 ** (k - 1) - theta ** k / k) <= 5e-15


def test_error_weights_sum_to_zero():
    # each embedded solution is consistent, so the differences of their
    # weights from the 8th-order ones sum to zero
    assert abs(E5.sum()) <= 1e-15
    assert abs(E3.sum()) <= 1e-15


def _one_step(lam: float, h: float):
    """One DOP853 step of y' = λy from y(0) = 1, with its continuous extension."""
    rhs = lambda _t, y: lam * y
    steps = integrate._DOP853(1)
    y0 = np.array([1.0])
    f0 = rhs(0.0, y0)
    y1, _ = steps.step(rhs, 0.0, y0, f0, h, 1.0)
    f1 = rhs(h, y1)
    steps.accept(rhs, 0.0, h, y0, y1, f1)
    return steps.curve(rhs, [0.0, h], [y0, y1], [f0, f1])


@pytest.mark.parametrize("lam", [-1.0, 1.0])
def test_local_order_nine(lam):
    # the one-step error of an 8th-order method is O(h^9): halving h
    # divides it by about 2^9
    h = 0.4
    errors = [abs(_one_step(lam, s).ys[1, 0] - np.exp(lam * s)) for s in (h, h / 2)]
    assert 2 ** 8.5 <= errors[0] / errors[1] <= 2 ** 9.5


@pytest.mark.parametrize("lam", [-1.0, 1.0])
def test_continuous_extension_order_eight(lam):
    # the 7th-order extension is within O(h^8) of the solution inside the step
    def error(h):
        curve = _one_step(lam, h)
        s = np.linspace(0.0, h, 41)
        return float(np.max(np.abs(curve(s)[:, 0] - np.exp(lam * s))))

    for h in (0.5, 0.25):
        assert error(h) <= 1e-5 * h ** 8
    assert 2 ** 7.5 <= error(0.5) / error(0.25) <= 2 ** 8.5


class _EagerDOP853(integrate._DOP853):
    """The DOP853 stepper as it was before its continuous extension was
    left to the first read: three more stages and the coefficients F of
    every accepted step, made when it is accepted.  The reference the
    lazy ``coeffs`` equal bit for bit."""

    def __init__(self, size):
        super().__init__(size)
        self.eager = []

    def accept(self, rhs, t, h, y_old, y, f):
        super().accept(rhs, t, h, y_old, y, f)
        k = self.k
        k[12] = f
        for i in range(13, 16):
            k[i] = rhs(t + C8[i] * h, y_old + h * (k[:i].T @ A8[i, :i]))
        dy = y - y_old
        F = np.empty((7, y.size))
        F[0] = dy
        F[1] = h * k[0] - dy
        F[2] = 2.0 * dy - h * (f + k[0])
        F[3:] = h * (D8 @ k)
        self.eager.append(F)

    def curve(self, rhs, ts, ys, fs):
        run = super().curve(rhs, ts, ys, fs)
        vars(run)["coeffs"] = np.reshape(self.eager, (len(ts) - 1, 7, len(ys[0])))
        return run


def test_lazy_extension_matches_the_eager_one(s3, mapping_torus, monkeypatch):
    # geodesic shots on the reflected metric and on S² x R, both on level
    # sets (projected knots), off the field's direction: knots,
    # coefficients and values inside the steps, bit for bit
    rng = np.random.default_rng(7)
    shots = []
    for entry, T in ((s3, 7.0), (mapping_torus, 6.0)):
        p0 = entry.manifold.sample_point(rng)
        shots.append((entry.metric, p0, entry.killing(p0) + rng.normal(size=4), T))
    lazy = [kg.shoot_geodesic(*shot).dense for shot in shots]
    monkeypatch.setattr(integrate, "_DOP853", _EagerDOP853)
    eager = [kg.shoot_geodesic(*shot).dense for shot in shots]
    for run, ref in zip(lazy, eager):
        assert len(run.ts) > 10
        for a, b in [(run.ts, ref.ts), (run.ys, ref.ys), (run.fs, ref.fs)]:
            assert np.array_equal(a, b)
        assert "coeffs" not in vars(run)  # not read yet
        s = run.ts[:-1] + rng.uniform(0.0, 1.0, (7, 1)) * np.diff(run.ts)
        assert np.array_equal(run(s.ravel()), ref(s.ravel()))
        assert np.array_equal(run.coeffs, ref.coeffs)


def test_dop853_rhs_counts(monkeypatch):
    # a step costs 12 right-hand sides when accepted and 11 when rejected;
    # the first read inside the steps adds the extension's 3 per accepted
    # step, and a later read none
    calls = []
    trials = []

    def rhs(t, y):
        calls.append(t)
        return np.array([y[1], -np.sin(y[0]) * (1.0 + 10.0 * np.cos(t) ** 2)])

    class Counted(integrate._DOP853):
        def step(self, *args):
            trials.append(args[1])
            return super().step(*args)

    monkeypatch.setattr(integrate, "_DOP853", Counted)
    run = integrate.solve_dop853(rhs, np.array([1.0, 0.0]), 10.0, tol=1e-10)
    accepted = len(run.ts) - 1
    rejected = len(trials) - accepted
    assert accepted > 50 and rejected > 5
    assert len(calls) == 1 + 12 * accepted + 11 * rejected
    mid = 0.5 * (run.ts[:-1] + run.ts[1:])
    for added in (3 * accepted, 0):
        before = len(calls)
        run(mid)
        assert len(calls) - before == added


@pytest.mark.parametrize("solve, exponent", [(integrate.solve_rk45, 0.2), (integrate.solve_dop853, 1 / 8)])
def test_first_step_takes_the_stepper_exponent(solve, exponent):
    # from y = 0, on a slope small enough that the cap 0.01 / (1 + |f|)
    # does not bind, the first step is 0.1·tol^exponent, with the
    # exponent of the stepper's own step rule; a constant slope accepts it
    tol = 1e-11
    run = solve(lambda _t, y: np.full(2, 1e-3), np.zeros(2), 1.0, tol=tol)
    assert run.ts[1] == 0.1 * tol ** exponent


class _UnslicedRK45(integrate._RK45):
    """The Dormand-Prince 5(4) step as it was before its per-stage numpy
    work was trimmed: the reference the library step equals bit for bit."""

    NODES = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])

    def step(self, rhs, t, y, f, h, tol):
        k = self.k
        k[0] = f
        for i in range(5):
            yi = y + h * (k[: i + 1].T @ integrate._A[i])
            k[i + 1] = rhs(t + self.NODES[i + 1] * h, yi)
        y5 = y + h * (k[:6].T @ integrate._B5)
        k[6] = rhs(t + h, y5)
        y4 = y + h * (k[:7].T @ integrate._B4)
        err = y5 - y4
        sc = tol + tol * np.maximum(np.abs(y), np.abs(y5))
        return y5, float(np.sqrt(np.mean((err / sc) ** 2)))


def test_rk45_step_matches_the_unsliced_step(s3):
    # the S³ field as a bare callable, projected onto the sphere, and a
    # constant field: every knot, state and derivative bit for bit
    M = s3.manifold
    cases = [
        (lambda _t, y: s3.killing(y), s3.probe_point, 20.0, M.project_point),
        (lambda _t, y: np.array([1.0, 0.3]), np.array([0.2, 0.35]), 50.0, None),
    ]
    for rhs, y0, T, project in cases:
        ref = integrate._drive(_UnslicedRK45, rhs, y0, T, 1e-10, project, None)
        run = integrate.solve_rk45(rhs, y0, T, tol=1e-10, project=project)
        assert len(run.ts) > 5
        for a, b in [(run.ts, ref.ts), (run.ys, ref.ys), (run.fs, ref.fs)]:
            assert np.array_equal(a, b)


def _hermite_velocity(curve, i, theta):
    """The derivative of the cubic Hermite piece on step i at the fractions theta."""
    h = curve.ts[i + 1] - curve.ts[i]
    th = theta[:, None]
    return (
        6.0 * th * (1.0 - th) * (curve.ys[i + 1] - curve.ys[i]) / h
        + (3.0 * th * th - 4.0 * th + 1.0) * curve.fs[i]
        + (3.0 * th * th - 2.0 * th) * curve.fs[i + 1]
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hermite_speed_bound_holds(data):
    # the return scan skips grid times by these bounds: each step's must
    # hold at every point of that step, for any knots, values and derivatives
    m = data.draw(st.integers(2, 6), label="knots")
    d = data.draw(st.integers(1, 4), label="width")
    steps = data.draw(st.lists(st.floats(1e-4, 5.0), min_size=m - 1, max_size=m - 1), label="steps")
    values = st.lists(st.floats(-10.0, 10.0), min_size=m * d, max_size=m * d)
    ts = data.draw(st.floats(-10.0, 10.0), label="t0") + np.concatenate([[0.0], np.cumsum(steps)])
    ys = np.reshape(data.draw(values, label="ys"), (m, d))
    fs = np.reshape(data.draw(values, label="fs"), (m, d))
    curve = integrate.DenseCurve(ts, ys, fs)
    bounds = curve.step_speed_bounds()
    assert curve.speed_bound() == np.max(bounds)
    theta = np.linspace(0.0, 1.0, 401)
    for i in range(m - 1):
        assert np.max(np.linalg.norm(_hermite_velocity(curve, i, theta), axis=1)) <= bounds[i]


def test_speed_bound_is_exact_on_a_straight_line():
    # a constant field's knots lie on a line with f_i = Δy/h = v: the chord
    # bound is |v| up to the margin, where 1.5·|Δy|/h + |f_i| + |f_{i+1}| is 3.5·|v|
    v = np.array([3.0, -4.0, 12.0])
    run = integrate.solve_rk45(lambda _t, y: v, np.array([0.5, 0.0, -1.0]), 10.0, tol=1e-10)
    assert len(run.ts) > 3
    bounds = run.step_speed_bounds()
    assert np.all(bounds >= 13.0) and np.all(bounds <= 13.0 * (1.0 + 2.0 * integrate.SPEED_BOUND_MARGIN))


def test_hermite_velocity_is_the_curve_derivative(s3):
    # the oracle above is the derivative of the interpolant the library evaluates
    curve = integrate.solve_rk45(lambda _t, y: s3.killing(y), s3.probe_point, 3.0, tol=1e-10)
    i, theta, eps = len(curve.ts) // 2, np.linspace(0.1, 0.9, 9), 1e-6
    h = curve.ts[i + 1] - curve.ts[i]
    s = curve.ts[i] + theta * h
    central = (curve(s + eps * h) - curve(s - eps * h)) / (2.0 * eps * h)
    assert np.max(np.abs(central - _hermite_velocity(curve, i, theta))) <= 1e-7


def test_continuous_extension_has_no_speed_bound():
    # the Hermite bound does not hold for the 7th-order extension
    run = integrate.solve_dop853(lambda _t, y: -y, np.ones(2), 1.0, tol=1e-10)
    with pytest.raises(NotImplementedError):
        run.speed_bound()
