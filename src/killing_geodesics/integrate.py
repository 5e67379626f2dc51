"""Adaptive Dormand-Prince 5(4) integration with Hermite dense output.

The stepper propagates the 5th-order solution, controls the embedded
4th-order error estimate against a mixed absolute/relative tolerance, and
optionally re-projects the state after every accepted step (used to pin
long flows onto an embedded constraint set).  Dense output is cubic
Hermite interpolation between accepted steps, which is what the period
detector bisects on; a stop callback lets it end the run at the first
certified return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import StiffnessError

Array = np.ndarray

# Dormand-Prince coefficients.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = [
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])

MIN_STEP = 1e-12
MAX_STEPS = 2_000_000


@dataclass(frozen=True, eq=False)
class DenseCurve:
    """Piecewise cubic Hermite interpolant of an integration run."""

    ts: Array          # knots, shape (m,)
    ys: Array          # states at knots, shape (m, d)
    fs: Array          # state derivatives at knots, shape (m, d)

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def _locate(self, s: Array) -> Array:
        idx = np.searchsorted(self.ts, s, side="right") - 1
        return np.clip(idx, 0, len(self.ts) - 2)

    def __call__(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if len(self.ts) == 1:
            y = np.broadcast_to(self.ys[0], (len(s_arr), self.ys.shape[1])).copy()
            return y[0] if np.isscalar(s) or np.ndim(s) == 0 else y
        i = self._locate(s_arr)
        t0, t1 = self.ts[i], self.ts[i + 1]
        h = (t1 - t0)[:, None]
        th = ((s_arr - t0) / (t1 - t0))[:, None]
        th2 = th * th
        th3 = th2 * th
        y = (
            (2 * th3 - 3 * th2 + 1) * self.ys[i]
            + (th3 - 2 * th2 + th) * h * self.fs[i]
            + (-2 * th3 + 3 * th2) * self.ys[i + 1]
            + (th3 - th2) * h * self.fs[i + 1]
        )
        return y[0] if np.isscalar(s) or np.ndim(s) == 0 else y

    def derivative(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if len(self.ts) == 1:
            d = np.broadcast_to(self.fs[0], (len(s_arr), self.fs.shape[1])).copy()
            return d[0] if np.isscalar(s) or np.ndim(s) == 0 else d
        i = self._locate(s_arr)
        t0, t1 = self.ts[i], self.ts[i + 1]
        h = (t1 - t0)[:, None]
        th = ((s_arr - t0) / (t1 - t0))[:, None]
        th2 = th * th
        dy = (
            (6 * th2 - 6 * th) * self.ys[i]
            + (3 * th2 - 4 * th + 1) * h * self.fs[i]
            + (-6 * th2 + 6 * th) * self.ys[i + 1]
            + (3 * th2 - 2 * th) * h * self.fs[i + 1]
        ) / h
        return dy[0] if np.isscalar(s) or np.ndim(s) == 0 else dy


def solve_rk45(
    rhs: Callable[[float, Array], Array],
    y0,
    t_end: float,
    tol: float = 1e-10,
    project: Optional[Callable[[Array], Array]] = None,
    stop: Optional[Callable[[list, list, list], bool]] = None,
) -> DenseCurve:
    """Integrate y' = rhs(t, y) from 0 to t_end (t_end >= 0).

    ``tol`` is used as both absolute and relative local tolerance.  When
    ``project`` is given it is applied to the state after every accepted
    step and the stored derivative is re-evaluated at the projected state,
    so the dense interpolant stays consistent.  When ``stop`` is given it
    is called after every accepted step with the knot lists so far
    (times, states, derivatives; it must not change them), and the run
    ends at that knot once it returns True.  Stopping leaves the knots
    before it unchanged: they are the prefix of the full run.
    """
    y = np.asarray(y0, dtype=float).copy()
    if t_end < 0:
        raise ValueError("integration horizon must be nonnegative")
    f = np.asarray(rhs(0.0, y), dtype=float)
    ts = [0.0]
    ys = [y.copy()]
    fs = [f.copy()]
    if t_end == 0.0:
        return DenseCurve(np.array([0.0]), np.array([y]), np.array([f]))

    scale0 = tol + tol * float(np.max(np.abs(y)))
    fn = float(np.linalg.norm(f))
    h = min(t_end, 0.1 * scale0 ** 0.2, 0.01 * (1.0 + float(np.linalg.norm(y))) / (1.0 + fn))
    h = max(h, 1e-8)
    t = 0.0
    k = np.empty((7, y.size))
    for _ in range(MAX_STEPS):
        # a remainder below the step floor is rounding residue: arrived
        if t_end - t < MIN_STEP * max(1.0, abs(t)):
            break
        h = min(h, t_end - t)
        if h < MIN_STEP * max(1.0, abs(t)):
            raise StiffnessError(f"step collapsed to {h:.3e} at t = {t:.6g}")
        k[0] = f
        for i in range(5):
            yi = y + h * (k[: i + 1].T @ _A[i])
            k[i + 1] = rhs(t + _C[i + 1] * h, yi)
        y5 = y + h * (k[:6].T @ _B5)
        k[6] = rhs(t + h, y5)
        y4 = y + h * (k[:7].T @ _B4)
        err = y5 - y4
        sc = tol + tol * np.maximum(np.abs(y), np.abs(y5))
        err_norm = float(np.sqrt(np.mean((err / sc) ** 2)))
        if err_norm <= 1.0:
            t += h
            y = y5
            if project is not None:
                y = project(y)
            f = np.asarray(rhs(t, y), dtype=float)
            ts.append(t)
            ys.append(y.copy())
            fs.append(f.copy())
            if stop is not None and stop(ts, ys, fs):
                break
        factor = 0.9 * (err_norm ** -0.2 if err_norm > 0 else 5.0)
        h *= min(5.0, max(0.2, factor))
    else:
        raise StiffnessError("maximum step count exceeded")
    return DenseCurve(np.array(ts), np.array(ys), np.array(fs))
