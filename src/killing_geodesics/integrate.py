"""Adaptive embedded Runge-Kutta integration with dense output.

Two steppers share one driver (``_drive``): the first-step heuristic
and the step-size rule, both with the stepper's own exponent, the
``MIN_STEP`` floor, ``MAX_STEPS``, and the projection of the state after
every accepted step (used to pin long flows onto a constraint level
set), with the derivative evaluated again at the projected state.

- ``solve_rk45``: Dormand-Prince 5(4).  It propagates the 5th-order
  solution and controls the embedded 4th-order error estimate.  Dense
  output is cubic Hermite interpolation between accepted steps, on
  which the period detector refines its returns; a stop callback lets
  it end the run at the first certified return.  Flows run on it.
- ``solve_dop853``: Dormand-Prince 8(5,3), the DOP853 code of Hairer,
  Norsett and Wanner, "Solving Ordinary Differential Equations I" (2nd
  ed., 1993, sec. II.5-II.6), after Prince and Dormand, "High order
  embedded Runge-Kutta formulae" (J. Comput. Appl. Math. 7, 1981).  Its
  error norm combines the 5th- and 3rd-order estimates, and its dense
  output is the 7th-order continuous extension, three more stages per
  accepted step, made on first read (``ContinuousCurve``).  Geodesic
  shooting runs on it.

Both control the error against a mixed absolute/relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import StiffnessError

Array = np.ndarray

# Dormand-Prince 5(4) coefficients: the nodes of stages 1-5, then their rows.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = [
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])

# Dormand-Prince 8(5,3) coefficients, as in Hairer's dop853.f.  Stages
# 0-11 make the step, stage 12 is the derivative at the new state, and
# stages 13-15 serve the continuous extension only.
C8 = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])
A8 = np.zeros((16, 16))
A8[1, 0] = 5.26001519587677318785587544488e-2
A8[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
A8[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
A8[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1,
    -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
]
A8[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2,
    1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
]
A8[6, [0, 3, 4, 5]] = [
    3.7109375e-2,
    1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2,
    -1.7578125e-2,
]
A8[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2,
    1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1,
    -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
]
A8[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1,
    -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1,
    -4.34898841810699588477366255144e1,
]
A8[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1,
    -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1,
    -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
]
A8[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1,
    5.18637242884406370830023853209,
    1.09143734899672957818500254654,
    -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1,
    2.27394870993505042818970056734e1,
    2.49360555267965238987089396762,
    -3.0467644718982195003823669022,
]
A8[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449,
    -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674,
    -8.87285693353062954433549289258,
    1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
]
A8[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [  # the weights b of the 8th-order solution
    5.42937341165687622380535766363e-2,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
]
A8[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [
    5.61675022830479523392909219681e-2,
    2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1,
    -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1,
    8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3,
    -8.298e-3,
]
A8[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [
    3.18346481635021405060768473261e-2,
    2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2,
    -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4,
    3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4,
    1.41312443674632500278074618366e-1,
]
A8[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [
    -4.28896301583791923408573538692e-1,
    -4.69762141536116384314449447206,
    7.68342119606259904184240953878,
    4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1,
    -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149,
    -9.15095847217987001081870187138,
]
B8 = A8[12, :12]
# Error weights on stages 0-11: the 8th-order solution minus the
# embedded 5th-order one, and minus the embedded 3rd-order one.
E5 = np.zeros(12)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1,
    -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
]
E3 = B8.copy()
E3[[0, 8, 11]] -= [
    0.244094488188976377952755905512,
    0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
]
# Continuous extension: the coefficients F[3..6] of a step are h·D8 @ k.
D8 = np.zeros((4, 16))
D8[0, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    -0.84289382761090128651353491142e+1,
    0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1,
    0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1,
    -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1,
    0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1,
    0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1,
    -0.44360363875948939664310572000e+1,
]
D8[1, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    0.10427508642579134603413151009e+2,
    0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3,
    -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2,
    0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2,
    -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2,
    -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1,
    0.35816841486394083752465898540e+2,
]
D8[2, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    0.19985053242002433820987653617e+2,
    -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3,
    0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2,
    0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1,
    0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1,
    -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2,
    0.11992291136182789328035130030e+2,
]
D8[3, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    -0.25693933462703749003312586129e+2,
    -0.15418974869023643374053993627e+3,
    -0.23152937917604549567536039109e+3,
    0.35763911791061412378285349910e+3,
    0.93405324183624310003907691704e+2,
    -0.37458323136451633156875139351e+2,
    0.10409964950896230045147246184e+3,
    0.29840293426660503123344363579e+2,
    -0.43533456590011143754432175058e+2,
    0.96324553959188282948394950600e+2,
    -0.39177261675615439165231486172e+2,
    -0.14972683625798562581422125276e+3,
]

_KEPT = [0, 5, 6, 7, 8, 9, 10, 11]  # the stages the extension reads, with stage 12
MIN_STEP = 1e-12
MAX_STEPS = 2_000_000
SPEED_BOUND_MARGIN = 1e-9  # relative round-up of a curve's speed bound, far above its rounding


@dataclass(frozen=True, eq=False)
class DenseCurve:
    """Piecewise cubic Hermite interpolant of an integration run."""

    ts: Array          # knots, shape (m,)
    ys: Array          # states at knots, shape (m, d)
    fs: Array          # state derivatives at knots, shape (m, d)

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def __call__(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if len(self.ts) == 1:
            y = np.broadcast_to(self.ys[0], (len(s_arr), self.ys.shape[1])).copy()
            return y[0] if np.isscalar(s) or np.ndim(s) == 0 else y
        i = np.clip(np.searchsorted(self.ts, s_arr, side="right") - 1, 0, len(self.ts) - 2)
        t0, t1 = self.ts[i], self.ts[i + 1]
        th = ((s_arr - t0) / (t1 - t0))[:, None]
        y = self._piece(i, th, (t1 - t0)[:, None])
        return y[0] if np.isscalar(s) or np.ndim(s) == 0 else y

    def speed_bound(self) -> float:
        """An upper bound on |c'| over the knots' span: the largest of the
        ``step_speed_bounds``."""
        if len(self.ts) < 2:
            return 0.0
        return float(np.max(self.step_speed_bounds()))

    def step_speed_bounds(self) -> Array:
        """An upper bound on |c'| over each step, read off its knots.

        With the chord slope s = (y_{i+1} - y_i)/h of step i, the
        interpolant's derivative at the fraction θ of it is
        s + (3θ² - 4θ + 1)·(f_i - s) + (3θ² - 2θ)·(f_{i+1} - s), and each
        weight is at most 1 in absolute value on [0, 1].  So |c'| <=
        |s| + |f_i - s| + |f_{i+1} - s|, exact on a straight line, rounded
        up by ``SPEED_BOUND_MARGIN``."""
        s = np.diff(self.ys, axis=0) / np.diff(self.ts)[:, None]
        parts = (s, self.fs[:-1] - s, self.fs[1:] - s)
        return sum(np.linalg.norm(v, axis=1) for v in parts) * (1.0 + SPEED_BOUND_MARGIN)

    def _piece(self, i: Array, th: Array, h: Array) -> Array:
        """The interpolant on step i at the fractions th of its length h."""
        th2 = th * th
        th3 = th2 * th
        return (
            (2 * th3 - 3 * th2 + 1) * self.ys[i]
            + (th3 - 2 * th2 + th) * h * self.fs[i]
            + (-2 * th3 + 3 * th2) * self.ys[i + 1]
            + (th3 - th2) * h * self.fs[i + 1]
        )


@dataclass(frozen=True, eq=False)
class ContinuousCurve(DenseCurve):
    """A DOP853 run interpolated by its 7th-order continuous extension.

    Step i holds the coefficients F[0..6] of Hairer's ``contd8``: with
    θ the fraction of the step and θ' = 1 - θ,

        y = y_i + θ (F0 + θ' (F1 + θ (F2 + θ' (F3 + θ (F4 + θ' (F5 + θ F6)))))).

    ``coeffs`` makes them on first read, with the step's own arithmetic,
    from the run's right-hand side, step lengths and stages 0 and 5-11.
    """

    rhs: Callable[[float, Array], Array]
    hs: Array      # step lengths, shape (m - 1,)
    stages: Array  # shape (m - 1, 8, d)

    @cached_property
    def coeffs(self) -> Array:  # shape (m - 1, 7, d)
        k = np.zeros((16, self.ys.shape[1]))
        coeffs = np.empty((len(self.hs), 7, self.ys.shape[1]))
        for t, h, kept, y_old, y, f, F in zip(self.ts, self.hs, self.stages, self.ys, self.ys[1:], self.fs[1:], coeffs):
            k[_KEPT], k[12] = kept, f
            for j in range(13, 16):
                k[j] = self.rhs(t + C8[j] * h, y_old + h * (k[:j].T @ A8[j, :j]))
            dy = y - y_old
            F[0], F[1], F[2] = dy, h * k[0] - dy, 2.0 * dy - h * (f + k[0])
            F[3:] = h * (D8 @ k)
        return coeffs

    def _piece(self, i: Array, th: Array, h: Array) -> Array:
        F = self.coeffs[i]
        y = F[:, 6]
        for j in range(5, -1, -1):
            y = F[:, j] + (th if j % 2 else 1.0 - th) * y
        return self.ys[i] + th * y

    def step_speed_bounds(self) -> Array:
        """Not derived for the 7th-order extension, and the Hermite bound
        of ``DenseCurve`` does not hold for it."""
        raise NotImplementedError("no speed bound for a DOP853 continuous extension")


class _RK45:
    """Dormand-Prince 5(4) steps of one run."""

    exponent = 0.2

    def __init__(self, size: int):
        self.k = np.empty((7, size))

    def step(self, rhs, t: float, y: Array, f: Array, h: float, tol: float):
        """(y at t + h, error norm) of a trial step from (t, y), f = rhs(t, y)."""
        k = self.k
        k[0] = f
        for i, (c, a) in enumerate(zip(_C, _A)):
            k[i + 1] = rhs(t + c * h, y + h * (k[: i + 1].T @ a))
        y5 = y + h * (k[:6].T @ _B5)
        k[6] = rhs(t + h, y5)
        err = y5 - (y + h * (k.T @ _B4))
        q = err / (tol + tol * np.maximum(np.abs(y), np.abs(y5)))
        return y5, math.sqrt(float(np.add.reduce(q * q)) / q.size)

    def accept(self, rhs, t: float, h: float, y_old: Array, y: Array, f: Array) -> None:
        """Record the accepted step from (t, y_old) to (t + h, y), f = rhs(t + h, y)."""

    def curve(self, rhs, ts, ys, fs) -> DenseCurve:
        return DenseCurve(np.array(ts), np.array(ys), np.array(fs))


class _DOP853:
    """Dormand-Prince 8(5,3) steps of one run, and what their continuous extension reads."""

    exponent = 1 / 8

    def __init__(self, size: int):
        self.k = np.empty((16, size))
        self.hs = []
        self.stages = []

    def step(self, rhs, t: float, y: Array, f: Array, h: float, tol: float):
        """(y at t + h, error norm) of a trial step from (t, y), f = rhs(t, y).

        The norm is DOP853's blend of the 5th- and 3rd-order estimates,
        |h|·err5² / sqrt(n·(err5² + 0.01·err3²)), which the step rule
        controls with the exponent 1/8."""
        k = self.k
        k[0] = f
        for i in range(1, 12):
            k[i] = rhs(t + C8[i] * h, y + h * (k[:i].T @ A8[i, :i]))
        y8 = y + h * (k[:12].T @ B8)
        sc = tol + tol * np.maximum(np.abs(y), np.abs(y8))
        err5 = float(np.sum(((k[:12].T @ E5) / sc) ** 2))
        err3 = float(np.sum(((k[:12].T @ E3) / sc) ** 2))
        if err5 == 0.0 and err3 == 0.0:
            return y8, 0.0
        return y8, abs(h) * err5 / float(np.sqrt((err5 + 0.01 * err3) * y.size))

    def accept(self, rhs, t: float, h: float, y_old: Array, y: Array, f: Array) -> None:
        """Record the accepted step from (t, y_old) to (t + h, y), f = rhs(t + h, y):
        its length and the stages its continuous extension reads."""
        self.hs.append(h)
        self.stages.append(self.k[_KEPT])

    def curve(self, rhs, ts, ys, fs) -> ContinuousCurve:
        stages = np.reshape(self.stages, (len(ts) - 1, len(_KEPT), len(ys[0])))
        return ContinuousCurve(np.array(ts), np.array(ys), np.array(fs), rhs, np.array(self.hs), stages)


def _drive(
    stepper,
    rhs: Callable[[float, Array], Array],
    y0,
    t_end: float,
    tol: float,
    project: Optional[Callable[[Array], Array]],
    stop: Optional[Callable[[list, list, list], bool]],
):
    """Integrate y' = rhs(t, y) from 0 to t_end with the steps of ``stepper``."""
    y = np.asarray(y0, dtype=float).copy()
    if t_end < 0:
        raise ValueError("integration horizon must be nonnegative")
    f = np.asarray(rhs(0.0, y), dtype=float)
    ts = [0.0]
    ys = [y.copy()]
    fs = [f.copy()]
    steps = stepper(y.size)
    if t_end == 0.0:
        return steps.curve(rhs, ts, ys, fs)

    scale0 = tol + tol * float(np.max(np.abs(y)))
    fn = float(np.linalg.norm(f))
    h = min(t_end, 0.1 * scale0 ** steps.exponent, 0.01 * (1.0 + float(np.linalg.norm(y))) / (1.0 + fn))
    h = max(h, 1e-8)
    t = 0.0
    for _ in range(MAX_STEPS):
        # a remainder below the step floor is rounding residue: arrived
        if t_end - t < MIN_STEP * max(1.0, abs(t)):
            break
        h = min(h, t_end - t)
        if h < MIN_STEP * max(1.0, abs(t)):
            raise StiffnessError(f"step collapsed to {h:.3e} at t = {t:.6g}")
        y_new, err_norm = steps.step(rhs, t, y, f, h, tol)
        if err_norm <= 1.0:
            t_old, y_old = t, y
            t += h
            y = y_new
            if project is not None:
                y = project(y)
            f = np.asarray(rhs(t, y), dtype=float)
            steps.accept(rhs, t_old, h, y_old, y, f)
            ts.append(t)
            ys.append(y.copy())
            fs.append(f.copy())
            if stop is not None and stop(ts, ys, fs):
                break
        factor = 0.9 * (err_norm ** -steps.exponent if err_norm > 0 else 5.0)
        h *= min(5.0, max(0.2, factor))
    else:
        raise StiffnessError("maximum step count exceeded")
    return steps.curve(rhs, ts, ys, fs)


def solve_rk45(
    rhs: Callable[[float, Array], Array],
    y0,
    t_end: float,
    tol: float = 1e-10,
    project: Optional[Callable[[Array], Array]] = None,
    stop: Optional[Callable[[list, list, list], bool]] = None,
) -> DenseCurve:
    """Integrate y' = rhs(t, y) from 0 to t_end (t_end >= 0) by Dormand-Prince 5(4).

    ``tol`` is used as both absolute and relative local tolerance.  When
    ``project`` is given it is applied to the state after every accepted
    step and the stored derivative is re-evaluated at the projected state,
    so the dense interpolant stays consistent.  When ``stop`` is given it
    is called after every accepted step with the knot lists so far
    (times, states, derivatives; it must not change them), and the run
    ends at that knot once it returns True.  Stopping leaves the knots
    before it unchanged: they are the prefix of the full run.
    """
    return _drive(_RK45, rhs, y0, t_end, tol, project, stop)


def solve_dop853(
    rhs: Callable[[float, Array], Array],
    y0,
    t_end: float,
    tol: float,
    project: Optional[Callable[[Array], Array]] = None,
) -> ContinuousCurve:
    """Integrate y' = rhs(t, y) from 0 to t_end (t_end >= 0) by Dormand-Prince
    8(5,3), interpolated by its 7th-order continuous extension.

    ``tol`` and ``project`` act as in ``solve_rk45``.  Each accepted step
    costs 12 right-hand sides (11 stages, the derivative at the new knot),
    a rejected one 11; the first read between knots adds 3 per accepted
    step, the stages of the extension, and later reads none.  Those start
    from the step's own stages and end at the stored, projected knot, so
    the curve passes through every knot with the stored derivative.
    """
    return _drive(_DOP853, rhs, y0, t_end, tol, project, None)
