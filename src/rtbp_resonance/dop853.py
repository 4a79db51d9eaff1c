"""DOP853 for a batch of independent autonomous initial value problems.

Row i of a batch integrates y' = fun(y) from y0[i] forward over
[0, t_end[i]], t_end[i] > 0, with the explicit Runge-Kutta pair of order
8(5, 3) of Dormand and Prince (Hairer, Norsett and Wanner, *Solving
Ordinary Differential Equations I*, sec. II.10).  Each row takes the steps
that scipy's ``solve_ivp(method="DOP853")`` takes for it alone: the same
initial step selection, stage sums, combined 5th/3rd-order error norm and
step-size control, with its own step size, rejection flag and evaluation
count.  The rows share only the calls: one ``fun`` call per stage for the
whole batch and one matrix-vector product per stage sum, which is where a
one-row integrator spends its per-step overhead.

DOP853 is FSAL (first same as last): the last stage of an accepted step is
the derivative at its new state, so each row's derivative at its end time
comes with its state at no further evaluation.

Each step takes its control as numpy operations over arrays of rows (time,
step size, rejection flag, step count, index and params): the error norms,
step factors, acceptance, mesh and retirement of all rows in one pass.  The
bits stay scipy's because the operations that numpy could round differently
are made as scipy makes them.  A row's squared norm is the BLAS vector dot
x.dot(x) that np.linalg.norm takes, which the stacked matmul of (rows, 1, n)
by (rows, n, 1) also calls once per row (np.einsum and sum do not), and the
powers ** 2 and ** (-1/8) are libm's pow, one Python float at a time
(np.power differs on about 5% of values).  nextafter, min, max, sqrt and
the norm's other operations are correctly rounded per element either way.

A row leaves the batch when it reaches its end time, or when it fails:
``fun`` raised an RtbpError for it, its step fell below ten ulps of its
time, or a step would take it past MAX_ROW_EVALS evaluations of ``fun``
(a ConvergenceError that names the budget).  Every live row is evaluated
in every call, so a row's count is the batch's calls while it is live, and
the budget stops the rows still live at once.  The other rows go on, and
rows that have left keep their results.  A row's numbers do not depend on
the other rows as long as the BLAS matrix-vector product computes each
element the same way wherever it sits in the vector; OpenBLAS's x86-64
kernels do when the row length is a multiple of 4, as the verifier's 20
and 24 are.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, RtbpError

# The tableau of Hairer's DOP853 as scipy distributes it
# (scipy/integrate/_ivp/dop853_coefficients.py): stage rows A[1..11], the
# 8th-order weights B, and the 5th- and 3rd-order error weights E5, E3 over
# the 12 stages plus the derivative at the new point.  The nodes C are not
# needed for an autonomous field, nor is the dense output.
N_STAGES = 12
A = np.zeros((N_STAGES + 1, N_STAGES))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

B = A[N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# The weights of stage s over stages 0 .. s-1, for s = 1 .. 11.
_STAGE_WEIGHTS = [A[s, :s] for s in range(1, N_STAGES)]

# Step-size control: the error of the 7th-order estimator scales as h^8.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# The evaluations of fun one row may take: a step that would take a live row
# past it fails the row instead.  The most a row takes is 662 on the
# verifier's benchmark panel and 12,062 in CI's 10:9 retrograde request.
MAX_ROW_EVALS = 100_000

# The columns of the live batch, one entry (a row of y, f and params) per
# live row: a row that leaves is dropped from each with one mask.
_COLUMNS = ("index", "t", "t_end", "h", "rejected", "steps", "params", "y", "f")


@dataclass(frozen=True)
class BatchSolution:
    """Final states and work counts of one batched integration.

    y[i] is row i's state at t_end[i] and f[i] its derivative there (the
    last stage of its last step), both NaN where errors[i] holds the
    RtbpError that stopped the row.  row_nfev[i] and row_steps[i] count its
    evaluations of fun and its accepted steps.  nfev and t follow scipy's
    OdeResult over the whole batch: nfev is the evaluations summed over
    rows, and t is 0 followed by the end time of every accepted step of
    every row, so t.size - 1 is the accepted steps summed over rows.
    """

    y: np.ndarray
    f: np.ndarray
    errors: list
    row_nfev: np.ndarray
    row_steps: np.ndarray
    t: np.ndarray

    @property
    def nfev(self) -> int:
        return int(self.row_nfev.sum())


def _dots(x):
    """x[k].dot(x[k]) of each row: the stacked matmul takes BLAS's vector
    dot per row, as ndarray.dot and np.linalg.norm do."""
    return np.matmul(x[:, None, :], x[:, :, None]).ravel()


def _rms(x):
    """scipy's norm ||x||_2 / sqrt(n) of each row, ||x||_2 as np.linalg.norm takes it."""
    return np.sqrt(_dots(x)) / x.shape[1] ** 0.5


def _squared_norms(x) -> list:
    """np.linalg.norm(x[k]) ** 2 of each row as scipy takes it: libm's pow
    per value, which np.power does not always match."""
    return [v**2 for v in np.sqrt(_dots(x)).tolist()]


class _Batch:
    """The live rows, position k one row: their states y, derivatives f,
    params and step control (`_COLUMNS`), and the results of the rows that
    have left."""

    def __init__(self, fun, y0, params, t_end):
        n_rows = len(y0)
        self.fun = fun
        self.calls = 0
        self.dead = []  # positions of the rows failed since the last retire
        self.params = np.asarray(params)
        self.y = y0
        self.f = None
        self.index = np.arange(n_rows)
        self.t = np.zeros(n_rows)
        self.t_end = np.array(t_end, dtype=float)
        self.h = np.zeros(n_rows)  # |h| of the row's next attempt
        self.rejected = np.zeros(n_rows, dtype=bool)
        self.steps = np.zeros(n_rows, dtype=np.int64)
        self.y_out = np.full_like(y0, np.nan)
        self.f_out = np.full_like(y0, np.nan)
        self.errors = [None] * n_rows
        self.nfev = np.zeros(n_rows, dtype=np.int64)
        self.row_steps = np.zeros(n_rows, dtype=np.int64)
        self.mesh = array("d", [0.0])  # unboxed: one entry per accepted step

    def __len__(self):
        return len(self.index)

    def eval(self, y):
        """fun at the live rows y.  Where it raises, each row is evaluated
        alone; a row that raises fails with its error and gets NaN."""
        self.calls += 1
        try:
            return self.fun(y, self.params)
        except RtbpError:
            pass
        out = np.empty_like(y)
        for k in range(len(y)):
            try:
                out[k] = self.fun(y[k:k + 1], self.params[k:k + 1])[0]
            except RtbpError as exc:
                out[k] = np.nan
                self.fail(k, exc)
        return out

    def fail(self, k, exc):
        """The row at position k stops with exc, its count the calls so far."""
        i = self.index[k]
        if self.errors[i] is None:
            self.errors[i], self.nfev[i] = exc, self.calls
            self.dead.append(k)

    def retire(self, leave):
        """Move the rows at positions `leave` out: a finished row leaves its
        y, f and count, a failed one has its error already."""
        for k in set(leave):
            i = self.index[k]
            if self.errors[i] is None:
                self.y_out[i], self.f_out[i], self.nfev[i] = self.y[k], self.f[k], self.calls
            self.row_steps[i] = self.steps[k]
        mask = np.ones(len(self), dtype=bool)
        mask[leave] = False
        for name in _COLUMNS:
            setattr(self, name, getattr(self, name)[mask])
        self.dead = []

    def initial_steps(self, tol):
        """scipy's select_initial_step for every live row (one evaluation)."""
        y0, f0 = self.y, self.f
        scale = tol + np.abs(y0) * tol
        d1 = _rms(f0 / scale).tolist()
        h0 = [1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b
              for a, b in zip(_rms(y0 / scale).tolist(), d1)]
        h0 = np.minimum(h0, self.t_end)
        f1 = self.eval(y0 + h0[:, None] * f0)
        d2 = (_rms((f1 - f0) / scale) / h0).tolist()
        h1 = [max(1e-6, h * 1e-3) if a <= 1e-15 and b <= 1e-15 else (0.01 / max(a, b)) ** (1 / 8)
              for h, a, b in zip(h0.tolist(), d1, d2)]
        self.h = np.minimum(np.minimum(100 * h0, h1), self.t_end)

    def rk_step(self, h, tol):
        """One DOP853 step of every live row, row k with step h[k].

        Returns (y_new, f_new, err5, err3), the error estimates divided by
        the error scale.  Each stage sum is one product of the (rows * n, s)
        block of stages with the tableau row.
        """
        y = self.y
        live, n = y.shape
        K = np.empty((N_STAGES + 1, live, n))
        K_T = K.reshape(N_STAGES + 1, live * n).T  # one column per stage
        h = h[:, None]
        K[0] = self.f
        for s, a in enumerate(_STAGE_WEIGHTS, start=1):
            z = K_T[:, :s].dot(a).reshape(live, n)
            z *= h
            z += y
            K[s] = self.eval(z)
        y_new = y + h * K_T[:, :N_STAGES].dot(B).reshape(live, n)
        f_new = K[N_STAGES] = self.eval(y_new)
        scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
        err5 = K_T.dot(E5).reshape(live, n) / scale
        err3 = K_T.dot(E3).reshape(live, n) / scale
        return y_new, f_new, err5, err3

    def step(self, tol):
        """One step of every live row, its control as numpy operations over
        the rows: scipy's RungeKutta._step_impl with DOP853's error norm.

        Where rows must stop, the call only fails them and returns: every
        live row when one more step would take it past MAX_ROW_EVALS (every
        live row is evaluated in every call, so its count is the batch's
        calls), else the rows whose rejected step fell below ten ulps of t;
        the others take this step at the next call, from the same state.
        """
        t, rejected = self.t, self.rejected
        min_step = 10 * np.spacing(t)  # ten ulps of t, nextafter(t, inf) - t
        if self.calls + N_STAGES > MAX_ROW_EVALS:
            stop = range(len(self))
            why = f"a step would pass the budget of {MAX_ROW_EVALS} evaluations per row"
        else:
            stop, why = np.flatnonzero(rejected & (self.h < min_step)).tolist(), TOO_SMALL_STEP
        if stop:
            for k in stop:
                self.fail(k, ConvergenceError(f"integration failed: {why}"))
            self.retire(self.dead)
            return
        t_new = np.minimum(t + np.maximum(self.h, min_step), self.t_end)
        h = t_new - t
        y_new, f_new, err5, err3 = self.rk_step(h, tol)
        e5, e3 = np.array(_squared_norms(np.concatenate((err5, err3)))).reshape(2, -1)
        error_norm = np.divide(h * e5, np.sqrt((e5 + 0.01 * e3) * err5.shape[1]),
                               out=np.zeros(len(h)), where=np.logical_or(e5, e3))
        accept = error_norm < 1
        if self.dead:
            accept[self.dead] = False
        # An accepted step's SAFETY * error_norm**ERROR_EXPONENT is at least
        # SAFETY and a rejected one's at most SAFETY (or NaN), so one clip
        # takes scipy's factor in both branches; inf stands for error_norm 0.
        factor = np.array([SAFETY * v**ERROR_EXPONENT if v else math.inf
                           for v in error_norm.tolist()])
        factor = np.fmin(np.where(rejected, 1.0, MAX_FACTOR), np.fmax(MIN_FACTOR, factor))
        self.h = h * factor
        self.t = np.where(accept, t_new, t)
        self.steps += accept
        self.mesh.extend(t_new[accept].tolist())
        self.rejected = rejected = ~accept
        if np.count_nonzero(rejected):
            y_new[rejected], f_new[rejected] = self.y[rejected], self.f[rejected]
        self.y, self.f = y_new, f_new
        done = np.flatnonzero(self.t >= self.t_end).tolist()
        if done or self.dead:
            self.retire(done + self.dead)


def solve_ivp(fun, t_end, y0, params, tol: float) -> BatchSolution:
    """Integrate every row of y0 from t = 0 forward to its t_end > 0 with
    DOP853; raises ValueError for any other t_end.

    fun(y, params) takes the live rows y (k, n) and their rows of
    np.asarray(params), an array, and returns their derivatives (k, n); the
    field is autonomous.  A row for which fun raises an RtbpError stops with
    that error, and a row whose step falls below ten ulps of its time, or
    that a step would take past MAX_ROW_EVALS evaluations, stops with a
    ConvergenceError.  tol is scipy's rtol and atol at once: the error scale
    is tol + max(|y|, |y_new|) * tol.
    """
    if not all(te > 0.0 for te in t_end):
        raise ValueError("every t_end must be > 0: the integration runs forward only")
    batch = _Batch(fun, np.array(y0, dtype=float), params, t_end)
    batch.f = batch.eval(batch.y)
    if batch.dead:
        batch.retire(batch.dead)
    if len(batch):
        batch.initial_steps(tol)
        if batch.dead:
            batch.retire(batch.dead)
    while len(batch):
        batch.step(tol)

    return BatchSolution(
        y=batch.y_out,
        f=batch.f_out,
        errors=batch.errors,
        row_nfev=batch.nfev,
        row_steps=batch.row_steps,
        t=np.array(batch.mesh),
    )
