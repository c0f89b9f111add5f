"""Trajectory generation and invariant-drift monitoring.

Each run is one adaptive Dormand-Prince 5(4) solve (``_solve``): the direct
run steps to the horizon, the rescaled run steps open-ended in tau until its
clock reaches t = horizon, and both sample the dense output at ``samples``
uniform times in one batched evaluation.  The stepper is a port of scipy's
RK45 (Hairer, Norsett and Wanner I, II.4, with Shampine's quartic dense
output): the same tableau, initial step, step-size controller and order of
arithmetic, so that it reproduces ``solve_ivp(method="RK45")`` bit for bit.
No projection or renormalization is applied to gamma; the drift of the known
first integrals is the advertised measure of integration quality.

Both runs step through the system's ``flow`` (a closed-form kernel for the
model systems, the reference ``sphere.rhs`` otherwise).  The time-rescaled
run integrates, in the new time tau,

    dx/dtau = rho(gamma) * flow(x),     dt/dtau = rho(gamma),

with the multiplier rho = 1/g, so that t = integral of rho dtau recovers the
physical clock and the mapped trajectory coincides with direct integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .core import DomainError, StiffnessError, write_in_place
from .sphere import SphereSystem, integrals

Array = np.ndarray

# the smallest conformal factor g a rescaled run accepts: rho = 1/g <= 1e10
_G_FLOOR = 1e-10

# Dormand-Prince 5(4) as scipy's RK45 writes it.  The flows are autonomous,
# so the stage times are not needed.
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_STAGES = [_A[s, :s] for s in range(1, 6)]
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
# the quartic dense output, with Shampine's optimal c_6
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# the controller: safety factor, step-change bounds, error exponent -1/(4 + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10, -1 / 5
_EPS = np.finfo(float).eps
# bisections of a step that pin a clock level to within an ulp of the step
_BISECTIONS = 54


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    horizon: float = 100.0
    samples: int = 1001
    max_step: float = np.inf

    def __post_init__(self):
        # NaN fails "> 0"; only max_step may be infinite (no step limit)
        for name in ("rtol", "atol", "horizon", "max_step"):
            value = getattr(self, name)
            if not value > 0.0:
                raise DomainError(f"{name} must be positive, got {value}")
            if value == np.inf and name != "max_step":
                raise DomainError(f"{name} must be finite, got {value}")
        if self.samples < 2:
            raise DomainError(f"samples must be at least 2, got {self.samples}")


def _powers(x: Array) -> Array:
    """(x, x^2, x^3, x^4) for each entry of x, as scipy multiplies them."""
    return np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1)


@dataclass(frozen=True)
class _DenseOutput:
    """The piecewise quartic interpolant of one solve.  Step k covers
    [t_old[k], t_old[k] + h[k]] and interpolates there, in
    x = (t - t_old[k]) / h[k], as y_old[k] + h[k] Q[k] (x, x^2, x^3, x^4)."""

    t_old: Array        # (N,) step starts
    h: Array            # (N,) step sizes
    y_old: Array        # (N, dim) states at the step starts
    Q: Array            # (N, dim, 4)

    def __call__(self, t: Array) -> Array:
        """States at times t, shape (len(t), dim); a time on a step boundary
        is read from the earlier step, as scipy's ``OdeSolution`` does."""
        step = np.clip(np.searchsorted(self.t_old, t, side="left") - 1, 0, self.t_old.size - 1)
        p = _powers((t - self.t_old[step]) / self.h[step])
        return self.h[step, None] * (self.Q[step] @ p[..., None])[..., 0] + self.y_old[step]

    def clock_inverse(self, levels: Array) -> Array:
        """The times at which the last component, increasing along the run,
        takes the given levels: per level, a bisection of the step whose
        start is the last one at or below it."""
        c0 = self.y_old[:, -1]
        step = np.clip(np.searchsorted(c0, levels, side="right") - 1, 0, c0.size - 1)
        lo, hi = np.zeros(levels.shape), np.ones(levels.shape)
        q, h, c = self.Q[step, -1], self.h[step], c0[step]
        for _ in range(_BISECTIONS):
            x = 0.5 * (lo + hi)
            below = h * np.vecdot(q, _powers(x)) + c < levels
            lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        return self.t_old[step] + hi * self.h[step]


@dataclass(frozen=True)
class Trajectory:
    t: Array                      # (N,), strictly increasing
    states: Array                 # (N, dim)
    integrals: dict[str, Array]   # per-sample values of named first integrals
    nfev: int
    accepted: int = 0             # adaptive steps taken
    rejected: int = 0             # steps retried with a smaller size
    # the solve's dense output, kept by the rescaled run for its time map
    _dense: _DenseOutput | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0):
            raise DomainError("sample times must be strictly increasing")


@dataclass(frozen=True)
class _Run:
    dense: _DenseOutput
    t_end: float        # where the run stopped
    nfev: int
    accepted: int
    rejected: int


def _rms(x: Array) -> float:
    """scipy's RMS norm, summed the way ``np.linalg.norm`` sums."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _solve(fn: Callable[[Array], Array], z0: Array, cfg: IntegratorConfig, t_end: float,
           until: float | None = None) -> _Run:
    """The one adaptive solve: step dz/dt = fn(z) from t = 0 until ``t_end``,
    or until the last component of z reaches ``until``, keeping every step's
    dense output.  Raises ``StiffnessError`` when the step size underflows
    and ``DomainError`` when the flow is not finite at z0."""
    rtol, atol, max_step = max(cfg.rtol, 100 * _EPS), cfg.atol, cfg.max_step
    t, y = 0.0, z0
    f = np.asarray(fn(y), float)
    if not np.all(np.isfinite(f)):
        raise DomainError("the flow is not finite at the initial state")
    # the initial step (Hairer, Norsett and Wanner I, II.4)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = _rms((np.asarray(fn(y + h0 * f), float) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_end, max_step)
    t_old, hs, y_old, Ks = [], [], [], []
    rejected = 0
    while t < t_end and (until is None or y[-1] < until):
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        retried = False
        while True:
            if h_abs < min_step:
                raise StiffnessError(f"integration stalled: the step size underflowed at t = {t!r}",
                                     last_t=t, last_state=y)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            K = np.empty((7, y.size))
            K[0] = f
            for s, a in enumerate(_STAGES, start=1):
                K[s] = fn(y + K[:s].T.dot(a) * h)
            y_new = y + h * K[:-1].T.dot(_B)
            K[-1] = fn(y_new)
            error = _rms(K.T.dot(_E) * h / (atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol))
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR, _SAFETY * error ** _EXPONENT)
                h_abs *= min(1, factor) if retried else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _EXPONENT)
            retried = True
            rejected += 1
        t_old.append(t)
        hs.append(h)
        y_old.append(y)
        Ks.append(K)
        t, y, f = t_new, y_new, K[-1]
    # scipy's per-step K.T @ P, for all steps at once
    dense = _DenseOutput(np.array(t_old), np.array(hs), np.array(y_old),
                        np.stack(Ks).transpose(0, 2, 1) @ _P)
    if until is not None:
        t = float(dense.clock_inverse(np.array([until]))[0])
    accepted = len(Ks)
    return _Run(dense, t, 2 + 6 * (accepted + rejected), accepted, rejected)


def integrate(fn: Callable[[Array], Array], state0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate dx/dt = fn(x) over [0, horizon] with dense sampling.

    ``fn`` maps one state to its velocity.  The trajectory tracks no
    integrals: a caller evaluates its own once on all samples, as
    ``integrate_sphere`` does, and puts them in ``integrals``.
    """
    x0 = np.asarray(state0, float)
    if not np.all(np.isfinite(x0)):
        raise DomainError("initial state is not finite")
    run = _solve(fn, x0, cfg, cfg.horizon)
    t = np.linspace(0.0, cfg.horizon, cfg.samples)
    return Trajectory(t=t, states=run.dense(t), integrals={}, nfev=run.nfev,
                      accepted=run.accepted, rejected=run.rejected)


def integrate_sphere(sys: SphereSystem, state0, cfg: IntegratorConfig) -> Trajectory:
    """Trajectory of a sphere system with its registered integrals tracked:
    H, F1, F2 and the extras, from one ``integrals`` call on all samples."""
    traj = integrate(sys.flow, state0, cfg)
    v = integrals(sys, traj.states)
    return replace(traj, integrals={"H": v.F3, "F1": v.F1, "F2": v.F2, **v.extras})


def integrate_reparametrized(sys: SphereSystem, state0,
                             cfg: IntegratorConfig) -> tuple[Trajectory, Array]:
    """Integrate in the rescaled time tau until the physical clock reaches
    the horizon.  Returns the tau-trajectory (states only, ``samples``
    uniform taus over the run) and the physical times t(tau) of the samples.

    The time map is obtained by co-integrating t as a seventh state
    component, so it inherits the solver's error control.  rho > 0 is
    bounded below on the sphere, so the clock reaches the horizon at a
    finite tau.
    """
    g_of, flow = sys.g, sys.flow

    def z_rhs(z):
        g = g_of(z[3:-1])
        if g <= _G_FLOOR:
            raise DomainError(f"conformal factor hit g = {g:.3e} <= {_G_FLOOR:.1e}")
        r = 1.0 / g
        dz = np.empty_like(z)
        np.multiply(flow(z[:-1]), r, out=dz[:-1])
        dz[-1] = r
        return dz

    run = _solve(z_rhs, np.append(np.asarray(state0, float), 0.0), cfg, np.inf, cfg.horizon)
    tau = np.linspace(0.0, run.t_end, cfg.samples)
    z = run.dense(tau)
    # run.t_end is the root where the clock equals the horizon; the dense
    # output there can read a few ulps short of it, so record the horizon
    # itself, and a query at the horizon stays inside the run
    z[-1, -1] = cfg.horizon
    traj = Trajectory(t=tau, states=z[:, :-1], integrals={}, nfev=run.nfev,
                      accepted=run.accepted, rejected=run.rejected, _dense=run.dense)
    return traj, z[:, -1]


def map_to_physical_time(traj_tau: Trajectory, t_phys: Array, t_query: Array) -> Array:
    """The states of a rescaled run at physical times: its dense output at
    the tau where its clock reads each queried time."""
    t_query = np.asarray(t_query, float)
    if t_query.max() > t_phys.max() or t_query.min() < t_phys.min():
        raise DomainError("queried times fall outside the rescaled run")
    if traj_tau._dense is None:
        raise DomainError("the trajectory carries no dense output of a rescaled run")
    return traj_tau._dense(traj_tau._dense.clock_inverse(t_query))[:, :-1]


def drift_report(traj: Trajectory, names: Sequence[str] | None = None) -> dict[str, float]:
    """Per-integral sup of |F(t) - F(0)| / max(1, |F(0)|) over the samples."""
    names = list(traj.integrals.keys()) if names is None else list(names)
    out = {}
    for name in names:
        vals = traj.integrals[name]
        out[name] = float(np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0])))
    return out


def trajectory_csv(traj: Trajectory, path,
                   columns: Sequence[str] = ("M1", "M2", "M3", "g1", "g2", "g3")) -> None:
    """Write a trajectory as CSV, full double precision (%.17g).

    Columns: t, the state components under ``columns``, then the tracked
    integrals: H, F1 and F2 first where present, then the rest in order.
    """
    first = [n for n in ("H", "F1", "F2") if n in traj.integrals]
    order = first + [n for n in traj.integrals if n not in first]
    data = np.column_stack([traj.t, traj.states, *(traj.integrals[n] for n in order)])
    row = ",".join(["%.17g"] * data.shape[1])
    write_in_place(path, ",".join(["t", *columns, *order]) + "\n"
                   + "\n".join([row] * len(data)) % tuple(data.ravel().tolist()) + "\n")
