"""Trajectory generation and invariant-drift monitoring.

Each run is one adaptive Dormand-Prince 8(5,3) solve (``_solve``), which
returns the run's ``Trajectory``: the direct run steps to the horizon, the
rescaled run steps open-ended in tau until its clock reaches t = horizon,
and both sample the dense output at ``samples`` uniform times in one
batched evaluation.  The stepper is a port of scipy's DOP853 (Hairer,
Norsett and Wanner I, II.10): twelve stages per step, the combined fifth-
and third-order error estimate with exponent -1/8, and the seventh-order
dense output from three extra stages per accepted step, with the same
initial step, step-size controller and order of arithmetic, so that it
reproduces ``solve_ivp(method="DOP853")``, run with no limit on the step
size, bit for bit.  Only what step control reads runs in the stepping
loop: the twelve stages and the flow at the new state.  The dense
output's three extra stages and seven coefficients are built once per
run, for all accepted steps at once, so every flow acts over the last
axis: one state in the loop, stacks of states after it.
No projection or renormalization is applied to gamma; the drift of the known
first integrals is the advertised measure of integration quality.

The direct run steps through the system's ``flow`` and the time-rescaled
run through its ``rescaled_flow`` (closed-form kernels for the model
systems, built on the reference ``sphere.rhs`` otherwise).  The
time-rescaled run integrates, in the new time tau,

    dx/dtau = g(gamma) * flow(x) = P grad H,     dt/dtau = g(gamma),

that is dtau = rho dt with the density rho = 1/g: the ``conformal`` suite
checks flow = (1/g) P grad H and the ``jacobi`` suite that P is Poisson, so
the flow is Hamiltonian in tau.  t = integral of g dtau recovers the
physical clock, and the mapped trajectory coincides with direct integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .core import BudgetError, DomainError, StiffnessError, write_in_place
from .sphere import SphereSystem, integrals

Array = np.ndarray

# the smallest conformal factor g a rescaled run accepts: its physical clock
# advances at dt/dtau = g, so a vanishing g stalls it
_G_FLOOR = 1e-10

# the most flow evaluations one solve takes before it is refused.  On a
# 2-vCPU host an evaluation costs 4-7 us with the stepper's own work (the
# demo runs take 22-36 ms in process), so the budget is about 0.8-1.4 s; the
# demo runs take 2 993 (veselova+gyrostat), 3 404 (ball) and 9 143
# (planar-demo) and the demo ball at horizon 1000 takes 33 884.  At the
# budget the accepted steps' stages, kept for the dense output, take about
# 12 MB for the rescaled run's 7 components.  The cost of a run grows with
# its horizon and the speed of its flow, without bound: a Veselova body at
# Ahat = 1e30 would need of order 1e29 evaluations for a horizon of 0.01
MAX_NFEV = 200_000

# Dormand-Prince 8(5,3) as scipy's DOP853 writes it (Hairer, Norsett and
# Wanner I, II.10).  The flows are autonomous, so the stage times are not
# needed.  Each row of _A weights stages 0..s-1 into stage s, for a step's
# stages s = 1..11 and then the dense output's extra stages s = 13..15.
_A = [
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
]
_STAGES = [np.array(a, float) for a in _A[:11]]
_EXTRA = [np.array(a, float) for a in _A[11:]]
# the eighth-order weights of stages 0..11
_B = np.array([0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
               -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
               0.04471061572777259])
# the fifth- and third-order error weights of stages 0..12 (stage 12 is the
# flow at the new state); E3 is B less the third-order weights, as scipy
# computes it
_E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
                1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                0.08192320648511571, -0.022355307863886294, 0])
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
# the dense output's last four coefficients from all 16 stages
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564]])
# the controller: safety factor, step-change bounds, error exponent -1/(7 + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10, -1 / 8
_EPS = np.finfo(float).eps
# bisections of a step that pin a clock level to within an ulp of the step
_BISECTIONS = 54


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    horizon: float = 100.0
    samples: int = 1001

    def __post_init__(self):
        for name in ("rtol", "atol", "horizon"):
            value = getattr(self, name)
            if not value > 0.0:     # NaN too
                raise DomainError(f"{name} must be positive, got {value}")
            if value == np.inf:
                raise DomainError(f"{name} must be finite, got {value}")
        if self.samples < 2:
            raise DomainError(f"samples must be at least 2, got {self.samples}")


def _nested(F: Array, x: Array) -> Array:
    """The interpolant's increment, sum over k of F[:, k] x^(k//2 + 1) (1 - x)^((k+1)//2),
    in the nested form scipy's ``Dop853DenseOutput`` evaluates, innermost
    coefficient first.  F is (N, 7, ...) and x broadcasts against F[:, 0]."""
    y = np.zeros(F[:, 0].shape)
    for i, k in enumerate(range(F.shape[1] - 1, -1, -1)):
        y += F[:, k]
        y *= x if i % 2 == 0 else 1 - x
    return y


@dataclass(frozen=True)
class _DenseOutput:
    """The piecewise seventh-order interpolant of one solve.  Step k covers
    [t_old[k], t_old[k] + h[k]] and interpolates there, in
    x = (t - t_old[k]) / h[k], as y_old[k] + ``_nested(F[k], x)``."""

    t_old: Array        # (N,) step starts
    h: Array            # (N,) step sizes
    y_old: Array        # (N, dim) states at the step starts
    F: Array            # (N, 7, dim)

    def __call__(self, t: Array) -> Array:
        """States at times t, shape (len(t), dim); a time on a step boundary
        is read from the earlier step, as scipy's ``OdeSolution`` does."""
        step = np.clip(np.searchsorted(self.t_old, t, side="left") - 1, 0, self.t_old.size - 1)
        x = (t - self.t_old[step]) / self.h[step]
        return _nested(self.F[step], x[:, None]) + self.y_old[step]

    def clock_inverse(self, levels: Array) -> Array:
        """The times at which the last component, increasing along the run,
        takes the given levels: per level, a bisection of the step whose
        start is the last one at or below it."""
        c0 = self.y_old[:, -1]
        step = np.clip(np.searchsorted(c0, levels, side="right") - 1, 0, c0.size - 1)
        lo, hi = np.zeros(levels.shape), np.ones(levels.shape)
        F, c = self.F[step, :, -1], c0[step]
        for _ in range(_BISECTIONS):
            x = 0.5 * (lo + hi)
            below = _nested(F, x) + c < levels
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
    # the solve's dense output, kept by a rescaled run for its time map
    _dense: _DenseOutput | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0):
            raise DomainError("sample times must be strictly increasing")


def _norm(x: Array) -> float:
    """The 2-norm, summed the way ``np.linalg.norm`` sums."""
    return math.sqrt(x.dot(x))


def _rms(x: Array) -> float:
    """scipy's RMS norm."""
    return _norm(x) / x.size ** 0.5


def _solve(fn: Callable[[Array], Array], z0: Array, cfg: IntegratorConfig, t_end: float,
           until: float | None = None) -> Trajectory:
    """The one adaptive solve: step dz/dt = fn(z) from t = 0 until ``t_end``,
    or until the last component of z reaches ``until``, and sample the dense
    output at ``cfg.samples`` uniform times from 0 to where the run stopped.
    The trajectory keeps the dense output only for a run with ``until``, for
    its time map.  Raises ``StiffnessError`` when the step size underflows,
    ``BudgetError`` before a step that would take the run past MAX_NFEV flow
    evaluations, and ``DomainError`` when the flow, or its scaled norm, is not
    finite at z0."""
    rtol, atol = max(cfg.rtol, 100 * _EPS), cfg.atol
    t, y = 0.0, z0
    f = np.asarray(fn(y), float)
    # the initial step (Hairer, Norsett and Wanner I, II.4); a finite d1
    # rules out a NaN or infinite flow and one whose scaled norm overflows
    scale = atol + np.abs(y) * rtol
    with np.errstate(over="ignore"):
        d0, d1 = _rms(y / scale), _rms(f / scale)
    if not math.isfinite(d1):
        raise DomainError("the flow is not finite at the initial state")
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = _rms((np.asarray(fn(y + h0 * f), float) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t_end)
    t_old, hs, y_old, Ks = [], [], [], []
    rejected = 0
    # rows 0-11: a step's stages; 12: the flow at its end; 13-15: the dense
    # output's stages, which run after the loop on all accepted steps at once
    K = np.empty((16, y.size))
    KT = [K[:s].T for s in range(14)]
    while t < t_end and (until is None or y[-1] < until):
        # the evaluations so far and the next step's 15 (12 stages, 3 for its dense output)
        if 2 + 15 * (len(Ks) + 1) + 12 * rejected > MAX_NFEV:
            last_t, end = (t, t_end) if until is None else (y[-1], until)
            raise BudgetError(f"the integration used its budget of {MAX_NFEV} flow evaluations at "
                              f"t = {last_t:.6g}, short of {end:g}", last_t=last_t)
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        retried = False
        while True:
            if h_abs < min_step:
                raise StiffnessError(f"integration stalled: the step size underflowed at t = {t!r}",
                                     last_t=t, last_state=y)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            # each product rounds as y + K[:s].T.dot(a) * h does
            for s, a in enumerate(_STAGES, start=1):
                d = KT[s].dot(a)
                d *= h
                d += y
                K[s] = fn(d)
            y_new = KT[12].dot(_B)
            y_new *= h
            y_new += y
            K[12] = fn(y_new)
            # the combined 5th/3rd-order error norm
            scale = np.abs(y)
            np.maximum(scale, np.abs(y_new), out=scale)
            scale *= rtol
            scale += atol
            e5 = _norm(KT[13].dot(_E5) / scale) ** 2
            e3 = _norm(KT[13].dot(_E3) / scale) ** 2
            error = 0.0 if e5 == 0 and e3 == 0 else h * e5 / math.sqrt((e5 + 0.01 * e3) * y.size)
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
        Ks.append(K.copy())
        t, y, f = t_new, y_new, K[12].copy()
    accepted = len(Ks)
    dense = _dense_output(fn, np.array(t_old), np.array(hs), np.array(y_old), y, np.array(Ks))
    if until is not None:
        t = float(dense.clock_inverse(np.array([until]))[0])
    samples = np.linspace(0.0, t, cfg.samples)
    return Trajectory(t=samples, states=dense(samples), integrals={},
                      nfev=2 + 12 * (accepted + rejected) + 3 * accepted, accepted=accepted,
                      rejected=rejected, _dense=None if until is None else dense)


def _dense_output(fn: Callable[[Array], Array], t_old: Array, h: Array, y_old: Array, y_end: Array,
                  Ks: Array) -> _DenseOutput:
    """The dense output of N accepted steps from their stages 0-12, Ks of
    shape (N, 16, dim): the three extra stages in one stacked flow call
    each, then the seven coefficients of every step.  Per step, each
    stacked product is the one BLAS call of a single step, so every
    coefficient has the bits of a step-by-step build."""
    hv = h[:, None]
    for s, a in enumerate(_EXTRA, start=13):
        d = np.matmul(Ks[:, :s].transpose(0, 2, 1), a)
        d *= hv
        d += y_old
        Ks[:, s] = fn(d)
    f = Ks[:, 0]
    dy = np.concatenate([y_old[1:], y_end[None]]) - y_old
    F = np.empty((h.size, 7, y_end.size))
    F[:, 0] = dy
    F[:, 1] = hv * f - dy
    F[:, 2] = 2 * dy - hv * (Ks[:, 12] + f)
    F[:, 3:] = h[:, None, None] * np.matmul(_D, Ks)
    return _DenseOutput(t_old, h, y_old, F)


def integrate(fn: Callable[[Array], Array], state0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate dx/dt = fn(x) over [0, horizon] with dense sampling.

    ``fn`` maps states to velocities over the last axis: one state of
    shape (dim,) in the stepping loop, a stack of shape (n, dim) for the
    dense output's stages after it.  The trajectory tracks no
    integrals: a caller evaluates its own once on all samples, as
    ``integrate_sphere`` does, and puts them in ``integrals``.
    """
    x0 = np.asarray(state0, float)
    if not np.all(np.isfinite(x0)):
        raise DomainError("initial state is not finite")
    return _solve(fn, x0, cfg, cfg.horizon)


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
    component, so it inherits the solver's error control.  g > 0 is
    bounded below on the sphere, so the clock reaches the horizon at a
    finite tau.
    """
    field = sys.rescaled_flow

    def z_rhs(z):
        dz = field(z[..., :-1])
        # one state compares a float; a stack, after the loop, its smallest row
        g = dz[-1] if dz.ndim == 1 else np.min(dz[..., -1])
        if g <= _G_FLOOR:
            raise DomainError(f"conformal factor hit g = {g:.3e} <= {_G_FLOOR:.1e}, "
                              f"which stalls the physical clock dt/dtau = g")
        return dz

    traj = _solve(z_rhs, np.append(np.asarray(state0, float), 0.0), cfg, np.inf, cfg.horizon)
    z = traj.states
    # the run stops at the root where the clock equals the horizon; the
    # dense output there can read a few ulps short of it, so record the
    # horizon itself, and a query at the horizon stays inside the run
    z[-1, -1] = cfg.horizon
    return replace(traj, states=z[:, :-1]), z[:, -1]


def map_to_physical_time(traj_tau: Trajectory, t_phys: Array, t_query: Array) -> Array:
    """The states of a rescaled run at physical times: its dense output at
    the tau where its clock reads each queried time."""
    t_query = np.asarray(t_query, float)
    if t_query.max() > t_phys.max() or t_query.min() < t_phys.min():
        raise DomainError("queried times fall outside the rescaled run")
    if traj_tau._dense is None:
        raise DomainError("the trajectory carries no dense output of a rescaled run")
    return traj_tau._dense(traj_tau._dense.clock_inverse(t_query))[:, :-1]


def drift_report(traj: Trajectory) -> dict[str, float]:
    """Per-integral sup of |F(t) - F(0)| / max(1, |F(0)|) over the samples."""
    return {name: float(np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0])))
            for name, vals in traj.integrals.items()}


def trajectory_csv(traj: Trajectory, path,
                   columns: Sequence[str] = ("M1", "M2", "M3", "g1", "g2", "g3")) -> None:
    """Write a trajectory as CSV, full double precision (%.17g).

    Columns: t, the state components under ``columns``, then the tracked
    integrals in their order (H, F1, F2 and the extras for a sphere system).
    """
    order = list(traj.integrals)
    data = np.column_stack([traj.t, traj.states, *(traj.integrals[n] for n in order)])
    row = ",".join(["%.17g"] * data.shape[1])
    write_in_place(path, ",".join(["t", *columns, *order]) + "\n"
                   + "\n".join([row] * len(data)) % tuple(data.ravel().tolist()) + "\n")
