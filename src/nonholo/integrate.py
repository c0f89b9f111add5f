"""Trajectory generation and invariant-drift monitoring.

Integration uses the adaptive Dormand-Prince 5(4) pair (scipy's RK45) with
samples taken from the solver's dense output.  No projection or
renormalization is applied to gamma; the drift of the known first integrals
is the advertised measure of integration quality.

Both runs step through the system's ``flow`` (a closed-form kernel for the
model systems, the reference ``sphere.rhs`` otherwise).  The time-rescaled
run integrates, in the new time tau,

    dx/dtau = rho(gamma) * flow(x),     dt/dtau = rho(gamma),

with the multiplier rho = 1/g, so that t = integral of rho dtau recovers the
physical clock and the mapped trajectory coincides with direct integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .core import DomainError, StiffnessError
from .sphere import ReducedS, SphereSystem, integrals

Array = np.ndarray

# how far, in ulps of the horizon, the clock at the terminal event of a
# rescaled run may miss the horizon and still count as round-off
_CLOCK_ULPS = 64


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    horizon: float = 100.0
    samples: int = 1001
    max_step: float = np.inf

    def __post_init__(self):
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise DomainError("tolerances must be positive")
        if self.horizon <= 0.0:
            raise DomainError("horizon must be positive")


@dataclass(frozen=True)
class Trajectory:
    t: Array                      # (N,), strictly increasing
    states: Array                 # (N, dim)
    integrals: dict[str, Array]   # per-sample values of named first integrals
    nfev: int

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0):
            raise DomainError("sample times must be strictly increasing")


def integrate(fn: Callable[[Array], Array], state0, cfg: IntegratorConfig,
              integral_fns: dict[str, Callable[[Array], float]] | None = None) -> Trajectory:
    """Integrate dx/dt = fn(x) over [0, horizon] with dense sampling."""
    x0 = np.asarray(state0, float)
    if not np.all(np.isfinite(x0)):
        raise DomainError("initial state is not finite")
    t_eval = np.linspace(0.0, cfg.horizon, cfg.samples)
    sol = solve_ivp(lambda t, y: fn(y), (0.0, cfg.horizon), x0, method="RK45",
                    rtol=cfg.rtol, atol=cfg.atol, max_step=cfg.max_step,
                    t_eval=t_eval)
    if not sol.success:
        raise StiffnessError(f"integration stalled: {sol.message}",
                             last_t=float(sol.t[-1]) if sol.t.size else 0.0,
                             last_state=sol.y[:, -1] if sol.t.size else x0)
    states = sol.y.T
    tracked = {}
    if integral_fns:
        for name, f in integral_fns.items():
            tracked[name] = np.array([f(s) for s in states])
    return Trajectory(t=sol.t, states=states, integrals=tracked, nfev=int(sol.nfev))


def integrate_sphere(sys: SphereSystem, state0, cfg: IntegratorConfig) -> Trajectory:
    """Trajectory of a sphere system with its registered integrals tracked:
    H, F1, F2 and the extras, from one ``integrals`` call on all samples."""
    traj = integrate(sys.flow, state0, cfg)
    v = integrals(sys, traj.states)
    tracked = {"H": v.F3, "F1": v.F1, "F2": v.F2, **v.extras}
    return Trajectory(t=traj.t, states=traj.states, integrals=tracked, nfev=traj.nfev)


def integrate_reparametrized(sys: SphereSystem, state0, cfg: IntegratorConfig,
                             g_floor: float = 1e-10) -> tuple[Trajectory, Array]:
    """Integrate in the rescaled time tau until the physical clock reaches
    the horizon.  Returns the tau-trajectory (states only, sampled in tau)
    and the physical times t(tau) of the samples.

    The time map is obtained by co-integrating t as a seventh state
    component, so it inherits the solver's error control.
    """
    spec = sys.s_spec
    if not isinstance(spec, ReducedS):
        raise DomainError("time rescaling needs a reduced S-spec (rho = 1/g)")
    x0 = np.asarray(state0, float)

    def rho_of(gamma):
        g = spec.g(gamma)
        if g <= g_floor:
            raise DomainError(f"conformal factor hit g = {g:.3e} <= {g_floor:.1e}")
        return 1.0 / g

    def z_rhs(t, z):
        r = rho_of(z[3:-1])
        dz = np.empty_like(z)
        np.multiply(sys.flow(z[:-1]), r, out=dz[:-1])
        dz[-1] = r
        return dz

    def reached(t, z):
        return z[-1] - cfg.horizon
    reached.terminal = True
    reached.direction = 1.0

    # rho > 0 is bounded on the sphere, so the horizon in tau is finite.
    # Budgets of tau estimated from the initial multiplier, with a generous
    # margin, are integrated one after another, each continuing from the
    # last state of the one before, until the physical clock reaches it.
    tau_max = 4.0 * cfg.horizon / rho_of(x0[3:]) + 1.0
    n_eval = max(4 * cfg.samples, 8)
    tau0, z0 = 0.0, np.append(x0, 0.0)
    taus, zs, nfev = [], [], 0
    while True:
        tau_eval = np.linspace(tau0, tau0 + tau_max, n_eval)
        sol = solve_ivp(z_rhs, (tau0, tau0 + tau_max), z0, method="RK45",
                        rtol=cfg.rtol, atol=cfg.atol, max_step=cfg.max_step,
                        t_eval=tau_eval, events=reached)
        if not sol.success:
            raise StiffnessError(f"rescaled integration stalled: {sol.message}")
        nfev += sol.nfev
        # each budget after the first repeats the last sample of the one before
        skip = 1 if taus else 0
        taus.append(sol.t[skip:])
        zs.append(sol.y[:, skip:])
        if sol.status == 1:
            break
        tau0, z0 = sol.t[-1], sol.y[:, -1]
    tau, z = np.concatenate(taus), np.concatenate(zs, axis=1)
    keep = z[-1] < cfg.horizon
    tau = np.append(tau[keep], sol.t_events[0][0])
    z = np.concatenate([z[:, keep], sol.y_events[0].T], axis=1)
    # The terminal event puts the clock at the horizon up to the root
    # finder's round-off, which can leave it a few ulps short; record the
    # horizon exactly, so that a query at the horizon stays inside the run.
    if abs(z[-1, -1] - cfg.horizon) <= _CLOCK_ULPS * np.spacing(cfg.horizon):
        z[-1, -1] = cfg.horizon
    traj = Trajectory(t=tau, states=z[:-1].T, integrals={}, nfev=int(nfev))
    return traj, z[-1]


def map_to_physical_time(traj_tau: Trajectory, t_phys: Array, t_query: Array) -> Array:
    """Cubic interpolation of a tau-sampled trajectory onto physical times."""
    t_query = np.asarray(t_query, float)
    if t_query.max() > t_phys.max() or t_query.min() < t_phys.min():
        raise DomainError("queried times fall outside the rescaled run")
    spline = CubicSpline(t_phys, traj_tau.states, axis=0)
    return spline(t_query)


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
    with open(path, "w") as fh:
        fh.write(",".join(["t", *columns, *order]) + "\n")
        for i, t in enumerate(traj.t):
            row = [t, *traj.states[i], *(traj.integrals[n][i] for n in order)]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
