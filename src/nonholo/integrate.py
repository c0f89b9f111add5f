"""Trajectory generation and invariant-drift monitoring.

Each run is one adaptive Dormand-Prince 5(4) solve (scipy's RK45, in
``_solve``): the direct run steps to the horizon, the rescaled run steps
open-ended in tau until its clock event t = horizon, and both sample the
dense output at ``samples`` uniform times.  No projection or renormalization
is applied to gamma; the drift of the known first integrals is the
advertised measure of integration quality.

Both runs step through the system's ``flow`` (a closed-form kernel for the
model systems, the reference ``sphere.rhs`` otherwise).  The time-rescaled
run integrates, in the new time tau,

    dx/dtau = rho(gamma) * flow(x),     dt/dtau = rho(gamma),

with the multiplier rho = 1/g, so that t = integral of rho dtau recovers the
physical clock and the mapped trajectory coincides with direct integration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
# the smallest conformal factor g a rescaled run accepts: rho = 1/g <= 1e10
_G_FLOOR = 1e-10


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
        if self.samples < 2:
            raise DomainError(f"samples must be at least 2, got {self.samples}")


@dataclass(frozen=True)
class Trajectory:
    t: Array                      # (N,), strictly increasing
    states: Array                 # (N, dim)
    integrals: dict[str, Array]   # per-sample values of named first integrals
    nfev: int

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0):
            raise DomainError("sample times must be strictly increasing")


def _solve(fn: Callable[[Array], Array], z0: Array, cfg: IntegratorConfig, t_end: float,
           event: Callable[[float, Array], float] | None = None):
    """The one adaptive solve: step dz/dt = fn(z) from t = 0 until ``t_end``
    or a terminal ``event``, keeping the dense output for sampling."""
    sol = solve_ivp(lambda t, z: fn(z), (0.0, t_end), z0, method="RK45",
                    rtol=cfg.rtol, atol=cfg.atol, max_step=cfg.max_step,
                    dense_output=True, events=event)
    if not sol.success:
        raise StiffnessError(f"integration stalled: {sol.message}",
                             last_t=float(sol.t[-1]), last_state=sol.y[:, -1])
    return sol


def integrate(fn: Callable[[Array], Array], state0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate dx/dt = fn(x) over [0, horizon] with dense sampling.

    ``fn`` maps one state to its velocity.  The trajectory tracks no
    integrals: a caller evaluates its own once on all samples, as
    ``integrate_sphere`` does, and puts them in ``integrals``.
    """
    x0 = np.asarray(state0, float)
    if not np.all(np.isfinite(x0)):
        raise DomainError("initial state is not finite")
    sol = _solve(fn, x0, cfg, cfg.horizon)
    t = np.linspace(0.0, cfg.horizon, cfg.samples)
    return Trajectory(t=t, states=sol.sol(t).T, integrals={}, nfev=int(sol.nfev))


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
    bounded below on the sphere, so the clock event comes at a finite tau.
    """
    spec = sys.s_spec
    if not isinstance(spec, ReducedS):
        raise DomainError("time rescaling needs a reduced S-spec (rho = 1/g)")

    def z_rhs(z):
        g = spec.g(z[3:-1])
        if g <= _G_FLOOR:
            raise DomainError(f"conformal factor hit g = {g:.3e} <= {_G_FLOOR:.1e}")
        r = 1.0 / g
        dz = np.empty_like(z)
        np.multiply(sys.flow(z[:-1]), r, out=dz[:-1])
        dz[-1] = r
        return dz

    def reached(tau, z):
        return z[-1] - cfg.horizon
    reached.terminal = True
    reached.direction = 1.0

    sol = _solve(z_rhs, np.append(np.asarray(state0, float), 0.0), cfg, np.inf, reached)
    tau = np.linspace(0.0, sol.t[-1], cfg.samples)
    z = sol.sol(tau)
    # The terminal event puts the clock at the horizon up to the root
    # finder's round-off, which can leave it a few ulps short; record the
    # horizon exactly, so that a query at the horizon stays inside the run.
    if abs(z[-1, -1] - cfg.horizon) <= _CLOCK_ULPS * np.spacing(cfg.horizon):
        z[-1, -1] = cfg.horizon
    return Trajectory(t=tau, states=z[:-1].T, integrals={}, nfev=int(sol.nfev)), z[-1]


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
    np.savetxt(path, np.column_stack([traj.t, traj.states, *(traj.integrals[n] for n in order)]),
               fmt="%.17g", delimiter=",", header=",".join(["t", *columns, *order]), comments="")
