"""Closed-form oracle for the benchmark's verdicts.

Everything here is written from the paper's formulas and imports nothing
from ``nonholo``: the models' Hamiltonians, first integrals and equations
of motion, the rank-4 bracket of the reducing-multiplier construction, the
planar demo system, the gauge action on bracket parameters, and a surface
quadrature finer than the program's.  All functions take stacked states of
shape ``(N, 6)`` packed as ``(M, gamma)`` (``(N, 4)`` = ``(q, P)`` for the
planar system) and return one value per state.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

# The demo models of the command line (see the project README).
BALL_A = (0.4, 0.5, 0.6)
BALL_D = 1.0
VES_AHAT = (0.6, 0.75, 0.9)
GYROSTAT = (0.0, 0.0, 0.1)
DEMO_M = (0.3, -0.2, 0.5)
DEMO_GAMMA = tuple(np.array([1.0, -2.0, 4.0]) / np.sqrt(21.0))
PLANAR_Z0 = (0.2, -0.3, 0.4, 0.1)
FD_STEP = 1e-5   # the program's documented base finite-difference step


def dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def hat(v):
    """Stacked cross-product matrices: hat(v) @ w == v x w."""
    v = np.asarray(v, float)
    z = np.zeros(v.shape[:-1])
    return np.stack([
        np.stack([z, -v[..., 2], v[..., 1]], -1),
        np.stack([v[..., 2], z, -v[..., 0]], -1),
        np.stack([-v[..., 1], v[..., 0], z], -1),
    ], -2)


def split(X):
    X = np.asarray(X, float)
    return X[..., :3], X[..., 3:]


# ---------------------------------------------------------------------------
# the two models
# ---------------------------------------------------------------------------

class Ball:
    """Chaplygin ball on a plane: u = 1/D - (gamma, A gamma),
    H = ((A M, M) + (A M, gamma)^2 / u) / 2, S = (A M, gamma) / u,
    reducing multiplier g = sqrt(u), f = 0, Phi = 0."""

    def __init__(self, A=BALL_A, D=BALL_D, k=(0.0, 0.0, 0.0)):
        self.A = np.asarray(A, float)
        self.D = float(D)
        self.k = np.asarray(k, float)
        self.name = "ball+gyrostat" if np.any(self.k) else "ball"

    def u(self, gam):
        return 1.0 / self.D - dot(gam, self.A * gam)

    def g(self, gam):
        return np.sqrt(self.u(gam))

    def grad_g(self, gam):
        return -(self.A * gam) / self.g(gam)[..., None]

    def f(self, gam):
        return np.zeros(np.shape(gam)[:-1])

    def phi(self, gam):
        return np.zeros(np.shape(gam)[:-1])

    def S(self, M, gam):
        return dot(self.A * M, gam) / self.u(gam)

    def H(self, M, gam):
        am = self.A * M
        return 0.5 * (dot(am, M) + dot(am, gam) ** 2 / self.u(gam))

    def dH(self, M, gam):
        S = self.S(M, gam)[..., None]
        return self.A * M + S * (self.A * gam), S * (self.A * M) + S * S * (self.A * gam)

    def extras(self, M, gam):
        return {} if np.any(self.k) else {"Msq": dot(M, M)}


class Veselova:
    """Veselova body with an optional gyrostat k: G = (gamma, Ahat gamma),
    w = ((Ahat - E) M - k, gamma), H = ((Ahat M, M) - w^2 / G) / 2,
    S = -w / G, g = sqrt(G), f = 1/g, Phi = (k, gamma) / g."""

    def __init__(self, Ahat=VES_AHAT, k=(0.0, 0.0, 0.0)):
        self.Ah = np.asarray(Ahat, float)
        self.k = np.asarray(k, float)
        self.name = "veselova+gyrostat" if np.any(self.k) else "veselova"

    def G(self, gam):
        return dot(gam, self.Ah * gam)

    def g(self, gam):
        return np.sqrt(self.G(gam))

    def grad_g(self, gam):
        return (self.Ah * gam) / self.g(gam)[..., None]

    def f(self, gam):
        return 1.0 / self.g(gam)

    def phi(self, gam):
        return dot(gam, np.broadcast_to(self.k, np.shape(gam))) / self.g(gam)

    def _w(self, M, gam):
        return dot(self.Ah * M - M - self.k, gam)

    def S(self, M, gam):
        return -self._w(M, gam) / self.G(gam)

    def H(self, M, gam):
        return 0.5 * (dot(self.Ah * M, M) - self._w(M, gam) ** 2 / self.G(gam))

    def dH(self, M, gam):
        S = self.S(M, gam)[..., None]
        hm = self.Ah * M + S * (self.Ah * gam - gam)
        hg = S * (self.Ah * M - M - self.k) + S * S * (self.Ah * gam)
        return hm, hg

    def extras(self, M, gam):
        mk = M + self.k
        return {"MkSq" if np.any(self.k) else "Msq": dot(mk, mk)}


def s_vector(model, gam):
    """K = (f gamma - grad g) / g, the M-linear part of S in reduced form."""
    return (model.f(gam)[..., None] * gam - model.grad_g(gam)) / model.g(gam)[..., None]


def reduced_S(model, M, gam):
    """S rebuilt from the multiplier data: (K, M) + Phi / g."""
    return dot(s_vector(model, gam), M) + model.phi(gam) / model.g(gam)


def rhs(model, X):
    """dM/dt = (M + k - S gamma) x dH/dM + gamma x dH/dgamma, dgamma/dt = gamma x dH/dM."""
    M, gam = split(X)
    hm, hg = model.dH(M, gam)
    S = model.S(M, gam)[..., None]
    Mdot = np.cross(M + model.k - S * gam, hm) + np.cross(gam, hg)
    return np.concatenate([Mdot, np.cross(gam, hm)], -1)


def integrals(model, X):
    """gamma^2, (M + k, gamma), H and the model's extra integrals."""
    M, gam = split(X)
    out = {"H": model.H(M, gam), "F1": dot(gam, gam), "F2": dot(M + model.k, gam)}
    out.update(model.extras(M, gam))
    return out


def bracket_matrix(M, gam, g, S, k):
    """P = g [[hat(M + k), hat(gamma)], [hat(gamma), 0]] - g S [[hat(gamma), 0], [0, 0]]."""
    G = hat(gam)
    g = np.asarray(g, float)[..., None, None]
    S = np.asarray(S, float)[..., None, None]
    top = np.concatenate([g * hat(M + k) - g * S * G, g * G], -1)
    bottom = np.concatenate([g * G, np.zeros_like(G)], -1)
    return np.concatenate([top, bottom], -2)


def bracket(model, X):
    M, gam = split(X)
    return bracket_matrix(M, gam, model.g(gam), reduced_S(model, M, gam), model.k)


def gf_bracket(model, X):
    """The bracket of the multiplier pair (g, f) alone: k = 0 and Phi = 0."""
    M, gam = split(X)
    return bracket_matrix(M, gam, model.g(gam), dot(s_vector(model, gam), M), np.zeros(3))


def e3_bracket(X):
    M, gam = split(X)
    return bracket_matrix(M, gam, np.ones(M.shape[:-1]), np.zeros(M.shape[:-1]), np.zeros(3))


def negative_control_bracket(X):
    """g = 1 with the ball's S-vector K = A gamma / u: a structure whose
    measure does not match, so it violates the Jacobi identity."""
    ball = Ball()
    M, gam = split(X)
    return bracket_matrix(M, gam, np.ones(M.shape[:-1]), ball.S(M, gam), np.zeros(3))


def conformal_residual(model, X):
    """max |rhs - (1/g) P grad H| per state; zero for the reducing multiplier."""
    M, gam = split(X)
    hm, hg = model.dH(M, gam)
    grad = np.concatenate([hm, hg], -1)
    Pg = np.einsum("nij,nj->ni", bracket(model, X), grad) / model.g(gam)[..., None]
    return np.max(np.abs(rhs(model, X) - Pg), -1)


def measure_residual(model, X):
    """((1/rho) drho/dgamma - K) x gamma for rho = 1/g and the model's S-vector."""
    M, gam = split(X)
    dlog_rho = -model.grad_g(gam) / model.g(gam)[..., None]
    # the S-vector K with S = (K, M) + offset, read off the closed-form S
    K = np.stack([model.S(np.broadcast_to(e, M.shape), gam) - model.S(np.zeros_like(M), gam)
                  for e in np.eye(3)], -1)
    return np.max(np.abs(np.cross(dlog_rho - K, gam)), -1)


def jacobiator(P, X, step=FD_STEP):
    """Per-state max of the cyclic sum P[l,i] d_l P[j,k] + cyclic, with
    central differences of step ``step * max(1, |x|)``."""
    X = np.asarray(X, float)
    n = X.shape[-1]
    h = step * np.maximum(1.0, np.linalg.norm(X, axis=-1))
    dP = []
    for l in range(n):
        e = np.zeros(n)
        e[l] = 1.0
        dP.append((P(X + h[:, None] * e) - P(X - h[:, None] * e)) / (2.0 * h[:, None, None]))
    dP = np.stack(dP, 1)                       # [state, l, i, j]
    T = np.einsum("nli,nljk->nijk", P(X), dP)
    J = T + T.transpose(0, 2, 3, 1) + T.transpose(0, 3, 1, 2)
    return np.max(np.abs(J), axis=(1, 2, 3))


def duality_defect(X, D=1.0):
    """H_ball - M^2/(2D) + H_veselova / D for the dual ball A = (E - Ahat) / D,
    and g_ball - g_veselova / sqrt(D); both vanish identically."""
    ves = Veselova()
    ball = Ball(A=(1.0 - ves.Ah) / D, D=D)
    M, gam = split(X)
    h = np.abs(ball.H(M, gam) - 0.5 / D * dot(M, M) + ves.H(M, gam) / D)
    g = np.abs(ball.g(gam) - ves.g(gam) / np.sqrt(D))
    return h, g


def dop853(fn, x0, horizon, samples):
    """Reference trajectory of dx/dt = fn(x) by DOP853 at tight tolerances
    (an integrator the program does not use), sampled on the program's
    uniform grid."""
    t = np.linspace(0.0, horizon, samples)
    sol = solve_ivp(lambda _t, y: fn(y), (0.0, horizon), np.asarray(x0, float),
                    method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t)
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol.y.T


def integrate_direct(model, x0, horizon=100.0, samples=1001):
    return dop853(lambda y: rhs(model, y[None])[0], x0, horizon, samples)


def relative_drift(values):
    """sup |F(t) - F(0)| / max(1, |F(0)|), the program's documented drift."""
    values = np.asarray(values, float)
    return float(np.max(np.abs(values - values[0])) / max(1.0, abs(values[0])))


# ---------------------------------------------------------------------------
# planar demo: N = exp(q1), A1 = 0, A2 = 1, B = cos(q2) / 2, V = cos q1 + sin q2
# ---------------------------------------------------------------------------

def planar_energy(Z):
    Z = np.asarray(Z, float)
    q, P = Z[..., :2], Z[..., 2:]
    return 0.5 * dot(P, P) + np.cos(q[..., 0]) + np.sin(q[..., 1])


def planar_rhs(Z):
    Z = np.asarray(Z, float)
    q1, q2, P1, P2 = np.moveaxis(Z, -1, 0)
    S = P2 + 0.5 * np.cos(q2)                  # A1 P1 + A2 P2 + B
    return np.stack([P1, P2, np.sin(q1) + P2 * S, -np.cos(q2) - P1 * S], -1)


def planar_conformal_residual(Z):
    """With p = N P the flow equals N times the Hamiltonian field of
    Hbar(q, p) = H(q, p / N) for {q_i, p_j} = delta_ij, {p1, p2} = N B."""
    Z = np.asarray(Z, float)
    q1, q2, P1, P2 = np.moveaxis(Z, -1, 0)
    N = np.exp(q1)
    v = planar_rhs(Z)
    pdot1 = N * v[..., 2] + N * v[..., 0] * P1      # d(N P)/dt, dN/dq = (N, 0)
    pdot2 = N * v[..., 3] + N * v[..., 0] * P2
    # partials of Hbar = |p|^2 / (2 N^2) + V at p = N P
    dHdp1, dHdp2 = P1 / N, P2 / N
    dHdq1 = -np.sin(q1) - (P1 * P1 + P2 * P2)
    dHdq2 = np.cos(q2)
    nb = N * 0.5 * np.cos(q2)
    X = np.stack([dHdp1, dHdp2, -dHdq1 + nb * dHdp2, -dHdq2 - nb * dHdp1], -1)
    lhs = np.stack([v[..., 0], v[..., 1], pdot1, pdot2], -1)
    return np.max(np.abs(lhs - N[..., None] * X), -1)


def planar_bracket(Z):
    Z = np.asarray(Z, float)
    nb = np.exp(Z[..., 0]) * 0.5 * np.cos(Z[..., 1])
    P = np.zeros(Z.shape[:-1] + (4, 4))
    P[..., 0, 2] = P[..., 1, 3] = 1.0
    P[..., 2, 0] = P[..., 3, 1] = -1.0
    P[..., 2, 3] = nb
    P[..., 3, 2] = -nb
    return P


def integrate_planar(z0=PLANAR_Z0, horizon=100.0, samples=1001):
    return dop853(planar_rhs, z0, horizon, samples)


# ---------------------------------------------------------------------------
# gauge action (alpha, c, h) on states and on the multiplier pair (g, f)
# ---------------------------------------------------------------------------

class Gauge:
    """A fiberwise transform given by closed forms of alpha, grad alpha,
    h and curl h (all functions of gamma) and the constant c."""

    def __init__(self, alpha, grad_alpha, c, h, curl_h):
        self.alpha, self.grad_alpha, self.c, self.h, self.curl_h = alpha, grad_alpha, c, h, curl_h

    def state(self, X):
        """M -> alpha M_perp + c M_par + M_par x h, gamma unchanged."""
        M, gam = split(X)
        m_par = dot(M, gam)[..., None] * gam
        Mt = self.alpha(gam)[..., None] * (M - m_par) + self.c * m_par + np.cross(m_par, self.h(gam))
        return np.concatenate([Mt, gam], -1)

    def then(self, t2):
        """First self, then t2: (a1 a2, c1 c2, a2 h1 + c1 h2)."""
        t1 = self
        return Gauge(
            alpha=lambda g: t1.alpha(g) * t2.alpha(g),
            grad_alpha=lambda g: (t2.alpha(g)[..., None] * t1.grad_alpha(g)
                                  + t1.alpha(g)[..., None] * t2.grad_alpha(g)),
            c=t1.c * t2.c,
            h=lambda g: t2.alpha(g)[..., None] * t1.h(g) + t1.c * t2.h(g),
            curl_h=lambda g: (t2.alpha(g)[..., None] * t1.curl_h(g)
                              + np.cross(t2.grad_alpha(g), t1.h(g)) + t1.c * t2.curl_h(g)),
        )

    def push(self, gam, g, grad_g, f):
        """Image (g~, grad g~, f~) of the multiplier pair at gamma:
        g~ = alpha g and
        f~ = (alpha^2/c) f + (alpha/c - 1)(g~ - (gamma, grad g~))
             + (gamma, g~ grad alpha + g~^2 curl(h / g~)) / c."""
        a, da, c = self.alpha(gam), self.grad_alpha(gam), self.c
        gt = a * g
        dgt = g[..., None] * da + a[..., None] * grad_g
        curl = self.curl_h(gam) / gt[..., None] - np.cross(dgt, self.h(gam)) / (gt * gt)[..., None]
        ft = (a * a / c) * f + (a / c - 1.0) * (gt - dot(gam, dgt)) \
            + dot(gam, gt[..., None] * da + (gt * gt)[..., None] * curl) / c
        return gt, dgt, ft


def gauge_suite_transforms():
    """The two transforms the command line's gauge suite composes."""
    def zeros(g):
        return np.zeros(np.shape(g))

    t1 = Gauge(
        alpha=lambda g: 1.2 + 0.3 * g[..., 0] + 0.1 * g[..., 1] ** 2,
        grad_alpha=lambda g: np.stack([np.full(g.shape[:-1], 0.3), 0.2 * g[..., 1],
                                       np.zeros(g.shape[:-1])], -1),
        c=1.7,
        h=lambda g: np.stack([0.2 * g[..., 1], -0.1 * g[..., 2] ** 2, 0.3 * g[..., 0] * g[..., 1]], -1),
        curl_h=lambda g: np.stack([0.3 * g[..., 0] + 0.2 * g[..., 2], -0.3 * g[..., 1],
                                   np.full(g.shape[:-1], -0.2)], -1),
    )
    t2 = Gauge(
        alpha=lambda g: 0.9 + 0.2 * g[..., 2],
        grad_alpha=lambda g: np.stack([np.zeros(g.shape[:-1]), np.zeros(g.shape[:-1]),
                                       np.full(g.shape[:-1], 0.2)], -1),
        c=0.8,
        h=lambda g: np.stack([0.1 * g[..., 0], 0.05 * g[..., 1], -0.2 * g[..., 2]], -1),
        curl_h=zeros,
    )
    return t1, t2


def gauge_suite_defects(X):
    """Per state: the composition defect on states and the action defect
    on the ball's multiplier pair (g, f = 0)."""
    t1, t2 = gauge_suite_transforms()
    t21 = t1.then(t2)
    comp = np.max(np.abs(t2.state(t1.state(X)) - t21.state(X)), -1)
    _, gam = split(X)
    ball = Ball()
    base = (ball.g(gam), ball.grad_g(gam), np.zeros(gam.shape[:-1]))
    g1, dg1, f1 = t1.push(gam, *base)
    g2, _, f2 = t2.push(gam, g1, dg1, f1)
    g3, _, f3 = t21.push(gam, *base)
    return comp, np.maximum(np.abs(g2 - g3), np.abs(f2 - f3))


# ---------------------------------------------------------------------------
# reduction to e(3)
# ---------------------------------------------------------------------------

def curl_target(model, gam):
    """F = -(alpha^2 f + alpha + (gamma, grad alpha)) with alpha = 1/g."""
    g = model.g(gam)
    da = -model.grad_g(gam) / (g * g)[..., None]
    return -(model.f(gam) / (g * g) + 1.0 / g + dot(gam, da))


def sphere_points(ntheta=96, nphi=193):
    """Gauss-Legendre x trapezoid nodes and weights on the unit sphere."""
    x, w = np.polynomial.legendre.leggauss(ntheta)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    s = np.sqrt(1.0 - x * x)
    pts = np.stack([s[:, None] * np.cos(phi), s[:, None] * np.sin(phi),
                    np.broadcast_to(x[:, None], (ntheta, nphi))], -1)
    weights = np.broadcast_to(w[:, None] * (2.0 * np.pi / nphi), (ntheta, nphi))
    return pts.reshape(-1, 3), weights.reshape(-1)


def reduction_constant(model):
    """c = -mean of F over the sphere, from a quadrature finer than the program's."""
    pts, w = sphere_points()
    return float(-(w @ curl_target(model, pts)) / (4.0 * np.pi))


def _vector_field_at(h, pts):
    return np.array([np.asarray(h(p), float) for p in pts])


def jacobian_fd(fn, pts, step):
    """J[n, i, j] = d fn_i / d x_j at stacked points, by central differences
    with one Richardson step; fn maps (n, 3) to (n, 3)."""
    def central(d):
        cols = []
        for j in range(3):
            e = np.zeros(3)
            e[j] = d
            cols.append((fn(pts + e) - fn(pts - e)) / (2.0 * d))
        return np.stack(cols, -1)
    return (4.0 * central(step / 2.0) - central(step)) / 3.0


def curl_fd(h, pts, step=1e-4):
    """curl h at stacked points; h maps one point of R^3 to R^3."""
    J = jacobian_fd(lambda P: _vector_field_at(h, P), pts, step)
    return np.stack([J[:, 2, 1] - J[:, 1, 2], J[:, 0, 2] - J[:, 2, 0], J[:, 1, 0] - J[:, 0, 1]], -1)


def reduction_defects(model, c, h, X, step=1e-5):
    """At states X, for the transform alpha = 1/g, c, h of a reduction:
    the curl-equation residual (gamma, curl h) - F - c, and the entrywise
    deviation of the pushed bracket J P J^T from e(3) at the image state.
    ``h`` is a point function; the state Jacobian's gamma block is taken
    by Richardson central differences."""
    M, gam = split(X)
    resid = np.abs(dot(gam, curl_fd(h, gam)) - curl_target(model, gam) - c)
    gauge = Gauge(alpha=lambda g: 1.0 / model.g(g), grad_alpha=None, c=c,
                  h=lambda g: _vector_field_at(h, np.atleast_2d(g)).reshape(np.shape(g)),
                  curl_h=None)

    def mapped_M(g):
        return gauge.state(np.concatenate([M, g], -1))[..., :3]

    n = X.shape[0]
    a = gauge.alpha(gam)
    gh = np.cross(gam, gauge.h(gam))
    J = np.zeros((n, 6, 6))
    J[:, :3, :3] = (a[:, None, None] * np.eye(3) + (c - a)[:, None, None] * np.einsum("ni,nj->nij", gam, gam)
                    + np.einsum("ni,nj->nij", gh, gam))
    J[:, :3, 3:] = jacobian_fd(mapped_M, gam, step)
    J[:, 3:, 3:] = np.eye(3)
    pushed = J @ gf_bracket(model, X) @ J.transpose(0, 2, 1)
    dev = np.max(np.abs(pushed - e3_bracket(gauge.state(X))), axis=(1, 2))
    return resid, dev
