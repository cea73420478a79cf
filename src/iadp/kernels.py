"""Hot numeric kernels of the closed loop, in plain numpy.

All kernels operate on float64 arrays and tiny dimensions (n=2, N=6 for
the default pendulum setup). Callers look them up through the module
(``kernels.saturated_control(...)``) so per-call tracing can wrap them.
"""

import numpy as np

# argument clamp for atanh: |v/beta| is kept off the boundary
ATANH_MARGIN = 1e-9


def monomial_eval(exponents, x):
    """Evaluate monomial features prod_i x_i**e_i for each row of exponents."""
    N, n = exponents.shape
    out = np.ones(N)
    for k in range(N):
        for i in range(n):
            e = exponents[k, i]
            if e > 0:
                out[k] *= x[i] ** e
    return out


def monomial_grad(exponents, x):
    """Gradient rows of the monomial features; exact for integer exponents."""
    N, n = exponents.shape
    out = np.zeros((N, n))
    for k in range(N):
        for j in range(n):
            e = exponents[k, j]
            if e == 0:
                continue
            g = float(e)
            for i in range(n):
                ei = exponents[k, i]
                if i == j:
                    if ei > 1:
                        g *= x[i] ** (ei - 1)
                else:
                    if ei > 0:
                        g *= x[i] ** ei
            out[k, j] = g
    return out


def saturated_control(gmat, gphi, w, beta):
    """u = -beta * tanh(g^T (grad_phi^T w) / (2 beta)), clamped off +-beta."""
    z = gmat.T @ (gphi.T @ w) / (2.0 * beta)
    u = -beta * np.tanh(z)
    lim = beta - 1e-12
    return np.clip(u, -lim, lim)


def penalty_sat(v, beta):
    """Saturation penalty 2*b*v*atanh(v/b) + b^2*log(1 - v^2/b^2), summed."""
    total = 0.0
    for j in range(v.shape[0]):
        s = v[j] / beta
        if s > 1.0 - ATANH_MARGIN:
            s = 1.0 - ATANH_MARGIN
        elif s < -1.0 + ATANH_MARGIN:
            s = -1.0 + ATANH_MARGIN
        total += beta * beta * (2.0 * s * np.arctanh(s) + np.log1p(-s * s))
    return total


def weight_derivative_kernel(w, Y, theta, Yb, thetab, gamma, k_c, k_e):
    """Off-policy critic update: gradient of the current + replayed residuals.

    Replay residuals are recomputed against the live weights, so the
    returned vector is -Gamma * grad_w of
    0.5*k_c*(theta + w.Y)^2 + 0.5*k_e*sum_l (theta_l + w.Y_l)^2.
    """
    acc = k_c * (theta + w @ Y) * Y
    for l in range(Yb.shape[0]):
        acc = acc + k_e * (thetab[l] + w @ Yb[l]) * Yb[l]
    return -(gamma @ acc)


def _pendulum_rhs(x, u0, p, dist, t):
    """RHS of the parametric pendulum family.

    p = [a, b, c, g2, k1, k2] encodes f = [a*x2, b*sin(x1) + c*x2],
    g = [0, g2], k = [k1, k2]. dist = [w1, w2, sq_on, A, period, t_on, t_off]
    encodes the scalar disturbance d = w1*x1*sin(w2*x2) + square(t).
    """
    d = dist[0] * x[0] * np.sin(dist[1] * x[1])
    if dist[2] != 0.0 and dist[5] <= t < dist[6]:
        phase = (t - dist[5]) % dist[4]
        d += dist[3] if phase < 0.5 * dist[4] else -dist[3]
    out = np.empty(2)
    out[0] = p[0] * x[1] + p[4] * d
    out[1] = p[1] * np.sin(x[0]) + p[2] * x[1] + p[3] * u0 + p[5] * d
    return out


def pendulum_rk4(x, u0, p, dist, t, dt):
    """Classical RK4 step of the parametric pendulum under zero-order hold."""
    k1 = _pendulum_rhs(x, u0, p, dist, t)
    k2 = _pendulum_rhs(x + 0.5 * dt * k1, u0, p, dist, t + 0.5 * dt)
    k3 = _pendulum_rhs(x + 0.5 * dt * k2, u0, p, dist, t + 0.5 * dt)
    k4 = _pendulum_rhs(x + dt * k3, u0, p, dist, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
