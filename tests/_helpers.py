"""Shared test utilities."""

import numpy as np

from symparc import _rk8
from symparc.integrator import ArkStepper, PhaseState, SplitForceSystem, StageSolveConfig
from symparc.tableaux import ArkScheme, Variant


def harmonic_system(omega: float, dimension: int = 1) -> SplitForceSystem:
    return SplitForceSystem(dimension=dimension,
                            omega_sq=np.full(dimension, omega * omega))


def scaled_stability_map(m: np.ndarray, omega: float) -> np.ndarray:
    """Undo the (q, p/omega) scaling: the physical one-step map on (q, p)."""
    d = np.diag([1.0, omega])
    return d @ m @ np.linalg.inv(d)


def flow_jacobian_fd(step_fn, state: PhaseState, h: float, eps: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of the one-step map on (q, p)."""
    d = state.dimension
    jac = np.empty((2 * d, 2 * d))
    base = np.concatenate([state.q, state.p])
    for j in range(2 * d):
        zp = base.copy()
        zm = base.copy()
        zp[j] += eps
        zm[j] -= eps
        sp_ = step_fn(PhaseState(q=zp[:d], p=zp[d:], t=state.t), h)
        sm = step_fn(PhaseState(q=zm[:d], p=zm[d:], t=state.t), h)
        jac[:, j] = (np.concatenate([sp_.q, sp_.p]) - np.concatenate([sm.q, sm.p])) / (2 * eps)
    return jac


def symplectic_residual(jac: np.ndarray) -> float:
    """max-norm of J^T S J - S with S the canonical symplectic matrix."""
    n = jac.shape[0] // 2
    s = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    return float(np.max(np.abs(jac.T @ s @ jac - s)))


def singular_at_one() -> ArkScheme:
    """A scheme whose stage block [[1, -h], [-h w, 1]] is singular at h^2 w = 1,
    i.e. the stability block S(mu) at mu = h*omega = +-1."""
    return ArkScheme(
        s1=1, s2=1,
        a=[[0.5]], a_hat=[[0.5]], a_tilde=[[1.0]], a_tilde_hat=[[-1.0]],
        b=[1.0], c=[0.5], b_tilde=[1.0], c_tilde=[0.5],
        order=1, variant=Variant.INTERPOLATION)


def tight_config(mode=None) -> StageSolveConfig:
    return StageSolveConfig(tolerance=1e-14, max_iterations=200, mode=mode)


def textbook_rk8(system: SplitForceSystem, state0: PhaseState, duration: float,
                 n_steps: int) -> np.ndarray:
    """The order-8 Dormand-Prince loop as written in the textbook: fresh
    arrays everywhere, forces through the system's public accessors."""
    d = state0.dimension
    h = duration / n_steps

    def rhs(y):
        q = y[:d]
        return np.concatenate([y[d:], system.slow_force(q) + system.fast_force(q)])

    y = np.concatenate([state0.q, state0.p])
    for _ in range(n_steps):
        k = np.zeros((_rk8.N_STAGES, 2 * d))
        for i in range(_rk8.N_STAGES):
            k[i] = rhs(y + h * (_rk8.A[i, :i] @ k[:i]))
        y = y + h * (_rk8.B @ k)
    return y


def slicing_extensions(q, ell: int):
    """Spring elongations of the chain, written out spring by spring."""
    qs = q[..., :ell]
    qf = q[..., ell:]
    e = np.empty(q.shape[:-1] + (ell + 1,))
    e[..., 0] = qs[..., 0] - qf[..., 0]
    if ell > 1:
        e[..., 1:ell] = qs[..., 1:] - qf[..., 1:] - qs[..., :-1] - qf[..., :-1]
    e[..., ell] = qs[..., -1] + qf[..., -1]
    return e


def slicing_quartic_potential(q, ell: int):
    e = slicing_extensions(q, ell)
    e *= e
    return 0.25 * np.sum(e * e, axis=-1)


def slicing_slow_force(q, ell: int):
    """The chain's slow force, each spring's pull and push written out."""
    e = slicing_extensions(q, ell)
    g = e * e
    g *= e
    out = np.empty_like(q)
    fs = out[..., :ell]
    ff = out[..., ell:]
    fs[..., :ell - 1] = g[..., 1:ell] - g[..., :ell - 1]
    fs[..., ell - 1] = -g[..., ell - 1] - g[..., ell]
    ff[..., :ell - 1] = g[..., 1:ell] + g[..., :ell - 1]
    ff[..., ell - 1] = g[..., ell - 1] - g[..., ell]
    return out


def scalar_bisect(fn, lo, hi, f_lo, tol=1e-10, max_iter=200):
    """One bracket at a time: the reference for the lock-step bisection."""
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
