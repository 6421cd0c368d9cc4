"""Shared test utilities."""

import numpy as np

from symparc import _rk8
from symparc.integrator import (
    ArkStepper,
    NonconvergenceError,
    PhaseState,
    SplitForceSystem,
    StageSolveConfig,
    StageSolveError,
)
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


def textbook_lawson_rk8(system: SplitForceSystem, state0: PhaseState, duration: float,
                        n_steps: int) -> np.ndarray:
    """Lawson's integrating-factor form of the same tableau, as written in the
    textbook: with L the linear part (q' = p, p' = -Omega^2 q) and
    N(y) = (0, F1(q)),

        Y_i     = exp(c_i h L) (y_n + h sum_j a_ij exp(-c_j h L) N(Y_j))
        y_{n+1} = exp(h L) (y_n + h sum_j b_j exp(-c_j h L) N(Y_j)),

    with fresh arrays everywhere, the slow force through the system's public
    accessor and every rotation recomputed from cos and sin where it is used."""
    d = state0.dimension
    h = duration / n_steps
    omega = np.sqrt(system.omega_sq)

    def flow(y, t):
        """exp(t L) y: a rotation per coordinate, free flight where omega = 0."""
        q, p = y[:d], y[d:]
        cos, sin = np.cos(omega * t), np.sin(omega * t)
        sin_over_omega = np.array([s / w if w > 0 else t for s, w in zip(sin, omega)])
        return np.concatenate([cos * q + sin_over_omega * p, -omega * sin * q + cos * p])

    def slow(y):
        return np.concatenate([np.zeros(d), system.slow_force(y[:d])])

    y = np.concatenate([state0.q, state0.p])
    for _ in range(n_steps):
        k = np.zeros((_rk8.N_STAGES, 2 * d))
        for i in range(_rk8.N_STAGES):
            stage = flow(y + h * (_rk8.A[i, :i] @ k[:i]), _rk8.C[i] * h)
            k[i] = flow(slow(stage), -_rk8.C[i] * h)
        y = flow(y + h * (_rk8.B @ k), h)
    return y


def textbook_linear_stage_step(scheme: ArkScheme, system: SplitForceSystem,
                               state: PhaseState, h: float,
                               config: StageSolveConfig | None = None):
    """One linearly-implicit step as written in the textbook.

    Each pass solves the full stage block [[I, -h At], [h w AtH, I]] of
    every coordinate with np.linalg.solve for (Qt, P), with the right-hand
    side (q0, p0 + h Ahat F1) built afresh, then sets Q = q0 + h a P and
    F1 = F1(Q); F2 is -Omega^2 Qt.  The start is the engine's: one such
    solve with F1(q0) at every stage, not counted as a pass.  The
    convergence test (max |Q_new - Q| against tolerance * max(1, |q0|,
    |p0|)) and the divergence bound are the engine's too.  A batch (n, d)
    is stepped member by member.  Returns (q1, p1, Q, P, Qt, iterations),
    iterations being the largest over the members; raises
    NonconvergenceError naming every member that failed.
    """
    cfg = config if config is not None else StageSolveConfig()
    if state.q.ndim == 2:
        return _member_by_member(textbook_linear_stage_step, scheme, system, state, h, cfg)
    s1, s2 = scheme.s1, scheme.s2
    q0, p0, w = state.q, state.p, system.omega_sq
    d = len(q0)
    scale = max(1.0, float(np.max(np.abs(q0))), float(np.max(np.abs(p0))))

    def solve(F1):
        """(Q, P, Qt) from the block solve with the slow forces F1 held fixed."""
        Qt, P = np.empty((s2, d)), np.empty((s1, d))
        for k in range(d):
            block = np.block([[np.eye(s2), -h * scheme.a_tilde],
                              [h * w[k] * scheme.a_tilde_hat, np.eye(s1)]])
            rhs = np.concatenate([np.full(s2, q0[k]), p0[k] + h * (scheme.a_hat @ F1[:, k])])
            sol = np.linalg.solve(block, rhs)
            Qt[:, k], P[:, k] = sol[:s2], sol[s2:]
        return q0 + h * (scheme.a @ P), P, Qt

    Q = solve(np.tile(system.slow_force(q0), (s1, 1)))[0]
    F1 = system.slow_force(Q)
    for iteration in range(1, cfg.max_iterations + 1):
        if not np.all(np.isfinite(F1)):
            raise NonconvergenceError("force evaluation returned NaN/Inf", members=(0,))
        Q_new, P, Qt = solve(F1)
        residual = float(np.max(np.abs(Q_new - Q)))
        Q = Q_new
        F1 = system.slow_force(Q)
        if residual <= cfg.tolerance * scale:
            break
        if residual > 1e12 * scale:
            raise NonconvergenceError("diverged", members=(0,))
    else:
        raise NonconvergenceError("no convergence", members=(0,))
    q1 = q0 + h * (scheme.b @ P)
    p1 = p0 + h * (scheme.b @ F1 + scheme.b_tilde @ (-w * Qt))
    return q1, p1, Q, P, Qt, iteration


def textbook_fixed_point_step(scheme: ArkScheme, system: SplitForceSystem,
                              state: PhaseState, h: float,
                              config: StageSolveConfig | None = None):
    """One plain fixed-point step as written in the textbook.

    Each pass sets P = p0 + h (Ahat F1 + AtH F2) from the forces of the
    previous pass, then Q = q0 + h a P, Qt = q0 + h At P, F1 = F1(Q) and
    F2 = F2(Qt), all with fresh arrays.  The start is the engine's: these
    stages from F1(q0) and F2(q0) at every stage, not counted as a pass.
    The convergence test (max |P_new - P|, |Q_new - Q|, |Qt_new - Qt|
    against tolerance * max(1, |q0|, |p0|)) and the divergence bound are
    the engine's too.  A batch (n, d) is stepped member by member.  Returns
    (q1, p1, Q, P, Qt, iterations), iterations being the largest over the
    members; raises NonconvergenceError naming every member that failed.
    """
    cfg = config if config is not None else StageSolveConfig()
    if state.q.ndim == 2:
        return _member_by_member(textbook_fixed_point_step, scheme, system, state, h, cfg)
    q0, p0 = state.q, state.p
    scale = max(1.0, float(np.max(np.abs(q0))), float(np.max(np.abs(p0))))

    def stages(F1, F2):
        """(P, Q, Qt) from the forces F1 and F2 of the previous pass."""
        P = p0 + h * (scheme.a_hat @ F1 + scheme.a_tilde_hat @ F2)
        return P, q0 + h * (scheme.a @ P), q0 + h * (scheme.a_tilde @ P)

    P, Q, Qt = stages(np.tile(system.slow_force(q0), (scheme.s1, 1)),
                      np.tile(system.fast_force(q0), (scheme.s2, 1)))
    F1, F2 = system.slow_force(Q), system.fast_force(Qt)
    for iteration in range(1, cfg.max_iterations + 1):
        if not (np.all(np.isfinite(F1)) and np.all(np.isfinite(F2))):
            raise NonconvergenceError("force evaluation returned NaN/Inf", members=(0,))
        P_new, Q_new, Qt_new = stages(F1, F2)
        residual = max(float(np.max(np.abs(P_new - P))), float(np.max(np.abs(Q_new - Q))),
                       float(np.max(np.abs(Qt_new - Qt))))
        P, Q, Qt = P_new, Q_new, Qt_new
        F1, F2 = system.slow_force(Q), system.fast_force(Qt)
        if residual <= cfg.tolerance * scale:
            break
        if residual > 1e12 * scale:
            raise NonconvergenceError("diverged", members=(0,))
    else:
        raise NonconvergenceError("no convergence", members=(0,))
    q1 = q0 + h * (scheme.b @ P)
    p1 = p0 + h * (scheme.b @ F1 + scheme.b_tilde @ F2)
    return q1, p1, Q, P, Qt, iteration


def _member_by_member(textbook_step, scheme, system, state, h, cfg):
    """``textbook_step`` applied to each member of a batch (n, d), each with
    its own row of omega_sq; the stage arrays stack along axis 1."""
    out, failed = [], []
    for k in range(len(state.q)):
        member = SplitForceSystem(dimension=system.dimension, f1=system.f1,
                                  omega_sq=system.omega_sq[k])
        try:
            out.append(textbook_step(scheme, member, PhaseState(q=state.q[k], p=state.p[k]),
                                     h, cfg))
        except StageSolveError:
            failed.append(k)
    if failed:
        raise NonconvergenceError("members failed", members=failed)
    q1, p1, Q, P, Qt, iters = zip(*out)
    return (np.stack(q1), np.stack(p1), np.stack(Q, axis=1), np.stack(P, axis=1),
            np.stack(Qt, axis=1), max(iters))


# floats whose "%.17g" and format(x, ".17g") must print byte for byte alike
SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1.0 / 3.0]


def cellwise_csv(header: str, rows) -> bytes:
    """A CSV file formatted one cell at a time: floats with format(x, ".17g"),
    other cells with str."""
    lines = [header]
    for row in rows:
        lines.append(",".join(format(x, ".17g") if isinstance(x, float) else str(x)
                              for x in row))
    return ("\n".join(lines) + "\n").encode()


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
