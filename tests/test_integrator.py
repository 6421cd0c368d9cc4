import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symparc.fput as fput
from symparc.integrator import (
    ArkStepper,
    ComposedStepper,
    NonconvergenceError,
    NumericalFailureError,
    PhaseState,
    SingularStageSystemError,
    SolverMode,
    SplitForceSystem,
    StageSolveConfig,
    StageSolveError,
    Trajectory,
    YOSHIDA4_SUBSTEPS,
    YOSHIDA6_SUBSTEPS,
    ark_step,
    integrate,
    make_stepper,
    reference_solve,
    scheme_from_name,
    solve_stages,
    yoshida_compose,
)
from symparc.stability import stability_matrix
from symparc.tableaux import Variant, build_scheme

from _helpers import (
    SPECIAL_FLOATS,
    cellwise_csv,
    flow_jacobian_fd,
    harmonic_system,
    scaled_stability_map,
    singular_at_one,
    symplectic_residual,
    textbook_lawson_rk8,
    textbook_linear_stage_step,
    textbook_rk8,
    tight_config,
)

ALL_SCHEMES = ["lgl2", "lgl4", "lgl6", "lglc2", "lglc4", "lglc6"]


# ---------------------------------------------------------------------------
# basic stepping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_zero_force_step_is_free_flight(name):
    system = SplitForceSystem(dimension=3)
    state = PhaseState(q=[1.0, -2.0, 0.5], p=[0.25, 1.0, -1.5])
    out = ark_step(scheme_from_name(name), system, state, 0.37)
    assert np.max(np.abs(out.q - (state.q + 0.37 * state.p))) < 1e-15
    assert np.array_equal(out.p, state.p)
    assert out.t == pytest.approx(0.37, abs=1e-16)


def test_solve_stages_at_zero_step():
    system = harmonic_system(3.0)
    state = PhaseState(q=[0.7], p=[-0.2])
    for mode in (SolverMode.FIXED_POINT, SolverMode.LINEARLY_IMPLICIT):
        Q, P, Qt, iters = solve_stages(build_scheme(3, Variant.INTERPOLATION),
                                       system, state, 0.0,
                                       StageSolveConfig(mode=mode))
        assert np.all(Q == state.q[0])
        assert np.all(Qt == state.q[0])
        assert np.all(P == state.p[0])
        assert iters == 1


@pytest.mark.parametrize("name", ["lgl2", "lgl4", "lgl6"])
@pytest.mark.parametrize("mu", [0.1, 1.0, 3.0])
def test_harmonic_step_matches_stability_map(name, mu):
    omega = 2.0
    h = mu / omega
    scheme = scheme_from_name(name)
    system = harmonic_system(omega)
    state = PhaseState(q=[0.3], p=[-1.1])
    expected = scaled_stability_map(stability_matrix(scheme, mu).m, omega) \
        @ np.array([state.q[0], state.p[0]])

    out = ark_step(scheme, system, state, h)   # linearly implicit by default
    assert abs(out.q[0] - expected[0]) < 1e-12
    assert abs(out.p[0] - expected[1]) < 1e-12

    try:
        out_fp = ark_step(scheme, system, state, h,
                          StageSolveConfig(mode=SolverMode.FIXED_POINT))
    except NonconvergenceError:
        assert mu >= 2.0  # plain iteration only contracts for small h*omega
    else:
        assert abs(out_fp.q[0] - expected[0]) < 1e-12
        assert abs(out_fp.p[0] - expected[1]) < 1e-12


def test_imex_step_closed_form():
    # omega=2, h=1: the scaled map sends (1, 0) to (0, -omega * mu/(1+nu^2))
    scheme = scheme_from_name("lgl2")
    system = harmonic_system(2.0)
    out = ark_step(scheme, system, PhaseState(q=[1.0], p=[0.0]), 1.0)
    assert abs(out.q[0]) < 1e-15
    assert abs(out.p[0] + 2.0) < 1e-14


def test_linearly_implicit_succeeds_where_fixed_point_diverges():
    system = harmonic_system(10.0)
    state = PhaseState(q=[1.0], p=[0.0])
    scheme = build_scheme(3, Variant.INTERPOLATION)
    with pytest.raises(NonconvergenceError) as info:
        solve_stages(scheme, system, state, 1.0,
                     StageSolveConfig(mode=SolverMode.FIXED_POINT))
    assert info.value.residual > 0.0
    Q, P, Qt, iters = solve_stages(scheme, system, state, 1.0,
                                   StageSolveConfig(mode=SolverMode.LINEARLY_IMPLICIT))
    assert np.all(np.isfinite(Q)) and np.all(np.isfinite(P)) and np.all(np.isfinite(Qt))


def test_linearly_implicit_requires_linear_fast_part():
    system = SplitForceSystem(dimension=1, f1=lambda q: -q)
    with pytest.raises(ValueError):
        ArkStepper(build_scheme(2, Variant.INTERPOLATION), system,
                   StageSolveConfig(mode=SolverMode.LINEARLY_IMPLICIT))


def test_fput_iteration_counts_stay_small():
    params = fput.FputParams(ell=3, omega=50.0)
    system = fput.fput_system(params)
    state0 = fput.paper_initial_state(params)
    traj = integrate("lgl4", system, state0, 0.04, 500, stride=500)
    assert traj.stage_iterations.max() <= 10


def test_numerical_failure_on_bad_force():
    system = SplitForceSystem(dimension=1, f1=lambda q: q * np.nan)
    with pytest.raises(NumericalFailureError):
        ark_step(build_scheme(2, Variant.INTERPOLATION), system,
                 PhaseState(q=[1.0], p=[0.0]), 0.1)


# ---------------------------------------------------------------------------
# batched states
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tolerance", [1e-12, 1e-6])
@pytest.mark.parametrize("name", ["lgl4", "lgl6", "imex-yoshida4"])
def test_batch_matches_single_state_runs(name, tolerance):
    # the two frequencies near 173.2 sit at h*omega/pi = 1.1027 and h*omega = 2 sqrt(3);
    # at the loose tolerance one stage pass more or less moves a state far
    # beyond the bound, so every member must stop where it would alone
    h = 0.02
    config = StageSolveConfig(tolerance=tolerance)
    omegas = [20.0, 50.0, 1.1027 * math.pi / h, 2.0 * math.sqrt(3.0) / h, 300.0, 1000.0]
    systems = [fput.fput_system(fput.FputParams(ell=3, omega=w)) for w in omegas]
    singles = [make_stepper(name, system, config) for system in systems]
    states = [fput.paper_initial_state(fput.FputParams(ell=3, omega=w)) for w in omegas]
    batch_system = SplitForceSystem(dimension=6, f1=systems[0].f1,
                                    omega_sq=np.stack([s.omega_sq for s in systems]))
    batch = make_stepper(name, batch_system, config)
    state = PhaseState(q=np.stack([s.q for s in states]), p=np.stack([s.p for s in states]))
    for _ in range(200):
        state, iterations = batch.step_with_iterations(state, h)
        counts = []
        for k, stepper in enumerate(singles):
            states[k], count = stepper.step_with_iterations(states[k], h)
            counts.append(count)
        assert type(iterations) is int and iterations == max(counts)
    for k, single in enumerate(states):
        scale = max(np.max(np.abs(single.q)), np.max(np.abs(single.p)))
        assert np.max(np.abs(state.q[k] - single.q)) <= 1e-13 * scale
        assert np.max(np.abs(state.p[k] - single.p)) <= 1e-13 * scale


def _chain_batch(omegas):
    """The chain at each of ``omegas`` as one batched system and state."""
    params = [fput.FputParams(ell=3, omega=w) for w in omegas]
    systems = [fput.fput_system(p) for p in params]
    states = [fput.paper_initial_state(p) for p in params]
    system = SplitForceSystem(dimension=6, f1=systems[0].f1,
                              omega_sq=np.stack([s.omega_sq for s in systems]))
    return system, PhaseState(q=np.stack([s.q for s in states]),
                              p=np.stack([s.p for s in states]))


def _assert_members_close(got, want):
    """Row k of ``got`` within 1e-13 of row k of ``want``, relative to
    max(1, the largest entry of want's row k)."""
    for g, w in zip(got.reshape(len(got), -1), want.reshape(len(want), -1)):
        assert np.max(np.abs(g - w)) <= 1e-13 * max(1.0, float(np.max(np.abs(w))))


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("omega, h", [(50.0, 0.04), (1e3, 0.1)], ids=["w50", "w1e3"])
@pytest.mark.parametrize("name", ["lgl2", "lgl4", "lgl6", "lglc4"])
def test_folded_step_matches_textbook_iteration(name, omega, h, batch):
    # one step at a time along a 200-step chain run, each from the engine's
    # state: whole trajectories of the chaotic chain drift apart from roundoff
    scheme = scheme_from_name(name)
    if batch:
        system, state = _chain_batch([omega, 0.3 * omega, 2.0 * omega])
    else:
        params = fput.FputParams(ell=3, omega=omega)
        system, state = fput.fput_system(params), fput.paper_initial_state(params)
    stepper = ArkStepper(scheme, system)

    def members(x, axis=0):
        """Member-first view: one row for a single state."""
        return np.moveaxis(x, axis, 0) if batch else x[None]

    for step in range(200):
        try:
            q1, p1, Q, P, Qt, iterations = textbook_linear_stage_step(scheme, system, state, h)
        except StageSolveError as exc:
            # lglc4 at h*omega = 100 is outside its stability interval: the
            # slow-force iteration diverges for both, in the same members
            with pytest.raises(StageSolveError) as info:
                stepper.step_with_iterations(state, h)
            assert set(info.value.members) <= set(exc.members)
            assert (name, omega) == ("lglc4", 1e3)
            return
        got, count = stepper.step_with_iterations(state, h)
        assert count == iterations, f"step {step}"
        _assert_members_close(np.stack([members(got.q), members(got.p)], axis=1),
                              np.stack([members(q1), members(p1)], axis=1))
        if step % 20 == 0:
            *stages, count = stepper.solve_stages(state, h)
            assert count == iterations
            for got_stage, want_stage in zip(stages, (Q, P, Qt)):
                _assert_members_close(members(got_stage, 1), members(want_stage, 1))
        state = got


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
def test_batch_failures_name_their_members():
    system = SplitForceSystem(dimension=1, omega_sq=[[400.0], [2500.0], [6400.0]])
    state = PhaseState(q=[[1.0], [1.0], [1.0]], p=[[0.0], [0.0], [0.0]])
    with pytest.raises(SingularStageSystemError) as info:
        ArkStepper(singular_at_one(), system).step(state, 0.02)
    assert info.value.members == (1,)

    # the resting member converges at once, the displaced one needs more passes
    cubic = SplitForceSystem(dimension=1, f1=lambda q: -q ** 3, omega_sq=[[1.0], [1.0]])
    with pytest.raises(NonconvergenceError) as info:
        ArkStepper(scheme_from_name("lgl4"), cubic, StageSolveConfig(max_iterations=1)).step(
            PhaseState(q=[[0.0], [2.0]], p=[[0.0], [1.0]]), 0.1)
    assert info.value.members == (1,)

    def blows_up(q):
        return np.where(np.abs(q) > 1.5, np.nan, -q)

    bad = SplitForceSystem(dimension=1, f1=blows_up, omega_sq=[[1.0], [1.0], [1.0]])
    with pytest.raises(NumericalFailureError) as info:
        ark_step(scheme_from_name("lgl4"), bad, PhaseState(q=[[0.5], [2.0], [3.0]],
                                                           p=[[0.0], [0.0], [0.0]]), 0.1)
    assert info.value.members == (1, 2)


def test_batched_state_rejected_where_unsupported():
    system = SplitForceSystem(dimension=1, f1=lambda q: -q ** 3, omega_sq=[[1.0], [4.0]])
    batch = PhaseState(q=[[0.1], [0.2]], p=[[0.0], [0.0]])
    with pytest.raises(ValueError):
        ark_step(scheme_from_name("lgl4"), system, batch, 0.1,
                 StageSolveConfig(mode=SolverMode.FIXED_POINT))
    with pytest.raises(ValueError):
        integrate("lgl4", system, batch, 0.1, 2)
    with pytest.raises(ValueError):   # one member too many for omega_sq
        ark_step(scheme_from_name("lgl4"), system,
                 PhaseState(q=np.zeros((3, 1)), p=np.zeros((3, 1))), 0.1)
    with pytest.raises(ValueError):
        PhaseState(q=np.zeros((2, 2, 1)), p=np.zeros((2, 2, 1)))


# ---------------------------------------------------------------------------
# system validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [{"tolerance": 0.0}, {"tolerance": -1e-12},
                                    {"tolerance": math.nan}, {"tolerance": math.inf},
                                    {"max_iterations": 0}],
                         ids=["tol-zero", "tol-negative", "tol-nan", "tol-inf", "iters-zero"])
def test_stage_config_validation(kwargs):
    # an infinite tolerance would accept the predictor as the converged stages
    with pytest.raises(ValueError):
        StageSolveConfig(**kwargs)


def test_split_system_validation():
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SplitForceSystem(dimension=2, omega_sq=[1.0, bad])
    with pytest.raises(ValueError):
        SplitForceSystem(dimension=2, omega_sq=[1.0])
    # explicit f2 must agree with -omega_sq * q
    SplitForceSystem(dimension=2, omega_sq=[1.0, 4.0],
                     f2=lambda q: -np.array([1.0, 4.0]) * q)
    with pytest.raises(ValueError):
        SplitForceSystem(dimension=2, omega_sq=[1.0, 4.0], f2=lambda q: -q)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_integrate_zero_steps():
    system = harmonic_system(1.0)
    state = PhaseState(q=[1.0], p=[2.0], t=0.5)
    traj = integrate("lgl4", system, state, 0.1, 0)
    assert len(traj) == 1
    assert traj.times[0] == 0.5
    assert np.array_equal(traj.qs[0], state.q)


def test_integrate_uniform_spacing_and_stride():
    system = harmonic_system(1.0)
    state = PhaseState(q=[1.0], p=[0.0])
    h = 0.1
    traj = integrate("lgl2", system, state, h, 1000, stride=10)
    assert len(traj) == 101
    spacing = np.diff(traj.times)
    assert np.max(np.abs(spacing - 10 * h)) < 1e-12 * h * 10
    assert len(traj.stage_iterations) == 1000


def test_integrate_bounded_on_stable_oscillator():
    omega = 2.0
    mu = 1.0
    system = harmonic_system(omega)
    state = PhaseState(q=[1.0], p=[0.5])
    traj = integrate("lgl4", system, state, mu / omega, 10000)
    radius = max(abs(state.q[0]), abs(state.p[0]) / omega)
    assert np.max(np.abs(traj.qs)) <= 2.0 * radius
    assert np.max(np.abs(traj.ps)) <= 2.0 * omega * radius


def test_integrate_attaches_step_index_on_failure():
    system = harmonic_system(50.0)
    state = PhaseState(q=[1.0], p=[0.0])
    with pytest.raises(NonconvergenceError) as info:
        integrate("lgl4", system, state, 1.0, 5,
                  config=StageSolveConfig(mode=SolverMode.FIXED_POINT))
    assert info.value.step_index == 0
    assert "step 0" in str(info.value)


def test_trajectory_csv_roundtrip(tmp_path):
    system = harmonic_system(1.0)
    traj = integrate("lgl2", system, PhaseState(q=[1.0], p=[0.0]), 0.25, 8)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "t,q_1,p_1,stage_iters"
    assert len(lines) == 10
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1], traj.qs[:, 0])


def test_trajectory_csv_matches_cellwise_formatting(tmp_path):
    qs = np.array([SPECIAL_FLOATS, SPECIAL_FLOATS[::-1]]).T
    n = len(SPECIAL_FLOATS)
    traj = Trajectory(times=np.array(SPECIAL_FLOATS), qs=qs, ps=-qs,
                      stage_iterations=np.arange(3, 3 + 2 * (n - 1)), stride=2)
    iters = [0] + [int(traj.stage_iterations[2 * row - 1]) for row in range(1, n)]
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    assert path.read_bytes() == cellwise_csv(
        "t,q_1,q_2,p_1,p_2,stage_iters",
        (row + [k] for row, k in zip(np.column_stack((traj.times, qs, -qs)).tolist(), iters)))


def test_determinism_bitwise():
    params = fput.FputParams(ell=3, omega=17.0)
    system = fput.fput_system(params)
    state0 = fput.paper_initial_state(params)
    t1 = integrate("lgl6", system, state0, 0.02, 200)
    t2 = integrate("lgl6", system, state0, 0.02, 200)
    assert np.array_equal(t1.qs, t2.qs)
    assert np.array_equal(t1.ps, t2.ps)
    assert np.array_equal(t1.stage_iterations, t2.stage_iterations)


# ---------------------------------------------------------------------------
# symplecticity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["lgl2", "lgl4", "lgl6"])
def test_step_is_symplectic_fd(name):
    params = fput.FputParams(ell=2, omega=10.0)
    system = fput.fput_system(params)
    stepper = ArkStepper(scheme_from_name(name), system, tight_config())
    state = fput.paper_initial_state(params)
    jac = flow_jacobian_fd(stepper.step, state, 0.01)
    assert symplectic_residual(jac) < 1e-5


# ---------------------------------------------------------------------------
# Yoshida compositions
# ---------------------------------------------------------------------------

def test_yoshida_substep_identities():
    for substeps in (YOSHIDA4_SUBSTEPS, YOSHIDA6_SUBSTEPS):
        w = np.array(substeps)
        assert abs(w.sum() - 1.0) < 1e-15
        assert abs(np.sum(w ** 3)) < 1e-15
    assert abs(np.sum(np.array(YOSHIDA6_SUBSTEPS) ** 5)) < 1e-14
    assert np.array_equal(YOSHIDA4_SUBSTEPS, YOSHIDA4_SUBSTEPS[::-1])
    assert np.array_equal(YOSHIDA6_SUBSTEPS, YOSHIDA6_SUBSTEPS[::-1])


def test_yoshida_rejects_other_orders():
    with pytest.raises(ValueError):
        yoshida_compose(lambda s, h: s, 5)


def test_yoshida_of_exact_flow_is_exact_flow():
    system = SplitForceSystem(dimension=1)

    def drift(state, h):
        return PhaseState(q=state.q + h * state.p, p=state.p, t=state.t + h)

    for order in (4, 6):
        composed = yoshida_compose(drift, order)
        out = composed.step(PhaseState(q=[1.0], p=[2.0]), 0.5)
        assert abs(out.q[0] - 2.0) < 1e-14
        assert out.p[0] == 2.0
        assert out.t == 0.5


def test_composition_reports_substep_iterations(tmp_path):
    params = fput.FputParams(ell=3, omega=50.0)
    system = fput.fput_system(params)
    traj = integrate("imex-yoshida4", system, fput.paper_initial_state(params), 0.04, 20)
    assert np.all(traj.stage_iterations > 0)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].endswith(",stage_iters")
    assert all(int(line.rsplit(",", 1)[1]) > 0 for line in lines[2:])


def test_composition_of_plain_callable_reports_zero_iterations():
    def drift(state, h):
        return PhaseState(q=state.q + h * state.p, p=state.p, t=state.t + h)

    composed = ComposedStepper(drift, YOSHIDA4_SUBSTEPS)
    state, iterations = composed.step_with_iterations(PhaseState(q=[0.0], p=[1.0]), 0.5)
    assert iterations == 0
    assert state.t == 0.5


@pytest.mark.parametrize("name", ["imex-yoshida4", "imex-yoshida6"])
def test_composition_time_symmetry(name):
    params = fput.FputParams(ell=2, omega=3.0)
    system = fput.fput_system(params)
    stepper = make_stepper(name, system, tight_config())
    state0 = fput.paper_initial_state(params)
    mid = stepper.step(state0, 0.05)
    back = stepper.step(mid, -0.05)
    assert np.max(np.abs(back.q - state0.q)) < 10 * 1e-13
    assert np.max(np.abs(back.p - state0.p)) < 10 * 1e-13


def test_make_stepper_name_errors():
    system = harmonic_system(1.0)
    with pytest.raises(ValueError):
        make_stepper("lgl3", system)
    with pytest.raises(ValueError):
        make_stepper("radau5", system)
    with pytest.raises(TypeError):
        make_stepper(42, system)


# ---------------------------------------------------------------------------
# reference solver
# ---------------------------------------------------------------------------

def test_reference_free_flight_exact():
    system = SplitForceSystem(dimension=2)
    state = PhaseState(q=[1.0, 2.0], p=[-0.5, 0.25])
    out = reference_solve(system, state, 2.0, tol=1e-13)
    assert np.max(np.abs(out.q - (state.q + 2.0 * state.p))) < 1e-13


def test_reference_matches_harmonic_closed_form():
    omega = 10.0
    system = harmonic_system(omega)
    out = reference_solve(system, PhaseState(q=[1.0], p=[0.0]), 1.0, tol=1e-12)
    assert abs(out.q[0] - math.cos(omega)) < 1e-12
    assert abs(out.p[0] + omega * math.sin(omega)) < 1e-11


def test_reference_zero_duration():
    system = harmonic_system(1.0)
    state = PhaseState(q=[1.0], p=[0.0], t=1.5)
    assert reference_solve(system, state, 1.5) is state


@given(st.floats(min_value=0.05, max_value=0.5), st.floats(-1.0, 1.0),
       st.floats(-1.0, 1.0))
@settings(max_examples=10, deadline=None)
def test_reference_agrees_with_ark_on_smooth_problem(T, q0, p0):
    # two fully independent paths to the same trajectory
    def pendulum(q):
        return -np.sin(q)

    system = SplitForceSystem(dimension=1, f1=pendulum)
    state = PhaseState(q=[q0], p=[p0])
    ref = reference_solve(system, state, T, tol=1e-12)
    n = 400
    traj = integrate("lgl6", system, state, T / n, n, config=tight_config(),
                     stride=n)
    final = traj.final_state()
    assert abs(final.q[0] - ref.q[0]) < 1e-9
    assert abs(final.p[0] - ref.p[0]) < 1e-9


def _oracle_cases():
    params = fput.FputParams(ell=3, omega=1e4)
    chain = (fput.fput_system(params), fput.paper_initial_state(params), 0.02, 2000,
             textbook_lawson_rk8)
    harmonic = (harmonic_system(3.0, 2), PhaseState(q=[1.0, 2.0], p=[-0.5, 0.25]), 2.0, 200,
                textbook_lawson_rk8)
    duffing = (SplitForceSystem(dimension=2, f1=lambda q: -q ** 3, f2=lambda q: -4.0 * q),
               PhaseState(q=[1.0, -0.5], p=[0.0, 0.3]), 3.0, 300, textbook_rk8)
    return {"chain": chain, "no-f1": harmonic, "explicit-f2": duffing}


@pytest.mark.parametrize("case", ["chain", "no-f1", "explicit-f2"])
def test_rk8_matches_textbook_loop(case):
    # systems with omega_sq take the integrating-factor path, the others the
    # plain loop; each is checked against its textbook form
    from symparc.integrator import _rk8_final_state
    system, state0, duration, n_steps, textbook = _oracle_cases()[case]
    got = _rk8_final_state(system, state0, duration, n_steps)
    ref = textbook(system, state0, duration, n_steps)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("omega, T, n_steps", [(1.0, 1.0, 100), (50.0, 0.5, 500),
                                               (1e3, 0.05, 1000), (1e4, 0.005, 1000)])
def test_reference_matches_fine_plain_rk8(omega, T, n_steps):
    # the plain loop at h*omega <= 0.05 is converged to a few 1e-15 here; the
    # certified oracle agreed with it to 2.1e-14 at worst (omega = 1)
    params = fput.FputParams(ell=3, omega=omega)
    system, state0 = fput.fput_system(params), fput.paper_initial_state(params)
    fine = textbook_rk8(system, state0, T, n_steps)
    ref = reference_solve(system, state0, T, tol=1e-12)
    assert np.max(np.abs(np.concatenate([ref.q, ref.p]) - fine)) <= 5e-14


def test_reference_rotation_and_free_flight_exact():
    from symparc.integrator import _rk8_final_state
    omega = np.array([0.0, 1.0, 50.0, 0.0, 1e4])
    system = SplitForceSystem(dimension=5, omega_sq=omega ** 2)
    state0 = PhaseState(q=[1.0, -0.5, 0.02, 0.3, 1e-4], p=[0.25, 1.0, -1.0, -2.0, 1.0])
    T = 0.05
    rotating = omega > 0.0
    w = np.where(rotating, omega, 1.0)
    q = np.where(rotating, np.cos(w * T) * state0.q + np.sin(w * T) / w * state0.p,
                 state0.q + T * state0.p)
    p = np.where(rotating, -w * np.sin(w * T) * state0.q + np.cos(w * T) * state0.p,
                 state0.p)
    exact = np.concatenate([q, p])
    # one step is one rotation by T; the composed rotations drift by roundoff
    # in the phase (omega T = 500), measured 3.6e-14
    assert np.max(np.abs(_rk8_final_state(system, state0, T, 1) - exact)) <= 1e-15
    assert np.max(np.abs(_rk8_final_state(system, state0, T, 1000) - exact)) <= 1e-13
    out = reference_solve(system, state0, T, tol=1e-13)
    assert np.max(np.abs(np.concatenate([out.q, out.p]) - exact)) <= 1e-13


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1e-12}, {"tol": math.nan},
                                    {"tol": math.inf}, {"max_refinements": 0}],
                         ids=["tol-zero", "tol-negative", "tol-nan", "tol-inf",
                              "no-refinements"])
def test_reference_rejects_uncertifiable_tolerance(monkeypatch, kwargs):
    import symparc.integrator as integrator

    def never(*args):
        raise AssertionError("the oracle ran before its arguments were checked")

    monkeypatch.setattr(integrator, "_rk8_final_state", never)
    with pytest.raises(ValueError):
        reference_solve(harmonic_system(1.0), PhaseState(q=[1.0], p=[0.0]), 1.0, **kwargs)


def test_reference_logs_each_level(caplog):
    caplog.set_level(logging.DEBUG, logger="symparc.integrator")
    params = fput.FputParams(ell=3, omega=1e4)
    system, state0 = fput.fput_system(params), fput.paper_initial_state(params)
    reference_solve(system, state0, 0.02, tol=1e-9)
    levels = [r.getMessage() for r in caplog.records if r.name == "symparc.integrator"]
    assert len(levels) == 2 and levels[0] == "reference level: 100 steps"
    head, agreement = levels[1].split(", agreement ")
    assert head == "reference level: 200 steps"
    assert agreement.endswith(" tol") and float(agreement[:-4]) <= 1.0
