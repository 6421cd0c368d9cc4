import dataclasses
import logging
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symparc.fput as fput
import symparc.integrator as integrator
import symparc.kernel as kernel
from symparc.integrator import (
    ArkStepper,
    ComposedStepper,
    NonconvergenceError,
    NumericalFailureError,
    OracleFailureError,
    PhaseState,
    SingularStageSystemError,
    SplitForceSystem,
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
from symparc.tableaux import MAX_STAGES, ArkScheme, Variant, build_scheme

from _helpers import (
    SPECIAL_FLOATS,
    TIGHT_TOL,
    cellwise_csv,
    flow_jacobian_fd,
    harmonic_system,
    iterated,
    scaled_stability_map,
    singular_at_one,
    symplectic_residual,
    textbook_fixed_point_step,
    textbook_lawson_rk8,
    textbook_linear_stage_step,
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
    for solved in (iterated(system), system):
        Q, P, Qt, iters = solve_stages(build_scheme(3, Variant.INTERPOLATION),
                                       solved, state, 0.0)
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
        out_fp = ark_step(scheme, iterated(system), state, h)
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
        solve_stages(scheme, iterated(system), state, 1.0)
    assert info.value.residual > 0.0
    Q, P, Qt, iters = solve_stages(scheme, system, state, 1.0)
    assert np.all(np.isfinite(Q)) and np.all(np.isfinite(P)) and np.all(np.isfinite(Qt))


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
    # off, so every member must stop where it would alone; every sum of a
    # step runs column by column, so each member is bitwise its single run
    h = 0.02
    omegas = [20.0, 50.0, 1.1027 * math.pi / h, 2.0 * math.sqrt(3.0) / h, 300.0, 1000.0]
    systems = [fput.fput_system(fput.FputParams(ell=3, omega=w)) for w in omegas]
    singles = [make_stepper(name, system, tolerance) for system in systems]
    states = [fput.paper_initial_state(fput.FputParams(ell=3, omega=w)) for w in omegas]
    batch_system = SplitForceSystem(dimension=6, f1=systems[0].f1,
                                    omega_sq=np.stack([s.omega_sq for s in systems]))
    batch = make_stepper(name, batch_system, tolerance)
    state = PhaseState(q=np.stack([s.q for s in states]), p=np.stack([s.p for s in states]))
    for _ in range(200):
        state, iterations = batch.step_with_iterations(state, h)
        counts = []
        for k, stepper in enumerate(singles):
            states[k], count = stepper.step_with_iterations(states[k], h)
            counts.append(count)
        assert type(iterations) is int and iterations == max(counts)
    for k, single in enumerate(states):
        assert np.array_equal(state.q[k], single.q) and np.array_equal(state.p[k], single.p)


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


def _chain_system(omega, batch):
    """The chain at omega, or a batch of it at (1, 0.3, 2) times omega."""
    if batch:
        return _chain_batch([omega, 0.3 * omega, 2.0 * omega])
    params = fput.FputParams(ell=3, omega=omega)
    return fput.fput_system(params), fput.paper_initial_state(params)


def _steps_match_textbook(textbook_step, scheme, system, state, h, steps=200,
                          explicit=False):
    """Step the engine ``steps`` times and check each step, from the engine's
    state, against ``textbook_step``: q1 and p1 (and every 20th step the
    stages) within 1e-13, and equal pass counts, or 0 engine passes where
    the step is ``explicit`` (the textbook iterates it all the same).
    Returns the textbook's StageSolveError once both fail, in members the
    textbook names too, or None.  The engine steps the system without its
    omega_sq where the textbook iterates by fixed point."""
    fixed_point = textbook_step is textbook_fixed_point_step
    stepper = ArkStepper(scheme, iterated(system) if fixed_point else system)
    batch = state.q.ndim == 2

    def members(x, axis=0):
        """Member-first view: one row for a single state."""
        return np.moveaxis(x, axis, 0) if batch else x[None]

    for step in range(steps):
        try:
            q1, p1, Q, P, Qt, iterations = textbook_step(scheme, system, state, h)
        except StageSolveError as exc:
            with pytest.raises(StageSolveError) as info:
                stepper.step_with_iterations(state, h)
            assert set(info.value.members) <= set(exc.members)
            return exc
        if explicit:
            iterations = 0
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
    return None


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("omega, h", [(50.0, 0.04), (1e3, 0.1)], ids=["w50", "w1e3"])
@pytest.mark.parametrize("name", ["lgl2", "lgl4", "lgl6", "lglc4"])
def test_folded_step_matches_textbook_iteration(name, omega, h, batch):
    # one step at a time along a 200-step chain run, each from the engine's
    # state: whole trajectories of the chaotic chain drift apart from roundoff
    # a scheme without interior stages (lgl2) is explicit: Q_1 = q0 and
    # F1(Q_s) feeds only the update, so the engine takes 0 passes
    system, state = _chain_system(omega, batch)
    scheme = scheme_from_name(name)
    failure = _steps_match_textbook(textbook_linear_stage_step, scheme, system, state, h,
                                    explicit=scheme.s1 == 2)
    # lglc4 at h*omega = 100 is outside its stability interval: the
    # slow-force iteration diverges for both, in the same members
    assert failure is None or (name, omega) == ("lglc4", 1e3)


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("omega", [1.0, 5.0, 50.0], ids=["w1", "w5", "w50"])
@pytest.mark.parametrize("name", ["lgl2", "lgl4", "lgl6", "lglc4"])
def test_fixed_point_step_matches_textbook_iteration(name, omega, batch):
    # without omega_sq the system takes the same loop with the other fold:
    # it iterates P, Q and Qt on F1 and F2 and tests all three, as the
    # textbook loop does
    system, state = _chain_system(omega, batch)
    failure = _steps_match_textbook(textbook_fixed_point_step, scheme_from_name(name),
                                    system, state, 0.02)
    # the batch's member at 2 omega = 100 sits at h*omega = 2, where plain
    # iteration of lgl2 no longer contracts: the engine and the textbook
    # both fail that member, and only it
    assert failure is None or ((name, omega, batch) == ("lgl2", 50.0, True)
                               and failure.members == (2,))


def _relabelled(scheme):
    """``scheme`` with its primary stages in reverse order: the same method,
    with the stage that is q0 last and the one whose force feeds only the
    update first."""
    r = slice(None, None, -1)
    return ArkScheme(s1=scheme.s1, s2=scheme.s2, a=scheme.a[r, r], a_hat=scheme.a_hat[r, r],
                     a_tilde=scheme.a_tilde[:, r], a_tilde_hat=scheme.a_tilde_hat[r],
                     b=scheme.b[r], c=scheme.c[r], b_tilde=scheme.b_tilde,
                     c_tilde=scheme.c_tilde, order=scheme.order, variant=scheme.variant)


@pytest.mark.parametrize("textbook", [textbook_linear_stage_step, textbook_fixed_point_step],
                         ids=["linearly-implicit", "fixed-point"])
@pytest.mark.parametrize("name", ["lgl2", "lgl4", "lgl6"])
def test_relabelled_stages_match_textbook_iteration(name, textbook):
    # the stepper looks for the Lobatto zeros only in the first row of a and
    # the last column of ahat; relabelled, they sit elsewhere, so the loop
    # iterates every stage, as the textbook does, and still converges to
    # the same step, lgl2 included
    system, state = _chain_system(5.0, batch=True)
    failure = _steps_match_textbook(textbook, _relabelled(scheme_from_name(name)), system,
                                    state, 0.02, steps=40)
    assert failure is None


@pytest.mark.parametrize("name", ["lgl2", "lgl4", "lgl6", "singular_at_one"])
def test_slow_force_rows_and_calls_per_step(name):
    # Q_1 = q0, so F1(q0) is evaluated once per step, and F1(Q_s) feeds only
    # the update, so only the converging pass evaluates it: a step of k
    # passes costs s1 + k (s1 - 2) rows in k + 2 calls, and one without
    # interior stages is explicit.  A scheme without these zeros evaluates
    # F1 on q0 for the start, then on every stage in each pass.
    params = fput.FputParams(ell=3, omega=50.0)
    rows = []

    def counted(q):
        rows.append(q.size // q.shape[-1])
        return fput._slow_force(q, params.ell)

    system = SplitForceSystem(dimension=6, f1=counted,
                              omega_sq=fput.fput_system(params).omega_sq)
    scheme = singular_at_one() if name == "singular_at_one" else scheme_from_name(name)
    stepper, s1 = ArkStepper(scheme, system), scheme.s1
    state = fput.paper_initial_state(params)
    for _ in range(20):
        rows.clear()
        new, k = stepper.step_with_iterations(state, 0.01)
        if s1 == 1:
            assert (sum(rows), len(rows)) == (1 + s1 * (k + 1), k + 2)
            q1, p1, *_, iterations = textbook_linear_stage_step(scheme, system, state, 0.01)
            assert k == iterations
            _assert_members_close(np.stack([new.q, new.p])[None], np.stack([q1, p1])[None])
        elif s1 == 2:
            assert (sum(rows), len(rows), k) == (2, 2, 0)
        else:
            assert k > 0 and (sum(rows), len(rows)) == (s1 + k * (s1 - 2), k + 2)
        state = new


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("h_omega", [2.0, 100.0, 5000.0])
@pytest.mark.parametrize("name", ["lgl4", "lgl6", "lglc4"])
def test_constant_slow_force_converges_in_one_pass(name, h_omega, batch):
    # the start holds F1(q0) at every stage and the block takes the fast
    # force exactly, so with F1 constant the start is the solution: the
    # first pass reproduces it bitwise and ends the step
    h = 0.1
    system = SplitForceSystem(dimension=2, f1=lambda q: np.full_like(q, 0.3),
                              omega_sq=np.full(2, (h_omega / h) ** 2))
    state = PhaseState(q=[1.0, -0.5], p=[0.2, 0.7])
    if batch:
        state = PhaseState(q=np.outer([1.0, -2.0, 0.5], state.q),
                           p=np.outer([1.0, 0.5, -3.0], state.p))
    stepper = ArkStepper(scheme_from_name(name), system)
    for step in range(20):
        state, passes = stepper.step_with_iterations(state, h)
        assert passes == 1, f"step {step}"


@pytest.mark.parametrize("name", ["lgl2", "lgl4", "lgl6"])
def test_linearly_implicit_steps_never_call_the_fast_force(name):
    # the block carries -Omega^2 q exactly, so a system with omega_sq never
    # has its fast force evaluated; the same system without it iterates it
    calls = []
    omega_sq = np.array([1.0, 4.0])

    def fast(q):
        calls.append(q.shape)
        return -omega_sq * q

    system = SplitForceSystem(dimension=2, f1=lambda q: -q ** 3, f2=fast, omega_sq=omega_sq)
    for stepped in (system, iterated(system)):
        stepper = ArkStepper(scheme_from_name(name), stepped)
        state = PhaseState(q=[0.3, -0.2], p=[0.1, 0.4])
        calls.clear()
        for _ in range(20):
            state = stepper.step(state, 0.1)
        assert bool(calls) == (stepped.omega_sq is None)


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("name", ["lgl2", "lgl4", "lgl6"])
def test_force_at_converged_stages_is_checked(name, batch):
    # F1(Q_s) is evaluated only at the converged stages; a force that is NaN
    # there must fail the step, not reach q1 and p1
    scheme = scheme_from_name(name)
    system = SplitForceSystem(dimension=1, f1=lambda q: -q ** 3, omega_sq=[4.0])
    state = PhaseState(q=[0.0], p=[1.0])
    last = solve_stages(scheme, system, state, 0.1)[0][-1, 0]

    def poisoned(q):
        return np.where(np.abs(q - last) < 1e-9, np.nan, -q ** 3)

    if batch:
        state = PhaseState(q=[[0.5], [0.0]], p=[[0.0], [1.0]])
    stepper = ArkStepper(scheme, SplitForceSystem(dimension=1, f1=poisoned, omega_sq=[4.0]))
    with pytest.raises(NumericalFailureError) as info:
        stepper.step(state, 0.1)
    assert info.value.members == ((1,) if batch else (0,))


@pytest.mark.filterwarnings("error")
def test_batch_failures_name_their_members():
    system = SplitForceSystem(dimension=1, omega_sq=[[400.0], [2500.0], [6400.0]])
    state = PhaseState(q=[[1.0], [1.0], [1.0]], p=[[0.0], [0.0], [0.0]])
    with pytest.raises(SingularStageSystemError) as info:
        ArkStepper(singular_at_one(), system).step(state, 0.02)
    assert info.value.members == (1,)
    # with one step size per member, only the members of the singular
    # (h, omega^2) pair fail
    with pytest.raises(SingularStageSystemError) as info:
        ArkStepper(singular_at_one(), system).step(state, [0.02, 0.02, 0.01])
    assert info.value.members == (1,)
    shared = SplitForceSystem(dimension=1, omega_sq=[2500.0])
    with pytest.raises(SingularStageSystemError) as info:
        ArkStepper(singular_at_one(), shared).step(
            PhaseState(q=np.ones((4, 1)), p=np.zeros((4, 1))), [0.01, 0.02, 0.02, 0.03])
    assert info.value.members == (1, 2)

    # at h = 2.5 the resting member converges at once, and the displaced
    # one's iteration diverges
    cubic = SplitForceSystem(dimension=1, f1=lambda q: -q ** 3, omega_sq=[[1.0], [1.0]])
    with pytest.raises(NonconvergenceError, match="diverged") as info:
        ArkStepper(scheme_from_name("lgl4"), cubic).step(
            PhaseState(q=[[0.0], [2.0]], p=[[0.0], [1.0]]), 2.5)
    assert info.value.members == (1,)

    def blows_up(q):
        return np.where(np.abs(q) > 1.5, np.nan, -q)

    bad = SplitForceSystem(dimension=1, f1=blows_up, omega_sq=[[1.0], [1.0], [1.0]])
    with pytest.raises(NumericalFailureError) as info:
        ark_step(scheme_from_name("lgl4"), bad, PhaseState(q=[[0.5], [2.0], [3.0]],
                                                           p=[[0.0], [0.0], [0.0]]), 0.1)
    assert info.value.members == (1, 2)


def _block_solution(scheme, h, w, fixed_point):
    """(Qt, P) of the stage block [[I, -h At], [h w AtH, I]] against the
    fold's right-hand side columns (q0, p0, F), by a dense solve."""
    s1, s2 = scheme.s1, scheme.s2
    block = np.eye(s2 + s1)
    block[:s2, s2:] = -h * scheme.a_tilde
    block[s2:, :s2] = h * w * scheme.a_tilde_hat
    m = s1 + s2 if fixed_point else s1
    rhs = np.zeros((s2 + s1, 2 + m))
    rhs[:s2, 0] = 1.0
    rhs[s2:, 1] = 1.0
    rhs[s2:, 2:2 + s1] = h * scheme.a_hat
    if fixed_point:
        rhs[s2:, 2 + s1:] = h * scheme.a_tilde_hat
    return np.linalg.solve(block, rhs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", list(Variant))
def test_fold_solves_the_stage_block(variant):
    # the fold's (Qt, P) map of every (h, w) pair against a dense solve of
    # the block itself: at h omega from 0 to far beyond the sweeps' range
    # for a system with omega_sq, and at w = 0 for one without
    h = 0.1
    h_omegas = np.array([0.0, 0.5, 2.0 * math.sqrt(3.0), 150.0, 1e3])
    linear = SplitForceSystem(dimension=5, omega_sq=(h_omegas / h) ** 2)
    general = SplitForceSystem(dimension=5, f1=lambda q: -q ** 3, f2=lambda q: -q)
    for s1 in range(2, MAX_STAGES + 1):
        scheme = build_scheme(s1, variant)
        for system in (linear, general):
            stepper = ArkStepper(scheme, system)
            for step in (h, -h):
                solution = stepper._fold((step,), lambda j, k: ())[0][3]
                for w, X in zip(stepper._values, solution):
                    expected = _block_solution(scheme, step, w, system is general)
                    bound = 1e-14 * max(1.0, float(np.max(np.abs(expected))))
                    assert np.max(np.abs(X - expected)) <= bound, (s1, w, step)


def test_fixed_point_fold_factors_nothing(monkeypatch):
    # at w = 0 the block is unit upper triangular and the fold solves it in
    # closed form; the linearly-implicit fold does call the factorization
    def refused(H, nu):
        raise AssertionError("lu_factor called")

    monkeypatch.setattr(integrator, "lu_factor", refused)
    params = fput.FputParams(ell=3, omega=50.0)
    system, state = fput.fput_system(params), fput.paper_initial_state(params)
    for name in ("lgl2", "lgl4", "lglc6"):
        scheme = scheme_from_name(name)
        ark_step(scheme, iterated(system), state, 0.02)
        solve_stages(scheme, iterated(system), state, -0.03)
        with pytest.raises(AssertionError, match="lu_factor called"):
            ark_step(scheme, system, state, 0.02)


def test_zero_step_keeps_the_lobatto_slots():
    # the explicit and lagged slots come from the tableau, not the fold, so
    # a zero step size, whose fold is zero throughout, is explicit for lgl2
    # as every other step size is
    params = fput.FputParams(ell=3, omega=50.0)
    system, state = fput.fput_system(params), fput.paper_initial_state(params)
    for name, passes in (("lgl2", 0), ("lgl4", 1), ("lglc6", 1)):
        new, k = ArkStepper(scheme_from_name(name), system).step_with_iterations(state, 0.0)
        assert k == passes
        assert np.array_equal(new.q, state.q) and np.array_equal(new.p, state.p)


@pytest.mark.filterwarnings("error")
def test_singular_and_nan_blocks_are_flagged():
    # I + nu H with eigenvalues 1 - nu, 1 + 2 nu, ...: singular at nu = 1, a
    # hair off it below the pivot bound, and NaN; the subdiagonal makes the
    # elimination swap rows at large nu
    H = np.array([[-1.0, 0.5, 0.2, 0.1],
                  [0.0, 2.0, 0.3, -0.4],
                  [0.0, 0.7, 0.5, 0.6],
                  [0.0, 0.0, -0.8, 3.0]])
    nu = np.array([0.3, 1.0, np.nextafter(1.0, 2.0), math.nan, 1e12, -0.25])
    (U, swaps, mults), singular = kernel.lu_factor(H, nu)
    assert singular.tolist() == [False, True, True, True, False, False]
    assert swaps[:, 4].any()
    B = np.random.default_rng(3).standard_normal((4, 2, len(nu)))
    for k in (0, 4, 5):
        expected = np.linalg.solve(np.eye(4) + nu[k] * H, B[..., k])
        Y = kernel.lu_solve((U, swaps, mults), B.copy())[..., k]
        assert np.max(np.abs(Y - expected)) <= 1e-14 * max(1.0, np.max(np.abs(expected)))


@pytest.mark.filterwarnings("error")
def test_lu_pivot_paths_match_values_alone():
    # column 0 swaps for every nu (|1 + nu H00| = 1 < |nu H10|), column 1
    # for none, column 2 for some: the batch takes the plain-assignment, the
    # no-swap and the select path, and each value must come out as alone
    H = np.array([[0.0, 1.0, 0.5, -0.3],
                  [1.0, 0.0, 0.2, 0.4],
                  [0.0, 1e-3, 0.3, 0.7],
                  [0.0, 0.0, 0.9, -0.2]])
    nu = np.array([2.0, 3.0, 5.0, -4.0, 1.5, -2.5])
    factors, singular = kernel.lu_factor(H, nu)
    swaps = factors[1]
    assert swaps.shape == (3, len(nu)) and not singular.any()
    assert swaps[0].all() and not swaps[1].any()
    assert swaps[2].any() and not swaps[2].all()
    B = np.random.default_rng(4).standard_normal((4, 2, len(nu)))
    Y = kernel.lu_solve(factors, B.copy())
    for k in range(len(nu)):
        alone, _ = kernel.lu_factor(H, nu[k:k + 1])
        for batched, single in zip(factors, alone):
            assert np.array_equal(batched[..., k:k + 1], single)
        assert np.array_equal(Y[..., k:k + 1], kernel.lu_solve(alone, B[..., k:k + 1].copy()))
        expected = np.linalg.solve(np.eye(4) + nu[k] * H, B[..., k])
        assert np.max(np.abs(Y[..., k] - expected)) <= 1e-14 * max(1.0, np.max(np.abs(expected)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["lgl4", "lglc12"])
def test_stage_solve_broadcasts_a_constant_rhs(name):
    # a right-hand side that is the same for every value may be passed as
    # (n, k, 1): the solution is bitwise that of the copy spread over N
    scheme = scheme_from_name(name)
    H, Q = kernel._schur_basis(scheme)
    alpha = np.array([0.0, 0.3, -1.7, 12.0, 250.0])
    beta = alpha * np.array([1.0, 4.0, 0.5, 1.0, 9.0])
    factors, singular = kernel.lu_factor(H, alpha * beta)
    assert not singular.any()
    R = np.random.default_rng(6).standard_normal((scheme.s2 + scheme.s1, 3, 1))
    X = kernel.stage_solve(scheme, Q, factors, alpha, beta, R)
    spread = np.repeat(R, len(alpha), axis=2)
    assert X.shape == spread.shape
    assert np.array_equal(X, kernel.stage_solve(scheme, Q, factors, alpha, beta, spread))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["lgl4", "lglc4", "lgl6", "lglc12"])
def test_stage_solve_returns_selected_columns_bitwise(name):
    # a column selection returns (Qt[:, q], P[:, p]) bitwise as the full
    # solve holds them; where Q is exactly I (s2 <= 2), Q = None gives the
    # same values
    scheme = scheme_from_name(name)
    H, Q = kernel._schur_basis(scheme)
    alpha = np.array([0.0, -0.0, 0.3, -2.5, 12.0, 1e5, 1e150])
    beta = alpha * np.array([1.0, 1.0, 4.0, 0.5, 1.0, 9.0, 1.0])
    factors, singular = kernel.lu_factor(H, alpha * beta)
    assert not singular.any()
    s2 = scheme.s2
    bases = [Q, None] if s2 <= 2 else [Q]
    for R in (kernel.stage_rhs(scheme),
              np.random.default_rng(7).standard_normal((s2 + scheme.s1, 4, len(alpha)))):
        X = kernel.stage_solve(scheme, Q, factors, alpha, beta, R)
        for basis in bases:
            full = kernel.stage_solve(scheme, basis, factors, alpha, beta, R)
            assert np.array_equal(full, X)
            columns = [(slice(1, 2), slice(0, 1)), (slice(1, 2), slice(None)),
                       (np.array([0, 1]), np.array([1])), (slice(None), slice(None))]
            for q, p in columns:
                Qt, P = kernel.stage_solve(scheme, basis, factors, alpha, beta, R, (q, p))
                assert Qt.tobytes() == full[:s2][:, q].tobytes()
                assert P.tobytes() == full[s2:][:, p].tobytes()


@pytest.mark.filterwarnings("error")
def test_singular_pair_names_only_its_members():
    # the block of singular_at_one is singular where h^2 w = 1; of the
    # (h, w) pairs below only (0.05, 400) is, and only member 2 steps with it
    system = SplitForceSystem(dimension=1, omega_sq=[[2500.0], [400.0], [400.0], [6400.0]])
    state = PhaseState(q=np.ones((4, 1)), p=np.zeros((4, 1)))
    stepper = ArkStepper(singular_at_one(), system)
    with pytest.raises(SingularStageSystemError, match="h=0.05, omega\\^2=400.0") as info:
        stepper.step(state, [0.05, 0.01, 0.05, 0.01])
    assert info.value.members == (2,)


@pytest.mark.filterwarnings("error")
def test_nan_stage_block_names_its_members(monkeypatch):
    # a NaN in one (h, w) block fails that pair as a singular block does: the
    # pair's nu = h (h w) reaches the factorization's pivot check as NaN
    plain = integrator.lu_factor

    def poisoned(H, nu):
        return plain(H, np.where(nu == 0.02 * (0.02 * 4.0), math.nan, nu))

    monkeypatch.setattr(integrator, "lu_factor", poisoned)
    system = SplitForceSystem(dimension=2, f1=lambda q: -q ** 3,
                              omega_sq=[[1.0, 4.0], [1.0, 9.0], [4.0, 9.0]])
    state = PhaseState(q=np.full((3, 2), 0.1), p=np.zeros((3, 2)))
    with pytest.raises(SingularStageSystemError, match="h=0.02, omega\\^2=4.0") as info:
        ArkStepper(scheme_from_name("lgl4"), system).step(state, [0.01, 0.02, 0.02])
    assert info.value.members == (2,)


@pytest.mark.filterwarnings("error")
def test_overflowing_stage_block_is_singular():
    # h w = 1e310 overflows the block's entries to inf: the pivot check
    # rejects it as singular, with no overflow warning on the way
    system = SplitForceSystem(dimension=1, f1=lambda q: -q ** 3, omega_sq=[1e300])
    state = PhaseState(q=[1.0], p=[0.0])
    with pytest.raises(SingularStageSystemError, match="omega\\^2=1e\\+300"):
        ArkStepper(scheme_from_name("lgl4"), system).step(state, 1e10)
    # the fixed-point block is unit upper triangular and never singular; at
    # h = 1e200 its maps overflow, and the fold fails the step size before
    # any force is evaluated
    def never(q):
        raise AssertionError("the force was evaluated")

    general = SplitForceSystem(dimension=1, f1=never, f2=never)
    with pytest.raises(NumericalFailureError, match="stage maps are not finite for h=1e\\+200"):
        ArkStepper(scheme_from_name("lgl4"), general).step(state, 1e200)
    # in a batch, the error names the members that take that step size
    batch = PhaseState(q=np.ones((3, 1)), p=np.zeros((3, 1)))
    with pytest.raises(NumericalFailureError, match="h=1e\\+200") as info:
        ArkStepper(scheme_from_name("lgl4"), general).step(batch, [0.01, 1e200, 0.02])
    assert info.value.members == (1,)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h", [1e100, 1e150])
def test_direct_overflowing_step_raises_typed_error(h):
    # the maps are finite, but the start stage overflows the force; a direct
    # call runs under the errstate the drivers enter, so the finite checks
    # raise the typed error and the force's warning does not escape
    general = SplitForceSystem(dimension=1, f1=lambda q: -q ** 3, f2=lambda q: -q)
    stepper = ArkStepper(scheme_from_name("lgl4"), general)
    state = PhaseState(q=[1.0], p=[0.0])
    before = np.geterr()
    for call in (stepper.step, stepper.step_with_iterations, stepper.solve_stages,
                 yoshida_compose(stepper, 4).step):
        with pytest.raises(StageSolveError):
            call(state, h)
        assert np.geterr() == before


def test_new_step_sizes_are_factored_in_one_call(monkeypatch):
    calls = []
    plain = integrator.lu_factor

    def counted(H, nu):
        calls.append(len(nu))
        return plain(H, nu)

    monkeypatch.setattr(integrator, "lu_factor", counted)
    params = fput.FputParams(ell=3, omega=50.0)
    system = fput.fput_system(params)
    state0 = fput.paper_initial_state(params)
    state = PhaseState(q=np.tile(state0.q, (5, 1)), p=np.tile(state0.p, (5, 1)))
    stepper = ArkStepper(scheme_from_name("lgl4"), system)
    # five step sizes, one repeated, over the two values of Omega^2 (0 and
    # omega^2): one call for the 4 x 2 new (h, w) values
    stepper.step(state, [0.01, 0.02, 0.03, 0.04, 0.01])
    assert calls == [8]
    stepper.step(state, [0.01, 0.02, 0.03, 0.04, 0.01])
    assert calls == [8]
    # a new key factors only the step sizes no earlier key folded
    stepper.step(state, [0.04, 0.05, 0.01, 0.06, 0.05])
    assert calls == [8, 4]


def test_batched_state_rejected_where_unsupported():
    system = SplitForceSystem(dimension=1, f1=lambda q: -q ** 3, omega_sq=[[1.0], [4.0]])
    batch = PhaseState(q=[[0.1], [0.2]], p=[[0.0], [0.0]])
    with pytest.raises(ValueError):
        integrate("lgl4", system, batch, 0.1, 2)
    with pytest.raises(ValueError):   # one member too many for omega_sq
        ark_step(scheme_from_name("lgl4"), system,
                 PhaseState(q=np.zeros((3, 1)), p=np.zeros((3, 1))), 0.1)
    with pytest.raises(ValueError):
        PhaseState(q=np.zeros((2, 2, 1)), p=np.zeros((2, 2, 1)))


def test_time_of_the_wrong_shape_rejected():
    for q, t in ((np.zeros((3, 2)), np.zeros(2)), (np.zeros((3, 2)), np.zeros((3, 1))),
                 (np.zeros(2), np.zeros(1))):
        with pytest.raises(ValueError, match="one time"):
            PhaseState(q=q, p=q, t=t)


def test_integrate_rejects_negative_steps_and_zero_stride():
    state = PhaseState(q=[1.0], p=[0.0])
    with pytest.raises(ValueError, match="n_steps"):
        integrate("lgl4", harmonic_system(1.0), state, 0.1, -1)
    with pytest.raises(ValueError, match="stride"):
        integrate("lgl4", harmonic_system(1.0), state, 0.1, 3, stride=0)


def test_explicit_fast_force_checked_against_a_diagonal_per_member():
    w = np.array([[1.0, 4.0], [9.0, 16.0]])
    system = SplitForceSystem(dimension=2, f2=lambda q: -w * q, omega_sq=w)
    assert np.array_equal(system.omega_sq, w)
    for wrong in (lambda q: -w[::-1] * q, lambda q: -w[0] * q):
        with pytest.raises(ValueError, match="disagrees"):
            SplitForceSystem(dimension=2, f2=wrong, omega_sq=w)


def test_step_after_the_fold_cache_clears_is_a_fresh_steppers():
    # the folds of more than 64 step sizes are dropped at once; a step size
    # folded again after that steps bitwise as a new stepper steps it, alone
    # and in a batch with one step size per member
    params = fput.FputParams(ell=3, omega=50.0)
    system, state = fput.fput_system(params), fput.paper_initial_state(params)
    batch = PhaseState(q=np.tile(state.q, (2, 1)), p=np.tile(state.p, (2, 1)))
    lgl4 = scheme_from_name("lgl4")
    sizes = (0.01 + 1e-4 * np.arange(70)).tolist()
    stepper = ArkStepper(lgl4, system)
    for h in sizes:
        stepper.step(state, h)
    assert sizes[0] not in stepper._folds
    for start, h in ((state, sizes[0]), (batch, [sizes[1], sizes[-1]])):
        got, fresh = stepper.step(start, h), ArkStepper(lgl4, system).step(start, h)
        assert np.array_equal(got.q, fresh.q) and np.array_equal(got.p, fresh.p)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_step_size_rejected(bad):
    # without the check, a non-finite h would reach the stage block and
    # fail there as a misleading SingularStageSystemError
    params = fput.FputParams(ell=3, omega=50.0)
    system, state = fput.fput_system(params), fput.paper_initial_state(params)
    lgl4 = scheme_from_name("lgl4")
    for call in (lambda: ark_step(lgl4, system, state, bad),
                 lambda: ark_step(lgl4, iterated(system), state, np.float64(bad)),
                 lambda: solve_stages(lgl4, system, state, bad),
                 lambda: solve_stages(lgl4, iterated(system), state, bad),
                 lambda: integrate("lgl4", system, state, bad, 3),
                 lambda: integrate("imex-yoshida4", system, state, bad, 3)):
        with pytest.raises(ValueError, match="finite"):
            call()
    batch = PhaseState(q=np.tile(state.q, (3, 1)), p=np.tile(state.p, (3, 1)))
    for stepped in (system, iterated(system)):
        stepper = make_stepper("imex-yoshida4", stepped)
        with pytest.raises(ValueError, match="finite"):
            stepper.step(batch, [0.01, bad, 0.02])
        for wrong in ([0.01, 0.02], [[0.01, 0.02, 0.03]]):
            with pytest.raises(ValueError, match="one per member"):
                stepper.step(batch, wrong)
        with pytest.raises(ValueError, match="one per member"):
            stepper.step(state, [0.01])
    # zero and negative step sizes stay valid: the trigonometric-form check
    # steps backwards
    for h in (0.0, -0.01, [0.0, -0.01, 0.01]):
        stepped = make_stepper("lgl4", system).step(batch, h)
        assert np.all(np.isfinite(stepped.q)) and np.all(np.isfinite(stepped.p))


def _batched_run(name, system, state, hs, steps):
    """``steps`` steps of per-member sizes ``hs`` from ``state`` repeated per member."""
    stepper = make_stepper(name, system)
    batch = PhaseState(q=np.tile(state.q, (len(hs), 1)), p=np.tile(state.p, (len(hs), 1)))
    for _ in range(steps):
        batch = stepper.step(batch, hs)
    return batch


def _single_runs(name, system, state, hs, steps):
    """The final state of ``steps`` single-state steps for each h of ``hs``."""
    singles = []
    for h in hs:
        single, stepper = state, make_stepper(name, system)
        for _ in range(steps):
            single = stepper.step(single, h)
        singles.append(single)
    return singles


@pytest.mark.parametrize("fixed_point", [False, True],
                         ids=["linearly-implicit", "fixed-point"])
@pytest.mark.parametrize("name", ["lgl4", "lgl6", "imex-yoshida4"])
def test_per_member_step_sizes_match_single_states(name, fixed_point):
    # each member, with its own step size, reaches bitwise the state it
    # reaches alone, for a shared and for a per-member omega_sq, or for
    # their forces iterated without it; its time advances by its own step size
    params = fput.FputParams(ell=3, omega=5.0 if fixed_point else 200.0)
    chain, state = fput.fput_system(params), fput.paper_initial_state(params)
    solved = iterated if fixed_point else (lambda system: system)
    system = solved(chain)
    hs = np.array([0.02, 0.013, 0.005, 0.02, 0.0071])
    batch = _batched_run(name, system, state, hs, 40)
    for k, single in enumerate(_single_runs(name, system, state, hs, 40)):
        assert np.array_equal(batch.q[k], single.q) and np.array_equal(batch.p[k], single.p)
    np.testing.assert_allclose(batch.t, 40 * hs, rtol=1e-13)
    per_row = SplitForceSystem(dimension=6, f1=chain.f1,
                               omega_sq=np.tile(chain.omega_sq, (len(hs), 1)))
    rows = _batched_run(name, solved(per_row), state, hs, 40)
    assert np.array_equal(rows.q, batch.q) and np.array_equal(rows.p, batch.p)


def test_fixed_point_batch_freezes_converged_members():
    # the members converge after different numbers of passes; each keeps the
    # stages it converged with, as it would alone
    system = iterated(harmonic_system(1.0, dimension=2))
    state = PhaseState(q=[[1e-3, 0.0], [0.5, -0.2], [2.0, 1.0]],
                       p=[[0.0, 1e-3], [0.1, 0.3], [-1.0, 3.0]])
    lgl4 = scheme_from_name("lgl4")
    hs = np.array([0.01, 0.2, 0.45])
    Q, P, Qt, iterations = solve_stages(lgl4, system, state, hs)
    counts = []
    for k, h in enumerate(hs):
        one = PhaseState(q=state.q[k], p=state.p[k])
        q_k, p_k, qt_k, count = solve_stages(lgl4, system, one, h)
        counts.append(count)
        assert np.array_equal(Q[:, k], q_k) and np.array_equal(P[:, k], p_k)
        assert np.array_equal(Qt[:, k], qt_k)
    assert len(set(counts)) > 1 and iterations == max(counts)
    stepped, count = ArkStepper(lgl4, system).step_with_iterations(state, hs)
    assert count == max(counts)
    for k, h in enumerate(hs):
        one = ark_step(lgl4, system, PhaseState(q=state.q[k], p=state.p[k]), h)
        assert np.array_equal(stepped.q[k], one.q) and np.array_equal(stepped.p[k], one.p)


def test_fixed_point_batch_names_failing_members():
    def blows_up(q):
        return np.where(np.abs(q) > 1.5, np.nan, -q)

    system = SplitForceSystem(dimension=1, f1=blows_up)
    state = PhaseState(q=[[0.5], [2.0], [0.2]], p=[[0.0], [0.0], [0.1]])
    with pytest.raises(NumericalFailureError) as info:
        ark_step(scheme_from_name("lgl4"), system, state, 0.1)
    assert info.value.members == (1,)
    with pytest.raises(NonconvergenceError) as info:
        ark_step(scheme_from_name("lgl4"), iterated(harmonic_system(50.0)),
                 PhaseState(q=[[1.0], [1.0]], p=[[0.0], [0.0]]), [1e-3, 1.0])
    assert info.value.members == (1,)


def _turns_bad(value, from_call, member=None, to_call=math.inf):
    """The chain's slow force at omega = 50, which returns ``value`` in its
    ``from_call``-th to ``to_call``-th calls (in ``member``'s rows only, if
    given)."""
    chain = fput.fput_system(fput.FputParams(ell=3, omega=50.0))
    calls = []

    def f1(q):
        calls.append(None)
        out = chain.f1(q)
        if member is not None:
            out[..., 0, :] = 0.25   # the other member: a constant force
        if from_call <= len(calls) <= to_call:
            (out if member is None else out[..., member, :])[...] = value
        return out

    return SplitForceSystem(dimension=6, f1=f1, omega_sq=chain.omega_sq), calls


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_force_failing_between_passes_diverges_one_member(value):
    # F1(q0) and the forces of the start are finite, so the first check
    # passes; the second pass's forces are not, and the iterate shows it
    lgl4, h = scheme_from_name("lgl4"), 0.04
    state = fput.paper_initial_state(fput.FputParams(ell=3, omega=50.0))
    system, _ = _turns_bad(value, from_call=3)
    with pytest.raises(NonconvergenceError) as info:
        ArkStepper(lgl4, system).step(state, h)
    exc = info.value
    assert str(exc) == "stage iteration diverged after 2 iterations"
    assert (exc.residual, exc.iterations, exc.members, exc.step_index) == (math.inf, 2, (0,),
                                                                            None)

    # through integrate, in the second step
    counting, calls = _turns_bad(value, from_call=math.inf)
    integrate(lgl4, counting, state, h, 1)
    system, _ = _turns_bad(value, from_call=len(calls) + 3)
    with pytest.raises(NonconvergenceError) as info:
        integrate(lgl4, system, state, h, 5)
    exc = info.value
    assert str(exc) == f"step 1 (t={h:g}): stage iteration diverged after 2 iterations"
    assert (exc.residual, exc.iterations, exc.members, exc.step_index) == (math.inf, 2, (0,), 1)

    # member 0 feels a constant force and converges in the first pass;
    # member 1's forces fail in the second
    system, _ = _turns_bad(value, from_call=3, member=1)
    batch = PhaseState(q=np.tile(state.q, (2, 1)), p=np.tile(state.p, (2, 1)))
    with pytest.raises(NonconvergenceError) as info:
        ArkStepper(lgl4, system).step(batch, h)
    exc = info.value
    assert str(exc) == "stage iteration diverged after 2 iterations"
    assert (exc.residual, exc.iterations, exc.members) == (math.inf, 2, (1,))


@pytest.mark.parametrize("fixed_point", [False, True], ids=["linear", "fixed-point"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_first_force_failure_is_the_forces_fault(value, fixed_point):
    # a force that fails in its first evaluation, at q0 (the explicit slot
    # F1(q0)) or at the start's interior stages, raises NumericalFailureError
    # naming its members; one that first fails in a later pass diverges them
    lgl4 = scheme_from_name("lgl4")
    h = 0.01 if fixed_point else 0.04
    state = fput.paper_initial_state(fput.FputParams(ell=3, omega=50.0))
    batch = PhaseState(q=np.tile(state.q, (3, 1)), p=np.tile(state.p, (3, 1)))

    def bad(from_call, to_call=math.inf, member=None):
        system, _ = _turns_bad(value, from_call, member, to_call)
        return iterated(system) if fixed_point else system

    for calls in ((1, 1), (2, 2), (1, math.inf)):   # F1(q0), the interior stages, both
        with pytest.raises(NumericalFailureError,
                           match=r"^force evaluation returned NaN/Inf$") as info:
            ArkStepper(lgl4, bad(*calls)).step(state, h)
        assert info.value.members == (0,)
        with pytest.raises(NumericalFailureError) as info:
            ArkStepper(lgl4, bad(*calls, member=1)).step(batch, h)
        assert info.value.members == (1,)
        with pytest.raises(NumericalFailureError) as info:
            integrate(lgl4, bad(*calls), state, h, 3)
        assert info.value.members == (0,)
    if fixed_point:
        # the fast force at q0 and at the start's stages
        fast = dataclasses.replace(bad(math.inf), f2=lambda q: np.full_like(q, value))
        with pytest.raises(NumericalFailureError) as info:
            ArkStepper(lgl4, fast).step(state, h)
        assert info.value.members == (0,)

    with pytest.raises(NonconvergenceError, match="diverged after 2 iterations") as info:
        ArkStepper(lgl4, bad(3)).step(state, h)
    assert info.value.members == (0,)
    with pytest.raises(NonconvergenceError, match="diverged after 2 iterations") as info:
        ArkStepper(lgl4, bad(3, member=1)).step(batch, h)
    assert info.value.members == (1,)


def _assert_frozen(state, members=None):
    for a in (state.q, state.p):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.q = state.q
    if members is None:
        assert type(state.t) is float
    else:
        assert state.t.shape == (members,) and not state.t.flags.writeable


@pytest.mark.parametrize("name", ["lgl4", "imex-yoshida4"])
def test_stepped_states_are_frozen(name):
    params = fput.FputParams(ell=3, omega=50.0)
    system, state = fput.fput_system(params), fput.paper_initial_state(params)
    stepper = make_stepper(name, system)
    for h in (0.04, np.float64(0.04)):
        new = stepper.step(state, h)
        _assert_frozen(new)
        assert new.t == 0.04 and new.dimension == 6
    batch = PhaseState(q=np.tile(state.q, (3, 1)), p=np.tile(state.p, (3, 1)))
    _assert_frozen(stepper.step(batch, 0.04))
    new = stepper.step(batch, np.array([0.01, 0.02, 0.04]))
    _assert_frozen(new, members=3)
    assert new.t.tolist() == [0.01, 0.02, 0.04]
    seen = []
    integrate(name, system, state, 0.04, 3, observer=seen.append)
    for observed in seen:
        _assert_frozen(observed)
    assert [s.t for s in seen] == [0.04, 0.08, 0.04 * 3]
    # the public constructor still copies and checks
    q = np.array(state.q)
    copied = PhaseState(q=q, p=state.p)
    q[0] = 7.0
    assert copied.q[0] == state.q[0] and not copied.q.flags.writeable
    with pytest.raises(ValueError):
        PhaseState(q=state.q, p=state.p[:3])


@pytest.mark.parametrize("solved", [lambda system: system, iterated],
                         ids=["linearly-implicit", "fixed-point"])
def test_stepper_is_freed_by_reference_counting(solved):
    # a stepper holds its folded maps; a reference cycle through it would
    # keep them until the cycle collector runs, and memory grows meanwhile
    params = fput.FputParams(ell=3, omega=5.0)
    stepper = ArkStepper(scheme_from_name("lgl4"), solved(fput.fput_system(params)))
    stepper.step(fput.paper_initial_state(params), 0.01)
    ref = weakref.ref(stepper)
    del stepper
    assert ref() is None


# ---------------------------------------------------------------------------
# NumPy's C einsum
# ---------------------------------------------------------------------------

def test_einsum_is_numpys_c_einsum():
    # the function np.einsum(..., optimize=False) forwards to
    if np.lib.NumpyVersion(np.__version__) < "2.0.0":
        from numpy.core.einsumfunc import c_einsum
    else:
        from numpy._core.einsumfunc import c_einsum
    assert integrator._einsum is c_einsum


@pytest.mark.parametrize("subscripts,shapes", [
    (integrator._BY_COLUMN, [(3, 2, 6), (2, 6)]),           # c0 of one state
    (integrator._BY_COLUMN, [(4, 3, 5, 6), (3, 5, 6)]),     # a pass of a batch
    (integrator._BY_COLUMN, [(2, 10, 1, 6), (10, 1, 6)]),   # integrate's update
    ("ij,j->i", [(1, 18), (18,)]),                          # H of one chain
    ("ij,j->i", [(450, 18), (18,)]),                        # H of the sweep
    ("ij->i", [(450, 6)]),                                  # the sweep's I total
], ids=["start", "batch-pass", "update", "energy-one", "energy-sweep", "row-sum"])
def test_einsum_gives_numpy_einsum_bits(subscripts, shapes):
    rng = np.random.default_rng(11)
    operands = [rng.standard_normal(s) * 10.0 ** rng.integers(-8, 9, s) for s in shapes]
    expected = np.einsum(subscripts, *operands)
    assert integrator._einsum(subscripts, *operands).tobytes() == expected.tobytes()
    out, want = np.empty_like(expected), np.empty_like(expected)
    np.einsum(subscripts, *operands, out=want)
    assert integrator._einsum(subscripts, *operands, out=out) is out
    assert out.tobytes() == want.tobytes() == expected.tobytes()


def test_steps_and_energies_bypass_numpy_einsum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(np, "einsum", refuse)
    params = fput.FputParams(ell=3, omega=50.0)
    system, state = fput.fput_system(params), fput.paper_initial_state(params)
    for name, chain in (("lgl4", system), ("imex-yoshida4", system), ("lgl4", iterated(system))):
        traj = integrate(name, chain, state, 0.01, 5)
        assert np.isfinite(traj.qs).all()
    Q, P, Qt, _ = solve_stages(scheme_from_name("lgl6"), system, state, 0.04)
    assert np.isfinite(Q).all() and np.isfinite(P).all() and np.isfinite(Qt).all()
    assert math.isfinite(fput.energy_breakdown(params, state).hamiltonian)
    sweep = fput.experiment_resonance_sweep("lgl4", params, 0.02, 0.1, [10.0, 20.0])
    assert not sweep.failures and np.isfinite(sweep.max_energy_error).all()


# ---------------------------------------------------------------------------
# system validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1e-12}, {"tol": math.nan},
                                    {"tol": math.inf}],
                         ids=["tol-zero", "tol-negative", "tol-nan", "tol-inf"])
def test_stage_config_validation(kwargs):
    # an infinite tolerance would accept the start as the converged stages
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        ArkStepper(scheme_from_name("lgl4"), harmonic_system(1.0), **kwargs)


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
    system = iterated(harmonic_system(50.0))
    state = PhaseState(q=[1.0], p=[0.0])
    with pytest.raises(NonconvergenceError) as info:
        integrate("lgl4", system, state, 1.0, 5)
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
    stepper = ArkStepper(scheme_from_name(name), system, TIGHT_TOL)
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

    class Drift:
        def step_with_iterations(self, state, h):
            return PhaseState(q=state.q + h * state.p, p=state.p, t=state.t + h), 0

    drift = Drift()
    for order in (4, 6):
        composed = yoshida_compose(drift, order)
        out = composed.step(PhaseState(q=[1.0], p=[2.0]), 0.5)
        assert abs(out.q[0] - 2.0) < 1e-14
        assert out.p[0] == 2.0
        assert out.t == 0.5


def test_composition_reports_substep_iterations(tmp_path):
    params = fput.FputParams(ell=3, omega=50.0)
    system = fput.fput_system(params)
    state = fput.paper_initial_state(params)
    base = ArkStepper(scheme_from_name("lgl4"), system)
    traj = integrate(yoshida_compose(base, 4), system, state, 0.04, 20)
    # each step reports the passes of its three substeps together
    sums = []
    for _ in range(20):
        sums.append(0)
        for w in YOSHIDA4_SUBSTEPS:
            state, iterations = base.step_with_iterations(state, w * 0.04)
            sums[-1] += iterations
    assert traj.stage_iterations.tolist() == sums and min(sums) > 0
    # lgl2, the base of imex-yoshida*, has no interior stage: no substep iterates
    explicit = integrate("imex-yoshida4", system, fput.paper_initial_state(params), 0.04, 20)
    assert not explicit.stage_iterations.any()
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].endswith(",stage_iters")
    assert all(int(line.rsplit(",", 1)[1]) > 0 for line in lines[2:])


@pytest.mark.parametrize("name", ["imex-yoshida4", "imex-yoshida6"])
def test_composition_time_symmetry(name):
    params = fput.FputParams(ell=2, omega=3.0)
    system = fput.fput_system(params)
    stepper = make_stepper(name, system, TIGHT_TOL)
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
    # one rule for composition names: 4 and 6 alone
    for name in ("imex-yoshidaX", "imex-yoshida", "imex-yoshida8", "imex-yoshida04"):
        with pytest.raises(ValueError, match=f"^unknown composition '{name}'$"):
            make_stepper(name, system)


def test_stepper_protocol_is_step_with_iterations():
    class StepOnly:
        def step(self, state, h):
            return state

    system, state = harmonic_system(1.0), PhaseState(q=[1.0], p=[0.0])
    for refuse in (lambda: make_stepper(StepOnly(), system),
                   lambda: integrate(StepOnly(), system, state, 0.1, 3),
                   lambda: yoshida_compose(StepOnly(), 4),
                   lambda: ComposedStepper(StepOnly(), YOSHIDA4_SUBSTEPS),
                   lambda: yoshida_compose(lambda s, h: s, 6)):
        with pytest.raises(TypeError, match="step_with_iterations"):
            refuse()
    stepper = ArkStepper(scheme_from_name("lgl4"), system)
    assert make_stepper(stepper, system) is stepper


@pytest.mark.parametrize("stride", [1, 3])
def test_integrate_observer_sees_every_step(stride):
    params = fput.FputParams(ell=3, omega=50.0)
    system, state0 = fput.fput_system(params), fput.paper_initial_state(params)
    state0 = PhaseState(q=state0.q, p=state0.p, t=0.3)
    h, n_steps = 0.04, 10
    seen = []
    traj = integrate("lgl4", system, state0, h, n_steps, observer=seen.append, stride=stride)
    assert len(seen) == n_steps
    for i, state in enumerate(seen):
        assert state.q.shape == state.p.shape == (6,)
        assert state.t == state0.t + (i + 1) * h
    # the recorded rows are the observed states, every stride-th one and the
    # last, which a stride that does not divide the step count adds
    steps = sorted(set(range(stride, n_steps, stride)) | {n_steps})
    assert traj.times.tolist() == [state0.t] + [state0.t + k * h for k in steps]
    recorded = [seen[k - 1] for k in steps]
    assert np.array_equal(traj.qs[1:], [s.q for s in recorded])
    assert np.array_equal(traj.ps[1:], [s.p for s in recorded])


def test_integrate_observer_not_called_without_steps():
    def never(state):
        raise AssertionError("a zero-step run observed a state")

    traj = integrate("lgl4", harmonic_system(1.0), PhaseState(q=[1.0], p=[0.0]), 0.1, 0,
                     observer=never)
    assert len(traj) == 1


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
    traj = integrate("lgl6", system, state, T / n, n, tol=TIGHT_TOL,
                     stride=n)
    final = traj.final_state()
    assert abs(final.q[0] - ref.q[0]) < 1e-9
    assert abs(final.p[0] - ref.p[0]) < 1e-9


def _oracle_cases():
    params = fput.FputParams(ell=3, omega=1e4)
    chain = (fput.fput_system(params), fput.paper_initial_state(params), 0.02, 2000)
    harmonic = (harmonic_system(3.0, 2), PhaseState(q=[1.0, 2.0], p=[-0.5, 0.25]), 2.0, 200)
    # at 20 steps the integrating-factor method around free flight and the
    # tableau's Nystrom form differ by 6.9e-9 in the fine run
    duffing = (SplitForceSystem(dimension=2, f1=lambda q: -q ** 3, f2=lambda q: -4.0 * q),
               PhaseState(q=[1.0, -0.5], p=[0.0, 0.3]), 3.0, 20)
    return {"chain": chain, "no-f1": harmonic, "explicit-f2": duffing}


@pytest.mark.parametrize("case", ["chain", "no-f1", "explicit-f2"])
def test_rk8_matches_textbook_loop(case):
    # every system steps the integrating-factor weights, around the
    # rotations of omega_sq or around free flight without it; each is
    # checked against the textbook Lawson loop, the fine run (row 0) at n
    # steps and the coarse run (row 1) at n / 2
    from symparc.integrator import _rk8_final_state
    system, state0, duration, n_steps = _oracle_cases()[case]
    fine, coarse = _rk8_final_state(system, state0, duration, n_steps)
    for got, steps in ((fine, n_steps), (coarse, n_steps // 2)):
        ref = textbook_lawson_rk8(system, state0, duration, steps)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ["chain", "no-f1", "explicit-f2"])
def test_rk8_coarse_member_is_its_run_alone(case):
    # the coarse member shares its force calls with the fine one, but goes
    # through its own maps: row 1 of a 2n-step call is bitwise row 0 of an
    # n-step call
    from symparc.integrator import _rk8_final_state
    system, state0, duration, n_steps = _oracle_cases()[case]
    paired = _rk8_final_state(system, state0, duration, 2 * n_steps)
    alone = _rk8_final_state(system, state0, duration, n_steps)
    assert np.array_equal(paired[1], alone[0])


@pytest.mark.parametrize("n_steps", [0, 1, 7, -2])
def test_rk8_rejects_odd_step_counts(n_steps):
    from symparc.integrator import _rk8_final_state
    with pytest.raises(ValueError):
        _rk8_final_state(harmonic_system(1.0), PhaseState(q=[1.0], p=[0.0]), 1.0, n_steps)


@pytest.mark.parametrize("omega, T, n_steps", [(1.0, 1.0, 100), (50.0, 0.5, 500),
                                               (1e3, 0.05, 1000), (1e4, 0.005, 1000)])
def test_reference_matches_fine_plain_rk8(omega, T, n_steps):
    # the loop that integrates both forces around free flight, with no
    # rotation, at h*omega <= 0.05 is converged to a few 1e-15 here; the
    # certified oracle agreed with it to 2.1e-14 at worst (omega = 1)
    params = fput.FputParams(ell=3, omega=omega)
    system, state0 = fput.fput_system(params), fput.paper_initial_state(params)
    fine = textbook_lawson_rk8(iterated(system), state0, T, n_steps)
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
    assert np.max(np.abs(_rk8_final_state(system, state0, T, 2)[1] - exact)) <= 1e-15
    assert np.max(np.abs(_rk8_final_state(system, state0, T, 1000)[0] - exact)) <= 1e-13
    out = reference_solve(system, state0, T, tol=1e-13)
    assert np.max(np.abs(np.concatenate([out.q, out.p]) - exact)) <= 1e-13


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1e-12}, {"tol": math.nan},
                                    {"tol": math.inf}],
                         ids=["tol-zero", "tol-negative", "tol-nan", "tol-inf"])
def test_reference_rejects_uncertifiable_tolerance(monkeypatch, kwargs):
    import symparc.integrator as integrator

    def never(*args):
        raise AssertionError("the oracle ran before its arguments were checked")

    monkeypatch.setattr(integrator, "_rk8_final_state", never)
    with pytest.raises(ValueError):
        reference_solve(harmonic_system(1.0), PhaseState(q=[1.0], p=[0.0]), 1.0, **kwargs)


def test_reference_rejects_a_batch_and_a_non_finite_time():
    state = PhaseState(q=[1.0], p=[0.0])
    batch = PhaseState(q=[[1.0], [0.5]], p=[[0.0], [0.0]])
    with pytest.raises(ValueError, match="one state"):
        reference_solve(harmonic_system(1.0), batch, 1.0)
    with pytest.raises(ValueError, match="one state"):
        reference_solve(SplitForceSystem(dimension=1, omega_sq=[[1.0], [4.0]]), state, 1.0)
    for T in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            reference_solve(harmonic_system(1.0), state, T)


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


def test_reference_pairs_levels_in_one_pass():
    # each coarse step of 2h makes 12 force calls on both members' rows and
    # 12 on the fine member's alone: 24 where the two levels run one after
    # the other make 36
    params = fput.FputParams(ell=3, omega=1e4)
    system, state0 = fput.fput_system(params), fput.paper_initial_state(params)
    seen = []

    def f1(q):
        seen.append(q.size // q.shape[-1])
        return system.f1(q)

    reference_solve(dataclasses.replace(system, f1=f1), state0, 0.02, tol=1e-9)
    assert len(seen) == 2400 and sum(seen) == 3600


def test_reference_stops_when_agreement_stalls(monkeypatch):
    # at tol = 1e-15 roundoff outgrows the step error: the agreement climbs
    # with every halving, so the oracle gives up after two pairs that fail
    # to shrink it instead of running all its refinements
    params = fput.FputParams(ell=3, omega=1.0)
    system, state0 = fput.fput_system(params), fput.paper_initial_state(params)
    calls = []
    levels = integrator._rk8_final_state

    def counted(*args):
        calls.append(args[-1])
        return levels(*args)

    monkeypatch.setattr(integrator, "_rk8_final_state", counted)
    with pytest.raises(OracleFailureError, match="best reached was"):
        reference_solve(system, state0, 0.5, tol=1e-15)
    assert len(calls) <= 3
