import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symparc.fput as fput
from symparc.fput import (
    FputParams,
    convergence_errors,
    energy_breakdown,
    experiment_energy,
    experiment_order_reduction,
    experiment_resonance_sweep,
    fit_loglog_slope,
    fput_system,
    paper_initial_state,
)
from symparc.integrator import (
    NonconvergenceError,
    PhaseState,
    StageSolveConfig,
    integrate,
    reference_solve,
)

from _helpers import (
    SPECIAL_FLOATS as SPECIAL,
    cellwise_csv,
    singular_at_one,
    slicing_quartic_potential,
    slicing_slow_force,
)


def _quartic_potential(q, ell):
    """V = 1/4 sum e^4: the chain energy at p = 0 without stiff springs."""
    return fput._chain_energies(q, np.zeros_like(q), 0.0, ell)[0]


def test_params_validation():
    with pytest.raises(ValueError):
        FputParams(ell=0, omega=1.0)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            FputParams(ell=3, omega=bad)


def test_forces_vanish_at_origin():
    system = fput_system(FputParams(ell=3, omega=50.0))
    zero = np.zeros(6)
    assert np.array_equal(system.slow_force(zero), zero)
    assert np.array_equal(system.fast_force(zero), zero)


@pytest.mark.parametrize("ell", [1, 2, 3, 5])
def test_slow_force_is_gradient_of_quartic_potential(ell):
    from symparc.fput import _slow_force
    rng = np.random.default_rng(42)
    eps = 1e-6
    for _ in range(100):
        q = rng.uniform(-2.0, 2.0, size=2 * ell)
        force = _slow_force(q, ell)
        for i in range(2 * ell):
            qp, qm = q.copy(), q.copy()
            qp[i] += eps
            qm[i] -= eps
            fd = -(_quartic_potential(qp, ell) - _quartic_potential(qm, ell)) / (2 * eps)
            assert abs(force[i] - fd) < 1e-6


def test_slow_force_broadcasts():
    ell = 3
    from symparc.fput import _slow_force
    rng = np.random.default_rng(7)
    batch = rng.standard_normal((4, 5, 2 * ell))
    out = _slow_force(batch, ell)
    assert out.shape == batch.shape
    for i in range(4):
        for j in range(5):
            assert np.array_equal(out[i, j], _slow_force(batch[i, j], ell))


@pytest.mark.parametrize("ell", [1, 2, 3, 5])
def test_matrix_force_matches_slicing_form(ell):
    from symparc.fput import _slow_force
    rng = np.random.default_rng(ell)
    d = 2 * ell
    for shape in [(d,), (4, d), (450, 3, d)]:
        q = rng.uniform(-2.0, 2.0, size=shape)
        for got, ref in ((_slow_force(q, ell), slicing_slow_force(q, ell)),
                         (_quartic_potential(q, ell), slicing_quartic_potential(q, ell))):
            assert np.shape(got) == np.shape(ref)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_paper_initial_state():
    params = FputParams(ell=3, omega=50.0)
    state = paper_initial_state(params)
    assert np.array_equal(state.q, [1.0, 0.0, 0.0, 0.02, 0.0, 0.0])
    assert np.array_equal(state.p, [1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    assert state.t == 0.0
    big = paper_initial_state(FputParams(ell=2, omega=1e12))
    assert big.q[2] == 1e-12


def test_energy_breakdown_values():
    params = FputParams(ell=3, omega=50.0)
    zero = PhaseState(q=np.zeros(6), p=np.zeros(6))
    b0 = energy_breakdown(params, zero)
    assert b0.hamiltonian == 0.0 and b0.total_oscillatory == 0.0

    state = paper_initial_state(params)
    b = energy_breakdown(params, state)
    assert abs(b.total_oscillatory - 1.0) < 1e-14
    assert abs(b.oscillatory[0] - 1.0) < 1e-14
    assert np.all(b.oscillatory[1:] == 0.0)
    # kinetic 1 + oscillatory potential 1/2 + quartic (0.98^4 + 1.02^4)/4
    expected_h = 1.0 + 0.5 + (0.98 ** 4 + 1.02 ** 4) / 4.0
    assert abs(b.hamiltonian - expected_h) < 1e-14
    assert abs(b.hamiltonian - 2.00120008) < 1e-9


@pytest.mark.parametrize("ell", [1, 3])
def test_chain_energies_batch_rows_match_single_states(ell):
    rng = np.random.default_rng(3 + ell)
    omegas = np.geomspace(1.0, 1e4, 450)
    q = rng.uniform(-2.0, 2.0, (450, 2 * ell)) / np.c_[np.ones((450, ell)),
                                                       np.tile(omegas[:, None], ell)]
    p = rng.uniform(-2.0, 2.0, (450, 2 * ell))
    h, osc = fput._chain_energies(q, p, omegas, ell)
    assert h.shape == (450,) and osc.shape == (450, ell)
    # every sum runs row by row: each row is bitwise that of its state alone
    for i, omega in enumerate(omegas):
        params = FputParams(ell=ell, omega=omega)
        single = energy_breakdown(params, PhaseState(q=q[i], p=p[i]))
        assert h[i] == single.hamiltonian
        assert np.array_equal(osc[i], single.oscillatory)
        assert fput_system(params).energy(PhaseState(q=q[i], p=p[i])) == single.hamiltonian
    # a stack of chains with one frequency broadcasts over every leading axis
    stacked = fput._chain_energies(q.reshape(3, 150, -1), p.reshape(3, 150, -1), 2.0, ell)
    flat = fput._chain_energies(q, p, 2.0, ell)
    assert stacked[0].shape == (3, 150) and stacked[1].shape == (3, 150, ell)
    assert np.array_equal(stacked[0].ravel(), flat[0])


def test_energy_breakdown_dimension_mismatch():
    with pytest.raises(ValueError):
        energy_breakdown(FputParams(ell=3, omega=1.0),
                         PhaseState(q=[0.0, 0.0], p=[0.0, 0.0]))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=30, deadline=None)
def test_oscillatory_energy_properties(ell, seed):
    rng = np.random.default_rng(seed)
    params = FputParams(ell=ell, omega=7.0)
    q = rng.standard_normal(2 * ell)
    p = rng.standard_normal(2 * ell)
    b = energy_breakdown(params, PhaseState(q=q, p=p))
    assert np.all(b.oscillatory >= 0.0)
    assert abs(b.total_oscillatory - b.oscillatory.sum()) < 1e-14
    # oscillatory energies ignore the slow variables entirely
    q2, p2 = q.copy(), p.copy()
    q2[:ell] = rng.standard_normal(ell)
    p2[:ell] = rng.standard_normal(ell)
    b2 = energy_breakdown(params, PhaseState(q=q2, p=p2))
    assert np.array_equal(b.oscillatory, b2.oscillatory)


def test_hamiltonian_conserved_by_reference_flow():
    params = FputParams(ell=3, omega=5.0)
    system = fput_system(params)
    state0 = paper_initial_state(params)
    out = reference_solve(system, state0, 1.0, tol=1e-12)
    h0 = system.energy(state0)
    h1 = system.energy(out)
    assert abs(h1 - h0) < 1e-10


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_energy_history_zero_time():
    hist = experiment_energy("lgl4", FputParams(ell=3, omega=50.0), 0.04, 0.0)
    assert len(hist.times) == 1
    assert hist.energy_error[0] == 0.0
    assert abs(hist.total_oscillatory[0] - 1.0) < 1e-14


def test_energy_history_run_and_csv(tmp_path):
    params = FputParams(ell=3, omega=50.0)
    hist = experiment_energy("lgl4", params, 0.04, 8.0)
    assert len(hist.times) == 201
    assert np.max(hist.energy_error) < 1e-2
    assert np.max(np.abs(hist.total_oscillatory - 1.0)) < 0.1
    path = tmp_path / "energy.csv"
    hist.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,H_err,I1,I2,I3,I_total"
    assert len(lines) == 202


@pytest.mark.filterwarnings("error")
def test_sweep_records_failures_and_continues():
    # h * omega = 1 at omega = 50 makes the stage block singular; the scheme is
    # far from stable at omega = 80, so the horizon is five steps
    params = FputParams(ell=3)
    omegas = [20.0, 50.0, 80.0]
    result = experiment_resonance_sweep(singular_at_one(), params, 0.02, 0.1, omegas)
    assert [i for i, _ in result.failures] == [1]
    assert result.failures[0][1].startswith("SingularStageSystemError: ")
    assert math.isnan(result.max_energy_error[1])
    assert math.isnan(result.max_scaled_i_deviation[1])
    for i in (0, 2):
        alone = experiment_resonance_sweep(singular_at_one(), params, 0.02, 0.1, [omegas[i]])
        assert not alone.failures
        for got, ref in ((result.max_energy_error[i], alone.max_energy_error[0]),
                         (result.max_scaled_i_deviation[i], alone.max_scaled_i_deviation[0])):
            assert math.isfinite(got) and ref > 0.0
            assert abs(got - ref) <= 1e-13 * ref
    with pytest.raises(ValueError, match="unknown scheme"):
        experiment_resonance_sweep("not-a-scheme", params, 0.02, 1.0, [10.0, 20.0])


def test_sweep_rows_match_one_frequency_sweeps():
    # the states are stepped and their energies summed row by row, so each
    # row of a sweep is bitwise the sweep of its frequency alone
    params, h, T = FputParams(ell=3), 0.02, 1.0
    omegas = np.linspace(0.01, 4.5, 24) * math.pi / h
    result = experiment_resonance_sweep("lgl6", params, h, T, omegas)
    for i, omega in enumerate(omegas):
        alone = experiment_resonance_sweep("lgl6", params, h, T, [omega])
        assert result.max_energy_error[i] == alone.max_energy_error[0]
        assert result.max_scaled_i_deviation[i] == alone.max_scaled_i_deviation[0]


@pytest.mark.parametrize("h, T, omegas", [
    (0.0, 1.0, [10.0]),
    (-0.02, 1.0, [10.0]),
    (math.inf, 1.0, [10.0]),
    (0.02, -1.0, [10.0]),
    (0.02, 1.0, [10.0, 0.0]),
    (0.02, 1.0, [-10.0]),
    (0.02, 1.0, [math.nan]),
    (0.02, 1.0, [math.inf]),
], ids=["h-zero", "h-negative", "h-infinite", "T-negative", "omega-zero",
        "omega-negative", "omega-nan", "omega-infinite"])
def test_sweep_rejects_invalid_input(h, T, omegas):
    with pytest.raises(ValueError):
        experiment_resonance_sweep("lgl4", FputParams(ell=3), h, T, omegas)


def test_sweep_empty_grid_rejected():
    with pytest.raises(ValueError):
        experiment_resonance_sweep("lgl4", FputParams(), 0.02, 1.0, [])


def test_sweep_csv(tmp_path):
    params = FputParams(ell=3)
    result = experiment_resonance_sweep("lgl4", params, 0.02, 1.0, [15.0, 45.0])
    path = tmp_path / "sweep.csv"
    result.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "h_omega_over_pi,max_H_err,max_scaled_I_dev"
    assert len(lines) == 3


def test_reduction_table(tmp_path):
    params = FputParams(ell=3)
    table = experiment_order_reduction(["lgl4", "imex-yoshida4"], params, 1.0,
                                       [0.1, 0.05], [10.0], reference_tol=1e-10)
    assert len(table.rows) == 4
    hs, eq, ep = table.errors("lgl4", 10.0)
    assert np.array_equal(hs, [0.05, 0.1])
    assert np.all(eq > 0) and np.all(ep > 0)
    path = tmp_path / "reduction.csv"
    table.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "scheme,omega,h,err_qs,err_ps"
    assert len(lines) == 5


@pytest.mark.parametrize("h_grid", [[0.0, 0.1], [0.1, -0.05], [math.inf], [math.nan]],
                         ids=["zero", "negative", "infinite", "nan"])
def test_h_grids_rejected_before_the_oracle(monkeypatch, h_grid):
    def never(*args, **kwargs):
        raise AssertionError("the oracle ran before the h grid was checked")

    monkeypatch.setattr(fput, "reference_solve", never)
    params = FputParams(ell=3, omega=10.0)
    with pytest.raises(ValueError, match="every h"):
        experiment_order_reduction(["lgl4"], params, 1.0, h_grid, [10.0])
    with pytest.raises(ValueError, match="every h"):
        convergence_errors("lgl4", params, h_grid, 1.0)


def test_csv_writers_match_cellwise_formatting(tmp_path):
    special = np.array(SPECIAL)
    hist = fput.EnergyHistory(times=special, hamiltonian=special[::-1].copy(),
                              oscillatory=np.stack([special, special[::-1]], axis=1))
    result = fput.SweepResult(h_omega_over_pi=special, max_energy_error=-special,
                              max_scaled_i_deviation=special[::-1].copy())
    table = fput.ReductionTable(rows=tuple(
        fput.ReductionRow(scheme="lgl4", omega=x, h=-x, err_slow_q=y, err_slow_p=x)
        for x, y in zip(SPECIAL, SPECIAL[::-1])))
    expected = {
        "energy": cellwise_csv("t,H_err,I1,I2,I_total", zip(
            hist.times.tolist(), hist.energy_error.tolist(), SPECIAL, SPECIAL[::-1],
            hist.total_oscillatory.tolist())),
        "sweep": cellwise_csv("h_omega_over_pi,max_H_err,max_scaled_I_dev", zip(
            SPECIAL, (-special).tolist(), SPECIAL[::-1])),
        "reduction": cellwise_csv("scheme,omega,h,err_qs,err_ps", (
            (r.scheme, r.omega, r.h, r.err_slow_q, r.err_slow_p) for r in table.rows)),
    }
    for name, obj in (("energy", hist), ("sweep", result), ("reduction", table)):
        obj.write_csv(tmp_path / name)
        assert (tmp_path / name).read_bytes() == expected[name]


def test_reduction_records_stage_solve_failures():
    params = FputParams(ell=3, omega=10.0)
    table = experiment_order_reduction(["lgl4", "lgl6"], params, 10.0, [5.0],
                                       [10.0], config=StageSolveConfig(max_iterations=1),
                                       reference_tol=1e-10)
    assert len(table.rows) == 2
    assert [i for i, _ in table.failures] == [0, 1]
    assert all(msg.startswith("NonconvergenceError: step 0") for _, msg in table.failures)
    assert all(math.isnan(r.err_slow_q) and math.isnan(r.err_slow_p) for r in table.rows)


@pytest.mark.filterwarnings("error")
def test_overflowing_run_records_numerical_failure():
    # two steps of 5 diverge: the chain force overflows, and the run records
    # the engine's typed error instead of raising NumPy's overflow warning
    table = experiment_order_reduction(["imex-yoshida4"], FputParams(ell=3, omega=10.0), 10.0,
                                       [5.0], [10.0], config=StageSolveConfig(max_iterations=1),
                                       reference_tol=1e-10)
    assert table.failures == ((0, "NumericalFailureError: force evaluation returned NaN/Inf"),)
    assert math.isnan(table.rows[0].err_slow_q) and math.isnan(table.rows[0].err_slow_p)


def _single_state_final(name, params, T, h, config=None):
    """The final state of one single-state run of ``name`` landing on T."""
    n_steps = max(1, int(round(T / h)))
    return integrate(name, fput_system(params), paper_initial_state(params), T / n_steps,
                     n_steps, config=config, stride=n_steps).final_state()


def test_max_iterations_does_not_bound_an_explicit_scheme():
    # lgl2, the base of imex-yoshida4, has no interior stage: its steps take
    # no pass for max_iterations to cut short
    params = FputParams(ell=3, omega=10.0)
    one = _single_state_final("imex-yoshida4", params, 1.0, 0.05,
                              StageSolveConfig(max_iterations=1))
    default = _single_state_final("imex-yoshida4", params, 1.0, 0.05)
    assert np.array_equal(one.q, default.q) and np.array_equal(one.p, default.p)


def _assert_relative(got, want, bound=1e-13):
    assert abs(got - want) <= bound * abs(want), (got, want)


@pytest.mark.parametrize("name", ["lgl4", "lgl6", "imex-yoshida4"])
def test_grid_batch_matches_single_state_runs(name):
    # every run of the h grid is one member of a batch that leaves it after
    # its own step count; each row must be that of its single-state run
    params = FputParams(ell=3, omega=300.0)
    T, h_grid = 0.3, [0.05, 0.03, 0.02, 0.0125, 0.0071, 0.004]
    steps = [max(1, round(T / h)) for h in h_grid]
    assert len(set(steps)) == len(steps)
    table = experiment_order_reduction([name], params, T, h_grid, [params.omega],
                                       reference_tol=1e-10)
    errs = convergence_errors(name, params, h_grid, T, reference_tol=1e-10)
    ref = reference_solve(fput_system(params), paper_initial_state(params), T, tol=1e-10)
    assert not table.failures
    for row, err, h, n in zip(table.rows, errs, h_grid, steps):
        final = _single_state_final(name, params, T, h)
        assert row.h == T / n
        _assert_relative(row.err_slow_q, np.max(np.abs(final.q[:3] - ref.q[:3])))
        _assert_relative(row.err_slow_p, np.max(np.abs(final.p[:3] - ref.p[:3])))
        _assert_relative(err, max(np.max(np.abs(final.q - ref.q)),
                                  np.max(np.abs(final.p - ref.p))))


def test_grid_batch_drops_only_failing_members():
    # lglc4 is not P-stable: at h*omega far beyond its stability interval the
    # slow-force iteration diverges, and only those runs may fail
    params = FputParams(ell=3, omega=1e3)
    T, h_grid = 0.5, [0.001, 0.1, 0.003, 0.25, 0.0123, 0.05]
    table = experiment_order_reduction(["lglc4"], params, T, h_grid, [params.omega],
                                       reference_tol=1e-9)
    failed = dict(table.failures)
    ref = reference_solve(fput_system(params), paper_initial_state(params), T, tol=1e-9)
    first_failure = None   # the step where the first failing h fails alone
    for i, (row, h) in enumerate(zip(table.rows, h_grid)):
        try:
            final = _single_state_final("lglc4", params, T, h)
        except NonconvergenceError as exc:
            assert math.isnan(row.err_slow_q) and math.isnan(row.err_slow_p)
            assert failed[i].startswith(f"NonconvergenceError: step {exc.step_index} ")
            if first_failure is None:
                first_failure = exc.step_index
            continue
        assert i not in failed
        _assert_relative(row.err_slow_q, np.max(np.abs(final.q[:3] - ref.q[:3])))
        _assert_relative(row.err_slow_p, np.max(np.abs(final.p[:3] - ref.p[:3])))
    assert 0 < len(failed) < len(h_grid)
    with pytest.raises(NonconvergenceError, match=f"^step {first_failure} "):
        convergence_errors("lglc4", params, h_grid, T, reference_tol=1e-9)


def test_reduction_propagates_other_errors():
    with pytest.raises(ValueError, match="unknown scheme"):
        experiment_order_reduction(["not-a-scheme"], FputParams(ell=3, omega=10.0), 1.0,
                                   [0.1], [10.0], reference_tol=1e-10)


def test_convergence_errors_and_slope():
    params = FputParams(ell=3, omega=1.0)
    hs = [1 / 10, 1 / 20, 1 / 40]
    errs = convergence_errors("lgl2", params, hs, 1.0, reference_tol=1e-12)
    slope = fit_loglog_slope(hs, errs)
    assert abs(slope - 2.0) < 0.2


def test_fit_loglog_slope_basics():
    hs = np.array([0.1, 0.05, 0.025, 0.0125])
    assert abs(fit_loglog_slope(hs, 3.0 * hs ** 2) - 2.0) < 1e-12
    # floor-dominated values are ignored
    errs = 3.0 * hs ** 4
    errs[-1] = 1e-16
    assert abs(fit_loglog_slope(hs, errs, floor=1e-13) - 4.0) < 1e-12
    with pytest.raises(ValueError):
        fit_loglog_slope([0.1, 0.05], [1e-16, 1e-16], floor=1e-13)
