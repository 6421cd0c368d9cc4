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
from symparc.integrator import PhaseState, StageSolveConfig, reference_solve

from _helpers import singular_at_one, slicing_quartic_potential, slicing_slow_force


def test_params_validation():
    with pytest.raises(ValueError):
        FputParams(ell=0, omega=1.0)
    with pytest.raises(ValueError):
        FputParams(ell=3, omega=0.0)


def test_forces_vanish_at_origin():
    system = fput_system(FputParams(ell=3, omega=50.0))
    zero = np.zeros(6)
    assert np.array_equal(system.slow_force(zero), zero)
    assert np.array_equal(system.fast_force(zero), zero)


@pytest.mark.parametrize("ell", [1, 2, 3, 5])
def test_slow_force_is_gradient_of_quartic_potential(ell):
    from symparc.fput import _quartic_potential, _slow_force
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
    from symparc.fput import _quartic_potential, _slow_force
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


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
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


def test_reduction_records_stage_solve_failures():
    params = FputParams(ell=3, omega=10.0)
    table = experiment_order_reduction(["lgl4", "imex-yoshida4"], params, 10.0, [5.0],
                                       [10.0], config=StageSolveConfig(max_iterations=1),
                                       reference_tol=1e-10)
    assert len(table.rows) == 2
    assert [i for i, _ in table.failures] == [0, 1]
    assert all(msg.startswith("NonconvergenceError: step 0") for _, msg in table.failures)
    assert all(math.isnan(r.err_slow_q) and math.isnan(r.err_slow_p) for r in table.rows)


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
