"""End-to-end acceptance suite.

Each test covers one numbered requirement involving golden coefficient data,
stability theory, convergence orders and the oscillatory-chain experiments,
and prints one PASS/FAIL line (run with ``pytest -s`` to see them inline).
"""

import math
import time

import numpy as np
import pytest

import symparc.fput as fput
from symparc.integrator import (
    ArkStepper,
    PhaseState,
    SplitForceSystem,
    integrate,
    reference_solve,
    scheme_from_name,
)
from symparc.stability import (
    check_m11_equals_m22,
    filter_functions,
    half_trace_samples,
    stability_intervals,
    stability_matrix,
    stability_matrix_samples,
    trig_form_step_check,
)
from symparc.tableaux import MAX_STAGES, Variant, build_scheme, verify_order_conditions

from _golden import (
    COLLOCATION_INTERVALS,
    GOLDEN,
    filters_order4,
    filters_order6,
    half_trace_order4,
    half_trace_order6,
)
from _helpers import TIGHT_TOL, flow_jacobian_fd, symplectic_residual

_RESULTS = []


def _criterion(number, description, passed, detail, elapsed, limit):
    status = "PASS" if passed and elapsed < limit else "FAIL"
    line = (f"[criterion {number:2d}] {description}: {status} "
            f"({detail}; {elapsed:.1f}s of {limit:.0f}s allowed)")
    print(line)
    _RESULTS.append(line)
    assert passed, line
    assert elapsed < limit, line


@pytest.fixture(scope="module")
def schemes():
    return {name: scheme_from_name(name)
            for name in ("lgl2", "lgl4", "lgl6", "lglc2", "lglc4", "lglc6")}


def test_criterion_01_tableau_golden_match(schemes):
    start = time.time()
    worst = 0.0
    for s1 in (2, 3, 4):
        gold = GOLDEN[s1]
        for variant in (Variant.INTERPOLATION, Variant.COLLOCATION):
            scheme = build_scheme(s1, variant)
            for attr, key in (("a", "A"), ("a_hat", "Ahat"), ("b", "b"), ("c", "c"),
                              ("b_tilde", "btilde"), ("c_tilde", "ctilde")):
                worst = max(worst, float(np.max(np.abs(getattr(scheme, attr) - gold[key]))))
            coupling = gold[variant.value]
            worst = max(worst, float(np.max(np.abs(scheme.a_tilde - coupling["Atilde"]))))
            worst = max(worst, float(np.max(np.abs(scheme.a_tilde_hat - coupling["AtildeHat"]))))
    _criterion(1, "closed-form tableaux reproduced", worst < 1e-14,
               f"max deviation {worst:.2e} < 1e-14", time.time() - start, 1.0)


def test_criterion_02_order_condition_suite():
    start = time.time()
    worst = 0.0
    gated = []
    for s1 in range(2, MAX_STAGES + 1):
        for variant in (Variant.INTERPOLATION, Variant.COLLOCATION):
            report = verify_order_conditions(build_scheme(s1, variant))
            worst = max(worst, report.max_required_residual())
            if not report.passed:
                gated.append((s1, variant.value, "failed"))
            row = [c for c in report.conditions
                   if c.condition == "conjugate_coupling_row_sums"][0]
            if s1 == 2:
                # the trapezoidal primary misses the lemma hypotheses in both
                # variants; the row-sum identity is reported, not required
                if row.required or row.residual < 0.2:
                    gated.append((s1, variant.value, "gating wrong"))
            elif row.residual > 1e-11:
                gated.append((s1, variant.value, "row sums off"))
    ok = worst < 1e-11 and not gated
    _criterion(2, f"order conditions for s1=2..{MAX_STAGES}", ok,
               f"max required residual {worst:.2e} < 1e-11, hypothesis gating correct",
               time.time() - start, 1.0)


def test_criterion_03_p_stability_and_intervals(schemes):
    start = time.time()
    mus = np.linspace(0.0, 1000.0, 1_000_000)
    worst_excess = 0.0
    for name in ("lgl4", "lgl6"):
        ht = half_trace_samples(schemes[name], mus)
        worst_excess = max(worst_excess, float(np.max(np.abs(ht))) - 1.0)
    worst_endpoint = 0.0
    for name in ("lglc2", "lglc4", "lglc6"):
        report = stability_intervals(schemes[name], 12.0)
        expected = COLLOCATION_INTERVALS[name]
        if len(report.intervals) != len(expected):
            worst_endpoint = math.inf
            continue
        for (lo, hi), (elo, ehi) in zip(report.intervals, expected):
            worst_endpoint = max(worst_endpoint, abs(lo - elo),
                                 abs(hi - min(ehi, 12.0)))
    ok = worst_excess <= 1e-12 and worst_endpoint < 1e-8
    _criterion(3, "P-stability on 1e6 points and collocation intervals", ok,
               f"|half trace| excess {worst_excess:.2e}, endpoint error {worst_endpoint:.2e}",
               time.time() - start, 30.0)


def test_criterion_04_closed_form_agreement(schemes):
    start = time.time()
    mus = np.linspace(0.0, 20.0, 10_000)
    err4 = np.max(np.abs(half_trace_samples(schemes["lgl4"], mus) - half_trace_order4(mus)))
    err6 = np.max(np.abs(half_trace_samples(schemes["lgl6"], mus) - half_trace_order6(mus)))

    res4 = [r.mu for r in stability_intervals(schemes["lgl4"], 10.0).resonance_points]
    res6 = [r.mu for r in stability_intervals(schemes["lgl6"], 10.0).resonance_points]
    loc_err = max(
        min(abs(m - 2.0 * math.sqrt(3.0)) for m in res4),
        min(abs(m - math.sqrt(10.0)) for m in res6),
        min(abs(m - 2.0 * math.sqrt(15.0)) for m in res6),
    )

    mus = np.linspace(0.0, 15.0, 401)
    filt_err = max(
        float(np.max(np.abs(filter_functions(schemes["lgl4"], mus).psi - filters_order4(mus).T))),
        float(np.max(np.abs(filter_functions(schemes["lgl6"], mus).psi - filters_order6(mus).T))))

    s6 = schemes["lgl6"]
    g = s6.a_tilde_hat @ s6.a_tilde
    id_err = max(abs(s6.b @ g @ s6.c - 1.0 / 24.0),
                 abs(s6.b @ g @ g @ s6.c - 1.0 / 720.0))

    ok = err4 < 1e-12 and err6 < 1e-12 and loc_err < 1e-8 \
        and filt_err < 1e-12 and id_err < 1e-13
    _criterion(4, "stability/filter closed forms and moment identities", ok,
               f"trace {max(err4, err6):.2e}, resonances {loc_err:.2e}, "
               f"filters {filt_err:.2e}, moments {id_err:.2e}",
               time.time() - start, 5.0)


def test_criterion_05_imex_stability_matrix(schemes):
    start = time.time()
    worst = 0.0
    for mu in (0.1, 1.0, 5.0, 20.0):
        nu2 = (mu / 2.0) ** 2
        expected = np.array([[1.0 - nu2, mu], [-mu, 1.0 - nu2]]) / (1.0 + nu2)
        worst = max(worst, float(np.max(np.abs(
            stability_matrix(schemes["lgl2"], mu).m - expected))))
    _criterion(5, "two-stage method has the known stability matrix", worst < 1e-13,
               f"max deviation {worst:.2e} < 1e-13", time.time() - start, 1.0)


def test_criterion_06_symplecticity(schemes):
    start = time.time()
    params = fput.FputParams(ell=3, omega=10.0)
    system = fput.fput_system(params)
    state = fput.paper_initial_state(params)
    worst = 0.0
    for name in ("lgl2", "lgl4", "lgl6"):
        stepper = ArkStepper(schemes[name], system, TIGHT_TOL)
        jac = flow_jacobian_fd(stepper.step, state, 0.01)
        worst = max(worst, symplectic_residual(jac))
    _criterion(6, "finite-difference symplecticity on the chain", worst < 1e-5,
               f"max residual {worst:.2e} < 1e-5", time.time() - start, 10.0)


def test_criterion_07_convergence_orders():
    start = time.time()
    params = fput.FputParams(ell=3, omega=1.0)
    hs = [1 / 10, 1 / 20, 1 / 40, 1 / 80, 1 / 160]
    targets = {"lgl2": (2.0, 0.2), "lgl4": (4.0, 0.2), "lgl6": (6.0, 0.2),
               "imex-yoshida4": (4.0, 0.3), "imex-yoshida6": (6.0, 0.3)}
    details = []
    ok = True
    errors = fput.convergence_errors(list(targets), params, hs, 1.0, reference_tol=1e-13)
    for (name, (order, tol)), errs in zip(targets.items(), errors):
        slope = fput.fit_loglog_slope(hs, errs, floor=1e-12)
        details.append(f"{name} {slope:.2f}")
        ok = ok and abs(slope - order) <= tol
    _criterion(7, "global convergence orders 2/4/6 and compositions", ok,
               "slopes " + ", ".join(details), time.time() - start, 60.0)


def test_criterion_08_resonance_sweep():
    start = time.time()
    params = fput.FputParams(ell=3)
    h, T = 0.02, 100.0
    ratios = np.linspace(0.01, 4.5, 450)
    omegas = ratios * math.pi / h

    r4 = fput.experiment_resonance_sweep("lgl4", params, h, T, omegas)
    peak4 = r4.h_omega_over_pi[int(np.nanargmax(r4.max_energy_error))]

    r6 = fput.experiment_resonance_sweep("lgl6", params, h, T, omegas)
    peak6_global = r6.h_omega_over_pi[int(np.nanargmax(r6.max_energy_error))]
    window = (r6.h_omega_over_pi > 0.8) & (r6.h_omega_over_pi < 1.3)
    peak6_low = r6.h_omega_over_pi[window][int(np.nanargmax(r6.max_energy_error[window]))]

    ok = (abs(peak4 - 2.0 * math.sqrt(3.0) / math.pi) <= 0.05
          and abs(peak6_low - math.sqrt(10.0) / math.pi) <= 0.05
          and abs(peak6_global - 2.0 * math.sqrt(15.0) / math.pi) <= 0.05
          and not r4.failures and not r6.failures)
    _criterion(8, "resonance peaks sit at the tangency frequencies", ok,
               f"peaks at {peak4:.3f} (lgl4), {peak6_low:.3f}/{peak6_global:.3f} (lgl6)",
               time.time() - start, 600.0)


def test_criterion_09_order_reduction_stiff():
    start = time.time()
    params = fput.FputParams(ell=3, omega=1e4)

    # slopes are fitted in the reduced-order window below h*omega ~ 150,
    # before the nominal fourth order reasserts itself at large steps;
    # the direct methods plateau over the decade above h = 1e-3
    h_grid = list(np.geomspace(6e-4, 0.015, 12))
    table = fput.experiment_order_reduction(
        ["imex-yoshida4", "lgl4", "lgl6"], params, 3.0, h_grid, [1e4],
        reference_tol=1e-9)

    hs, eq, ep = table.errors("imex-yoshida4", 1e4)
    slope_q = fput.fit_loglog_slope(hs, eq)
    slope_p = fput.fit_loglog_slope(hs, ep)

    plateau_ok = True
    plateau_slopes = []
    for name in ("lgl4", "lgl6"):
        hs2, eq2, _ = table.errors(name, 1e4)
        window = hs2 >= 1e-3
        s = fput.fit_loglog_slope(hs2[window], eq2[window])
        plateau_slopes.append(f"{name} {s:.2f}")
        plateau_ok = plateau_ok and abs(s) < 1.0

    ok = abs(slope_q - 3.0) <= 0.5 and abs(slope_p - 2.0) <= 0.5 and plateau_ok
    _criterion(9, "stiff-regime order reduction and error plateaus", ok,
               f"composition slopes q {slope_q:.2f}, p {slope_p:.2f}; "
               f"plateau slopes {', '.join(plateau_slopes)}",
               time.time() - start, 600.0)


def test_criterion_10_trig_form(schemes):
    start = time.time()

    def soft(q):
        return -q ** 3

    worst = 0.0
    omega = 1.7
    system = SplitForceSystem(dimension=1, f1=soft, omega_sq=[omega * omega])
    state = PhaseState(q=[0.4], p=[0.6])
    for name in ("lgl2", "lgl4"):
        for mu in (0.5, 1.0, 2.0):
            worst = max(worst, trig_form_step_check(
                schemes[name], system, state, mu / omega))
    _criterion(10, "two-step trigonometric form identities", worst < 1e-10,
               f"max residual {worst:.2e} < 1e-10", time.time() - start, 1.0)


def test_criterion_11_determinant_and_diagonal(schemes):
    start = time.time()
    mus = np.linspace(0.0, 100.0, 10_000)
    worst_det = 0.0
    worst_diag = 0.0
    for scheme in schemes.values():
        m = stability_matrix_samples(scheme, mus)
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        worst_det = max(worst_det, float(np.max(np.abs(det - 1.0))))
        worst_diag = max(worst_diag, check_m11_equals_m22(scheme, mus).max_deviation)
    ok = worst_det < 1e-10 and worst_diag < 1e-12
    _criterion(11, "unit determinant and equal diagonal entries", ok,
               f"det {worst_det:.2e} < 1e-10, M11-M22 {worst_diag:.2e} < 1e-12",
               time.time() - start, 5.0)


def test_zzz_summary():
    print()
    for line in _RESULTS:
        print(line)
    assert len(_RESULTS) == 11
