import functools
import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symparc.tableaux import (
    MAX_STAGES,
    Variant,
    build_scheme,
    conjugate_primary,
    conjugate_row_sum_hypotheses_met,
    conjugate_tilde,
    gauss_legendre_quadrature,
    lagrange_cardinal,
    lagrange_cardinal_integral,
    lobatto_iiia,
    lobatto_quadrature,
    scheme_from_json,
    scheme_to_csv,
    scheme_to_json,
    tilde_a_collocation,
    tilde_a_interpolation,
    verify_order_conditions,
)

from _golden import GOLDEN, R3, R5


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

def test_lobatto_small_rules():
    r2 = lobatto_quadrature(2)
    assert np.allclose(r2.nodes, [0.0, 1.0], atol=1e-15)
    assert np.allclose(r2.weights, [0.5, 0.5], atol=1e-15)
    assert r2.order == 2

    r3 = lobatto_quadrature(3)
    assert np.allclose(r3.nodes, [0.0, 0.5, 1.0], atol=1e-15)
    assert np.allclose(r3.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-15)

    r4 = lobatto_quadrature(4)
    assert np.allclose(r4.nodes, [0.0, 0.5 - R5 / 10, 0.5 + R5 / 10, 1.0], atol=1e-15)
    assert np.allclose(r4.weights, [1 / 12, 5 / 12, 5 / 12, 1 / 12], atol=1e-15)
    assert r4.order == 6


def test_gauss_legendre_small_rules():
    r1 = gauss_legendre_quadrature(1)
    assert np.allclose(r1.nodes, [0.5], atol=1e-16)
    assert np.allclose(r1.weights, [1.0], atol=1e-16)
    assert r1.order == 2

    r2 = gauss_legendre_quadrature(2)
    assert np.allclose(r2.nodes, [0.5 - R3 / 6, 0.5 + R3 / 6], atol=1e-15)
    assert np.allclose(r2.weights, [0.5, 0.5], atol=1e-15)

    r3 = gauss_legendre_quadrature(3)
    assert np.allclose(r3.nodes, [0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10],
                       atol=1e-15)
    assert np.allclose(r3.weights, [5 / 18, 4 / 9, 5 / 18], atol=1e-15)


@pytest.mark.parametrize("s", range(2, 13))
def test_lobatto_exactness(s):
    rule = lobatto_quadrature(s)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    assert rule.exactness_residual(2 * s - 3) < 1e-13


@pytest.mark.parametrize("s", range(1, 12))
def test_gauss_exactness_and_leggauss_agreement(s):
    rule = gauss_legendre_quadrature(s)
    assert rule.exactness_residual(2 * s - 1) < 1e-13
    # independent construction via the numpy Golub-Welsch path
    x, w = np.polynomial.legendre.leggauss(s)
    assert np.max(np.abs(rule.nodes - (x + 1.0) / 2.0)) < 1e-14
    assert np.max(np.abs(rule.weights - w / 2.0)) < 1e-14


def test_quadrature_argument_errors():
    with pytest.raises(ValueError):
        lobatto_quadrature(1)
    with pytest.raises(ValueError):
        gauss_legendre_quadrature(0)
    with pytest.raises(ValueError):
        lobatto_quadrature(13)


# ---------------------------------------------------------------------------
# cardinal polynomials
# ---------------------------------------------------------------------------

@given(st.integers(min_value=2, max_value=8), st.floats(-0.5, 1.5))
@settings(max_examples=40, deadline=None)
def test_cardinal_partition_of_unity(s, t):
    nodes = lobatto_quadrature(s).nodes
    values = [lagrange_cardinal(nodes, j, t) for j in range(s)]
    assert abs(sum(values) - 1.0) < 1e-11
    for i, ci in enumerate(nodes):
        at_nodes = [lagrange_cardinal(nodes, j, ci) for j in range(s)]
        expected = np.zeros(s)
        expected[i] = 1.0
        assert np.max(np.abs(np.array(at_nodes) - expected)) < 1e-11


def test_cardinal_duplicate_nodes_rejected():
    with pytest.raises(ValueError):
        lagrange_cardinal([0.0, 0.5, 0.5], 0, 0.3)
    with pytest.raises(ValueError):
        lagrange_cardinal_integral([0.0, 0.0, 1.0], 1, 0.5)


def test_cardinal_index_out_of_range_rejected():
    nodes = [0.0, 0.5, 1.0]
    for j in (-1, 3):
        with pytest.raises(ValueError, match="cardinal index"):
            lagrange_cardinal(nodes, j, 0.3)
        with pytest.raises(ValueError, match="cardinal index"):
            lagrange_cardinal_integral(nodes, j, 0.3)


def test_cardinal_scalar_and_array_arguments():
    nodes = lobatto_quadrature(4).nodes
    ts = np.array([[0.1, 0.6], [0.9, 1.0]])
    assert isinstance(lagrange_cardinal(nodes, 1, 0.1), float)
    assert isinstance(lagrange_cardinal_integral(nodes, 1, 0.1), float)
    values = lagrange_cardinal(nodes, 1, ts)
    integrals = lagrange_cardinal_integral(nodes, 1, ts)
    assert values.shape == integrals.shape == ts.shape
    for t, v, i in zip(ts.ravel(), values.ravel(), integrals.ravel()):
        assert v == lagrange_cardinal(nodes, 1, t)
        assert i == lagrange_cardinal_integral(nodes, 1, t)


def test_cardinal_integral_examples():
    assert lagrange_cardinal_integral([0.0, 1.0], 0, 0.0) == 0.0
    assert abs(lagrange_cardinal_integral([0.0, 1.0], 0, 0.5) - 3.0 / 8.0) < 1e-16
    assert abs(lagrange_cardinal_integral([0.0, 1.0], 1, 0.5) - 1.0 / 8.0) < 1e-16


@pytest.mark.parametrize("s", [3, 5, 8, 12])
def test_cardinal_integral_against_mpmath_quadrature(s):
    nodes = lobatto_quadrature(s).nodes
    uppers = [0.21, 0.5, 0.77, 1.0]
    for j in range(s):
        def cardinal(t, j=j):
            out = 1.0
            for k, ck in enumerate(nodes):
                if k != j:
                    out *= (t - ck) / (nodes[j] - ck)
            return out
        for upper in uppers:
            oracle = float(mpmath.quad(cardinal, [0.0, upper]))
            assert abs(lagrange_cardinal_integral(nodes, j, upper) - oracle) < 1e-13


def test_cardinal_evaluation_consistent_with_interpolation_coupling():
    primary = lobatto_iiia(3)
    c_tilde = gauss_legendre_quadrature(2).nodes
    ell = np.array([[lagrange_cardinal(primary.c, j, ci) for j in range(3)]
                    for ci in c_tilde])
    assert np.max(np.abs(ell @ primary.a - tilde_a_interpolation(primary, c_tilde))) < 1e-15


# ---------------------------------------------------------------------------
# tableaux and conjugates
# ---------------------------------------------------------------------------

def test_lobatto_iiia_golden_rows():
    t2 = lobatto_iiia(2)
    assert np.max(np.abs(t2.a - [[0, 0], [0.5, 0.5]])) < 1e-15
    t3 = lobatto_iiia(3)
    assert np.max(np.abs(t3.a[1] - [5 / 24, 1 / 3, -1 / 24])) < 1e-15
    t4 = lobatto_iiia(4)
    row = [(11 + R5) / 120, (25 - R5) / 120, (25 - 13 * R5) / 120, (-1 + R5) / 120]
    assert np.max(np.abs(t4.a[1] - row)) < 1e-15
    assert np.max(np.abs(t4.a[0])) == 0.0
    assert np.max(np.abs(t4.a[-1] - t4.b)) < 1e-15


@pytest.mark.parametrize("s", range(2, MAX_STAGES + 1))
def test_lobatto_iiia_row_sums(s):
    assert lobatto_iiia(s).row_sum_residual() < 1e-14


def test_conjugate_primary_golden():
    t3 = lobatto_iiia(3)
    assert np.max(np.abs(conjugate_primary(t3) - GOLDEN[3]["Ahat"])) < 1e-15
    t2 = lobatto_iiia(2)
    assert np.max(np.abs(conjugate_primary(t2) - [[0.5, 0], [0.5, 0]])) < 1e-16


@pytest.mark.parametrize("s", range(2, 10))
def test_conjugate_primary_last_column_zero(s):
    # stiffly accurate primary with c_s = 1 forces a zero last column
    tab = lobatto_iiia(s)
    assert np.max(np.abs(conjugate_primary(tab)[:, -1])) < 1e-15


def test_conjugate_degenerate_weights():
    from symparc.tableaux import RkTableau
    tab = RkTableau(a=[[0.0, 0.0], [0.5, 0.5]], b=[0.0, 1.0], c=[0.0, 1.0])
    with pytest.raises(ValueError):
        conjugate_primary(tab)
    with pytest.raises(ValueError):
        conjugate_tilde([[0.25, 0.25]], [0.0, 1.0], [1.0])


def test_tilde_a_values():
    primary = lobatto_iiia(3)
    gl2 = gauss_legendre_quadrature(2)
    a_int = tilde_a_interpolation(primary, gl2.nodes)
    assert abs(a_int[0, 0] - (1 / 6 - R3 / 36)) < 1e-16

    p2 = lobatto_iiia(2)
    a2 = tilde_a_interpolation(p2, [0.5])
    assert np.max(np.abs(a2 - [[0.25, 0.25]])) < 1e-16

    a_col = tilde_a_collocation([0.0, 1.0], [0.5])
    assert np.max(np.abs(a_col - [[0.375, 0.125]])) < 1e-16
    a_col4 = tilde_a_collocation(primary.c, gl2.nodes)
    assert abs(a_col4[0, 0] - (1 / 6 - R3 / 108)) < 1e-16


@given(st.integers(min_value=2, max_value=MAX_STAGES),
       st.sampled_from([Variant.INTERPOLATION, Variant.COLLOCATION]))
@settings(max_examples=20, deadline=None)
def test_coupling_row_sums_are_secondary_nodes(s1, variant):
    scheme = build_scheme(s1, variant)
    assert np.max(np.abs(scheme.a_tilde.sum(axis=1) - scheme.c_tilde)) < 1e-13


def test_conjugate_tilde_values():
    assert np.max(np.abs(conjugate_tilde([[0.25, 0.25]], [0.5, 0.5], [1.0])
                         - [[0.5], [0.5]])) < 1e-16
    assert np.max(np.abs(conjugate_tilde([[0.375, 0.125]], [0.5, 0.5], [1.0])
                         - [[0.25], [0.75]])) < 1e-16
    s3 = build_scheme(3, Variant.INTERPOLATION)
    assert np.max(np.abs(s3.a_tilde_hat[0] - [R3 / 12, -R3 / 12])) < 1e-15


# ---------------------------------------------------------------------------
# full schemes against the closed-form coefficients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s1", [2, 3, 4])
@pytest.mark.parametrize("variant", [Variant.INTERPOLATION, Variant.COLLOCATION])
def test_build_scheme_matches_golden(s1, variant):
    scheme = build_scheme(s1, variant)
    gold = GOLDEN[s1]
    for attr, key in (("a", "A"), ("a_hat", "Ahat"), ("b", "b"), ("c", "c"),
                      ("b_tilde", "btilde"), ("c_tilde", "ctilde")):
        assert np.max(np.abs(getattr(scheme, attr) - gold[key])) < 1e-14, key
    coupling = gold[variant.value]
    assert np.max(np.abs(scheme.a_tilde - coupling["Atilde"])) < 1e-14
    assert np.max(np.abs(scheme.a_tilde_hat - coupling["AtildeHat"])) < 1e-14
    assert scheme.order == 2 * (s1 - 1)
    assert scheme.s2 == s1 - 1


def _mp_legendre(n, x):
    """(P_n(x), P_{n-1}(x), P_n'(x)) by the three-term recurrence."""
    p_prev, p = mpmath.mpf(1), x
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p, p_prev, n * (x * p - p_prev) / (x * x - 1)


def _mp_newton(step, guesses):
    roots = []
    for x in guesses:
        x = mpmath.mpf(float(x))
        for _ in range(100):
            dx = step(x)
            x -= dx
            if abs(dx) < mpmath.mpf(10) ** (-mpmath.mp.dps + 5):
                break
        roots.append(x)
    return roots


def _mp_cardinal(nodes, j):
    """Monomial coefficients (increasing powers) of L_j; at 50 digits the
    basis' ill-conditioning costs nothing visible in doubles."""
    coeffs = [mpmath.mpf(1)]
    for k, ck in enumerate(nodes):
        if k != j:
            shifted = [mpmath.mpf(0)] + coeffs          # t * L
            scaled = [-ck * a for a in coeffs] + [0]    # -c_k * L
            coeffs = [(u + v) / (nodes[j] - ck) for u, v in zip(shifted, scaled)]
    return coeffs


def _mp_eval(coeffs, t):
    return mpmath.polyval(coeffs[::-1], t)


@functools.lru_cache(maxsize=None)
def _mp_scheme(s1, variant):
    """The eight coefficient arrays of build_scheme(s1, variant) at 50 digits,
    as nested lists of mpf: nodes by Newton on the Legendre recurrence,
    integrals of monomial expansions."""
    with mpmath.workdps(50):
        n, s2 = s1 - 1, s1 - 1

        def lobatto_step(x):
            p, _, dp = _mp_legendre(n, x)
            return dp * (1 - x * x) / (2 * x * dp - n * (n + 1) * p)

        def gauss_step(x):
            p, _, dp = _mp_legendre(s2, x)
            return p / dp

        guess = 2 * lobatto_quadrature(s1).nodes[1:-1] - 1
        x = [mpmath.mpf(-1)] + _mp_newton(lobatto_step, guess) + [mpmath.mpf(1)]
        c = [(xi + 1) / 2 for xi in x]
        b = [mpmath.mpf(1) / (s1 * n)] + [1 / (s1 * n * _mp_legendre(n, xi)[0] ** 2)
                                           for xi in x[1:-1]] + [mpmath.mpf(1) / (s1 * n)]
        xt = _mp_newton(gauss_step, 2 * gauss_legendre_quadrature(s2).nodes - 1)
        ct = [(xi + 1) / 2 for xi in xt]
        bt = [1 / ((1 - xi * xi) * _mp_legendre(s2, xi)[2] ** 2) for xi in xt]
        cardinals = [_mp_cardinal(c, j) for j in range(s1)]
        anti = [[0] + [a / (i + 1) for i, a in enumerate(ell)] for ell in cardinals]
        a = [[_mp_eval(anti[j], ci) for j in range(s1)] for ci in c]
        a_hat = [[b[j] - b[j] * a[j][i] / b[i] for j in range(s1)] for i in range(s1)]
        if variant is Variant.INTERPOLATION:
            a_tilde = [[mpmath.fsum(_mp_eval(cardinals[k], cti) * a[k][j] for k in range(s1))
                        for j in range(s1)] for cti in ct]
        else:
            a_tilde = [[_mp_eval(anti[j], cti) for j in range(s1)] for cti in ct]
        a_tilde_hat = [[bt[k] * (1 - a_tilde[k][i] / b[i]) for k in range(s2)]
                       for i in range(s1)]
    return {"a": a, "a_hat": a_hat, "a_tilde": a_tilde, "a_tilde_hat": a_tilde_hat,
            "b": b, "c": c, "b_tilde": bt, "c_tilde": ct}


@pytest.mark.parametrize("s1", range(2, MAX_STAGES + 1))
@pytest.mark.parametrize("variant", [Variant.INTERPOLATION, Variant.COLLOCATION])
def test_tableaux_match_mpmath(s1, variant):
    scheme = build_scheme(s1, variant)
    exact = _mp_scheme(s1, variant)
    with mpmath.workdps(50):
        for name, ref in exact.items():
            got = np.atleast_2d(getattr(scheme, name))
            ref = ref if isinstance(ref[0], list) else [ref]
            worst = max(abs(mpmath.mpf(float(g)) - r)
                        for grow, rrow in zip(got, ref) for g, r in zip(grow, rrow))
            assert worst < 2e-15, (name, float(worst))


def test_build_scheme_errors():
    with pytest.raises(ValueError):
        build_scheme(1, Variant.INTERPOLATION)
    with pytest.raises(ValueError):
        build_scheme(13, Variant.COLLOCATION)
    with pytest.raises(ValueError):
        build_scheme(3, "not-a-variant")


@given(st.integers(min_value=2, max_value=8),
       st.sampled_from([Variant.INTERPOLATION, Variant.COLLOCATION]))
@settings(max_examples=20, deadline=None)
def test_symplectic_conjugacy_entrywise(s1, variant):
    scheme = build_scheme(s1, variant)
    b = scheme.b
    for i in range(scheme.s1):
        for j in range(scheme.s1):
            ref = b[j] - b[j] * scheme.a[j, i] / b[i]
            assert abs(scheme.a_hat[i, j] - ref) < 1e-14
    for i in range(scheme.s1):
        for k in range(scheme.s2):
            ref = scheme.b_tilde[k] * (1.0 - scheme.a_tilde[k, i] / b[i])
            assert abs(scheme.a_tilde_hat[i, k] - ref) < 1e-14


# ---------------------------------------------------------------------------
# the weighted row/column identities behind the order statement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s1", range(2, MAX_STAGES + 1))
def test_interpolation_weight_transfer(s1):
    # L(ct)^T bt = b whenever the secondary rule is exact to degree s1-1
    scheme = build_scheme(s1, Variant.INTERPOLATION)
    ell = np.array([[lagrange_cardinal(scheme.c, j, ci) for j in range(s1)]
                    for ci in scheme.c_tilde])
    assert np.max(np.abs(ell.T @ scheme.b_tilde - scheme.b)) < 1e-13


@pytest.mark.parametrize("s1", range(3, MAX_STAGES + 1))
@pytest.mark.parametrize("variant", [Variant.INTERPOLATION, Variant.COLLOCATION])
def test_coupling_transpose_identity(s1, variant):
    # At^T bt = B (1 - c) under the lemma hypotheses (s1 >= 3)
    scheme = build_scheme(s1, variant)
    lhs = scheme.a_tilde.T @ scheme.b_tilde
    rhs = scheme.b * (1.0 - scheme.c)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_coupling_transpose_identity_fails_for_two_stages():
    # the trapezoidal primary lacks the weighted column-sum property
    for variant in (Variant.INTERPOLATION, Variant.COLLOCATION):
        scheme = build_scheme(2, variant)
        lhs = scheme.a_tilde.T @ scheme.b_tilde
        rhs = scheme.b * (1.0 - scheme.c)
        assert np.max(np.abs(lhs - rhs)) > 0.1
        assert not conjugate_row_sum_hypotheses_met(scheme)


@pytest.mark.parametrize("s1", range(2, MAX_STAGES + 1))
@pytest.mark.parametrize("variant", [Variant.INTERPOLATION, Variant.COLLOCATION])
def test_order_condition_report(s1, variant):
    scheme = build_scheme(s1, variant)
    report = verify_order_conditions(scheme)
    assert report.passed
    assert report.max_required_residual() < 1e-11
    row_sum = report.residual("conjugate_coupling_row_sums")
    if s1 == 2:
        # a_tilde_hat row sums do not reproduce c for the trapezoidal
        # primary; the residual is reported but not required
        expected = 0.5 if variant is Variant.INTERPOLATION else 0.25
        assert abs(row_sum - expected) < 1e-14
        required = [c.required for c in report.conditions
                    if c.condition == "conjugate_coupling_row_sums"][0]
        assert not required
    else:
        assert row_sum < 1e-11


def test_order6_moment_identities():
    scheme = build_scheme(4, Variant.INTERPOLATION)
    g = scheme.a_tilde_hat @ scheme.a_tilde
    assert abs(scheme.b @ g @ scheme.c - 1.0 / 24.0) < 1e-13
    assert abs(scheme.b @ g @ g @ scheme.c - 1.0 / 720.0) < 1e-13


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s1", [2, 3, 4, 6])
@pytest.mark.parametrize("variant", [Variant.INTERPOLATION, Variant.COLLOCATION])
def test_json_roundtrip_exact(s1, variant):
    scheme = build_scheme(s1, variant)
    text = scheme_to_json(scheme)
    data = json.loads(text)
    assert set(data) == {"s1", "s2", "variant", "order", "A", "Ahat", "Atilde",
                         "AtildeHat", "b", "c", "btilde", "ctilde"}
    back = scheme_from_json(text)
    for attr in ("a", "a_hat", "a_tilde", "a_tilde_hat", "b", "c", "b_tilde", "c_tilde"):
        assert np.array_equal(getattr(scheme, attr), getattr(back, attr)), attr
    assert back.variant == scheme.variant and back.order == scheme.order


@pytest.mark.parametrize("s1", [2, 5])
@pytest.mark.parametrize("variant", [Variant.INTERPOLATION, Variant.COLLOCATION])
def test_csv_holds_the_json_coefficients(s1, variant):
    # one row per entry, 1-based, j empty for a vector, exact to the bit
    scheme = build_scheme(s1, variant)
    header, *rows = scheme_to_csv(scheme).split("\n")
    assert header == "name,i,j,value"
    data = json.loads(scheme_to_json(scheme))
    expected = []
    for name in ("A", "Ahat", "Atilde", "AtildeHat", "b", "c", "btilde", "ctilde"):
        for i, row in enumerate(data[name], 1):
            expected += ([(name, str(i), str(j), x) for j, x in enumerate(row, 1)]
                         if isinstance(row, list) else [(name, str(i), "", row)])
    got = [row.split(",") for row in rows]
    assert [(n, i, j, float(x)) for n, i, j, x in got] == expected


def test_json_has_full_precision():
    scheme = build_scheme(3, Variant.INTERPOLATION)
    text = scheme_to_json(scheme)
    value = format(scheme.a_tilde[0, 0], ".17g")
    assert value in text
