"""Quadrature rules and coefficient matrices for the Lobatto / Gauss-Legendre
additive Runge-Kutta family.

The primary method is Lobatto IIIA with ``s1`` stages (together with its
symplectic conjugate, Lobatto IIIB).  The secondary method is the
Gauss-Legendre quadrature with ``s2 = s1 - 1`` nodes.  The two are coupled
through an ``s2 x s1`` matrix built either by evaluating the primary stage
interpolant at the secondary nodes (interpolation) or by integrating the
stage-derivative interpolant up to the secondary nodes (collocation).  The
conjugate coupling matrix is fixed by the symplecticity condition
``ahat_tilde[i,k] = bt[k] - bt[k]*at[k,i]/b[i]``.

Every coefficient comes from the Lagrange cardinal polynomials L_j of the
Lobatto nodes, evaluated in product form, never expanded in monomials.  The
integrals int_0^u L_j (Lobatto IIIA and the collocation coupling) use a
Gauss-Legendre rule with ceil(s/2) points on [0, u], which is exact for the
degree s - 1 of L_j; every entry then lies within 1e-15 of its exact value
for every stage count up to MAX_STAGES.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "MAX_STAGES",
    "Variant",
    "QuadratureRule",
    "RkTableau",
    "ArkScheme",
    "ConditionCheck",
    "OrderConditionReport",
    "lobatto_quadrature",
    "gauss_legendre_quadrature",
    "lobatto_iiia",
    "conjugate_primary",
    "conjugate_tilde",
    "lagrange_cardinal",
    "lagrange_cardinal_integral",
    "tilde_a_interpolation",
    "tilde_a_collocation",
    "build_scheme",
    "verify_order_conditions",
    "scheme_to_json",
    "scheme_to_csv",
    "scheme_from_json",
]

# The largest stage count the test suite verifies: every s1 up to it must
# pass its order conditions and match a 50-digit construction of all eight
# coefficient arrays.  Larger counts are refused rather than served
# unchecked; at the cap the order is 22 and the stage block 23 x 23.
MAX_STAGES = 12

# The largest residual of a required order condition that still passes
_ORDER_CONDITION_TOL = 1e-11
# The quadrature residual below which a hypothesis of the conjugate row-sum
# identity counts as met
_ROW_SUM_HYPOTHESIS_TOL = 1e-10

# The eight coefficient arrays, in the order every serialization lists them:
# (name in JSON and CSV, ArkScheme field)
_COEFFICIENTS = (("A", "a"), ("Ahat", "a_hat"), ("Atilde", "a_tilde"),
                ("AtildeHat", "a_tilde_hat"), ("b", "b"), ("c", "c"),
                ("btilde", "b_tilde"), ("ctilde", "c_tilde"))


class Variant(str, Enum):
    """How the secondary stage values are expressed in the primary ones."""

    INTERPOLATION = "interpolation"
    COLLOCATION = "collocation"


def _frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Legendre polynomials and node computation
# ---------------------------------------------------------------------------

def _legendre_pair(n: int, x):
    """Evaluate (P_n, P_{n-1}) at ``x`` by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev, np.zeros_like(x)
    p = x.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p, p_prev


def _legendre_deriv(n: int, x):
    """(P_n(x), P_n'(x)) for |x| < 1, the derivative via the recurrence-based
    identity."""
    p, p_prev = _legendre_pair(n, x)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _newton_symmetric(x, step):
    """Newton iteration x <- x - step(x) from the guesses x until no node
    moves by 1e-15, sorted, with the exact +- symmetry of the root set
    enforced."""
    for _ in range(100):
        dx = step(x)
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    x = np.sort(x)
    return 0.5 * (x - x[::-1])


def _gauss_nodes(n: int):
    """Roots of P_n on (-1, 1), Newton-refined from Chebyshev guesses."""
    def step(x):
        p, dp = _legendre_deriv(n, x)
        return p / dp

    k = np.arange(1, n + 1)
    return _newton_symmetric(np.cos(np.pi * (4 * k - 1) / (4 * n + 2)), step)


def _lobatto_interior_nodes(n: int):
    """Roots of P_n' on (-1, 1); these are the interior Lobatto points."""
    def step(x):
        p, dp = _legendre_deriv(n, x)
        # (1 - x^2) P_n'' = 2x P_n' - n(n+1) P_n
        return dp / ((2.0 * x * dp - n * (n + 1) * p) / (1.0 - x * x))

    if n < 2:
        return np.empty(0)
    return _newton_symmetric(np.cos(np.pi * np.arange(1, n) / n), step)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a quadrature rule on [0, 1].

    ``order`` is the classical quadrature order: the rule integrates
    polynomials of degree ``order - 1`` exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        nodes = _frozen(self.nodes)
        weights = _frozen(self.weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] < 0.0 or nodes[-1] > 1.0:
            raise ValueError("nodes must lie in [0, 1]")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def exactness_residual(self, degree: int | None = None) -> float:
        """max_n |sum_i w_i c_i^n - 1/(n+1)| over n = 0..degree."""
        if degree is None:
            degree = self.order - 1
        return _quadrature_residual(self.weights, self.nodes, degree)


@dataclass(frozen=True)
class RkTableau:
    """A standard Runge-Kutta tableau (a, b, c)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = _frozen(self.a)
        b = _frozen(self.b)
        c = _frozen(self.c)
        s = len(b)
        if a.shape != (s, s) or c.shape != (s,):
            raise ValueError("inconsistent tableau dimensions")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def stages(self) -> int:
        return len(self.b)

    def row_sum_residual(self) -> float:
        return float(np.max(np.abs(self.a.sum(axis=1) - self.c)))


@dataclass(frozen=True)
class ArkScheme:
    """Complete coefficient set of one additive method.

    The primary pair (a, a_hat, b, c) integrates the kinetic energy and the
    slow force; the secondary quadrature (b_tilde, c_tilde) together with the
    coupling matrices (a_tilde, a_tilde_hat) handles the fast force.
    """

    s1: int
    s2: int
    a: np.ndarray            # (s1, s1)
    a_hat: np.ndarray        # (s1, s1)
    a_tilde: np.ndarray      # (s2, s1)
    a_tilde_hat: np.ndarray  # (s1, s2)
    b: np.ndarray
    c: np.ndarray
    b_tilde: np.ndarray
    c_tilde: np.ndarray
    order: int
    variant: Variant

    def __post_init__(self):
        for _, field in _COEFFICIENTS:
            object.__setattr__(self, field, _frozen(getattr(self, field)))
        if self.a.shape != (self.s1, self.s1) or self.a_hat.shape != (self.s1, self.s1):
            raise ValueError("primary matrices must be s1 x s1")
        if self.a_tilde.shape != (self.s2, self.s1):
            raise ValueError("a_tilde must be s2 x s1")
        if self.a_tilde_hat.shape != (self.s1, self.s2):
            raise ValueError("a_tilde_hat must be s1 x s2")
        if self.b.shape != (self.s1,) or self.c.shape != (self.s1,):
            raise ValueError("b, c must have length s1")
        if self.b_tilde.shape != (self.s2,) or self.c_tilde.shape != (self.s2,):
            raise ValueError("b_tilde, c_tilde must have length s2")

    @property
    def name(self) -> str:
        prefix = "lgl" if self.variant is Variant.INTERPOLATION else "lglc"
        return f"{prefix}{self.order}"


@dataclass(frozen=True)
class ConditionCheck:
    """Residual of one algebraic identity.

    ``required`` marks identities whose hypotheses hold for this scheme;
    only those count towards the overall verdict.  Identities with failed
    hypotheses (the conjugate row sums for two-stage primaries) are still
    reported with their actual residual.
    """

    condition: str
    residual: float
    required: bool = True


@dataclass(frozen=True)
class OrderConditionReport:
    conditions: tuple[ConditionCheck, ...]
    tolerance: float
    passed: bool

    def residual(self, condition: str) -> float:
        for check in self.conditions:
            if check.condition == condition:
                return check.residual
        raise KeyError(condition)

    def max_required_residual(self) -> float:
        return max(c.residual for c in self.conditions if c.required)


# ---------------------------------------------------------------------------
# Quadrature constructors
# ---------------------------------------------------------------------------

def lobatto_quadrature(s: int) -> QuadratureRule:
    """s-point Lobatto rule on [0, 1]: endpoints plus the roots of P_{s-1}'.

    The rule has order 2s - 2.  Weights on [-1, 1] are 2/(s(s-1)) at the
    endpoints and 2/(s(s-1) P_{s-1}(x)^2) inside.
    """
    if s < 2:
        raise ValueError(f"Lobatto quadrature needs at least 2 nodes, got s={s}")
    if s > MAX_STAGES:
        raise ValueError(f"stage count {s} exceeds supported maximum {MAX_STAGES}")
    n = s - 1
    interior = _lobatto_interior_nodes(n)
    x = np.concatenate(([-1.0], interior, [1.0]))
    w = np.empty(s)
    w[0] = w[-1] = 2.0 / (s * n)
    if s > 2:
        p, _ = _legendre_pair(n, interior)
        w[1:-1] = 2.0 / (s * n * p * p)
    return QuadratureRule(nodes=(x + 1.0) / 2.0, weights=w / 2.0, order=2 * s - 2)


def gauss_legendre_quadrature(s: int) -> QuadratureRule:
    """s-point Gauss-Legendre rule on [0, 1], order 2s."""
    if s < 1:
        raise ValueError(f"Gauss-Legendre quadrature needs at least 1 node, got s={s}")
    if s > MAX_STAGES:
        raise ValueError(f"stage count {s} exceeds supported maximum {MAX_STAGES}")
    x = _gauss_nodes(s)
    _, dp = _legendre_deriv(s, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return QuadratureRule(nodes=(x + 1.0) / 2.0, weights=w / 2.0, order=2 * s)


# ---------------------------------------------------------------------------
# Lagrange cardinal polynomials
# ---------------------------------------------------------------------------

def _check_distinct(nodes) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or len(nodes) < 1:
        raise ValueError("need a 1-d vector of nodes")
    if len(np.unique(nodes)) != len(nodes):
        raise ValueError("nodes must be pairwise distinct")
    return nodes


def _check_index(nodes, j: int) -> None:
    if not 0 <= j < len(nodes):
        raise ValueError(f"cardinal index {j} outside range({len(nodes)})")


def _cardinal_values(nodes, t) -> np.ndarray:
    """Every cardinal polynomial prod_{k != j} (t - c_k)/(c_j - c_k) at every
    point of ``t``, in product form; shape ``t.shape + (s,)``."""
    t = np.asarray(t, dtype=float)[..., np.newaxis]
    out = np.ones(t.shape[:-1] + nodes.shape)
    for k, ck in enumerate(nodes):
        others = np.arange(len(nodes)) != k
        out[..., others] = out[..., others] * (t - ck) / (nodes[others] - ck)
    return out


def _cardinal_integrals(nodes, uppers) -> np.ndarray:
    """int_0^u L_j for every upper limit u and every j; shape (len(uppers), s).

    Each integral is u * sum_g w_g L_j(u x_g) with the ceil(s/2)-point
    Gauss-Legendre rule on [0, 1], exact for the degree s - 1 of L_j; the
    cardinals are evaluated in product form, never expanded in monomials.
    """
    rule = gauss_legendre_quadrature((len(nodes) + 1) // 2)
    uppers = np.asarray(uppers, dtype=float)
    values = _cardinal_values(nodes, np.multiply.outer(uppers, rule.nodes))
    return uppers[:, np.newaxis] * (rule.weights @ values)


def lagrange_cardinal(nodes, j: int, t):
    """The j-th cardinal polynomial prod_{k != j} (t - c_k)/(c_j - c_k).

    Vectorized over ``t``; ``j`` must lie in ``range(len(nodes))``.
    """
    nodes = _check_distinct(nodes)
    _check_index(nodes, j)
    out = _cardinal_values(nodes, t)[..., j]
    return out if out.ndim else float(out)


def lagrange_cardinal_integral(nodes, j: int, upper) -> float:
    """Integral of the j-th cardinal polynomial from 0 to ``upper``.

    Exact up to roundoff: a Gauss-Legendre rule with ceil(s/2) points on
    [0, upper] integrates the degree s - 1 cardinal exactly, and the
    cardinal is evaluated in product form at its points.  Vectorized over
    ``upper``; ``j`` must lie in ``range(len(nodes))``.
    """
    nodes = _check_distinct(nodes)
    _check_index(nodes, j)
    upper = np.asarray(upper, dtype=float)
    out = _cardinal_integrals(nodes, upper.ravel())[:, j].reshape(upper.shape)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Tableau constructors
# ---------------------------------------------------------------------------

def lobatto_iiia(s: int) -> RkTableau:
    """Lobatto IIIA collocation tableau: a[i, j] = int_0^{c_i} L_j."""
    rule = lobatto_quadrature(s)
    c = rule.nodes
    a = _cardinal_integrals(c, c)
    a[0, :] = 0.0             # c_1 = 0 exactly
    a[-1, :] = rule.weights   # c_s = 1: the full integrals are the weights
    return RkTableau(a=a, b=rule.weights, c=c)


def conjugate_primary(tab: RkTableau) -> np.ndarray:
    """Symplectic conjugate a_hat[i, j] = b_j - b_j a[j, i] / b_i: the
    :func:`conjugate_tilde` of the tableau with itself.

    Maps Lobatto IIIA to Lobatto IIIB.
    """
    return conjugate_tilde(tab.a, tab.b, tab.b)


def conjugate_tilde(a_tilde, b, b_tilde) -> np.ndarray:
    """Symplectic conjugate coupling ahat_tilde[i, k] = bt_k (1 - at[k, i] / b_i)."""
    a_tilde = np.asarray(a_tilde, dtype=float)
    b = np.asarray(b, dtype=float)
    b_tilde = np.asarray(b_tilde, dtype=float)
    if a_tilde.shape != (len(b_tilde), len(b)):
        raise ValueError("a_tilde must have shape (len(b_tilde), len(b))")
    if np.any(b == 0.0):
        raise ValueError("conjugate coupling undefined for zero primary weights")
    return b_tilde[np.newaxis, :] * (1.0 - a_tilde.T / b[:, np.newaxis])


def tilde_a_interpolation(primary: RkTableau, c_tilde) -> np.ndarray:
    """Coupling matrix from interpolation: L(c_tilde) @ a.

    Row i of L(c_tilde) holds the primary cardinal polynomials evaluated at
    the i-th secondary node.
    """
    return _cardinal_values(_check_distinct(primary.c), c_tilde) @ primary.a


def tilde_a_collocation(primary_nodes, c_tilde) -> np.ndarray:
    """Coupling matrix from collocation: at[i, j] = int_0^{ct_i} L_j."""
    return _cardinal_integrals(_check_distinct(primary_nodes), c_tilde)


def build_scheme(s1: int, variant: Variant | str) -> ArkScheme:
    """Assemble the full method of order 2(s1 - 1).

    Primary: Lobatto IIIA with s1 stages.  Secondary: Gauss-Legendre with
    s2 = s1 - 1 nodes.  ``variant`` selects how the coupling matrix is built.
    """
    variant = Variant(variant)
    if s1 < 2:
        raise ValueError(f"need s1 >= 2, got {s1}")
    if s1 > MAX_STAGES:
        raise ValueError(f"stage count {s1} exceeds supported maximum {MAX_STAGES}")
    primary = lobatto_iiia(s1)
    secondary = gauss_legendre_quadrature(s1 - 1)
    if variant is Variant.INTERPOLATION:
        a_tilde = tilde_a_interpolation(primary, secondary.nodes)
    else:
        a_tilde = tilde_a_collocation(primary.c, secondary.nodes)
    return ArkScheme(
        s1=s1,
        s2=s1 - 1,
        a=primary.a,
        a_hat=conjugate_primary(primary),
        a_tilde=a_tilde,
        a_tilde_hat=conjugate_tilde(a_tilde, primary.b, secondary.weights),
        b=primary.b,
        c=primary.c,
        b_tilde=secondary.weights,
        c_tilde=secondary.nodes,
        order=2 * (s1 - 1),
        variant=variant,
    )


# ---------------------------------------------------------------------------
# Order-condition verification
# ---------------------------------------------------------------------------

def _quadrature_residual(weights, nodes, degree: int) -> float:
    n = np.arange(degree + 1)
    moments = weights @ np.power.outer(nodes, n)
    return float(np.max(np.abs(moments - 1.0 / (n + 1))))


def conjugate_row_sum_hypotheses_met(scheme: ArkScheme) -> bool:
    """Whether the row-sum identity a_tilde_hat @ 1 = c is guaranteed.

    Interpolation needs the secondary quadrature exact to degree s1 - 1 and
    the primary weighted column sums sum_i b_i a[i, j] = b_j (1 - c_j).
    Collocation needs both quadratures exact to degree s1.  Two-stage
    primaries (the trapezoidal rule) fail in both variants.
    """
    if scheme.variant is Variant.INTERPOLATION:
        d1 = np.max(np.abs(scheme.a.T @ scheme.b - scheme.b * (1.0 - scheme.c)))
        sec = _quadrature_residual(scheme.b_tilde, scheme.c_tilde, scheme.s1 - 1)
        return bool(d1 < _ROW_SUM_HYPOTHESIS_TOL and sec < _ROW_SUM_HYPOTHESIS_TOL)
    prim = _quadrature_residual(scheme.b, scheme.c, scheme.s1)
    sec = _quadrature_residual(scheme.b_tilde, scheme.c_tilde, scheme.s1)
    return bool(prim < _ROW_SUM_HYPOTHESIS_TOL and sec < _ROW_SUM_HYPOTHESIS_TOL)


def verify_order_conditions(scheme: ArkScheme) -> OrderConditionReport:
    """Evaluate the algebraic identities behind the order statement.

    Checks, with one residual each:

    * primary row sums ``a @ 1 = c``;
    * coupling stage order ``a_tilde @ c^(k-1) = c_tilde^k / k`` for
      k = 1..s1-1;
    * conjugate coupling row sums ``a_tilde_hat @ 1 = c`` (reported always,
      required only when its hypotheses hold, see
      :func:`conjugate_row_sum_hypotheses_met`);
    * quadrature exactness of both rules to degree ``order - 1``;
    * the symplecticity relations defining a_hat and a_tilde_hat.

    The scheme passes when every required residual is at most
    1e-11, the report's ``tolerance``.
    """
    checks: list[ConditionCheck] = []

    checks.append(ConditionCheck(
        "primary_row_sums",
        float(np.max(np.abs(scheme.a.sum(axis=1) - scheme.c))),
    ))

    for k in range(1, scheme.s1):
        res = np.max(np.abs(scheme.a_tilde @ scheme.c ** (k - 1) - scheme.c_tilde ** k / k))
        checks.append(ConditionCheck(f"coupling_stage_order_k{k}", float(res)))

    row_sum_required = conjugate_row_sum_hypotheses_met(scheme)
    checks.append(ConditionCheck(
        "conjugate_coupling_row_sums",
        float(np.max(np.abs(scheme.a_tilde_hat.sum(axis=1) - scheme.c))),
        required=row_sum_required,
    ))

    checks.append(ConditionCheck(
        "primary_quadrature",
        _quadrature_residual(scheme.b, scheme.c, scheme.order - 1),
    ))
    checks.append(ConditionCheck(
        "secondary_quadrature",
        _quadrature_residual(scheme.b_tilde, scheme.c_tilde, scheme.order - 1),
    ))

    a_hat_ref = scheme.b[np.newaxis, :] * (1.0 - scheme.a.T / scheme.b[:, np.newaxis])
    checks.append(ConditionCheck(
        "symplectic_primary_pair",
        float(np.max(np.abs(scheme.a_hat - a_hat_ref))),
    ))
    tilde_ref = scheme.b_tilde[np.newaxis, :] * (1.0 - scheme.a_tilde.T / scheme.b[:, np.newaxis])
    checks.append(ConditionCheck(
        "symplectic_coupling_pair",
        float(np.max(np.abs(scheme.a_tilde_hat - tilde_ref))),
    ))

    passed = all(c.residual <= _ORDER_CONDITION_TOL for c in checks if c.required)
    return OrderConditionReport(conditions=tuple(checks), tolerance=_ORDER_CONDITION_TOL,
                                passed=passed)


# ---------------------------------------------------------------------------
# JSON and CSV serialization
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_array(v) -> str:
    """A vector, or a matrix as a list of row vectors, in JSON."""
    if v.ndim == 2:
        return "[" + ", ".join(_fmt_array(row) for row in v) + "]"
    return "[" + ", ".join(_fmt(x) for x in v) + "]"


def scheme_to_json(scheme: ArkScheme) -> str:
    """Serialize a scheme with 17-significant-digit floats, one field a line."""
    fields = [
        f'"s1": {scheme.s1}',
        f'"s2": {scheme.s2}',
        f'"variant": "{scheme.variant.value}"',
        f'"order": {scheme.order}',
    ] + [f'"{name}": {_fmt_array(getattr(scheme, field))}' for name, field in _COEFFICIENTS]
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def scheme_to_csv(scheme: ArkScheme) -> str:
    """The coefficients as ``name,i,j,value`` rows, 1-based; a vector's rows
    leave j empty."""
    lines = ["name,i,j,value"]
    for name, field in _COEFFICIENTS:
        v = getattr(scheme, field)
        for i, row in enumerate(v, 1):
            cells = enumerate(row, 1) if v.ndim == 2 else [("", row)]
            lines += [f"{name},{i},{j},{_fmt(x)}" for j, x in cells]
    return "\n".join(lines)


def scheme_from_json(text: str) -> ArkScheme:
    data = json.loads(text)
    return ArkScheme(
        s1=int(data["s1"]),
        s2=int(data["s2"]),
        order=int(data["order"]),
        variant=Variant(data["variant"]),
        **{field: np.array(data[name], dtype=float) for name, field in _COEFFICIENTS},
    )
