"""Hardcoded closed-form coefficient sets for orders 2, 4, 6 (both coupling
variants), written as the exact radical expressions and evaluated in double
precision.  These anchor the generic floating-point constructors."""

import numpy as np

R3 = np.sqrt(3.0)
R5 = np.sqrt(5.0)
R15 = np.sqrt(15.0)


def _arr(rows):
    return np.array(rows, dtype=float)


GOLDEN = {
    2: {
        "c": _arr([0.0, 1.0]),
        "b": _arr([0.5, 0.5]),
        "ctilde": _arr([0.5]),
        "btilde": _arr([1.0]),
        "A": _arr([[0.0, 0.0], [0.5, 0.5]]),
        "Ahat": _arr([[0.5, 0.0], [0.5, 0.0]]),
        "interpolation": {
            "Atilde": _arr([[0.25, 0.25]]),
            "AtildeHat": _arr([[0.5], [0.5]]),
        },
        "collocation": {
            "Atilde": _arr([[3.0 / 8.0, 1.0 / 8.0]]),
            "AtildeHat": _arr([[0.25], [0.75]]),
        },
    },
    3: {
        "c": _arr([0.0, 0.5, 1.0]),
        "b": _arr([1 / 6, 2 / 3, 1 / 6]),
        "ctilde": _arr([0.5 - R3 / 6, 0.5 + R3 / 6]),
        "btilde": _arr([0.5, 0.5]),
        "A": _arr([
            [0.0, 0.0, 0.0],
            [5 / 24, 1 / 3, -1 / 24],
            [1 / 6, 2 / 3, 1 / 6],
        ]),
        "Ahat": _arr([
            [1 / 6, -1 / 6, 0.0],
            [1 / 6, 1 / 3, 0.0],
            [1 / 6, 5 / 6, 0.0],
        ]),
        "interpolation": {
            "Atilde": _arr([
                [1 / 6 - R3 / 36, 1 / 3 - R3 / 9, -R3 / 36],
                [1 / 6 + R3 / 36, 1 / 3 + R3 / 9, R3 / 36],
            ]),
            "AtildeHat": _arr([
                [R3 / 12, -R3 / 12],
                [0.25 + R3 / 12, 0.25 - R3 / 12],
                [0.5 + R3 / 12, 0.5 - R3 / 12],
            ]),
        },
        "collocation": {
            "Atilde": _arr([
                [1 / 6 - R3 / 108, 1 / 3 - 4 * R3 / 27, -R3 / 108],
                [1 / 6 + R3 / 108, 1 / 3 + 4 * R3 / 27, R3 / 108],
            ]),
            "AtildeHat": _arr([
                [R3 / 36, -R3 / 36],
                [0.25 + R3 / 9, 0.25 - R3 / 9],
                [0.5 + R3 / 36, 0.5 - R3 / 36],
            ]),
        },
    },
    4: {
        "c": _arr([0.0, 0.5 - R5 / 10, 0.5 + R5 / 10, 1.0]),
        "b": _arr([1 / 12, 5 / 12, 5 / 12, 1 / 12]),
        "ctilde": _arr([0.5 - R15 / 10, 0.5, 0.5 + R15 / 10]),
        "btilde": _arr([5 / 18, 4 / 9, 5 / 18]),
        "A": _arr([
            [0.0, 0.0, 0.0, 0.0],
            [(11 + R5) / 120, (25 - R5) / 120, (25 - 13 * R5) / 120, (-1 + R5) / 120],
            [(11 - R5) / 120, (25 + 13 * R5) / 120, (25 + R5) / 120, (-1 - R5) / 120],
            [1 / 12, 5 / 12, 5 / 12, 1 / 12],
        ]),
        "Ahat": _arr([
            [1 / 12, -(1 + R5) / 24, (-1 + R5) / 24, 0.0],
            [1 / 12, (25 + R5) / 120, (25 - 13 * R5) / 120, 0.0],
            [1 / 12, (25 + 13 * R5) / 120, (25 - R5) / 120, 0.0],
            [1 / 12, (11 - R5) / 24, (11 + R5) / 24, 0.0],
        ]),
        "interpolation": {
            "Atilde": _arr([
                [1 / 15, (25 - 6 * R15 + 3 * R5) / 120, (25 - 6 * R15 - 3 * R5) / 120, 1 / 60],
                [5 / 48, 5 / 24 + R5 / 16, 5 / 24 - R5 / 16, -1 / 48],
                [1 / 15, (25 + 6 * R15 + 3 * R5) / 120, (25 + 6 * R15 - 3 * R5) / 120, 1 / 60],
            ]),
            "AtildeHat": _arr([
                [1 / 18, -1 / 9, 1 / 18],
                [(25 + 6 * R15 - 3 * R5) / 180, 2 / 9 - R5 / 15, (25 - 6 * R15 - 3 * R5) / 180],
                [(25 + 6 * R15 + 3 * R5) / 180, 2 / 9 + R5 / 15, (25 - 6 * R15 + 3 * R5) / 180],
                [2 / 9, 5 / 9, 2 / 9],
            ]),
        },
        "collocation": {
            "Atilde": _arr([
                [19 / 240,
                 R5 * (R15 - 5) ** 2 * (3 * R15 + 4 * R5 + 2 * R3 + 12) / 2400,
                 -R5 * (R15 - 5) ** 2 * (3 * R15 - 2 * R3 - 4 * R5 + 12) / 2400,
                 1 / 240],
                [17 / 192, 5 / 24 + 5 * R5 / 64, 5 / 24 - 5 * R5 / 64, -1 / 192],
                [19 / 240,
                 -R5 * (R15 + 5) ** 2 * (3 * R15 - 4 * R5 + 2 * R3 - 12) / 2400,
                 R5 * (R15 + 5) ** 2 * (3 * R15 + 4 * R5 - 2 * R3 - 12) / 2400,
                 1 / 240],
            ]),
            "AtildeHat": _arr([
                [1 / 72, -1 / 36, 1 / 72],
                [5 / 36 + (12 * R3 - 3) * R5 / 360, 2 / 9 - R5 / 12,
                 5 / 36 + (-12 * R3 - 3) * R5 / 360],
                [5 / 36 + (12 * R3 + 3) * R5 / 360, 2 / 9 + R5 / 12,
                 5 / 36 + (-12 * R3 + 3) * R5 / 360],
                [19 / 72, 17 / 36, 19 / 72],
            ]),
        },
    },
}

# closed-form stability interval endpoints of the collocation family
COLLOCATION_INTERVALS = {
    "lglc2": [(0.0, 4.0)],
    "lglc4": [(0.0, 6.0 * np.sqrt(33.0) / 11.0), (2.0 * R3, 3.0 * np.sqrt(6.0))],
    "lglc6": [
        (0.0, np.sqrt(70.0 - 2.0 * np.sqrt(905.0))),
        (np.sqrt(10.0), 1.6 * R15),
        (2.0 * R15, np.sqrt(70.0 + 2.0 * np.sqrt(905.0))),
    ],
}


def half_trace_order4(mu):
    """Stability function of the order-4 interpolation method."""
    mu2 = np.asarray(mu, dtype=float) ** 2
    return (1.0 - 5.0 / 12.0 * mu2 + mu2 * mu2 / 144.0) / \
        (1.0 + mu2 / 12.0 + mu2 * mu2 / 144.0)


def half_trace_order6(mu):
    """Stability function of the order-6 interpolation method."""
    mu2 = np.asarray(mu, dtype=float) ** 2
    num = 1.0 - 9.0 / 20.0 * mu2 + 11.0 / 600.0 * mu2 ** 2 - mu2 ** 3 / 14400.0
    den = 1.0 + mu2 / 20.0 + mu2 ** 2 / 600.0 + mu2 ** 3 / 14400.0
    return num / den


def half_trace_imex(mu):
    nu2 = (np.asarray(mu, dtype=float) / 2.0) ** 2
    return (1.0 - nu2) / (1.0 + nu2)


def filters_order4(mu):
    den = mu ** 4 + 12.0 * mu ** 2 + 144.0
    return np.array([2.0 * (-mu ** 2 + 12.0) / den,
                     2.0 * (mu ** 2 + 24.0) / den,
                     0.0 * den])


def filters_order6(mu):
    den = mu ** 6 + 24.0 * mu ** 4 + 720.0 * mu ** 2 + 14400.0
    core = (mu ** 4 + 50.0 * mu ** 2 - 600.0) * R5
    return np.array([
        (2.0 * mu ** 4 - 140.0 * mu ** 2 + 1200.0) / den,
        (-core - 50.0 * mu ** 2 + 3000.0) / den,
        (core - 50.0 * mu ** 2 + 3000.0) / den,
        0.0 * den,
    ])
