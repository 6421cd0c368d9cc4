import contextlib
import functools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symparc.stability as stability
from symparc.integrator import (
    ArkStepper,
    PhaseState,
    SingularStageSystemError,
    SplitForceSystem,
)
from symparc.kernel import lu_factor
from symparc.stability import (
    NotStableError,
    check_m11_equals_m22,
    filter_functions,
    half_trace,
    half_trace_samples,
    modified_frequency,
    stability_intervals,
    stability_matrix,
    stability_matrix_samples,
    trig_form_step_check,
    _CHUNK,
    _bisect,
    _modified_mu,
)
from symparc.tableaux import MAX_STAGES, Variant, build_scheme

from _golden import (
    COLLOCATION_INTERVALS,
    filters_order4,
    filters_order6,
    half_trace_imex,
    half_trace_order4,
    half_trace_order6,
)
from _helpers import scalar_bisect, singular_at_one

LGL2 = build_scheme(2, Variant.INTERPOLATION)
LGL4 = build_scheme(3, Variant.INTERPOLATION)
LGL6 = build_scheme(4, Variant.INTERPOLATION)
LGLC2 = build_scheme(2, Variant.COLLOCATION)
LGLC4 = build_scheme(3, Variant.COLLOCATION)
LGLC6 = build_scheme(4, Variant.COLLOCATION)
ALL = [LGL2, LGL4, LGL6, LGLC2, LGLC4, LGLC6]


# ---------------------------------------------------------------------------
# the 2x2 matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ALL, ids=lambda s: s.name)
def test_matrix_at_zero_is_identity(scheme):
    m = stability_matrix(scheme, 0.0).m
    assert np.array_equal(m, np.eye(2))


@pytest.mark.parametrize("mu", [0.1, 1.0, 5.0, 20.0])
def test_imex_matrix_closed_form(mu):
    nu2 = (mu / 2.0) ** 2
    expected = np.array([[1.0 - nu2, mu], [-mu, 1.0 - nu2]]) / (1.0 + nu2)
    m = stability_matrix(LGL2, mu).m
    assert np.max(np.abs(m - expected)) < 1e-13


@pytest.mark.parametrize("scheme", ALL, ids=lambda s: s.name)
def test_determinant_one(scheme):
    mus = np.linspace(0.0, 100.0, 10001)
    M = stability_matrix_samples(scheme, mus)
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    assert np.max(np.abs(det - 1.0)) < 1e-10


@pytest.mark.parametrize("scheme", ALL, ids=lambda s: s.name)
def test_diagonal_entries_agree(scheme):
    check = check_m11_equals_m22(scheme, np.linspace(0.0, 100.0, 4001))
    assert check.max_deviation < 1e-12
    assert np.max(check.condition_residuals) < 1e-13
    # order >= 1 pins the first moment on both sides
    assert abs(check.lhs[0] - 0.5) < 1e-14
    assert abs(check.rhs[0] - 0.5) < 1e-14


def test_order6_moment_values():
    check = check_m11_equals_m22(LGL6, [0.0])
    assert abs(check.lhs[1] - 1.0 / 24.0) < 1e-13
    assert abs(check.rhs[1] - 1.0 / 24.0) < 1e-13
    assert abs(check.lhs[2] - 1.0 / 720.0) < 1e-13
    assert abs(check.rhs[2] - 1.0 / 720.0) < 1e-13


def test_diagonal_closed_forms_from_row_sum_identities():
    # M11 = 1 - mu^2 b (I + mu^2 AtH At)^{-1} c and the tilde counterpart
    for scheme in (LGL4, LGL6):
        for mu in (0.3, 1.7, 4.0, 9.0):
            m = stability_matrix(scheme, mu).m
            k1 = np.eye(scheme.s1) + mu * mu * (scheme.a_tilde_hat @ scheme.a_tilde)
            m11 = 1.0 - mu * mu * (scheme.b @ np.linalg.solve(k1, scheme.c))
            k2 = np.eye(scheme.s2) + mu * mu * (scheme.a_tilde @ scheme.a_tilde_hat)
            m22 = 1.0 - mu * mu * (scheme.b_tilde @ np.linalg.solve(k2, scheme.c_tilde))
            assert abs(m[0, 0] - m11) < 1e-12
            assert abs(m[1, 1] - m22) < 1e-12


def test_singular_mu_raises():
    with pytest.raises(SingularStageSystemError):
        stability_matrix(singular_at_one(), 1.0)


def test_singular_negative_mu_raises():
    # the Schur complement sees only mu^2, so -1 is as singular as +1
    with pytest.raises(SingularStageSystemError):
        stability_matrix(singular_at_one(), -1.0)


def test_singular_mu_raises_from_half_trace():
    bad = singular_at_one()
    with pytest.raises(SingularStageSystemError):
        half_trace(bad, 1.0)
    with pytest.raises(SingularStageSystemError):
        half_trace_samples(bad, [0.5, 1.0])


def _mpmath_matrix(scheme, mu):
    """M(mu) from a 30-digit solve of the stage block [[I, -mu At], [mu AtH, I]]."""
    s1, s2 = scheme.s1, scheme.s2
    mp = mpmath.mp
    mu = mp.mpf(float(mu))
    S = mp.eye(s1 + s2)
    for i in range(s2):
        for j in range(s1):
            S[i, s2 + j] = -mu * mp.mpf(float(scheme.a_tilde[i, j]))
    for i in range(s1):
        for j in range(s2):
            S[s2 + i, j] = mu * mp.mpf(float(scheme.a_tilde_hat[i, j]))
    lu, piv = mp.LU_decomp(S)
    m = np.empty((2, 2))
    for k, rows in enumerate((range(s2), range(s2, s1 + s2))):
        e = mp.matrix([1 if i in rows else 0 for i in range(s1 + s2)])
        x = mp.U_solve(lu, mp.L_solve(lu, e, piv))
        m[0, k] = float((k == 0) + mu * mp.fsum(mp.mpf(float(w)) * x[s2 + j]
                                                for j, w in enumerate(scheme.b)))
        m[1, k] = float((k == 1) - mu * mp.fsum(mp.mpf(float(w)) * x[j]
                                                for j, w in enumerate(scheme.b_tilde)))
    return m


_RNG = np.random.default_rng(20)
_ACCURACY_MUS = np.concatenate([
    [0.0, 2.0 * math.sqrt(3.0), math.sqrt(10.0), 2.0 * math.sqrt(15.0)],
    _RNG.uniform(0.0, 20.0, 3), _RNG.uniform(20.0, 1000.0, 2), [1000.0],
    # negative mu, where the odd entries flip sign, and mu^2 up to 1e10
    [-1000.0, -7.3, -1e-3, 3e3, 1e4, 1e5]])


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("s1", range(2, MAX_STAGES + 1))
def test_matrix_matches_mpmath(s1, variant):
    scheme = build_scheme(s1, variant)
    M = stability_matrix_samples(scheme, _ACCURACY_MUS)
    with mpmath.workdps(30):
        for mu, m in zip(_ACCURACY_MUS, M):
            ref = _mpmath_matrix(scheme, mu)
            bound = 1e-14 * max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(m - ref)) <= bound, mu
            # the odd entries flip sign with mu; where the reference lies
            # within the bound of zero (mu = 0 and the resonance points) its
            # sign is roundoff, and the entry must vanish to the bound instead
            for k in ((0, 1), (1, 0)):
                if abs(ref[k]) > bound:
                    assert np.sign(m[k]) == np.sign(ref[k]), (mu, k)
                else:
                    assert abs(m[k]) <= bound, (mu, k)


def _mpmath_filters(scheme, mu):
    """psi_i = b^T (I + mu^2 AtH At)^{-1} ahat_i from a 30-digit solve."""
    mp = mpmath.mp
    mu = mp.mpf(float(mu))
    AtH, At = mp.matrix(scheme.a_tilde_hat.tolist()), mp.matrix(scheme.a_tilde.tolist())
    lu, piv = mp.LU_decomp(mp.eye(scheme.s1) + mu * mu * (AtH * At))
    b = [mp.mpf(float(w)) for w in scheme.b]
    psi = np.empty(scheme.s1)
    for i in range(scheme.s1):
        x = mp.U_solve(lu, mp.L_solve(lu, mp.matrix(scheme.a_hat[:, i].tolist()), piv))
        psi[i] = float(mp.fsum(w * x[j] for j, w in enumerate(b)))
    return psi


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("s1", range(2, MAX_STAGES + 1))
def test_filters_match_mpmath(s1, variant):
    scheme = build_scheme(s1, variant)
    psi = filter_functions(scheme, _ACCURACY_MUS).psi
    with mpmath.workdps(30):
        for mu, row in zip(_ACCURACY_MUS, psi):
            ref = _mpmath_filters(scheme, mu)
            assert np.max(np.abs(row - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref))), mu


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("s1", [2, 3, 4, 8, 12])
def test_samples_are_batch_independent(s1, variant):
    scheme = build_scheme(s1, variant)
    mus = np.concatenate([[0.0, 1e-3, 2.0 * math.sqrt(3.0)],
                          np.random.default_rng(s1).uniform(0.0, 1000.0, 9)])
    M = stability_matrix_samples(scheme, mus)
    ht = half_trace_samples(scheme, mus)
    filters = filter_functions(scheme, mus)
    assert np.array_equal(filters.mu, mus)
    assert np.array_equal(filters.modified_mu, _modified_mu(ht), equal_nan=True)
    stable = mus[~np.isnan(filters.modified_mu)]
    mu_t = modified_frequency(scheme, stable)
    for i, mu in enumerate(mus):
        assert np.array_equal(M[i], stability_matrix(scheme, mu).m)
        assert np.array_equal(M[i], stability_matrix_samples(scheme, mus[i:i + 5])[0])
        assert half_trace(scheme, mu) == ht[i]
        one = filter_functions(scheme, mu)
        assert np.array_equal(filters.psi[i], one.psi)
        assert np.array_equal(filters.modified_mu[i], one.modified_mu, equal_nan=True)
    assert [modified_frequency(scheme, mu) for mu in stable] == mu_t.tolist()
    assert stability_matrix_samples(scheme, []).shape == (0, 2, 2)


@pytest.mark.parametrize("scheme", [LGL4, LGLC6], ids=lambda s: s.name)
def test_streamed_reductions_cross_chunks(scheme):
    # three kernel chunks, the last of 3 mu: every reduction made chunk by
    # chunk equals the one read off the full matrix
    mus = np.random.default_rng(5).uniform(0.0, 1000.0, 2 * _CHUNK + 3)
    M = stability_matrix_samples(scheme, mus)
    m11, m22 = M[:, 0, 0], M[:, 1, 1]
    ht = half_trace_samples(scheme, mus)
    assert np.array_equal(ht, 0.5 * (m11 + m22))
    filters = filter_functions(scheme, mus)
    assert np.array_equal(filters.modified_mu, _modified_mu(ht), equal_nan=True)
    for i in (0, _CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 2):
        assert np.array_equal(filters.psi[i], filter_functions(scheme, mus[i]).psi)
    assert check_m11_equals_m22(scheme, mus).max_deviation == np.max(np.abs(m11 - m22))


@pytest.mark.parametrize("variant", list(Variant))
def test_reductions_match_the_matrix_for_every_scheme(variant):
    # the half trace and the M11 = M22 check weigh only the diagonal of M:
    # bitwise what the full matrix holds, for every scheme, at mu = 0, at
    # negative mu and up to 1000
    mus = np.concatenate([[0.0, -2.5, -400.0],
                          np.random.default_rng(8).uniform(0.0, 1000.0, 510)])
    for s1 in range(2, MAX_STAGES + 1):
        scheme = build_scheme(s1, variant)
        M = stability_matrix_samples(scheme, mus)
        m11, m22 = M[:, 0, 0], M[:, 1, 1]
        assert np.array_equal(half_trace_samples(scheme, mus), 0.5 * (m11 + m22)), s1
        assert check_m11_equals_m22(scheme, mus).max_deviation == np.max(np.abs(m11 - m22)), s1


# the mu the overlap tests put in the child's chunk: zeros of both signs,
# negative mu, tiny and large ones, two whose squares are near the largest
# float
_CHILD_MUS = [0.0, -0.0, -2.5, 1e-8, 1e5, 1e150, 1.3e154, -1e150]


def _no_child_left():
    """Whether this process has no child left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _force_fork(monkeypatch):
    """Take two CPUs and one OS thread whatever the host has, so a long
    enough grid forks a child on any interpreter.  From Python 3.12 on the
    fork then warns of OpenBLAS's pool, which shuts down across a fork and
    which the child's NumPy, summing without BLAS, does not call: the
    warning is silenced."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork here")
    monkeypatch.setattr(stability, "_cpus", lambda: 2)
    monkeypatch.setattr(stability, "_os_threads", lambda: 1)
    fork = os.fork

    def quiet():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            return fork()

    monkeypatch.setattr(os, "fork", quiet)


@pytest.fixture
def overlap(monkeypatch):
    """Chunks of eight mu, a child forked on every grid of two chunks or
    more whatever the host allows, and a list of the forked children's pids."""
    _force_fork(monkeypatch)
    forked = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(stability, "_CHUNK", len(_CHILD_MUS))
    monkeypatch.setattr(stability, "_FORK_CHUNKS", 2)
    monkeypatch.setattr(os, "fork", counted)
    yield forked
    assert _no_child_left()


def _reductions(scheme, mus):
    """Every sampled quantity of the stability layer on the grid ``mus``, as
    bytes, with the M11 = M22 deviation."""
    filters = filter_functions(scheme, mus)
    return ([a.tobytes() for a in (half_trace_samples(scheme, mus),
                                   stability_matrix_samples(scheme, mus),
                                   filters.psi, filters.modified_mu,
                                   stability._half_trace_slopes(scheme, mus))],
            check_m11_equals_m22(scheme, mus).max_deviation)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("n_chunks", [2, 3])
def test_overlapped_chunks_match_one_chunk_calls(overlap, monkeypatch, variant, n_chunks):
    # the caller solves chunk 0 while a forked child solves chunk 1, which
    # holds the special mu, and sends it back; each chunk's reductions are
    # bitwise those of a call that solves it alone, the M11 = M22 check is
    # their largest, and the caller solves only the even chunks
    caller = np.random.default_rng(9).uniform(-20.0, 1000.0, stability._CHUNK)
    mus = np.concatenate([caller, _CHILD_MUS, [0.5, 17.0, 999.0][:3 * (n_chunks - 2)]])
    parts = [slice(k, k + stability._CHUNK) for k in range(0, len(mus), stability._CHUNK)]
    assert len(parts) == n_chunks
    solved = []

    def counted(H, nu):
        solved.append(len(nu))
        return lu_factor(H, nu)

    for s1 in range(2, MAX_STAGES + 1):
        scheme = build_scheme(s1, variant)
        overlap.clear()
        with monkeypatch.context() as patch:
            patch.setattr(stability, "lu_factor", counted)
            solved.clear()
            arrays, deviation = _reductions(scheme, mus)
            assert solved == [len(caller), 3][:n_chunks - 1] * 5, s1
        assert len(overlap) == 5, s1
        alone = [_reductions(scheme, mus[part]) for part in parts]
        for i, got in enumerate(arrays):
            assert got == b"".join(chunk[0][i] for chunk in alone), (s1, i)
        assert deviation == max(chunk[1] for chunk in alone), s1


def test_singular_mu_in_the_workers_chunk_is_named(overlap):
    bad = singular_at_one()
    # only the child's chunk holds a singular mu: the child stops there and
    # the caller solves the chunk itself
    with pytest.raises(SingularStageSystemError, match="mu = 1$"):
        half_trace_samples(bad, [0.5, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.1, 0.9, 1.0, 0.3])
    assert len(overlap) == 1
    assert _no_child_left()
    # several chunks do: the error names the first singular mu of the grid
    with pytest.raises(SingularStageSystemError, match="mu = -1$"):
        filter_functions(bad, [0.5, 0.2, -1.0, 0.4, 0.6, 0.7, 0.8, 0.1, 1.0, 0.9])
    with pytest.raises(SingularStageSystemError, match="mu = -1$"):
        stability_matrix_samples(bad, [0.5] * 7 + [-1.0, 1.0, 0.3])
    with pytest.raises(SingularStageSystemError, match="mu = 1$"):
        half_trace_samples(bad, [0.5] * 8 + [0.2, 1.0, 0.3, 0.4, 0.6, 0.7, 0.8, 0.1]
                           + [-1.0, 0.3])
    assert len(overlap) == 4


@contextlib.contextmanager
def _set_errors(how, errors):
    """The error handling ``errors`` through np.errstate or np.seterr."""
    if how == "errstate":
        with np.errstate(**errors):
            yield
        return
    old = np.seterr(**errors)
    try:
        yield
    finally:
        np.seterr(**old)


@pytest.mark.parametrize("how", ["errstate", "seterr"])
@pytest.mark.parametrize("errors, raised", [({"under": "raise"}, True),
                                            ({"over": "raise"}, False)])
def test_worker_runs_under_the_callers_error_handling(overlap, how, errors, raised):
    # at mu = 1e150 the lgl4 kernel underflows and does not overflow; a mu
    # in the child's chunk behaves as in the caller's, whether the caller
    # set its error handling through the context or not
    mus = np.linspace(0.0, 10.0, 16)
    for where in (0, 8):
        grid = mus.copy()
        grid[where + 3] = 1e150
        with _set_errors(how, errors):
            if raised:
                with pytest.raises(FloatingPointError):
                    half_trace_samples(LGL4, grid)
            else:
                got = half_trace_samples(LGL4, grid)
                assert np.array_equal(got, np.concatenate([half_trace_samples(LGL4, grid[:8]),
                                                           half_trace_samples(LGL4, grid[8:])]))
    assert len(overlap) == 2


def test_warnings_of_the_childs_chunk_come_from_the_caller(overlap):
    # under "warn" the underflows of the child's chunk warn in the caller,
    # as many times as the same chunk does in the caller's hands, and so
    # does a warning of the reduction: the child stops at the first one
    counts = []
    for where in (0, 8):
        grid = np.linspace(0.0, 10.0, 16)
        grid[where + 3] = 1e150
        with np.errstate(under="warn"), warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            half_trace_samples(LGL4, grid)
        counts.append([str(w.message) for w in seen])
    assert counts[0] == counts[1] != []

    def reduce(m, solve):
        if m[0] == 8.0:
            warnings.warn("chunk 1", UserWarning)
        return m[0]

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert [chunk for _, chunk in stability._chunks(LGL4, np.arange(24.0), reduce)] == [
            0.0, 8.0, 16.0]
    assert [str(w.message) for w in seen] == ["chunk 1"]
    assert len(overlap) == 3


def test_worker_calls_the_callers_error_callback(overlap):
    # under "call" the underflows of the child's chunk reach the caller's
    # callback, as many as the same chunk makes in the caller's hands
    seen = []
    counts = []
    old = np.seterrcall(lambda kind, flag: seen.append(kind))
    try:
        for where in (0, 8):
            grid = np.linspace(0.0, 10.0, 16)
            grid[where + 3] = 1e150
            seen.clear()
            with np.errstate(under="call"):
                half_trace_samples(LGL4, grid)
            counts.append(len(seen))
    finally:
        np.seterrcall(old)
    assert counts[0] == counts[1] > 0
    assert set(seen) == {"underflow"}
    assert len(overlap) == 2


def test_chunks_in_flight_and_in_order(overlap, tmp_path, capfd):
    # the caller solves the even chunks and the child the odd ones, each
    # once, and the chunks come in grid order; a child whose result does
    # not fit the pipe waits for the caller to take it, so a consumer that
    # stops after chunk 0 leaves chunk 3 unsolved, and no child behind.
    # What the child prints goes nowhere
    log = tmp_path / "solved"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    caller = os.getpid()

    def reduce(m, solve):
        os.write(fd, b"%d\n" % int(m[0]))
        if os.getpid() != caller:
            print("from the child", file=sys.stderr)
            os.write(1, b"from the child\n")
            os.write(2, b"from the child\n")
        return m.copy(), os.getpid(), np.zeros(2 ** 16)    # 512 KiB

    def solved():
        return sorted(int(line) for line in log.read_text().split())

    try:
        mus = np.arange(80.0)
        got = list(stability._chunks(LGL4, mus, reduce))
        assert [part.start for part, _ in got] == list(range(0, 80, 8))
        assert np.array_equal(np.concatenate([chunk[0] for _, chunk in got]), mus)
        assert [chunk[1] == os.getpid() for _, chunk in got] == [k % 2 == 0 for k in range(10)]
        assert solved() == list(range(0, 80, 8))
        assert _no_child_left()
        log.write_text("")
        chunks = stability._chunks(LGL4, mus, reduce)
        next(chunks)
        time.sleep(0.2)
        assert set(solved()) <= {0, 8}
        chunks.close()
        assert len(overlap) == 2
    finally:
        os.close(fd)
    assert capfd.readouterr() == ("", "")


def test_chunks_under_a_short_switch_interval(overlap):
    # four callers at once, each in a thread of its own, switching every
    # microsecond: a process that runs more than one Python thread forks no
    # child, and each caller's chunks are solved once each and come in grid
    # order
    mus = np.arange(160.0)
    expected = [float(k) for k in range(0, len(mus), 8)]
    failures = []

    def caller():
        solved = []

        def reduce(m, solve):
            solved.append(float(m[0]))
            return float(m[0])

        got = [chunk for _, chunk in stability._chunks(LGL4, mus, reduce)]
        if got != expected or sorted(solved) != expected:
            failures.append((got, solved))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in callers)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert overlap == []


def test_one_chunk_or_one_cpu_starts_no_thread(monkeypatch):
    # the chunks run in the caller alone, with no thread started and no
    # child forked, on a grid shorter than _FORK_CHUNKS chunks and in a
    # process allowed one CPU
    class Refused(threading.Thread):
        def start(self):
            raise AssertionError("a thread was started")

    def refused():
        raise AssertionError("a child was forked")

    monkeypatch.setattr(threading, "Thread", Refused)
    monkeypatch.setattr(os, "fork", refused)
    assert half_trace(LGL4, 1.3) == half_trace_samples(LGL4, [1.3])[0]
    stability_matrix(LGL6, 2.0)
    filter_functions(LGL4, np.linspace(0.0, 5.0, (stability._FORK_CHUNKS - 1) * _CHUNK))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(stability, "_CHUNK", 4)
    monkeypatch.setattr(stability, "_FORK_CHUNKS", 2)
    assert stability._cpus() == 1
    mus = np.linspace(0.0, 5.0, 11)
    assert np.array_equal(half_trace_samples(LGL4, mus),
                          np.concatenate([half_trace_samples(LGL4, mus[k:k + 4])
                                          for k in (0, 4, 8)]))


def test_forked_grid_leaves_no_child(monkeypatch):
    # a grid long enough to fork reaps its child on return, when its
    # consumer stops after one chunk, on an interrupt in the caller's chunk
    # and on an error in the child's
    _force_fork(monkeypatch)
    mus = np.linspace(0.0, 1000.0, stability._FORK_CHUNKS * _CHUNK)
    half_trace_samples(LGL4, mus)
    assert _no_child_left()
    chunks = stability._chunks(LGL4, mus, lambda m, solve: m[0])
    next(chunks)
    chunks.close()
    assert _no_child_left()

    def interrupted(m, solve):
        if m[0] == mus[2 * _CHUNK]:
            raise KeyboardInterrupt
        return m[0]

    with pytest.raises(KeyboardInterrupt):
        list(stability._chunks(LGL4, mus, interrupted))
    assert _no_child_left()


def test_fork_only_where_os_fork_would_not_warn(monkeypatch):
    # from Python 3.12 on, os.fork warns in a process that runs another OS
    # thread, so no child is forked there, nor where the threads cannot be
    # counted; before 3.12 it never warns
    monkeypatch.setattr(stability, "_cpus", lambda: 2)
    n = stability._FORK_CHUNKS
    assert stability._os_threads() >= 1
    for threads, forks in ((1, True), (2, sys.version_info < (3, 12)),
                           (0, sys.version_info < (3, 12))):
        monkeypatch.setattr(stability, "_os_threads", lambda: threads)
        assert stability._forks(n) is forks, threads
        assert not stability._forks(n - 1)


def test_failed_fork_solves_every_chunk_in_the_caller(monkeypatch):
    # a fork refused for want of processes or memory leaves the grid to the
    # caller, with the same results
    def refused():
        raise BlockingIOError("fork refused")

    mus = np.linspace(0.0, 50.0, 3 * _CHUNK)
    expected = half_trace_samples(LGL4, mus)
    monkeypatch.setattr(stability, "_FORK_CHUNKS", 2)
    monkeypatch.setattr(stability, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", refused)
    assert np.array_equal(half_trace_samples(LGL4, mus), expected)
    bad = singular_at_one()
    grid = np.full(len(mus), 0.5)
    grid[_CHUNK + 1] = 1.0
    with pytest.raises(SingularStageSystemError, match="mu = 1$"):
        half_trace_samples(bad, grid)
    assert _no_child_left()


def test_forked_child_never_returns_into_the_caller(monkeypatch, tmp_path):
    # a script that runs one forked grid and then prints, while its output
    # is a pipe whose buffer holds what it printed before: the line comes
    # once and the buffered text is not flushed twice, so the child neither
    # ran on into the script nor flushed the caller's files.  Its stderr is
    # a file held by sys.stderr alone, which the child must not free, and
    # after the grid the script appends one line per process to a log
    _force_fork(monkeypatch)
    held, log = tmp_path / "held", tmp_path / "log"
    script = (
        "import os, sys, warnings\n"
        "warnings.filterwarnings('ignore', 'This process', DeprecationWarning)\n"
        "import numpy as np\n"
        "from symparc import stability\n"
        "from symparc.tableaux import build_scheme\n"
        "stability._cpus = lambda: 2\n"
        "stability._os_threads = lambda: 1\n"
        "sys.stderr = open(sys.argv[1], 'w')\n"
        "sys.stderr.write('buffered ')\n"
        "print('before', end=' ')\n"
        "n = stability._FORK_CHUNKS * stability._CHUNK\n"
        "assert stability._forks(stability._FORK_CHUNKS)\n"
        "ht = stability.half_trace_samples(build_scheme(3, 'interpolation'),\n"
        "                                  np.linspace(0.0, 1000.0, n))\n"
        "with open(sys.argv[2], 'a') as out:\n"
        "    out.write('%d\\n' % os.getpid())\n"
        "sys.stderr.write('once')\n"
        "sys.stderr.close()\n"
        "sys.stderr = sys.__stderr__\n"
        "print('after', len(ht))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(stability.__file__).parents[1])] + sys.path))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script, str(held), str(log)],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"before after {stability._FORK_CHUNKS * _CHUNK}\n", "")
    assert held.read_text() == "buffered once"
    assert len(log.read_text().splitlines()) == 1


def test_half_trace_samples_hold_no_matrix():
    # a 1e6-mu half trace keeps its (N,) result, one chunk's working set and
    # the child's results as they arrive, below twice the result's 8N bytes;
    # the (N, 2, 2) matrix alone is 32N
    mus = np.linspace(0.0, 1000.0, 10**6)
    half_trace_samples(LGL4, mus[:10])
    tracemalloc.start()
    try:
        half_trace_samples(LGL4, mus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * len(mus), peak


# ---------------------------------------------------------------------------
# stability functions
# ---------------------------------------------------------------------------

def test_half_trace_at_zero_is_one():
    for scheme in ALL:
        assert half_trace(scheme, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_half_trace_closed_forms():
    mus = np.linspace(0.0, 30.0, 7001)
    assert np.max(np.abs(half_trace_samples(LGL2, mus) - half_trace_imex(mus))) < 1e-12
    assert np.max(np.abs(half_trace_samples(LGL4, mus) - half_trace_order4(mus))) < 1e-12
    assert np.max(np.abs(half_trace_samples(LGL6, mus) - half_trace_order6(mus))) < 1e-12


def _pade_values(s2: int, mus):
    """P(i mu) = A(nu) + i mu B(nu), nu = mu^2, as mpmath pairs (A, mu B) at
    40 digits, for P(z) = sum_k (2 s2 - k)! s2! / ((2 s2)! k! (s2 - k)!) z^k,
    the numerator of the diagonal Pade approximant R(z) = P(z)/P(-z) of exp.
    Use the pairs within ``mpmath.workdps(40)``."""
    f = math.factorial
    c = [Fraction(f(2 * s2 - k) * f(s2), f(2 * s2) * f(k) * f(s2 - k)) for k in range(s2 + 1)]
    with mpmath.workdps(40):
        # A and B in nu, highest power first, as polyval takes them
        even = [mpmath.mpf(c[k].numerator) / c[k].denominator * (-1) ** (k // 2)
                for k in range(0, s2 + 1, 2)][::-1]
        odd = [mpmath.mpf(c[k].numerator) / c[k].denominator * (-1) ** (k // 2)
               for k in range(1, s2 + 1, 2)][::-1]
        out = []
        for mu in mus:
            mu = mpmath.mpf(mu)
            out.append((mpmath.polyval(even, mu * mu), mu * mpmath.polyval(odd, mu * mu)))
    return out


def _pade_half_trace(s2: int, mus):
    """Re R(i mu) at 40 digits.  P's coefficients are real, so P(-i mu) is
    the conjugate of P(i mu) = A + i mu B, and Re R(i mu) is
    (A^2 - nu B^2) / (A^2 + nu B^2)."""
    with mpmath.workdps(40):
        return np.array([float((a * a - b * b) / (a * a + b * b))
                         for a, b in _pade_values(s2, mus)])


def _pade_modified_frequency(s2: int, mus):
    """2 arg P(i mu) folded into [0, pi] at 40 digits: R(i mu) = P(i mu) /
    conj(P(i mu)) is exp(2i arg P(i mu)), whose cosine is the half trace."""
    with mpmath.workdps(40):
        out = []
        for a, b in _pade_values(s2, mus):
            angle = 2 * mpmath.atan2(b, a) % (2 * mpmath.pi)
            out.append(float(min(angle, 2 * mpmath.pi - angle)))
    return np.array(out)


# every resonance of the family lies below 84.6 (lgl22); the rest of the
# range reaches the kernel's large-mu regime
PADE_MUS = np.concatenate([np.linspace(0.0, 100.0, 301), np.geomspace(100.0, 1e4, 201)[1:]])


@pytest.mark.parametrize("s1", range(2, MAX_STAGES + 1))
def test_interpolation_half_trace_is_the_diagonal_pade_approximant(s1):
    # with F1 = 0 the interpolation method is the s2-stage Gauss method on
    # the oscillator, whose stability function is the diagonal Pade
    # approximant of exp (Hairer & Wanner, Solving ODEs II, IV.3-IV.5)
    scheme = build_scheme(s1, Variant.INTERPOLATION)
    error = np.abs(half_trace_samples(scheme, PADE_MUS) - _pade_half_trace(scheme.s2, PADE_MUS))
    assert np.max(error) <= 1e-13, (float(np.max(error)), float(PADE_MUS[np.argmax(error)]))


@pytest.mark.parametrize("s1", range(2, MAX_STAGES + 1))
def test_interpolation_modified_frequency_is_twice_the_pade_argument(s1):
    scheme = build_scheme(s1, Variant.INTERPOLATION)
    mus = np.linspace(0.05, 8.0, 160)
    # arccos is ill-conditioned next to +-1, where the resonances sit
    mus = mus[np.abs(_pade_half_trace(scheme.s2, mus)) <= 1.0 - 1e-4]
    error = np.abs(modified_frequency(scheme, mus) - _pade_modified_frequency(scheme.s2, mus))
    assert np.max(error) <= 1e-11, (float(np.max(error)), float(mus[np.argmax(error)]))


def test_half_trace_touch_points():
    assert half_trace(LGL4, 2.0 * math.sqrt(3.0)) == pytest.approx(-1.0, abs=1e-12)
    assert half_trace(LGL6, math.sqrt(10.0)) == pytest.approx(-1.0, abs=1e-12)
    assert half_trace(LGL6, 2.0 * math.sqrt(15.0)) == pytest.approx(1.0, abs=1e-12)


@given(st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=25))
@settings(max_examples=200, deadline=None)
def test_interpolation_family_is_unconditionally_stable(mus):
    for scheme in (LGL2, LGL4, LGL6):
        assert np.all(np.abs(half_trace_samples(scheme, mus)) <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# intervals and resonances
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme,key", [(LGLC2, "lglc2"), (LGLC4, "lglc4"),
                                        (LGLC6, "lglc6")],
                         ids=["lglc2", "lglc4", "lglc6"])
def test_collocation_intervals_match_radicals(scheme, key):
    report = stability_intervals(scheme, 12.0)
    expected = COLLOCATION_INTERVALS[key]
    assert not report.p_stable
    assert len(report.intervals) == len(expected)
    for (lo, hi), (elo, ehi) in zip(report.intervals, expected):
        assert abs(lo - elo) < 1e-8
        assert abs(hi - min(ehi, 12.0)) < 1e-8


def test_collocation_instability_beyond_window():
    # beyond the last interval the stability function stays outside [-1, 1]
    for scheme, key in ((LGLC4, "lglc4"), (LGLC6, "lglc6")):
        upper = COLLOCATION_INTERVALS[key][-1][1]
        mus = np.linspace(upper + 0.1, upper + 50.0, 2000)
        assert np.all(np.abs(half_trace_samples(scheme, mus)) > 1.0)


@functools.lru_cache(maxsize=None)
def _collocation_report(s1: int, mu_max: float):
    """The interval report of the collocation scheme, shared by the tests."""
    return stability_intervals(build_scheme(s1, Variant.COLLOCATION), mu_max)


# unstable gaps narrower than the 1e-3 grid, by s1 of the collocation
# scheme: the sign of the line the half trace crosses and the gap's ends,
# the positive roots of D -+ N at 50 digits from the float tableau
NARROW_GAPS = {8: (1, 6.2831189488, 6.2832903357),
               10: (-1, 9.4246652390, 9.4249386298),
               12: (1, 12.5662418127, 12.5665423270)}


@pytest.mark.parametrize("s1,mu_max", [(8, 12.0), (8, 50.0), (10, 12.0), (10, 50.0), (12, 50.0)],
                         ids=["lglc14-12", "lglc14-50", "lglc18-12", "lglc18-50", "lglc22-50"])
def test_gap_narrower_than_the_grid_splits_its_interval(s1, mu_max):
    sign, lo, hi = NARROW_GAPS[s1]
    report = _collocation_report(s1, mu_max)
    # two crossings, and no tangent resonance between them
    found = [r for r in report.resonance_points if lo - 1e-3 < r.mu < hi + 1e-3]
    assert [(r.sign, r.tangent) for r in found] == [(sign, False), (sign, False)]
    assert abs(found[0].mu - lo) < 1e-9 and abs(found[1].mu - hi) < 1e-9
    # one interval ends at the gap and the next starts after it
    k = [b for _, b in report.intervals].index(found[0].mu)
    assert report.intervals[k + 1][0] == found[1].mu
    assert not report.p_stable


def _dyadic(a):
    """(ints, scale): the float array ``a`` as an object array of Python
    ints over one power of two, a = ints / scale exactly."""
    exact = [Fraction(float(v)) for v in np.ravel(a)]
    scale = max(f.denominator for f in exact)
    return np.array([int(f * scale) for f in exact], dtype=object).reshape(np.shape(a)), scale


def _resolvent(G, x):
    """(e, q) for an integer matrix G and vector x, exactly: det(I + u G) =
    sum_k e_k u^k and x^T adj(I + u G) 1 = sum_k q_k u^k.  The e_k follow
    from the traces of the powers of G by Newton's identities, and q from
    the moments x^T G^j 1, since (I + u G)^{-1} = sum_j (-u)^j G^j."""
    n = len(G)
    power, v = G, np.ones(n, dtype=object)
    traces, moments = [None], [int(x.sum())]
    for _ in range(n):
        traces.append(int(np.trace(power)))
        power = power.dot(G)
        v = G.dot(v)
        moments.append(int(x.dot(v)))
    e = [1]
    for k in range(1, n + 1):
        total = sum((-1) ** (i - 1) * e[k - i] * traces[i] for i in range(1, k + 1))
        assert total % k == 0
        e.append(total // k)
    q = [sum(e[k - j] * (-1) ** j * moments[j] for j in range(k + 1)) for k in range(n)]
    return e, q


def _exact_half_trace(scheme):
    """(N, D), the half trace N(nu)/D(nu) of the float tableau with nu =
    mu^2, as ascending coefficients in Fractions, exactly.  From the
    kernel's solve, M11 = 1 - nu b AtH (I + nu G)^{-1} 1 with G = At AtH and
    M22 = 1 - nu bt At (I + nu G')^{-1} 1 with G' = AtH At; both resolvents
    share the denominator det(I + nu G) = det(I + nu G')."""
    At, s_at = _dyadic(scheme.a_tilde)
    AtH, s_ath = _dyadic(scheme.a_tilde_hat)
    b, s_b = _dyadic(scheme.b)
    bt, s_bt = _dyadic(scheme.b_tilde)
    e, q11 = _resolvent(At.dot(AtH), b.dot(AtH))
    e22, q22 = _resolvent(AtH.dot(At), bt.dot(At))
    assert e22 == e + [0] * (len(e22) - len(e))
    # nu G = u (At AtH as integers) with u = nu / k
    k = s_at * s_ath
    D = [Fraction(c, k ** j) for j, c in enumerate(e)]
    N = D + [Fraction(0)] * (len(q22) + 1 - len(D))
    for q, scale in ((q11, s_b * s_ath), (q22, s_bt * s_at)):
        for j, c in enumerate(q):
            N[j + 1] -= Fraction(c, 2 * scale * k ** j)
    return N, D


def _at(coefficients, nu):
    out = Fraction(0)
    for c in reversed(coefficients):
        out = out * nu + c
    return out


@pytest.mark.parametrize("s1", range(2, MAX_STAGES + 1))
def test_collocation_search_is_certified_by_exact_stability_polynomials(s1):
    # the float tableau's own N and D, exactly, so a wrong search fails here
    # however the kernel rounds
    scheme = build_scheme(s1, Variant.COLLOCATION)
    report = _collocation_report(s1, 50.0)
    N, D = _exact_half_trace(scheme)
    mus = [0.3, 3.0, 31.0]
    exact = [float(_at(N, Fraction(mu) ** 2) / _at(D, Fraction(mu) ** 2)) for mu in mus]
    assert np.max(np.abs(half_trace_samples(scheme, mus) - exact)) <= 1e-13
    # every crossing lies within the search's 1e-10 of a sign change of
    # N - s D, and every tangency within its 1e-9 slack of the line s
    eps = Fraction(1, 10 ** 10)
    for r in report.resonance_points:
        if r.tangent:
            nu = Fraction(r.mu) ** 2
            assert abs(_at(N, nu)) <= (1 + Fraction(1, 10 ** 9)) * abs(_at(D, nu))
        else:
            lo, hi = ((Fraction(r.mu) + d) ** 2 for d in (-eps, eps))
            assert (_at(N, lo) - r.sign * _at(D, lo) < 0) != (_at(N, hi) - r.sign * _at(D, hi) < 0)
    # stable at each interval's midpoint, unstable midway between intervals
    for a, b in report.intervals:
        nu = Fraction(0.5 * (a + b)) ** 2
        assert abs(_at(N, nu)) <= abs(_at(D, nu))
    for (_, a), (b, _) in zip(report.intervals, report.intervals[1:]):
        nu = Fraction(0.5 * (a + b)) ** 2
        assert abs(_at(N, nu)) > abs(_at(D, nu))


def test_stability_matrix_properties():
    at = stability_matrix(LGL4, 47.0)
    assert at.half_trace == half_trace(LGL4, 47.0)
    assert abs(at.det - 1.0) <= 1e-13
    assert at.stable
    beyond = stability_matrix(LGLC2, 5.0)
    assert beyond.half_trace == half_trace(LGLC2, 5.0)
    assert abs(beyond.det - 1.0) <= 1e-13
    assert not beyond.stable


@pytest.mark.parametrize("scheme", [LGL4, LGL6], ids=["lgl4", "lgl6"])
def test_interpolation_reports_p_stable(scheme):
    report = stability_intervals(scheme, 50.0)
    assert report.p_stable
    assert len(report.intervals) == 1


def test_tangent_resonances_located():
    report = stability_intervals(LGL4, 10.0)
    tangent = [r for r in report.resonance_points if r.tangent]
    assert len(tangent) == 1
    assert abs(tangent[0].mu - 2.0 * math.sqrt(3.0)) < 1e-8
    assert tangent[0].sign == -1

    report6 = stability_intervals(LGL6, 10.0)
    mus = sorted(r.mu for r in report6.resonance_points if r.tangent)
    assert len(mus) == 2
    assert abs(mus[0] - math.sqrt(10.0)) < 1e-8
    assert abs(mus[1] - 2.0 * math.sqrt(15.0)) < 1e-8


def test_tangent_resonances_to_roundoff():
    report = stability_intervals(LGL4, 10.0)
    mus = [r.mu for r in report.resonance_points if r.tangent]
    assert len(mus) == 1 and abs(mus[0] - 2.0 * math.sqrt(3.0)) < 1e-12
    report6 = stability_intervals(LGL6, 10.0)
    mus = sorted(r.mu for r in report6.resonance_points if r.tangent)
    assert len(mus) == 2
    assert abs(mus[0] - math.sqrt(10.0)) < 1e-12
    assert abs(mus[1] - 2.0 * math.sqrt(15.0)) < 1e-12


@pytest.mark.parametrize("max_iter", [200, 10, 1, 7, 13])
def test_lockstep_bisection_matches_scalar_loop(max_iter):
    # brackets that stop on the tolerance, on an exact zero at the first
    # midpoint (targets 0 and 1/8), narrower than tol from the start, and
    # after max_iter steps when that is small.  One call evaluates up to six
    # halvings ahead, so brackets that stop on the tolerance after 1 to 13
    # halvings stop at every depth of the first calls' trees, and the
    # roots (21/64)**3 and (333/1024)**3 are exact zeros at the midpoints
    # of halvings 6 and 10.  The first ``count`` of the 20 brackets repeated
    # look six halvings ahead (16), five (20) or one (1,200): each call
    # looks as far ahead as _lookahead allows for the brackets still open,
    # and the calls are the fewest whose depths cover the halvings of the
    # longest scalar loop
    depths = np.arange(1, 14)
    all_targets = np.concatenate([[0.3, -0.7, 0.0, 0.125, 0.008, (21 / 64) ** 3,
                                   (333 / 1024) ** 3], (0.2 + 1e-12 * depths) ** 3])
    all_lo = np.concatenate([[0.0, -1.0, -0.5, 0.0, 0.2, 0.0, 0.0],
                             np.full(len(depths), 0.2)])
    all_hi = np.concatenate([[1.0, 0.0, 0.5, 1.0, 0.2 + 1e-11, 1.0, 1.0],
                             0.2 + 0.75e-10 * 2.0 ** depths])
    for count in (16, 20, 1200):
        distinct = min(count, len(all_targets))
        targets, lo, hi = (np.resize(v[:distinct], count)
                           for v in (all_targets, all_lo, all_hi))
        f_lo = lo ** 3 - targets
        calls = []

        def batched(x, idx):
            brackets = len(np.unique(idx))
            calls.append((brackets, (len(x) // brackets + 1).bit_length() - 1))
            assert len(x) == brackets * (2 ** calls[-1][1] - 1)
            return x ** 3 - targets[idx]

        roots = _bisect(batched, lo, hi, f_lo, max_iter=max_iter)
        iterations = 0
        for k in range(distinct):
            evaluated = []

            def scalar(x):
                evaluated.append(x)
                return x ** 3 - targets[k]

            expected = scalar_bisect(scalar, lo[k], hi[k], f_lo[k], max_iter=max_iter)
            assert all(r == expected for r in roots[k::distinct]), (count, k)
            iterations = max(iterations, len(evaluated))
        done = 0
        for brackets, depth in calls:
            assert depth == min(stability._lookahead(brackets), max_iter - done), count
            done += depth
        # the last call's tree may reach below the halvings taken
        assert done - calls[-1][1] < iterations <= done, count
        assert calls[0][1] == min({16: 6, 20: 5, 1200: 1}[count], max_iter)
        if count == 16:
            assert len(calls) == -(-iterations // stability._BISECT_LEVELS)


def test_lookahead_keeps_each_call_short():
    # six halvings ahead for up to 16 brackets, as many as keep the call
    # within _BISECT_POINTS midpoints beyond that, and one at the least
    assert [stability._lookahead(b) for b in (1, 16, 17, 33, 34, 100, 341, 342, 1024, 5000)] \
        == [6, 6, 5, 5, 4, 3, 2, 1, 1, 1]
    for b in range(1, 1100):
        depth = stability._lookahead(b)
        assert depth == 1 or b * (2 ** depth - 1) <= stability._BISECT_POINTS
        assert depth == 6 or b * (2 ** (depth + 1) - 1) > stability._BISECT_POINTS


def test_tangency_matrix_is_minus_identity():
    m = stability_matrix(LGL4, 2.0 * math.sqrt(3.0)).m
    assert np.max(np.abs(m + np.eye(2))) < 1e-10


def test_intervals_argument_validation():
    with pytest.raises(ValueError):
        stability_intervals(LGL4, 0.0)
    # a scan past 1e4 would hold over 10^7 samples: refused before any is taken
    for mu_max in (-1.0, math.inf, math.nan, 1e5, 1e200):
        with pytest.raises(ValueError, match="mu_max"):
            stability_intervals(LGL4, mu_max)


# ---------------------------------------------------------------------------
# modified frequency and filters
# ---------------------------------------------------------------------------

def test_modified_frequency_basics():
    assert modified_frequency(LGL4, 0.0) == 0.0
    # arccos is infinitely ill-conditioned at the tangency itself, so the
    # angle is compared away from the endpoint and through its cosine there
    mus = np.linspace(0.1, 2.0 * math.sqrt(3.0) - 1e-2, 57)
    expected = np.arccos(half_trace_order4(mus))
    assert np.max(np.abs(modified_frequency(LGL4, mus) - expected)) < 1e-12
    mu_star = 2.0 * math.sqrt(3.0)
    assert abs(math.cos(modified_frequency(LGL4, mu_star))
               - half_trace_order4(mu_star)) < 1e-14
    mus = np.array([0.5, 2.0, 10.0])
    expected = np.arccos((1.0 - mus * mus / 4.0) / (1.0 + mus * mus / 4.0))
    assert np.max(np.abs(modified_frequency(LGL2, mus) - expected)) < 1e-13


def test_modified_frequency_unstable_raises():
    with pytest.raises(NotStableError):
        modified_frequency(LGLC2, 5.0)
    # the first unstable mu of an array is named
    with pytest.raises(NotStableError, match="at mu = 5$"):
        modified_frequency(LGLC2, [1.0, 5.0, 6.0])


def test_filter_arguments():
    one = filter_functions(LGL4, 1.5)
    assert isinstance(one.mu, float) and isinstance(one.modified_mu, float)
    assert one.psi.shape == (3,)
    many = filter_functions(LGL4, [0.0, 1.5])
    assert many.mu.shape == many.modified_mu.shape == (2,)
    assert many.psi.shape == (2, 3)
    assert filter_functions(LGL4, []).psi.shape == (0, 3)
    assert isinstance(modified_frequency(LGL4, 1.5), float)
    for fn in (filter_functions, modified_frequency, stability_matrix_samples):
        with pytest.raises(ValueError, match="1-d"):
            fn(LGL4, np.ones((2, 2)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn", [stability_matrix_samples, half_trace_samples,
                                filter_functions, modified_frequency])
def test_non_finite_mu_rejected(fn):
    # NaN gave an all-NaN matrix; inf and 1e200 warned of overflow on the way
    for mus, named in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
                       ([1.0, 1e200], "1e\\+200"), ([2.0, -1e160, math.nan], "-1e\\+160")):
        with pytest.raises(ValueError, match=f"got {named}$"):
            fn(LGL4, mus)
    # the largest mu whose square is finite still passes its own checks
    fn(LGL4, [1.3e154])


@pytest.mark.parametrize("variant", list(Variant))
def test_householder_hessenberg_of_every_scheme(variant):
    from symparc.kernel import _hessenberg
    for s1 in range(2, MAX_STAGES + 1):
        scheme = build_scheme(s1, variant)
        G = scheme.a_tilde @ scheme.a_tilde_hat
        H, Q = _hessenberg(G.tobytes(), len(G))
        assert not np.tril(H, -2).any()
        assert np.max(np.abs(Q @ Q.T - np.eye(len(G)))) <= 1e-14
        assert np.max(np.abs(Q @ H @ Q.T - G)) <= 1e-14
        # reduced once per scheme
        G = build_scheme(s1, variant).a_tilde @ scheme.a_tilde_hat
        again = _hessenberg(G.tobytes(), len(G))
        assert again[0] is H and again[1] is Q


def test_nan_pivot_is_a_failure():
    from symparc.kernel import lu_factor
    _, singular = lu_factor(np.array([[2.0]]), np.array([0.25, math.nan, 1.0]))
    assert singular.tolist() == [False, True, False]
    # the first singular mu of a sample names the failure
    with pytest.raises(SingularStageSystemError, match="mu = -1$"):
        stability_matrix_samples(singular_at_one(), [0.5, -1.0, 1.0])


@pytest.mark.filterwarnings("error")
def test_stepper_and_stability_share_the_singularity_rule():
    # one ulp above mu = 1 the pivot of I + mu^2 G is -4.4e-16: singular for
    # the stability matrix as for the stepper's block at h = mu, omega^2 = 1
    mu = float(np.nextafter(1.0, 2.0))
    with pytest.raises(SingularStageSystemError, match=f"mu = {mu:.17g}$"):
        stability_matrix(singular_at_one(), mu)
    stepper = ArkStepper(singular_at_one(), SplitForceSystem(dimension=1, omega_sq=[1.0]))
    with pytest.raises(SingularStageSystemError, match=f"h={mu}, omega\\^2=1.0") as info:
        stepper.step(PhaseState(q=[1.0], p=[0.0]), mu)
    assert info.value.members == (0,)


def test_filter_singular_mu_raises():
    # det(I + mu^2 AtH At) = det(I + mu^2 At AtH) by Sylvester's identity, so
    # the kernel's pivot check sees the filters' singular points too
    with pytest.raises(SingularStageSystemError):
        filter_functions(singular_at_one(), 1.0)
    with pytest.raises(SingularStageSystemError):
        filter_functions(singular_at_one(), [0.5, -1.0])


def test_filter_closed_forms():
    mus = np.linspace(0.0, 12.0, 241)
    assert np.max(np.abs(filter_functions(LGL4, mus).psi - filters_order4(mus).T)) < 1e-12
    assert np.max(np.abs(filter_functions(LGL6, mus).psi - filters_order6(mus).T)) < 1e-12


def test_last_filter_vanishes_for_lobatto_primary():
    for scheme in ALL:
        assert np.max(np.abs(filter_functions(scheme, [0.0, 1.3, 6.0]).psi[:, -1])) < 1e-15


def test_imex_filter_consistency_at_zero():
    assert 2.0 * filter_functions(LGL2, 0.0).psi[0] == pytest.approx(1.0, abs=1e-15)


def test_filter_modified_mu_nan_when_unstable():
    out = filter_functions(LGLC2, 5.0)
    assert math.isnan(out.modified_mu)


# ---------------------------------------------------------------------------
# two-step trigonometric form
# ---------------------------------------------------------------------------

def _scalar_system(omega, slow=None):
    return SplitForceSystem(dimension=1, f1=slow, omega_sq=[omega * omega])


def test_trig_form_pure_oscillator():
    state = PhaseState(q=[0.8], p=[-0.3])
    for scheme in (LGL2, LGL4, LGL6):
        res = trig_form_step_check(scheme, _scalar_system(2.5), state, 0.4)
        assert res < 1e-12


@pytest.mark.parametrize("scheme", [LGL2, LGL4], ids=["lgl2", "lgl4"])
@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_trig_form_with_soft_force(scheme, mu):
    omega = 1.7

    def soft(q):
        return -q ** 3

    state = PhaseState(q=[0.4], p=[0.6])
    res = trig_form_step_check(scheme, _scalar_system(omega, soft), state, mu / omega)
    assert res < 1e-10


def test_trig_form_argument_checks():
    state = PhaseState(q=[0.1], p=[0.1])
    with pytest.raises(ValueError):
        trig_form_step_check(LGL2, SplitForceSystem(dimension=1), state, 0.1)
    mixed = SplitForceSystem(dimension=2, omega_sq=[1.0, 4.0])
    with pytest.raises(ValueError):
        trig_form_step_check(LGL2, mixed, PhaseState(q=[0.1, 0.1], p=[0.0, 0.0]), 0.1)
    with pytest.raises(NotStableError):
        trig_form_step_check(LGLC2, _scalar_system(50.0),
                             state, 0.1)  # mu = 5 outside [0, 4]
