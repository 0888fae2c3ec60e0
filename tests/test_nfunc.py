import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from quasihom import nfunc
from quasihom.nfunc import NFunction

from oracles import eval_shifted


def test_power_p2():
    nf = NFunction("power", 2.0)
    assert nfunc.eval(nf, 3.0) == (4.5, 3.0, 1.0)


def test_power_p5_origin():
    nf = NFunction("power", 5.0)
    assert nfunc.eval(nf, 0.0) == (0.0, 0.0, 0.0)


def test_power_array_shapes():
    nf = NFunction("power", 4.0)
    t = np.array([0.0, 0.5, 2.0])
    phi, dphi, ddphi = nfunc.eval(nf, t)
    assert phi.shape == t.shape
    assert dphi[2] == pytest.approx(8.0)
    assert ddphi[0] == 0.0


def test_negative_argument_rejected():
    nf = NFunction("power", 2.0)
    with pytest.raises(ValueError):
        nfunc.eval(nf, -1.0)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        NFunction("what", 2.0)
    with pytest.raises(ValueError):
        NFunction("power", 1.0)
    with pytest.raises(ValueError):
        NFunction("reg_c1", 3.0, eps_minus=0.0)
    with pytest.raises(ValueError):
        NFunction("reg_c1", 3.0, eps_minus=2.0, eps_plus=1.0)


@pytest.mark.parametrize("p, what", [(2.015625, "underflows"), (1.99, "overflows")])
def test_from_eps_pow_unrepresentable_eps_minus(p, what):
    # 1e-6 ** 64 underflows to 0.0 and 1e-6 ** -100 overflows
    with pytest.raises(ValueError, match=f"{what}.*p = {p}, eps_minus_pow = 1e-06"):
        NFunction.from_eps_pow("reg_c1", p, 1e-6)


def _branch_gaps(nf, t0):
    below = nfunc.eval(nf, np.nextafter(t0, 0.0))
    above = nfunc.eval(nf, np.nextafter(t0, np.inf))
    return [abs(a - b) / max(abs(a), abs(b), 1e-300) for a, b in zip(below, above)]


@pytest.mark.parametrize("p", [2.0, 5.0, 10.0])
def test_reg_c1_c0_c1_continuity(p):
    nf = NFunction.from_eps_pow("reg_c1", p, 1e-6, eps_plus=3.0)
    for t0 in (nf.eps_minus, nf.eps_plus):
        gaps = _branch_gaps(nf, t0)
        assert gaps[0] <= 1e-12
        assert gaps[1] <= 1e-12


@pytest.mark.parametrize("p", [2.0, 5.0, 10.0])
def test_reg_c2_full_continuity(p):
    nf = NFunction.from_eps_pow("reg_c2", p, 1e-6, eps_plus=3.0)
    for t0 in (nf.eps_minus, nf.eps_plus):
        gaps = _branch_gaps(nf, t0)
        assert gaps[0] <= 1e-12
        assert gaps[1] <= 1e-12
        assert gaps[2] <= 1e-12


def test_reg_c1_second_derivative_floor():
    p = 10.0
    nf = NFunction.from_eps_pow("reg_c1", p, 1e-6)
    ts = np.linspace(0.0, nf.eps_minus, 10)
    dd = nfunc.eval(nf, ts)[2]
    assert np.allclose(dd, 1e-6, rtol=1e-12)


def test_second_derivative_bounded_and_positive():
    for kind in ("reg_c1", "reg_c2"):
        nf = NFunction.from_eps_pow(kind, 6.0, 1e-6, eps_plus=4.0)
        ts = np.concatenate([[0.0], np.logspace(-8, 2, 300)])
        dd = nfunc.eval(nf, ts)[2]
        assert np.all(dd > 0)
        assert np.all(dd <= nfunc.eval(nf, nf.eps_plus)[2] * (1 + 1e-12))


def test_second_derivative_nondecreasing_up_to_eps_plus():
    for kind in ("power", "reg_c1", "reg_c2"):
        if kind == "power":
            nf = NFunction("power", 5.0)
            hi = 100.0
        else:
            nf = NFunction.from_eps_pow(kind, 5.0, 1e-6, eps_plus=7.0)
            hi = nf.eps_plus
        ts = np.concatenate([[0.0], np.logspace(-9, np.log10(hi), 400)])
        dd = nfunc.eval(nf, ts)[2]
        assert np.all(np.diff(dd) >= -1e-13 * np.abs(dd[:-1]))


def test_secant_values():
    assert nfunc.eval_secant(NFunction("power", 2.0), 0.0) == 1.0
    assert nfunc.eval_secant(NFunction("power", 5.0), 2.0) == pytest.approx(8.0)
    assert nfunc.eval_secant(NFunction("power", 5.0), 0.0) == 0.0
    p = 10.0
    nf = NFunction.from_eps_pow("reg_c1", p, 1e-6)
    assert nfunc.eval_secant(nf, 0.0) == pytest.approx(nf.eps_minus ** (p - 2), rel=1e-12)
    # matches phi'(t)/t for positive t
    t = np.logspace(-6, 1, 50)
    sec = nfunc.eval_secant(nf, t)
    dphi = nfunc.eval(nf, t)[1]
    assert np.allclose(sec, dphi / t, rtol=1e-13)


def test_growth_ratios_power():
    p = 4.0
    nf = NFunction("power", p)
    for t in (0.1, 1.0, 7.3):
        phi, dphi, ddphi = nfunc.eval(nf, t)
        assert phi * 2 ** p == pytest.approx(nfunc.eval(nf, 2 * t)[0], rel=1e-13)
        assert t * dphi / phi == pytest.approx(p, rel=1e-13)
        assert t * t * ddphi / phi == pytest.approx(p * (p - 1), rel=1e-13)


def test_reg_converges_to_power():
    p = 5.0
    nf_pow = NFunction("power", p)
    prev = None
    for eps_pow in (1e-2, 1e-4, 1e-6):
        nf = NFunction.from_eps_pow("reg_c1", p, eps_pow)
        ts = np.linspace(nf.eps_minus, 10.0, 50)
        gap = np.max(np.abs(nfunc.eval(nf, ts)[0] - nfunc.eval(nf_pow, ts)[0]))
        # identical above eps_minus (eps_plus = inf) up to breakpoint rounding
        assert gap <= 1e-15 * nfunc.eval(nf_pow, 10.0)[0]
        below = np.linspace(0.0, nf.eps_minus, 20)
        gap_b = np.max(np.abs(nfunc.eval(nf, below)[0] - nfunc.eval(nf_pow, below)[0]))
        assert gap_b <= 0.5 * nf.eps_minus ** p
        if prev is not None:
            assert gap_b < prev
        prev = gap_b


def _simpson(f, a, b, n=2000):
    xs = np.linspace(a, b, 2 * n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / (2 * n)
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())


def test_shifted_zero_shift_exact():
    nf = NFunction("power", 3.0)
    phi_a, dphi_a = eval_shifted(nf, 0.0, 1.7)
    phi, dphi, _ = nfunc.eval(nf, 1.7)
    assert phi_a == phi
    assert dphi_a == dphi


def test_shifted_p2_is_quadratic():
    nf = NFunction("power", 2.0)
    for a in (0.0, 0.5, 2.0):
        phi_a, dphi_a = eval_shifted(nf, a, 1.2)
        assert dphi_a == pytest.approx(1.2, rel=1e-12)
        assert phi_a == pytest.approx(1.2 ** 2 / 2, rel=1e-9)


def test_shifted_p4_against_simpson():
    nf = NFunction("power", 4.0)
    a, t = 1.0, 0.5
    phi_a, dphi_a = eval_shifted(nf, a, t)
    assert dphi_a == pytest.approx(0.5, rel=1e-12)

    def integrand(s):
        m = max(a, s)
        return s * nfunc.eval(nf, m)[1] / m

    oracle = _simpson(integrand, 0.0, t)
    assert phi_a == pytest.approx(oracle, rel=1e-9)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


exponents = st.floats(1.5, 10.0)
n_functions = st.one_of(
    st.builds(NFunction, st.just("power"), exponents),
    st.builds(
        lambda kind, p, em, ratio: NFunction(kind, p, em, em * ratio),
        st.sampled_from(["reg_c1", "reg_c2"]), exponents, _log_uniform(-3, 0),
        st.one_of(st.just(math.inf), _log_uniform(0.3, 2)),
    ),
)


def _central_difference_matches(f, t, h, d):
    """(f(t+h) - f(t-h)) / 2h against d, up to truncation and the rounding
    of f itself (the regularized phi carries an offset of size eps_minus^p)."""
    above, below = f(t + h), f(t - h)
    fd = (above - below) / (2.0 * h)
    noise = 1e-13 * max(abs(above), abs(below)) / h
    return abs(fd - d) <= 1e-6 * abs(d) + noise


@given(nf=n_functions, t=_log_uniform(-4, 3))
def test_derivatives_match_central_differences(nf, t):
    h = 1e-6 * t
    for bp in (nf.eps_minus, nf.eps_plus):
        assume(nf.kind == "power" or abs(t - bp) > 10.0 * h)
    phi, dphi, ddphi = nfunc.eval(nf, t)
    assert _central_difference_matches(lambda s: nfunc.eval(nf, s)[0], t, h, dphi)
    assert _central_difference_matches(lambda s: nfunc.eval(nf, s)[1], t, h, ddphi)


@given(nf=n_functions, t=_log_uniform(-4, 3))
def test_secant_times_t_is_first_derivative(nf, t):
    dphi = nfunc.eval(nf, t)[1]
    assert nfunc.eval_secant(nf, t) * t == pytest.approx(dphi, rel=1e-14)


@given(nf=n_functions, t=_log_uniform(-4, 3))
def test_values_and_derivatives_nonnegative(nf, t):
    phi, dphi, ddphi = nfunc.eval(nf, t)
    assert dphi >= 0.0
    assert ddphi >= 0.0
    # phi equals t^p / p from eps_minus up, so for p > 2 the regularized
    # kinds dip below 0 near the origin: phi(0) = (1/p - 1/2) eps_minus^p
    # (reg_c1); phi is still nondecreasing from phi(0)
    assert phi >= nfunc.eval(nf, 0.0)[0]
    if nf.kind == "power" or nf.p <= 2.0 or t >= nf.eps_minus:
        assert phi >= 0.0


@given(p=exponents.filter(lambda p: p != 2.0), log_pow=st.floats(-300.0, 300.0))
def test_from_eps_pow_raises_where_eps_minus_unrepresentable(p, log_pow):
    log_em = log_pow / (p - 2.0)       # log10 of eps_minus
    assume(not -330.0 <= log_em <= -300.0 and not 300.0 <= log_em <= 310.0)
    if -300.0 < log_em < 300.0:
        nf = NFunction.from_eps_pow("reg_c1", p, 10.0 ** log_pow)
        assert 0.0 < nf.eps_minus < math.inf
    else:
        what = "underflows" if log_em < 0 else "overflows"
        with pytest.raises(ValueError, match=what):
            NFunction.from_eps_pow("reg_c1", p, 10.0 ** log_pow)
