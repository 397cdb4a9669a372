import dataclasses
import math
import pickle

import numpy as np
import pytest

from knappflow._kernels import MULT_SERIES_THRESHOLD, mult_values
from knappflow.errors import InvalidParameterError
from knappflow.symbols import (
    SIGN_TRIPLES,
    SIGNS_ARRAY,
    SignTriple,
    duhamel_multiplier,
    duhamel_multiplier_oracle,
    omega_all,
)


def test_sign_triple_enumeration():
    assert len(SIGN_TRIPLES) == 8
    assert len(set(SIGN_TRIPLES)) == 8
    assert SIGN_TRIPLES[0] == SignTriple(1, 1, 1)
    assert SIGN_TRIPLES[-1] == SignTriple(-1, -1, -1)
    assert str(SIGN_TRIPLES[3]) == "+--"
    assert SignTriple.from_string("+,+,-") == SignTriple(1, 1, -1)
    assert SignTriple.from_string("-+-") == SignTriple(-1, 1, -1)
    with pytest.raises(InvalidParameterError):
        SignTriple.from_string("++")
    with pytest.raises(InvalidParameterError):
        SignTriple(1, 0, 1)


def test_sign_triple_hash_keeps_fields_and_equality():
    s = SignTriple(1, -1, 1)
    assert hash(s) == hash((1, -1, 1)) == hash(SIGN_TRIPLES[2])
    assert [f.name for f in dataclasses.fields(SignTriple)] == ["s1", "s2", "s3"]
    assert dataclasses.astuple(s) == (1, -1, 1)
    assert repr(s) == "SignTriple(s1=1, s2=-1, s3=1)"
    assert s == SIGN_TRIPLES[2] and s != SignTriple(1, 1, 1)
    assert {t: i for i, t in enumerate(SIGN_TRIPLES)}[s] == 2
    copy = pickle.loads(pickle.dumps(s))
    assert copy == s and hash(copy) == hash(s)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.s1 = -1


def omega_formula(xi, eta, s):
    """s1 |xi| - s2 |xi - eta| - s3 |eta|, written out per triple."""
    nx = math.sqrt(float(xi @ xi))
    nd = math.sqrt(float((xi - eta) @ (xi - eta)))
    ne = math.sqrt(float(eta @ eta))
    return s.s1 * nx - s.s2 * nd - s.s3 * ne


def test_omega_examples():
    xi = np.array([3.0, 0.0, 4.0])
    assert omega_all(xi, xi)[SIGN_TRIPLES.index(SignTriple(1, 1, 1))] == 0.0
    val = omega_all(xi, np.array([1.0, 1.0, 1.0]))[SIGN_TRIPLES.index(SignTriple(1, -1, -1))]
    assert val >= np.linalg.norm(xi)


def test_omega_antisymmetry_exact():
    # s1*a - s2*b - s3*c flips sign exactly in floating point
    rng = np.random.default_rng(3)
    flipped = [SIGN_TRIPLES.index(SignTriple(-s.s1, -s.s2, -s.s3)) for s in SIGN_TRIPLES]
    for _ in range(200):
        xi = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4)
        eta = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4)
        oms = omega_all(xi, eta)
        assert np.all(oms == -oms[flipped])


def test_signs_array_is_mirrored():
    # term_sums evaluates the multiplier for rows 0-3 (s1 = +1) only and
    # takes row 7 - j as the conjugate of row j
    assert [tuple(row) for row in SIGNS_ARRAY] == [(s.s1, s.s2, s.s3) for s in SIGN_TRIPLES]
    for j in range(8):
        assert np.all(SIGNS_ARRAY[7 - j] == -SIGNS_ARRAY[j])
    assert np.all(SIGNS_ARRAY[:4, 0] == 1.0)


def test_omega_all_matches_scalar():
    rng = np.random.default_rng(4)
    xi, eta = rng.normal(size=3), rng.normal(size=3)
    oms = omega_all(xi, eta)
    for s, om in zip(SIGN_TRIPLES, oms):
        assert om == omega_formula(xi, eta, s)


def test_multiplier_at_zero_and_branch():
    assert duhamel_multiplier(0.7, 0.0).value == 0.7
    with pytest.raises(InvalidParameterError):
        duhamel_multiplier(-1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        duhamel_multiplier(1.0, math.inf)
    # t * omega overflows: "math domain error" from math.sin(inf) before
    with pytest.raises(InvalidParameterError, match="t \\* omega must be finite"):
        duhamel_multiplier(1e308, 10.0)


def test_multiplier_at_pi():
    # t*omega = pi: (exp(i pi) - 1)/(i omega) = 2i/omega
    t, om = 0.5, 2.0 * math.pi
    mv = duhamel_multiplier(t, om)
    assert mv.value == pytest.approx(2j / om, rel=1e-14)


def test_multiplier_modulus_bound():
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        t = float(rng.uniform(0.0, 2.0))
        om = float(rng.normal() * 10.0 ** rng.integers(-8, 6))
        m = duhamel_multiplier(t, om).value
        bound = t if om == 0.0 else min(t, 2.0 / abs(om))
        assert abs(m) <= bound * (1.0 + 1e-12)


def test_multiplier_first_order_bound():
    # |m - t| <= t^2 |omega| / 2, with an ulp of slack at tiny t*omega
    rng = np.random.default_rng(13)
    for _ in range(5000):
        t = float(rng.uniform(0.0, 1.0))
        om = float(rng.normal() * 10.0 ** rng.integers(-10, 3))
        m = duhamel_multiplier(t, om).value
        assert abs(m - t) <= 0.5 * t * t * abs(om) + 1e-14 * t


def test_multiplier_conjugate_symmetry():
    rng = np.random.default_rng(14)
    for _ in range(2000):
        t = float(rng.uniform(0.0, 1.0))
        om = float(rng.normal() * 10.0 ** rng.integers(-8, 5))
        a = duhamel_multiplier(t, om).value
        b = duhamel_multiplier(t, -om).value
        assert b == np.conj(a)


def test_branch_continuity_at_threshold():
    # both branches agree to ~1e-15 across [theta/2, 2 theta]
    t = 0.37
    worst = 0.0
    for x in np.linspace(MULT_SERIES_THRESHOLD / 2, 2 * MULT_SERIES_THRESHOLD, 2001):
        om = x / t
        z = 1j * x
        series = t * (1 + z * (1 / 2 + z * (1 / 6 + z * (1 / 24 + z * (1 / 120 + z / 720)))))
        exact = (2.0 * math.sin(0.5 * x) / om) * complex(math.cos(0.5 * x), math.sin(0.5 * x))
        worst = max(worst, abs(series - exact) / abs(exact))
    assert worst <= 1e-10


def test_mult_values_matches_scalar():
    rng = np.random.default_rng(15)
    t = 0.42
    oms = np.concatenate([rng.normal(size=100) * 50.0, rng.normal(size=100) * 1e-6])
    vec = mult_values(t, oms)
    for om, v in zip(oms, vec):
        assert v == duhamel_multiplier(t, float(om)).value


def _two_branch_mult(t, om):
    """Both branches on every element, then the threshold picks one."""
    x = t * om
    small = np.abs(x) < MULT_SERIES_THRESHOLD
    z = 1j * x
    with np.errstate(all="ignore"):  # the series overflows where it is not picked
        series = t * (
            1.0 + z * (1 / 2 + z * (1 / 6 + z * (1 / 24 + z * (1 / 120 + z * (1 / 720)))))
        )
    om_safe = np.where(small, 1.0, om)
    half = 0.5 * x
    s = np.sin(half)
    c = np.cos(half)
    exact = (2.0 * s / om_safe) * (c + 1j * s)
    return np.where(small, series, exact)


def test_mult_values_equals_two_branch_formula():
    # t = 0.5 keeps t * omega exact, so the threshold itself is hit
    t = 0.5
    theta = MULT_SERIES_THRESHOLD
    edges = [theta, -theta, np.nextafter(theta, 0.0), -np.nextafter(theta, 0.0), 0.0, -0.0]
    rng = np.random.default_rng(17)
    mixed = rng.normal(size=500) * 10.0 ** rng.integers(-9, 13, size=500)
    oms = np.concatenate([np.array(edges) / t, mixed, [1e300, -1e300, 5e-324, -5e-324]])
    rng.shuffle(oms)
    for shape in (oms.shape, (2, 5, -1)):
        om = oms.reshape(shape)
        got, want = mult_values(t, om), _two_branch_mult(t, om)
        assert got.shape == want.shape
        assert np.all(got == want)
    assert np.all(mult_values(t, np.array(edges[:2]) / t) == [
        duhamel_multiplier(t, e / t).value for e in edges[:2]
    ])


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


@pytest.mark.parametrize("t", [0.5, 0.37, 1e-3])
def test_mult_values_is_conjugate_symmetric_bit_for_bit(t):
    # m(t, -omega) = conj m(t, omega): term_sums takes the s1 = -1 triples
    # from it, so it must hold in every bit, signed zeros included
    theta = MULT_SERIES_THRESHOLD / t
    edges = [0.0, 6e-15, theta, np.nextafter(theta, 0.0), np.nextafter(theta, np.inf)]
    rng = np.random.default_rng(18)
    mixed = rng.normal(size=2000) * 10.0 ** rng.integers(-12, 6, size=2000)
    oms = np.concatenate([edges, np.negative(edges), mixed])
    x = np.abs(t * oms)
    assert (x < MULT_SERIES_THRESHOLD).any() and (x >= MULT_SERIES_THRESHOLD).any()
    assert np.all(_bits(mult_values(t, -oms)) == _bits(np.conj(mult_values(t, oms))))
    # omega = +0 and -0 give the real t and its conjugate
    assert np.all(_bits(mult_values(t, np.array([0.0, -0.0]))) == _bits(
        np.array([complex(t, 0.0), complex(t, -0.0)])
    ))


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_branch_has_the_complex_products_bits(seed):
    # mult_values forms the closed-form branch as the real products
    # a * cos and a * sin, a = 2 sin(x/2) / omega: the bits of the complex
    # product a * (cos + 1j * sin), sign bits included, over the domain
    # the lattice pass admits (|t omega| from 1e-4 to 1e6, |omega| up to
    # 1e155, both signs), for one t and for a t per element
    rng = np.random.default_rng(40 + seed)
    n = 4000
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    x = 10.0 ** rng.uniform(-4.0, 6.0, n)
    om = sign * 10.0 ** rng.uniform(-6.0, 155.0, n)
    t0 = 10.0 ** rng.uniform(-9.0, 0.0)
    for t, om in ((x / np.abs(om), om), (t0, sign * x / t0)):
        tx = t * om
        half = 0.5 * tx
        s = np.sin(half)
        want = (2.0 * s / om) * (np.cos(half) + 1j * s)
        got = mult_values(t, om)
        big = np.abs(tx) >= MULT_SERIES_THRESHOLD
        assert big.mean() > 0.99
        assert np.all(_bits(got[big]) == _bits(want[big]))
        assert np.all(_bits(mult_values(t, -om)) == _bits(np.conj(got)))


def test_oracle_constant_integrand():
    assert duhamel_multiplier_oracle(1.0, 0.0, 8) == pytest.approx(1.0, rel=1e-15)


def test_oracle_agreement():
    rng = np.random.default_rng(16)
    for _ in range(200):
        t = float(rng.uniform(0.01, 1.0))
        x = float(rng.uniform(-10.0, 10.0))
        om = x / t
        m = duhamel_multiplier(t, om).value
        o = duhamel_multiplier_oracle(t, om, 2048)
        assert abs(m - o) <= 1e-9 * t


def _complex_simpson(t, om, n_steps):
    # the composite-Simpson sum as one complex dot: every node's
    # exponential taken directly, weights 1, 4, 2, ..., 4, 1
    tau = np.linspace(0.0, t, 2 * n_steps + 1)
    w = np.ones(2 * n_steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex((t / (2 * n_steps) / 3.0) * (w @ np.exp(1j * om * tau)))


def _oracle_pairs(seed, n):
    rng = np.random.default_rng(seed)
    ts = 1.0 - rng.random(n)
    xs = rng.uniform(-100.0, 100.0, n)
    return [(float(t), float(x / t)) for t, x in zip(ts, xs)]


@pytest.mark.parametrize("n_steps", [8, 64, 4096])
def test_oracle_equals_the_complex_exponential_sum(n_steps):
    # even nodes by cos/sin and odd nodes by one angle addition give the
    # same Simpson sum to rounding; at n = 8 and |t omega| = 100 Simpson's
    # own error is of order t, so a different rule would fail
    pairs = _oracle_pairs(21, 300) + [(0.7, 0.0), (0.7, 1e-300), (0.7, -1e-300)]
    for t, om in pairs:
        got = duhamel_multiplier_oracle(t, om, n_steps)
        assert abs(got - _complex_simpson(t, om, n_steps)) <= 1e-14 * t, (t, om)


def test_oracle_against_a_30_digit_simpson_sum():
    mpmath = pytest.importorskip("mpmath")

    def simpson_mp(t, om, n_steps):
        with mpmath.workdps(30):
            h = mpmath.mpf(t) / (2 * n_steps)
            om_mp = mpmath.mpf(om)
            total = mpmath.mpc(0)
            for k in range(2 * n_steps + 1):
                w = 1 if k in (0, 2 * n_steps) else 4 if k % 2 else 2
                total += w * mpmath.expj(om_mp * (k * h))
            return complex(total * h / 3)

    pairs = _oracle_pairs(22, 20)
    for n_steps, subset in ((8, pairs), (64, pairs), (4096, pairs[:2])):
        for t, om in subset:
            got = duhamel_multiplier_oracle(t, om, n_steps)
            assert abs(got - simpson_mp(t, om, n_steps)) <= 1e-14 * t, (n_steps, t, om)


def test_oracle_fourth_order_convergence():
    t, om = 1.0, 40.0
    exact = duhamel_multiplier(t, om).value
    e1 = abs(duhamel_multiplier_oracle(t, om, 64) - exact)
    e2 = abs(duhamel_multiplier_oracle(t, om, 128) - exact)
    assert e1 / e2 == pytest.approx(16.0, rel=0.05)
    with pytest.raises(InvalidParameterError):
        duhamel_multiplier_oracle(1.0, 1.0, 4)
    with pytest.raises(InvalidParameterError):
        duhamel_multiplier_oracle(-1.0, 1.0, 16)


@pytest.mark.parametrize(
    "t, om, n_steps",
    [
        (1.0, math.inf, 64),
        (1.0, -math.inf, 64),
        (math.inf, 1.0, 64),
        (math.nan, 1.0, 64),
        (1.0, math.nan, 64),
        (1.0, 1.0, 8.5),
        (1.0, 1.0, math.inf),
        (1.0, 1.0, math.nan),
        pytest.param(1.0, 1.0, 10**400, id="1.0-1.0-10**400"),
        pytest.param(1.0, 1.0, 10**5000, id="1.0-1.0-10**5000"),
        (1e308, 10.0, 64),
    ],
)
def test_oracle_rejects_non_finite_pairs_and_fractional_steps(t, om, n_steps):
    # as duhamel_multiplier does for t and omega; a step count a float
    # cannot hold used to raise OverflowError, and a t * omega that
    # overflows to returning nan with a RuntimeWarning
    with pytest.raises(InvalidParameterError):
        duhamel_multiplier_oracle(t, om, n_steps)


def test_oracle_takes_a_whole_float_step_count():
    assert duhamel_multiplier_oracle(0.7, 3.0, 8.0) == duhamel_multiplier_oracle(0.7, 3.0, 8)

