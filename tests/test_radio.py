import math

import numpy as np
import pytest

from conftest import (_interference_oracle_grid, interference_factor_oracle,
                      interferer_positions)
from mobicell.geometry import CellLayout, PolarPoint
from mobicell.radio import (RadioParams, interference_factor, inverse_interference_factor,
                            macro_associated, omega, psi, shannon_rate, sinr_macro,
                            sinr_small)

TABLE = dict(pathloss_exp_macro=3.76, pathloss_exp_small=3.67, bandwidth_mhz=20.0,
             k1=0.85, k2=1.9, eta0_mbps=98.0)


@pytest.fixture
def params():
    return RadioParams.from_link_budget(**TABLE)


@pytest.fixture
def layout():
    return CellLayout(delta=1.0, rings_for_oracle=30)


def test_link_budget_folding(params):
    # 46 + 18 - 2 - 151 = -89 dBm effective macro power at 1 Km
    assert params.P == pytest.approx(10 ** (-8.9), rel=1e-12)
    # kappa = 10^((30+6-148) - (46+18-151))/10 = 10^-2.5
    assert params.kappa == pytest.approx(10 ** (-2.5), rel=1e-12)
    assert params.b_macro == pytest.approx(1.88)
    assert params.b_small == pytest.approx(1.835)


def test_omega_product_frozen_value():
    # frozen from the 30-digit evaluation of 3^-b zeta(b) (zeta(b,1/3)-zeta(b,2/3))
    assert omega(1.88) == pytest.approx(1.3561428674507003, abs=1e-9)
    assert omega(2.0) == pytest.approx(1.2851909554841493, abs=1e-9)


def test_omega_variant_arbitration():
    """The lattice sum decides between the two published spellings: one sixth
    of sum_sites (|site|/delta)^-2b must match omega. Only the product form
    does; the sum form is ~27% off."""
    layout = CellLayout(delta=1.0, rings_for_oracle=60)
    for b in (1.88, 1.835, 2.0):
        b2 = 2.0 * b
        lattice = sum(s.r ** (-b2) for s in interferer_positions(layout)) / 6.0
        # ring tail of the 60-ring truncation decays like ring^(1-2b)
        tail = 6.0 * 60 ** (2.0 - b2) / (b2 - 2.0) / 6.0
        assert omega(b, "product") == pytest.approx(lattice, abs=3 * tail)
        assert abs(omega(b, "sum") - lattice) > 50 * tail


def test_omega_near_pole_finite():
    v = omega(1.001)
    assert math.isfinite(v) and v > 0


def test_omega_rejects_divergent():
    with pytest.raises(ValueError):
        omega(1.0)
    with pytest.raises(ValueError):
        omega(1.88, "typo")


def test_g_zero_at_origin(params, layout):
    assert interference_factor(0.0, params, layout) == 0.0


def test_g_strictly_increasing(params, layout):
    r = np.linspace(0.0, layout.R, 300)
    g = interference_factor(r, params, layout)
    assert np.all(np.diff(g) > 0)


def test_g_zero_when_no_interference_and_no_noise(layout):
    p = RadioParams.from_link_budget(**TABLE, alpha_load=0.0)
    p = RadioParams(**{**p.__dict__, "P_N": 0.0})
    r = np.linspace(0.0, layout.R, 50)
    assert np.allclose(interference_factor(r, p, layout), 0.0)


def test_g_domain(params, layout):
    with pytest.raises(ValueError):
        interference_factor(layout.R * 1.01, params, layout)
    with pytest.raises(ValueError):
        interference_factor(-0.1, params, layout)


def test_g_vs_lattice_oracle_within_ten_percent(params, layout):
    """Closed form against the azimuth-averaged 30-ring lattice sum with the
    reference parameters; the closed form is a fluid approximation so the
    agreement bar is 10% relative."""
    r = np.linspace(0.1 * layout.R, 0.95 * layout.R, 18)
    oracle = _interference_oracle_grid(r, params, layout, n_azimuths=360)
    closed = interference_factor(r, params, layout)
    rel = np.abs(closed - oracle) / oracle
    assert np.max(rel) <= 0.10


def test_point_oracle_properties(params, layout):
    # alpha=0 and no noise -> zero interference
    p0 = RadioParams(**{**params.__dict__, "alpha": 0.0, "P_N": 0.0})
    pt = PolarPoint.from_polar(0.3, 0.7)
    assert interference_factor_oracle(pt, p0, layout) == 0.0
    # strictly increasing along a fixed azimuth
    vals = [interference_factor_oracle(PolarPoint.from_polar(r, 0.4), params, layout)
            for r in np.linspace(0.05, layout.R, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        interference_factor_oracle(PolarPoint(0.0, 0.0), params, layout)


def test_point_oracle_ring_convergence(params):
    """Doubling the ring count moves the lattice sum by well under 1% when
    2b = 3.76 (tail decays like ring^(1-2b))."""
    pt = PolarPoint.from_polar(0.4, 1.1)
    g30 = interference_factor_oracle(pt, params, CellLayout(1.0, rings_for_oracle=30))
    g60 = interference_factor_oracle(pt, params, CellLayout(1.0, rings_for_oracle=60))
    assert abs(g60 - g30) / g30 < 0.01


def test_inverse_interference_factor(params, layout):
    assert inverse_interference_factor(0.0, params, layout) == 0.0
    g_r = interference_factor(layout.R, params, layout)
    assert inverse_interference_factor(2.0 * g_r, params, layout) == layout.R
    # round trip over the interior of the range
    y = np.geomspace(1e-6, g_r * 0.999, 60)
    r = inverse_interference_factor(y, params, layout)
    back = interference_factor(r, params, layout)
    assert np.max(np.abs(back - y) / y) < 1e-7
    with pytest.raises(ValueError):
        inverse_interference_factor(-1e-9, params, layout)


def test_sinr_macro_reduces_to_inverse_g_when_silent(params, layout):
    p0 = RadioParams(**{**params.__dict__, "kappa": 0.0})
    Ls = PolarPoint.from_polar(0.3, 0.0)
    for r in (0.1, 0.25, 0.4, 0.5):
        m = PolarPoint.from_polar(r, 1.0)
        assert sinr_macro(m, Ls, p0, layout) == 1.0 / interference_factor(m.r, p0, layout)


def test_sinr_macro_limits(params, layout):
    Ls = PolarPoint.from_polar(0.3, 0.0)
    assert sinr_macro(PolarPoint(0.0, 0.0), Ls, params, layout) == math.inf
    # coincident with the transmitting small cell: zero SINR, not an error
    assert sinr_macro(Ls, Ls, params, layout) == 0.0


def test_sinr_macro_equidistant_equal_power(layout):
    p = RadioParams.from_link_budget(**{**TABLE, "pathloss_exp_small": 3.76})
    p = RadioParams(**{**p.__dict__, "kappa": 1.0})
    r = 0.35
    m = PolarPoint.from_polar(r, 0.0)
    Ls = PolarPoint.from_polar(r, 2.0 * math.asin(0.5))  # |m - Ls| = r exactly
    g = interference_factor(m.r, p, layout)
    assert sinr_macro(m, Ls, p, layout) == pytest.approx(1.0 / (g + 1.0), rel=1e-9)
    assert sinr_small(m, Ls, p, layout) == pytest.approx(1.0 / (g + 1.0), rel=1e-9)


def test_sinr_small_limits_and_ordering(params, layout):
    Ls = PolarPoint.from_polar(0.45, 0.6)
    assert sinr_small(Ls, Ls, params, layout) == math.inf
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = PolarPoint(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)))
        with_macro = sinr_small(m, Ls, params, layout, include_central_macro=True)
        without = sinr_small(m, Ls, params, layout, include_central_macro=False)
        assert without >= with_macro


def test_association_rule(params):
    Ls = PolarPoint.from_polar(0.45, 0.6)
    assert macro_associated(PolarPoint(0.0, 0.0), Ls, params)       # macro power infinite
    assert not macro_associated(Ls, Ls, params)                     # on the small cell
    p0 = RadioParams(**{**params.__dict__, "kappa": 0.0})
    assert macro_associated(Ls, Ls, p0)                             # silent small cell


def test_shannon_rate(params):
    assert shannon_rate(math.inf, params) == 98.0
    assert shannon_rate(0.0, params) == 0.0
    # 0.85 * 20 * ln(1 + 1.9) with the reference constants
    assert shannon_rate(1.0, params) == pytest.approx(18.100082528871278, rel=1e-12)
    with pytest.raises(ValueError):
        shannon_rate(-0.1, params)
    g = np.geomspace(1e-3, 1e6, 50)
    rates = shannon_rate(g, params)
    assert np.all(np.diff(rates) >= 0)
    assert np.all(rates <= params.eta0)


def test_psi(params):
    l_unit = params.K1 * params.W * math.log(1.0 + params.K2)
    assert psi(l_unit, params) == pytest.approx(1.0, abs=1e-12)
    assert psi(1e9, params) < 1e-300 or psi(1e9, params) == 0.0
    with pytest.raises(ValueError):
        psi(0.0, params)


def test_psi_inverts_shannon(params):
    rng = np.random.default_rng(5)
    for _ in range(100):
        l = float(rng.uniform(0.01, params.eta0 * 0.999))
        gamma = 1.0 / psi(l, params)
        assert shannon_rate(gamma, params) == pytest.approx(l, rel=1e-9)


def test_params_validation():
    with pytest.raises(ValueError):
        RadioParams.from_link_budget(**{**TABLE, "pathloss_exp_macro": 1.5})  # b <= 1
    good = RadioParams.from_link_budget(**TABLE)
    with pytest.raises(ValueError):
        RadioParams(**{**good.__dict__, "kappa": 1.5})
    with pytest.raises(ValueError):
        RadioParams(**{**good.__dict__, "alpha": -0.1})
