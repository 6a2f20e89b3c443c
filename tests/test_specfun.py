"""Special functions the package and its test references rely on.

Only the solver (`forward`) evaluates a Bessel function: J0 and Y0 from
`scipy.special`, its Hankel kernel.  The predictors sum plane waves, and the
closed forms in `tests/paper.py` that they are checked against use scipy's
J0, J1 and J_s.  These tests hold those values to independent references (an
ascending series, mpmath, the three-term recurrence).  The series constructs
built on them, `jacobi_anger` and `lambda_envelope`, are test references in
`tests/paper.py`.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0, j1, jv

from crackdsm.errors import DomainError
from paper import jacobi_anger, lambda_envelope


def _series_oracle_j0(x):
    """Independent ascending-series J0, summed to machine convergence."""
    total, term = 1.0, 1.0
    for j in range(1, 300):
        term *= -(x / 2.0) ** 2 / j**2
        total += term
        if abs(term) < 1e-20:
            break
    return total


def test_j0_at_zero():
    assert j0(0.0) == 1.0


def test_j1_at_zero():
    assert j1(0.0) == 0.0


def test_first_j0_zero_bisected_from_series_oracle():
    # bisect the series oracle, then check J0 vanishes there
    lo, hi = 2.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _series_oracle_j0(lo) * _series_oracle_j0(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(2.404825557695773, abs=1e-12)
    assert j0(root) == pytest.approx(0.0, abs=1e-10)


def test_j2_at_one_matches_series():
    # direct summation of sum (-1)^j (x/2)^{2j+2} / (j! (j+2)!)
    assert jv(2, 1.0) == pytest.approx(0.11490348493190047, abs=1e-14)


@pytest.mark.parametrize("order", [0, 1, 2, 7, 20, 45, 64])
@pytest.mark.parametrize("x", [0.0, 0.3, 2.7, 11.9, 12.1, 25.0, 63.2, 100.0, -14.6])
def test_against_mpmath(order, x):
    assert jv(order, x) == pytest.approx(float(mp.besselj(order, x)), abs=1e-12)


def test_known_suprema():
    x = np.linspace(0.0, 100.0, 20001)
    assert np.max(np.abs(j0(x))) <= 1.0 + 1e-12
    assert np.max(np.abs(j1(x))) <= 0.6


@given(s=st.integers(min_value=1, max_value=20),
       x=st.floats(min_value=0.5, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_three_term_recurrence(s, x):
    lhs = jv(s - 1, x) + jv(s + 1, x)
    rhs = 2.0 * s / x * jv(s, x)
    assert abs(lhs - rhs) < 1e-9


def test_jacobi_anger_trivial_cases():
    assert jacobi_anger(0.0, 1.234, 1) == pytest.approx(1.0 + 0.0j)
    assert jacobi_anger(3.0, 0.0, 30) == pytest.approx(complex(mp.exp(3j)), abs=1e-10)
    assert jacobi_anger(3.0, math.pi / 2, 30) == pytest.approx(1.0 + 0.0j, abs=1e-10)


def test_jacobi_anger_truncation_rule_converges():
    # the rule ceil(z) + 25 holds to 1e-10 up to z = 20 (criterion 02) and to
    # 1e-7 up to z = 64, where the series needs orders up to 89
    phis = np.linspace(0.0, 2 * math.pi, 17)
    for z in np.linspace(0.25, 64.0, 80):
        terms = math.ceil(z) + 25
        bound = 1e-10 if z <= 20.0 else 1e-7
        for phi in phis:
            got = jacobi_anger(z, phi, terms)
            assert abs(got - np.exp(1j * z * math.cos(phi))) < bound, (z, phi)


def test_jacobi_anger_rejects_bad_truncation():
    with pytest.raises(DomainError):
        jacobi_anger(1.0, 0.0, 0)
    with pytest.raises(DomainError):
        jacobi_anger(math.nan, 0.0, 30)


def test_lambda_envelope_values():
    assert lambda_envelope(0.0) == 1.0
    j01 = 2.404825557695773
    assert float(lambda_envelope(j01)) == pytest.approx(jv(1, j01) ** 2, abs=1e-14)
    assert float(lambda_envelope(j01)) == pytest.approx(0.26951412394191687, abs=1e-12)


def test_lambda_envelope_monotone_decreasing():
    x = np.linspace(0.0, 50.0, 2001)
    vals = lambda_envelope(x)
    assert np.all(np.diff(vals) <= 1e-14)
    assert vals[100] > vals[500] > vals[1900] > 0.0
    assert float(lambda_envelope(1.0)) > float(lambda_envelope(2.0)) \
        > float(lambda_envelope(5.0))


def test_lambda_envelope_rejects_negative():
    with pytest.raises(DomainError):
        lambda_envelope(-0.1)
    with pytest.raises(DomainError):
        lambda_envelope(math.inf)
