"""Shared test helpers.

Every test starts and ends with an empty memo of the leading C1 values
(`series._leading_c1_unsigned`), so a test that monkeypatches `laplace_b`
or `_leading_c1_operator` neither sees values cached before it nor leaves
its own behind.

`measured_frequency_errors` fits the action-angle frequencies along a
sampled mu = 0 K-flow.  With uncorrected=True, g comes from the historical
formula of the collision-adapted chart instead of the corrected one: the
negative control that shows the fit can tell the two apart.
"""

import math

import numpy as np
import pytest

from rtbp_resonance import series
from rtbp_resonance.levi_civita import (
    action_angle_from_state,
    frequencies,
    integrate_k_flow,
    mean_anomaly_integral,
    state_from_action_angle,
)


def _historical_g(s, aa, C):
    """g by the historical (wrong) formula: secular factor sqrt(1-e^2)/4, and
    no factor 2 in the denominator of the periodic term."""
    e2 = 1.0 - aa.G * aa.G / (4.0 * aa.L * aa.L)
    secular = math.sqrt(1.0 - e2) / 4.0
    periodic = math.sqrt(aa.L * aa.L - aa.G * aa.G / 4.0) / (-aa.G - 2.0 * C)
    theta = math.atan2(s.nu, s.xi)
    return theta - secular * mean_anomaly_integral(aa.l, aa.e) - periodic * math.sin(aa.l)


def _measured_frequency_errors(L, G, C, uncorrected=False):
    """(dl/dtau, dg/dtau) fitted over tau in [0, 20] from (l, g) = (0.7, 0.4),
    minus the chart's frequencies, and the largest deviation of g from its line."""
    freq_l, freq_g = frequencies(L, G, C)
    s = state_from_action_angle(L, G, 0.7, 0.4, C)
    taus, states = integrate_k_flow(s, 0.0, 20.0, 801)
    aas = [action_angle_from_state(st, C) for st in states]
    g_raw = [_historical_g(st, aa, C) if uncorrected else aa.g for st, aa in zip(states, aas)]
    sigma = math.copysign(1.0, G)
    ls = np.unwrap([a.l for a in aas])
    pair = np.unwrap([g + sigma * a.l / 2.0 for g, a in zip(g_raw, aas)])
    gs = pair - sigma * ls / 2.0
    slope_l = np.polyfit(taus, ls, 1)[0]
    fit_g = np.polyfit(taus, gs, 1)
    resid_g = float(np.max(np.abs(gs - np.polyval(fit_g, taus))))
    return slope_l - freq_l, fit_g[0] - freq_g, resid_g


@pytest.fixture
def measured_frequency_errors():
    return _measured_frequency_errors


@pytest.fixture(autouse=True)
def fresh_leading_c1_memo():
    series._leading_c1_unsigned.cache_clear()
    yield
    series._leading_c1_unsigned.cache_clear()
