"""The order fit's closed-form slope is the least-squares line np.polyfit fits."""

import numpy as np

from pennycontact import factorization
from pennycontact.factorization import order_fit


def test_closed_form_slope_matches_polyfit_per_column():
    log_t = np.log(factorization._ORDER_FIT_RADII)
    rng = np.random.default_rng(3401)
    y = np.outer(log_t, [-2.0, -1.0, 0.0, 0.5, 3.0]) + rng.normal(0.0, 0.05, (len(log_t), 5))
    slopes = factorization._slope(log_t, y)
    assert np.allclose(slopes, np.polyfit(log_t, y, 1)[0], rtol=0.0, atol=1e-13)


def test_order_fit_on_partly_vanishing_entries_matches_polyfit():
    # entry (0, 0) is nonzero at every radius, (0, 1) at 6 of 12, (1, 0) at
    # 3, too few to fit, and (1, 1) at none
    t = factorization._ORDER_FIT_RADII
    values = np.zeros((len(t), 2, 2))
    values[:, 0, 0] = 3.0 * t**-1.5
    values[::2, 0, 1] = 0.5 * t[::2] ** 2.0
    values[:3, 1, 0] = t[:3]
    orders = order_fit(values).orders
    log_t = np.log(t)
    assert abs(orders[0, 0] + np.polyfit(log_t, np.log(values[:, 0, 0]), 1)[0]) <= 1e-13
    assert abs(orders[0, 1] + np.polyfit(log_t[::2], np.log(values[::2, 0, 1]), 1)[0]) <= 1e-13
    assert np.isnan(orders[1]).all()
