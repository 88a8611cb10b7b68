"""The unit-sphere embedding of the two stereographic charts.

Tests use it as the independent reference for sphere separations and for
quadrature integrands; the library itself works in the charts only.
"""
import numpy as np


def sphere_embedding(chart_id, z):
    """Unit-sphere R^3 coordinates of chart points; `chart_id` and `z` may be arrays."""
    z = np.asarray(z)
    sign = 1.0 - 2.0 * np.asarray(chart_id)   # chart 1 mirrors y and the polar axis
    denom = 1.0 + np.abs(z) ** 2
    x = 2.0 * z.real / denom
    y = 2.0 * z.imag / denom
    return x, sign * y, sign * (np.abs(z) ** 2 - 1.0) / denom
