"""Self-test runner replaying the canned examples with known answers."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .iop import Iop, efficient_on_grid, optimality_zero_condition, scalarized_descent
from .problems import abs_slab_ivf, piecewise_vee_ivf, smooth_parabolic_ivf
from .subgrad import directional_max_check, subdiff_scan_1d

Result = Tuple[str, bool, str]


def _check_abs_slab(grid: int, tol: float) -> Result:
    f = abs_slab_ivf()
    region = subdiff_scan_1d(f, 0.0, ((-4.0, 2.0), (-2.0, 4.0)),
                             steps=121, grid=f.grid(grid), tol=tol)
    p = region.g_lo_values[:, None]
    q = region.g_hi_values[None, :]
    expected = (p >= -3.0 - 1e-9) & (p <= 1.0 + 1e-9) \
        & (q >= -1.0 - 1e-9) & (q <= 3.0 + 1e-9) & (p <= q + 1e-12)
    if not np.array_equal(region.bitmap, expected):
        return ("kinked slab", False, "scanned region differs from the box")
    for h in (1.0, -1.0):
        maximum, match = directional_max_check(f, 0.0, h, region, tol=1e-6)
        if not match or abs(maximum.lo - 1.0) > 1e-9 or abs(maximum.hi - 3.0) > 1e-9:
            return ("kinked slab", False,
                    f"directional maximum off for h={h}: {maximum}")
    return ("kinked slab", True,
            "region is the expected box; directional maximum [1,3]")


def _check_piecewise_vee(grid: int) -> Result:
    f = piecewise_vee_ivf()
    p = Iop(f)
    g = f.grid(grid)
    if not optimality_zero_condition(p, [2.0], g):
        return ("flat-bottom vee", False, "zero candidate rejected at 2")
    report = efficient_on_grid(p, g)
    if not report.is_flagged_near([2.0]):
        return ("flat-bottom vee", False, "2 not flagged efficient")
    result = scalarized_descent(p, [-2.0], grid=g)
    if abs(result.x_best[0] - 2.0) > 0.05:
        return ("flat-bottom vee", False,
                f"descent ended at {result.x_best[0]}")
    return ("flat-bottom vee", True,
            "zero subgradient at 2, flagged efficient, descent reaches it")


def _check_smooth_parabolic(grid: int, tol: float) -> Result:
    f = smooth_parabolic_ivf()
    p = Iop(f)
    g = f.grid(grid)
    region = subdiff_scan_1d(f, 0.5, grid=g, tol=tol)
    marked = region.marked()
    step = max(region.step)
    if marked.shape[0] == 0 or np.any(np.abs(marked[:, 0] + 1.0) > step + 1e-9) \
            or np.any(np.abs(marked[:, 1] - 2.0) > step + 1e-9):
        return ("parabolic band", False, "region at 0.5 not near [-1,2]")
    if optimality_zero_condition(p, [0.5], g):
        return ("parabolic band", False,
                "zero condition unexpectedly true at 0.5")
    report = efficient_on_grid(p, g)
    xs = report.points[:, 0]
    flagged = report.efficient
    inside = (xs >= -1e-9) & (xs <= 1.0 + 1e-9)
    h = max(report.grid_step)
    near = (xs >= -h - 1e-9) & (xs <= 1.0 + h + 1e-9)
    if np.any(inside & ~flagged) or np.any(flagged & ~near):
        return ("parabolic band", False, "efficient set differs from [0,1]")
    return ("parabolic band", True,
            "singleton region at 0.5, efficient set [0,1], converse fails")


def run_examples(grid: int = 201, tol: float = 1e-10) -> List[Result]:
    return [
        _check_abs_slab(grid, tol),
        _check_piecewise_vee(grid),
        _check_smooth_parabolic(grid, tol),
    ]
