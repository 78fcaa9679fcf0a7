"""List-scan valley detection, the oracle for ``wavefield._detect_valleys``.

For each minimum of Q it searches the whole list of maxima for the
nearest crest toward and away from the axis, as the package did before
it located them with ``np.searchsorted``.  The two must agree on every
field of every valley and on every diagnostic.
"""

import numpy as np

from bohm_radiance.wavefield import Valley, _local_extrema


def list_scan_valleys(y: np.ndarray, q: np.ndarray, singular: np.ndarray,
                      diagnostics: list[str]) -> list[Valley]:
    mins, maxs = (list(a) for a in _local_extrema(q, singular))
    if not mins or not maxs:
        return []
    valleys: list[Valley] = []
    # Group minima by side of the axis; index outward per side.
    for side in (+1, -1):
        side_mins = [i for i in mins if side * y[i] > 0.0]
        side_mins.sort(key=lambda i: abs(y[i]))
        for rank, i in enumerate(side_mins, start=1):
            # Flanking maxima: nearest toward and away from the axis.
            inner = [j for j in maxs if abs(y[j]) < abs(y[i])
                     and side * y[j] >= 0.0]
            outer = [j for j in maxs if side * y[j] > 0.0
                     and abs(y[j]) > abs(y[i])]
            if not inner or not outer:
                diagnostics.append(
                    f"minimum at y={y[i]:.3e} lacks a flanking maximum; "
                    "skipped")
                continue
            j_in = max(inner, key=lambda j: abs(y[j]))
            j_out = min(outer, key=lambda j: abs(y[j]))
            depth = q[j_in] - q[i]
            half_width = abs(y[i] - y[j_in])
            left, right = sorted((y[j_in], y[j_out]))
            valleys.append(Valley(
                index=rank,
                y_min_cm=float(y[i]),
                y_left_cm=float(left),
                y_right_cm=float(right),
                depth_ev=float(depth),
                half_width_cm=float(half_width),
                grad_estimate_ev_per_cm=float(depth / half_width),
            ))
    valleys.sort(key=lambda v: (v.index, -np.sign(v.y_min_cm)))
    return valleys
