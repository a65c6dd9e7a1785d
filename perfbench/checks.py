"""Correctness checks of one tapeout, made apart from the program's own.

None of these compares against a stored copy of earlier output.  Each
returns a list of failure strings (empty when the check passes):

* :func:`width_space` -- mask width and space by 1-D morphological
  opening and closing on an exact raster of the mask polygons (numpy
  only; neither MRC engine is involved);
* :func:`envelope` -- the shipped mask lies within the drawn layer
  sized by the recipe's move clamp plus smoothing plus repair;
* :func:`engines_agree` -- SOCS and Abbe aerial images of the shipped
  mask agree within :data:`ENGINE_RTOL`;
* :func:`gds_round_trip` -- written and re-read GDS XORs to nothing, and
  the figure and vertex counts match the loops read back;
* :func:`polarity_signature` -- a dark-field tapeout that fails sign-off
  fails only through ORC reading remaining resist against drawn holes:
  every hole a pinch, the field a bridge, and a clear-feature ORC clean.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry import Rect, Region
from repro.layout import GDSReader, GDSWriter, Layer, Library
from repro.litho import LithoSimulator, binary_mask

#: Largest accepted max |I_socs - I_abbe| / max I_abbe.  The SOCS engine
#: keeps at most 24 kernels; measured gaps are a few 1e-3.
ENGINE_RTOL = 1e-2

#: Pinch and bridge spots below this area are boolean dust (as in ORC).
MIN_DEFECT_AREA_NM2 = 400

_LAYER = Layer(1, 0, "mask")


def loops_of(region: Region) -> List[List[Tuple[int, int]]]:
    return [list(map(tuple, loop)) for loop in region.merged().loops]


def raster(loops: Sequence[Sequence[Tuple[int, int]]]):
    """Exact even-odd raster of rectilinear loops on their own coordinates.

    Returns ``(xs, ys, inside)``: cell ``inside[j, i]`` is the open box
    ``xs[i]..xs[i+1]`` by ``ys[j]..ys[j+1]``; every polygon edge lies on
    a cell boundary, so the raster is exact at any feature size.
    """
    xs = np.unique([x for loop in loops for x, _y in loop])
    ys = np.unique([y for loop in loops for _x, y in loop])
    toggles = np.zeros((len(ys), len(xs)), dtype=np.uint8)
    cols, row_a, row_b = [], [], []
    for loop in loops:
        for (x1, y1), (x2, y2) in zip(loop, loop[1:] + loop[:1]):
            if x1 == x2 and y1 != y2:
                cols.append(x1)
                row_a.append(min(y1, y2))
                row_b.append(max(y1, y2))
            elif x1 != x2 and y1 != y2:
                raise ValueError(f"non-rectilinear edge {(x1, y1)}->{(x2, y2)}")
    if not cols:
        return xs, ys, np.zeros((max(len(ys) - 1, 0), max(len(xs) - 1, 0)), bool)
    ci = np.searchsorted(xs, cols)
    np.bitwise_xor.at(toggles, (np.searchsorted(ys, row_a), ci), 1)
    np.bitwise_xor.at(toggles, (np.searchsorted(ys, row_b), ci), 1)
    # A vertical edge covers rows row_a..row_b-1; parity along x then
    # tells inside from outside.
    spans = np.bitwise_xor.accumulate(toggles, axis=0)
    inside = np.bitwise_xor.accumulate(spans, axis=1)[:-1, :-1].astype(bool)
    return xs, ys, inside


def _runs(inside: np.ndarray, edges: np.ndarray):
    """Lengths of filled runs and of bounded gaps along axis 1."""
    padded = np.zeros((inside.shape[0], inside.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = inside
    step = np.diff(padded, axis=1)
    rows_s, starts = np.nonzero(step == 1)
    rows_e, ends = np.nonzero(step == -1)
    widths = edges[ends] - edges[starts]
    same_row = rows_s[1:] == rows_e[:-1]
    gaps = (edges[starts[1:]] - edges[ends[:-1]])[same_row]
    where_w = np.column_stack([rows_s, starts])
    where_g = np.column_stack([rows_e[:-1], ends[:-1]])[same_row]
    return widths, where_w, gaps, where_g


def width_space(
    mask: Region, min_width_nm: int, min_space_nm: int
) -> List[str]:
    """Opening and closing with x and y line segments change nothing.

    An opening with a segment of length W removes exactly the runs
    shorter than W; a closing with a segment of length S fills exactly
    the bounded gaps shorter than S.  A run or gap crosses a band of
    positive height, so every finding is a pair of facing edges closer
    than the limit -- width at the limit is legal, as in the MRC rules.
    """
    loops = loops_of(mask)
    if not loops:
        return []
    xs, ys, inside = raster(loops)
    failures = []
    for axis, edges, other, grid in (
        ("x", xs, ys, inside),
        ("y", ys, xs, inside.T),
    ):
        widths, where_w, gaps, where_g = _runs(grid, edges)
        narrow = widths < min_width_nm
        close = gaps < min_space_nm
        if narrow.any():
            k = int(np.argmax(narrow))
            failures.append(
                f"width {int(widths[k])} < {min_width_nm} nm along {axis} "
                f"at {axis}={int(edges[where_w[k, 1]])}, "
                f"band from {int(other[where_w[k, 0]])} "
                f"({int(narrow.sum())} runs)"
            )
        if close.any():
            k = int(np.argmax(close))
            failures.append(
                f"space {int(gaps[k])} < {min_space_nm} nm along {axis} "
                f"at {axis}={int(edges[where_g[k, 1]])}, "
                f"band from {int(other[where_g[k, 0]])} "
                f"({int(close.sum())} gaps)"
            )
    return failures


def envelope(
    mask: Region, drawn: Region, window: Rect, envelope_nm: int
) -> List[str]:
    """Mask inside ``drawn`` grown by the envelope, and covering it shrunk."""
    failures = []
    outside = mask - drawn.sized(envelope_nm)
    if not outside.is_empty:
        failures.append(
            f"mask reaches beyond drawn+{envelope_nm} nm: "
            f"{outside.area:.0f} nm2 at {outside.bbox()}"
        )
    missing = (drawn.sized(-envelope_nm) & Region(window)) - mask
    if not missing.is_empty:
        failures.append(
            f"mask leaves drawn-{envelope_nm} nm uncovered: "
            f"{missing.area:.0f} nm2 at {missing.bbox()}"
        )
    return failures


def engines_agree(
    simulator: LithoSimulator, mask_spec, window: Rect
) -> Tuple[List[str], float]:
    """SOCS (the simulator in use) against Abbe on the same mask."""
    abbe = LithoSimulator(replace(simulator.config, engine="abbe"))
    _grid, socs_image = simulator.aerial_image(mask_spec, window)
    _grid, abbe_image = abbe.aerial_image(mask_spec, window)
    scale = float(np.max(abbe_image))
    gap = float(np.max(np.abs(socs_image - abbe_image))) / scale
    if not np.isfinite(gap) or gap > ENGINE_RTOL:
        return [f"SOCS vs Abbe max |dI|/max I = {gap:.3g} > {ENGINE_RTOL}"], gap
    return [], gap


def gds_round_trip(mask: Region, figures: int, vertices: int) -> List[str]:
    """Write, read back, XOR; recount figures and vertices from the loops."""
    merged = mask.merged()
    library = Library("perfbench")
    library.new_cell("mask").set_region(_LAYER, merged)
    data = GDSWriter().to_bytes(library)
    back = GDSReader().read(data)["mask"].flat_region(_LAYER)
    failures = []
    diff = (back ^ merged).merged()
    if not diff.is_empty:
        failures.append(f"GDS round trip differs by {diff.area:.0f} nm2")
    loops = back.loops
    if len(loops) != figures:
        failures.append(f"{len(loops)} loops read back, stats say {figures}")
    counted = sum(len(loop) for loop in loops)
    if counted != vertices:
        failures.append(f"{counted} vertices read back, stats say {vertices}")
    return failures


def _spots(region: Region) -> int:
    return sum(
        1 for p in region.merged().outer_polygons() if p.area >= MIN_DEFECT_AREA_NM2
    )


def polarity_signature(
    simulator: LithoSimulator,
    result,
    drawn: Region,
    window: Rect,
    dose: float,
) -> List[str]:
    """Sign-off fails only because ORC compared resist against holes.

    With the fault, ``run_orc`` reads every drawn hole as a pinch and the
    resist field as one bridge.  Redoing the same pinch/bridge test on
    the developed openings (``clear_features=True``) must find nothing.
    """
    failures = []
    orc = result.orc
    margin = result.recipe.orc_margin_nm
    intent = drawn.merged() & Region(window)
    holes = _spots(intent.sized(-margin))
    if orc.pinch_count != holes or orc.bridge_count < 1:
        failures.append(
            f"dark-field ORC reads {orc.pinch_count} pinches / "
            f"{orc.bridge_count} bridges, the polarity fault gives "
            f"{holes} / >=1"
        )
    if not result.mrc_clean:
        failures.append("mask is not MRC clean")
    mask_spec = binary_mask(
        result.mask_geometry, dark_field=True,
        srafs=result.correction.srafs if not result.correction.srafs.is_empty else None,
    )
    opened = simulator.printed(
        mask_spec, window, dose=dose, clear_features=True
    )
    pinch = _spots(intent.sized(-margin) - opened)
    bridge = _spots(opened - intent.sized(margin))
    if pinch or bridge:
        failures.append(
            f"clear-feature ORC still finds {pinch} pinches / {bridge} bridges"
        )
    return failures
