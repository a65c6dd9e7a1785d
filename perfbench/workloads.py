"""Seeded inputs of the tapeout benchmark's three workloads.

Every workload is a list of operations, each one call of
:func:`repro.flow.tapeout_region` on a generated layout.  Inputs come from
the ``--seed`` alone (``random.Random`` seeded with the workload name and
the seed), so the same seed always yields the same layouts; the program
under test sees only the generated :class:`~repro.geometry.Region`.

* ``clips_model`` -- 2 um x 2 um poly clips, each cut from its own
  seeded random-logic block, stratified by drawn vertex count to the
  natural share of each count class; model OPC, nominal ORC over the clip.
* ``block_rule`` -- whole 4-row poly blocks, one per seed draw, rule OPC,
  ORC on a fixed 2 um x 2 um window at the block centre.
* ``contacts_pw`` -- 2 um x 2 um contact-layer clips, 12 holes on seeded
  random sites of the 370 nm contact grid, on a dark-field mask with
  conventional illumination; model OPC also measures one defocus corner.

All clip windows and the block ORC window have the same size, so every
workload images on one simulation grid and builds its kernels during
set-up only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

from repro.design import (
    BlockSpec,
    contact_array,
    line_space_array,
    node_180nm,
    random_logic_block,
)
from repro.flow import CorrectionLevel, TapeoutRecipe
from repro.geometry import Rect, Region
from repro.layout import POLY
from repro.litho import (
    LithoConfig,
    LithoSimulator,
    binary_mask,
    krf_annular,
    krf_conventional,
)
from repro.opc import ModelOPCRecipe, RuleOPCRecipe

#: Side of every clip and of the block ORC window (nm).
CLIP_NM = 2000

#: Poly blocks: 4 rows of 19 um, about 19 x 23 um, no metal routing.
BLOCK_ROWS = 4
BLOCK_ROW_WIDTH_NM = 19000

#: Clip boundaries may not leave poly narrower than twice this (nm): a
#: cut running along a line would leave a sliver under the 91 nm
#: printability floor that preflight (LNT201) rightly rejects.
SLIVER_HALF_NM = 50

#: A poly clip must be covered at least this much by drawn poly.
MIN_POLY_COVER = 0.12

#: Holes in every contact clip (of the 25 grid sites of a clip).
CONTACTS_PER_CLIP = 12

#: Contact holes and their dense-array space (nm), as in experiment E13;
#: dose is anchored on a 5 x 5 array at this pitch.
CONTACT_SIZE_NM = 160
CONTACT_SPACE_NM = 210

#: Contact-layer process-window corner: (defocus nm, dose factor, weight).
CONTACT_CORNER = (200.0, 1.0, 0.3)

#: Candidate clip origins are drawn on this grid (nm).
ORIGIN_GRID_NM = 10

#: Candidate origins tried on one block before drawing a new block.
MAX_CANDIDATES = 200

#: Drawn-vertex-count classes (lowest, highest) of poly clips.  Clips
#: carry 8 to about 40 vertices; shots and EPE track the count.
CLIP_CLASSES = ((0, 12), (13, 20), (21, 28), (29, 10**6))

#: Natural share of each class: the class of the first clip of a block
#: (:func:`block_clips`), measured over 4000 seeded blocks (README, "Poly
#: clips").  Rounds of poly clips are stratified to these shares.
CLIP_SHARES = (0.41, 0.25, 0.215, 0.125)


@dataclass(frozen=True)
class Operation:
    """One tapeout: the drawn layer, the window passed as ``window=``."""

    label: str
    drawn: Region
    window: Rect
    #: Layout area this operation corrects (um^2): the clip, or the block.
    area_um2: float


@dataclass
class Prepared:
    """Everything one workload needs after set-up."""

    name: str
    simulator: LithoSimulator
    dose: float
    recipe: TapeoutRecipe
    operations: List[Operation]
    #: Largest distance (nm) the shipped mask may lie from the drawn
    #: edge: the recipe's move clamp plus jog smoothing plus MRC repair.
    envelope_nm: int
    dark_field: bool = False


@dataclass(frozen=True)
class Workload:
    """A workload's fixed shape; ``prepare(seed, n)`` makes its inputs."""

    name: str
    #: Distinct operations in one round (whole rounds repeat them).
    round_size: int
    #: Median seconds per operation on the reference host (README); sets
    #: how many whole rounds fill ``--seconds``.
    reference_op_s: float
    prepare: Callable[[int, int], Prepared]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def poly_litho() -> LithoConfig:
    """Annular KrF on poly, as the experiment suite uses."""
    return LithoConfig(optics=krf_annular(), pixel_nm=8.0, ambit_nm=600)


def contact_litho() -> LithoConfig:
    """Conventional sigma 0.6 KrF for contact holes."""
    return LithoConfig(
        optics=krf_conventional(sigma=0.6), pixel_nm=8.0, ambit_nm=600
    )


def poly_dose(simulator: LithoSimulator) -> float:
    """Dose to size on the dense 180/280 nm poly grating."""
    anchor = line_space_array(180, 280)
    return simulator.dose_to_size(
        binary_mask(anchor.region), anchor.window, anchor.site("center"), 180.0
    )


def contact_dose(simulator: LithoSimulator, size: int, space: int) -> float:
    """Dose to size on a dense 5 x 5 contact array (dark field)."""
    anchor = contact_array(size, space, 5, 5)
    return simulator.dose_to_size(
        binary_mask(anchor.region, dark_field=True),
        anchor.window,
        anchor.site("center"),
        float(size),
        bright_feature=True,
    )


def poly_block(seed: int) -> Tuple[Region, Rect]:
    """One seeded random-logic block's merged poly and its bounding box."""
    library = random_logic_block(
        node_180nm(),
        BlockSpec(
            rows=BLOCK_ROWS, row_width=BLOCK_ROW_WIDTH_NM, nets=0, seed=seed
        ),
        name="blk",
    )
    top = library["blk_top"]
    return top.flat_region(POLY).merged(), top.bbox()


def block_clips(rng: random.Random) -> Iterator[Tuple[Rect, Region]]:
    """Clips of one fresh seeded block: up to :data:`MAX_CANDIDATES` seeded
    origins, yielding each clip that poly covers enough and whose boundary
    leaves no sliver, with its merged drawn poly."""
    poly, box = poly_block(rng.randrange(1 << 30))
    for _attempt in range(MAX_CANDIDATES):
        x = box.x1 + rng.randint(0, (box.width - CLIP_NM) // ORIGIN_GRID_NM) * ORIGIN_GRID_NM
        y = box.y1 + rng.randint(0, (box.height - CLIP_NM) // ORIGIN_GRID_NM) * ORIGIN_GRID_NM
        clip = Rect(x, y, x + CLIP_NM, y + CLIP_NM)
        drawn = (poly & Region(clip)).merged()
        if drawn.area < MIN_POLY_COVER * clip.area:
            continue
        opened = drawn.sized(-SLIVER_HALF_NM).sized(SLIVER_HALF_NM)
        if (drawn - opened).is_empty:
            yield clip, drawn


def vertex_class(vertices: int) -> int:
    """Index of the :data:`CLIP_CLASSES` class holding ``vertices``."""
    return next(k for k, (lo, hi) in enumerate(CLIP_CLASSES) if lo <= vertices <= hi)


def clip_quotas(count: int) -> List[int]:
    """Clips of each :data:`CLIP_CLASSES` class in a round of ``count``:
    :data:`CLIP_SHARES` scaled to ``count``, rounded by largest remainder."""
    exact = [share * count for share in CLIP_SHARES]
    quotas = [int(q) for q in exact]
    by_remainder = sorted(range(len(exact)), key=lambda k: quotas[k] - exact[k])
    for k in by_remainder[: count - sum(quotas)]:
        quotas[k] += 1
    return quotas


def poly_clips(rng: random.Random, count: int) -> List[Operation]:
    """``count`` sliver-free poly clips, stratified by drawn vertex count.

    Each clip is the first clip of a fresh seeded block (:func:`block_clips`)
    whose vertex class still has an open quota.  The quotas follow the
    classes' natural shares (:data:`CLIP_SHARES`), so a round holds the mix
    that free sampling gives on average, while every seed corrects the same
    number of simple and busy clips (mask shots and residual EPE follow the
    drawn vertex count closely).
    """
    quotas = clip_quotas(count)
    clips: List[Operation] = []
    while len(clips) < count:
        for clip, drawn in block_clips(rng):
            vertices = drawn.num_vertices
            k = vertex_class(vertices)
            if quotas[k] == 0:
                continue
            quotas[k] -= 1
            clips.append(
                Operation(
                    label=f"clip{len(clips)}:{vertices}v@{clip.x1},{clip.y1}",
                    drawn=drawn,
                    window=clip,
                    area_um2=clip.area / 1e6,
                )
            )
            break
    return clips


def contact_clips(size: int, pitch: int, rng: random.Random, count: int):
    """``count`` clips of :data:`CONTACTS_PER_CLIP` holes on grid sites.

    Each clip fills a seeded random subset of the ``CLIP_NM / pitch``
    squared sites of the contact grid, so dense runs, pairs and isolated
    holes mix as on a contact layer, while every clip carries the same
    number of holes.
    """
    sites = CLIP_NM // pitch
    first = (CLIP_NM - sites * pitch) // 2 + pitch // 2
    clip = Rect(0, 0, CLIP_NM, CLIP_NM)
    grid = [(i, j) for i in range(sites) for j in range(sites)]
    clips: List[Operation] = []
    for _ in range(count):
        chosen = set(rng.sample(grid, CONTACTS_PER_CLIP))
        holes = [
            Rect.from_center((first + i * pitch, first + j * pitch), size, size)
            for i, j in grid
            if (i, j) in chosen
        ]
        code = "".join("1" if site in chosen else "0" for site in grid)
        clips.append(
            Operation(
                label=f"contacts:{code}",
                drawn=Region.from_rects(holes),
                window=clip,
                area_um2=clip.area / 1e6,
            )
        )
    return clips


def centre_window(box: Rect) -> Rect:
    """The fixed-size ORC window at the centre of a block."""
    cx = (box.x1 + box.x2) // 2
    cy = (box.y1 + box.y2) // 2
    half = CLIP_NM // 2
    return Rect(cx - half, cy - half, cx + half, cy + half)


def _smoothing_and_repair(recipe: TapeoutRecipe) -> int:
    # Repair fills sub-limit gaps and trims sub-limit widths; either moves
    # an edge by at most half the larger limit.
    limit = max(recipe.mrc.min_width_nm, recipe.mrc.min_space_nm)
    return recipe.smooth_tolerance_nm + (limit + 1) // 2


def prepare_clips_model(seed: int, count: int) -> Prepared:
    rng = _rng("clips_model", seed)
    simulator = LithoSimulator(poly_litho())
    recipe = TapeoutRecipe(level=CorrectionLevel.MODEL)
    return Prepared(
        name="clips_model",
        simulator=simulator,
        dose=poly_dose(simulator),
        recipe=recipe,
        operations=poly_clips(rng, count),
        envelope_nm=recipe.model_recipe.max_total_move_nm
        + _smoothing_and_repair(recipe),
    )


def prepare_block_rule(seed: int, count: int) -> Prepared:
    rng = _rng("block_rule", seed)
    operations = []
    for _ in range(count):
        block_seed = rng.randrange(1 << 30)
        poly, box = poly_block(block_seed)
        operations.append(
            Operation(
                label=f"block#{block_seed}",
                drawn=poly,
                window=centre_window(box),
                area_um2=box.area / 1e6,
            )
        )
    simulator = LithoSimulator(poly_litho())
    recipe = TapeoutRecipe(level=CorrectionLevel.RULE)
    rule = RuleOPCRecipe()  # what correct_region applies at level rule
    largest_bias = max(abs(r.bias_nm) for r in rule.bias_table.rules)
    return Prepared(
        name="block_rule",
        simulator=simulator,
        dose=poly_dose(simulator),
        recipe=recipe,
        operations=operations,
        envelope_nm=largest_bias
        + rule.line_end_extension_nm
        + rule.hammerhead_extra_nm
        + rule.serif_size_nm
        + _smoothing_and_repair(recipe),
    )


def prepare_contacts_pw(seed: int, count: int) -> Prepared:
    rng = _rng("contacts_pw", seed)
    simulator = LithoSimulator(contact_litho())
    recipe = TapeoutRecipe(
        level=CorrectionLevel.MODEL,
        dark_field=True,
        model_recipe=ModelOPCRecipe(process_corners=(CONTACT_CORNER,)),
    )
    return Prepared(
        name="contacts_pw",
        simulator=simulator,
        dose=contact_dose(simulator, CONTACT_SIZE_NM, CONTACT_SPACE_NM),
        recipe=recipe,
        operations=contact_clips(
            CONTACT_SIZE_NM, CONTACT_SIZE_NM + CONTACT_SPACE_NM, rng, count
        ),
        envelope_nm=recipe.model_recipe.max_total_move_nm
        + _smoothing_and_repair(recipe),
        dark_field=True,
    )


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("clips_model", 20, 1.2, prepare_clips_model),
        Workload("block_rule", 18, 1.32, prepare_block_rule),
        Workload("contacts_pw", 13, 1.75, prepare_contacts_pw),
    )
}
