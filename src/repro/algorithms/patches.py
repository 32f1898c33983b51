"""Sky patch geometry (Step 2-A, astronomy).

"The analysis partitions the sky into rectangular regions called
patches.  Step 2-A maps each calibrated exposure to the patches that it
overlaps.  Each exposure can be part of 1 to 6 patches, leading to a
logical flatmap operation ..." (Section 3.2.2).

The sky is modeled as a global integer pixel grid (a flat WCS, adequate
for the small dithers between visits of the same field).  Exposures and
patches are axis-aligned boxes on that grid.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class SkyBox:
    """Half-open axis-aligned box on the global sky pixel grid."""

    y0: int
    x0: int
    height: int
    width: int

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0:
            raise ValueError(
                f"box must have positive extent, got {self.height}x{self.width}"
            )

    @property
    def y1(self):
        """Exclusive lower row bound (y0 + height)."""
        return self.y0 + self.height

    @property
    def x1(self):
        """Exclusive right column bound (x0 + width)."""
        return self.x0 + self.width

    def intersect(self, other):
        """Intersection box, or ``None`` when disjoint."""
        y0 = max(self.y0, other.y0)
        x0 = max(self.x0, other.x0)
        y1 = min(self.y1, other.y1)
        x1 = min(self.x1, other.x1)
        if y1 <= y0 or x1 <= x0:
            return None
        return SkyBox(y0, x0, y1 - y0, x1 - x0)


class PatchGrid:
    """A fixed tiling of the sky into rectangular patches.

    Patch ``(py, px)`` covers rows ``[py * patch_height, ...)`` and
    columns ``[px * patch_width, ...)``.
    """

    def __init__(self, patch_height, patch_width):
        if patch_height <= 0 or patch_width <= 0:
            raise ValueError("patch dimensions must be positive")
        self.patch_height = int(patch_height)
        self.patch_width = int(patch_width)

    def patch_box(self, patch_id):
        """Sky box covered by the given patch id."""
        py, px = patch_id
        return SkyBox(
            py * self.patch_height,
            px * self.patch_width,
            self.patch_height,
            self.patch_width,
        )

    def overlapping_patches(self, box):
        """Patch ids intersecting ``box`` (the Step 2-A flatmap fan-out)."""
        py0 = box.y0 // self.patch_height
        py1 = (box.y1 - 1) // self.patch_height
        px0 = box.x0 // self.patch_width
        px1 = (box.x1 - 1) // self.patch_width
        return [
            (py, px)
            for py in range(py0, py1 + 1)
            for px in range(px0, px1 + 1)
        ]
