"""Box segmentation over grayscale bin images.

Six stages: ROI crop, 3x3 Gaussian smoothing, Sobel gradients with
median-adaptive Canny, contour extraction with parent-child nesting,
area-based refinement, and per-contour binary masks emitted in two phases
(children before parents) so stacked boxes are picked inner-first.

All functions are pure over immutable image data; separate images may be
processed concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Gradient kernels applied by cross-correlation; x increases right, y increases down.
KGX = np.array([[-1, 0, 1],
                [-2, 0, 2],
                [-1, 0, 1]], dtype=np.int64)
KGY = np.array([[1, 2, 1],
                [0, 0, 0],
                [-1, -2, -1]], dtype=np.int64)

GAUSSIAN_3X3 = np.array([[1, 2, 1],
                         [2, 4, 2],
                         [1, 2, 1]], dtype=np.float64) / 16.0

# Separable factors (column taps, row taps) the kernels are applied with:
# KGX = outer(BINOMIAL_TAPS, DIFFERENCE_TAPS),
# KGY = outer(DIFFERENCE_TAPS[::-1], BINOMIAL_TAPS),
# 16 * GAUSSIAN_3X3 = outer(BINOMIAL_TAPS, BINOMIAL_TAPS).
BINOMIAL_TAPS = (1, 2, 1)
DIFFERENCE_TAPS = (-1, 0, 1)

# Contour-area threshold of 2500 px^2 is calibrated for a 2048x1536 frame;
# other resolutions scale it by pixel count.
REFERENCE_PIXELS = 2048 * 1536
DEFAULT_MIN_CONTOUR_AREA = 2500.0
DEFAULT_CANNY_SIGMA = 0.33

# Picking phases, which are also the roles of the masks they emit.
PHASES = ("child", "parent")

@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image, row-major."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2:
            raise ValueError("pixels must be a 2D array")
        if px.dtype != np.uint8:
            px = px.astype(np.uint8)
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class Contour:
    """One enclosed region of the edge map with its holes, and its nesting.

    ``area`` counts the pixels of the filled polygon (interior holes included).
    ``filled_indices``/``shape`` cache the rasterization for mask generation.
    """

    area: float
    parent_index: Optional[int] = None
    depth: int = 0
    filled_indices: Optional[np.ndarray] = None
    shape: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class BinaryMask:
    """Per-box bitmap over the image plane; set bits cover one box surface."""

    bits: np.ndarray
    role: str
    source_index: int = 0

    def __post_init__(self):
        if self.role not in PHASES:
            raise ValueError(f"role must be one of {PHASES}")
        object.__setattr__(self, "bits", np.asarray(self.bits, dtype=bool))

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]


def extract_roi(img: GrayImage, rect: tuple[int, int, int, int]) -> GrayImage:
    """Crop the bin region of interest; later pixel coordinates are ROI-relative."""
    x, y, w, h = rect
    if w <= 0 or h <= 0:
        raise ValueError("ROI must have positive size")
    if x < 0 or y < 0 or x + w > img.width or y + h > img.height:
        raise ValueError(
            f"ROI {rect} exceeds image bounds {img.width}x{img.height}"
        )
    return GrayImage(img.pixels[y:y + h, x:x + w].copy())


def _pairs(a: np.ndarray, axis: int, gap: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of ``a[i]`` and ``a[i + gap]`` along ``axis``, for every i that has both."""
    n = a.shape[axis] - gap
    lo, hi = [slice(None), slice(None)], [slice(None), slice(None)]
    lo[axis], hi[axis] = slice(0, n), slice(gap, gap + n)
    return a[tuple(lo)], a[tuple(hi)]


def _binomial(a: np.ndarray, axis: int) -> np.ndarray:
    """Correlate a padded array with BINOMIAL_TAPS along ``axis``, as two
    pairwise sums since (1, 2, 1) is (1, 1) applied twice; the result is one
    element shorter at each end of that axis, in ``a``'s dtype."""
    for _ in range(2):
        lo, hi = _pairs(a, axis, 1)
        a = lo + hi
    return a


def _padded(img: GrayImage, dtype) -> np.ndarray:
    """The pixels with one replicated border pixel on each side, as ``dtype``."""
    if img.width < 3 or img.height < 3:
        raise ValueError("image must be at least 3x3")
    return np.pad(img.pixels, 1, mode="edge").astype(dtype)


def _rint_sixteenths(sums: np.ndarray) -> np.ndarray:
    """Divide uint16 sums in 0..4080 by 16 in place, rounding half to even as
    np.rint does: adding 7 plus the quotient's low bit carries exactly the
    remainders above 8, and 8 itself when the quotient is odd."""
    odd = sums >> 4
    odd &= 1
    sums += odd
    sums += 7
    sums >>= 4
    return sums


def gaussian_smooth_3x3(img: GrayImage) -> GrayImage:
    """Smooth with the 3x3 binomial kernel; borders replicate edge pixels.

    The kernel is outer(BINOMIAL_TAPS, BINOMIAL_TAPS) / 16, applied as two
    integer passes and one exact integer rounding.
    """
    sums = _binomial(_binomial(_padded(img, np.uint16), 1), 0)
    return GrayImage(_rint_sixteenths(sums).astype(np.uint8))


def sobel_gradients(img: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel gx and gy from the fixed gradient kernels, as int16.

    Both kernels run as separable integer passes, DIFFERENCE_TAPS as one
    subtraction; |g| <= 1020, so |gx| + |gy| <= 2040 fits int16 too.
    """
    padded = _padded(img, np.int16)
    left, right = _pairs(padded, 1, 2)
    gx = _binomial(right - left, 0)
    above, below = _pairs(_binomial(padded, 1), 0, 2)
    return gx, above - below  # KGY takes the row above minus the row below


# Neighbor offsets (dx, dy) per quantized signed gradient direction, 45-degree
# sectors counterclockwise from +x; dx counts columns right. The diagonal
# sectors count dy up, as KGY does, so they step across the edge. Sectors 2
# and 6 count it in rows, down, which only swaps the two neighbors and so
# sets the tie side of a y gradient.
_NMS_OFFSETS = ((1, 0), (1, -1), (0, 1), (-1, -1), (-1, 0), (-1, 1), (0, -1), (1, 1))
_NMS_DX, _NMS_DY = np.array(_NMS_OFFSETS).T


def auto_canny(img: GrayImage, sigma: float = DEFAULT_CANNY_SIGMA) -> np.ndarray:
    """Canny edge map with hysteresis thresholds taken from the intensity median.

    lower = max(0, (1 - sigma) * median), upper = min(255, (1 + sigma) * median).
    Non-maximum suppression compares each pixel's L2 gradient magnitude against
    its two neighbors along the quantized signed gradient direction, that is,
    across the edge at any orientation: a diagonal sector steps one row up for
    a positive gy, as ``KGY`` counts y up. On an ideal two-pixel step the tie
    keeps the darker pixel of an x gradient and the brighter pixel of a y
    gradient (sectors 2 and 6 step rows down, swapping the two neighbors), so
    step edges stay one pixel wide and opposite edges of a bright region erode
    it symmetrically. Neighbors beyond the border replicate the edge pixel.

    Only pixels above the lower threshold can become edges. The magnitude
    never exceeds |gx| + |gy|, so that integer sum picks the candidates, and
    the float64 magnitude is computed only at them and at their neighbors.
    Hysteresis labels the 8-connected components of the surviving pixels'
    horizontal runs, as ``find_contours`` labels the free space's.
    """
    gx, gy = sobel_gradients(img)
    h, w = gx.shape
    med = float(np.median(img.pixels))
    lower = max(0.0, (1.0 - sigma) * med)
    upper = min(255.0, (1.0 + sigma) * med)

    fx, fy = gx.ravel(), gy.ravel()

    def magnitude(idx):
        return np.hypot(fx[idx].astype(np.float64), fy[idx].astype(np.float64))

    l1 = np.abs(gx)
    l1 += np.abs(gy)
    # l1 is integral and lower >= 0, so l1 > lower exactly when l1 > floor(lower)
    cand = np.flatnonzero(l1 > int(lower))
    m = magnitude(cand)
    above = m > lower
    cand, m = cand[above], m[above]
    deg = (np.degrees(np.arctan2(fy[cand].astype(np.float64),
                                 fx[cand].astype(np.float64))) + 360.0) % 360.0
    sector = (np.floor((deg + 22.5) / 45.0).astype(np.int64)) % 8
    dx, dy = _NMS_DX[sector], _NMS_DY[sector]
    y, x = np.divmod(cand, w)
    nxt = magnitude(np.clip(y + dy, 0, h - 1) * w + np.clip(x + dx, 0, w - 1))
    prv = magnitude(np.clip(y - dy, 0, h - 1) * w + np.clip(x - dx, 0, w - 1))
    keep = (m > prv) & (m >= nxt)

    weak = cand[keep]
    strong = m[keep] > upper
    edges = np.zeros(h * w, dtype=bool)
    if strong.any():
        # Split the weak pixels into horizontal runs and label those.
        start = np.flatnonzero(np.r_[True, (np.diff(weak) != 1) | (weak[1:] % w == 0)])
        length = np.diff(np.r_[start, len(weak)])
        y, x0 = np.divmod(weak[start], w)
        labels = np.repeat(_label_spans(y, x0, x0 + length, 1, w), length)
        hit = np.zeros(labels.max() + 1, dtype=bool)
        hit[labels[strong]] = True
        edges[weak[hit[labels]]] = True
    return edges.reshape(h, w)


def _label_spans(line: np.ndarray, x0: np.ndarray, x1: np.ndarray, reach: int,
                 w: int) -> np.ndarray:
    """Connected-component label of each column span [x0, x1) within 0..w,
    for spans sorted by (line, x0) and disjoint on each line. Span j links to
    span i when it lies on line ``line[i] + 1`` and overlaps span i widened by
    ``reach`` columns on each side: reach 0 labels 4-connected pixel runs,
    reach 1 8-connected ones.

    The spans of the next line that qualify are one contiguous stretch, found
    by two binary searches over the keys line * (w + 1) + column.
    """
    from scipy.sparse import csgraph, csr_matrix

    n = len(line)
    below = (line + 1) * (w + 1)
    lo = np.searchsorted(line * (w + 1) + x1, below + x0 - reach, side="right")
    hi = np.searchsorted(line * (w + 1) + x0, below + x1 + reach, side="left")
    count = np.maximum(hi - lo, 0)
    src = np.repeat(np.arange(n), count)
    dst = np.arange(len(src)) + np.repeat(lo - np.cumsum(count) + count, count)
    graph = csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n))
    return csgraph.connected_components(graph, directed=False)[1]


def find_contours(edges: np.ndarray) -> list[Contour]:
    """Closed boundaries of the regions enclosed by the edge map, with nesting.

    The edge bitmap gets one pass of 3x3 dilation to close single-pixel gaps.
    Each 4-connected free-space component that does not touch the image border
    becomes one contour, in raster order of its first pixel; nesting links a
    contour to the smallest enclosing one. Open chains that merely touch the
    border enclose nothing and are dropped.

    A contour's filled polygon is its region plus the region's holes: the
    8-connected components of the rest of its bounding box that do not reach
    the box's outside (8-connected holes are the dual of 4-connected regions).

    Everything is computed over the horizontal runs of the free space, not
    its pixels: regions link runs that overlap in consecutive rows, and the
    rest of a region's box is, row by row, the gaps between the region's runs
    and the sides before its first and after its last run. The sides and
    every gap in the box's top or bottom row reach the outside; a gap is a
    hole unless it is 8-connected to one of those. A region's parent is the
    innermost contour with a hole gap over the region's first pixel.
    """
    e = np.asarray(edges, dtype=bool)
    if e.size == 0 or not e.any():
        return []
    h, w = e.shape
    # 3x3 dilation as two separable passes of shifted ORs; nothing lies
    # beyond the border. The free space goes between two columns that are
    # never free, so every run starts and ends at a change along its row.
    rows = e.copy()
    rows[:, 1:] |= e[:, :-1]
    rows[:, :-1] |= e[:, 1:]
    free = np.zeros((h, w + 2), dtype=bool)
    inner = free[:, 1:-1]
    inner[...] = rows
    inner[1:] |= rows[:-1]
    inner[:-1] |= rows[1:]
    del rows
    np.logical_not(inner, out=inner)
    change = np.flatnonzero(free[:, 1:] != free[:, :-1])
    del free, inner
    y, x0 = np.divmod(change[0::2], w + 1)
    x1 = change[1::2] - y * (w + 1)

    region = _label_spans(y, x0, x1, 0, w)
    is_open = np.zeros(len(y), dtype=bool)
    is_open[region[(y == 0) | (y == h - 1) | (x0 == 0) | (x1 == w)]] = True
    keep = ~is_open[region]
    if not keep.any():
        return []
    y, x0, x1, region = y[keep], x0[keep], x1[keep], region[keep]

    # Group the runs by region, regions in raster order of their first runs
    # and runs in raster order within each.
    _, first, inverse = np.unique(region, return_index=True, return_inverse=True)
    lead = first[inverse]
    order = np.argsort(lead, kind="stable")
    y, x0, x1, lead = y[order], x0[order], x1[order], lead[order]
    m = len(y)
    bounds = np.flatnonzero(np.r_[True, lead[1:] != lead[:-1], True])
    head = bounds[:-1]
    cid = np.repeat(np.arange(len(head)), np.diff(bounds))
    top, bottom = y[head], y[bounds[1:] - 1]
    left, right = np.minimum.reduceat(x0, head), np.maximum.reduceat(x1, head)

    # The rest of the box, two spans per run: the one before it (the box
    # side for a line's first run, else the gap after the previous run) and
    # the one after it (the box side for a line's last run, else empty).
    new_line = np.r_[True, (cid[1:] != cid[:-1]) | (y[1:] != y[:-1])]
    end_line = np.r_[new_line[1:], True]
    prev_x1 = np.r_[0, x1[:-1]]
    lo = np.stack([np.where(new_line, left[cid], prev_x1), x1], axis=1).ravel()
    hi = np.stack([x0, np.where(end_line, right[cid], x1)], axis=1).ravel()
    outside = np.stack([new_line, np.ones(m, dtype=bool)], axis=1).ravel()
    outside |= np.repeat((y == top[cid]) | (y == bottom[cid]), 2)
    real = np.flatnonzero(hi > lo)
    line = np.repeat(cid * (h + 1) + y, 2)[real]  # one box's rows are consecutive lines
    piece = _label_spans(line, lo[real], hi[real], 1, w)
    reaches = np.zeros(len(real), dtype=bool)
    reaches[piece[outside[real]]] = True
    hole = np.zeros(2 * m, dtype=bool)
    hole[real] = ~reaches[piece]
    hole = hole[0::2]  # only gaps before a run can be holes

    # Depth counts the hole gaps over a region's first pixel: those that
    # start at or before it less those that end at or before it. Gaps of
    # contours at one depth are disjoint, so the parent's gap is the last
    # one at depth - 1 that starts at or before that pixel.
    gy, gx0, gx1, owner = y[hole], prev_x1[hole], x0[hole], cid[hole]
    fy, fx = y[head], x0[head]
    pixel = fy * (w + 1) + fx
    depth = (np.searchsorted(np.sort(gy * (w + 1) + gx0), pixel, side="right")
             - np.searchsorted(np.sort(gy * (w + 1) + gx1), pixel, side="right"))
    levels = int(depth.max()) + 1
    by_level = (gy * levels + depth[owner]) * (w + 1) + gx0
    order = np.argsort(by_level)
    parent = np.full(len(head), -1)
    nested = np.flatnonzero(depth > 0)
    at = np.searchsorted(by_level[order], ((fy * levels + depth - 1) * (w + 1) + fx)[nested],
                         side="right") - 1
    parent[nested] = owner[order[at]]

    # Each run, widened left over a hole gap before it, is one filled span.
    fill_x0 = np.where(hole, prev_x1, x0)
    length = x1 - fill_x0
    offset = np.r_[0, np.cumsum(length)]
    base = y * w + fill_x0 - offset[:-1]
    contours: list[Contour] = []
    for a, b, p, d in zip(head.tolist(), bounds[1:].tolist(), parent.tolist(), depth.tolist()):
        filled = np.repeat(base[a:b], length[a:b]) + np.arange(offset[a], offset[b])
        contours.append(Contour(
            area=float(filled.size),
            parent_index=p if p >= 0 else None,
            depth=d,
            filled_indices=filled,
            shape=(h, w),
        ))
    return contours


def scaled_min_area(min_area_at_reference: float, width: int, height: int) -> float:
    """Area threshold rescaled from the 2048x1536 reference to an arbitrary frame."""
    return min_area_at_reference * (width * height) / REFERENCE_PIXELS


def refine_contours(contours: list[Contour], min_area: float = DEFAULT_MIN_CONTOUR_AREA) -> list[Contour]:
    """Drop contours below the area threshold (boundary inclusive) and re-link parents.

    Parents precede their children, so a kept parent's depth is set first.
    """
    remap = {old: new for new, old in
             enumerate(i for i, c in enumerate(contours) if c.area >= min_area)}

    out: list[Contour] = []
    for old in remap:
        c = contours[old]
        parent = c.parent_index
        while parent is not None and parent not in remap:
            parent = contours[parent].parent_index
        parent = remap.get(parent)
        out.append(Contour(
            area=c.area,
            parent_index=parent,
            depth=out[parent].depth + 1 if parent is not None else 0,
            filled_indices=c.filled_indices,
            shape=c.shape,
        ))
    return out


def _rasterize(contour: Contour) -> np.ndarray:
    if contour.filled_indices is None or contour.shape is None:
        raise ValueError("contour lacks rasterization data")
    bits = np.zeros(contour.shape[0] * contour.shape[1], dtype=bool)
    bits[contour.filled_indices] = True
    return bits.reshape(contour.shape)


def generate_masks(contours: list[Contour], phase: str) -> list[BinaryMask]:
    """Emit filled masks for one picking phase; the phase is their role.

    ``child`` covers every nested contour (depth >= 1), deepest first then
    largest first, so inner boxes get picked before what they rest on.
    ``parent`` covers the remaining top-level contours, largest first; a
    parent's mask is only meaningful once all its children have been picked.
    The two phases partition the contour set.
    """
    if phase not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}")
    chosen = [i for i, c in enumerate(contours) if (c.depth >= 1) == (phase == "child")]
    chosen.sort(key=lambda i: (-contours[i].depth, -contours[i].area, i))
    return [BinaryMask(bits=_rasterize(contours[i]), role=phase, source_index=i)
            for i in chosen]
