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
from scipy import ndimage

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

_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_EIGHT_CONN = np.ones((3, 3), dtype=bool)


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
    """A closed boundary around one enclosed region of the edge map.

    ``vertices`` is the ordered boundary polygon in (x, y) pixel coordinates.
    ``area`` counts the pixels of the filled polygon (interior holes included).
    ``filled_indices``/``shape`` cache the rasterization for mask generation.
    """

    vertices: np.ndarray
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
        if self.role not in ("child", "parent"):
            raise ValueError("role must be 'child' or 'parent'")
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


def _correlate_1d(a: np.ndarray, taps: tuple[int, int, int], axis: int) -> np.ndarray:
    """Correlate a padded array with a 3-tap integer kernel along ``axis``; the
    result is one element shorter at each end of that axis, in ``a``'s dtype."""
    n = a.shape[axis] - 2
    index = [slice(None), slice(None)]
    out = None
    for k, weight in enumerate(taps):
        if weight == 0:
            continue
        index[axis] = slice(k, k + n)
        view = a[tuple(index)]
        if out is None:
            out = view * weight
        elif weight == 1:  # unit weights add in place, without a temporary
            out += view
        elif weight == -1:
            out -= view
        else:
            out += view * weight
    return out


def _padded(img: GrayImage, dtype) -> np.ndarray:
    """The pixels with one replicated border pixel on each side, as ``dtype``."""
    if img.width < 3 or img.height < 3:
        raise ValueError("image must be at least 3x3")
    return np.pad(img.pixels, 1, mode="edge").astype(dtype)


# Sums of the 16-weight binomial over 8-bit pixels lie in 0..4080; the table
# divides by 16 and rounds half to even, as np.rint does.
_ROUND_SIXTEENTHS = np.rint(np.arange(16 * 255 + 1) / 16.0).astype(np.uint8)


def gaussian_smooth_3x3(img: GrayImage) -> GrayImage:
    """Smooth with the 3x3 binomial kernel; borders replicate edge pixels.

    The kernel is outer(BINOMIAL_TAPS, BINOMIAL_TAPS) / 16, applied as two
    integer passes and one exact rounding lookup.
    """
    padded = _padded(img, np.uint16)
    sums = _correlate_1d(_correlate_1d(padded, BINOMIAL_TAPS, 1), BINOMIAL_TAPS, 0)
    return GrayImage(_ROUND_SIXTEENTHS[sums])


def sobel_gradients(img: GrayImage) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pixel gx, gy and L2 magnitude from the fixed gradient kernels.

    Both kernels run as separable integer passes (|g| <= 1020 fits int16);
    ``mag`` is float64.
    """
    padded = _padded(img, np.int16)
    gx = _correlate_1d(_correlate_1d(padded, DIFFERENCE_TAPS, 1), BINOMIAL_TAPS, 0)
    gy = _correlate_1d(_correlate_1d(padded, BINOMIAL_TAPS, 1), DIFFERENCE_TAPS[::-1], 0)
    return gx, gy, np.hypot(gx.astype(np.float64), gy.astype(np.float64))


# Neighbor offsets (dx, dy) per quantized signed gradient direction, 45-degree
# sectors counterclockwise from +x.
_NMS_OFFSETS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
_NMS_DX, _NMS_DY = np.array(_NMS_OFFSETS).T


def auto_canny(img: GrayImage, sigma: float = DEFAULT_CANNY_SIGMA) -> np.ndarray:
    """Canny edge map with hysteresis thresholds taken from the intensity median.

    lower = max(0, (1 - sigma) * median), upper = min(255, (1 + sigma) * median).
    Non-maximum suppression compares each pixel against its two neighbors along
    the quantized signed gradient direction; the tie on an ideal two-pixel step
    keeps the pixel the gradient points away from (the darker side), so step
    edges stay one pixel wide and opposite edges of a bright region erode it
    symmetrically. Neighbors beyond the border replicate the edge pixel.

    Only pixels above the lower threshold can become edges, so suppression
    runs on those alone.
    """
    gx, gy, mag = sobel_gradients(img)
    h, w = mag.shape
    med = float(np.median(img.pixels))
    lower = max(0.0, (1.0 - sigma) * med)
    upper = min(255.0, (1.0 + sigma) * med)

    flat_mag = mag.ravel()
    cand = np.flatnonzero(flat_mag > lower)
    m = flat_mag[cand]
    deg = (np.degrees(np.arctan2(gy.ravel()[cand].astype(np.float64),
                                 gx.ravel()[cand].astype(np.float64))) + 360.0) % 360.0
    sector = (np.floor((deg + 22.5) / 45.0).astype(np.int64)) % 8
    dx, dy = _NMS_DX[sector], _NMS_DY[sector]
    y, x = np.divmod(cand, w)
    nxt = mag[np.clip(y + dy, 0, h - 1), np.clip(x + dx, 0, w - 1)]
    prv = mag[np.clip(y - dy, 0, h - 1), np.clip(x - dx, 0, w - 1)]
    keep = (m > prv) & (m >= nxt)

    weak = cand[keep]
    strong = weak[m[keep] > upper]
    edges = np.zeros(h * w, dtype=bool)
    if strong.size == 0:
        return edges.reshape(h, w)
    edges[weak] = True
    labels, n = ndimage.label(edges.reshape(h, w), structure=_EIGHT_CONN)
    labels = labels.ravel()
    hit = np.zeros(n + 1, dtype=bool)
    hit[labels[strong]] = True
    edges[weak] = hit[labels[weak]]
    return edges.reshape(h, w)


# Clockwise Moore neighborhood, (dx, dy) with y pointing down.
_MOORE_RING = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
_MOORE_INDEX = {off: i for i, off in enumerate(_MOORE_RING)}


def _trace_boundary(region: np.ndarray, start_yx: tuple[int, int]) -> np.ndarray:
    """Moore boundary trace of a 4-connected region, clockwise, (x, y) vertices.

    ``region`` must be padded so no region pixel touches the array border;
    ``start_yx`` is the topmost-leftmost region pixel.
    """
    sy, sx = start_yx
    cur = (sx, sy)
    back = (sx, sy - 1)
    vertices = [cur]
    # The walk is deterministic in the (pixel, backtrack) state, so the first
    # repeated state marks a completed cycle; anything before it is lead-in.
    seen = {(cur, back): 0}
    max_steps = 8 * int(region.sum()) + 8
    for _ in range(max_steps):
        bi = _MOORE_INDEX[(back[0] - cur[0], back[1] - cur[1])]
        found = None
        prev = back
        for step in range(1, 9):
            dx, dy = _MOORE_RING[(bi + step) % 8]
            cand = (cur[0] + dx, cur[1] + dy)
            if region[cand[1], cand[0]]:
                found = cand
                break
            prev = cand
        if found is None:
            break  # isolated single pixel
        cur, back = found, prev
        state = (cur, back)
        if state in seen:
            vertices = vertices[seen[state]:]
            break
        seen[state] = len(vertices)
        vertices.append(cur)
    return np.array(vertices, dtype=np.int64)


def _first_pixel(labels: np.ndarray, lab: int, bbox: tuple[slice, slice]) -> tuple[int, int]:
    """Topmost-leftmost (y, x) pixel of label ``lab``: the first hit in its
    bounding box's top row."""
    y, cols = bbox[0].start, bbox[1]
    return y, cols.start + int(np.argmax(labels[y, cols] == lab))


def _pixels(labels: np.ndarray, lab: int, bbox: tuple[slice, slice]) -> np.ndarray:
    """Raster-ordered flat indices of label ``lab``, scanned within its bounding box."""
    ys, xs = np.nonzero(labels[bbox] == lab)
    return (ys + bbox[0].start) * labels.shape[1] + (xs + bbox[1].start)


def find_contours(edges: np.ndarray) -> list[Contour]:
    """Closed boundaries of the regions enclosed by the edge map, with nesting.

    The edge bitmap gets one pass of 3x3 dilation to close single-pixel gaps.
    Each 4-connected free-space component that does not touch the image border
    becomes one contour; nesting links a contour to the smallest enclosing one.
    Open chains that merely touch the border enclose nothing and are dropped.
    """
    e = np.asarray(edges, dtype=bool)
    if e.size == 0 or not e.any():
        return []
    h, w = e.shape
    # 3x3 dilation as two separable passes of shifted ORs; nothing lies
    # beyond the border.
    rows = e.copy()
    rows[:, 1:] |= e[:, :-1]
    rows[:, :-1] |= e[:, 1:]
    dilated = rows.copy()
    dilated[1:] |= rows[:-1]
    dilated[:-1] |= rows[1:]

    free_labels, n_free = ndimage.label(~dilated, structure=_FOUR_CONN)
    stroke_labels, n_strokes = ndimage.label(dilated, structure=_EIGHT_CONN)

    outside = np.zeros(n_free + 1, dtype=bool)
    for edge in (free_labels[0], free_labels[-1], free_labels[:, 0], free_labels[:, -1]):
        outside[edge] = True
    enclosed = [int(lab) for lab in np.flatnonzero(~outside[1:]) + 1]
    if not enclosed:
        return []

    free_boxes = ndimage.find_objects(free_labels)
    stroke_boxes = ndimage.find_objects(stroke_labels)
    free_first = {lab: _first_pixel(free_labels, lab, free_boxes[lab - 1])
                  for lab in enclosed}

    # The pixel directly above a component's topmost-leftmost pixel always
    # belongs to the other class (or lies off-image), so it identifies the
    # component's container: strokes sit inside free space, free regions sit
    # inside strokes. Chaining the two gives each region's parent region.
    stroke_container = {}  # stroke label -> free label (or -1 for image border)
    for lab in range(1, n_strokes + 1):
        y, x = _first_pixel(stroke_labels, lab, stroke_boxes[lab - 1])
        stroke_container[lab] = int(free_labels[y - 1, x]) if y > 0 else -1

    enclosed_set = set(enclosed)
    region_parent = {}  # free label -> free label or None
    for lab in enclosed:
        y, x = free_first[lab]
        parent = stroke_container[int(stroke_labels[y - 1, x])]
        region_parent[lab] = parent if parent in enclosed_set else None

    children_regions: dict[int, list[int]] = {lab: [] for lab in enclosed}
    for lab in enclosed:
        p = region_parent[lab]
        if p is not None:
            children_regions[p].append(lab)

    strokes_in_region: dict[int, list[int]] = {lab: [] for lab in enclosed}
    for stroke, container in stroke_container.items():
        if container in strokes_in_region:
            strokes_in_region[container].append(stroke)

    # Filled polygon of a region = its own pixels plus everything nested below:
    # descendant regions and the strokes they contain. A region's first raster
    # pixel precedes its children's, so labels descend from children to
    # parents and each child is filled first.
    filled_of: dict[int, np.ndarray] = {}
    for lab in reversed(enclosed):
        parts = [_pixels(free_labels, lab, free_boxes[lab - 1])]
        parts.extend(_pixels(stroke_labels, s, stroke_boxes[s - 1])
                     for s in strokes_in_region[lab])
        parts.extend(filled_of[c] for c in children_regions[lab])
        filled_of[lab] = np.concatenate(parts) if len(parts) > 1 else parts[0]

    # Trace each region boundary inside a padded window of its bounding box.
    contours: list[Contour] = []
    index_of: dict[int, int] = {}
    for lab in enclosed:  # enclosed is already in raster order of first pixel
        sl = free_boxes[lab - 1]
        local = np.pad(free_labels[sl] == lab, 1, mode="constant")
        fy, fx = free_first[lab]
        start = (fy - sl[0].start + 1, fx - sl[1].start + 1)
        verts = _trace_boundary(local, start)
        verts[:, 0] += sl[1].start - 1
        verts[:, 1] += sl[0].start - 1
        filled = np.sort(filled_of[lab])
        index_of[lab] = len(contours)
        contours.append(Contour(
            vertices=verts,
            area=float(filled.size),
            parent_index=index_of.get(region_parent[lab]),  # parents come first
            depth=0,
            filled_indices=filled,
            shape=(h, w),
        ))
    _assign_depths(contours)
    return contours


def _assign_depths(contours: list[Contour]) -> None:
    """Set each contour's depth to the number of its ancestors."""
    for c in contours:
        depth = 0
        p = c.parent_index
        while p is not None:
            depth += 1
            p = contours[p].parent_index
        c.depth = depth


def scaled_min_area(min_area_at_reference: float, width: int, height: int) -> float:
    """Area threshold rescaled from the 2048x1536 reference to an arbitrary frame."""
    return min_area_at_reference * (width * height) / REFERENCE_PIXELS


def refine_contours(contours: list[Contour], min_area: float = DEFAULT_MIN_CONTOUR_AREA) -> list[Contour]:
    """Drop contours below the area threshold (boundary inclusive) and re-link parents."""
    keep = [i for i, c in enumerate(contours) if c.area >= min_area]
    keep_set = set(keep)
    remap = {old: new for new, old in enumerate(keep)}

    out: list[Contour] = []
    for old in keep:
        c = contours[old]
        parent = c.parent_index
        while parent is not None and parent not in keep_set:
            parent = contours[parent].parent_index
        out.append(Contour(
            vertices=c.vertices,
            area=c.area,
            parent_index=remap[parent] if parent is not None else None,
            depth=0,
            filled_indices=c.filled_indices,
            shape=c.shape,
        ))
    _assign_depths(out)
    return out


def _rasterize(contour: Contour) -> np.ndarray:
    if contour.filled_indices is None or contour.shape is None:
        raise ValueError("contour lacks rasterization data")
    bits = np.zeros(contour.shape[0] * contour.shape[1], dtype=bool)
    bits[contour.filled_indices] = True
    return bits.reshape(contour.shape)


def generate_masks(contours: list[Contour], phase: str) -> list[BinaryMask]:
    """Emit filled masks for one picking phase.

    ``child-first`` covers every nested contour (depth >= 1), deepest first then
    largest first, so inner boxes get picked before what they rest on.
    ``parent-after`` covers the remaining top-level contours, largest first; a
    parent's mask is only meaningful once all its children have been picked.
    The two phases partition the contour set.
    """
    if phase == "child-first":
        chosen = [i for i, c in enumerate(contours) if c.depth >= 1]
        role = "child"
    elif phase == "parent-after":
        chosen = [i for i, c in enumerate(contours) if c.depth == 0]
        role = "parent"
    else:
        raise ValueError("phase must be 'child-first' or 'parent-after'")

    chosen.sort(key=lambda i: (-contours[i].depth, -contours[i].area, i))
    return [BinaryMask(bits=_rasterize(contours[i]), role=role, source_index=i)
            for i in chosen]
