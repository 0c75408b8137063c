"""Independent brute-force oracles the tests check the library against.

Everything here is written the slow, obvious way on purpose: exhaustive
pairwise distances, Kruskal over the full edge list, all 3-subsets for plane
fitting. None of it shares code with the library paths it validates.

The step-by-step references (``prim_mst``, ``single_linkage``,
``condense_nodes``, ``select_nodes``, ``radius_neighborhoods``,
``voxel_centroids``, ``ransac_loop``, ``padded_mls_resample``,
``padded_normals``) are the point layer's earlier per-element or
per-neighborhood formulations, kept so that the batched versions can be
checked against them. ``slab_intersect_box`` and ``points_inside_quad_loop``
are the synthetic renderer's earlier caster and child test: all three slabs
of every ray in one ``(n, 3)`` array, and one point and one edge at a time.
``cast_all_rays`` is its earlier frame cast, which tests every box against
every ray of the frame rather than against its pixel window; it shares the
per-box slab test with the library, which ``slab_intersect_box`` checks.
``ransac_loop`` draws its triples with the library's sampler, in the same
blocks as ``ransac_plane``, so that it checks the block scoring and not the
draws.
``map_mask_to_cloud`` is fusion's earlier whole-mask projection: every set
bit of a frame-sized bitmap through the homography in one product, and the
distinct cells from ``np.unique``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from binpick import synth
from binpick.planes import RANSAC_BLOCK, _sample_triples


def brute_radius(points: np.ndarray, query: np.ndarray, r: float) -> np.ndarray:
    d = np.linalg.norm(points - query, axis=1)
    return np.flatnonzero(d <= r)


def brute_core_distances(points: np.ndarray, k: int) -> np.ndarray:
    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    d_sorted = np.sort(d, axis=1)
    return d_sorted[:, k]  # column 0 is the self distance


def mutual_reachability_matrix(points: np.ndarray, k: int) -> np.ndarray:
    core = brute_core_distances(points, k)
    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    return np.maximum(d, np.maximum(core[:, None], core[None, :]))


def kruskal_mst_weights(weight_matrix: np.ndarray) -> np.ndarray:
    """Sorted edge weights of an MST over a dense symmetric weight matrix."""
    n = len(weight_matrix)
    edges = [(weight_matrix[i, j], i, j)
             for i in range(n) for j in range(i + 1, n)]
    edges.sort()
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    picked = []
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
            picked.append(w)
            if len(picked) == n - 1:
                break
    return np.sort(np.array(picked))


def components_under_cut(weight_matrix: np.ndarray, cut: float) -> list[set[int]]:
    """Connected components of the graph keeping edges with weight < cut
    (single-linkage clusters at that level)."""
    n = len(weight_matrix)
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for u in range(n):
                if not seen[u] and weight_matrix[v, u] < cut:
                    seen[u] = True
                    comp.add(u)
                    stack.append(u)
        comps.append(comp)
    return comps


def plane_from_three(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray):
    n = np.cross(p1 - p0, p2 - p0)
    mag = np.linalg.norm(n)
    if mag < 1e-12:
        return None
    n = n / mag
    return n, -float(n @ p0)


def best_plane_inliers_exhaustive(points: np.ndarray, subsample: np.ndarray,
                                  thresh: float) -> int:
    """Max inlier count over all 3-subsets of the subsample, measured on all points."""
    best = 0
    for i, j, k in itertools.combinations(range(len(subsample)), 3):
        model = plane_from_three(subsample[i], subsample[j], subsample[k])
        if model is None:
            continue
        n, d = model
        count = int((np.abs(points @ n + d) <= thresh).sum())
        best = max(best, count)
    return best


def lsq_plane(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares plane via the covariance eigenproblem; (unit normal, d)."""
    c = points.mean(0)
    rel = points - c
    w, v = np.linalg.eigh(rel.T @ rel)
    n = v[:, 0]
    return n, -float(n @ c)


def weighted_poly2_height_fit(rel_uvh: np.ndarray, weights: np.ndarray,
                              eval_uv: np.ndarray) -> float:
    """Weighted order-2 polynomial height fit evaluated at one (u, v)."""
    u, v, h = rel_uvh[:, 0], rel_uvh[:, 1], rel_uvh[:, 2]
    a = np.stack([np.ones_like(u), u, v, u * u, u * v, v * v], axis=1)
    sw = np.sqrt(weights)
    coeff, *_ = np.linalg.lstsq(a * sw[:, None], h * sw, rcond=None)
    ue, ve = eval_uv
    terms = np.array([1.0, ue, ve, ue * ue, ue * ve, ve * ve])
    return float(terms @ coeff)


def correlate_3x3_replicated(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """9-tap float64 cross-correlation with edge-replicated borders."""
    padded = np.pad(values.astype(np.float64), 1, mode="edge")
    h, w = values.shape
    out = np.zeros((h, w), dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            out += kernel[dy, dx] * padded[dy:dy + h, dx:dx + w]
    return out


_GAUSSIAN_3X3 = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]) / 16.0
_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
_SOBEL_Y = np.array([[1, 2, 1], [0, 0, 0], [-1, -2, -1]], dtype=np.float64)


def smooth_3x3(pixels: np.ndarray) -> np.ndarray:
    """Binomial smoothing rounded half to even, clipped to 8 bits."""
    out = correlate_3x3_replicated(pixels, _GAUSSIAN_3X3)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def sobel(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float64 gx, gy and their hypotenuse."""
    gx = correlate_3x3_replicated(pixels, _SOBEL_X)
    gy = correlate_3x3_replicated(pixels, _SOBEL_Y)
    return gx, gy, np.hypot(gx, gy)


def canny(pixels: np.ndarray, sigma: float) -> np.ndarray:
    """Median-threshold Canny over the full frame: per-pixel direction sector,
    non-maximum suppression against edge-padded neighbours, and hysteresis by
    set membership of the labels that hold a strong pixel."""
    gx, gy, mag = sobel(pixels)
    deg = (np.degrees(np.arctan2(gy, gx)) + 360.0) % 360.0
    sector = (np.floor((deg + 22.5) / 45.0).astype(np.int64)) % 8
    offsets = ((1, 0), (1, -1), (0, 1), (-1, -1), (-1, 0), (-1, 1), (0, -1), (1, 1))
    padded = np.pad(mag, 1, mode="edge")
    h, w = mag.shape
    keep = np.zeros((h, w), dtype=bool)
    for s, (dx, dy) in enumerate(offsets):
        nxt = padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
        prv = padded[1 - dy:1 - dy + h, 1 - dx:1 - dx + w]
        keep |= (sector == s) & (mag > prv) & (mag >= nxt)
    med = float(np.median(pixels))
    weak = keep & (mag > max(0.0, (1.0 - sigma) * med))
    strong = keep & (mag > min(255.0, (1.0 + sigma) * med))
    labels, _ = ndimage.label(weak, structure=np.ones((3, 3), dtype=bool))
    strong_labels = np.unique(labels[strong])
    return np.isin(labels, strong_labels[strong_labels > 0])


def contours(edges: np.ndarray) -> list[tuple]:
    """Nested contours of an edge map, scanning the full frame for every lookup.

    Returns (filled_indices, parent_index, depth) per enclosed free-space
    region in raster order of its first pixel. First pixels come from
    ``np.unique`` over the whole label image and pixel lists from whole-frame
    comparisons. Nesting chains containers: the pixel above a component's
    first pixel belongs to what surrounds it, so a region sits in a stroke
    and a stroke in a region. A filled polygon is the region, the strokes it
    holds and its children's filled polygons.
    """
    h, w = edges.shape
    dilated = ndimage.binary_dilation(edges, structure=np.ones((3, 3), dtype=bool))
    free, n_free = ndimage.label(~dilated)
    strokes, n_strokes = ndimage.label(dilated, structure=np.ones((3, 3), dtype=bool))
    border = np.zeros((h, w), dtype=bool)
    border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
    outside = set(np.unique(free[border]).tolist())
    enclosed = [lab for lab in range(1, n_free + 1) if lab not in outside]

    def first_pixels(labels):
        values, idx = np.unique(labels.ravel(), return_index=True)
        return dict(zip(values.tolist(), idx.tolist()))

    def container_above(flat_idx, labels):
        y, x = divmod(flat_idx, w)
        return int(labels[y - 1, x]) if y > 0 else -1

    free_first, stroke_first = first_pixels(free), first_pixels(strokes)
    stroke_in = {s: container_above(stroke_first[s], free) for s in range(1, n_strokes + 1)}
    parent = {}
    for lab in enclosed:
        p = stroke_in[container_above(free_first[lab], strokes)]
        parent[lab] = p if p in enclosed else None

    def filled(lab):
        parts = [np.flatnonzero(free.ravel() == lab)]
        parts += [np.flatnonzero(strokes.ravel() == s)
                  for s, c in stroke_in.items() if c == lab]
        parts += [filled(c) for c in enclosed if parent[c] == lab]
        return np.concatenate(parts)

    out = []
    for lab in enclosed:
        depth, p = 0, parent[lab]
        while p is not None:
            depth, p = depth + 1, parent[p]
        out.append((np.sort(filled(lab)),
                    enclosed.index(parent[lab]) if parent[lab] is not None else None,
                    depth))
    return out


def map_mask_to_cloud(bits: np.ndarray, homography, cloud) -> np.ndarray:
    """Valid cloud points under a mask bitmap, one per distinct depth cell in
    ascending cell order: all set bits mapped at once, rounded to the nearest
    cell, out-of-grid and invalid cells dropped."""
    ys, xs = np.divmod(np.flatnonzero(bits), bits.shape[1])
    homog = np.column_stack([xs, ys, np.ones(len(xs))]).astype(np.float64)
    mapped = homog @ homography.h.T
    mapped = mapped[:, :2] / mapped[:, 2:3]
    u = np.rint(mapped[:, 0]).astype(np.int64)
    v = np.rint(mapped[:, 1]).astype(np.int64)
    inside = (u >= 0) & (u < cloud.width) & (v >= 0) & (v < cloud.height)
    u, v = u[inside], v[inside]
    ok = cloud.valid[v, u]
    cells = np.unique(v[ok] * cloud.width + u[ok])
    return cloud.points.reshape(-1, 3)[cells]


def prim_mst(points: np.ndarray, core: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prim over mutual-reachability rows, one vertex per step: an in-tree
    mask, lowest-index argmin and a strict improvement test. Returns the
    edges (source, joined vertex) in join order and their weights."""
    n = len(points)

    def row(j):
        d = np.linalg.norm(points - points[j], axis=1)
        return np.maximum(np.maximum(core, core[j]), d)

    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = row(0)
    best[0] = np.inf
    src = np.zeros(n, dtype=np.int64)
    edges = np.empty((n - 1, 2), dtype=np.int64)
    weights = np.empty(n - 1)
    for step in range(n - 1):
        j = int(np.argmin(best))
        edges[step] = (src[j], j)
        weights[step] = best[j]
        in_tree[j] = True
        best[j] = np.inf
        r = row(j)
        upd = ~in_tree & (r < best)
        best[upd] = r[upd]
        src[upd] = j
    return edges, weights


def single_linkage(edges: np.ndarray, weights: np.ndarray, n: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dendrogram (children, distances, sizes) by union-find over the edges
    in stable ascending weight order, on numpy arrays."""
    order = np.argsort(weights, kind="stable")
    parent = np.arange(n)
    current = np.arange(n)
    sizes = np.ones(2 * n - 1, dtype=np.int64)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    children = np.empty((n - 1, 2), dtype=np.int64)
    distances = np.empty(n - 1)
    for step, e in enumerate(order):
        ra, rb = find(int(edges[e, 0])), find(int(edges[e, 1]))
        children[step] = (current[ra], current[rb])
        distances[step] = weights[e]
        sizes[n + step] = sizes[current[ra]] + sizes[current[rb]]
        parent[rb] = ra
        current[ra] = n + step
    return children, distances, sizes


@dataclass
class CondensedNode:
    """One cluster of the condensed hierarchy, as a mutable record."""

    node_id: int
    parent_id: Optional[int]
    lambda_birth: float
    size: int
    stability: float
    children: list[int] = field(default_factory=list)


def condense_nodes(children: np.ndarray, distances: np.ndarray, sizes: np.ndarray,
                   n: int, min_cluster_size: int
                   ) -> tuple[dict[int, CondensedNode], np.ndarray]:
    """Condensed hierarchy as a dict of node records filled in by a stack walk
    down the dendrogram, with stabilities accumulated record by record.
    Returns (nodes, cluster each point departed from)."""
    min_distance = 1e-12
    lam = np.where(distances > min_distance, 1.0 / np.maximum(distances, min_distance),
                   1.0 / min_distance).tolist()
    merged = children.tolist()
    sizes = sizes.tolist()
    nodes = {0: CondensedNode(0, None, 0.0, n, 0.0)}
    point_cluster = [0] * n
    point_lambda = [0.0] * n
    next_id = 1

    def leaves_of(node):
        out, stack = [], [node]
        while stack:
            v = stack.pop()
            if v < n:
                out.append(v)
            else:
                stack.extend(merged[v - n])
        return out

    stack = [(2 * n - 2, 0)]
    while stack:
        node, cluster = stack.pop()
        if node < n:
            continue
        left, right = merged[node - n]
        lv = lam[node - n]
        ls, rs = sizes[left], sizes[right]
        if ls >= min_cluster_size and rs >= min_cluster_size:
            for child, size in ((left, ls), (right, rs)):
                cid = next_id
                next_id += 1
                nodes[cid] = CondensedNode(cid, cluster, lv, size, 0.0)
                nodes[cluster].children.append(cid)
                stack.append((child, cid))
        else:
            for child, size in ((left, ls), (right, rs)):
                if size >= min_cluster_size:
                    stack.append((child, cluster))
                else:
                    for p in leaves_of(child):
                        point_cluster[p] = cluster
                        point_lambda[p] = lv

    for cid, lp in zip(point_cluster, point_lambda):
        c = nodes[cid]
        c.stability += lp - c.lambda_birth
    for node in nodes.values():
        if node.parent_id is not None:
            nodes[node.parent_id].stability += node.size * (
                node.lambda_birth - nodes[node.parent_id].lambda_birth)
    return nodes, np.array(point_cluster, dtype=np.int64)


def select_nodes(nodes: dict[int, CondensedNode], point_cluster: np.ndarray
                 ) -> tuple[list[int], np.ndarray]:
    """Excess-of-mass selection by propagated stabilities and a stack walk
    from the root that stops at the first chosen cluster; each point then
    takes the label of the nearest selected cluster up its departure
    cluster's chain. Returns (selected ids ascending, point labels)."""
    propagated, chosen = {}, {}
    for nid in sorted(nodes, reverse=True):
        node = nodes[nid]
        child_sum = sum(propagated[c] for c in node.children)
        if node.children and child_sum > node.stability:
            propagated[nid] = child_sum
            chosen[nid] = False
        else:
            propagated[nid] = node.stability
            chosen[nid] = True

    selected = []
    stack = [0]
    while stack:
        nid = stack.pop()
        if chosen[nid]:
            selected.append(nid)
        else:
            stack.extend(nodes[nid].children)
    selected.sort()

    labels = np.full(len(point_cluster), -1, dtype=np.int64)
    for i, cid in enumerate(point_cluster.tolist()):
        while cid is not None and cid not in selected:
            cid = nodes[cid].parent_id
        if cid is not None:
            labels[i] = selected.index(cid)
    return selected, labels


def radius_neighborhoods(points: np.ndarray, radius: float, min_count: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, index, present) from one ball query per point, as lists."""
    neighborhoods = cKDTree(points).query_ball_point(points, r=radius)
    for nb in neighborhoods:
        nb.sort()
    counts = np.array([len(nb) for nb in neighborhoods], dtype=np.int64)
    rows = np.flatnonzero(counts >= min_count)
    present = np.arange(counts[rows].max(initial=0)) < counts[rows, None]
    index = np.zeros(present.shape, dtype=np.int64)
    index[present] = np.fromiter(itertools.chain.from_iterable(neighborhoods[i] for i in rows),
                                 dtype=np.int64, count=int(counts[rows].sum()))
    return rows, index, present


def polynomial_design(u: np.ndarray, v: np.ndarray, order: int) -> np.ndarray:
    cols = [np.ones_like(u), u, v]
    if order == 2:
        cols += [u * u, u * v, v * v]
    return np.stack(cols, axis=-1)


def padded_mls_resample(points: np.ndarray, radius: float, order: int = 2) -> np.ndarray:
    """MLS projection over neighborhoods padded to the largest one, with one
    pseudo-inverse of the weighted (k, terms) design block per point."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    if n == 0:
        return pts.copy()
    min_neighbors = (order + 1) * (order + 2) // 2

    act_idx, nbr_idx, present = radius_neighborhoods(pts, radius, min_neighbors)
    if len(act_idx) == 0:
        return pts.copy()

    nbr = pts[nbr_idx]                                   # (m, k, 3)
    d2 = ((nbr - pts[act_idx, None, :]) ** 2).sum(-1)
    sigma = radius / 2.0
    w = np.exp(-d2 / (2.0 * sigma * sigma)) * present    # (m, k)

    wsum = w.sum(1, keepdims=True)
    centroid = (nbr * w[..., None]).sum(1) / wsum        # (m, 3)
    rel = (nbr - centroid[:, None, :]) * present[..., None]
    cov = np.einsum("mki,mk,mkj->mij", rel, w, rel)
    _, evecs = np.linalg.eigh(cov)
    normal = evecs[..., 0]
    e_u = evecs[..., 2]
    e_v = evecs[..., 1]

    u = np.einsum("mki,mi->mk", rel, e_u) / radius
    v = np.einsum("mki,mi->mk", rel, e_v) / radius
    hgt = np.einsum("mki,mi->mk", rel, normal)

    design = polynomial_design(u, v, order)              # (m, k, terms)
    sw = np.sqrt(w)
    b = design * sw[..., None]
    rhs = hgt * sw
    coeff = np.einsum("mtk,mk->mt", np.linalg.pinv(b), rhs)

    rel_p = pts[act_idx] - centroid
    up = np.einsum("mi,mi->m", rel_p, e_u) / radius
    vp = np.einsum("mi,mi->m", rel_p, e_v) / radius
    terms = polynomial_design(up, vp, order)
    fit_h = np.einsum("mt,mt->m", terms, coeff)

    out = pts.copy()
    out[act_idx] = (centroid
                    + up[:, None] * radius * e_u
                    + vp[:, None] * radius * e_v
                    + fit_h[:, None] * normal)
    return out


def padded_normals(points: np.ndarray, radius: float,
                   viewpoint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius-PCA normals from centred padded neighborhood blocks, oriented
    toward the viewpoint; returns (normals, defined)."""
    n = len(points)
    normals = np.zeros((n, 3))
    candidates, nbr_idx, present = radius_neighborhoods(points, radius, 3)
    defined = np.zeros(n, dtype=bool)
    if len(candidates) == 0:
        return normals, defined

    nbr = points[nbr_idx]
    cnt = present.sum(1).astype(float)
    centroid = (nbr * present[..., None]).sum(1) / cnt[:, None]
    rel = (nbr - centroid[:, None, :]) * present[..., None]
    cov = np.einsum("mki,mkj->mij", rel, rel) / cnt[:, None, None]
    evals, evecs = np.linalg.eigh(cov)
    ok = (evals[:, 2] > 0) & (evals[:, 1] > 1e-9 * evals[:, 2])

    nrm = evecs[..., 0]
    flip = np.einsum("mi,mi->m", nrm, viewpoint[None, :] - points[candidates]) < 0
    nrm[flip] = -nrm[flip]

    normals[candidates[ok]] = nrm[ok]
    defined[candidates[ok]] = True
    return normals, defined


def voxel_centroids(points: np.ndarray, leaf: float) -> np.ndarray:
    """Per-voxel centroids in z-major key order via unique rows and add.at."""
    keys = np.floor(points / leaf).astype(np.int64)
    _, inverse = np.unique(keys[:, ::-1], axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    sums = np.zeros((int(inverse.max()) + 1, 3))
    np.add.at(sums, inverse, points)
    return sums / np.bincount(inverse).astype(float)[:, None]


def ransac_loop(points: np.ndarray, dist_thresh: float, max_iter: int,
                rng: np.random.Generator):
    """Score one sampled plane at a time and keep the first best.

    Returns (consensus mask, unit normal, offset) of the winning hypothesis,
    or None when every sampled triple was degenerate.
    """
    n = len(points)
    triples = np.vstack([_sample_triples(rng, n, min(RANSAC_BLOCK, max_iter - start))
                         for start in range(0, max_iter, RANSAC_BLOCK)])
    best = None
    best_count = 0
    for i, j, k in triples:
        v1 = points[j] - points[i]
        v2 = points[k] - points[i]
        nrm = np.cross(v1, v2)
        mag = np.linalg.norm(nrm)
        if mag < 1e-12 * max(np.linalg.norm(v1) * np.linalg.norm(v2), 1e-300):
            continue
        nrm = nrm / mag
        offset = nrm @ points[i]
        hits = np.abs(points @ nrm - offset) <= dist_thresh
        if int(hits.sum()) > best_count:
            best_count = int(hits.sum())
            best = (hits, nrm, offset)
    return best


def slab_intersect_box(origin: np.ndarray, dirs: np.ndarray, box
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Slab test of all rays against one oriented box.

    Returns (t, is_top): entry parameter (inf for misses) and whether the entry
    face is the box's +z face.
    """
    rot = box.pose.rotation
    o_b = (origin - box.pose.translation_array()) @ rot
    d_b = dirs @ rot
    half = box.half_extents_m()

    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (-half - o_b) / d_b
        t_hi = (half - o_b) / d_b
    t_min = np.minimum(t_lo, t_hi)
    t_max = np.maximum(t_lo, t_hi)
    # 0/0 produces NaN when a ray grazes a slab boundary; treat that slab as
    # non-constraining for the ray.
    t_min = np.where(np.isnan(t_min), -np.inf, t_min)
    t_max = np.where(np.isnan(t_max), np.inf, t_max)
    t_enter = t_min.max(axis=1)
    t_exit = t_max.min(axis=1)
    hit = (t_enter <= t_exit) & (t_exit > 0) & (t_enter > 1e-9)

    enter_axis = t_min.argmax(axis=1)
    top = (enter_axis == 2) & (d_b[:, 2] < 0)

    t = np.where(hit, t_enter, np.inf)
    return t, top & hit


def cast_all_rays(scene, cam, boxes=None):
    """Nearest-hit ray cast of every box against every ray of the frame.
    Returns flat arrays (t, kind, is_top, dirs).

    kind holds the box index for box hits, or the bin (floor and walls) or
    miss marker.
    """
    if boxes is None:
        boxes = scene.boxes
    origin = np.array([0.0, 0.0, scene.mount_height_m])
    uu, vv = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    dirs_s = np.stack([(uu - cam.cx) / cam.fx, (vv - cam.cy) / cam.fy,
                       np.ones_like(uu, dtype=float)], axis=-1).reshape(-1, 3)
    dirs_w = dirs_s @ synth._SENSOR_AXES_IN_WORLD.T

    n = len(dirs_s)
    t_best = np.full(n, np.inf)
    kind = np.full(n, synth._KIND_MISS, dtype=np.int64)
    is_top = np.zeros(n, dtype=bool)

    # Floor: the plane z=0 clipped to the bin footprint. dirs have sensor-z 1,
    # so the hit parameter equals the mount height for every ray.
    bx, by = (v / 1000.0 for v in scene.bin_size_mm)
    t_floor = scene.mount_height_m
    floor_xy = origin[:2] + t_floor * dirs_w[:, :2]
    on_floor = (np.abs(floor_xy[:, 0]) <= bx / 2) & (np.abs(floor_xy[:, 1]) <= by / 2)
    t_best[on_floor] = t_floor
    kind[on_floor] = synth._KIND_BIN

    for idx, box in enumerate((*boxes, *synth._wall_boxes(scene))):
        is_box = idx < len(boxes)
        t, top = synth._intersect_box(origin, dirs_w, box)
        closer = t < t_best
        t_best[closer] = t[closer]
        kind[closer] = idx if is_box else synth._KIND_BIN
        is_top[closer] = top[closer] & is_box

    return t_best, kind, is_top, dirs_s


def points_inside_quad_loop(points: np.ndarray, quad: np.ndarray) -> bool:
    center = quad.mean(0)
    angles = np.arctan2(quad[:, 1] - center[1], quad[:, 0] - center[0])
    ordered = quad[np.argsort(angles)]
    for p in points:
        signs = []
        for i in range(4):
            a, b = ordered[i], ordered[(i + 1) % 4]
            e, r = b - a, p - a
            signs.append(e[0] * r[1] - e[1] * r[0])
        signs = np.array(signs)
        if not ((signs > 1e-9).all() or (signs < -1e-9).all()):
            return False
    return True
