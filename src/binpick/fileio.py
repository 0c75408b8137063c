"""File formats: PGM/PPM images, organized ASCII PLY clouds, JSON documents.

Clouds persist as ASCII PLY with x, y, z floats plus a ``valid`` uchar per
vertex, row-major, with the grid size recorded in a header comment
``comment organized <width> <height>``. Masks write as PGM with values 0/255.
Color PPM input converts to luma with the 0.299/0.587/0.114 weights.
"""

from __future__ import annotations

import json

import numpy as np

from .core import EulerZYX, OrganizedCloud
from .errors import InputError
from .segmentation import BinaryMask, GrayImage
from .synth import GroundTruthEntry

_LUMA = np.array([0.299, 0.587, 0.114])


def _read_netpbm_header(data: bytes) -> tuple[list[int], int]:
    """Parse a binary netpbm header; returns ([width, height, maxval], offset)."""
    fields: list[int] = []
    i = 2  # past the magic number
    while len(fields) < 3:
        if i >= len(data):
            raise InputError("truncated netpbm header")
        c = data[i:i + 1]
        if c == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            token = data[i:j]
            if not token.isdigit():
                raise InputError(f"bad netpbm header token {token!r}")
            fields.append(int(token))
            i = j
    return fields, i + 1  # single whitespace after maxval


def read_image(path) -> GrayImage:
    """Read a P5 PGM or P6 PPM (converted to luma)."""
    data = _read_file(path)
    channels = {b"P5": 1, b"P6": 3}.get(data[:2])
    if channels is None:
        raise InputError(f"{path}: not a P5/P6 netpbm file")
    (w, h, maxval), offset = _read_netpbm_header(data)
    if maxval > 255:
        raise InputError(f"{path}: only 8-bit netpbm is supported")
    body = data[offset:offset + w * h * channels]
    if len(body) != w * h * channels:
        raise InputError(f"{path}: pixel data truncated")
    raw = np.frombuffer(body, dtype=np.uint8)
    if channels == 1:
        return GrayImage(raw.reshape(h, w).copy())
    rgb = raw.reshape(h, w, 3).astype(np.float64)
    return GrayImage(np.clip(np.rint(rgb @ _LUMA), 0, 255).astype(np.uint8))


def write_pgm(path, image: GrayImage) -> None:
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.width} {image.height}\n255\n".encode())
        fh.write(image.pixels.tobytes())


def write_mask_pgm(path, mask: BinaryMask) -> None:
    write_pgm(path, GrayImage(np.where(mask.bits, 255, 0).astype(np.uint8)))


def read_mask_pgm(path, role: str, source_index: int = 0) -> BinaryMask:
    img = read_image(path)
    return BinaryMask(bits=img.pixels > 127, role=role, source_index=source_index)


def write_ply_organized(path, cloud: OrganizedCloud) -> None:
    h, w = cloud.height, cloud.width
    pts = cloud.points.reshape(-1, 3)
    val = cloud.valid.reshape(-1).astype(int)
    lines = [
        "ply",
        "format ascii 1.0",
        f"comment organized {w} {h}",
        f"element vertex {w * h}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar valid",
        "end_header",
    ]
    body = [f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g} {v}" for p, v in zip(pts, val)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines + body))
        fh.write("\n")


def read_ply_organized(path) -> OrganizedCloud:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read PLY {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise InputError("not a PLY file")
    width = height = count = None
    properties: list[str] = []
    body_start = None
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "comment" and len(parts) == 4 and parts[1] == "organized":
                width, height = int(parts[2]), int(parts[3])
            elif parts[0] == "format":
                if parts[1] != "ascii":
                    raise InputError("only ASCII PLY is supported")
            elif parts[0] == "element" and parts[1] == "vertex":
                count = int(parts[2])
            elif parts[0] == "property":
                properties.append(parts[2])
            elif parts[0] == "end_header":
                body_start = i + 1
                break
        except InputError:
            raise
        except (IndexError, ValueError) as exc:
            raise InputError(f"bad PLY header line {i + 1}: {line!r}") from exc
    if body_start is None or width is None or count is None:
        raise InputError("PLY header missing organized comment or vertex element")
    if properties != ["x", "y", "z", "valid"]:
        raise InputError(f"unexpected PLY properties {properties}")
    if width < 1 or height < 1:
        raise InputError(f"organized grid {width}x{height} is empty")
    if count != width * height:
        raise InputError("vertex count does not match the organized grid")
    rows = [ln.split() for ln in lines[body_start:body_start + count]]
    if len(rows) != count or any(len(r) != 4 for r in rows):
        raise InputError("PLY body truncated or malformed")
    try:
        arr = np.array(rows, dtype=float)
    except ValueError as exc:
        raise InputError(f"bad PLY vertex data: {exc}") from exc
    pts = arr[:, :3].reshape(height, width, 3)
    val = arr[:, 3].astype(bool).reshape(height, width)
    pts = np.where(val[..., None], pts, 0.0)
    try:
        return OrganizedCloud(points=pts, valid=val)
    except ValueError as exc:
        raise InputError(f"bad PLY vertex data: {exc}") from exc


def _read_file(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    return data


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def truth_to_dict(entries: list[GroundTruthEntry],
                  homography_flat: list[float] | None = None) -> dict:
    out = {
        "boxes": [
            {
                "centroid_mm": [float(v) for v in e.centroid_mm],
                "normal": [float(v) for v in e.normal],
                "euler_zyx_deg": list(e.euler.as_tuple()),
                "visibility": float(e.visibility),
                "priority": e.priority,
            }
            for e in entries
        ]
    }
    if homography_flat is not None:
        out["rgb_to_depth_homography"] = homography_flat
    return out


def truth_from_dict(data: dict) -> list[GroundTruthEntry]:
    try:
        entries = [
            GroundTruthEntry(
                centroid_mm=np.asarray(b["centroid_mm"], dtype=float),
                normal=np.asarray(b["normal"], dtype=float),
                euler=EulerZYX(*(float(v) for v in b["euler_zyx_deg"])),
                visibility=float(b.get("visibility", 1.0)),
                priority=b.get("priority", "parent"),
            )
            for b in data["boxes"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad ground-truth document: {exc}") from exc
    if any(e.centroid_mm.shape != (3,) or e.normal.shape != (3,) for e in entries):
        raise InputError("bad ground-truth document: centroid_mm and normal need 3 numbers")
    return entries
