"""Byte mutations of small valid input files, sent through the command line.

Every case must end in a documented exit code (0, 2 for an input error, 3 for
a config error) and never in an escaping exception.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from binpick import cli

SCENE = {"rgb_resolution": [96, 72], "depth_resolution": [48, 36], "noise_sigma_m": 0.002,
         "seed": 3, "boxes": [{"dimensions_mm": [200, 150, 60], "position_mm": [0, 0, 30],
                               "face_intensity": 210}]}

# The command that reads each file; a file name stands for its path.
COMMANDS = {
    "image.pgm": ["segment", "image.pgm", "--config", "config.json", "--out", "out"],
    "cloud.ply": ["localize", "cloud.ply", "mask_parent.pgm", "--config", "config.json"],
    "mask_parent.pgm": ["localize", "cloud.ply", "mask_parent.pgm",
                        "--config", "config.json"],
    "config.json": ["pipeline", "image.pgm", "cloud.ply", "--config", "config.json"],
    "scene.json": ["synth", "scene.json", "--out", "out"],
    "report.json": ["verify", "report.json", "truth.json"],
    "truth.json": ["verify", "report.json", "truth.json"],
}


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The valid file of each kind, by name, as bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "scene.json").write_text(json.dumps(SCENE))
    assert quiet_main(["synth", str(root / "scene.json"), "--out", str(root)]) == 0
    truth = json.loads((root / "truth.json").read_text())
    (root / "config.json").write_text(json.dumps({
        "rgb_to_depth_homography": truth["rgb_to_depth_homography"],
        "roi": [2, 2, 92, 68], "canny_sigma": 0.33, "min_cluster_size": 20, "seed": 1}))
    assert quiet_main(["segment", str(root / "image.pgm"), "--config", str(root / "config.json"),
                       "--out", str(root / "masks")]) == 0
    (root / "masks" / "mask_00_parent.pgm").rename(root / "mask_parent.pgm")
    assert quiet_main(["pipeline", str(root / "image.pgm"), str(root / "cloud.ply"),
                       "--config", str(root / "config.json"),
                       "--out", str(root / "report.json")]) == 0
    return {name: (root / name).read_bytes() for name in COMMANDS}


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, at, byte in edits:
        i = at % (len(buf) + 1)
        if kind == "flip" and i < len(buf):
            buf[i] ^= 1 << (byte % 8)
        elif kind == "insert":
            buf[i:i] = bytes([byte])
        elif kind == "delete":
            del buf[i:i + 1]
        elif kind == "truncate":
            del buf[i:]
    return bytes(buf)


# At most three edits keep a mutated resolution or count to a few more digits,
# so every case stays small enough to render and run in well under a second.
EDITS = st.lists(st.tuples(st.sampled_from(["flip", "insert", "delete", "truncate"]),
                           st.integers(0, 2**20),
                           st.one_of(st.sampled_from(b"0123456789-.e,[]{}\" \n"),
                                     st.integers(0, 255))),
                 min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(COMMANDS)), edits=EDITS)
def test_mutated_input_ends_in_documented_exit_code(valid_files, name, edits):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": str(Path(tmp) / "out")}
        for other, data in valid_files.items():
            path = Path(tmp) / other
            path.write_bytes(mutate(data, edits) if other == name else data)
            paths[other] = str(path)
        assert quiet_main([paths.get(arg, arg) for arg in COMMANDS[name]]) in (0, 2, 3)
