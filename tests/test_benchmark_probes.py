"""The benchmark's probe table still matches the program.

``perfbench/tracing.py`` wraps binpick functions by module and attribute
name and reads a few attributes of what they return. A rename or deletion in
``src/`` would break the traced benchmark without failing any other test, so
this imports that one file (and nothing else of the benchmark) and checks
every name it relies on.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from binpick.core import OrganizedCloud
from binpick.errors import EmptyClusterError
from binpick.fusion import Homography
from binpick.pipeline import PipelineConfig
from binpick.segmentation import BinaryMask

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_probe_resolves(tracing):
    assert tracing.PROBES
    for probe in tracing.PROBES:
        module = importlib.import_module(f"binpick.{probe.module}")
        assert callable(getattr(module, probe.attr)), probe


def test_fusion_probe_reads_points_and_empty_cluster_error(tracing):
    cloud = OrganizedCloud(np.ones((4, 5, 3)), np.ones((4, 5), dtype=bool))
    bits = np.zeros((4, 5), dtype=bool)
    bits[1:3, 1:4] = True
    mapped = tracing.pipeline.map_mask_to_cloud(BinaryMask(bits=bits, role="parent"),
                                                Homography(np.eye(3)), cloud)
    assert mapped.points.shape == (6, 3)
    with pytest.raises(EmptyClusterError):
        tracing.pipeline.map_mask_to_cloud(BinaryMask(bits=~np.ones_like(bits), role="child"),
                                           Homography(np.eye(3)), cloud)


def test_ransac_iterations_is_a_config_field():
    assert PipelineConfig().ransac_iterations >= 1
