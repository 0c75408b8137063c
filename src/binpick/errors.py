"""Exception types shared across the pipeline."""


class ConfigError(ValueError):
    """Configuration is malformed, inconsistent, or missing required calibration."""


class InputError(ValueError):
    """An input file (image, cloud, scene, report) is malformed or unreadable."""


class EmptyClusterError(ValueError):
    """A mask projected onto the cloud selected no valid depth points."""
