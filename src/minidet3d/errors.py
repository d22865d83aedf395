"""Exception types shared across the package."""


class MiniDetError(Exception):
    """Base class for all package-specific errors."""


class GimbalRisk(MiniDetError):
    """A rigid transform tilts a box's vertical axis; yaw-only boxes cannot represent it."""


class EmptyBatch(MiniDetError):
    """An aggregate was requested over zero samples."""


class DegenerateOverlap(MiniDetError):
    """IoU gradient requested at IoU exactly 0 or 1, where no useful gradient exists."""


class NonSmoothPoint(MiniDetError):
    """The IoU loss has a kink here: a corner lies on the other box's edge, an edge
    crossing lies at an edge end, or top or bottom faces are flush."""


class RankTooLarge(MiniDetError):
    """Adapter rank exceeds min(d_in, d_out)."""


class ShapeMismatch(MiniDetError):
    """Matrix/vector dimensions are incompatible."""


class StaleActivation(MiniDetError):
    """Backward pass requested without a matching forward pass."""


class LengthMismatch(MiniDetError):
    """Paired batches have different lengths."""


class EpochOutOfRange(MiniDetError):
    """Epoch index outside [1, total_epochs]."""


class ParseError(MiniDetError):
    """A scene file record, a features file or an eval report failed validation,
    or an input file could not be read as JSON.

    `field` names the offending location, e.g. "records[3].ego_to_global.rotation",
    "report.categories[0].iou", or the file's path.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class SchemaVersionMismatch(MiniDetError):
    """Scene file declares an unsupported schema version."""


class EmptyCounts(MiniDetError):
    """Confusion counts sum to zero."""


class NoPositives(MiniDetError):
    """Recall undefined: no positive ground truth (TP + FN == 0)."""


class EmptyTable(MiniDetError):
    """Category table requested with no categories."""


class ConfigError(MiniDetError):
    """Run configuration is invalid (unknown key, bad value, missing file)."""


class CheckpointError(MiniDetError, ValueError):
    """A model checkpoint is malformed. The message names the file and the bad part:
    magic, version, header length, header, header.<key> or weights. It is also a
    ValueError, which the checkpoint loader raised before this type existed."""


class DivergenceError(MiniDetError):
    """Training went non-finite or predicted a non-positive box size."""
