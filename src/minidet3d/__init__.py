"""minidet3d: desk-scale 3D box perception kit.

Rotated-box geometry and exact 3D IoU, low-rank adapter algebra, a tiny
multimodal fusion model with manual backprop, a two-stage loss schedule,
scene ingestion with camera visibility filtering, and detection metrics.
"""

from .geom import Box7, CameraIntrinsics, Pose, box_corners, project_corners, transform_box
from .iou import IoUResult, iou_3d, iou_loss_grad, monte_carlo_iou
from .lora import LoRAAdapter, adapter_init, merge_adapter
from .losses import LossSchedule, schedule_weights
from .model import FusionModel, ModelConfig

__version__ = "0.1.0"

__all__ = [
    "Box7",
    "CameraIntrinsics",
    "Pose",
    "box_corners",
    "project_corners",
    "transform_box",
    "IoUResult",
    "iou_3d",
    "iou_loss_grad",
    "monte_carlo_iou",
    "LoRAAdapter",
    "adapter_init",
    "merge_adapter",
    "LossSchedule",
    "schedule_weights",
    "FusionModel",
    "ModelConfig",
    "__version__",
]
