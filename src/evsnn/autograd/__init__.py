from .tensor import Tensor, no_grad, grad_enabled, add, mul, tensor_sum, reshape, transpose
from .ops import (
    conv2d,
    maxpool2d,
    concat,
    time_sum,
    conv_plif,
    softmax_cross_entropy,
    focal_loss,
    smooth_l1,
)
from .optim import AdamW, cosine_lr, clip_grad_norm, kaiming_uniform_init
from .checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "Tensor",
    "no_grad",
    "grad_enabled",
    "add",
    "mul",
    "tensor_sum",
    "reshape",
    "transpose",
    "conv2d",
    "maxpool2d",
    "concat",
    "time_sum",
    "conv_plif",
    "softmax_cross_entropy",
    "focal_loss",
    "smooth_l1",
    "AdamW",
    "cosine_lr",
    "clip_grad_norm",
    "kaiming_uniform_init",
    "save_checkpoint",
    "load_checkpoint",
]
