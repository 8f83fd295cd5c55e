from .layers import (
    PLIFConfig,
    plif_step,
    NetworkSpec,
    Network,
    SpikeRecord,
    audit_spike_purity,
    ConvLayer,
    BatchNormLayer,
    PLIFLayer,
)
from .builders import (
    build_vgg,
    build_squeezenet,
    build_mobilenet,
    build_densenet,
    build_toy_classifier,
)
from .transforms import fuse_bn_into_conv, fuse_network, dwsep_to_normal_conv, convert_dwsep_network

__all__ = [
    "PLIFConfig",
    "plif_step",
    "NetworkSpec",
    "Network",
    "SpikeRecord",
    "audit_spike_purity",
    "ConvLayer",
    "BatchNormLayer",
    "PLIFLayer",
    "build_vgg",
    "build_squeezenet",
    "build_mobilenet",
    "build_densenet",
    "build_toy_classifier",
    "fuse_bn_into_conv",
    "fuse_network",
    "dwsep_to_normal_conv",
    "convert_dwsep_network",
]
