from .layers import (
    NetworkSpec,
    Network,
    SpikeRecord,
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
from .transforms import dwsep_to_normal_conv, convert_dwsep_network

__all__ = [
    "NetworkSpec",
    "Network",
    "SpikeRecord",
    "ConvLayer",
    "BatchNormLayer",
    "PLIFLayer",
    "build_vgg",
    "build_squeezenet",
    "build_mobilenet",
    "build_densenet",
    "build_toy_classifier",
    "dwsep_to_normal_conv",
    "convert_dwsep_network",
]
