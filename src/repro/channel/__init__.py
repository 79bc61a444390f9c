"""Simulated lossy/reordering channels: the paper's set-of-messages model."""

from repro.channel.channel import Channel, ChannelStats
from repro.channel.delay import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    UniformDelay,
    reorder_probability,
)
from repro.channel.impairments import (
    BernoulliLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
    ScriptedLoss,
)

__all__ = [
    "Channel",
    "ChannelStats",
    "DelayModel",
    "ConstantDelay",
    "UniformDelay",
    "ExponentialDelay",
    "reorder_probability",
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "ScriptedLoss",
]
