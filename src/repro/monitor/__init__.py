"""Environment monitoring: samplers, history, and online estimators.

The Monitoring Agent keeps a continuously updated map of what the cloud is
*actually* delivering — per-link throughput, latency, VM CPU — by sampling
at a configurable, intrusiveness-capped frequency and folding each sample
into an online estimator. The estimator family reproduces the three sample
integration strategies compared in the evaluation:

* ``Monitor`` (:class:`LastSampleEstimator`) — trust the latest sample;
* ``LSI`` (:class:`SlidingMeanEstimator`) — linear sliding-window average;
* ``WSI`` (:class:`WeightedSampleEstimator`) — weighted integration where a
  sample's trust combines its Gaussian plausibility under the current model
  with its temporal rarity.
"""

from repro.monitor.agent import MonitoringAgent, MonitorConfig
from repro.monitor.estimators import (
    Estimator,
    EwmaEstimator,
    LastSampleEstimator,
    SlidingMeanEstimator,
    WeightedSampleEstimator,
    make_estimator,
)
from repro.monitor.history import MetricHistory, MetricPoint
from repro.monitor.linkmap import LinkEstimate, LinkPerformanceMap
from repro.monitor.samplers import (
    CpuSampler,
    PassiveLinkSampler,
    Sampler,
)

__all__ = [
    "MonitoringAgent",
    "MonitorConfig",
    "Estimator",
    "LastSampleEstimator",
    "SlidingMeanEstimator",
    "EwmaEstimator",
    "WeightedSampleEstimator",
    "make_estimator",
    "MetricHistory",
    "MetricPoint",
    "LinkPerformanceMap",
    "LinkEstimate",
    "Sampler",
    "PassiveLinkSampler",
    "CpuSampler",
]
