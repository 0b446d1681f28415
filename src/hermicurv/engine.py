"""One-stop access to every pointwise object the package computes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connection import InducedRealConnection, induced_real_connection, real_christoffel
from .core import ChartPoint
from .curvature import (
    ChernCurvature,
    ComplexifiedCurvature,
    RealCurvature,
    chern_curvature,
    complexified_11_direct,
    complexify_curvature,
    real_curvature,
)
from .dsl import MetricDefinition
from .field import MetricJet, RealMetricJet, jet_at, real_jet_from_complex

__all__ = ["PointGeometry", "geometry_at"]


@dataclass(frozen=True)
class PointGeometry:
    """Everything at one point: jets, connections, curvatures.

    jet and rjet are built with the record, since building them runs every
    input check.  The tensors are computed on first read and kept.
    """

    metric: MetricDefinition
    jet: MetricJet
    rjet: RealMetricJet

    @property
    def point(self) -> ChartPoint:
        return self.jet.point

    @property
    def n(self) -> int:
        return self.point.n

    @cached_property
    def kr(self) -> ChernCurvature:
        return chern_curvature(self.jet)

    @cached_property
    def rc(self) -> RealCurvature:
        return real_curvature(self.rjet, real_christoffel(self.rjet))

    @cached_property
    def cx(self) -> ComplexifiedCurvature:
        return complexify_curvature(self.rc)

    @cached_property
    def mixed_11_direct(self) -> np.ndarray:
        return complexified_11_direct(self.jet)

    @cached_property
    def induced(self) -> InducedRealConnection:
        return induced_real_connection(self.jet)


def geometry_at(metric: MetricDefinition, p) -> PointGeometry:
    """The pointwise geometry of a metric.

    One symbolic jet evaluation feeds every downstream object, so calling
    this once per point and sharing the record is the cheap pattern.
    """
    jet = jet_at(metric, p)
    return PointGeometry(metric, jet, real_jet_from_complex(jet))
