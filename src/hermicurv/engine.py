"""One-stop access to every pointwise object the package computes, and
the one rounding scale that every curvature flag rule at a point judges
its residual against."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connection import real_christoffel
from .core import ChartPoint, _in_range
from .curvature import (
    ComplexifiedCurvature,
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
    """Everything at one point: jets and curvatures.

    jet is built with the record, since building it runs every input
    check; the rest is computed on first read and kept.
    """

    jet: MetricJet

    @property
    def point(self) -> ChartPoint:
        return self.jet.point

    @property
    def n(self) -> int:
        return self.point.n

    @cached_property
    @_in_range("metric scale out of the floating-point range: the curvature scale overflows")
    def scale(self) -> float:
        """max|d2h| + max|dh| (max|dh| max|h_inv|), the size of the terms whose
        cancellation gives kr, which bounds rc and cx too up to constant
        factors: exactly 2^k times larger for 2^k h, and zero only for a
        constant metric, whose tensors are exact zeros."""
        jet = self.jet
        d1 = float(np.max(np.abs(jet.dh)))
        return float(np.max(np.abs(jet.d2h))) + d1 * (d1 * float(np.max(np.abs(jet.h_inv))))

    @cached_property
    def rjet(self) -> RealMetricJet:
        return real_jet_from_complex(self.jet)

    @cached_property
    def kr(self) -> np.ndarray:
        """Chern curvature kr[a, b, g, d], complex (n, n, n, n), barred
        slots b and d."""
        return chern_curvature(self.jet)

    @cached_property
    def rc(self) -> np.ndarray:
        """Riemannian curvature r[i, j, k, l], real (2n, 2n, 2n, 2n)."""
        return real_curvature(self.rjet, real_christoffel(self.rjet))

    @cached_property
    def cx(self) -> ComplexifiedCurvature:
        return complexify_curvature(self.rc)

    @cached_property
    def mixed_11_direct(self) -> np.ndarray:
        return complexified_11_direct(self.jet)


def geometry_at(metric: MetricDefinition, p) -> PointGeometry:
    """The pointwise geometry of a metric.

    One jet evaluation (the entries and their exact derivatives, in one
    forward pass) feeds every downstream object, so calling this once per
    point and sharing the record is the cheap pattern.
    """
    return PointGeometry(jet_at(metric, p))
