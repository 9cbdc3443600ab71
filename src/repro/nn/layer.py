"""CONV/FC layer shape parameters (Table I of the paper) and derived counts.

The paper describes a CONV layer by the shape parameters of Table I:

=====  =========================================================
N      batch size of 3D fmaps
M      number of 3D filters / ofmap channels
C      number of ifmap / filter channels
H      ifmap plane width/height (padded)
R      filter plane width/height (= H for FC layers)
E      ofmap plane width/height (= 1 for FC layers)
U      convolution stride
=====  =========================================================

with ``E = (H - R + U) / U`` (Eq. (1)).  A fully-connected layer is the
degenerate case ``H = R, E = 1, U = 1``.

Two modern-workload extensions generalize Table I without disturbing the
paper's shapes (both default to the paper's implicit values):

=======  =======================================================
groups   channel groups G: each of the M filters sees only
         C/G ifmap channels (G=C is a depthwise conv)
dilation dilation rate D: filter taps are spaced D pixels apart,
         so a filter plane spans ``D*(R-1)+1`` ifmap pixels
=======  =======================================================

Dilation changes *where* the R^2 taps land, not how many there are, so
Eq. (1) becomes ``E = (H - (D*(R-1)+1) + U) / U`` while the MAC count
keeps its ``R^2`` factor.  Grouping divides the reduction depth: MACs
become ``N*M*(C/G)*E^2*R^2`` and each filter carries ``(C/G)*R^2``
weights.

Everything downstream of this module (mappings, energy model, simulator)
consumes :class:`LayerShape`; the derived properties here are the single
source of truth for MAC counts, data volumes and per-value reuse budgets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


class LayerType(enum.Enum):
    """Kind of layer, as classified in Section III-A."""

    CONV = "CONV"
    FC = "FC"
    POOL = "POOL"


@dataclass(frozen=True)
class LayerShape:
    """Shape configuration of a single CONV/FC/POOL layer.

    Attributes mirror Table I.  ``H`` is the *padded* ifmap size, as in
    Table II of the paper (e.g. AlexNet CONV1 uses H=227 after padding).
    """

    name: str
    H: int
    R: int
    E: int
    C: int
    M: int
    U: int = 1
    N: int = 1
    layer_type: LayerType = LayerType.CONV
    groups: int = 1
    dilation: int = 1

    def __post_init__(self) -> None:
        for field_name in ("H", "R", "E", "C", "M", "U", "N", "groups",
                           "dilation"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"{self.name}: shape parameter {field_name} must be a "
                    f"positive integer, got {value!r}"
                )
        if self.layer_type is not LayerType.CONV:
            if self.groups != 1 or self.dilation != 1:
                raise ValueError(
                    f"{self.name}: groups/dilation are CONV-only shape "
                    f"parameters (got groups={self.groups}, "
                    f"dilation={self.dilation} on a "
                    f"{self.layer_type.value} layer)"
                )
        if self.C % self.groups or self.M % self.groups:
            raise ValueError(
                f"{self.name}: groups={self.groups} must divide both "
                f"C={self.C} and M={self.M}"
            )
        if self.R_eff > self.H:
            raise ValueError(
                f"{self.name}: dilated filter extent "
                f"D*(R-1)+1={self.R_eff} exceeds ifmap size H={self.H}"
            )
        expected_e = (self.H - self.R_eff + self.U) // self.U
        if self.E != expected_e:
            raise ValueError(
                f"{self.name}: inconsistent shape, expected "
                f"E=(H-(D*(R-1)+1)+U)/U={expected_e} but got E={self.E}"
            )
        if self.layer_type is LayerType.FC:
            if not (self.H == self.R and self.E == 1 and self.U == 1):
                raise ValueError(
                    f"{self.name}: FC layers require H=R, E=1, U=1 "
                    f"(got H={self.H}, R={self.R}, E={self.E}, U={self.U})"
                )

    # ------------------------------------------------------------------
    # Derived counts used throughout the energy analysis.
    # ------------------------------------------------------------------

    @property
    def is_fc(self) -> bool:
        """True for fully-connected layers (H=R, E=1)."""
        return self.layer_type is LayerType.FC

    @property
    def is_depthwise(self) -> bool:
        """True for depthwise convolutions (one channel group per channel)."""
        return self.groups == self.C and self.groups > 1

    @property
    def R_eff(self) -> int:
        """Dilated filter extent in ifmap pixels: D*(R-1)+1.

        The R^2 taps of a dilated filter are spread D pixels apart, so a
        sliding window covers ``R_eff`` rows/columns of the ifmap even
        though only R of them are touched per axis.  With D=1 this is R.
        """
        return self.dilation * (self.R - 1) + 1

    @property
    def channels_per_group(self) -> int:
        """Ifmap/filter channels each filter actually reduces over: C/G."""
        return self.C // self.groups

    @property
    def filters_per_group(self) -> int:
        """Filters (ofmap channels) produced by each channel group: M/G."""
        return self.M // self.groups

    @property
    def macs(self) -> int:
        """Total multiply-accumulate operations: N*M*(C/G)*E^2*R^2 (Eq. (1)).

        With ``groups == 1`` this is the paper's N*M*C*E^2*R^2; grouping
        shrinks each filter's reduction depth to C/G channels.
        """
        return self.N * self.M * self.channels_per_group * self.E**2 * self.R**2

    @property
    def ifmap_words(self) -> int:
        """Unique ifmap values in the layer: N*C*H^2."""
        return self.N * self.C * self.H**2

    @property
    def filter_words(self) -> int:
        """Unique filter weights: M*(C/G)*R^2."""
        return self.M * self.channels_per_group * self.R**2

    @property
    def ofmap_words(self) -> int:
        """Unique ofmap values: N*M*E^2."""
        return self.N * self.M * self.E**2

    @property
    def ifmap_reuse(self) -> float:
        """Average number of MACs each ifmap value feeds (T_i).

        Each ifmap pixel is used by up to R^2/U^2 positions per filter plane
        and by all M filters; averaged exactly as MACs / unique ifmap values,
        which accounts for stride and plane edges.
        """
        return self.macs / self.ifmap_words

    @property
    def filter_reuse(self) -> int:
        """Number of MACs each filter weight feeds: T_w = N*E^2."""
        return self.N * self.E**2

    @property
    def psum_accumulations(self) -> int:
        """Accumulations per ofmap value: T_p = (C/G)*R^2 (Section III-B)."""
        return self.channels_per_group * self.R**2

    @property
    def ifmap_row_words(self) -> int:
        """Length of one (padded) ifmap row: H."""
        return self.H

    @property
    def ofmap_row_words(self) -> int:
        """Length of one ofmap row: E."""
        return self.E

    def with_batch(self, batch_size: int) -> "LayerShape":
        """Return a copy of this shape with a different batch size N."""
        return replace(self, N=batch_size)

    def per_group(self) -> "LayerShape":
        """The dense sub-conv one channel group computes.

        A grouped convolution is exactly ``groups`` independent dense
        convolutions, each over C/G ifmap channels producing M/G ofmap
        channels on the same spatial extents.  The dataflow enumerators
        map this sub-shape and scale the data volumes back up by G
        (:func:`repro.dataflows.base.regroup_mapping`).  With groups=1
        this returns ``self``.
        """
        if self.groups == 1:
            return self
        return replace(self, C=self.channels_per_group,
                       M=self.filters_per_group, groups=1)

    def describe(self) -> str:
        """One-line human-readable summary of the shape."""
        extras = ""
        if self.groups != 1:
            extras += f" G={self.groups}"
        if self.dilation != 1:
            extras += f" D={self.dilation}"
        return (
            f"{self.name} [{self.layer_type.value}] "
            f"N={self.N} M={self.M} C={self.C} H={self.H} R={self.R} "
            f"E={self.E} U={self.U}{extras} ({self.macs:,} MACs)"
        )


def conv_layer(name: str, H: int, R: int, E: int, C: int, M: int, U: int = 1,
               N: int = 1, groups: int = 1, dilation: int = 1) -> LayerShape:
    """Convenience constructor for a CONV layer shape.

    ``groups`` and ``dilation`` default to 1 (a dense, undilated conv);
    pass ``groups=C`` for a depthwise layer.
    """
    return LayerShape(name=name, H=H, R=R, E=E, C=C, M=M, U=U, N=N,
                      layer_type=LayerType.CONV, groups=groups,
                      dilation=dilation)


def fc_layer(name: str, C: int, M: int, R: int = 1, N: int = 1) -> LayerShape:
    """Convenience constructor for an FC layer shape.

    FC filters are the same size as the ifmap (H = R, E = 1, U = 1); ``R``
    is the spatial extent of the (flattened) input plane, e.g. AlexNet FC1
    has R = 6 because it consumes the 6x6x256 CONV5 output.
    """
    return LayerShape(name=name, H=R, R=R, E=1, C=C, M=M, U=1, N=N,
                      layer_type=LayerType.FC)


def pool_layer(name: str, H: int, R: int, E: int, C: int, U: int,
               N: int = 1) -> LayerShape:
    """Convenience constructor for a POOL layer shape.

    POOL is a degenerate convolution where MAC is replaced with MAX and the
    channel dimension is not reduced (M = C, each channel pooled alone); we
    keep M = 1 and C = 1 per the paper's Section V-D treatment ("assuming
    N = M = C = 1 and running each fmap plane separately"), recording the
    plane count separately in ``C``-agnostic drivers.
    """
    return LayerShape(name=name, H=H, R=R, E=E, C=C, M=C, U=U, N=N,
                      layer_type=LayerType.POOL)
