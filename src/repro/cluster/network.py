"""Network links between the edge site and the cloud.

Used only by the cloud-retraining comparison (§6.5, Table 4): the edge
uploads golden-model-labelled training frames over a constrained uplink and
downloads the retrained model over the downlink.  Bandwidths default to the
values the paper cites for 4G cellular and satellite links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class NetworkLink:
    """A bidirectional WAN link with fixed uplink/downlink bandwidth.

    ``loss_rate`` is the probability that a transfer crossing this link
    fails in flight.  It only takes effect on fleets built with a
    :class:`~repro.fleet.faults.WanFaultModel` (``make_fleet(wan_faults=
    ...)``), where it composes with the model's own loss rate and the far
    endpoint's link as independent loss processes; everywhere else (the
    cloud-comparison transfer-time maths) it is inert.
    """

    name: str
    uplink_mbps: float
    downlink_mbps: float
    rtt_seconds: float = 0.1
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        # Written to fail on NaN: a NaN or infinite link time reaches the
        # fleet's event calendar as a transfer arrival that cannot fire.
        if not (self.uplink_mbps > 0 and self.downlink_mbps > 0):
            raise ConfigurationError("link bandwidths must be positive")
        if not 0 <= self.rtt_seconds < math.inf:
            raise ConfigurationError("rtt_seconds must be non-negative and finite")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1)")

    def upload_seconds(self, megabits: float) -> float:
        """Seconds to upload ``megabits`` of data."""
        if megabits < 0:
            raise ConfigurationError("megabits must be non-negative")
        return megabits / self.uplink_mbps + self.rtt_seconds

    def download_seconds(self, megabits: float) -> float:
        """Seconds to download ``megabits`` of data."""
        if megabits < 0:
            raise ConfigurationError("megabits must be non-negative")
        return megabits / self.downlink_mbps + self.rtt_seconds

    def scaled(self, uplink_factor: float = 1.0, downlink_factor: float = 1.0) -> "NetworkLink":
        """A hypothetical link with more (or less) provisioned bandwidth.

        Table 4 reports how much *additional* uplink/downlink capacity the
        cloud design would need to match Ekya; this helper builds those
        hypothetical links.
        """
        if uplink_factor <= 0 or downlink_factor <= 0:
            raise ConfigurationError("bandwidth factors must be positive")
        return NetworkLink(
            name=f"{self.name} (x{uplink_factor:g}/{downlink_factor:g})",
            uplink_mbps=self.uplink_mbps * uplink_factor,
            downlink_mbps=self.downlink_mbps * downlink_factor,
            rtt_seconds=self.rtt_seconds,
            loss_rate=self.loss_rate,
        )


#: The links evaluated in Table 4 (Mbps values reported in the paper).
CELLULAR_4G = NetworkLink(name="Cellular", uplink_mbps=5.1, downlink_mbps=17.5)
SATELLITE = NetworkLink(name="Satellite", uplink_mbps=8.5, downlink_mbps=15.0)
CELLULAR_4G_X2 = NetworkLink(name="Cellular (2x)", uplink_mbps=10.2, downlink_mbps=35.0)

STANDARD_LINKS: Dict[str, NetworkLink] = {
    link.name: link for link in (CELLULAR_4G, SATELLITE, CELLULAR_4G_X2)
}


def training_data_megabits(
    *,
    stream_bitrate_mbps: float = 4.0,
    window_seconds: float = 400.0,
    sample_fraction: float = 0.1,
) -> float:
    """Megabits of sampled video uploaded per stream per retraining window.

    Matches the paper's worked example: a 4 Mbps HD stream, 10 % subsampling
    and a 400 s window give 160 Mb of training data per camera per window.
    """
    if stream_bitrate_mbps <= 0 or window_seconds <= 0:
        raise ConfigurationError("bitrate and window duration must be positive")
    if not 0.0 < sample_fraction <= 1.0:
        raise ConfigurationError("sample_fraction must be in (0, 1]")
    return stream_bitrate_mbps * window_seconds * sample_fraction
