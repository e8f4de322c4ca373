"""V2I link physics and execution-time arithmetic.

The wireless uplink follows a Shannon capacity model over a log-distance
path-loss channel (1 m reference distance); the backhaul to the cloud is a
fixed-rate wired pipe. Execution cost scales with task size through a
cycles-per-bit constant. Megabytes are decimal: 1 MB = 1e6 bytes = 8e6 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

BITS_PER_MB = 8_000_000.0


class LinkRangeError(ValueError):
    """The endpoints are farther apart than the V2I radio range."""


@dataclass
class LinkParams:
    """Radio and backhaul constants.

    noise_power_dbm is the receiver noise floor of the SNR computation;
    cycles_per_bit sets the compute cost of a task per bit of payload.
    """

    v2i_bandwidth_hz: float = 2.0e7
    tx_power_mw: float = 1000.0
    noise_power_dbm: float = -114.0
    path_loss_exp: float = 3.0
    v2i_range_m: float = 500.0
    wired_rate_bps: float = 5.0e7
    cycles_per_bit: float = 500.0

    def validate(self) -> None:
        positives = (
            ("v2i_bandwidth_hz", self.v2i_bandwidth_hz),
            ("tx_power_mw", self.tx_power_mw),
            ("path_loss_exp", self.path_loss_exp),
            ("v2i_range_m", self.v2i_range_m),
            ("wired_rate_bps", self.wired_rate_bps),
            ("cycles_per_bit", self.cycles_per_bit),
        )
        for name, v in positives:
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValidationError(f"{name} must be positive and finite, got {v!r}")
        v = self.noise_power_dbm
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise ValidationError(f"noise_power_dbm must be finite, got {v!r}")
        try:
            noise_mw = dbm_to_mw(v)
        except OverflowError:
            noise_mw = math.inf
        if not 0.0 < noise_mw < math.inf:
            raise ValidationError(f"noise_power_dbm={v!r} gives a noise power of {noise_mw!r} mW")
        # The rate falls with distance, so a link that carries data at the
        # 1 m reference and at the range edge carries it everywhere in range.
        for d in (0.0, self.v2i_range_m):
            try:
                snr = snr_at_distance(self, d)
            except OverflowError:
                raise ValidationError(
                    f"path_loss_exp={self.path_loss_exp!r} overflows the path loss "
                    f"at v2i_range_m={self.v2i_range_m!r}"
                ) from None
            rate = shannon_rate(self.v2i_bandwidth_hz, snr) if math.isfinite(snr) else snr
            if not 0.0 < rate < math.inf:
                raise ValidationError(
                    f"Shannon rate at {max(d, 1.0)!r} m is {rate!r} bps with "
                    f"v2i_bandwidth_hz={self.v2i_bandwidth_hz!r}, tx_power_mw={self.tx_power_mw!r}, "
                    f"noise_power_dbm={v!r}, path_loss_exp={self.path_loss_exp!r}"
                )


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def snr_at_distance(params: LinkParams, distance_m: float) -> float:
    """Linear SNR under log-distance path loss with a 1 m reference.

    Received power is tx_power / d**path_loss_exp (d clamped to the 1 m
    reference below it). Raises LinkRangeError beyond the V2I range.
    """
    if not (math.isfinite(distance_m) and distance_m >= 0.0):
        raise ValidationError(f"distance_m must be >= 0, got {distance_m!r}")
    if distance_m > params.v2i_range_m:
        raise LinkRangeError(
            f"distance {distance_m!r} m exceeds V2I range {params.v2i_range_m!r} m"
        )
    d = distance_m if distance_m > 1.0 else 1.0
    received_mw = params.tx_power_mw / (d ** params.path_loss_exp)
    return received_mw / dbm_to_mw(params.noise_power_dbm)


def shannon_rate(bandwidth_hz: float, snr: float) -> float:
    """Channel capacity B * log2(1 + snr) in bits/s."""
    if not (math.isfinite(bandwidth_hz) and bandwidth_hz > 0.0):
        raise ValidationError(f"bandwidth_hz must be positive, got {bandwidth_hz!r}")
    if not (math.isfinite(snr) and snr >= 0.0):
        raise ValidationError(f"snr must be >= 0, got {snr!r}")
    return bandwidth_hz * math.log2(1.0 + snr)


def upload_time(task_size_bits: float, rate_bps: float) -> float:
    """Transfer seconds for a payload at a fixed rate."""
    if not (math.isfinite(task_size_bits) and task_size_bits >= 0.0):
        raise ValidationError(f"task_size_bits must be >= 0, got {task_size_bits!r}")
    if not (math.isfinite(rate_bps) and rate_bps > 0.0):
        raise ValidationError(f"rate_bps must be positive, got {rate_bps!r}")
    return task_size_bits / rate_bps


def processing_time(task_size_bits: float, cycles_per_bit: float, cpu_freq_hz: float) -> float:
    """Execution seconds: size * cycles_per_bit / clock rate."""
    if not (math.isfinite(task_size_bits) and task_size_bits >= 0.0):
        raise ValidationError(f"task_size_bits must be >= 0, got {task_size_bits!r}")
    if not (math.isfinite(cycles_per_bit) and cycles_per_bit > 0.0):
        raise ValidationError(f"cycles_per_bit must be positive, got {cycles_per_bit!r}")
    if not (math.isfinite(cpu_freq_hz) and cpu_freq_hz > 0.0):
        raise ValidationError(f"cpu_freq_hz must be positive, got {cpu_freq_hz!r}")
    return task_size_bits * cycles_per_bit / cpu_freq_hz
