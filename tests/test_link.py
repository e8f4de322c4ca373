"""V2I channel, upload, and processing time model tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfcsim.errors import ValidationError
from vfcsim.link import (
    BITS_PER_MB,
    LinkParams,
    LinkRangeError,
    dbm_to_mw,
    processing_time,
    shannon_rate,
    snr_at_distance,
    upload_time,
)

P = LinkParams()


def test_bits_per_mb_is_decimal():
    assert BITS_PER_MB == 8_000_000.0


def test_dbm_round_numbers():
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(30.0) == pytest.approx(1000.0, rel=1e-12)
    assert dbm_to_mw(-30.0) == pytest.approx(1e-3, rel=1e-12)


def test_snr_follows_a_reassigned_noise_floor():
    params = LinkParams()
    before = snr_at_distance(params, 100.0)
    assert before == params.tx_power_mw / 100.0 ** 3 / dbm_to_mw(-114.0)
    params.noise_power_dbm = -104.0  # 10 dB more noise: a tenth of the SNR
    after = snr_at_distance(params, 100.0)
    assert after == params.tx_power_mw / 100.0 ** 3 / dbm_to_mw(-104.0)
    assert after == pytest.approx(before / 10.0, rel=1e-12)
    assert snr_at_distance(LinkParams(), 100.0) == before


def test_shannon_rate_worked_examples():
    # 20 MHz at snr 3 doubles the bandwidth in bits/s
    assert shannon_rate(2.0e7, 3.0) == pytest.approx(4.0e7, rel=1e-12)
    assert shannon_rate(2.0e7, 1.0) == pytest.approx(2.0e7, rel=1e-12)
    assert shannon_rate(2.0e7, 0.0) == 0.0


def test_shannon_rate_validation():
    with pytest.raises(ValidationError):
        shannon_rate(0.0, 1.0)
    with pytest.raises(ValidationError):
        shannon_rate(2.0e7, -0.5)


def test_snr_at_reference_distance():
    expected = P.tx_power_mw / dbm_to_mw(P.noise_power_dbm)
    assert snr_at_distance(P, 1.0) == pytest.approx(expected, rel=1e-12)
    # inside the reference distance the path loss clamps
    assert snr_at_distance(P, 0.25) == snr_at_distance(P, 1.0)
    assert snr_at_distance(P, 0.0) == snr_at_distance(P, 1.0)


def test_snr_cubic_path_loss():
    # doubling the distance under exponent 3 divides the SNR by 8
    near = snr_at_distance(P, 100.0)
    far = snr_at_distance(P, 200.0)
    assert near == pytest.approx(8.0 * far, rel=1e-12)


def test_snr_out_of_range_raises():
    with pytest.raises(LinkRangeError):
        snr_at_distance(P, 501.0)
    # exactly at the edge still works
    assert snr_at_distance(P, 500.0) > 0.0


def test_snr_rejects_negative_distance():
    with pytest.raises(ValidationError):
        snr_at_distance(P, -1.0)


def test_upload_worked_examples():
    assert upload_time(4.0e7, 4.0e7) == 1.0
    # 5 MB over the 50 Mb/s backhaul
    assert upload_time(5.0 * BITS_PER_MB, P.wired_rate_bps) == pytest.approx(0.8, abs=1e-12)
    assert upload_time(0.0, 1.0e7) == 0.0


def test_processing_worked_examples():
    # 10 MB at 500 cycles/bit on a 5 GHz core
    assert processing_time(10.0 * BITS_PER_MB, 500.0, 5.0e9) == pytest.approx(8.0, abs=1e-12)
    assert processing_time(4.0e7, 500.0, 1.0e10) == pytest.approx(2.0, abs=1e-12)
    assert processing_time(0.0, 500.0, 1.0e9) == 0.0


def test_processing_validation():
    with pytest.raises(ValidationError):
        processing_time(1.0, 0.0, 1.0e9)
    with pytest.raises(ValidationError):
        processing_time(1.0, 500.0, 0.0)
    with pytest.raises(ValidationError):
        upload_time(1.0, 0.0)


def test_link_params_validation():
    with pytest.raises(ValidationError, match="v2i_bandwidth_hz"):
        LinkParams(v2i_bandwidth_hz=0.0).validate()
    with pytest.raises(ValidationError, match="noise_power_dbm"):
        LinkParams(noise_power_dbm=float("inf")).validate()
    LinkParams().validate()


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.0, max_value=499.0))
def test_snr_monotone_decreasing(d):
    assert snr_at_distance(P, d) >= snr_at_distance(P, d + 1.0)


@settings(max_examples=200, deadline=None)
@given(
    size=st.floats(min_value=1.0, max_value=1e9),
    rate=st.floats(min_value=1e3, max_value=1e9),
)
def test_upload_scales_linearly(size, rate):
    one = upload_time(size, rate)
    two = upload_time(2.0 * size, rate)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    size=st.floats(min_value=1.0, max_value=1e9),
    freq=st.floats(min_value=1e6, max_value=1e11),
)
def test_processing_inverse_in_frequency(size, freq):
    slow = processing_time(size, 500.0, freq)
    fast = processing_time(size, 500.0, 2.0 * freq)
    assert slow == pytest.approx(2.0 * fast, rel=1e-12)


def test_rate_monotone_in_snr():
    rates = [shannon_rate(2.0e7, snr) for snr in (0.0, 0.5, 1.0, 3.0, 10.0, 1e4)]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    # and concave growth: each extra snr unit buys less
    assert math.isclose(shannon_rate(1.0, 1.0), 1.0)
