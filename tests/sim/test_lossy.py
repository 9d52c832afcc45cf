"""Lossy channel: closed forms, the seeded sampler, and validation.

The closed forms in :func:`repro.sim.lossy.expected_retx` are what both
pricing engines charge for a lossy link, so they are pinned three ways:
against hand-derived values for every branch, against a brute-force
numeric summation of the defining series, and against the sample mean of
:class:`repro.sim.lossy.LossyChannel` — the very process the Monte-Carlo
oracle replays.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.constants import NetworkConfig
from repro.sim.lossy import LossyChannel, RetxExpectation, expected_retx
from repro.sim.metrics import LossStats
from repro.sim.nic import NIC, NICState
from repro.sim.protocol import packetize, transfer_seconds


def net(**kw) -> NetworkConfig:
    return NetworkConfig(**kw)


def brute_force_dwell(p: float, q: float, t0: float, g: float, cap: float,
                      terms: int = 4096) -> float:
    """Directly sum E[D] = sum_i p * q**i * min(t0 * g**i, cap)."""
    total = 0.0
    weight = p
    b = t0
    for _ in range(terms):
        total += weight * min(b, cap)
        weight *= q
        if b < cap:  # stop growing once clamped, else g**i overflows
            b *= g
    return total


class TestClosedForms:
    def test_ideal_channel_is_exactly_zero(self):
        r = expected_retx(net(loss_rate=0.0))
        assert r.retx_per_frame == 0.0
        assert r.backoff_per_frame_s == 0.0
        assert r.lossless

    def test_bernoulli_retx_is_p_over_1_minus_p(self):
        r = expected_retx(net(loss_rate=0.2))
        assert r.retx_per_frame == pytest.approx(0.2 / 0.8)
        assert not r.lossless

    def test_burst_retx_is_p_times_mean_burst_length(self):
        # E[R] = p / (1 - q) with q = 1 - 1/L collapses to p * L.
        r = expected_retx(net(loss_rate=0.1, loss_burst_frames=5.0))
        assert r.retx_per_frame == pytest.approx(0.5)

    def test_burst_length_one_is_special_case(self):
        # L = 1 means q = 0: every retransmission succeeds, so exactly
        # p retransmissions and p * t0 dwell per frame.
        r = expected_retx(net(loss_rate=0.3, loss_burst_frames=1.0))
        assert r.retx_per_frame == pytest.approx(0.3)
        assert r.backoff_per_frame_s == pytest.approx(0.3 * 0.02)

    def test_constant_timeout_dwell(self):
        # g = 1: every retry waits t0, so E[D] = p * t0 / (1 - q).
        r = expected_retx(
            net(loss_rate=0.25, retx_timeout_s=0.04, retx_backoff=1.0)
        )
        assert r.backoff_per_frame_s == pytest.approx(0.25 * 0.04 / 0.75)

    def test_timeout_born_capped(self):
        # t0 >= cap: the min() clamps every term to the cap.
        r = expected_retx(
            net(loss_rate=0.25, retx_timeout_s=2.0, retx_timeout_cap_s=0.5)
        )
        assert r.backoff_per_frame_s == pytest.approx(0.25 * 0.5 / 0.75)

    def test_zero_timeout_means_zero_dwell(self):
        r = expected_retx(net(loss_rate=0.5, retx_timeout_s=0.0))
        assert r.retx_per_frame == pytest.approx(1.0)
        assert r.backoff_per_frame_s == 0.0

    def test_zero_cap_means_zero_dwell(self):
        r = expected_retx(net(loss_rate=0.5, retx_timeout_cap_s=0.0))
        assert r.backoff_per_frame_s == 0.0

    def test_general_dwell_matches_brute_force_series(self):
        cfg = net(
            loss_rate=0.3,
            retx_timeout_s=0.02,
            retx_backoff=2.0,
            retx_timeout_cap_s=1.0,
        )
        r = expected_retx(cfg)
        assert r.backoff_per_frame_s == pytest.approx(
            brute_force_dwell(0.3, 0.3, 0.02, 2.0, 1.0), rel=1e-12
        )

    @given(
        p=st.floats(0.001, 0.95),
        burst=st.one_of(st.none(), st.floats(1.0, 20.0)),
        t0=st.floats(0.0, 0.5),
        g=st.floats(1.0, 4.0),
        cap=st.floats(0.0, 2.0),
    )
    # A timeout growing by one ulp per loss needs ~1e16 growing terms, and
    # with q > 0.5 the term weight never underflows to zero.
    @example(p=0.6, burst=None, t0=0.02, g=math.nextafter(1.0, 2.0), cap=1.0)
    @example(p=0.05, burst=3.0, t0=0.02, g=math.nextafter(1.0, 2.0), cap=1.0)
    @example(p=0.6, burst=None, t0=0.02, g=1.000001, cap=1.0)
    # Over 64 growing terms with q*g above 1, and with q*g exactly 1.
    @example(p=0.5, burst=20.0, t0=0.001, g=1.06, cap=2.0)
    @example(p=0.5, burst=None, t0=1e-20, g=2.0, cap=1.0)
    @settings(max_examples=200, deadline=1000)
    def test_dwell_always_matches_series(self, p, burst, t0, g, cap):
        cfg = net(
            loss_rate=p,
            loss_burst_frames=burst,
            retx_timeout_s=t0,
            retx_backoff=g,
            retx_timeout_cap_s=cap,
        )
        q = p if burst is None else 1.0 - 1.0 / burst
        r = expected_retx(cfg)
        assert r.retx_per_frame == pytest.approx(p / (1.0 - q), rel=1e-12)
        want = brute_force_dwell(p, q, t0, g, cap, terms=8192)
        assert r.backoff_per_frame_s == pytest.approx(
            want, rel=1e-9, abs=1e-15
        )


class TestLossyChannelSampler:
    @pytest.mark.parametrize(
        "cfg",
        [
            net(loss_rate=0.1),
            net(loss_rate=0.3, retx_backoff=1.0),
            net(loss_rate=0.2, loss_burst_frames=5.0),
            net(loss_rate=0.5, retx_timeout_s=2.0, retx_timeout_cap_s=0.5),
        ],
        ids=["bernoulli", "constant-timeout", "burst", "born-capped"],
    )
    def test_sample_mean_converges_to_closed_forms(self, cfg):
        n = 60_000
        chan = LossyChannel(cfg, np.random.default_rng(7))
        for _ in range(n):
            chan.frame_attempts()
        want = expected_retx(cfg)
        assert chan.frames_sent == n
        assert chan.retransmissions / n == pytest.approx(
            want.retx_per_frame, rel=0.05
        )
        assert chan.backoff_s / n == pytest.approx(
            want.backoff_per_frame_s, rel=0.05
        )

    def test_ideal_channel_never_retransmits(self):
        chan = LossyChannel(net(), np.random.default_rng(0))
        for _ in range(1000):
            assert chan.frame_attempts() == (0, 0.0)
        assert chan.retransmissions == 0
        assert chan.backoff_s == 0.0

    def test_same_seed_same_samples(self):
        cfg = net(loss_rate=0.4)
        a = LossyChannel(cfg, np.random.default_rng(42))
        b = LossyChannel(cfg, np.random.default_rng(42))
        assert [a.frame_attempts() for _ in range(500)] == [
            b.frame_attempts() for _ in range(500)
        ]

    def test_backoff_dwell_grows_then_caps(self):
        # Force three consecutive losses: dwell must be t0 + t0*g + cap.
        cfg = net(
            loss_rate=0.9,
            retx_timeout_s=0.1,
            retx_backoff=4.0,
            retx_timeout_cap_s=0.5,
        )

        class Rigged:
            def __init__(self, draws):
                self.draws = iter(draws)

            def random(self):
                return next(self.draws)

        chan = LossyChannel(cfg, Rigged([0.0, 0.0, 0.0, 1.0]))
        n, dwell = chan.frame_attempts()
        assert n == 3
        assert dwell == pytest.approx(0.1 + 0.4 + 0.5)


class TestValidation:
    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
    def test_loss_rate_must_be_a_probability_below_one(self, rate):
        with pytest.raises(ValueError, match="loss_rate"):
            net(loss_rate=rate)

    @pytest.mark.parametrize("burst", [0.0, 0.5, -3.0, float("inf"), float("nan")])
    def test_burst_length_must_be_finite_and_at_least_one(self, burst):
        with pytest.raises(ValueError, match="loss_burst_frames"):
            net(loss_rate=0.1, loss_burst_frames=burst)

    @pytest.mark.parametrize("field", ["retx_timeout_s", "retx_timeout_cap_s"])
    def test_timeouts_must_be_nonnegative(self, field):
        with pytest.raises(ValueError, match=field):
            net(**{field: -0.01})

    def test_backoff_factor_must_not_shrink(self):
        with pytest.raises(ValueError, match="retx_backoff"):
            net(retx_backoff=0.5)

    @pytest.mark.parametrize("bw", [0.0, -1.0])
    def test_bandwidth_must_be_positive(self, bw):
        with pytest.raises(ValueError, match="bandwidth_bps"):
            net(bandwidth_bps=bw)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="distance_m"):
            net(distance_m=-5.0)


class TestNICRetransmission:
    def test_retransmit_charges_transmit_state_and_counts_frames(self):
        lossy, ideal = NIC(distance_m=1000.0), NIC(distance_m=1000.0)
        t_lossy = lossy.retransmit(1_000_000, 2_000_000, frames=3.0)
        t_ideal = ideal.transmit(1_000_000, 2_000_000)
        assert t_lossy == t_ideal
        assert lossy.energy_j == ideal.energy_j
        assert lossy.tx_retx_frames == 3.0
        assert ideal.tx_retx_frames == 0.0

    def test_rereceive_charges_receive_state_and_counts_frames(self):
        lossy, ideal = NIC(), NIC()
        lossy.idle(0.0)  # receive() requires an awake NIC
        ideal.idle(0.0)
        t_lossy = lossy.rereceive(500_000, 2_000_000, frames=2.5)
        t_ideal = ideal.receive(500_000, 2_000_000)
        assert t_lossy == t_ideal
        assert lossy.energy_j == ideal.energy_j
        assert lossy.rx_retx_frames == 2.5

    def test_backoff_is_idle_dwell_tracked_separately(self):
        lossy, ideal = NIC(), NIC()
        t_lossy = lossy.backoff(0.25)
        t_ideal = ideal.idle(0.25)
        assert t_lossy == t_ideal
        assert lossy.energy_j[NICState.IDLE] == ideal.energy_j[NICState.IDLE]
        assert lossy.backoff_s == 0.25

    @pytest.mark.parametrize("method", ["retransmit", "rereceive"])
    def test_negative_frames_rejected(self, method):
        with pytest.raises(ValueError, match="negative frame count"):
            getattr(NIC(), method)(1000, 1e6, frames=-1.0)


class TestTransferSeconds:
    def test_retx_multiplies_wire_time(self):
        msg = packetize(10_000)
        base = transfer_seconds(msg, 2_000_000)
        assert transfer_seconds(msg, 2_000_000, retx_per_frame=0.5) == (
            pytest.approx(base * 1.5)
        )

    def test_default_is_the_ideal_channel(self):
        msg = packetize(10_000)
        assert transfer_seconds(msg, 2_000_000) == transfer_seconds(
            msg, 2_000_000, retx_per_frame=0.0
        )

    def test_negative_retx_rejected(self):
        with pytest.raises(ValueError, match="retx_per_frame"):
            transfer_seconds(packetize(1), 1e6, retx_per_frame=-0.1)


class TestLossStats:
    def test_defaults_are_zero(self):
        s = LossStats()
        assert s.total_retx_frames() == 0.0
        assert s.as_dict() == {
            "retx_tx_frames": 0.0,
            "retx_rx_frames": 0.0,
            "backoff_s": 0.0,
        }

    def test_addition_is_fieldwise(self):
        a = LossStats(retx_tx_frames=1.0, retx_rx_frames=2.0, backoff_s=0.5)
        b = LossStats(retx_tx_frames=0.25, retx_rx_frames=0.75, backoff_s=1.5)
        c = a + b
        assert c == LossStats(
            retx_tx_frames=1.25, retx_rx_frames=2.75, backoff_s=2.0
        )
        assert c.total_retx_frames() == pytest.approx(4.0)
