"""Lossy wireless channel: frame loss, retransmission and backoff.

The paper assumes an ideal channel — "channel errors, MAC contention and
modulation effects" are folded into the *effective* bandwidth — but its own
conclusions (which partitioning scheme wins at which bandwidth) are exactly
the kind of result that flips once the link drops frames and the NIC burns
transmit energy on retransmissions.  This module supplies the loss model
both pricing engines share:

* **Loss process.**  Each frame's *first* transmission is lost with
  probability ``p`` (:attr:`NetworkConfig.loss_rate` — the channel's
  stationary frame-loss rate).  What happens to the *retransmissions* of
  that frame depends on the mode:

  - **Bernoulli** (``loss_burst_frames=None``): losses are i.i.d. — every
    retransmission is lost with the same probability ``p``.
  - **Burst / Gilbert-Elliott** (``loss_burst_frames=L >= 1``): the channel
    is a two-state Markov chain (Good: frames get through; Bad: frames are
    lost) with mean Bad-burst length ``L`` transmissions, so a
    retransmission that follows a loss is lost again with probability
    ``q = 1 - 1/L`` (the chain is still in Bad).  Frames of *different*
    messages, and first attempts generally, see the stationary loss rate
    ``p`` — backoff dwell and protocol processing space them beyond the
    channel's coherence time, which is what makes the per-frame expectation
    exact rather than an independence approximation (docs/MODEL.md has the
    derivation).

* **Retransmission policy.**  TCP-like: after a lost attempt the sender
  waits a timeout and retransmits; the timeout starts at
  :attr:`NetworkConfig.retx_timeout_s` and grows by
  :attr:`NetworkConfig.retx_backoff` per consecutive loss of the same
  frame, capped at :attr:`NetworkConfig.retx_timeout_cap_s` (capped
  exponential backoff).  Retries continue until the frame gets through
  (``loss_rate < 1`` guarantees convergence).

With first-loss probability ``p`` and repeat-loss probability ``q``, the
per-frame closed forms both engines price are

* expected retransmissions ``E[R] = p / (1 - q)`` (Bernoulli:
  ``p/(1-p)``; burst: ``p * L``), and
* expected backoff dwell ``E[D] = sum_i p * q**i * min(t0 * g**i, cap)``
  — evaluated exactly by :func:`expected_retx` (the geometric tail above
  the cap is summed analytically).

:class:`LossyChannel` samples the very same process frame by frame for the
seeded Monte-Carlo oracle; the differential tests pin the vectorized
expected-cost path to the sampler's mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import NetworkConfig

__all__ = ["RetxExpectation", "expected_retx", "LossyChannel"]

#: Growing backoff terms summed one by one before the rest of the pre-cap
#: phase is summed in closed form (the default config has 6 such terms).
_TERMWISE_LIMIT = 64


def _loss_probs(net: NetworkConfig) -> tuple:
    """``(p, q)``: first-attempt and repeat-attempt loss probabilities."""
    p = net.loss_rate
    if net.loss_burst_frames is None:
        return p, p
    return p, 1.0 - 1.0 / net.loss_burst_frames


@dataclass(frozen=True)
class RetxExpectation:
    """Per-frame expectations of the retransmission process.

    Everything downstream is linear in these two numbers: expected extra
    wire bits of a message are ``wire_bits * retx_per_frame`` (frames are
    retransmitted in proportion to their size share), expected backoff
    dwell is ``n_frames * backoff_per_frame_s``, and expected retransmitted
    frames are ``n_frames * retx_per_frame`` — which is what lets the
    vectorized grid pricer handle loss without per-packet simulation.
    """

    #: Expected retransmissions per frame, ``p / (1 - q)``.
    retx_per_frame: float
    #: Expected backoff dwell per frame (seconds).
    backoff_per_frame_s: float

    @property
    def lossless(self) -> bool:
        """True when the channel is ideal (both expectations zero)."""
        return self.retx_per_frame == 0.0 and self.backoff_per_frame_s == 0.0


def expected_retx(net: NetworkConfig) -> RetxExpectation:
    """Closed-form per-frame retransmission expectations for ``net``.

    The backoff series is summed term by term while the timeout still
    grows and analytically once it hits the cap (a plain geometric tail),
    so the result is exact — no truncation tolerance to tune.  A slowly
    growing timeout (``g`` near 1) needs ``log_g(cap/t0)`` growing terms;
    past :data:`_TERMWISE_LIMIT` of them the rest of that phase is summed
    as one geometric series in ``q*g`` (:func:`_growing_sum`).
    """
    p, q = _loss_probs(net)
    if p <= 0.0:
        return RetxExpectation(0.0, 0.0)
    retx = p / (1.0 - q)
    t0 = net.retx_timeout_s
    g = net.retx_backoff
    cap = net.retx_timeout_cap_s
    if t0 <= 0.0 or cap <= 0.0:
        return RetxExpectation(retx, 0.0)
    if g <= 1.0 or t0 >= cap:
        # The timeout never grows (or starts capped): a single geometric.
        return RetxExpectation(retx, p * min(t0, cap) / (1.0 - q))
    dwell = 0.0
    weight = p  # P(frame needs an i-th backoff) = p * q**i
    b = t0
    n = 0
    while b < cap and weight > 0.0 and n < _TERMWISE_LIMIT:
        dwell += weight * b
        weight *= q
        b *= g
        n += 1
    if b < cap and weight > 0.0:
        # Term-by-term summation would not end in time (with q > 0.5 the
        # weight never underflows to 0: 5e-324 * q rounds back up).
        k = math.ceil((math.log(cap) - math.log(b)) / math.log(g))
        dwell += _growing_sum(weight, b, q, g, k)
        weight *= q**k
    dwell += weight * cap / (1.0 - q)  # capped tail, summed analytically
    return RetxExpectation(retx, dwell)


def _growing_sum(w: float, b: float, q: float, g: float, k: int) -> float:
    """``sum_{j<k} w*q**j * b*g**j`` without overflow or cancellation.

    A geometric series in ``r = q*g``.  ``log r`` is formed from ``log1p``
    of ``q - 1`` and ``g - 1`` so that ``r`` near 1 keeps full precision.
    With ``r > 1`` the series is summed from its largest (last) term, which
    is at most ``w * q**k * cap``, so no intermediate overflows.
    """
    log_r = math.log1p(q - 1.0) + math.log1p(g - 1.0)
    if log_r == 0.0:
        return w * b * k
    if log_r < 0.0:
        return w * b * math.expm1(k * log_r) / math.expm1(log_r)
    log_last = math.log(w) + math.log(b) + (k - 1) * log_r
    return math.exp(log_last) * math.expm1(-k * log_r) / math.expm1(-log_r)


class LossyChannel:
    """Seeded per-frame sampler of the loss/retransmission process.

    The Monte-Carlo oracle (:mod:`repro.core.lossmc`) draws one
    :meth:`frame_attempts` per frame on the wire; by construction the
    sample means converge to :func:`expected_retx`'s closed forms, which
    is the property the differential test suite asserts.
    """

    def __init__(
        self, net: NetworkConfig, rng: np.random.Generator
    ) -> None:
        self.net = net
        self.rng = rng
        self.first_loss_prob, self.repeat_loss_prob = _loss_probs(net)
        #: Running totals, for ledger-style reporting by callers.
        self.frames_sent = 0
        self.retransmissions = 0
        self.backoff_s = 0.0

    def frame_attempts(self) -> tuple:
        """Sample one frame: ``(n_retransmissions, backoff_seconds)``.

        The first attempt is lost with probability ``p``; each
        retransmission is preceded by the capped exponential backoff dwell
        and is lost again with probability ``q``.
        """
        net = self.net
        self.frames_sent += 1
        if self.rng.random() >= self.first_loss_prob:
            return 0, 0.0
        n = 0
        dwell = 0.0
        timeout = net.retx_timeout_s
        while True:
            dwell += min(timeout, net.retx_timeout_cap_s)
            timeout *= net.retx_backoff
            n += 1
            if self.rng.random() >= self.repeat_loss_prob:
                self.retransmissions += n
                self.backoff_s += dwell
                return n, dwell
