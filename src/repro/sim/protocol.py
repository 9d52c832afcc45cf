"""TCP/IP packetization over the wireless link.

The paper's communication model: "All message transfers include the TCP and
IP headers, and are broken down into segments and finally into frames based
on the Maximum Transmission Unit (MTU). The transfer time and energy
consumption are calculated based on the wireless bandwidth (B) and the power
consumption in the appropriate mode."  The client additionally pays CPU
cycles for protocol processing — the ``C_protocol``/``E_protocol`` terms of
section 4.1 — which this module expresses as an instruction count the CPU
model prices.

:func:`packetize` maps a payload size to its on-the-wire footprint;
byte-conservation (wire bytes = payload + per-frame header overhead, no more,
no less) is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import DEFAULT_NETWORK, NetworkConfig

__all__ = ["WireMessage", "packetize", "transfer_seconds"]


@dataclass(frozen=True)
class WireMessage:
    """One application message (or, from an array, one per element) as it
    appears on the wireless link."""

    #: Application payload bytes.
    payload_bytes: int
    #: Number of MTU-sized frames the payload was split into.
    n_frames: int
    #: Header bytes added across all frames (TCP + IP + link framing).
    header_bytes: int

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the wire."""
        return self.payload_bytes + self.header_bytes

    @property
    def wire_bits(self) -> int:
        """Total bits on the wire."""
        return self.wire_bytes * 8


def packetize(payload_bytes, net: NetworkConfig = DEFAULT_NETWORK) -> WireMessage:
    """Split a payload into MTU frames and account the header overhead.

    A zero-byte payload still produces one frame (a request with an empty
    body is still a packet); negative sizes raise.  ``payload_bytes`` may
    also be an integer array, one message per element: the grid pricer
    sizes a whole step column in one call, through this same formula.
    """
    # Plain ints, one per message of the scalar walk, skip the reduction.
    low = (payload_bytes if type(payload_bytes) is int
           else np.asarray(payload_bytes).min(initial=0))
    if low < 0:
        raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes!r}")
    per_frame_capacity = net.mtu_bytes - net.tcp_header_bytes - net.ip_header_bytes
    if per_frame_capacity <= 0:
        raise ValueError(
            f"MTU {net.mtu_bytes} too small for TCP/IP headers "
            f"({net.tcp_header_bytes}+{net.ip_header_bytes})"
        )
    # ceil(payload / capacity) frames, and one for an empty payload.
    n_frames = -(-payload_bytes // per_frame_capacity) + (payload_bytes == 0)
    per_frame_overhead = (
        net.tcp_header_bytes + net.ip_header_bytes + net.link_header_bytes
    )
    return WireMessage(
        payload_bytes=payload_bytes,
        n_frames=n_frames,
        header_bytes=n_frames * per_frame_overhead,
    )


def transfer_seconds(
    msg: WireMessage, bandwidth_bps: float, retx_per_frame: float = 0.0
) -> float:
    """Wire time of ``msg`` at the effective delivered bandwidth ``B``.

    Channel errors, MAC contention and modulation effects are folded into
    the *effective* bandwidth, per the paper.  On a lossy link, pass the
    expected retransmissions per frame
    (:attr:`repro.sim.lossy.RetxExpectation.retx_per_frame`): every frame
    is resent ``retx_per_frame`` times in expectation, so the wire time
    scales by ``1 + retx_per_frame`` (backoff dwell is accounted
    separately — the channel is free while the sender waits out a
    timeout).
    """
    if bandwidth_bps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_bps!r}")
    if retx_per_frame < 0:
        raise ValueError(
            f"retx_per_frame must be >= 0, got {retx_per_frame!r}"
        )
    return msg.wire_bits * (1.0 + retx_per_frame) / bandwidth_bps


def protocol_instructions(msg: WireMessage, net: NetworkConfig = DEFAULT_NETWORK) -> float:
    """Client instructions to send or receive ``msg`` (the C_protocol term).

    A fixed per-message cost (system call, socket bookkeeping), a per-frame
    cost (segmentation/reassembly, checksums, interrupts) and a per-byte cost
    (buffer copies).
    """
    return (
        net.per_message_instructions
        + msg.n_frames * net.per_frame_instructions
        + msg.payload_bytes * net.per_byte_instructions
    )
