"""The fast-vs-reference equivalence gate of ``net/``.

``net/`` runs every simulation on a vectorized fast path (block drop
sampling, bisect trace lookups, batched block delivery) and keeps a scalar
reference path behind ``REPRO_NET_FASTPATH=0``: per-packet RNG draws,
linear-scan trace lookups and per-packet delivery.  :func:`equivalence_report`
runs the same seeded inputs through both paths and returns one named boolean
per observable that must match: drop sequences (Bernoulli and
Gilbert-Elliott), ``rate_at`` lookups, end-to-end session statistics
(including jittered and single-packet-frame sessions that stress the batched
delivery path), FEC and closed-loop session trajectories, and the serialized
telemetry stream.

Speed is measured elsewhere: ``benchmarks/e2e`` times whole ops of the
current code, layer by layer.
"""

from __future__ import annotations

import copy
import os
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from ..net.control import controller_from_spec, preset_controller_spec
from ..net.emulator import (
    FASTPATH_ENV,
    BandwidthTrace,
    BernoulliLoss,
    GilbertElliottLoss,
    LossModel,
    PathConfig,
)
from ..net.fec import FecConfig
from ..net.transport import (
    FixedBitrateWorkload,
    TransportConfig,
    VideoTransportSession,
    drive_closed_loop,
    drive_fixed_bitrate,
    run_fixed_bitrate_session,
)
from ..obs import Telemetry

@contextmanager
def fastpath_mode(enabled: bool) -> Iterator[None]:
    """Force the fast path on or off for objects constructed in the block.

    The flag is read at construction time and inherited by pool workers
    through the environment, so wrapping a whole workload (construction
    included) switches every path and trace it builds.
    """
    previous = os.environ.get(FASTPATH_ENV)
    os.environ[FASTPATH_ENV] = "1" if enabled else "0"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(FASTPATH_ENV, None)
        else:
            os.environ[FASTPATH_ENV] = previous


# ---------------------------------------------------------------------------
# Seeded runners: each returns what must match across the two paths
# ---------------------------------------------------------------------------


def dense_trace(duration_s: float, granularity_s: float = 0.001) -> BandwidthTrace:
    """A sinusoidal bandwidth trace sampled every ``granularity_s`` seconds.

    Cellular trace corpora (Mahimahi and friends) record capacity at
    millisecond granularity; 1 ms over a 10 s session is ~10000 breakpoints,
    which is where the old O(breakpoints) ``rate_at`` scan became the
    dominant cost of a session.
    """
    steps = max(2, int(round(duration_s / granularity_s)))
    times = np.linspace(0.0, duration_s, steps)
    rates = 6e6 + 2e6 * np.sin(np.linspace(0.0, 4.0 * np.pi, steps))
    return BandwidthTrace(times=times.tolist(), rates_bps=rates.tolist())


def _session_loss_models() -> dict[str, Optional[LossModel]]:
    return {
        "clean": None,
        "bernoulli": BernoulliLoss(0.02),
        "gilbert_elliott": GilbertElliottLoss(
            p_good_to_bad=0.02, p_bad_to_good=0.3, loss_in_bad=0.5
        ),
    }


def _run_session(
    duration_s: float,
    loss_model: Optional[LossModel],
    trace: Optional[BandwidthTrace],
    seed: int = 5,
    bitrate_bps: float = 6e6,
    jitter_std_s: float = 0.0,
) -> tuple[int, int, float, float, float]:
    """One fixed-bitrate session; returns a stats tuple for equivalence checks."""
    config = PathConfig(
        loss_model=loss_model if loss_model is not None else BernoulliLoss(0.0),
        bandwidth_trace=trace,
        seed=seed,
        jitter_std_s=jitter_std_s,
    )
    stats = run_fixed_bitrate_session(bitrate_bps, duration_s, uplink_config=config)
    summary = stats.summary()
    return (
        summary.count,
        summary.delivered,
        summary.mean_s,
        summary.p99_s,
        summary.mean_retransmissions,
    )


def _run_fec_session(
    duration_s: float,
    seed: int = 5,
    bitrate_bps: float = 4e6,
    jitter_std_s: float = 0.0,
) -> tuple:
    """One FEC-protected bursty session; returns every observable that must
    match between the scalar path and the per-decision fast path (FEC
    sessions deliver per packet in both): the latency summary, the
    decoder's recovery counters, and a digest of per-frame completion
    instants (bit-exact, not just statistically close)."""
    config = PathConfig(
        loss_model=GilbertElliottLoss(p_good_to_bad=0.04, p_bad_to_good=0.3, loss_in_bad=0.5),
        seed=seed,
        jitter_std_s=jitter_std_s,
    )
    session = VideoTransportSession(
        uplink_config=config,
        transport_config=TransportConfig(fec=FecConfig(group_size=5)),
    )
    drive_fixed_bitrate(session, FixedBitrateWorkload(bitrate_bps=bitrate_bps), duration_s)
    summary = session.stats.summary()
    completions = tuple(
        (event.frame_id, event.complete_time) for event in session.receiver.delivered_frames
    )
    return (
        summary.count,
        summary.delivered,
        summary.mean_s,
        summary.p99_s,
        summary.mean_retransmissions,
        tuple(sorted(session.fec_summary().items())),
        session.uplink.stats.packets_delivered,
        session.sender.retransmissions_sent,
        hash(completions),
    )


def _run_closed_loop_session(
    duration_s: float,
    seed: int = 5,
    jitter_std_s: float = 0.0,
    feedback_loss_rate: float = 0.0,
    feedback_jitter_std_s: float = 0.0,
    fec: bool = False,
) -> tuple:
    """One feedback-driven session (GCC + throughput ABR over receiver
    reports); returns every observable that must match between the scalar
    path and the batched fast path: the latency summary, the number of
    reports that survived the feedback path, the full controller action
    sequence, and per-frame completion instants (bit-exact)."""
    uplink = PathConfig(
        loss_model=GilbertElliottLoss(p_good_to_bad=0.04, p_bad_to_good=0.3, loss_in_bad=0.5),
        seed=seed,
        jitter_std_s=jitter_std_s,
    )
    feedback = PathConfig(
        loss_model=BernoulliLoss(feedback_loss_rate),
        seed=seed + 1,
        jitter_std_s=feedback_jitter_std_s,
    )
    session = VideoTransportSession(
        uplink_config=uplink,
        feedback_config=feedback,
        transport_config=TransportConfig(
            report_interval_s=0.2,
            fec=FecConfig(group_size=5) if fec else None,
        ),
        controller=controller_from_spec(preset_controller_spec("gcc")),
    )
    drive_closed_loop(session, FixedBitrateWorkload(bitrate_bps=2e6), duration_s)
    summary = session.stats.summary()
    actions = tuple(
        (when, action.target_bitrate_bps, action.fec_overhead_ratio)
        for when, action in session.control_log
    )
    completions = tuple(
        (event.frame_id, event.complete_time) for event in session.receiver.delivered_frames
    )
    return (
        summary.count,
        summary.delivered,
        summary.mean_s,
        summary.p99_s,
        summary.mean_retransmissions,
        session.uplink.stats.packets_delivered,
        session.feedback.stats.packets_delivered,
        session.reports_received,
        len(actions),
        hash(actions),
        hash(completions),
    )


def _run_telemetry_stream(
    duration_s: float,
    fec: bool = False,
    closed_loop: bool = False,
    seed: int = 5,
) -> str:
    """One instrumented session; returns the deterministic telemetry export
    (metric JSONL + sim-clock span JSONL, see ``Telemetry.sim_stream``).

    Same discipline as the report-parity gates of PR 7: the stream is a
    pure function of the seeded simulation, so the scalar and batched
    paths — already bit-identical in their observable stats — must
    serialize bit-identical telemetry, byte for byte.
    """
    telemetry = Telemetry()
    uplink = PathConfig(
        loss_model=GilbertElliottLoss(p_good_to_bad=0.04, p_bad_to_good=0.3, loss_in_bad=0.5),
        seed=seed,
    )
    session = VideoTransportSession(
        uplink_config=uplink,
        transport_config=TransportConfig(
            fec=FecConfig(group_size=5) if fec else None,
            report_interval_s=0.2 if closed_loop else 0.0,
        ),
        controller=(
            controller_from_spec(preset_controller_spec("gcc")) if closed_loop else None
        ),
        telemetry=telemetry,
    )
    if closed_loop:
        drive_closed_loop(session, FixedBitrateWorkload(bitrate_bps=2e6), duration_s)
    else:
        drive_fixed_bitrate(session, FixedBitrateWorkload(bitrate_bps=4e6), duration_s)
    session.finalize_telemetry()
    return telemetry.sim_stream()


# ---------------------------------------------------------------------------
# Equivalence checks
# ---------------------------------------------------------------------------


def _scalar_drop_sequence(model: LossModel, seed: int, n: int) -> list[bool]:
    rng = np.random.default_rng(seed)
    return [model.should_drop(rng) for _ in range(n)]


def _block_drop_sequence(model: LossModel, seed: int, n: int, block: int) -> list[bool]:
    rng = np.random.default_rng(seed)
    out: list[bool] = []
    while len(out) < n:
        out.extend(bool(x) for x in model.sample_drops(rng, min(block, n - len(out))))
    return out[:n]


def equivalence_report(session_duration_s: float = 2.0) -> dict[str, bool]:
    """Prove the scalar and vectorized paths compute the same thing.

    Returns a dict of named boolean checks, every one of which must be
    true; ``session_duration_s`` sizes the simulated sessions.
    """
    checks: dict[str, bool] = {}

    checks["bernoulli_block_equals_scalar"] = all(
        _scalar_drop_sequence(BernoulliLoss(rate), seed, 700)
        == _block_drop_sequence(BernoulliLoss(rate), seed, 700, block)
        for rate in (0.0, 0.02, 0.3)
        for seed in (0, 7)
        for block in (1, 64, 1024)
    )

    def ge() -> GilbertElliottLoss:
        return GilbertElliottLoss(
            p_good_to_bad=0.05, p_bad_to_good=0.25, loss_in_bad=0.6, loss_in_good=0.01
        )

    checks["gilbert_elliott_block_equals_scalar"] = all(
        _scalar_drop_sequence(ge(), seed, 700) == _block_drop_sequence(ge(), seed, 700, block)
        for seed in (0, 11)
        for block in (1, 64, 1024)
    )

    rng = np.random.default_rng(0)
    rate_at_ok = True
    for _ in range(20):
        count = int(rng.integers(1, 40))
        times = np.sort(rng.uniform(0.0, 10.0, size=count)).tolist()
        rates = rng.uniform(1e5, 1e7, size=count).tolist()
        with fastpath_mode(True):
            trace = BandwidthTrace(times=times, rates_bps=rates)
        queries = rng.uniform(-1.0, 12.0, size=200).tolist() + times
        rate_at_ok &= all(trace.rate_at(t) == trace.rate_at_scan(t) for t in queries)
    checks["rate_at_equals_linear_scan"] = bool(rate_at_ok)

    trace = dense_trace(session_duration_s)
    spec = (trace.times, trace.rates_bps)
    session_ok = True
    for name, model in _session_loss_models().items():
        with fastpath_mode(False):
            scalar = _run_session(
                session_duration_s,
                _clone_model(model),
                BandwidthTrace(times=spec[0], rates_bps=spec[1]),
            )
        with fastpath_mode(True):
            fast = _run_session(
                session_duration_s,
                _clone_model(model),
                BandwidthTrace(times=spec[0], rates_bps=spec[1]),
            )
        session_ok &= scalar == fast
    checks["session_stats_identical"] = bool(session_ok)

    # The batched block-delivery path must survive its hardest shapes:
    # jitter (reordered arrivals, transient gaps, burst-granular delivery)
    # and single-packet frames (every loss wipes a whole frame, so recovery
    # rides entirely on the sequence-NACK window).
    variants = {
        "jittered": dict(jitter_std_s=0.002),
        "single_packet_frames": dict(bitrate_bps=250_000),
    }
    for label, kwargs in variants.items():
        model = GilbertElliottLoss(p_good_to_bad=0.04, p_bad_to_good=0.3, loss_in_bad=0.5)
        with fastpath_mode(False):
            scalar = _run_session(session_duration_s, _clone_model(model), None, **kwargs)
        with fastpath_mode(True):
            fast = _run_session(session_duration_s, _clone_model(model), None, **kwargs)
        checks[f"session_stats_identical_{label}"] = scalar == fast

    # FEC sessions deliver per packet with block drop sampling and bisect
    # trace lookups; their stats must match the scalar reference bit-for-bit —
    # latency summary, recovery/spurious counters, per-frame completion
    # instants — including under jitter and with single-packet frames.
    fec_session_variants = {
        "fec_session_stats_identical": dict(),
        "fec_session_stats_identical_jittered": dict(jitter_std_s=0.002),
        "fec_session_stats_identical_single_packet": dict(bitrate_bps=250_000),
    }
    for label, kwargs in fec_session_variants.items():
        with fastpath_mode(False):
            scalar = _run_fec_session(session_duration_s, **kwargs)
        with fastpath_mode(True):
            fast = _run_fec_session(session_duration_s, **kwargs)
        checks[label] = scalar == fast

    # Closed-loop sessions: receiver reports ride the feedback path, a GCC +
    # ABR controller retunes the sender per report, and (optionally) FEC
    # redundancy adapts mid-session.  The *entire* control trajectory —
    # report count, every action, every completion instant — must be
    # bit-identical between the scalar per-packet path and the batched fast
    # path, including when the feedback channel itself is lossy or jittery.
    closed_loop_variants = {
        "closed_loop_stats_identical": dict(),
        "closed_loop_stats_identical_jittered": dict(jitter_std_s=0.002),
        "closed_loop_stats_identical_lossy_feedback": dict(
            feedback_loss_rate=0.05, feedback_jitter_std_s=0.002
        ),
        "closed_loop_stats_identical_fec": dict(fec=True),
    }
    for label, kwargs in closed_loop_variants.items():
        with fastpath_mode(False):
            scalar = _run_closed_loop_session(session_duration_s, **kwargs)
        with fastpath_mode(True):
            fast = _run_closed_loop_session(session_duration_s, **kwargs)
        checks[label] = scalar == fast

    # Telemetry stream equivalence: the obs counter/span export is an
    # observable like any other.  The scalar and batched paths must
    # serialize it bit-identically, and a repeated seeded fast-path run
    # must reproduce it exactly (no wall-clock or RNG leakage into the
    # sim-time stream).
    telemetry_variants = {
        "telemetry_stream_identical": dict(),
        "telemetry_stream_identical_fec": dict(fec=True),
        "telemetry_stream_identical_closed_loop": dict(closed_loop=True),
    }
    for label, kwargs in telemetry_variants.items():
        with fastpath_mode(False):
            scalar = _run_telemetry_stream(session_duration_s, **kwargs)
        with fastpath_mode(True):
            fast = _run_telemetry_stream(session_duration_s, **kwargs)
            repeat = _run_telemetry_stream(session_duration_s, **kwargs)
        checks[label] = scalar == fast == repeat
    return checks


def _clone_model(model: Optional[LossModel]) -> Optional[LossModel]:
    return copy.deepcopy(model)
