"""Synthetic colocated-VM trace generator with constructive ground truth.

Five application templates with distinct per-metric waveforms run inside
concurrently scheduled VMs.  Each scheduling round draws one operation mode
per VM (idle or one of the five applications); active co-residents exert
resource pressure that becomes the session's interference level, degrading
its performance away from the interference-free baseline curve.  Because
workload, interference and the performance law are all known at generation
time, every downstream prediction stage can be scored against exact ground
truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import ConfigInvalid, UnknownTemplate
from .tracemodel import (
    CPU_UTIL,
    DISK_READS,
    INSTRUCTIONS,
    LLC_MISSES,
    MEM_AVAIL,
    NET_RX,
    NET_TX,
    Category,
    MetricKind,
    MetricTrace,
    SessionRecord,
)

IDLE_MODE = 0

# the longest trace a session may ask for: session_duration_s at the
# slowest time stretch, in sampling periods
MAX_TRACE_SAMPLES = 1_000_000
# the most VMs a scenario may colocate: a scheduling round draws a mode for
# each, as MAX_TRACE_SAMPLES bounds the samples drawn for a trace
MAX_VMS = 10_000


# ---------------------------------------------------------------------------
# Waveform primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    level: float

    def render(self, t: np.ndarray, seg_t0: float, seg_t1: float, phase: float) -> np.ndarray:
        return np.full_like(t, self.level)


@dataclass(frozen=True)
class Ramp:
    start: float
    end: float

    def render(self, t, seg_t0, seg_t1, phase):
        span = max(seg_t1 - seg_t0, 1e-9)
        frac = (t - seg_t0) / span
        return self.start + (self.end - self.start) * frac


@dataclass(frozen=True)
class Sine:
    base: float
    amp: float
    period_s: float

    def render(self, t, seg_t0, seg_t1, phase):
        return self.base + self.amp * np.sin(2 * math.pi * (t / self.period_s + phase))


@dataclass(frozen=True)
class Square:
    low: float
    high: float
    period_s: float
    duty: float = 0.5

    def render(self, t, seg_t0, seg_t1, phase):
        pos = (t / self.period_s + phase) % 1.0
        return np.where(pos < self.duty, self.high, self.low)


@dataclass(frozen=True)
class Trapezoid:
    """Periodic plateau with linear flanks (a square wave with soft edges)."""

    low: float
    high: float
    period_s: float
    duty: float = 0.45
    rise: float = 0.1  # fraction of the cycle spent on each flank

    def render(self, t, seg_t0, seg_t1, phase):
        pos = (t / self.period_s + phase) % 1.0
        xp = [0.0, self.rise, self.rise + self.duty, 2 * self.rise + self.duty, 1.0]
        fp = [self.low, self.high, self.high, self.low, self.low]
        return np.interp(pos, xp, fp)


# a waveform is a sequence of (duration fraction, primitive) segments
Waveform = tuple[tuple[float, object], ...]


def render_waveform(
    waveform: Waveform,
    n_samples: int,
    period_s: float,
    phase: float = 0.0,
    time_stretch: float = 1.0,
) -> np.ndarray:
    """Sample a waveform: segment primitives over the session duration.

    ``time_stretch`` dilates the internal time axis, so periodic patterns
    complete fewer or more cycles; together with ``phase`` it produces the
    temporal mismatch between sessions of one application that warping is
    meant to absorb.
    """
    total = sum(frac for frac, _ in waveform)
    if abs(total - 1.0) > 1e-9:
        raise ConfigInvalid(f"waveform fractions must sum to 1, got {total}")
    t = np.arange(n_samples) * period_s / time_stretch
    out = np.empty(n_samples)
    edge = 0.0
    i0 = 0
    for idx, (frac, prim) in enumerate(waveform):
        edge += frac * n_samples
        i1 = n_samples if idx == len(waveform) - 1 else min(n_samples, int(round(edge)))
        if i1 > i0:
            seg_t0 = t[i0]
            seg_t1 = t[i1 - 1] + period_s / time_stretch
            out[i0:i1] = prim.render(t[i0:i1], seg_t0, seg_t1, phase)
            i0 = i1
    return out


# ---------------------------------------------------------------------------
# Application templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricShape:
    """How one metric behaves for one application.

    The rendered waveform is scaled by (1 + workload_gain * w_norm) and
    (1 + interference_gain * I), then perturbed with Gaussian noise of
    standard deviation noise_std * noise_ref.
    """

    waveform: Waveform
    workload_gain: float = 0.0
    interference_gain: float = 0.0
    noise_ref: float = 1.0


@dataclass(frozen=True)
class AppTemplate:
    """Generator-side definition of one synthetic application."""

    name: str
    perf_metric_name: str
    higher_is_better: bool
    base_shapes: Mapping[MetricKind, MetricShape]
    baseline: tuple[float, float] | float  # (lo, hi) anchors, or fixed value
    interference_slope: float
    workload_range: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.variable_workload:
            lo, hi = self.workload_range
            if not (hi > lo):
                raise ConfigInvalid(f"{self.name}: workload range must satisfy hi > lo")
            if not isinstance(self.baseline, tuple):
                raise ConfigInvalid(f"{self.name}: variable workload needs baseline anchors")
        else:
            if isinstance(self.baseline, tuple):
                raise ConfigInvalid(f"{self.name}: fixed workload needs a scalar baseline")
        if self.interference_slope < 0:
            raise ConfigInvalid(f"{self.name}: interference slope must be >= 0")
        object.__setattr__(self, "base_shapes", dict(self.base_shapes))

    @property
    def variable_workload(self) -> bool:
        return self.workload_range is not None

    def workload_norm(self, workload: Optional[float]) -> float:
        if not self.variable_workload:
            return 0.0
        lo, hi = self.workload_range
        return (float(workload) - lo) / (hi - lo)

    def baseline_at(self, workload: Optional[float]) -> float:
        """Interference-free performance at the given workload level."""
        if not self.variable_workload:
            return float(self.baseline)
        b_lo, b_hi = self.baseline
        return b_lo + (b_hi - b_lo) * self.workload_norm(workload)

    def perf_fn(self, workload: Optional[float], interference: float) -> float:
        """Noiseless performance law: linear response to interference."""
        base = self.baseline_at(workload)
        factor = 1.0 + self.interference_slope * float(interference)
        return base * factor if not self.higher_is_better else base / factor

    def mean_usage(self) -> dict[Category, float]:
        """Mean resource usage per category, normalized to [0, 1] scales.

        Drives the colocation pressure a VM running this template exerts.
        """
        refs = {Category.CPU: 200.0, Category.MEMORY: 80.0, Category.NETWORK: 1e8}
        probe = {
            Category.CPU: (CPU_UTIL,),
            Category.MEMORY: (LLC_MISSES,),
            Category.NETWORK: (NET_RX, NET_TX),
        }
        usage = {}
        for cat, kinds in probe.items():
            # a level past a float is refused where render_session draws it
            with np.errstate(over="ignore", invalid="ignore"):
                level = sum(
                    float(np.mean(render_waveform(self.base_shapes[k].waveform, 256, 1.0)))
                    for k in kinds
                )
            usage[cat] = min(1.0, level / refs[cat])
        return usage


def _flat(level: float) -> Waveform:
    return ((1.0, Constant(level)),)


def default_templates(amplitude_gain: float = 1.0) -> dict[str, AppTemplate]:
    """The five bundled application analogues.

    Waveforms are hand-designed to be mutually distinct: a periodic plateau
    for the key-value data store, a slow oscillation for the web tier, a
    ramp-then-hold for the streaming server, a burst-then-steady profile for
    the in-memory analytics job and a sparse spike train for the in-memory
    cache.  ``amplitude_gain`` rescales every metric level, emulating a
    faster or slower host ("new server") without touching the performance
    laws.
    """
    g = amplitude_gain

    def plateau(low, high, period, duty=0.40, rise=0.10) -> Waveform:
        return ((1.0, Trapezoid(low * g, high * g, period, duty, rise)),)

    def sine(base, amp, period) -> Waveform:
        return ((1.0, Sine(base * g, amp * g, period)),)

    def spikes(base, peak, period, width) -> Waveform:
        return ((1.0, Square(base * g, peak * g, period, width / period)),)

    def flat(level) -> Waveform:
        return _flat(level * g)

    templates = {}

    templates["data_serving"] = AppTemplate(
        name="data_serving",
        perf_metric_name="execution_time_s",
        higher_is_better=False,
        workload_range=(1e4, 5e4),  # operation count per session
        baseline=(40.2, 100.0),
        interference_slope=7.0,  # heavy colocation stretches runs up to ~8x
        base_shapes={
            CPU_UTIL: MetricShape(plateau(40, 100, 40.0), 0.08, 0.06, 2.5),
            INSTRUCTIONS: MetricShape(flat(6.0), 0.5, -0.35, 0.25),
            LLC_MISSES: MetricShape(flat(22.0), 0.05, 0.12, 0.8),
            MEM_AVAIL: MetricShape(flat(1.6e7), -0.05, -0.25, 2.5e5),
            DISK_READS: MetricShape(flat(220.0), 0.2, 1.2, 8.0),
            NET_RX: MetricShape(flat(1.2e7), 1.0, 0.0, 4e5),
            NET_TX: MetricShape(flat(8.0e6), 0.1, 0.05, 2.5e5),
        },
    )

    templates["web_serving"] = AppTemplate(
        name="web_serving",
        perf_metric_name="ops_per_s",
        higher_is_better=True,
        workload_range=(10.0, 100.0),  # concurrent user count
        baseline=(3.0, 8.6),
        interference_slope=2.0,
        base_shapes={
            CPU_UTIL: MetricShape(sine(45, 12, 36.0), 0.08, 0.06, 2.0),
            INSTRUCTIONS: MetricShape(flat(9.0), 0.5, -0.35, 0.3),
            LLC_MISSES: MetricShape(flat(8.0), 0.05, 0.12, 0.35),
            MEM_AVAIL: MetricShape(flat(2.4e7), -0.05, -0.25, 3e5),
            DISK_READS: MetricShape(flat(60.0), 0.2, 1.2, 2.5),
            NET_RX: MetricShape(flat(3.0e7), 1.0, 0.0, 9e5),
            NET_TX: MetricShape(flat(1.6e7), 0.1, 0.05, 5e5),
        },
    )

    templates["media_streaming"] = AppTemplate(
        name="media_streaming",
        perf_metric_name="requests_per_s",
        higher_is_better=True,
        baseline=25.7,
        interference_slope=1.6,
        base_shapes={
            CPU_UTIL: MetricShape(((0.6, Ramp(15 * g, 110 * g)), (0.4, Constant(110 * g))), 0.0, 0.06, 2.0),
            INSTRUCTIONS: MetricShape(flat(12.0), 0.0, -0.35, 0.4),
            LLC_MISSES: MetricShape(flat(45.0), 0.0, 0.12, 1.2),
            MEM_AVAIL: MetricShape(flat(1.2e7), 0.0, -0.25, 2e5),
            DISK_READS: MetricShape(flat(150.0), 0.0, 1.2, 5.0),
            NET_RX: MetricShape(flat(6.0e6), 0.0, 0.15, 2e5),
            NET_TX: MetricShape(flat(4.5e7), 0.0, 0.05, 1.2e6),
        },
    )

    templates["inmem_analytics"] = AppTemplate(
        name="inmem_analytics",
        perf_metric_name="execution_time_s",
        higher_is_better=False,
        baseline=35.8,
        interference_slope=1.2,
        base_shapes={
            CPU_UTIL: MetricShape(
                ((0.2, Constant(150 * g)), (0.1, Ramp(150 * g, 55 * g)), (0.7, Constant(55 * g))),
                0.0,
                0.06,
                2.0,
            ),
            INSTRUCTIONS: MetricShape(flat(20.0), 0.0, -0.35, 0.5),
            LLC_MISSES: MetricShape(flat(70.0), 0.0, 0.12, 1.6),
            MEM_AVAIL: MetricShape(flat(8.0e6), 0.0, -0.25, 1.5e5),
            DISK_READS: MetricShape(flat(30.0), 0.0, 1.2, 1.5),
            NET_RX: MetricShape(flat(1.5e6), 0.0, 0.15, 8e4),
            NET_TX: MetricShape(flat(2.0e6), 0.0, 0.05, 8e4),
        },
    )

    templates["kv_store"] = AppTemplate(
        name="kv_store",
        perf_metric_name="requests_per_s",
        higher_is_better=True,
        baseline=5.4e4,
        interference_slope=0.9,
        base_shapes={
            CPU_UTIL: MetricShape(spikes(12, 100, 18.0, 2.0), 0.0, 0.06, 1.5),
            INSTRUCTIONS: MetricShape(flat(3.0), 0.0, -0.35, 0.15),
            LLC_MISSES: MetricShape(flat(3.0), 0.0, 0.12, 0.2),
            MEM_AVAIL: MetricShape(flat(2.8e7), 0.0, -0.25, 3e5),
            DISK_READS: MetricShape(flat(10.0), 0.0, 1.2, 0.8),
            NET_RX: MetricShape(flat(2.0e7), 0.0, 0.15, 6e5),
            NET_TX: MetricShape(flat(2.6e7), 0.0, 0.05, 7e5),
        },
    )

    return templates


def outsider_template(amplitude_gain: float = 1.0) -> AppTemplate:
    """A sixth application that no fingerprint database knows about.

    Its levels sit far from every bundled template on all fingerprint
    metrics, so identification should reject it rather than mislabel it.
    """
    g = amplitude_gain
    return AppTemplate(
        name="batch_transcoder",
        perf_metric_name="frames_per_s",
        higher_is_better=True,
        baseline=60.0,
        interference_slope=1.0,
        base_shapes={
            CPU_UTIL: MetricShape(((1.0, Square(160 * g, 200 * g, 80.0)),), 0.0, 0.06, 2.0),
            INSTRUCTIONS: MetricShape(_flat(30.0 * g), 0.0, -0.35, 0.5),
            LLC_MISSES: MetricShape(_flat(130.0 * g), 0.0, 0.12, 2.0),
            MEM_AVAIL: MetricShape(_flat(4.0e6 * g), 0.0, -0.25, 1e5),
            DISK_READS: MetricShape(_flat(400.0 * g), 0.0, 1.2, 10.0),
            NET_RX: MetricShape(_flat(4.0e6 * g), 0.0, 0.15, 1.5e5),
            NET_TX: MetricShape(_flat(8.5e7 * g), 0.0, 0.05, 2e6),
        },
    )


# ---------------------------------------------------------------------------
# Scenario configuration and generation
# ---------------------------------------------------------------------------


# coupling of a co-resident's mean usage, per category, into interference
COUPLING = {Category.CPU: 0.20, Category.MEMORY: 0.175, Category.NETWORK: 0.125}
TIME_STRETCH = (0.92, 1.08)  # range of a session's time-axis dilation
PHASE_JITTER = 0.25  # start-of-recording offset, in cycle fractions


@dataclass(frozen=True)
class ScenarioConfig:
    """Colocation scenario: concurrent VMs rolling random operation modes."""

    n_vms: int = 5
    session_duration_s: float = 300.0
    period_s: float = 1.0
    noise_std: float = 1.0  # scales each metric's noise_ref
    perf_noise_std: float = 0.01  # relative noise on achieved performance
    rng_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_vms <= MAX_VMS:
            raise ConfigInvalid(f"n_vms must lie in [1, {MAX_VMS}], got {self.n_vms}")
        if not (0 < self.period_s < math.inf):
            raise ConfigInvalid("period_s must be positive")
        if not (4 * self.period_s <= self.session_duration_s < math.inf):
            raise ConfigInvalid("session_duration_s must be finite and >= 4 sampling periods")
        if not (0 <= self.noise_std < math.inf and 0 <= self.perf_noise_std < math.inf):
            raise ConfigInvalid("noise levels must be finite and non-negative")
        hi = TIME_STRETCH[1]
        if self.session_duration_s * hi / self.period_s > MAX_TRACE_SAMPLES:
            raise ConfigInvalid(
                f"session_duration_s * {hi:g} / period_s exceeds {MAX_TRACE_SAMPLES} samples"
            )


def _pressure(template: AppTemplate) -> float:
    usage = template.mean_usage()
    return sum(COUPLING[cat] * usage[cat] for cat in usage)


def render_session(
    template: AppTemplate,
    cfg: ScenarioConfig,
    session_id: str,
    workload: Optional[float],
    interference: float,
    rng: np.random.Generator,
) -> SessionRecord:
    """Render one session at a forced (workload, interference) point."""
    if template.variable_workload and workload is None:
        raise ConfigInvalid(f"{template.name} needs a workload level")
    stretch = float(rng.uniform(*TIME_STRETCH))
    phase = float(rng.uniform(0.0, PHASE_JITTER))
    n = max(4, int(round(cfg.session_duration_s * stretch / cfg.period_s)))
    w_norm = template.workload_norm(workload) if template.variable_workload else 0.0
    traces = {}
    for kind in sorted(template.base_shapes, key=lambda k: k.name):
        shape = template.base_shapes[kind]
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            wave = render_waveform(shape.waveform, n, cfg.period_s, phase, stretch)
            wave = wave * (1.0 + shape.workload_gain * w_norm)
            wave = wave * (1.0 + shape.interference_gain * interference)
            if cfg.noise_std > 0:
                wave = wave + rng.normal(0.0, cfg.noise_std * shape.noise_ref, n)
        np.clip(wave, 0.0, None, out=wave)
        if not np.isfinite(wave).all():
            raise ConfigInvalid(f"{template.name}: {kind.name} overflows a float; "
                                "lower the amplitude gain or the noise")
        traces[kind] = MetricTrace(kind, wave, period_s=cfg.period_s)
    perf = template.perf_fn(workload, interference)
    if cfg.perf_noise_std > 0:
        perf += perf * float(rng.normal(0.0, cfg.perf_noise_std))
    if not math.isfinite(perf):
        raise ConfigInvalid(f"{template.name}: performance overflows a float; "
                            "lower the performance noise")
    return SessionRecord(
        session_id=session_id,
        traces=traces,
        app_label=template.name,
        workload_level=None if workload is None else float(workload),
        performance=float(perf),
        interference_level=float(interference),
    )


def generate(
    cfg: ScenarioConfig,
    templates: Mapping[str, AppTemplate],
    n_sessions: int,
    id_prefix: str = "s",
) -> list[SessionRecord]:
    """Simulate scheduling rounds until n_sessions labeled sessions exist.

    Per round, each of the n_vms VMs draws a mode uniformly (idle or one of
    the templates).  A VM's interference level is the coupling-weighted
    pressure of its active co-residents, clipped to [0, 1]; its performance
    follows the template law at that interference plus noise.  Deterministic
    given cfg.rng_seed.
    """
    if n_sessions < 1:
        raise ConfigInvalid("n_sessions must be >= 1")
    if not templates:
        raise ConfigInvalid("at least one template is required")
    names = sorted(templates)
    pressures = {name: _pressure(templates[name]) for name in names}
    rng = np.random.default_rng(cfg.rng_seed)
    sessions: list[SessionRecord] = []
    seq = 0
    while len(sessions) < n_sessions:
        modes = rng.integers(0, len(names) + 1, size=cfg.n_vms)
        active = [(vm, names[m - 1]) for vm, m in enumerate(modes) if m != IDLE_MODE]
        for vm, name in active:
            template = templates[name]
            others = sum(pressures[n2] for vm2, n2 in active if vm2 != vm)
            interference = min(1.0, others)
            workload = (
                float(rng.uniform(*template.workload_range))
                if template.variable_workload
                else None
            )
            sid = f"{id_prefix}{seq:06d}"
            seq += 1
            sessions.append(
                render_session(template, cfg, sid, workload, interference, rng)
            )
            if len(sessions) == n_sessions:
                break
    return sessions


def generate_isolated(
    cfg: ScenarioConfig,
    templates: Mapping[str, AppTemplate],
    n_per_app: int,
    id_prefix: str = "iso",
) -> list[SessionRecord]:
    """Interference-free sessions sweeping each template's workload range.

    These are the measurements a baseline net trains on: performance at
    interference zero across workload levels.
    """
    if n_per_app < 1:
        raise ConfigInvalid("n_per_app must be >= 1")
    rng = np.random.default_rng(cfg.rng_seed + 1)
    sessions = []
    seq = 0
    for name in sorted(templates):
        template = templates[name]
        for i in range(n_per_app):
            if template.variable_workload:
                lo, hi = template.workload_range
                # even sweep plus jitter so the full range is always covered
                w = lo + (hi - lo) * (i + rng.uniform(0, 1)) / n_per_app
                w = min(hi, max(lo, w))
            else:
                w = None
            sid = f"{id_prefix}{seq:06d}"
            seq += 1
            sessions.append(render_session(template, cfg, sid, w, 0.0, rng))
    return sessions


def ground_truth_degradation(
    record: SessionRecord, templates: Mapping[str, AppTemplate]
) -> float:
    """Exact degradation implied by the generator's performance law.

    Evaluates the template noiselessly with and without the recorded
    interference; the ratio is orientation-corrected so values >= 1 always
    mean "worse than the baseline".
    """
    if record.app_label is None or record.app_label not in templates:
        raise UnknownTemplate(f"session {record.session_id} matches no template")
    if record.interference_level is None:
        raise UnknownTemplate(f"session {record.session_id} lacks an interference level")
    template = templates[record.app_label]
    with_i = template.perf_fn(record.workload_level, record.interference_level)
    without = template.perf_fn(record.workload_level, 0.0)
    ratio = with_i / without
    return ratio if not template.higher_is_better else 1.0 / ratio
