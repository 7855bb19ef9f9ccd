import numpy as np
import pytest

from oracles import DRIVERS
from vmsight.errors import ConfigInvalid, UnknownTemplate
from vmsight.identify import _dtw, _pad
from vmsight.select import Purpose, rank_metrics
from vmsight.simgen import (
    MAX_VMS,
    Constant,
    Ramp,
    ScenarioConfig,
    Sine,
    Trapezoid,
    generate,
    generate_isolated,
    ground_truth_degradation,
    outsider_template,
    render_session,
    render_waveform,
)
from vmsight.tracemodel import CPU_UTIL, MetricTrace, save_corpus


def _canonical_cpu(template, n_samples, period_s):
    """The noise-free CPU waveform of ``template`` at half its workload gain."""
    shape = template.base_shapes[CPU_UTIL]
    wave = render_waveform(shape.waveform, n_samples, period_s)
    return wave * (1.0 + shape.workload_gain * 0.5)


class TestWaveforms:
    def test_constant(self):
        wave = render_waveform(((1.0, Constant(42.0)),), 50, 1.0)
        assert np.all(wave == 42.0)

    def test_segments_cover_all_samples(self):
        wave = render_waveform(
            ((0.25, Constant(10.0)), (0.25, Ramp(10.0, 20.0)), (0.5, Constant(20.0))),
            100,
            1.0,
        )
        assert wave.shape == (100,)
        assert wave[0] == 10.0 and wave[-1] == 20.0

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigInvalid):
            render_waveform(((0.5, Constant(1.0)),), 10, 1.0)

    def test_phase_shifts_pattern(self):
        base = render_waveform(((1.0, Trapezoid(0, 10, 20.0)),), 100, 1.0, phase=0.0)
        shifted = render_waveform(((1.0, Trapezoid(0, 10, 20.0)),), 100, 1.0, phase=0.5)
        assert not np.allclose(base, shifted)

    def test_stretch_dilates_time(self):
        slow = render_waveform(((1.0, Sine(0, 1, 50.0)),), 200, 1.0, time_stretch=2.0)
        fast = render_waveform(((1.0, Sine(0, 1, 50.0)),), 200, 1.0, time_stretch=1.0)
        # stretched signal completes half as many cycles
        assert np.count_nonzero(np.diff(np.sign(slow))) < np.count_nonzero(
            np.diff(np.sign(fast))
        )


class TestScenarioConfig:
    def test_defaults_valid(self):
        cfg = ScenarioConfig()
        assert cfg.n_vms == 5 and cfg.period_s == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_vms": 0},
            {"period_s": -1.0},
            {"session_duration_s": 1.0},
            {"noise_std": -0.1},
            {"perf_noise_std": -0.1},
            # over MAX_TRACE_SAMPLES samples per trace at the slowest stretch
            {"session_duration_s": 1e9},
            {"period_s": 1e-9},
            {"session_duration_s": 9.5e5},
            # over MAX_VMS, which no config is built with, so nothing is allocated
            {"n_vms": MAX_VMS + 1},
            {"n_vms": 10**23},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigInvalid):
            ScenarioConfig(**kwargs)

    def test_vm_cap_is_inclusive(self):
        assert ScenarioConfig(n_vms=MAX_VMS).n_vms == MAX_VMS

    @pytest.mark.parametrize(
        "gain, cfg, message",
        [
            (1e308, ScenarioConfig(session_duration_s=10.0), "overflows a float"),
            (1.0, ScenarioConfig(session_duration_s=10.0, noise_std=1e308), "overflows a float"),
            (1.0, ScenarioConfig(session_duration_s=10.0, perf_noise_std=1e308),
             "performance overflows a float"),
        ],
    )
    def test_overflowing_session_is_config_invalid(self, gain, cfg, message):
        template = outsider_template(amplitude_gain=gain)
        with pytest.raises(ConfigInvalid, match=message):
            render_session(template, cfg, "s", None, 0.5, np.random.default_rng(0))


class TestGenerate:
    def test_single_vm_has_no_interference(self, templates):
        cfg = ScenarioConfig(n_vms=1, session_duration_s=60.0, rng_seed=2)
        records = generate(cfg, templates, 60)
        assert all(r.interference_level == 0.0 for r in records)
        for r in records:
            template = templates[r.app_label]
            baseline = template.perf_fn(r.workload_level, 0.0)
            assert r.performance == pytest.approx(baseline, rel=0.08)

    def test_same_seed_byte_identical(self, templates, tmp_path):
        cfg = ScenarioConfig(session_duration_s=60.0, rng_seed=5)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(generate(cfg, templates, 50), str(a))
        save_corpus(generate(cfg, templates, 50), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, templates):
        cfg1 = ScenarioConfig(session_duration_s=60.0, rng_seed=5)
        cfg2 = ScenarioConfig(session_duration_s=60.0, rng_seed=6)
        r1 = generate(cfg1, templates, 10)
        r2 = generate(cfg2, templates, 10)
        assert any(
            not np.array_equal(a.traces[CPU_UTIL].samples, b.traces[CPU_UTIL].samples)
            for a, b in zip(r1, r2)
        )

    def test_labels_and_fields_populated(self, small_corpus, templates):
        for r in small_corpus:
            assert r.app_label in templates
            assert r.performance is not None
            assert 0.0 <= r.interference_level <= 1.0
            assert (r.workload_level is not None) == templates[r.app_label].variable_workload

    def test_colocation_produces_interference_spread(self, small_corpus):
        levels = [r.interference_level for r in small_corpus if r.session_id.startswith("s")]
        assert max(levels) > 0.5
        assert min(levels) < 0.2

    def test_baseline_anchors_at_workload_endpoints(self, templates):
        ds = templates["data_serving"]
        lo, hi = ds.workload_range
        assert ds.perf_fn(lo, 0.0) == 40.2
        assert ds.perf_fn(hi, 0.0) == 100.0
        ws = templates["web_serving"]
        lo, hi = ws.workload_range
        assert ws.perf_fn(lo, 0.0) == 3.0
        assert ws.perf_fn(hi, 0.0) == 8.6

    def test_fixed_baselines(self, templates):
        assert templates["media_streaming"].perf_fn(None, 0.0) == 25.7
        assert templates["inmem_analytics"].perf_fn(None, 0.0) == 35.8
        assert templates["kv_store"].perf_fn(None, 0.0) == 5.4e4

    def test_invalid_args(self, templates):
        with pytest.raises(ConfigInvalid):
            generate(ScenarioConfig(), templates, 0)
        with pytest.raises(ConfigInvalid):
            generate(ScenarioConfig(), {}, 5)


class TestIsolated:
    def test_interference_free_and_sweeping(self, templates):
        cfg = ScenarioConfig(session_duration_s=60.0, rng_seed=3)
        records = generate_isolated(cfg, templates, 20)
        assert all(r.interference_level == 0.0 for r in records)
        ds = [r for r in records if r.app_label == "data_serving"]
        lo, hi = templates["data_serving"].workload_range
        spread = max(r.workload_level for r in ds) - min(r.workload_level for r in ds)
        assert spread > 0.8 * (hi - lo)


class TestGroundTruth:
    def test_zero_interference_is_one(self, templates):
        cfg = ScenarioConfig(session_duration_s=60.0, rng_seed=1)
        rng = np.random.default_rng(0)
        record = render_session(templates["kv_store"], cfg, "x", None, 0.0, rng)
        assert ground_truth_degradation(record, templates) == 1.0

    def test_unit_slope_at_full_interference_doubles(self, templates):
        import dataclasses

        template = dataclasses.replace(templates["kv_store"], interference_slope=1.0)
        cfg = ScenarioConfig(session_duration_s=60.0, rng_seed=1)
        rng = np.random.default_rng(0)
        record = render_session(template, cfg, "x", None, 1.0, rng)
        deg = ground_truth_degradation(record, {"kv_store": template})
        assert deg == pytest.approx(2.0)

    def test_orientation_corrected_for_both_kinds(self, templates):
        cfg = ScenarioConfig(session_duration_s=60.0, rng_seed=1)
        rng = np.random.default_rng(0)
        for app in ("data_serving", "web_serving", "kv_store", "inmem_analytics"):
            template = templates[app]
            w = template.workload_range[0] if template.variable_workload else None
            record = render_session(template, cfg, "x", w, 0.6, rng)
            assert ground_truth_degradation(record, templates) > 1.0

    def test_unknown_template_rejected(self, templates):
        cfg = ScenarioConfig(session_duration_s=60.0, rng_seed=1)
        rng = np.random.default_rng(0)
        record = render_session(outsider_template(), cfg, "x", None, 0.5, rng)
        with pytest.raises(UnknownTemplate):
            ground_truth_degradation(record, templates)


def _dtw_distance(a, b):
    return float(_dtw(a.samples, *_pad([b.samples]))[1][0])


class TestDistinctness:
    def test_cpu_waveforms_separate_3x(self, templates):
        # canonical cross-template distance must dominate the within-template
        # spread over workload/noise draws, otherwise matching is hopeless
        cfg = ScenarioConfig(session_duration_s=120.0, rng_seed=23)
        rng = np.random.default_rng(23)
        within = {}
        for name, t in templates.items():
            dists = []
            for _ in range(6):
                draws = []
                for _ in range(2):
                    w = (
                        float(rng.uniform(*t.workload_range))
                        if t.variable_workload
                        else None
                    )
                    draws.append(
                        render_session(t, cfg, "d", w, float(rng.uniform(0, 0.7)), rng)
                    )
                dists.append(
                    _dtw_distance(draws[0].traces[CPU_UTIL], draws[1].traces[CPU_UTIL])
                )
            within[name] = float(np.mean(dists))
        canon = {
            name: MetricTrace(CPU_UTIL, _canonical_cpu(t, 120, 1.0))
            for name, t in templates.items()
        }
        for a in templates:
            min_cross = min(
                _dtw_distance(canon[a], canon[b])
                for b in templates
                if b != a
            )
            assert min_cross >= 3.0 * within[a], (a, min_cross, within[a])


class TestDriverFidelity:
    def test_declared_drivers_correlate_on_500_sessions(self, templates):
        cfg = ScenarioConfig(session_duration_s=60.0, rng_seed=41)
        corpus = generate(cfg, templates, 500)
        for app, template in templates.items():
            perf_report = rank_metrics(corpus, app, Purpose.PERFORMANCE, 0.3)
            for kind in DRIVERS[app]["performance"]:
                assert abs(perf_report.rho[kind]) > 0.3, (app, kind.name)
            if template.variable_workload:
                wl_report = rank_metrics(corpus, app, Purpose.WORKLOAD, 0.3)
                for kind in DRIVERS[app]["workload"]:
                    assert abs(wl_report.rho[kind]) > 0.3, (app, kind.name)
