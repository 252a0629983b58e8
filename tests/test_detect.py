import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpath.detect import DetectorConfig, IslandingDetector, ReconnectionMonitor
from dualpath.frames import wrap_angle

DT = 1e-3
F_WINDOW = {"f_min": 59.3, "f_max": 60.5}  # the frequency window at 60 Hz
CFG = DetectorConfig(**F_WINDOW)


# --- batch oracle of IslandingDetector --------------------------------------

class InsufficientWindowError(RuntimeError):
    """The measurement window does not yet span the persistence time."""


class MeasurementWindow:
    """Fixed-capacity ring buffer of (t, f, v) samples at the control rate."""

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        self.capacity = capacity
        self._t = np.empty(capacity)
        self._f = np.empty(capacity)
        self._v = np.empty(capacity)
        self._n = 0
        self._head = 0
        self._last_t = -math.inf

    def push(self, t: float, f: float, v: float) -> None:
        if t <= self._last_t:
            raise ValueError("timestamps must be strictly increasing")
        self._last_t = t
        self._t[self._head] = t
        self._f[self._head] = f
        self._v[self._head] = v
        self._head = (self._head + 1) % self.capacity
        if self._n < self.capacity:
            self._n += 1

    @property
    def span(self) -> float:
        if self._n < 2:
            return 0.0
        t = self.as_arrays()[0]
        return float(t[-1] - t[0])

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Samples in chronological order."""
        if self._n < self.capacity:
            sl = slice(0, self._n)
            return self._t[sl], self._f[sl], self._v[sl]
        order = np.concatenate(
            (np.arange(self._head, self.capacity), np.arange(0, self._head))
        )
        return self._t[order], self._f[order], self._v[order]


def _rocof_series(t: np.ndarray, f: np.ndarray, window: float) -> np.ndarray:
    """|df/dt| over a trailing window; NaN where the lookback is unavailable."""
    j = np.searchsorted(t, t - window, side="right") - 1
    valid = j >= 0
    out = np.full(t.shape, np.nan)
    jj = np.clip(j, 0, None)
    dt = t - t[jj]
    with np.errstate(invalid="ignore", divide="ignore"):
        r = (f - f[jj]) / dt
    out[valid & (dt > 0)] = np.abs(r[valid & (dt > 0)])
    return out


def detect_islanding(w: MeasurementWindow, cfg: DetectorConfig) -> bool:
    """True iff at least one criterion held continuously for the persist time."""
    if w.span < cfg.persist:
        raise InsufficientWindowError(
            f"window spans {w.span:.3f} s < persist {cfg.persist:.3f} s"
        )
    t, f, v = w.as_arrays()
    now = t[-1]
    f_viol = (f < cfg.f_min) | (f > cfg.f_max)
    v_viol = (v < cfg.v_min) | (v > cfg.v_max)
    rocof = _rocof_series(t, f, cfg.rocof_window)
    r_viol = np.zeros(t.shape, dtype=bool)
    ok = ~np.isnan(rocof)
    r_viol[ok] = rocof[ok] > cfg.rocof_max
    for viol in (f_viol, v_viol, r_viol):
        ok_times = t[~viol]
        t_ok = ok_times[-1] if ok_times.size else t[0]
        if viol[-1] and (now - t_ok) >= cfg.persist:
            return True
    return False


def fill_window(samples, capacity=None):
    capacity = capacity or (len(samples) + 2)
    w = MeasurementWindow(capacity)
    for t, f, v in samples:
        w.push(t, f, v)
    return w


def steady(n, f=60.0, v=1.0, t0=0.0):
    return [(t0 + k * DT, f, v) for k in range(n)]


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(f_min=61.0, f_max=60.0)
    with pytest.raises(ValueError):
        DetectorConfig(persist=0.0)


def test_window_ordering_and_span():
    w = fill_window(steady(5))
    t, f, v = w.as_arrays()
    assert list(t) == pytest.approx([0, DT, 2 * DT, 3 * DT, 4 * DT])
    assert w.span == pytest.approx(4 * DT)
    with pytest.raises(ValueError):
        w.push(0.0, 60.0, 1.0)  # not increasing


def test_window_wraps_around():
    w = MeasurementWindow(4)
    for k in range(10):
        w.push(k * DT, 60.0 + k, 1.0)
    t, f, _ = w.as_arrays()
    assert list(f) == [66.0, 67.0, 68.0, 69.0]
    assert list(t) == pytest.approx([6 * DT, 7 * DT, 8 * DT, 9 * DT])


def test_steady_conditions_no_trip():
    w = fill_window(steady(400))
    assert detect_islanding(w, CFG) is False


def test_insufficient_window_raises():
    w = fill_window(steady(10))
    with pytest.raises(InsufficientWindowError):
        detect_islanding(w, CFG)


def test_sustained_frequency_excursion_trips():
    # 60.8 Hz for 200 ms with persist 160 ms: trips
    samples = steady(300) + [
        (0.3 + k * DT, 60.8, 1.0) for k in range(200)
    ]
    w = fill_window(samples)
    assert detect_islanding(w, CFG) is True


def test_single_sample_spike_never_trips():
    samples = steady(300)
    samples.append((0.3, 61.0, 1.0))
    samples += [(0.3 + k * DT, 60.0, 1.0) for k in range(1, 100)]
    w = fill_window(samples)
    assert detect_islanding(w, CFG) is False


def test_voltage_collapse_trips():
    samples = steady(200) + [(0.2 + k * DT, 60.0, 0.0) for k in range(200)]
    w = fill_window(samples)
    assert detect_islanding(w, CFG) is True


def test_rocof_trips_on_sustained_ramp():
    # 5 Hz/s ramp sustained beyond persist
    samples = steady(200)
    for k in range(400):
        t = 0.2 + k * DT
        samples.append((t, 60.0 - 5.0 * k * DT, 1.0))
    w = fill_window(samples)
    assert detect_islanding(w, CFG) is True
    # the same ramp at 2 Hz/s stays inside both windows
    samples = steady(200)
    for k in range(400):
        t = 0.2 + k * DT
        samples.append((t, 60.0 - 2.0 * k * DT, 1.0))
    assert detect_islanding(fill_window(samples), CFG) is False


def test_threshold_duration_arithmetic():
    # excursion shorter than persist: no trip; exactly persist: trip
    base = steady(300)
    short = base + [(0.3 + k * DT, 60.8, 1.0) for k in range(100)]  # 100 ms
    assert detect_islanding(fill_window(short), CFG) is False
    exact = base + [(0.3 + k * DT, 60.8, 1.0) for k in range(165)]
    assert detect_islanding(fill_window(exact), CFG) is True


def test_monotone_persistence():
    cfg = CFG
    det = IslandingDetector(cfg, DT)
    tripped_at = None
    for k in range(1000):
        t = k * DT
        f = 60.0 if t < 0.3 else 61.0
        out = det.push(t, f, 1.0)
        if out and tripped_at is None:
            tripped_at = t
        if tripped_at is not None:
            assert out  # stays tripped while the excursion holds
    assert tripped_at == pytest.approx(0.3 + cfg.persist, abs=2 * DT)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(57.0, 63.0), st.floats(0.0, 1.3)), min_size=1, max_size=300))
def test_incremental_matches_batch(seq):
    # persist and lookback chosen off the sample grid so boundary-tie float
    # noise cannot make the two implementations disagree
    cfg = DetectorConfig(**F_WINDOW, persist=0.0505, rocof_window=0.0205)
    det = IslandingDetector(cfg, DT)
    w = MeasurementWindow(
        int(math.ceil((cfg.persist + cfg.rocof_window) / DT)) + 8
    )
    for k, (f, v) in enumerate(seq):
        t = k * DT
        inc = det.push(t, f, v)
        w.push(t, f, v)
        if w.span >= cfg.persist:
            assert inc == detect_islanding(w, cfg)


def test_reconnection_identical_sides_ready_after_hold():
    mon = ReconnectionMonitor(CFG, DT)
    v = 1.0 + 0j
    ready_at = None
    for k in range(1000):
        t = k * DT
        if mon.update(k, v, 60.0, True, v, 60.0, True) and ready_at is None:
            ready_at = t
    assert ready_at == pytest.approx(CFG.recon_hold, abs=2 * DT)


def test_reconnection_angle_gate():
    mon = ReconnectionMonitor(CFG, DT)
    va = 1.0 + 0j
    vb = complex(math.cos(math.radians(25)), math.sin(math.radians(25)))
    for k in range(1000):
        assert mon.update(k, va, 60.0, True, vb, 60.0, True) is False


def test_reconnection_requires_both_energized():
    mon = ReconnectionMonitor(CFG, DT)
    for k in range(1000):
        assert mon.update(k, 1 + 0j, 60.0, True, 0j, 60.0, False) is False


def test_reconnection_beat_crossing_matches_analytic_oracle():
    # island drifts at df = 0.05 Hz relative to the grid; the angle sweeps at
    # 2*pi*df rad/s. Readiness must fire one hold-time after the angle enters
    # the +/- recon_dtheta window (all other quantities in-window).
    cfg = CFG
    df = 0.05
    theta0 = math.radians(170.0)
    mon = ReconnectionMonitor(cfg, 1e-3)
    ready_at = None
    t_end = 1.0 / df + 5.0
    n = int(t_end / 1e-3)
    for k in range(n):
        t = k * 1e-3
        dth = theta0 + 2 * math.pi * df * t
        vb = complex(math.cos(dth), math.sin(dth))
        if mon.update(k, 1 + 0j, 60.0 + df, True, vb, 60.0, True) and ready_at is None:
            ready_at = t
            break
    # analytic oracle: first t with wrap(theta0 + 2*pi*df*t) inside the window
    t_cross = None
    for k in range(n):
        t = k * 1e-3
        if abs(wrap_angle(-(theta0 + 2 * math.pi * df * t))) <= cfg.recon_dtheta:
            t_cross = t
            break
    assert ready_at is not None
    assert ready_at == pytest.approx(t_cross + cfg.recon_hold, abs=5e-3)
    assert ready_at - t_cross <= 1.0 / df  # within one beat period
