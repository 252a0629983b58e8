"""Communication-free islanding and reconnection detection.

Islanding detection is passive: a trip requires frequency outside its window,
voltage outside its window, or |df/dt| above the ROCOF limit, sustained
continuously for the persistence time.  Single-sample excursions never trip.

Reconnection readiness watches both sides of the inverter's own tie breaker
(purely local sensing) and fires once magnitude, frequency and angle across
the open breaker have stayed inside their windows for the hold time.

Known limitation: passive detection has a non-detection zone when island load
closely matches island generation; the shipped scenarios only rely on
detection above a 0.3 pu mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .frames import wrap_angle


@dataclass(frozen=True, slots=True)
class DetectorConfig:
    f_min: float | None = None    # Hz; None: set from base.f_nom by parsing
    f_max: float | None = None
    v_min: float = 0.88
    v_max: float = 1.10
    rocof_max: float = 3.0        # Hz/s
    rocof_window: float = 0.1     # s, span of the df/dt estimate
    persist: float = 0.16         # s
    recon_dv: float = 0.05        # pu
    recon_df: float = 0.1         # Hz
    recon_hold: float = 0.5       # s
    recon_dtheta: float = math.radians(10.0)

    def __post_init__(self) -> None:
        f_empty = None not in (self.f_min, self.f_max) and self.f_min >= self.f_max
        if f_empty or self.v_min >= self.v_max:
            raise ValueError("detector windows must be non-empty")
        if self.persist <= 0 or self.recon_hold <= 0:
            raise ValueError("persist and recon_hold must be positive")


class IslandingDetector:
    """Incremental islanding detector: O(1) per sample for the hot loop,
    specialized for fixed-rate sampling.  The batch oracle it is checked
    against, which evaluates a whole window of samples at once, lives in
    ``tests/test_detect.py``.

    The ROCOF estimate uses a lookback of ceil(rocof_window/dt) samples, the
    sample a batch evaluation over the same timestamps would pick.
    """

    def __init__(self, cfg: DetectorConfig, dt: float):
        self.cfg = cfg
        self.dt = dt
        self._n_rocof = max(1, int(math.ceil(cfg.rocof_window / dt - 1e-9)))
        self._f_ring = [0.0] * (self._n_rocof + 1)
        self._k = -1  # sample index of the latest push
        self._t_last_ok_f: float | None = None
        self._t_last_ok_v: float | None = None
        self._t_last_ok_r: float | None = None
        self._t_first: float | None = None
        self.tripped = False

    def push(self, t: float, f: float, v: float) -> bool:
        cfg = self.cfg
        self._k += 1
        k = self._k
        if self._t_first is None:
            self._t_first = t
        ring = self._f_ring
        n = self._n_rocof
        if k >= n:
            f_old = ring[(k - n) % (n + 1)]
            r_bad = abs((f - f_old) / (n * self.dt)) > cfg.rocof_max
        else:
            r_bad = False
        ring[k % (n + 1)] = f

        f_bad = f < cfg.f_min or f > cfg.f_max
        v_bad = v < cfg.v_min or v > cfg.v_max
        if not f_bad:
            self._t_last_ok_f = t
        if not v_bad:
            self._t_last_ok_v = t
        if not r_bad:
            self._t_last_ok_r = t

        tripped = False
        if (f_bad or v_bad or r_bad) and k * self.dt >= cfg.persist:
            first = self._t_first
            for bad, t_ok in (
                (f_bad, self._t_last_ok_f),
                (v_bad, self._t_last_ok_v),
                (r_bad, self._t_last_ok_r),
            ):
                if bad and t - (t_ok if t_ok is not None else first) >= cfg.persist:
                    tripped = True
                    break
        self.tripped = tripped
        return tripped


class ReconnectionMonitor:
    """Synch-check across the inverter's own open tie breaker."""

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self.holds_since: float | None = None
        self.ready = False

    def update(
        self,
        t: float,
        v_local: complex,
        f_local: float,
        local_energized: bool,
        v_remote: complex,
        f_remote: float,
        remote_energized: bool,
    ) -> bool:
        if not (local_energized and remote_energized):
            self.holds_since = None
            self.ready = False
            return False
        cfg = self.cfg
        dv = abs(abs(v_local) - abs(v_remote))
        df = abs(f_local - f_remote)
        dtheta = wrap_angle(
            math.atan2(v_local.imag, v_local.real)
            - math.atan2(v_remote.imag, v_remote.real)
        )
        within = (
            dv <= cfg.recon_dv
            and df <= cfg.recon_df
            and abs(dtheta) <= cfg.recon_dtheta
        )
        if within:
            if self.holds_since is None:
                self.holds_since = t
            self.ready = (t - self.holds_since) >= cfg.recon_hold
        else:
            self.holds_since = None
            self.ready = False
        return self.ready
