import copy
import math
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpath import scenario
from dualpath.cli import main as cli_main
from dualpath.events import BreakerSet, LoadStep
from dualpath.scenario import (
    ParseError,
    ValidationError,
    load_config,
    parse_config,
    resolved_dict,
)
from dualpath.supervisor import Mode

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def minimal_doc(**overrides):
    doc = {
        "name": "mini",
        "dt": 1e-4,
        "t_end": 1.0,
        "buses": ["g", "b"],
        "lines": [{"from": "g", "to": "b", "r": 0.01, "x": 0.05}],
        "grid_sources": [{"id": "src", "bus": "g", "v": 1.0, "r_s": 0.001, "x_s": 0.01}],
        "inverters": [{"id": "inv", "bus": "b", "mode": "gfl", "p_set": 0.2}],
    }
    doc.update(overrides)
    return doc


def test_minimal_config_fills_documented_defaults():
    cfg = parse_config(minimal_doc())
    inv = cfg.inverters[0]
    assert cfg.base.s_base == 5000.0 and cfg.base.v_base == 208.0
    assert inv.rating == 5000.0
    assert inv.mode is Mode.GFL
    assert inv.droop.m_p == 0.01
    assert inv.droop.n_q == 0.05
    assert inv.droop.k_r == 0.5
    assert inv.droop.omega_c == pytest.approx(2 * math.pi * 10)
    assert inv.vz.x_v == 0.05 and inv.vz.k_adapt == 0.0
    assert inv.detector.f_min == 59.3 and inv.detector.persist == 0.16
    # the windows are offsets from base.f_nom that give these Hz to the bit
    assert inv.detector.f_max == 60.5
    assert (inv.guard.f_pred_min, inv.guard.f_pred_max) == (59.5, 60.5)
    assert inv.detector.recon_dtheta == pytest.approx(math.radians(10.0))
    assert inv.thresholds.eps_theta == pytest.approx(math.radians(5.0))
    assert inv.z_c == pytest.approx(0.005 + 0.05j)


def test_frequency_defaults_follow_base_f_nom():
    cfg = parse_config(minimal_doc(base={"f_nom": 50.0}))
    inv = cfg.inverters[0]
    assert cfg.grid_sources[0].f_grid == 50.0
    assert (inv.detector.f_min, inv.detector.f_max) == (49.3, 50.5)
    assert (inv.guard.f_pred_min, inv.guard.f_pred_max) == (49.5, 50.5)


@pytest.mark.parametrize("block, window, problems", [
    ("detector", {"f_min": 59.3, "f_max": 60.5}, ["detector.f_min"]),
    ("detector", {"f_max": 50.0}, ["detector.f_max"]),
    ("guard", {"f_pred_min": 59.5, "f_pred_max": 60.5}, ["guard.f_pred_min"]),
    ("guard", {"f_pred_min": 40.0, "f_pred_max": 49.9}, ["guard.f_pred_max"]),
    ("guard", {"f_pred_min": 50.0}, ["guard.f_pred_min"]),
], ids=["detector_60_hz", "detector_max_at_nominal", "guard_60_hz", "guard_below",
        "guard_min_at_nominal"])
def test_frequency_window_must_hold_base_f_nom(block, window, problems):
    doc = minimal_doc(base={"f_nom": 50.0})
    doc["inverters"][0][block] = window
    with pytest.raises(ValidationError) as exc:
        parse_config(doc)
    wheres = [p.split(": ")[0] for p in exc.value.problems]
    assert wheres == [f"inverters[0].{key}" for key in problems], exc.value.problems
    assert "base.f_nom (50.0 Hz)" in exc.value.problems[0]


@pytest.mark.parametrize("guard", [
    {"v_nom_min": 1.05, "v_nom_max": 0.95},
    {"v_pred_min": 1.0, "v_pred_max": 1.0},
    {"v_pred_min": 1.1, "v_pred_max": 0.9},
], ids=["v_nom_reversed", "v_pred_empty", "v_pred_reversed"])
def test_empty_guard_voltage_window_is_a_problem(guard):
    doc = minimal_doc()
    doc["inverters"][0]["guard"] = guard
    with pytest.raises(ValidationError) as exc:
        parse_config(doc)
    assert exc.value.problems == ["inverters[0]: guard windows must be non-empty"]
    # a one-point setpoint window is allowed
    doc["inverters"][0]["guard"] = {"v_nom_min": 1.0, "v_nom_max": 1.0}
    parse_config(doc)


def test_mismatched_k_r_names_all_inverters():
    doc = minimal_doc(
        buses=["g", "b", "c"],
        lines=[
            {"from": "g", "to": "b", "r": 0.01, "x": 0.05},
            {"from": "g", "to": "c", "r": 0.01, "x": 0.05},
        ],
        inverters=[
            {"id": "inv1", "bus": "b", "droop": {"k_r": 0.5}},
            {"id": "inv2", "bus": "c", "droop": {"k_r": 0.6}},
        ],
    )
    with pytest.raises(ValidationError) as exc:
        parse_config(doc)
    msg = str(exc.value)
    assert "inv1" in msg and "inv2" in msg and "k_r" in msg


def test_dt_bounds_enforced():
    with pytest.raises(ValidationError, match="dt"):
        parse_config(minimal_doc(dt=2e-3))
    with pytest.raises(ValidationError, match="dt"):
        parse_config(minimal_doc(dt=0.0))


def _set(doc, path, value):
    *keys, last = path
    for key in keys:
        doc = doc[key]
    doc[last] = value


# (field path in the problem, path into the document, unreadable value)
UNREADABLE = [
    ("dt", ("dt",), "fast"),
    ("t_end", ("t_end",), "long"),
    ("seed", ("seed",), "x"),
    ("output.decimate", ("output", "decimate"), "ten"),
    ("output.noise_std", ("output", "noise_std"), "loud"),
    ("breakers[0].closed", ("breakers", 0, "closed"), "false"),
    ("breakers[0].closed", ("breakers", 0, "closed"), 0),
    ("inverters[0].auto", ("inverters", 0, "auto"), "false"),
    ("inverters[0].plugged", ("inverters", 0, "plugged"), "false"),
    ("inverters[0]", ("inverters", 0, "mode"), 1),
    ("events[0].closed", ("events", 0, "closed"), "false"),
    ("inverters[0].pll.sogi_k", ("inverters", 0, "pll"), {"sogi_k": "a"}),
    ("inverters[0].detector.rocof_max", ("inverters", 0, "detector"), {"rocof_max": "a"}),
    ("inverters[0].thresholds.eps_v", ("inverters", 0, "thresholds"), {"eps_v": "x"}),
    ("inverters[0].guard.rate_p", ("inverters", 0, "guard"), {"rate_p": "x"}),
]


@pytest.mark.parametrize("where, path, value", UNREADABLE, ids=[c[0] for c in UNREADABLE])
def test_unreadable_scalar_or_flag_is_a_problem_with_its_path(where, path, value):
    # a quoted "false" is not read as True, and a non-number is reported
    # instead of escaping as a bare ValueError
    doc = minimal_doc(
        breakers=[{"id": "br", "from": "g", "to": "b", "closed": True}],
        events=[{"t": 0.1, "type": "breaker_set", "target": "br", "closed": False}],
        output={"decimate": 1, "noise_std": 0.0},
        seed=3,
    )
    parse_config(doc)
    _set(doc, path, value)
    with pytest.raises(ValidationError) as exc:
        parse_config(doc)
    assert [p for p in exc.value.problems if p.startswith(f"{where}: ")], exc.value.problems


@pytest.mark.parametrize("where, path, value", [
    ("seed", ("seed",), 1.9),
    ("seed", ("seed",), True),
    ("output.decimate", ("output", "decimate"), 2.7),
    ("output.decimate", ("output", "decimate"), False),
    ("output.decimate", ("output", "decimate"), "2.5"),
], ids=["seed_float", "seed_bool", "decimate_float", "decimate_bool", "decimate_str"])
def test_non_integer_seed_or_decimate_is_a_problem_not_truncated(where, path, value):
    doc = minimal_doc(output={"decimate": 1}, seed=3)
    _set(doc, path, value)
    with pytest.raises(ValidationError) as exc:
        parse_config(doc)
    assert [p for p in exc.value.problems if p.startswith(f"{where}: ")], exc.value.problems
    # an integral float is read as its integer
    _set(doc, path, 2.0)
    cfg = parse_config(doc)
    assert (cfg.seed, cfg.output.decimate)[path[0] == "output"] == 2


def test_cli_validate_reports_unreadable_dt(tmp_path, capsys):
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(minimal_doc(dt="fast")))
    assert cli_main(["validate", str(scen)]) == 1
    assert "invalid: dt: " in capsys.readouterr().err


@pytest.mark.parametrize("event", [
    {"t": 0.0, "type": "mode_command", "target": "inv", "mode": "foo"},
    {"t": 0.0, "type": "setpoint", "target": "inv", "source": "scada", "mode": "foo"},
    {"t": 0.0, "type": "mode_command", "target": "inv", "mode": 1},
], ids=["mode_command", "setpoint", "not_a_string"])
def test_unknown_event_mode_is_a_problem_not_a_run_crash(tmp_path, capsys, event):
    doc = minimal_doc(events=[event])
    with pytest.raises(ValidationError) as exc:
        parse_config(doc)
    assert [p for p in exc.value.problems if p.startswith("events[0].mode: unknown mode")]
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(doc))
    assert cli_main(["validate", str(scen)]) == 1
    assert "events[0].mode: " in capsys.readouterr().err
    # a known mode is kept as its lowercase name, so the echo is unchanged
    event["mode"] = "gfm"
    cfg = parse_config(doc)
    assert cfg.events[0].event.mode == "gfm"
    assert resolved_dict(cfg)["events"][0]["mode"] == "gfm"


@pytest.mark.parametrize("rate", [0, -0.5, "fast", math.inf, True])
def test_black_start_ramp_rate_must_be_a_positive_number(rate):
    doc = minimal_doc()
    doc["inverters"][0].update(mode="gfm", black_start={"ramp_rate": rate})
    with pytest.raises(ValidationError) as exc:
        parse_config(doc)
    assert [p for p in exc.value.problems
            if p.startswith("inverters[0]: ") and "ramp_rate" in p], exc.value.problems
    doc["inverters"][0]["black_start"] = {"ramp_rate": 2}
    assert parse_config(doc).inverters[0].black_start.ramp_rate == 2


def test_unknown_bus_and_target_reported_with_paths():
    doc = minimal_doc(
        loads=[{"id": "ld", "bus": "nope", "kind": "power", "p": 0.1}],
        events=[{"t": 0.5, "type": "load_step", "target": "ghost", "dp": 0.1}],
    )
    with pytest.raises(ValidationError) as exc:
        parse_config(doc)
    msg = str(exc.value)
    assert "loads[0].bus" in msg
    assert "events[0].target" in msg


def test_event_target_kind_checked():
    doc = minimal_doc(
        events=[{"t": 0.5, "type": "load_step", "target": "inv", "dp": 0.1}]
    )
    with pytest.raises(ValidationError, match="expected a load"):
        parse_config(doc)


def test_event_time_outside_run_rejected():
    doc = minimal_doc(
        events=[{"t": 5.0, "type": "mode_command", "target": "inv", "mode": "gfm"}]
    )
    with pytest.raises(ValidationError, match="outside"):
        parse_config(doc)


def test_events_sorted_by_time():
    doc = minimal_doc(
        loads=[{"id": "ld", "bus": "b", "kind": "power", "p": 0.1}],
        events=[
            {"t": 0.8, "type": "load_step", "target": "ld", "dp": 0.1},
            {"t": 0.2, "type": "load_step", "target": "ld", "dp": 0.1},
        ],
    )
    cfg = parse_config(doc)
    assert [te.t for te in cfg.events] == [0.2, 0.8]


INF, NAN = math.inf, math.nan
# (field path in the problem, path into the document, value): durations a
# control step counts and thresholds it compares must be finite, NaN failing
# every bound
NOT_FINITE_OR_OUT_OF_RANGE = [
    ("t_end", ("t_end",), INF),
    ("t_end", ("t_end",), NAN),
    ("inverters[0].detector.rocof_window", ("inverters", 0, "detector", "rocof_window"), NAN),
    ("inverters[0].detector.persist", ("inverters", 0, "detector", "persist"), 0.0),
    ("inverters[0].detector.persist", ("inverters", 0, "detector", "persist"), INF),
    ("inverters[0].detector.recon_hold", ("inverters", 0, "detector", "recon_hold"), NAN),
    ("inverters[0]", ("inverters", 0, "detector", "v_min"), NAN),
    ("inverters[0]", ("inverters", 0, "detector", "v_max"), NAN),
    ("inverters[0].thresholds.hold", ("inverters", 0, "thresholds", "hold"), NAN),
    ("inverters[0].thresholds.hold", ("inverters", 0, "thresholds", "hold"), -0.2),
    ("inverters[0].thresholds.eps_v", ("inverters", 0, "thresholds", "eps_v"), INF),
    ("inverters[0].thresholds.eps_f", ("inverters", 0, "thresholds", "eps_f"), -0.1),
    ("inverters[0].thresholds.eps_theta_deg",
     ("inverters", 0, "thresholds", "eps_theta_deg"), NAN),
    ("inverters[0].pll.lock_time", ("inverters", 0, "pll", "lock_time"), NAN),
    ("inverters[0].pll.uv_time", ("inverters", 0, "pll", "uv_time"), INF),
    ("events[0].duration", ("events", 0, "duration"), NAN),
    ("events[0].duration", ("events", 0, "duration"), -0.2),
    ("events[0].duration", ("events", 0, "duration"), 0.0),
]


@pytest.mark.parametrize(
    "where, path, value", NOT_FINITE_OR_OUT_OF_RANGE,
    ids=[f"{c[1][-1]}={c[2]}" for c in NOT_FINITE_OR_OUT_OF_RANGE],
)
def test_non_finite_duration_or_threshold_is_a_problem_under_its_path(where, path, value):
    doc = minimal_doc(
        loads=[{"id": "ld", "bus": "b", "kind": "power", "p": 0.1}],
        events=[{"t": 0.2, "type": "pulse_load", "target": "ld", "dp": 0.1, "duration": 0.2}],
    )
    doc["inverters"][0].update(detector={}, thresholds={}, pll={})
    parse_config(doc)
    _set(doc, path, value)
    with pytest.raises(ValidationError) as exc:
        parse_config(doc)
    assert [p for p in exc.value.problems if p.startswith(f"{where}: ")], exc.value.problems


def test_breaker_without_line_rejected():
    doc = minimal_doc(
        breakers=[{"id": "br", "from": "b", "to": "b"}],
    )
    doc["buses"] = ["g", "b", "c"]
    doc["breakers"] = [{"id": "br", "from": "b", "to": "c"}]
    with pytest.raises(ValidationError, match="no line"):
        parse_config(doc)


def test_duplicate_ids_rejected():
    doc = minimal_doc(
        loads=[{"id": "inv", "bus": "b", "kind": "power", "p": 0.1}],
    )
    with pytest.raises(ValidationError, match="duplicate id"):
        parse_config(doc)


def test_stability_bound_check():
    doc = minimal_doc(dt=1e-3)
    doc["inverters"][0]["droop"] = {"f_c": 200.0}  # omega_c*dt = 1.26
    with pytest.raises(ValidationError, match="omega_c"):
        parse_config(doc)


def test_unknown_event_type():
    doc = minimal_doc(events=[{"t": 0.1, "type": "explode", "target": "inv"}])
    with pytest.raises(ValidationError, match="unknown event type"):
        parse_config(doc)


def test_parse_error_on_bad_file(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("just a string")
    with pytest.raises(ParseError):
        load_config(p)
    p2 = tmp_path / "empty.yaml"
    p2.write_text("")
    with pytest.raises(ParseError):
        load_config(p2)


def test_canonical_testbed_loads():
    # two 30 kVA emulators, four 5 kVA / 208 V three-phase inverters
    cfg = load_config(SCENARIOS / "canonical_testbed.yaml")
    assert cfg.base.v_base == 208.0
    assert len(cfg.grid_sources) == 2
    assert all(src.rating == 30000.0 for src in cfg.grid_sources)
    assert len(cfg.inverters) == 4
    assert all(inv.rating == 5000.0 for inv in cfg.inverters)


def test_all_shipped_scenarios_load():
    names = sorted(p.name for p in SCENARIOS.glob("*.yaml"))
    assert len(names) >= 10
    for p in sorted(SCENARIOS.glob("*.yaml")):
        cfg = load_config(p)
        assert cfg.t_end > 0


def test_resolved_dict_roundtrips():
    cfg = parse_config(minimal_doc())
    echo = resolved_dict(cfg)
    # the echo must itself be a valid scenario describing the same system
    cfg2 = parse_config(yaml.safe_load(yaml.safe_dump(echo)))
    assert cfg2.buses == cfg.buses
    assert cfg2.inverters[0].droop.m_p == cfg.inverters[0].droop.m_p
    assert cfg2.inverters[0].detector.persist == cfg.inverters[0].detector.persist
    assert len(cfg2.events) == len(cfg.events)


def _equal(a, b):
    """Equal structures, floats within 1e-12."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= 1e-12
    return type(a) is type(b) and a == b


def test_library_echo_parses_to_the_same_echo():
    for path in sorted(SCENARIOS.glob("*.yaml")):
        echo = resolved_dict(load_config(path))
        again = resolved_dict(parse_config(yaml.safe_load(yaml.safe_dump(echo))))
        assert _equal(again, echo), path.name


def test_event_dataclass_parsing():
    doc = minimal_doc(
        breakers=[{"id": "br", "from": "g", "to": "b", "closed": True}],
        loads=[{"id": "ld", "bus": "b", "kind": "power", "p": 0.1}],
        events=[
            {"t": 0.1, "type": "breaker_set", "target": "br", "closed": False},
            {"t": 0.2, "type": "load_step", "target": "ld", "dp": -0.05, "dq": 0.01},
        ],
    )
    cfg = parse_config(doc)
    assert isinstance(cfg.events[0].event, BreakerSet)
    assert cfg.events[0].event.closed is False
    assert isinstance(cfg.events[1].event, LoadStep)
    assert cfg.events[1].event.dp == -0.05


# (field path in the problem, path into the document, a value of the wrong shape)
WRONG_SHAPE = [
    ("base", ("base",), None),
    ("output", ("output",), None),
    ("lines", ("lines",), None),
    ("events", ("events",), None),
    ("inverters[0]", ("inverters",), [3]),
    ("events[0]", ("events",), ["x"]),
    ("inverters[0].coupling", ("inverters", 0, "coupling"), None),
    ("buses", ("buses",), "pcc"),
]


@pytest.mark.parametrize("where, path, value", WRONG_SHAPE, ids=[
    "base_null", "output_null", "lines_null", "events_null", "inverter_not_mapping",
    "event_not_mapping", "coupling_null", "buses_string",
])
def test_wrong_shaped_block_is_a_problem_under_its_path(where, path, value):
    doc = minimal_doc(events=[{"t": 0.1, "type": "mode_command", "target": "inv", "mode": "gfm"}])
    _set(doc, path, value)
    with pytest.raises(ValidationError) as exc:
        parse_config(doc)
    assert [p for p in exc.value.problems if p.startswith(f"{where}: expected a ")], \
        exc.value.problems


@pytest.mark.parametrize("where, path, value", [
    ("p_sett", ("p_sett",), 0.2),
    ("lines[0].xx", ("lines", 0, "xx"), 0.1),
    ("grid_sources[0].x", ("grid_sources", 0, "x"), 0.1),
    ("inverters[0].p_sett", ("inverters", 0, "p_sett"), 0.2),
    ("inverters[0].droop.m_pp", ("inverters", 0, "droop"), {"m_pp": 0.01}),
    ("inverters[0].droop.p_set", ("inverters", 0, "droop"), {"p_set": 0.2}),
    ("events[0].dp", ("events", 0, "dp"), 0.1),
    ("inverters[0].pll.f_nom", ("inverters", 0, "pll"), {"f_nom": 60.0}),
], ids=["top", "line", "source", "inverter", "droop", "droop_setpoint", "event", "pll_f_nom"])
def test_unknown_key_is_a_problem_under_its_path(where, path, value):
    # a misspelt key is reported at every level, never dropped
    doc = minimal_doc(events=[{"t": 0.1, "type": "mode_command", "target": "inv", "mode": "gfm"}])
    parse_config(doc)
    _set(doc, path, value)
    with pytest.raises(ValidationError) as exc:
        parse_config(doc)
    assert f"{where}: unknown key" in exc.value.problems, exc.value.problems


def test_null_disables_an_optional_guard_rate_only():
    doc = minimal_doc()
    doc["inverters"][0]["guard"] = {"rate_p": None, "rate_v": None}
    guard = parse_config(doc).inverters[0].guard
    assert guard.rate_p is None and guard.rate_v is None
    doc["inverters"][0]["guard"] = {"s_max": None}
    with pytest.raises(ValidationError, match=r"inverters\[0\]\.guard\.s_max: "):
        parse_config(doc)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_schema_example_is_a_valid_scenario():
    section = README.read_text().split("## Scenario schema (YAML)", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(yaml.safe_load(block))
    assert len(cfg.events) == 8 and len(cfg.inverters) == 2


def _rich_doc():
    """A scenario with an element of every kind and an event of every type."""
    return minimal_doc(
        buses=["g", "b", "c"],
        lines=[
            {"from": "g", "to": "b", "r": 0.01, "x": 0.05},
            {"from": "b", "to": "c", "r": 0.01, "x": 0.05},
        ],
        breakers=[{"id": "br", "from": "g", "to": "b"}],
        loads=[
            {"id": "lz", "bus": "c", "kind": "impedance", "r": 2.0, "x": 0.5},
            {"id": "lp", "bus": "b", "p": 0.1},
        ],
        inverters=[{"id": "inv", "bus": "b", "mode": "gfm", "p_set": 0.2,
                    "pcc_breaker": "br", "black_start": {}}],
        events=[
            {"t": 0.1, "type": "load_step", "target": "lz", "dp": 0.1},
            {"t": 0.2, "type": "breaker_set", "target": "br", "closed": False},
            {"t": 0.3, "type": "source_freq", "target": "src", "f": 60.1},
            {"t": 0.4, "type": "source_unbalance", "target": "src", "mag": 0.05,
             "angle_deg": 30.0},
            {"t": 0.5, "type": "setpoint", "target": "inv", "p_set": 0.3},
            {"t": 0.6, "type": "mode_command", "target": "inv", "mode": "gfl"},
            {"t": 0.7, "type": "plug_in", "target": "inv"},
            {"t": 0.8, "type": "pulse_load", "target": "lp", "dp": 0.1},
        ],
        output={"decimate": 2},
    )


NUMBERS = (
    scenario._float, scenario._integer, scenario._radians, scenario._positive,
    scenario._non_negative, scenario._non_negative_radians,
)


def _value_keys(parse, doc, path=()):
    """(field path, path into ``doc``, table entry) of every number, integer
    and flag key of ``doc``, a document the schema table ``parse`` reads."""
    if isinstance(parse, scenario._List):
        for i, item in enumerate(doc):
            yield from _value_keys(parse.item, item, (*path, i))
    elif isinstance(parse, scenario._Variant):
        yield from _value_keys(parse.tables[doc[parse.tag]], doc, path)
    elif isinstance(parse, scenario._Table):
        for key, k in parse.keys.items():
            if k.parse in NUMBERS or k.parse is scenario._flag:
                where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in (*path, key))
                yield where.lstrip("."), (*path, key), k
            elif key in doc and k.arg:
                yield from _value_keys(k.parse, doc[key], (*path, key))


# the echo of a rich scenario holds every key of the schema but input-only aliases
FULL = resolved_dict(parse_config(_rich_doc()))
VALUE_KEYS = list(_value_keys(scenario._SCENARIO, FULL))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _junk(k):
    """Values the key ``k`` must refuse; null is valid where it is optional."""
    junk = ["x", [1], {"a": 1}, 0 if k.parse is scenario._flag else True]
    return junk if k.optional else [*junk, None]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_junk_in_any_value_key_is_a_problem_under_its_path(data):
    where, path, k = data.draw(st.sampled_from(VALUE_KEYS))
    doc = copy.deepcopy(FULL)
    _set(doc, path, data.draw(st.sampled_from(_junk(k))))
    with pytest.raises(ValidationError) as exc:
        parse_config(doc)
    assert [p for p in exc.value.problems if p.startswith(f"{where}: ")], exc.value.problems


def _valid(k, value, around=0.0):
    """Values of the key ``k`` near ``around + value`` that keep the scenario
    valid, as numbers or numeric strings; null where the key is optional."""
    if k.parse is scenario._flag:
        return st.booleans()
    if k.parse is scenario._integer:
        return st.integers(1, 5)
    numbers = (
        st.floats(0.0, 0.5) if value is None
        else st.floats(0.995, 1.005).map(lambda f: around + value * f)
    )
    numbers = numbers | numbers.map(str)
    return st.none() | numbers if k.optional else numbers


# the frequency window edges, which must hold base.f_nom
WINDOW_EDGES = {"f_min", "f_max", "f_pred_min", "f_pred_max"}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_echo_of_valid_values_parses_to_the_same_echo(data):
    wheres = {where for where, _, _ in VALUE_KEYS}
    assert {"dt", "seed", "base.f_nom", "lines[1].x", "breakers[0].closed",
            "grid_sources[0].angle_deg", "loads[1].q", "inverters[0].coupling.r",
            "inverters[0].pll.sogi_k", "inverters[0].guard.rate_v",
            "inverters[0].detector.f_max", "inverters[0].guard.f_pred_min",
            "inverters[0].thresholds.eps_theta_deg", "events[3].angle_deg",
            "events[4].v_nom", "output.decimate"} <= wheres
    doc = copy.deepcopy(FULL)
    for where, path, k in VALUE_KEYS:
        value, around = _get(FULL, path), 0.0
        if path[-1] in WINDOW_EDGES:  # an offset from the drawn base.f_nom
            around = float(doc["base"]["f_nom"])
            value -= FULL["base"]["f_nom"]
        _set(doc, path, data.draw(_valid(k, value, around), label=where))
    echo = resolved_dict(parse_config(doc))
    again = resolved_dict(parse_config(yaml.safe_load(yaml.safe_dump(echo))))
    assert _equal(again, echo)


def test_droop_cutoff_is_given_in_hz_or_rad_per_s_not_both():
    doc = minimal_doc()
    doc["inverters"][0]["droop"] = {"f_c": 5.0}
    assert parse_config(doc).inverters[0].droop.omega_c == pytest.approx(2 * math.pi * 5.0)
    doc["inverters"][0]["droop"] = {"omega_c": 20.0, "f_c": 5.0}
    with pytest.raises(ValidationError, match=r"inverters\[0\]\.droop\.f_c: sets omega_c"):
        parse_config(doc)
