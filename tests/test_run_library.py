import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_library.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_library", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EVENTS = "t,type,target,detail\n"


def _write(root: Path, echo: str, metrics: dict, events: str = EVENTS,
           timeseries: str = "t,f\n0,60\n") -> None:
    out = root / "case"
    out.mkdir(parents=True)
    (out / "timeseries.csv").write_text(timeseries)
    (out / "events.csv").write_text(events)
    (out / "config.resolved.yaml").write_text(echo)
    (out / "metrics.json").write_text(json.dumps(metrics))


ECHO = "name: case\nbase:\n  f_nom: 60.0\ninverters:\n- id: inv\n  pll:\n    f_nom: 60.0\n    zeta: 0.7\n"


def test_compare_prints_the_changed_lines_of_a_differing_echo(tmp_path, capsys):
    compare = _load_script().compare
    metrics = {"power_sharing_error": 1.25, "wall_time_s": 2.0}
    _write(tmp_path / "ref", ECHO, metrics)
    _write(tmp_path / "same", ECHO, {**metrics, "wall_time_s": 3.0})
    _write(tmp_path / "new", ECHO.replace("    f_nom: 60.0\n", ""), metrics)

    assert compare(tmp_path / "same", tmp_path / "ref", ["case"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"0 compared file(s) differ from {tmp_path / 'ref'}"
    ]

    assert compare(tmp_path / "new", tmp_path / "ref", ["case"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: case/config.resolved.yaml",
        f"--- {tmp_path / 'ref' / 'case' / 'config.resolved.yaml'}",
        f"+++ {tmp_path / 'new' / 'case' / 'config.resolved.yaml'}",
        "@@ -7 +6,0 @@",
        "-    f_nom: 60.0",
        f"1 compared file(s) differ from {tmp_path / 'ref'}",
    ]


def test_compare_prints_the_moved_lines_of_differing_events_only(tmp_path, capsys):
    compare = _load_script().compare
    metrics = {"transitions": [{"t": 10.5585, "hold_elapsed": 0.2005}]}
    moved = '10.5585,transition,inv1,"gfm->gfl source=auto:grid-restored"\n'
    ready = '10.3575,reconnection_ready,inv1,"breaker=pcc_brk"\n'
    _write(tmp_path / "ref", ECHO, metrics, EVENTS + ready + moved)
    _write(
        tmp_path / "new", ECHO,
        {"transitions": [{"t": 10.558, "hold_elapsed": 0.2}]},
        EVENTS + ready + moved.replace("10.5585", "10.558"),
        timeseries="t,f\n0,60.5\n",
    )

    assert compare(tmp_path / "new", tmp_path / "ref", ["case"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # a differing timeseries is named, not diffed; the events show the one moved line
    assert lines[:6] == [
        "differs: case/timeseries.csv",
        "differs: case/events.csv",
        f"--- {tmp_path / 'ref' / 'case' / 'events.csv'}",
        f"+++ {tmp_path / 'new' / 'case' / 'events.csv'}",
        "@@ -3 +3 @@",
        "-" + moved.rstrip("\n"),
    ]
    assert lines[6:] == [
        "+" + moved.replace("10.5585", "10.558").rstrip("\n"),
        "metric:  case transitions[].hold_elapsed: max |delta| 0.0005",
        "metric:  case transitions[].t: max |delta| 0.0005",
        f"2 compared file(s) differ from {tmp_path / 'ref'}",
    ]
