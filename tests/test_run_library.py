import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_library.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_library", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root: Path, echo: str, metrics: dict) -> None:
    out = root / "case"
    out.mkdir(parents=True)
    (out / "timeseries.csv").write_text("t,f\n0,60\n")
    (out / "events.csv").write_text("t,type,target,detail\n")
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
