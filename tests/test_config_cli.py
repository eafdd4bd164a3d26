"""Configuration parsing, CLI subcommands, and report serialization."""

import io
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagsem
from lagsem import suites
from lagsem.cli import dump_kernel, main
from lagsem.config import ConfigError, SuiteConfig
from lagsem.reports import CheckResult, SuiteReport
from lagsem.suites import SUITE_NAMES, run_suite


def test_package_and_cli_import_numpy_only():
    # scipy is a test dependency only; it is a reference in tests/
    src = os.path.dirname(os.path.dirname(os.path.abspath(lagsem.__file__)))
    code = "import sys, lagsem, lagsem.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_config_defaults_validate():
    cfg = SuiteConfig().validate()
    assert cfg.order == (0.5,)
    assert cfg.fast


def test_config_text_round_trip():
    cfg = SuiteConfig(
        order=(0.5, 1.0), k_max=60, seed=3, fast=False,
        atom_p=0.8, n_atoms=9, box_lo=0.1, box_hi=5.0,
    )
    assert SuiteConfig.from_text(cfg.to_text()) == cfg


def test_config_comments_and_blanks_ignored():
    text = "# suite setup\n\nk_max = 12   # truncation\n\nseed=4\n"
    cfg = SuiteConfig.from_text(text)
    assert cfg.k_max == 12
    assert cfg.seed == 4
    assert cfg.order == (0.5,)


def test_config_unknown_key_named():
    with pytest.raises(ConfigError, match="widget"):
        SuiteConfig.from_text("widget = 3\n")


def test_config_bad_order_named():
    with pytest.raises(ConfigError, match="order"):
        SuiteConfig.from_text("order = 0.5,-0.7\n")


def test_config_bad_int_named():
    with pytest.raises(ConfigError, match="k_max"):
        SuiteConfig.from_text("k_max = soon\n")


def test_config_bad_bool_named():
    with pytest.raises(ConfigError, match="fast"):
        SuiteConfig.from_text("fast = maybe\n")


def test_config_range_checks():
    with pytest.raises(ConfigError, match="atom_p"):
        SuiteConfig(atom_p=1.5).validate()
    with pytest.raises(ConfigError, match="k_max"):
        SuiteConfig(k_max=500).validate()
    with pytest.raises(ConfigError, match="box_lo"):
        SuiteConfig(box_lo=3.0, box_hi=1.0).validate()
    with pytest.raises(ConfigError, match="seed: must be a non-negative integer"):
        SuiteConfig(seed=-1)


@st.composite
def _configs(draw):
    box_lo = draw(st.floats(min_value=0.0, max_value=1e6))
    return SuiteConfig(
        order=tuple(draw(st.lists(st.floats(min_value=-0.5, max_value=1e6), min_size=1, max_size=3))),
        k_max=draw(st.integers(0, 200)),
        seed=draw(st.integers(0, 2**63)),
        fast=draw(st.booleans()),
        atom_p=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        n_atoms=draw(st.integers(1, 10**6)),
        box_lo=box_lo,
        box_hi=draw(st.floats(min_value=box_lo, max_value=1e9, exclude_min=True)),
    )


@settings(max_examples=200, deadline=None)
@given(_configs())
def test_config_text_and_json_forms_round_trip(cfg):
    assert SuiteConfig.from_text(cfg.to_text()) == cfg
    blob = cfg.to_json_dict()
    assert list(blob) == [f.name for f in fields(SuiteConfig)]
    assert json.loads(json.dumps(blob)) == blob
    assert SuiteConfig(**dict(blob, order=tuple(blob["order"]))) == cfg


# one bad value per field type: unparseable for int and bool, parsed but
# not finite for the order tuple and the floats
_BAD_TEXT = {tuple: "0.5,inf", int: "2.5", bool: "maybe", float: "inf"}


@pytest.mark.parametrize("field", fields(SuiteConfig), ids=lambda f: f.name)
def test_config_bad_value_names_field(field):
    with pytest.raises(ConfigError, match=field.name):
        SuiteConfig.from_text(f"{field.name} = {_BAD_TEXT[type(field.default)]}\n")


def test_config_fields_take_the_type_of_their_default():
    # a sequence order becomes a float tuple, a real number a float: the
    # config is hashable and its text form reads back to an equal config
    cfg = SuiteConfig(order=[0.5, 1], atom_p=np.float64(0.8), box_hi=5)
    assert cfg.order == (0.5, 1.0) and all(type(v) is float for v in cfg.order)
    assert type(cfg.atom_p) is float and type(cfg.box_hi) is float
    assert hash(cfg) == hash(SuiteConfig(order=(0.5, 1.0), atom_p=0.8, box_hi=5.0))
    assert SuiteConfig.from_text(cfg.to_text()) == cfg
    # a value whose text form from_text would reject is refused up front
    for name, value in (("k_max", 2.5), ("k_max", True), ("n_atoms", "5"), ("seed", 7.0),
                        ("fast", 1), ("fast", "true"), ("atom_p", "0.5"), ("box_lo", False),
                        ("order", 0.5), ("order", "0.5"), ("order", ["x"])):
        with pytest.raises(ConfigError, match=name):
            SuiteConfig(**{name: value})


def test_config_missing_equals_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        SuiteConfig.from_text("k_max = 10\nnonsense\n")


def test_config_file_round_trip(tmp_path):
    cfg = SuiteConfig(order=(1.5,), seed=11, fast=False)
    path = tmp_path / "suite.cfg"
    cfg.dump(path)
    assert SuiteConfig.load(path) == cfg


def test_cli_config_check_ok(tmp_path, capsys):
    path = tmp_path / "ok.cfg"
    path.write_text("order = 1.0\nseed = 2\n")
    assert main(["config-check", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert "order = 1.0" in captured.out
    assert "seed = 2" in captured.out
    assert "configuration ok" in captured.err


def test_cli_config_check_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("order = -0.9\n")
    assert main(["config-check", "--config", str(path)]) == 2
    assert "order" in capsys.readouterr().err


def test_cli_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["run", "--suite", "everything"])


def _fake_report(passed):
    results = [
        CheckResult("alpha", True, 0.5),
        CheckResult("beta", passed, None, {"note": "stub"}),
    ]
    return SuiteReport("special", SuiteConfig(), results)


def test_cli_run_exit_codes_and_lines(tmp_path, monkeypatch, capsys):
    import lagsem.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_suite", lambda cfg, suite: _fake_report(True))
    out = tmp_path / "rep.json"
    assert main(["run", "--suite", "special", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS alpha value=0.5" in text
    assert "PASS beta" in text
    assert "2/2 checks passed" in text
    blob = json.loads(out.read_text())
    assert blob["all_passed"] is True

    monkeypatch.setattr(cli_mod, "run_suite", lambda cfg, suite: _fake_report(False))
    assert main(["run", "--suite", "special"]) == 1
    assert "FAIL beta" in capsys.readouterr().out


def test_cli_run_special_suite_end_to_end(tmp_path, capsys):
    out = tmp_path / "special.json"
    assert main(["run", "--suite", "special", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("PASS bessel-recurrence") for line in lines)
    assert any(line.startswith("PASS laguerre-orthonormality") for line in lines)
    blob = json.loads(out.read_text())
    assert blob["suite"] == "special"
    assert blob["n_checks"] == 2
    assert blob["n_passed"] == 2
    assert set(blob) == {
        "version", "suite", "config", "n_checks", "n_passed",
        "all_passed", "checks", "timings",
    }
    for check in blob["checks"]:
        assert set(check) == {"check_id", "passed", "value", "detail"}


def test_report_deterministic_without_timings():
    cfg = SuiteConfig(seed=5)
    first = json.loads(run_suite(cfg, "special").to_json())
    second = json.loads(run_suite(cfg, "special").to_json())
    assert set(first.pop("timings")) == set(second.pop("timings")) == {
        "bessel-recurrence", "laguerre-orthonormality",
    }
    assert json.dumps(first, indent=2, sort_keys=True) == json.dumps(second, indent=2, sort_keys=True)


def test_raising_check_fails_under_its_registry_id(monkeypatch):
    def broken(config):
        raise RuntimeError("deliberate failure")

    monkeypatch.setitem(suites.SUITES["special"], "bessel-recurrence", broken)
    blob = run_suite(SuiteConfig(), "special").to_json_dict()
    assert [c["check_id"] for c in blob["checks"]] == ["bessel-recurrence", "laguerre-orthonormality"]
    assert list(blob["timings"]) == ["bessel-recurrence", "laguerre-orthonormality"]
    failed, passed = blob["checks"]
    assert failed == {
        "check_id": "bessel-recurrence",
        "passed": False,
        "value": None,
        "detail": {"error": "RuntimeError: deliberate failure"},
    }
    assert passed["passed"] and passed["value"] is not None
    assert (blob["n_checks"], blob["n_passed"], blob["all_passed"]) == (2, 1, False)


@pytest.mark.parametrize("order", [(0.5,), (-0.5,), (2.5,)])
def test_closed_vs_spectral_check_keeps_the_value_of_its_scalar_loop(order):
    # one closed-form call on the grid of pairs, against one call per pair
    from lagsem import MultiOrder, kernel_1d_closed, kernel_spectral

    config = SuiteConfig(order=order, fast=True)
    nu = suites._axis_nu(config)
    x = np.linspace(0.3, 2.5, 8)
    worst = 0.0
    for xi in x:
        for yj in x:
            closed = float(kernel_1d_closed(nu, 0.5, xi, yj))
            spectral = kernel_spectral(MultiOrder((nu,)), 0.5, xi, yj, config.k_max)
            worst = max(worst, abs(closed - spectral) / abs(closed))
    assert suites.check_closed_vs_spectral(config) == (worst < 1e-8, worst, {"k_max": config.k_max})


@pytest.mark.parametrize("order", [(0.5,), (0.0,), (-0.5,), (1.3,)])
def test_semigroup_law_check_keeps_the_value_of_its_pair_loop(order):
    # all (x, y) composed at once, against one composition per pair
    from lagsem import gauss_legendre_axis, kernel_1d_closed

    config = SuiteConfig(order=order, fast=True)
    nu = suites._axis_nu(config)
    axis = gauss_legendre_axis(0.0, 12.0, nodes_per_unit=64)
    worst = 0.0
    for x in (0.5, 1.2, 2.0):
        left = kernel_1d_closed(nu, 0.25, x, axis.nodes)
        for y in (0.8, 1.5):
            right = kernel_1d_closed(nu, 0.25, axis.nodes, y)
            composed = float(np.sum(axis.weights * left * right))
            direct = kernel_1d_closed(nu, 0.5, x, y)
            worst = max(worst, abs(composed - direct) / abs(direct))
    assert suites.check_semigroup_law(config) == (worst < 1e-6, worst, {"t": 0.25, "s": 0.25})


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(SuiteConfig(), "nope")


def test_suite_names_cover_groups():
    assert "all" in SUITE_NAMES
    for name in ("special", "kernel", "critical", "operators", "bounds", "hardy"):
        assert name in SUITE_NAMES


def test_dump_heat_schema():
    buf = io.StringIO()
    counts = dump_kernel("heat", SuiteConfig(), buf, t_values=(0.25,), n_points=40)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x,y,value,family"
    assert counts == {"rows": 1600, "skipped": 0}
    assert len(lines) == 1601
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.25
    assert float(cells[3]) > 0.0
    assert cells[4] == "heat[nu=0.5]"


def test_dump_heat_two_dimensional_columns():
    buf = io.StringIO()
    cfg = SuiteConfig(order=(0.5, 1.0))
    counts = dump_kernel("heat", cfg, buf, t_values=(0.25, 1.0), n_points=6)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x1,x2,y1,y2,value,family"
    assert counts["rows"] == 2 * 36
    assert len(lines) == 1 + 2 * 36


def test_dump_riesz_skips_diagonal():
    buf = io.StringIO()
    counts = dump_kernel("riesz", SuiteConfig(), buf, n_points=12)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "x,y,k,value"
    assert counts["skipped"] == 12
    assert counts["rows"] == 12 * 12 - 12
    assert all(line.split(",")[2] == "1" for line in lines[1:])


def test_dump_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        dump_kernel("wave", SuiteConfig(), io.StringIO())


def test_dump_refuses_a_non_integer_riesz_index():
    with pytest.raises(ValueError, match="each a nonnegative integer"):
        dump_kernel("riesz", SuiteConfig(), io.StringIO(), k=[1.5])


def test_cli_dump_writes_file_and_warns(tmp_path, capsys):
    out = tmp_path / "riesz.csv"
    assert main(["dump", "--kind", "riesz", "--out", str(out), "--points", "10"]) == 0
    captured = capsys.readouterr()
    assert "skipped 10 diagonal pairs" in captured.err
    assert f"wrote 90 rows to {out}" in captured.out
    assert out.read_text().splitlines()[0] == "x,y,k,value"


def test_cli_dump_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["dump", "--kind", "heat", "--points", "15", "--t", "0.5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_dump_heat_default_times(tmp_path):
    out = tmp_path / "heat.csv"
    assert main(["dump", "--kind", "heat", "--out", str(out), "--points", "3"]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2 * 9
    assert sorted({float(row.split(",")[0]) for row in rows}) == [0.25, 1.0]


def test_cli_seed_override(tmp_path, monkeypatch, capsys):
    import lagsem.cli as cli_mod

    path = tmp_path / "seeded.cfg"
    path.write_text("seed = 1\n")
    seen = []

    def spy(cfg, suite):
        seen.append(cfg.seed)
        return _fake_report(True)

    monkeypatch.setattr(cli_mod, "run_suite", spy)
    assert main(["run", "--config", str(path), "--seed", "42"]) == 0
    assert main(["run", "--config", str(path)]) == 0
    capsys.readouterr()
    assert seen == [42, 1]
    assert main(["run", "--suite", "critical", "--seed", "-3"]) == 2
    assert "seed: must be a non-negative integer" in capsys.readouterr().err
