import hashlib
import json
from pathlib import Path

import pytest

from srlab import cli
from srlab.cli import main, parse_config_file
from srlab.errors import ConfigError
from srlab.suites import run_all


def run_report(tmp_path, name, argv):
    out = tmp_path / name
    code = main(["run", "--out", str(out), *argv])
    return code, out.read_bytes()


def test_run_deterministic_bytes(tmp_path):
    args = ["--suite", "scalars", "--suite", "folding", "--samples", "25", "--seed", "7"]
    code_a, first = run_report(tmp_path, "a.json", args)
    code_b, second = run_report(tmp_path, "b.json", args)
    assert code_a == 0 and code_b == 0
    assert first == second


def test_run_matches_benchmark_reference_digest(tmp_path):
    """The report bytes of `run --seed 0 --samples 5 --jobs 1` are pinned by
    the srlab-run benchmark workload's reference digest."""
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    want = json.loads(reference.read_text())["srlab-run"]["0"]
    code, raw = run_report(tmp_path, "ref.json", ["--seed", "0", "--samples", "5", "--jobs", "1"])
    assert code == 0
    assert hashlib.sha256(raw).hexdigest() == want


def test_embedding_checks_a_series_pair_at_few_samples(tmp_path):
    code, raw = run_report(tmp_path, "e.json", ["--suite", "embedding", "--samples", "4"])
    assert code == 0
    payload = json.loads(raw)["suites"]["embedding"]
    assert payload["stats"]["g_hahn_pairs"] == 1
    assert {"name": "G-word-homomorphism-hahn", "ok": True} in payload["checks"]


def test_run_jobs_deterministic(tmp_path):
    args = ["--suite", "scalars", "--suite", "roots", "--suite", "folding", "--samples", "25"]
    _, serial = run_report(tmp_path, "s.json", args)
    _, parallel = run_report(tmp_path, "p.json", [*args, "--jobs", "3"])
    assert serial == parallel


def test_run_report_shape(tmp_path):
    code, raw = run_report(tmp_path, "r.json", ["--suite", "scalars", "--samples", "10"])
    assert code == 0
    report = json.loads(raw)
    assert report["ok"] is True
    assert list(report["suites"]) == ["scalars"]
    for check in report["suites"]["scalars"]["checks"]:
        assert check["ok"] is True
    assert "timings" not in report


def test_run_timings_flag(tmp_path):
    code, raw = run_report(
        tmp_path, "t.json", ["--suite", "scalars", "--samples", "10", "--timings"]
    )
    assert code == 0
    report = json.loads(raw)
    assert "scalars" in report["timings"]
    assert report["timings"]["scalars"]["seconds"] >= 0.0


def test_seed_env_fallback(tmp_path, monkeypatch):
    args = ["--suite", "scalars", "--samples", "10"]
    monkeypatch.setenv("SRLAB_SEED", "11")
    _, via_env = run_report(tmp_path, "env.json", args)
    monkeypatch.delenv("SRLAB_SEED")
    _, via_flag = run_report(tmp_path, "flag.json", [*args, "--seed", "11"])
    _, default = run_report(tmp_path, "zero.json", args)
    assert via_env == via_flag
    assert json.loads(via_env)["seed"] == 11
    assert json.loads(default)["seed"] == 0


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "srlab.cfg"
    cfg.write_text("# settings\nseed = 5\nsuites = scalars\nsamples = 10\n")
    out = tmp_path / "c.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 5
    assert list(report["suites"]) == ["scalars"]
    assert main(["run", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 9


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("speed = 4\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config_file(str(cfg))
    assert main(["run", "--config", str(cfg)]) == 2


def test_config_file_rejects_non_boolean_timings(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("suites = scalars\nsamples = 5\ntimings = ture\n")
    with pytest.raises(ConfigError, match="t.cfg:3"):
        parse_config_file(str(cfg))
    out = tmp_path / "x.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    for word, attached in (("Yes", True), ("0", False)):
        cfg.write_text(f"suites = scalars\nsamples = 5\ntimings = {word}\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert ("timings" in json.loads(out.read_text())) is attached


def test_config_file_rejects_repeated_key(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("suites = scalars\nseed = 3\n# again\nseed = 4\n")
    with pytest.raises(ConfigError, match="r.cfg:4: .*given twice"):
        parse_config_file(str(cfg))
    out = tmp_path / "x.json"
    assert main(["run", "--config", str(cfg), "--samples", "5", "--out", str(out)]) == 2
    assert not out.exists()


def test_config_file_rejects_non_integer_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    out = tmp_path / "x.json"
    for key in ("seed", "samples", "jobs", "field.denom", "field.precision", "field.support_cap"):
        cfg.write_text(f"suites = scalars\n{key} = x\n")
        with pytest.raises(ConfigError) as err:
            parse_config_file(str(cfg))
        assert str(err.value) == f"{cfg}:2: {key} must be an integer, got 'x'"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


def test_enumerate_max_order_below_one_exits_two(tmp_path):
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--q", "3", "--max-order", "-5", "--out", str(out)]) == 2
    assert not out.exists()


def test_bad_values_exit_two(tmp_path):
    out = tmp_path / "x.json"
    assert main(["run", "--jobs", "0", "--out", str(out)]) == 2
    assert main(["enumerate", "--q", "9", "--out", str(out)]) == 2


def test_fold_output(tmp_path):
    out = tmp_path / "fold.json"
    assert main(["fold", "F4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["directions"] == 16
    assert len(payload["rays"]) == 16
    assert sorted(set(payload["multiplicities"])) == [2, 4]
    assert set(payload["consecutive_cos2"]) == {"1/2+1/4r2"}
    out2 = tmp_path / "fold2.json"
    assert main(["fold", "B2", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["directions"] == 2


def test_enumerate_output(tmp_path):
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--q", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["order"] == 1512
    assert payload["npoints"] == 28
    assert payload["transitivity"] == 2
    assert payload["point_stab"] == 54
    assert payload["two_point_stab"] == 2


@pytest.mark.parametrize(
    "line, message",
    [
        ("suites = ,", "suites must name at least one suite"),
        ("suites =", "suites must name at least one suite"),
        ("suites = scalars, rootz", "unknown suite 'rootz'"),
        ("case = H", "case must be one of B, F, G, got 'H'"),
    ],
    ids=["suites-comma", "suites-blank", "suites-unknown", "case-unknown"],
)
def test_config_file_rejects_bad_suites_and_case(tmp_path, capsys, line, message):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"samples = 1\n{line}\n")
    out = tmp_path / "x.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"srlab: {cfg}:2: {message}\n"
    assert not out.exists()


def test_enumerate_resource_bound(tmp_path):
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--q", "3", "--max-order", "10", "--out", str(out)]) == 1


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--samples", "-5"], ""),
        (["--samples", "0"], ""),
        ([], "samples = 0\n"),
        ([], "jobs = -1\n"),
        ([], "field.precision = 0\n"),
        ([], "field.denom = -3\n"),
        ([], "field.support_cap = 0\n"),
    ],
    ids=["samples-flag-negative", "samples-flag-zero", "samples-zero", "jobs-negative",
         "precision-zero", "denom-negative", "support-cap-zero"],
)
def test_count_settings_below_one_exit_two(tmp_path, flags, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"suites = scalars\n{config}")
    out = tmp_path / "x.json"
    assert main(["run", "--config", str(cfg), *flags, "--out", str(out)]) == 2
    assert not out.exists()


def test_explicit_jobs_one_wins_over_config(tmp_path, monkeypatch):
    seen = []

    def record_jobs(cfg, suites, jobs):
        seen.append(jobs)
        return run_all(cfg, suites, jobs=jobs)

    monkeypatch.setattr(cli, "run_all", record_jobs)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suites = scalars\nsamples = 5\njobs = 2\n")
    out = tmp_path / "j.json"
    assert main(["run", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert seen == [1, 2]
