import hashlib
import json
import re
import threading
from collections import Counter
from pathlib import Path

import pytest

from srlab import cli, suites, valuation
from srlab.cli import main, parse_config_file
from srlab.errors import ConfigError
from srlab.field import FieldCfg
from srlab.groups import SElem, TElem
from srlab.report import CheckResult
from srlab.scalar import INFINITY, QuadExt, ext_min
from srlab.suites import RunConfig, run_all, run_suite
from srlab.valuation import check_v3


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


def test_unresolved_word_recipe_fails_its_entry(tmp_path, monkeypatch):
    """A recipe search without a unique winner is a failed claim (exit 1 with
    the entry failed), not a bad setting (exit 2)."""
    ((lam, mu),) = valuation.solve_suzuki_word()
    candidates = valuation._suzuki_candidates
    # every coefficient choice now builds the winning word, so all 16 win
    monkeypatch.setattr(valuation, "_suzuki_candidates", lambda a, _lam, _mu: candidates(a, lam, mu))
    valuation.solve_suzuki_word.cache_clear()
    try:
        code, raw = run_report(tmp_path, "e.json", ["--suite", "embedding", "--samples", "4"])
    finally:
        valuation.solve_suzuki_word.cache_clear()
    assert code == 1
    checks = {c["name"]: c for c in json.loads(raw)["suites"]["embedding"]["checks"]}
    entry = checks["B-word-recipe-resolved"]
    assert not entry["ok"] and entry["data"]["found"] == "16"
    assert not checks["B-word-homomorphism-F2"]["ok"]
    assert checks["G-word-homomorphism-F3"]["ok"]


def test_sampled_checks_draw_at_one_sample(monkeypatch):
    """At --samples 1 each sampled round trip checks at least one draw
    instead of passing on none."""
    parsed, nus = Counter(), Counter()
    parse_quad, nu_from_center = suites.parse_quad, suites.nu_from_center

    def counting_parse(text, radicand=None):
        parsed[radicand] += 1
        return parse_quad(text, radicand)

    def counting_nu(case, nu, t):
        nus[case] += 1
        return nu_from_center(case, nu, t)

    monkeypatch.setattr(suites, "parse_quad", counting_parse)
    monkeypatch.setattr(suites, "nu_from_center", counting_nu)
    cfg = RunConfig(samples=1)
    assert suites.run_suite("scalars", cfg)["ok"]
    assert suites.run_suite("moufang", cfg)["ok"]
    # parse-roundtrip-sqrt2/-sqrt3, then G-/B-round-trip-on-monomials
    assert parsed[2] >= 1 and parsed[3] >= 1
    assert nus["G"] >= 1 and nus["B"] >= 1


def _wrong_from(nth, fn, wrong, counts=lambda *args: True):
    """fn, except that its counted calls from the nth on return wrong."""
    calls = Counter()

    def patched(*args, **kwargs):
        if counts(*args):
            calls["n"] += 1
            if calls["n"] >= nth:
                return wrong
        return fn(*args, **kwargs)

    return patched


@pytest.mark.parametrize(
    "name, nth, wrong, counts, failing, ties",
    [
        # rand_quad draws rationals of absolute value at most 30
        ("parse_quad", 2, QuadExt(31), lambda *args: True,
         ["parse-roundtrip-sqrt2", "parse-roundtrip-sqrt3"], 5),
        ("nu_from_center", 2, INFINITY, lambda *args: True,
         ["G-round-trip-on-monomials", "B-round-trip-on-monomials"], 5),
        # the S norm-level function: val_norm_exact on S elements
        ("val_norm_exact", 7, INFINITY, lambda a: isinstance(a, SElem),
         ["S-norm-level-prevalidation"], 1),
    ],
)
def test_failing_runs_keep_their_draws(tmp_path, monkeypatch, name, nth, wrong, counts, failing,
                                       ties):
    """A check that fails part way stops or keeps drawing as it always did:
    the failing entries and the ties drawn before the prevalidation stopped
    are those of `run --seed 0 --samples 5` before its checks became
    `all()` over their draws."""
    monkeypatch.setattr(suites, name, _wrong_from(nth, getattr(suites, name), wrong, counts))
    code, raw = run_report(tmp_path, "f.json", ["--seed", "0", "--samples", "5"])
    report = json.loads(raw)["suites"]
    assert code == 1
    assert [c["name"] for s in report.values() for c in s["checks"] if not c["ok"]] == failing
    assert report["appendix"]["stats"]["s_prevalidation_ties"] == ties


def test_stats_count_the_samples_a_stopped_check_drew(monkeypatch):
    """s_prevalidation_samples, omega_hahn_samples, ultrametric_pairs and
    g_hahn_pairs state the samples drawn, which a check that fails part way
    leaves short of its design."""
    in_hahn = lambda *args: any(getattr(x, "field", None) and x.field.mode == "hahn" for x in args)

    def stats(suite, samples):
        payload = suites.run_suite(suite, RunConfig(seed=0, samples=samples))
        return payload["stats"]

    assert stats("groups", 5)["omega_hahn_samples"] == 5
    with monkeypatch.context() as m:
        # the third round trip disagrees
        m.setattr(TElem, "agrees", _wrong_from(3, TElem.agrees, False, in_hahn))
        assert stats("groups", 5)["omega_hahn_samples"] == 3

    passing = stats("appendix", 5)
    assert (passing["s_prevalidation_samples"], passing["s_prevalidation_ties"]) == (50, 5)
    assert passing["ultrametric_pairs"] == 5
    with monkeypatch.context() as m:
        # the S norm-level function, wrong from its 7th call on S elements
        m.setattr(suites, "val_norm_exact", _wrong_from(
            7, suites.val_norm_exact, INFINITY, lambda a: isinstance(a, SElem)
        ))
        failing = stats("appendix", 5)
        assert (failing["s_prevalidation_samples"], failing["s_prevalidation_ties"]) == (7, 1)
    with monkeypatch.context() as m:
        # the fourth T pair breaks the bound; every S pair keeps it
        calls = Counter()

        def fourth_wrong(*vals):
            calls["n"] += 1
            return INFINITY if calls["n"] == 4 else ext_min(*vals)

        m.setattr(suites, "ext_min", fourth_wrong)
        assert stats("appendix", 5)["ultrametric_pairs"] == 4

    assert stats("embedding", 20)["g_hahn_pairs"] == 4
    with monkeypatch.context() as m:
        m.setattr(suites, "check_embedding_hom", _wrong_from(
            2, suites.check_embedding_hom, CheckResult(False), in_hahn
        ))
        assert stats("embedding", 20)["g_hahn_pairs"] == 2


def test_each_conjugation_draw_is_checked_once(monkeypatch):
    """The self-shift entry reads the diagonal draws the conjugation entry
    checked: one check_v3 call per root pair, 4^2 for B2 and 6^2 for G2."""
    calls = Counter()

    def counted(*args):
        calls["n"] += 1
        return check_v3(*args)

    monkeypatch.setattr(suites, "check_v3", counted)
    assert suites.run_suite("valuation-axioms", RunConfig(seed=0, samples=5))["ok"]
    assert calls["n"] == 16 + 36


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
    for key in ("seed", "samples", "field.denom", "field.precision", "field.support_cap"):
        cfg.write_text(f"suites = scalars\n{key} = x\n")
        with pytest.raises(ConfigError) as err:
            parse_config_file(str(cfg))
        assert str(err.value) == f"{cfg}:2: {key} must be an integer, got 'x'"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
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
        ("suites = folding, scalars, folding", "suite 'folding' named twice"),
        ("case = H", "case must be one of B, F, G, got 'H'"),
        ("out =", "out must name a file"),
    ],
    ids=["suites-comma", "suites-blank", "suites-unknown", "suites-repeated", "case-unknown",
         "out-empty"],
)
def test_config_file_rejects_bad_suites_and_case(tmp_path, capsys, line, message):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"samples = 1\n{line}\n")
    out = tmp_path / "x.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"srlab: {cfg}:2: {message}\n"
    assert not out.exists()


def test_suite_flag_named_twice_exits_two(tmp_path, capsys):
    out = tmp_path / "x.json"
    argv = ["run", "--suite", "folding", "--suite", "folding", "--samples", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "srlab: suite 'folding' named twice\n"
    assert not out.exists()


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
    ids=["samples-flag-negative", "samples-flag-zero", "samples-zero", "jobs-key-unknown",
         "precision-zero", "denom-negative", "support-cap-zero"],
)
def test_count_settings_below_one_exit_two(tmp_path, flags, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"suites = scalars\n{config}")
    out = tmp_path / "x.json"
    assert main(["run", "--config", str(cfg), *flags, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "key, flags",
    [
        ("samples", []),
        ("samples", ["--samples", "3"]),
        ("field.precision", []),
        ("field.denom", []),
        ("field.support_cap", []),
    ],
    ids=["samples", "samples-flag-given", "precision", "denom", "support-cap"],
)
def test_config_count_below_one_names_file_and_line(tmp_path, capsys, key, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"suites = scalars\n{key} = 0\n")
    out = tmp_path / "x.json"
    assert main(["run", "--config", str(cfg), *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"srlab: {cfg}:2: {key} must be at least 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("field.precision = 300000000",
         "precision * denom must be below the exact order key's limit 2^29, got 600000000"),
        ("field.support_cap = 5", "support cap must be at least 8, got 5"),
    ],
    ids=["precision-past-key-limit", "support-cap-below-eight"],
)
def test_config_field_settings_checked_when_read(tmp_path, capsys, line, message):
    # the roots suite builds no series field, so only the config check sees them
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"suites = roots\n{line}\n")
    out = tmp_path / "x.json"
    assert main(["run", "--config", str(cfg), "--samples", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"srlab: {cfg}:2: {message}\n"
    assert not out.exists()


def test_suites_run_in_turn_on_the_calling_thread(tmp_path, monkeypatch):
    threads = []

    def record_thread(name, cfg):
        threads.append(threading.get_ident())
        return run_suite(name, cfg)

    monkeypatch.setattr(suites, "run_suite", record_thread)
    out = tmp_path / "j.json"
    argv = ["run", "--suite", "scalars", "--suite", "folding", "--samples", "5", "--out", str(out)]
    assert main(argv) == 0
    assert main([*argv, "--jobs", "1"]) == 0
    assert threads == [threading.get_ident()] * 4
    out.unlink()
    assert main([*argv, "--jobs", "2"]) == 2
    assert len(threads) == 4 and not out.exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jobs = 1\n")
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}:1: unknown config key 'jobs'")):
        parse_config_file(str(cfg))


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--suite", "roots", "--samples", "1"],
        ["fold", "B2"],
        ["enumerate", "--q", "3"],
    ],
    ids=["run", "fold", "enumerate"],
)
def test_unwritable_out_exits_two(tmp_path, capsys, monkeypatch, argv):
    ran = []
    monkeypatch.setattr(suites, "run_suite", lambda name, cfg: ran.append(name))
    out = tmp_path / "missing" / "x.json"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"srlab: cannot write {out}: ")
    assert err.count("\n") == 1
    assert ran == []  # a missing folder is refused before any suite runs


def test_enumerate_beyond_default_bound_exits_one_at_once(tmp_path, capsys):
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--q", "27", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "srlab: group closure exceeded the bound 500000\n"
    assert not out.exists()


def test_config_field_settings_reach_the_run(tmp_path, monkeypatch):
    seen = []

    def record_cfg(cfg, suites):
        seen.append(cfg)
        return run_all(cfg, suites)

    monkeypatch.setattr(cli, "run_all", record_cfg)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suites = folding\nfield.precision = 30\nfield.denom = 3\nfield.support_cap = 32\n")
    out = tmp_path / "f.json"
    assert main(["run", "--config", str(cfg), "--samples", "1", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert (config["precision"], config["denom"], config["support_cap"]) == (30, 3, 32)
    want = FieldCfg(char=3, precision=30, denom=3, support_cap=32)
    assert seen[0].hahn_field(3).cfg == want

    assert main(["run", "--suite", "folding", "--samples", "1", "--out", str(out)]) == 0
    assert seen[1] == RunConfig(samples=1)
    for p in (2, 3):
        assert seen[1].hahn_field(p).cfg == FieldCfg(char=p)
