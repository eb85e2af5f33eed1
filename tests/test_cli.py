import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from srlab import cli, field, moufang, suites, valuation
from srlab.cli import main
from srlab.field import FieldCfg, TitsField
from srlab.groups import SElem, TElem
from srlab.moufang import PermGroupStats
from srlab.report import CheckResult
from srlab.scalar import INFINITY, QuadExt
from srlab.suites import RunConfig, run_suite
from srlab.valuation import check_v3


def run_report(tmp_path, name, argv):
    out = tmp_path / name
    code = main(["run", "--out", str(out), *argv])
    return code, out.read_bytes()


@pytest.mark.parametrize(
    "argv, want",
    [
        (["fold", "B2"], "cda032fd6e32eda44a319dfabea271fbd37c17bdd0f374b78088243673298d96"),
        (["fold", "G2"], "e89b659546ca665ab06b23c5bc6915a92828889d980c63fa8f6d2421a998ad54"),
        (["fold", "F4"], "d016d8d04c03c6825e6603a2c28a41fca66e4765486b8bcb71ddff850cf323d4"),
        (["enumerate"], "268eec0468951430fad1a6437e309a92c2176a1afea4601ff66b71cc608a6fbe"),
    ],
    ids=["fold-B2", "fold-G2", "fold-F4", "enumerate"],
)
def test_fold_and_enumerate_match_pinned_digest(tmp_path, argv, want):
    out = tmp_path / "o.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_subcommand_options_are_pinned():
    """Each subcommand's option strings, so adding or dropping a setting shows
    as a diff here.  The help text is not pinned: its layout depends on the
    terminal width and the Python version."""
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [a.option_strings or [a.dest] for a in parser._actions]
        for name, parser in sub.choices.items()
    }
    assert options == {
        "run": [["-h", "--help"], ["--suite"], ["--case"], ["--samples"], ["--seed"], ["--out"],
                ["--jobs"], ["--timings"]],
        "fold": [["-h", "--help"], ["kind"], ["--out"]],
        "enumerate": [["-h", "--help"], ["--out"]],
    }


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
            return INFINITY if calls["n"] == 4 else min(*vals)

        m.setattr(suites, "min", fourth_wrong, raising=False)
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


def test_bad_values_exit_two(tmp_path):
    out = tmp_path / "x.json"
    assert main(["run", "--jobs", "0", "--out", str(out)]) == 2
    assert not out.exists()
    for argv in (
        ["run", "--case", "H"],
        ["run", "--seed", "x"],
        ["run", "--config", "any.cfg"],  # a run is set by its flags alone
        ["enumerate", "--q", "3"],  # enumerate takes no field size
    ):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--out", str(out)])
        assert exit_.value.code == 2, argv
        assert not out.exists(), argv


@pytest.mark.parametrize(
    "flags",
    [["--samples", "-5"], ["--samples", "0"]],
    ids=["samples-flag-negative", "samples-flag-zero"],
)
def test_count_settings_below_one_exit_two(tmp_path, capsys, flags):
    out = tmp_path / "x.json"
    assert main(["run", "--suite", "scalars", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"srlab: samples must be at least 1, got {flags[1]}\n"
    assert not out.exists()


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
    assert main(["enumerate", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["q"] == 3
    assert payload["order"] == 1512
    assert payload["npoints"] == 28
    assert payload["transitivity"] == 2
    assert payload["point_stab"] == 54
    assert payload["two_point_stab"] == 2


def test_suite_flag_named_twice_exits_two(tmp_path, capsys):
    out = tmp_path / "x.json"
    argv = ["run", "--suite", "folding", "--suite", "folding", "--samples", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "srlab: suite 'folding' named twice\n"
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


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--suite", "roots", "--samples", "1"],
        ["fold", "B2"],
        ["enumerate"],
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


def test_enumerate_beyond_the_order_bound_exits_one_at_once(tmp_path, capsys, monkeypatch):
    # below (3^3 + 1) 3^3 = 756 the bound is refused before the closure starts
    monkeypatch.setattr(moufang, "ORDER_BOUND", 700)
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "srlab: group closure exceeded the bound 700\n"
    assert not out.exists()


def test_config_field_settings_reach_the_run(tmp_path, monkeypatch):
    """Every series field a run builds has `FieldCfg`'s settings, and the
    report's config block states them."""
    built = []
    init = field.TitsField.__init__

    def record_cfg(self, cfg):
        built.append(cfg)
        init(self, cfg)

    monkeypatch.setattr(field.TitsField, "__init__", record_cfg)
    out = tmp_path / "f.json"
    assert main(["run", "--samples", "1", "--out", str(out)]) == 0
    series = [cfg for cfg in built if cfg.mode == "hahn"]
    assert {cfg.char for cfg in series} == {2, 3}
    assert all(cfg == FieldCfg(char=cfg.char) for cfg in series)
    config = json.loads(out.read_text())["config"]
    defaults = FieldCfg._field_defaults
    assert (config["precision"], config["denom"], config["support_cap"]) == (
        defaults["precision"], defaults["denom"], defaults["support_cap"]
    ) == (40, 2, 64)


def test_import_loads_neither_dataclasses_nor_inspect():
    """srlab's records are `typing.NamedTuple`s and its group elements plain
    classes, so importing the command line pays for neither module.  pytest
    has loaded both already, so the import runs in a fresh interpreter."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = "import sys, srlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_records_are_read_only():
    """Group elements, field and run settings and group stats reject
    assignment and deletion of their fields."""
    f2 = TitsField(FieldCfg(char=2, mode="finite", m=1))
    f3 = TitsField(FieldCfg(char=3, mode="finite", m=1))
    records = [
        (TElem.identity(f3), "r", f3.one()),
        (TElem.identity(f3), "t", f3.one()),
        (SElem.identity(f2), "s", f2.one()),
        (FieldCfg(char=3), "precision", 80),
        (RunConfig(), "seed", 1),
        (PermGroupStats(28, 1512, 2, 54, 2), "order", 1),
    ]
    for record, name, value in records:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
