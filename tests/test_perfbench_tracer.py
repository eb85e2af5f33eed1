"""The benchmark's per-layer tracer still finds every name it wraps.

`perfbench/tracer.py` wraps srlab's public functions and methods by name
and reads some positional arguments; a rename, deletion or signature change
in srlab shows up in its `absent` list or breaks a counting hook, and the
scalar layer must still report calls.  The per-suite metrics are keyed by
the tracer's own copy of the suite names, so that copy must match srlab's.
The tracer patches the process, so it runs in a child interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import tracer
from srlab.field import FieldCfg, TitsField
from srlab.groups import TElem
from srlab.scalar import QuadExt
from srlab.roots import get_system
from srlab.valuation import PhiAssignment, TAdicValuation, check_embedding_hom, check_v2_pair
import srlab.suites

t = tracer.Tracer()
tracer.install(t)
f3 = TitsField(FieldCfg(char=3, mode="finite", m=1))
a = TElem(f3.from_coeff(1), f3.from_coeff(2), f3.from_coeff(1))
b = TElem(f3.from_coeff(2), f3.from_coeff(1), f3.from_coeff(0))
hom = check_embedding_hom("G", a, b).ok
hf = TitsField(FieldCfg(char=3, mode="hahn"))
x = hf.monomial(QuadExt(0), 1) + hf.monomial(QuadExt(1), 1)
y = hf.monomial(QuadExt(0, 1, 3), 2) + hf.monomial(QuadExt(2), 1)
inv_ok = ((x * y) * x.inv()).agrees(y)
before = t.stats["field.mul"][0]
f3.from_coeff(2) * f3.from_coeff(2)
x * y
mul_calls = t.stats["field.mul"][0] - before
before = t.stats["field.parse"][0]
parsed_ok = hf.parse(x.emit()).agrees(x)
parse_calls = t.stats["field.parse"][0] - before
g2 = get_system("G2")
phi = PhiAssignment("G", g2, TAdicValuation(), twisted_class=1)
v2 = check_v2_pair(phi, g2.position_root(1), g2.position_root(6), [(x, y)]).ok
folding = srlab.suites.run_suite("folding", srlab.suites.RunConfig(samples=1))["ok"]
print(json.dumps({"absent": t.absent, "counts": dict(t.counts), "metrics": t.metrics(),
                  "ok": [hom, inv_ok, v2, folding, parsed_ok], "mul_calls": mul_calls,
                  "parse_calls": parse_calls,
                  "names": [list(tracer.SUITE_NAMES), srlab.suites.SUITE_NAMES]}))
"""


def test_tracer_installs_every_name_and_counts():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["absent"] == []
    assert result["ok"] == [True, True, True, True, True]
    assert result["counts"]["collect.factors_in"] > 0
    assert result["counts"]["ser_mul.calls"] > 0
    # one finite and one series product: both element classes stay wrapped
    assert result["mul_calls"] == 2
    # series literals have one reader, and the tracer still times it
    assert result["parse_calls"] == 1
    # the tracer skips a scalar operation that is no longer a method without
    # listing it as absent, so an emptied scalar layer shows only here
    assert result["metrics"].get("scalar.quad.calls", 0) > 0
    assert result["metrics"].get("scalar.extval.calls", 0) > 0
    # suites.<name>.s is read under the tracer's fixed copy of the names, so
    # a renamed suite would read 0 instead of showing as absent
    tracer_names, srlab_names = result["names"]
    assert tracer_names == srlab_names
    assert result["metrics"]["suites.run_suite.calls"] == 1
    assert result["metrics"]["suites.folding.s"] > 0
