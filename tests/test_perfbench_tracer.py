"""The benchmark's per-layer tracer still finds every name it wraps.

`perfbench/tracer.py` wraps srlab's public functions and methods by name
and reads some positional arguments; a rename, deletion or signature change
in srlab shows up in its `absent` list or breaks a counting hook.  The
tracer patches the process, so it runs in a child interpreter.
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
from srlab.valuation import check_embedding_hom

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
print(json.dumps({"absent": t.absent, "counts": dict(t.counts), "ok": [hom, inv_ok]}))
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
    assert result["ok"] == [True, True]
    assert result["counts"]["collect.factors_in"] > 0
    assert result["counts"]["ser_mul.calls"] > 0
