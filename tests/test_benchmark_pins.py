"""The names the benchmark looks up in the package.

`perfbench/spans.py` wraps package functions by (module, attribute) name,
and `perfbench/run.py` times the import of each module in `spans.IMPORTS`
under `import rtbp_resonance.cli`.  Only a traced benchmark run would
otherwise notice a deletion or an import change that breaks either list.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

import rtbp_resonance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(rtbp_resonance.__file__)))


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    spans = _spans()
    assert spans.PACKAGE == "rtbp_resonance"
    for module_name, attr, *_ in spans._TARGETS:
        module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_cli_import_loads_the_timed_modules():
    imports = _spans().IMPORTS
    code = (
        "import sys, rtbp_resonance.cli; "
        f"print(','.join(m for m in {imports!r} if m not in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
