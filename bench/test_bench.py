"""Tests of the benchmark's own arithmetic, comparator and failure accounting."""

import os
import sys
import textwrap
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, "r", None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("analysis.sweep", 1.0, 7.0, 0),
        span("models.build_hamiltonian", 1.5, 4.5, 1),
        span("qcore.kron_all", 2.0, 3.0, 2),
        span("analysis.find_parity_crossings", 7.5, 9.5, 0),
        span("models.build_hamiltonian", 8.0, 9.0, 4),
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 3.0, 2.0, 1.0, 1.0, 1.0])
    m = tracer.layer_metrics(spans, points=2)
    assert m["models.build_hamiltonian.calls"] == 2
    assert m["models.build_hamiltonian.self_s"] == pytest.approx(3.0)
    assert m["models.build_hamiltonian.total_s"] == pytest.approx(4.0)
    assert m["models.build_hamiltonian.per_point"] == pytest.approx(1.0)
    assert m["analysis.find_parity_crossings.builds"] == 1
    assert m["qcore.kron_all.self_s"] == pytest.approx(1.0)
    assert m["wigner.sphere_field.calls"] == 0  # never called: reads 0


@pytest.mark.parametrize("delta, accepted", [(1e-13, True), (1e-11, False)])
def test_comparator_tolerance(delta, accepted):
    ref = np.array([0.5, -3.25, 12.0])
    got = ref.copy()
    got[1] += delta
    if accepted:
        checks.compare_column("value", got, ref)
    else:
        with pytest.raises(checks.CheckError):
            checks.compare_column("value", got, ref)


def test_comparator_exact_columns():
    ref = np.array([0.0, 0.005])
    checks.compare_column("param", ref.copy(), ref)
    got = ref.copy()
    got[1] = np.nextafter(ref[1], 1.0)  # one ulp off
    with pytest.raises(checks.CheckError):
        checks.compare_column("param", got, ref)


def test_tracer_rebinds_every_name_and_skips_missing(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    qcore = types.ModuleType("fakepkg.qcore")
    models = types.ModuleType("fakepkg.models")

    def kron_all(ops):
        return len(ops)

    qcore.kron_all = kron_all
    models.kron_all = kron_all  # a second module-level binding of the same function
    models.build_hamiltonian = lambda spec: models.kron_all([spec]) + qcore.kron_all([])
    for name, mod in (("fakepkg", pkg), ("fakepkg.qcore", qcore), ("fakepkg.models", models)):
        monkeypatch.setitem(sys.modules, name, mod)

    t = tracer.Tracer("r")
    wrapped = t.install("fakepkg")
    assert "qcore.kron_all" in wrapped and "wigner.sphere_field" not in wrapped
    models.build_hamiltonian("spec")
    names = [s[0] for s in t.spans]
    assert names.count("qcore.kron_all") == 2
    assert names.count("models.build_hamiltonian") == 1
    assert all(s[3] == names.index("models.build_hamiltonian")
               for s in t.spans if s[0] == "qcore.kron_all")


def fake_src(tmp_path, body):
    pkg = tmp_path / "src" / "spinphase"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(textwrap.dedent(body))
    return str(tmp_path / "src")


@pytest.mark.parametrize("body", [
    "def main(argv):\n    return 3\n",
    "def main(argv):\n    raise RuntimeError('boom')\n",
])
def test_nonzero_exit_or_exception_is_a_failed_run(tmp_path, body):
    src = fake_src(tmp_path, body)
    result = run.invoke(src, ["phaseline"], str(tmp_path), run.child_env(), timeout=60)
    assert result["error"] is not None
    assert result["setup_s"] > 0
    assert run.tally([result, {"error": None}]) == (2, 1)


def test_successful_run_has_no_error(tmp_path):
    src = fake_src(tmp_path, "def main(argv):\n    return 0\n")
    result = run.invoke(src, ["phaseline"], str(tmp_path), run.child_env(), timeout=60)
    assert result["error"] is None and result["run_s"] >= 0
