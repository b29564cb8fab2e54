"""Import hygiene: each public name is imported from its own module, the
package re-exporting none, and a cold start loads only the modules its
subcommand runs.  Module sets are read in fresh interpreters, so the result
does not depend on what the suite imported."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import designgate

SRC = str(Path(__file__).resolve().parents[1] / "src")
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
# The public names, each imported from the module that defines it.
PUBLIC_NAMES = {
    "combinat": {"annihilator_divisor", "binom", "elem_sym", "falling", "stirling2",
                 "stirling2_by_formula"},
    "families": {"CodeFamily", "DesignParams", "NonIntegralLambdaError", "THEOREM_IDS",
                 "admissible_scan", "apply_strengthening", "block_count", "design_params",
                 "lambda_at", "lambda_vector"},
    "gate": {"FAIL_NONINTEGER", "PASS", "GateResult", "IntersectionSolution", "MomentVector",
             "NonIntegralMomentError", "OffsetSet", "integrality_gate", "moment_vector",
             "offset_moment_coefficients", "offset_product_sum", "residual_coefficient",
             "solve_intersection_numbers"},
    "gleason": {"LENGTH_CAP", "WeightEnumerator", "extremal_weight_enumerator",
                "min_weight_count", "next_weight_count"},
    "theorems": {"TheoremOutcome", "run_theorem"},
}

HEAVY = {"dataclasses", "inspect"}
# What ``fractions`` loads; only a non-integral value needs it.
RATIONALS = {"fractions", "decimal", "numbers"}
# What argparse loads: the CLI reads a plain argv without it.
ARGPARSE = {"argparse", "gettext", "locale"}
CALLS = {
    "lambda": ["lambda", "--family", "24m", "--m", "8", "--t", "7"],
    "scan": ["scan", "--family", "24m+8", "--t", "5", "--m-max", "20"],
    "gate": ["gate", "--family", "24m", "--m", "8", "--t", "7"],
    "wenum": ["wenum", "--n", "48"],
    "theorem": ["theorem", "thm2", "--no-timestamp"],
}
# The argv shapes of perfbench/workloads.py beyond CALLS: each must stay on
# the plain path, or every benchmarked call would pay for argparse.
BENCHMARK_CALLS = {
    "theorem-out": ["theorem", "thm2", "--format", "json", "--no-timestamp", "--out", "r.json"],
    "theorem-out-jobs": ["theorem", "thm2", "--format", "json", "--no-timestamp",
                         "--out", "r.json", "--jobs", "1"],
    "gate-u": ["gate", "--family", "24m+8", "--m", "58", "--t", "7", "--u", "236",
               "--format", "csv", "--no-timestamp"],
    "scan-range": ["scan", "--family", "24m", "--t", "6", "--m-min", "5", "--m-max", "9",
                   "--jobs", "1", "--format", "json", "--no-timestamp"],
}


def run_fresh(code: str, tmp_path) -> tuple[str, set[str]]:
    """The stdout of ``code`` run in a fresh interpreter, and the names in
    sys.modules after it."""
    code += "\nimport sys\nsys.stderr.write('\\n'.join(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])),
        DESIGNGATE_STORE=str(tmp_path / "store"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, set(proc.stderr.split())


def loaded_after(code: str, tmp_path) -> set[str]:
    """Names in sys.modules after running ``code`` in a fresh interpreter."""
    return run_fresh(code, tmp_path)[1]


def test_cli_import_loads_no_driver_gate_or_store(tmp_path):
    # Each module costs a cold start its finder, stat, read and unmarshal, so
    # the CLI loads four; report, gate, store and the drivers load on use.
    loaded = loaded_after("import designgate.cli", tmp_path)
    assert {name for name in loaded if name.split(".")[0] == "designgate"} == {
        "designgate", "designgate.cli", "designgate.families", "designgate.combinat"}
    assert not loaded & ({"__future__", "csv", "datetime"} | HEAVY | RATIONALS | ARGPARSE)


@pytest.mark.parametrize("command", CALLS)
def test_only_rendering_calls_load_report(command, tmp_path):
    loaded = loaded_after(f"from designgate.cli import main\nassert main({CALLS[command]!r}) == 0",
                          tmp_path)
    assert ("designgate.report" in loaded) == (command in {"scan", "gate", "theorem"})
    assert "__future__" not in loaded


INTEGRAL_CALLS = {
    "lambda": CALLS["lambda"],
    "wenum": CALLS["wenum"],
    "scan": ["scan", "--family", "24m", "--t", "6", "--m-min", "15", "--m-max", "15"],
    "gate": ["gate", "--family", "24m", "--m", "63", "--t", "8"],  # PASS
}


@pytest.mark.parametrize("command", INTEGRAL_CALLS)
def test_integral_calls_load_no_fractions(command, tmp_path):
    # Every value these calls print is an integer, so nothing builds a
    # Fraction; the gate runs against a fresh store.
    loaded = loaded_after("from designgate.cli import main\n"
                          f"assert main({INTEGRAL_CALLS[command]!r}) == 0", tmp_path)
    assert not loaded & RATIONALS


def test_pass_gate_loads_no_fractions_beside_a_stored_fail(tmp_path):
    # The store holds a non-integral record; a PASS gate loads and checks
    # it in ints and builds only the result it asked for.
    loaded_after("from designgate.cli import main\n"
                 f"assert main({CALLS['gate']!r}) == 0", tmp_path)
    assert (tmp_path / "store" / "gates.jsonl").read_text().count("FAIL_NONINTEGER") == 1
    loaded = loaded_after("from designgate.cli import main\n"
                          f"assert main({INTEGRAL_CALLS['gate']!r}) == 0", tmp_path)
    assert "designgate.store" in loaded
    assert not loaded & RATIONALS


def test_nonintegral_lambda_still_prints_its_fraction(tmp_path):
    out, loaded = run_fresh("from designgate.cli import main\n"
                            "assert main(['lambda', '--family', '24m', '--m', '1', '--t', '8']) == 0",
                            tmp_path)
    assert "lambda_8 = 1/969  NON-INTEGRAL" in out.splitlines()
    assert "fractions" in loaded


def test_lambda_call_loads_no_gate_enumerator_or_driver(tmp_path):
    loaded = loaded_after("from designgate.cli import main\n"
                          "assert main(['lambda', '--family', '24m', '--m', '8', '--t', '7']) == 0",
                          tmp_path)
    assert not loaded & {"designgate.gate", "designgate.gleason", "designgate.theorems"}


def test_theorem_call_loads_no_store(tmp_path):
    loaded = loaded_after("from designgate.cli import main\n"
                          f"assert main({CALLS['theorem']!r}) == 0", tmp_path)
    assert "designgate.theorems" in loaded
    assert "designgate.store" not in loaded


def test_library_gate_call_loads_no_store(tmp_path):
    # The gate does no I/O; only the gate subcommand opens the store.
    loaded = loaded_after("from designgate.families import CodeFamily\n"
                          "from designgate.gate import integrality_gate\n"
                          "integrality_gate(CodeFamily(8, 0), 7)", tmp_path)
    assert "designgate.gate" in loaded
    assert "designgate.store" not in loaded


def test_report_import_loads_no_fractions(tmp_path):
    # Exact numbers are printed with str(), so rendering needs no Fraction.
    assert "fractions" not in loaded_after("import designgate.report", tmp_path)


def test_families_import_loads_no_cli_or_report(tmp_path):
    loaded = loaded_after("import designgate.families", tmp_path)
    assert not loaded & {"designgate.cli", "designgate.report", "designgate.theorems"}


@pytest.mark.parametrize("command", [*CALLS, *BENCHMARK_CALLS])
def test_cli_calls_load_no_dataclasses_or_inspect(command, tmp_path):
    argv = {**CALLS, **BENCHMARK_CALLS}[command]
    loaded = loaded_after(f"from designgate.cli import main\nassert main({argv!r}) == 0", tmp_path)
    assert not loaded & HEAVY
    assert not loaded & ARGPARSE


def test_public_names_load_no_dataclasses_or_inspect(tmp_path):
    modules = sorted(path.stem for path in Path(SRC, "designgate").glob("*.py")
                     if path.stem != "__init__")
    assert set(PUBLIC_NAMES) <= set(modules)
    loaded = loaded_after("".join(f"import designgate.{name}\n" for name in modules), tmp_path)
    assert {f"designgate.{name}" for name in modules} <= loaded
    assert not loaded & HEAVY


def test_public_names_and_version():
    for module, names in PUBLIC_NAMES.items():
        owner = importlib.import_module(f"designgate.{module}")
        assert all(hasattr(owner, name) for name in names), module
    assert sum(map(len, PUBLIC_NAMES.values())) == 36
    assert designgate.__version__ == "0.1.0"


def test_every_name_the_benchmark_traces_is_defined(tmp_path):
    # perfbench/traced.py wraps the program's functions by name, and a name
    # it cannot find leaves its per-layer metrics reading 0; only a change
    # to the benchmark itself may rename or remove one.
    out, _ = run_fresh(f"import sys\nsys.path.insert(0, {PERFBENCH!r})\nimport traced\n"
                       "tr = traced.Tracer()\ntraced.install(tr)\nprint(sorted(tr.missing))",
                       tmp_path)
    assert out == "[]\n"


@pytest.mark.parametrize("name", ["no_such_name", "HomogeneousPoly", "gleason_basis"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(designgate, name)
