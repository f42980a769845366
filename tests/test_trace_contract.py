"""The benchmark's tracer patches package functions by name; keep them there."""

import importlib
import importlib.util
import json
import pathlib

import pytest

from kcenter_resilience import cli, solvers
from kcenter_resilience.generators import (gen_planted_asymmetric,
                                           gen_planted_symmetric)
from kcenter_resilience.kci import emit_instance


def _load_tracing():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TRACED = [f"{layer}.{name}"
          for layer, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("traced", TRACED)
def test_traced_name_is_a_callable_of_its_layer(traced):
    layer, name = traced.split(".")
    module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
    assert callable(getattr(module, name, None))


# solver id -> the solvers-module function its registry entry must reach
LAYER_OF = {
    "ff2": "farthest_first",
    "hs": "hochbaum_shmoys_cover",
    "thm3": "farthest_first",
    "alg1-2pr": "asymmetric_2pr",
    "thm5-3eps": "symmetric_3eps",
    "alg2-3eps-asym": "asymmetric_3eps",
    "alg3-linkage": "weak_proximity_linkage",
    "alg4-2eps-as": "approx_stability_2eps",
}


def test_layer_of_covers_every_solver_id():
    assert set(LAYER_OF) == set(solvers.SOLVERS)


@pytest.mark.parametrize("solver_id", sorted(LAYER_OF))
def test_solver_entry_looks_up_its_layer_function_by_name(
        tmp_path, monkeypatch, solver_id):
    # an entry that stored the function object would bypass the patched name
    name = LAYER_OF[solver_id]
    original = getattr(solvers, name)
    calls = []

    def recorder(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, name, recorder)
    planted = (gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, 2)
               if solver_id in ("alg1-2pr", "alg2-3eps-asym")
               else gen_planted_symmetric(12, 3, 1.0, 2.0, 2))
    path = tmp_path / "planted.kci"
    path.write_text(emit_instance(planted.instance))
    assert cli.main(["solve", str(path), "--algo", solver_id, "--k", "3",
                     "--r", repr(planted.truth.radius), "--epsilon", "0.05",
                     "--out", str(tmp_path / "out.json")]) == 0
    assert calls


# bench family -> the generator `generate` and `bench` must reach in cli
GENERATOR_OF = {
    "planted-sym": "gen_planted_symmetric",
    "planted-asym": "gen_planted_asymmetric",
    "bad-center-18": "gen_bad_center_18",
}


@pytest.mark.parametrize("family", sorted(GENERATOR_OF))
def test_generate_and_bench_look_up_their_generator_by_name(
        tmp_path, monkeypatch, family):
    # a family table holding the function objects would bypass the patch
    name = GENERATOR_OF[family]
    original = getattr(cli, name)
    calls = []

    def recorder(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, recorder)
    params = {"n": 12, "k": 3, "r": 1.0, "alpha": 2.0, "skew": 1.2}
    assert cli.main(["generate", family, "--out-prefix",
                     str(tmp_path / "g")]) == 0
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{
        "family": family, "solver": "hs",
        "params": {key: params[key] for key in cli._BENCH_PARAMS[family]}}]))
    assert cli.main(["bench", "--manifest", str(manifest), "--no-timing",
                     "--out", str(tmp_path / "b.csv")]) == 0
    assert calls == [name, name]


def test_linkage_counter_reads_a_stuck_outcome():
    # the counter reads committed_edges from every result, failures included;
    # f = |B| - 2: pairs verify, so more than k = 3 components remain
    inst = gen_planted_symmetric(12, 3, 1.0, 2.0, 2).instance
    args = (inst, 3, solvers.equal_size_verifier(12, 6))
    out = solvers.weak_proximity_linkage(*args)
    assert out.status == "not-resilient"
    counter = tracing.COUNTERS["solvers.weak_proximity_linkage"]
    assert counter(args, {}, out) == len(out.diagnostics["committed_edges"])
    assert counter(args, {}, out) > 0
