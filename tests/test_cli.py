import json
import math
import time

import pytest

from halfspace6v.asep import wilson_interval
from halfspace6v.cli import main

PARAMS = {
    "q": "1/3",
    "a": "2",
    "c": "5",
    "x": ["1/2", "2/5", "3/8", "4/9"],
    "y": ["1"],
    "z": ["1/3"],
    "c_infinite": False,
}


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(PARAMS))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, out


def test_z_pfaffian_matches_enum(capsys, params_file):
    code, out = run(capsys, ["z", "--m", "4", "--method", "pfaffian", "--params", params_file])
    assert code == 0
    v1 = json.loads(out)["value"]
    code, out = run(capsys, ["z", "--m", "4", "--method", "enum", "--params", params_file])
    v2 = json.loads(out)["value"]
    assert v1 == v2 and set(v1) == {"num", "den"}


def test_rational_roundtrip(capsys, params_file):
    from fractions import Fraction

    code, out = run(capsys, ["z", "--m", "2", "--method", "enum", "--params", params_file])
    v = json.loads(out)["value"]
    frac = Fraction(int(v["num"]), int(v["den"]))
    assert str(frac) == f"{v['num']}/{v['den']}" or frac.denominator == 1


def test_g_methods_agree(capsys, params_file):
    code, out = run(capsys, ["g", "--nu", "2,1", "--method", "operators", "--params", params_file])
    v1 = json.loads(out)["value"]
    code, out = run(capsys, ["g", "--nu", "1,2", "--method", "subset", "--params", params_file])
    v2 = json.loads(out)["value"]  # CLI sorts the positions
    assert v1 == v2


def test_determinism_byte_identical(capsys, params_file):
    _, out1 = run(capsys, ["g", "--nu", "2,1", "--method", "operators", "--params", params_file])
    _, out2 = run(capsys, ["g", "--nu", "2,1", "--method", "operators", "--params", params_file])
    assert out1 == out2


def test_verify_local_relations_exit_zero(capsys):
    code, out = run(capsys, ["--seed", "7", "verify", "local-relations", "--trials", "20"])
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize(
    "suite", ["local-relations", "operators", "triangular", "g-recursions", "pfaffian"]
)
def test_every_verify_suite_exit_zero(capsys, suite):
    code, out = run(capsys, ["verify", suite, "--trials", "1"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_asep_formula_empty(capsys):
    code, out = run(
        capsys,
        ["asep", "prob", "--nu", "", "--method", "formula", "--alpha", "0.5", "--q", "0.25", "--t", "1"],
    )
    assert code == 0
    val = json.loads(out)["value"]
    assert abs(val - math.exp(-0.5)) < 1e-12


def test_asep_exact_uniformization_underflow_exit_two(capsys):
    start = time.perf_counter()
    code = main(
        ["asep", "prob", "--alpha", "800", "--q", "0.25", "--t", "1", "--sites", "8",
         "--nu", "8,7,6,5,4,3,2,1", "--method", "exact"]
    )
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "CapExceeded"
    assert elapsed < 1.0


def test_asep_sim_seed_out_of_range_exit_two(capsys):
    code = main(["asep", "sim", "--alpha", "0.5", "--t", "0.5", "--samples", "10", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError" and "seed must lie" in err["message"]


def test_asep_limit_dense_kernel_cap_exit_two(capsys):
    # the 16-site dense kernel would be 32 GiB: refused before allocating
    code = main(["asep", "limit", "--nu", "1", "--q", "0.25", "--a", "3.0",
                 "--t", "0.25", "--sites", "16", "--L", "8"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "CapExceeded"


def test_asep_nan_rate_exit_two(capsys):
    code = main(["asep", "prob", "--nu", "1", "--method", "mc", "--alpha", "nan", "--q", "0.25",
                 "--t", "0.5", "--samples", "100", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError" and "alpha" in err["message"]


def test_asep_mc_runs(capsys):
    code, out = run(
        capsys,
        [
            "asep", "prob", "--nu", "1", "--method", "mc", "--alpha", "0.5",
            "--q", "0.25", "--t", "0.5", "--sites", "6", "--samples", "2000", "--seed", "42",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "mc" and 0 <= payload["value"] <= 1


def test_asep_mc_unseen_configuration_has_wilson_bound(capsys):
    # no replica reaches site 9 by t = 0.5: 100 samples bound P only by the
    # 3-sigma Wilson upper limit of 0 successes, 9/109
    code, out = run(
        capsys,
        [
            "asep", "prob", "--nu", "9", "--method", "mc", "--alpha", "0.5", "--q", "0.25",
            "--t", "0.5", "--sites", "10", "--samples", "100", "--seed", "1",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 0.0
    assert payload["error_bound"] == wilson_interval(0, 100)[1]
    assert abs(payload["error_bound"] - 9 / 109) < 1e-15


def test_asep_sim_mask_width_cap_exit_two(capsys):
    code = main(["asep", "sim", "--alpha", "0.5", "--t", "0.5", "--sites", "63",
                 "--samples", "10", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "CapExceeded"


def test_parse_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["z", "--m", "2", "--method", "enum", "--params", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"]


def test_backend_compat_enforced(capsys, params_file):
    code = main(["g", "--nu", "1", "--method", "contour", "--params", params_file])
    assert code == 2  # contour requires the complex backend


def test_complex_backend_contour(capsys, tmp_path):
    obj = {
        "q": 0.25, "a": 3.0, "c": -2.0,
        "x": [0.5], "y": [1.0], "z": [], "c_infinite": False,
    }
    path = tmp_path / "pc.json"
    path.write_text(json.dumps(obj))
    code, out = run(
        capsys,
        ["--backend", "complex", "g", "--nu", "1", "--method", "contour",
         "--params", str(path), "--nodes", "128"],
    )
    assert code == 0
    val = json.loads(out)["value"]
    assert abs(val["im"]) < 1e-10


@pytest.mark.parametrize("nodes", ["-4", "0"])
@pytest.mark.parametrize("command", ["orthogonality", "g", "asep"])
def test_nonpositive_node_count_exit_two(capsys, tmp_path, command, nodes):
    # an empty node grid would sum to 0 and pass as a result
    obj = {"q": 0.25, "a": 3.0, "c": -2.0, "x": [0.5], "y": [1.0], "z": []}
    if command == "orthogonality":
        obj = {"q": 0.25, "a": 3.0, "y": [1 / 1.6, 1 / 1.7], "c_infinite": True}
    path = tmp_path / "pc.json"
    path.write_text(json.dumps(obj))
    argv = {
        "orthogonality": ["--backend", "complex", "orthogonality", "--kappa", "2", "--nu", "1",
                          "--params", str(path)],
        "g": ["--backend", "complex", "g", "--nu", "1", "--method", "contour", "--params", str(path)],
        "asep": ["asep", "prob", "--nu", "1", "--method", "formula", "--q", "0.25",
                 "--alpha", "0.5", "--t", "0.5"],
    }[command]
    code = main(argv + ["--nodes", nodes])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError" and "quadrature node" in err["message"]


def test_invalid_config_rejected(capsys, params_file):
    code = main(["g", "--nu", "2,2", "--method", "operators", "--params", params_file])
    assert code == 2


def test_asep_limit_csv(capsys):
    code, out = run(
        capsys,
        ["asep", "limit", "--nu", "1", "--q", "0.25", "--a", "3.0",
         "--t", "0.25", "--sites", "6", "--L", "8,16"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "L,value,reference,abs_error,asep_bound,window_leak"
    assert len(lines) == 3
    for line in lines[1:]:
        asep_bound, window_leak = (float(v) for v in line.split(",")[4:])
        assert 0 <= asep_bound < 1e-3 and 0 <= window_leak < 1


def test_asep_limit_without_a_exit_two(capsys):
    code = main(["asep", "limit", "--nu", "1", "--q", "0.25", "--t", "0.25", "--L", "8"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError" and "--a" in err["message"]


def test_env_var_overrides_backend(capsys, tmp_path, monkeypatch):
    obj = {"q": 0.25, "a": 3.0, "c": -2.0, "x": [0.5], "y": [1.0], "z": []}
    path = tmp_path / "pc.json"
    path.write_text(json.dumps(obj))
    monkeypatch.setenv("HSV_BACKEND", "complex")
    code, out = run(capsys, ["g", "--nu", "1", "--method", "contour", "--params", str(path), "--nodes", "128"])
    assert code == 0  # rational default would have been rejected


def test_asep_sim_distribution(capsys):
    code, out = run(
        capsys,
        ["asep", "sim", "--mu", "", "--alpha", "0.5", "--q", "0.25", "--t", "0.5",
         "--sites", "5", "--samples", "500", "--seed", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    total = sum(v["p"] for v in payload["distribution"].values())
    assert abs(total - 1.0) < 1e-12


def test_scalar_roundtrip_exact():
    from fractions import Fraction

    from halfspace6v.scalars import format_scalar, parse_scalar

    v = parse_scalar("-22/7")
    assert v == Fraction(-22, 7)
    enc = format_scalar(v)
    assert parse_scalar(f"{enc['num']}/{enc['den']}") == v


def test_z_alt_with_generating_parameter(capsys, params_file):
    code, out = run(capsys, ["z", "--m", "3", "--method", "alt", "--u", "1", "--params", params_file])
    assert code == 0
    v_alt = json.loads(out)["value"]
    code, out = run(capsys, ["z", "--m", "3", "--method", "enum", "--params", params_file])
    assert v_alt == json.loads(out)["value"]
    # u = 0 collapses to the empty-subset term
    code, out = run(capsys, ["z", "--m", "3", "--method", "alt", "--u", "0", "--params", params_file])
    assert json.loads(out)["value"] == {"num": "1", "den": "1"}
