import json

import numpy as np
import pytest

from energy_attention import cli


def run(args):
    return cli.main(args)


def read(path):
    return path.read_text()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all_passes_and_embeds_config(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "all", "--seed", "7", "--instances", "5",
                "--out", str(out)])
    assert code == 0
    doc = json.loads(read(out))
    assert doc["schema_version"] == 1
    assert doc["command"] == "verify"
    assert doc["seed"] == 7
    assert doc["config"]["instances"] == 5
    claims = [r["claim"] for r in doc["results"]]
    assert claims == list(cli.eq.CLAIMS)
    assert all(r["pass"] for r in doc["results"])
    assert all(r["max_abs_error"] <= r["threshold"] for r in doc["results"])


def test_verify_rejects_zero_instances(capsys):
    assert run(["verify", "softmax-gd", "--instances", "0"]) == 2
    assert "instances must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("instances", ["1", "2"])
def test_verify_all_small_sweeps_pass(instances, tmp_path):
    # a sweep this small has no sharp instance of its own; the
    # indefiniteness witness is drawn past the sweep
    out = tmp_path / "report.json"
    assert run(["verify", "all", "--instances", instances,
                "--out", str(out)]) == 0
    doc = json.loads(read(out))
    assert all(r["pass"] for r in doc["results"])
    assert "threads" not in doc["config"]


def test_verify_unknown_claim_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "theorem-42"])
    assert exc.value.code == 2


def test_verify_broken_tying_fails(tmp_path):
    out = tmp_path / "neg.json"
    code = run(["verify", "softmax-gd", "--instances", "3", "--break-tying",
                "--out", str(out)])
    assert code == 1
    doc = json.loads(read(out))
    result = doc["results"][0]
    assert not result["pass"]
    assert result["max_abs_error"] > 1e-3
    assert result["witness_seed"] is not None


def test_verify_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["verify", "linear-gd", "--instances", "3", "--format", "csv",
                "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "claim,instances,max_abs_error,threshold,pass,witness_seed"
    assert lines[2].startswith("linear-gd,3,")


# ---------------------------------------------------------------------------
# descend / compare
# ---------------------------------------------------------------------------

def test_descend_csv_header_and_zero_steps(tmp_path):
    out = tmp_path / "trace.csv"
    assert run(["descend", "--steps", "0", "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert lines[1] == "step,energy,grad_norm"
    assert len(lines) == 3  # config comment + header + initial point
    assert lines[2].startswith("0,")


def test_descend_zero_beta_momentum_byte_identical_to_vanilla(tmp_path):
    a = tmp_path / "vanilla.csv"
    b = tmp_path / "momentum.csv"
    run(["descend", "--optimizer", "vanilla", "--steps", "20", "--seed", "5",
         "--out", str(a)])
    run(["descend", "--optimizer", "momentum", "--beta", "0", "--steps", "20",
         "--seed", "5", "--out", str(b)])
    body_a = read(a).splitlines()[1:]
    body_b = read(b).splitlines()[1:]
    assert body_a == body_b


def test_descend_default_run_energy_nonincreasing(tmp_path):
    out = tmp_path / "trace.csv"
    run(["descend", "--steps", "50", "--seed", "1", "--out", str(out)])
    energies = [float(line.split(",")[1])
                for line in read(out).strip().splitlines()[2:]]
    assert np.all(np.diff(energies) <= 1e-12)


def test_descend_newton_requires_elastic(capsys):
    assert run(["descend", "--energy", "inner", "--optimizer", "newton-exact"]) == 2


def test_descend_roundtrip_reproducible(tmp_path):
    args = ["descend", "--steps", "15", "--seed", "9", "--lr", "0.02"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(args + ["--out", str(a)])
    config = json.loads(read(a).splitlines()[0].removeprefix("# config: "))
    rerun = ["descend", "--energy", config["energy"],
             "--optimizer", config["optimizer"], "--dim", str(config["dim"]),
             "--tokens", str(config["tokens"]), "--heads", str(config["heads"]),
             "--lr", str(config["lr"]), "--beta", str(config["beta"]),
             "--steps", str(config["steps"]), "--tol", str(config["tol"]),
             "--seed", str(config["seed"]), "--out", str(b)]
    run(rerun)
    assert read(a).splitlines()[1:] == read(b).splitlines()[1:]


def test_compare_csv_rows(tmp_path):
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--seeds", "2", "--steps", "40", "--tol", "1e-3",
                "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert lines[1] == "seed,optimizer,iters_to_tol,final_energy"
    assert len(lines) == 2 + 2 * 3  # two seeds, three optimizers
    names = {line.split(",")[1] for line in lines[2:]}
    assert names == {"vanilla", "momentum", "nag"}


def test_compare_single_optimizer_single_seed(tmp_path):
    out = tmp_path / "cmp.csv"
    run(["compare", "--optimizers", "vanilla", "--seeds", "1", "--steps", "10",
         "--out", str(out)])
    lines = read(out).strip().splitlines()
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# loop
# ---------------------------------------------------------------------------

def test_loop_forward_zero_iterations_echo(tmp_path):
    out = tmp_path / "loop.csv"
    assert run(["loop", "--mode", "forward", "--iters", "0",
                "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert lines[1] == "iteration,objective"
    assert len(lines) == 3


def test_loop_training_modes_reduce_cross_entropy(tmp_path):
    for mode in ("train-single", "train-loop"):
        out = tmp_path / f"{mode}.csv"
        assert run(["loop", "--mode", mode, "--epochs", "10", "--samples", "8",
                    "--tokens", "4", "--iters", "2", "--out", str(out)]) == 0
        lines = read(out).strip().splitlines()
        assert lines[1] == ("epoch,cross_entropy,free_energy,total,"
                            "weight_norm,head_norm")
        ce = [float(line.split(",")[1]) for line in lines[2:]]
        assert ce[-1] < ce[0]


def test_loop_training_rejects_classes_other_than_two(capsys):
    for mode in ("train-single", "train-loop"):
        for classes in ("1", "3"):
            assert run(["loop", "--mode", mode, "--classes", classes,
                        "--epochs", "1", "--samples", "4"]) == 2
            assert "--classes must be 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench / spectrum
# ---------------------------------------------------------------------------

def test_bench_single_size_has_no_slope_row(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--variant", "mha", "--dim", "32", "--heads", "2",
                "--tokens-list", "64", "--reps", "2", "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert lines[1] == "variant,N,d,H,median_ns,per-token_ns"
    assert len(lines) == 3
    assert "slope" not in read(out)


def test_bench_multiple_sizes_appends_slope_row(tmp_path):
    out = tmp_path / "bench.csv"
    run(["bench", "--variant", "light", "--dim", "32", "--heads", "2",
         "--tokens-list", "64,128,256", "--reps", "3", "--out", str(out)])
    lines = read(out).strip().splitlines()
    assert len(lines) == 6
    assert lines[-1].startswith("light,slope,32,2,")


def test_bench_rejects_bad_sizes():
    assert run(["bench", "--tokens-list", "0,-3"]) == 2


def test_bench_rejects_nonpositive_reps(capsys):
    for reps in ("0", "-1"):
        assert run(["bench", "--tokens-list", "16", "--reps", reps]) == 2
        assert "reps must be >= 1" in capsys.readouterr().err


def test_spectrum_single_token_nsd_zero(tmp_path):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--tokens", "1", "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert lines[1] == "index,full_hessian,psd_part,nsd_part"
    nsd = [float(line.split(",")[3]) for line in lines[2:]]
    assert max(abs(v) for v in nsd) <= 1e-10


def test_spectrum_bound_mode_all_nonpositive(tmp_path):
    out = tmp_path / "spec.csv"
    run(["spectrum", "--energy", "inner", "--out", str(out)])
    full = [float(line.split(",")[1])
            for line in read(out).strip().splitlines()[2:]]
    assert max(full) <= 1e-8


def test_spectrum_default_shows_mixed_signs(tmp_path):
    out = tmp_path / "spec.csv"
    run(["spectrum", "--out", str(out)])
    full = [float(line.split(",")[1])
            for line in read(out).strip().splitlines()[2:]]
    assert min(full) < -1e-8 and max(full) > 1e-8


@pytest.mark.parametrize("argv, message", [
    (["descend", "--temp", "0"], "temp must be finite and > 0"),
    (["descend", "--temp", "nan"], "temp must be finite and > 0"),
    (["spectrum", "--temp", "inf"], "temp must be finite and > 0"),
    (["descend", "--lr", "-0.1"], "lr must be finite and > 0"),
    (["loop", "--lr", "nan"], "lr must be finite and > 0"),
    (["verify", "all", "--rho", "0"], "rho must be finite and > 0"),
    (["descend", "--tol", "nan"], "tol must be finite and > 0"),
    (["descend", "--beta", "1"], "beta must be in [0, 1)"),
    (["compare", "--eps", "-1"], "eps must be finite and >= 0"),
    (["spectrum", "--dim", "0"], "dim must be >= 1"),
    (["loop", "--mode", "forward", "--tokens", "0"], "tokens must be >= 1"),
    (["bench", "--heads", "0"], "heads must be >= 1"),
    (["compare", "--seeds", "0"], "seeds must be >= 1"),
    (["descend", "--steps", "-1"], "steps must be >= 0"),
    (["loop", "--iters", "-1"], "iters must be >= 0"),
    (["loop", "--mode", "train-single", "--epochs", "-1"], "epochs must be >= 0"),
    (["compare", "--heads", "3"], "heads must divide the dimension"),
])
def test_bad_numeric_argument_is_usage_error(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_stdout_output(capsys):
    assert run(["descend", "--steps", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "step,energy,grad_norm"
