"""Command-line interface: configs, spec files, outputs, manifests."""

import csv
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from klgauss import (
    BridgeReference,
    ConstantPotential,
    FiniteRank,
    GaussianSpec,
    PeriodicReference,
    ScalarReference,
    ScalarVariance,
    VariablePotential,
    sample_centered,
    scalar_sigma_opt,
)
from klgauss.gaussians import FAMILIES
from klgauss.cli import (
    PRESETS,
    SPEC_FILENAME,
    UsageError,
    apply_paper_scale,
    canonical_config_text,
    config_hash,
    load_config,
    load_gaussian_spec,
    main,
    save_gaussian_spec,
)

TINY_SCALAR = """\
[problem]
kind = scalar
eps = 0.01

[fit]
family = scalar-variance
init_sigma = 1.0
init_mean = 0.25

[optimize]
iterations = 1500
batch_size = 50
mean_lo = -0.5
mean_hi = 0.5
cov_lo = 0.001
cov_hi = 1.0

[chain]
steps = 4000
thin = 20
max_lag = 30
"""


def write_config(tmp_path, text=TINY_SCALAR, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_presets_all_load():
    for name in PRESETS:
        cfg = load_config(name)
        assert {"problem", "fit"} <= set(cfg)


def test_load_config_rejections(tmp_path):
    with pytest.raises(UsageError, match="neither a file nor a preset"):
        load_config("no-such-preset")
    with pytest.raises(UsageError, match=r"unknown config section"):
        load_config(write_config(tmp_path, "[banana]\nripeness = 3\n"))
    with pytest.raises(UsageError, match=r"unknown config key problem\.widget"):
        load_config(write_config(
            tmp_path, "[problem]\nkind = scalar\nwidget = 1\n[fit]\nfamily = scalar-variance\n"))
    with pytest.raises(UsageError, match="needs float"):
        load_config(write_config(
            tmp_path, "[problem]\nkind = scalar\neps = soup\n[fit]\nfamily = scalar-variance\n"))
    with pytest.raises(UsageError, match="eps must be positive"):
        load_config(write_config(
            tmp_path, "[problem]\nkind = scalar\neps = -1\n[fit]\nfamily = scalar-variance\n"))
    with pytest.raises(UsageError, match="beta"):
        load_config(write_config(
            tmp_path,
            "[problem]\nkind = scalar\n[fit]\nfamily = scalar-variance\n[chain]\nbeta = 1.5\n"))
    with pytest.raises(UsageError, match="does not go with"):
        load_config(write_config(
            tmp_path, "[problem]\nkind = scalar\n[fit]\nfamily = finite-rank\n"))
    with pytest.raises(UsageError, match="algorithm"):
        load_config(write_config(
            tmp_path,
            "[problem]\nkind = scalar\n[fit]\nfamily = scalar-variance\n"
            "[chain]\nalgorithm = psychic\n"))


def test_config_canonical_round_trip(tmp_path):
    cfg = load_config("darcy-noise0.1")
    text = canonical_config_text(cfg)
    again = load_config(write_config(tmp_path, text))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    apply_paper_scale(again)
    assert config_hash(again) != config_hash(cfg)
    assert again["chain"]["steps"] == 1_000_000


def test_usage_errors_exit_2(tmp_path):
    assert main(["optimize", "--config", "no-such-preset",
                 "--out", str(tmp_path)]) == 2
    assert main([]) == 2  # no subcommand, no --check


@pytest.mark.parametrize("text, message", [
    ("[problem]\nkind = diffusion\n[fit]\nfamily = variable-potential\nsmoothing = 0\n",
     "fit.smoothing must be positive"),
    (TINY_SCALAR.replace("steps = 4000", "steps = 0"), "chain.steps must be at least 1"),
    ("[problem]\nkind = darcy\nn = 3\n[fit]\nfamily = finite-rank\n",
     "problem.n must be at least 4"),
    ("[problem]\nkind = diffusion\nn = 1\n[fit]\nfamily = constant-potential\n",
     "problem.n must be at least 2"),
    ("[problem]\nkind = darcy\nn = 8\n[fit]\nfamily = finite-rank\nrank = 10\n",
     "fit.rank 10 exceeds the 6 modes"),
])
def test_invalid_config_exits_2(tmp_path, capsys, text, message):
    assert main(["compare", "--config", write_config(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", [
    GaussianSpec(np.array([0.3]), ScalarVariance(0.17), ScalarReference()),
    GaussianSpec(np.linspace(-1, 1, 12), FiniteRank(np.array([[0.5, 0.1], [0.1, 0.3]])),
                 PeriodicReference(12, scale=2.0)),
    GaussianSpec(np.arange(1, 8) / 8.0 + 0.05, ConstantPotential(3.0, 0.25),
                 BridgeReference(7, mean0=np.arange(1, 8) / 8.0)),
    GaussianSpec(np.zeros(5), VariablePotential(np.array([1.0, 2, 3, 2, 1]), 0.5,
                                                smoothing=0.01),
                 BridgeReference(5)),
])
def test_gaussian_spec_round_trip(tmp_path, spec):
    path = tmp_path / "fit.txt"
    save_gaussian_spec(path, spec)
    back = load_gaussian_spec(path)
    assert type(back.ref) is type(spec.ref)
    assert type(back.cov) is type(spec.cov)
    assert np.array_equal(back.mean, spec.mean)
    assert np.array_equal(back.ref.mean0, spec.ref.mean0)
    if isinstance(spec.cov, ScalarVariance):
        assert back.cov.sigma == spec.cov.sigma
    elif isinstance(spec.cov, FiniteRank):
        assert np.array_equal(back.cov.factor, spec.cov.factor)
    elif isinstance(spec.cov, ConstantPotential):
        assert (back.cov.strength, back.cov.eps) == (spec.cov.strength, spec.cov.eps)
    else:
        assert np.array_equal(back.cov.values, spec.cov.values)
        assert back.cov.smoothing == spec.cov.smoothing

    path.write_text("format = something-else\n")
    with pytest.raises(ValueError):
        load_gaussian_spec(path)


@st.composite
def fitted_specs(draw):
    """A fit of any family on a small grid, with random valid parameters."""
    num = st.floats(-3.0, 3.0)
    pos = st.floats(0.01, 10.0)
    family = draw(st.sampled_from(sorted(FAMILIES)))
    if family == "scalar-variance":
        return GaussianSpec(np.array([draw(num)]), ScalarVariance(draw(pos)), ScalarReference())
    n = draw(st.integers(6, 12))
    mean = draw(arrays(float, n, elements=num))
    if family == "finite-rank":
        k = draw(st.integers(1, 3))
        a = draw(arrays(float, (k, k), elements=num))
        factor = a @ a.T + draw(pos) * np.eye(k)
        return GaussianSpec(mean, FiniteRank(0.5 * (factor + factor.T)),
                            PeriodicReference(n, draw(pos)))
    ref = BridgeReference(n, mean0=draw(arrays(float, n, elements=num)))
    if family == "constant-potential":
        return GaussianSpec(mean, ConstantPotential(draw(pos), draw(pos)), ref)
    potential = draw(arrays(float, n, elements=pos))
    return GaussianSpec(mean, VariablePotential(potential, draw(pos), smoothing=draw(pos)), ref)


@settings(max_examples=60, deadline=None)
@given(spec=fitted_specs(), seed=st.integers(0, 2**32 - 1))
def test_gaussian_spec_round_trip_property(spec, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / SPEC_FILENAME
        save_gaussian_spec(path, spec)
        back = load_gaussian_spec(path)
    assert type(back.cov) is type(spec.cov)
    fields, back_fields = spec.cov.spec_fields(), back.cov.spec_fields()
    assert list(back_fields) == list(fields)
    assert all(np.array_equal(back_fields[key], fields[key]) for key in fields)
    assert np.array_equal(back.mean, spec.mean)
    assert np.array_equal(back.ref.mean0, spec.ref.mean0)
    draws = [sample_centered(s, np.random.default_rng(seed), 4) for s in (spec, back)]
    assert np.array_equal(draws[0], draws[1])


def test_sample_rejects_incomplete_spec(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    spec = GaussianSpec(np.array([0.0]), ScalarVariance(0.1), ScalarReference())
    save_gaussian_spec(out / SPEC_FILENAME, spec)
    lines = (out / SPEC_FILENAME).read_text().splitlines()
    (out / SPEC_FILENAME).write_text("\n".join(l for l in lines if not l.startswith("sigma")))
    assert main(["sample", "--config", write_config(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "no sigma entry" in err
    assert "Traceback" not in err


def test_sample_rejects_spec_of_other_family(tmp_path, capsys):
    text = ("[problem]\nkind = diffusion\nn = 7\n[fit]\nfamily = variable-potential\n"
            "[chain]\nsteps = 10\n")
    out = tmp_path / "run"
    out.mkdir()
    t = np.arange(1, 8) / 8.0
    save_gaussian_spec(out / SPEC_FILENAME, GaussianSpec(
        t, ConstantPotential(2.0, 0.05), BridgeReference(7, mean0=t)))
    assert main(["sample", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "constant-potential fit, config wants fit.family = variable-potential" in err
    assert "Traceback" not in err


def test_optimize_outputs_and_determinism(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", "--config", cfg_path, "--out", str(out1),
                 "--seed", "5"]) == 0
    assert main(["optimize", "--config", cfg_path, "--out", str(out2),
                 "--seed", "5"]) == 0
    capsys.readouterr()

    header, rows = read_csv(out1 / "trace.csv")
    assert header == ["n", "a_n", "dkl_estimate", "dkl_stderr", "mean_norm",
                      "cov_param_summary", "proj_active"]
    assert len(rows) == 1500
    assert (out1 / "snapshots.csv").is_file()

    spec = load_gaussian_spec(out1 / SPEC_FILENAME)
    assert abs(spec.mean[0]) < 0.1
    assert abs(spec.cov.sigma - scalar_sigma_opt(0.01)) < 0.03

    manifest = json.loads((out1 / "manifest_optimize.json").read_text())
    assert manifest["command"] == "optimize"
    assert manifest["seed"] == 5
    assert manifest["paper_scale"] is False
    assert manifest["config_hash"] == config_hash(load_config(cfg_path))
    assert set(manifest["outputs"]) == {"trace.csv", "snapshots.csv",
                                        SPEC_FILENAME}
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out1 / name).read_bytes()).hexdigest() == digest

    for name in ("trace.csv", "snapshots.csv", SPEC_FILENAME):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_check_modes(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["optimize", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["optimize", "--config", cfg_path, "--out", str(out),
                 "--check"]) == 0
    capsys.readouterr()

    (out / "trace.csv").write_text("tampered\n")
    assert main(["optimize", "--config", cfg_path, "--out", str(out),
                 "--check"]) == 3
    assert "HASH MISMATCH" in capsys.readouterr().out
    assert main(["sample", "--config", cfg_path, "--out", str(out),
                 "--check"]) == 2  # no manifest for this command yet


def test_sample_informed_needs_fit(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "empty"
    assert main(["sample", "--config", cfg_path, "--out", str(out)]) == 2
    assert SPEC_FILENAME in capsys.readouterr().err


def test_sample_outputs_and_zero_potential(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["optimize", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["sample", "--config", cfg_path, "--out", str(out),
                 "--zero-potential"]) == 0
    capsys.readouterr()

    header, rows = read_csv(out / "chain_diag.csv")
    assert header == ["k", "accepted", "running_accept_rate", "probe_value"]
    assert all(float(r[2]) == 1.0 for r in rows)  # zero potential accepts all
    assert [int(r[0]) for r in rows] == list(range(20, 4001, 20))

    header, rows = read_csv(out / "posterior_summary.csv")
    assert header == ["node", "mean", "variance"]
    assert len(rows) == 1

    header, rows = read_csv(out / "autocov.csv")
    assert header == ["lag", "value"]
    assert len(rows) == 31
    assert json.loads((out / "manifest_sample.json").read_text())["command"] == "sample"


def test_compare_outputs(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["compare", "--config", cfg_path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "acceptance ratio informed/reference" in printed

    header, rows = read_csv(out / "compare.csv")
    assert header == ["algorithm", "steps", "acceptance_rate", "iact", "lag",
                      "autocov"]
    algos = {r[0] for r in rows}
    assert algos == {"reference", "informed"}
    by_algo = {a: [r for r in rows if r[0] == a] for a in algos}
    for a in algos:
        assert [int(r[4]) for r in by_algo[a]] == list(range(31))
    rate = {a: float(by_algo[a][0][2]) for a in algos}
    assert rate["informed"] > rate["reference"]
    assert (out / SPEC_FILENAME).is_file()  # compare fits first


def test_scalar_analytic_table(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["scalar-analytic", "--config", cfg_path, "--out", str(out)]) == 0
    assert "sigma_opt" in capsys.readouterr().out

    header, rows = read_csv(out / "scalar_analytic.csv")
    assert header == ["sigma", "dkl", "dkl_minus_opt"]
    assert len(rows) == 151
    sigmas = np.array([float(r[0]) for r in rows])
    dkl = np.array([float(r[1]) for r in rows])
    gap = np.array([float(r[2]) for r in rows])
    s_opt = scalar_sigma_opt(0.01)
    assert np.abs(sigmas[np.argmin(dkl)] - s_opt) <= np.diff(sigmas).max()
    assert gap.min() >= -1e-12
    assert np.allclose(gap, dkl - dkl[np.argmin(np.abs(sigmas - s_opt))],
                       atol=2e-4)

    darcy = write_config(tmp_path, canonical_config_text(load_config("darcy-noise0.1")),
                         name="darcy.ini")
    assert main(["scalar-analytic", "--config", darcy, "--out", str(out)]) == 2


def test_check_battery(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "FAIL" not in out
