"""Command-line interface: configs, spec files, outputs, manifests."""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import klgauss
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
    scalar_dkl_analytic,
    scalar_sigma_opt,
)
from klgauss.gaussians import FAMILIES
from klgauss.cli import (
    KINDS,
    PRESETS,
    SPEC_FILENAME,
    Setup,
    UsageError,
    _declared,
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


@pytest.mark.parametrize("name, digest", [
    ("scalar", "1a30270cf18d4ffb16e6c31e24f85c0afa452606"),
    ("darcy-noise0.1", "a6993e9964d6362edb08b208eb310165ac0760c9"),
    ("darcy-noise0.01", "f4cc525b0a6ff39a9dd1e3f2ee25d91e0a500092"),
    ("diffusion-constant", "a7dbf291c4d473bb7c83886ae97344e94ba2c899"),
    ("diffusion-variable", "09fca18447d7d8177c14f9457a4655184a122f16"),
])
def test_preset_config_hash_is_pinned(name, digest):
    # the presets are derived from the kind table; these hashes are those of
    # the hand-written presets they replaced
    assert config_hash(load_config(name)) == digest


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
    # keys that another kind or family reads are not silently ignored
    with pytest.raises(UsageError, match=r"problem\.n is not read by problem\.kind = scalar"):
        load_config(write_config(
            tmp_path, "[problem]\nkind = scalar\nn = 4095\n[fit]\nfamily = scalar-variance\n"))
    with pytest.raises(UsageError, match=r"fit\.rank is not read .* fit\.family = scalar-variance"):
        load_config(write_config(
            tmp_path, "[problem]\nkind = scalar\n[fit]\nfamily = scalar-variance\nrank = 2\n"))


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
    (TINY_SCALAR.replace("thin = 20", "thin = 0"), "chain.thin must be at least 1"),
    (TINY_SCALAR.replace("max_lag = 30", "max_lag = 0"), "chain.max_lag must be at least 1"),
    (TINY_SCALAR + "burn_frac = 1.0\n", "chain.burn_frac must lie in [0, 1)"),
    (TINY_SCALAR.replace("batch_size = 50", "batch_size = 1"),
     "optimize.batch_size must be at least 2"),
    (TINY_SCALAR.replace("batch_size = 50", "batch_size = 50\ndecay = 0.3"),
     "optimize.decay must lie in (0.5, 1]"),
    (TINY_SCALAR.replace("batch_size = 50", "batch_size = 50\na0 = 0"),
     "optimize.a0 must be positive"),
    (TINY_SCALAR.replace("iterations = 1500", "iterations = 0"),
     "optimize.iterations must be at least 1"),
    (TINY_SCALAR.replace("batch_size = 50", "batch_size = 50\nsnapshot_every = 0"),
     "optimize.snapshot_every must be at least 1"),
    ("[problem]\nkind = darcy\nn = 16\nobs_points = 0.2,1.5\n[fit]\nfamily = finite-rank\n",
     "problem.obs_points must lie in (0, 1)"),
    (TINY_SCALAR + "probe_index = 7\n", "chain.probe_index must be below the dimension 1"),
    (TINY_SCALAR.replace("init_sigma = 1.0", "init_sigma = 0"), "fit.init_sigma must be positive"),
    (TINY_SCALAR.replace("mean_lo = -0.5", "mean_lo = 0.5"),
     "optimize.mean_lo must be below optimize.mean_hi"),
    (TINY_SCALAR.replace("cov_lo = 0.001", "cov_lo = 2.0"),
     "optimize.cov_lo must be below optimize.cov_hi"),
])
def test_invalid_config_exits_2(tmp_path, capsys, text, message):
    assert main(["compare", "--config", write_config(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["compare", "optimize"])
@pytest.mark.parametrize("sigma", ["1e300", "1e120"])
def test_overflowing_in_range_config_exits_3(tmp_path, capsys, sigma, command):
    # sigma**2 overflows a float at 1e300, sigma**3 at 1e120
    text = TINY_SCALAR.replace("init_sigma = 1.0", f"init_sigma = {sigma}")
    assert main([command, "--config", write_config(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    manifest = json.loads((tmp_path / "out" / f"manifest_{command}.json").read_text())
    assert f"numerical failure: {manifest['error']}" in err
    assert manifest["outputs"] == {}  # the first iteration fails, before any trace row


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
    assert type(back.ref) is type(spec.ref)
    for attr in ("n", "n_modes", "lam", "h", "mean0"):
        assert np.array_equal(getattr(back.ref, attr, None), getattr(spec.ref, attr, None))
    draws = [sample_centered(s, np.random.default_rng(seed), 4) for s in (spec, back)]
    assert np.array_equal(draws[0], draws[1])


# values on and on both sides of every bound the kind table declares
_INTS = st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 9])
_FLOATS = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0])
_VALUES = {
    int: _INTS,
    float: _FLOATS,
    str: st.sampled_from(["reference", "informed", "psychic"]),
}


@st.composite
def table_configs(draw):
    """INI text for any kind and family: some of its keys, each inside its range or
    (one time in eight) outside it, and now and then a key only another kind reads."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    family = draw(st.sampled_from(sorted(KINDS[kind].fits)))
    fixed = {"kind": kind, "family": family}
    lines = []
    for sec, keys in _declared(kind, family).items():
        lines.append(f"[{sec}]")
        for key in sorted(keys):
            if key in fixed:
                lines.append(f"{key} = {fixed[key]}")
                continue
            if draw(st.integers(0, 2)) > 0:
                continue
            type_, _, allowed = keys[key]
            inside = allowed is None or draw(st.integers(0, 7)) > 0
            test = allowed[0] if allowed else (lambda v: True)
            if type_ in _VALUES:
                value = draw(_VALUES[type_].filter(lambda v: test(v) == inside))
            else:  # a list of floats, inside its range when every entry is
                entries = _FLOATS.filter(lambda x: test((x,)) == inside)
                value = ",".join(map(str, draw(st.lists(entries, min_size=1, max_size=4))))
            lines.append(f"{key} = {value}")
        foreign = sorted({key for other in KINDS for fam in KINDS[other].fits
                          for key in _declared(other, fam)[sec]} - set(keys))
        if foreign and draw(st.integers(0, 9)) == 0:
            lines.append(f"{draw(st.sampled_from(foreign))} = 1")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=table_configs())
def test_table_configs_build_or_raise_usage_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.ini"
        path.write_text(text)
        try:
            cfg = load_config(str(path))
            setup = Setup(cfg, 0)
        except UsageError:
            return
        assert 0 <= setup.chain_config.probe_index < setup.ref.dim
        # what builds also runs: one RM iteration and 20 chain steps on at most 16 nodes
        cfg.setdefault("optimize", {})["iterations"] = 1
        cfg.setdefault("chain", {})["steps"] = 20
        if "n" in KINDS[setup.kind].problem:
            cfg["problem"]["n"] = min(setup.ref.dim, 16)
        path.write_text(canonical_config_text(cfg))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["compare", "--config", str(path), "--out", str(Path(tmp) / "run")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


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


def diffusion_spec_run(tmp_path, **edits):
    """A run directory holding a 15-node constant-potential spec, its entries
    replaced by ``edits``, and a config for informed sampling from it."""
    text = ("[problem]\nkind = diffusion\nn = 15\n[fit]\nfamily = constant-potential\n"
            "[chain]\nsteps = 100\nbeta = 0.6\n")
    out = tmp_path / "run"
    out.mkdir()
    t = np.arange(1, 16) / 16.0
    save_gaussian_spec(out / SPEC_FILENAME, GaussianSpec(
        t, ConstantPotential(2.0, 0.05), BridgeReference(15, mean0=t)))
    lines = []
    for line in (out / SPEC_FILENAME).read_text().splitlines():
        key = line.partition(" =")[0]
        lines.append(f"{key} = {edits[key]}" if key in edits else line)
    (out / SPEC_FILENAME).write_text("\n".join(lines) + "\n")
    return write_config(tmp_path, text), out


@pytest.mark.parametrize("key, value", [("mean", ",".join(["nan"] * 15)),
                                        ("strength", "inf")], ids=["mean", "strength"])
def test_sample_rejects_nonfinite_spec(tmp_path, capsys, key, value):
    cfg_path, out = diffusion_spec_run(tmp_path, **{key: value})
    assert main(["sample", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"non-finite {key} entry" in err
    assert "Traceback" not in err


def test_sample_with_huge_spec_mean_is_a_numerical_failure(tmp_path, capsys):
    # every entry is finite, but the potential at the mean is not
    cfg_path, out = diffusion_spec_run(tmp_path, mean=",".join(["1e200"] * 15))
    assert main(["sample", "--config", cfg_path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: potential is not finite at the proposal mean" in err
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    manifest = json.loads((out / "manifest_sample.json").read_text())
    assert manifest["error"] == "potential is not finite at the proposal mean"
    assert manifest["outputs"] == {}


def test_sample_reports_potential_work(tmp_path, capsys):
    cfg_path, out = diffusion_spec_run(tmp_path)
    assert main(["sample", "--config", cfg_path, "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("sample[informed]: 100 steps")
    calls, rows = map(int, re.search(r"(\d+) potential calls on (\d+) rows", line).groups())
    assert 1 < calls <= 101 <= rows  # the start's row and one per step at least


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


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", "[1]", '"outputs"', "{}",
                                  '{"outputs": [1]}', '{"outputs": "trace.csv"}'])
def test_malformed_manifest_exits_2_on_check_and_is_skipped_by_provenance(
        tmp_path, capsys, text):
    cfg_path = write_config(tmp_path, TINY_SCALAR.replace("iterations = 1500", "iterations = 50"))
    out = tmp_path / "run"
    assert main(["optimize", "--config", cfg_path, "--out", str(out)]) == 0
    manifest = out / "manifest_optimize.json"
    manifest.write_text(text)
    capsys.readouterr()
    assert main(["optimize", "--config", cfg_path, "--out", str(out), "--check"]) == 2
    assert str(manifest) in capsys.readouterr().err
    # provenance skips it, as it skips a spec that no manifest lists
    assert main(["sample", "--config", cfg_path, "--out", str(out)]) == 0


@pytest.mark.parametrize("config", [None, "[chain]\nsteps = 10\n", 5],
                         ids=["no-config", "no-kind-or-family", "not-text"])
def test_manifest_without_a_usable_config_is_skipped_by_provenance(tmp_path, capsys, config):
    cfg_path = write_config(tmp_path, TINY_SCALAR.replace("iterations = 1500", "iterations = 50"))
    out = tmp_path / "run"
    assert main(["optimize", "--config", cfg_path, "--out", str(out)]) == 0
    path = out / "manifest_optimize.json"
    manifest = json.loads(path.read_text())  # still lists the spec's digest
    if config is None:
        del manifest["config"]
    else:
        manifest["config"] = config
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    # the spec is used unchecked, as one that no manifest lists
    hot = write_config(tmp_path, TINY_SCALAR.replace("eps = 0.01", "eps = 0.5"), name="hot.ini")
    assert main(["sample", "--config", hot, "--out", str(out)]) == 0


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


TINY_DARCY = """\
[problem]
kind = darcy
n = 16

[fit]
family = finite-rank
rank = 2

[optimize]
iterations = 20
batch_size = 10

[chain]
steps = 200
thin = 10
max_lag = 5
"""


def test_sample_refuses_spec_fitted_at_other_eps(tmp_path, capsys):
    fit_cfg = write_config(tmp_path, TINY_SCALAR.replace("iterations = 1500", "iterations = 50"))
    out = tmp_path / "run"
    assert main(["optimize", "--config", fit_cfg, "--out", str(out)]) == 0
    spec_bytes = (out / SPEC_FILENAME).read_bytes()
    capsys.readouterr()

    hot = write_config(tmp_path, TINY_SCALAR.replace("eps = 0.01", "eps = 0.5"), name="hot.ini")
    assert main(["sample", "--config", hot, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "fitted on a different problem" in err
    assert "problem.eps = 0.01 there, 0.5 here" in err
    assert "manifest_optimize.json" in err
    assert "Traceback" not in err
    assert not (out / "manifest_sample.json").exists()

    assert main(["sample", "--config", fit_cfg, "--out", str(out)]) == 0
    assert (out / SPEC_FILENAME).read_bytes() == spec_bytes


def test_sample_refuses_darcy_spec_fitted_on_other_seed(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY_DARCY)
    out = tmp_path / "run"
    assert main(["compare", "--config", cfg_path, "--out", str(out), "--seed", "3"]) == 0
    capsys.readouterr()

    assert main(["sample", "--config", cfg_path, "--out", str(out), "--seed", "4"]) == 2
    err = capsys.readouterr().err
    assert "manifest_compare.json: seed = 3 there, 4 here" in err
    assert "Traceback" not in err

    # a default filled in by hand is the same problem
    explicit = write_config(tmp_path, TINY_DARCY.replace("n = 16", "n = 16\nnoise = 0.1"),
                            name="explicit.ini")
    assert main(["sample", "--config", explicit, "--out", str(out), "--seed", "3"]) == 0
    assert main(["sample", "--config", cfg_path, "--out", str(out), "--seed", "3"]) == 0


def test_sample_uses_spec_no_manifest_lists(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY_SCALAR.replace("iterations = 1500", "iterations = 50"))
    out = tmp_path / "run"
    assert main(["optimize", "--config", cfg_path, "--out", str(out)]) == 0
    # a hand-written spec replaces the fit: no manifest lists its hash
    save_gaussian_spec(out / SPEC_FILENAME, GaussianSpec(
        np.array([0.0]), ScalarVariance(0.1), ScalarReference()))
    hot = write_config(tmp_path, TINY_SCALAR.replace("eps = 0.01", "eps = 0.5"), name="hot.ini")
    assert main(["sample", "--config", hot, "--out", str(out)]) == 0


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


def test_check_takes_no_seed(capsys):
    # the battery's seeds are its own; argparse refuses the option as unknown
    with pytest.raises(SystemExit) as info:
        main(["check", "--seed", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(["check"]) == 0


TINY_DIFFUSION = """\
[problem]
kind = diffusion
n = 7

[fit]
family = variable-potential

[optimize]
iterations = 3
batch_size = 10

[chain]
steps = 50
thin = 5
max_lag = 5
"""

# runs in a fresh interpreter: this one has scipy loaded already
_IMPORT_PROBE = """\
import json, sys

def loaded():
    return {"scipy": any(k.split(".")[0] == "scipy" for k in sys.modules),
            "scipy.linalg": "scipy.linalg" in sys.modules,
            "scipy.integrate": "scipy.integrate" in sys.modules}

import klgauss, klgauss.cli
seen = {"import": loaded()}
for kind in ("scalar", "darcy", "diffusion"):
    assert klgauss.cli.main(["compare", "--config", kind + ".ini", "--out", kind]) == 0
    seen[kind] = loaded()
assert klgauss.cli.main(["scalar-analytic", "--config", "scalar.ini", "--out", "analytic"]) == 0
seen["scalar-analytic"] = loaded()
with open("seen.json", "w") as fh:
    json.dump(seen, fh)
"""


def test_commands_import_only_the_scipy_they_use(tmp_path):
    tiny_scalar = TINY_SCALAR.replace("iterations = 1500", "iterations = 5").replace(
        "steps = 4000", "steps = 50")
    for kind, text in (("scalar", tiny_scalar), ("darcy", TINY_DARCY.replace(
            "iterations = 20", "iterations = 3")), ("diffusion", TINY_DIFFUSION)):
        write_config(tmp_path, text, name=f"{kind}.ini")
    src = str(Path(klgauss.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-B", "-c", _IMPORT_PROBE], cwd=tmp_path,
                            capture_output=True, text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    seen = json.loads((tmp_path / "seen.json").read_text())
    none = {"scipy": False, "scipy.linalg": False, "scipy.integrate": False}
    assert seen["import"] == seen["scalar"] == seen["darcy"] == none
    assert seen["diffusion"] == {"scipy": True, "scipy.linalg": True, "scipy.integrate": False}
    assert seen["scalar-analytic"]["scipy.integrate"]
    absolute = scalar_dkl_analytic(0.0, scalar_sigma_opt(0.01), 0.01, absolute=True)
    assert f"{absolute:.6f} (absolute)" in result.stdout
