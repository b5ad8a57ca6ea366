"""The public names: every ``__all__`` entry exists, and so do the names
that ``perfbench`` calls or rebinds by identity."""

import importlib
import types

import pytest

import klgauss
import klgauss.cli

MODULES = ["klgauss"] + [f"klgauss.{name}" for name in (
    "errors", "reference", "sampling", "gaussians", "objective", "problems", "optimize",
    "mcmc", "cli")]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


@pytest.mark.parametrize("module, attr", [
    (klgauss, "sample_centered"),
    (klgauss, "sample_finite_rank"),
    (klgauss.cli, "load_gaussian_spec"),
    (klgauss.optimize, "rm_minimize"),
    (klgauss.mcmc, "run_chain"),
    (klgauss.mcmc, "iact"),
])
def test_names_the_benchmark_calls_exist(module, attr):
    # module globals: the harness's timers replace them in place
    assert isinstance(vars(module).get(attr), types.FunctionType)
