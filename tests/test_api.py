"""The public names: every ``__all__`` entry exists, and so do the names
that ``perfbench`` calls or rebinds by identity."""

import importlib
import inspect
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
    (klgauss.DarcyProblem, "grad_phi"),
    (klgauss.DiffusionProblem, "grad_phi"),
])
def test_names_the_benchmark_calls_exist(module, attr):
    # module globals, which the harness's timers replace in place, and methods
    assert isinstance(inspect.getattr_static(module, attr, None), types.FunctionType)
