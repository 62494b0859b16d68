"""The package namespace: each exported name resolves, on first access, to
the object of the module that defines it."""

import importlib
import re
from pathlib import Path

import pytest

import bs_ktheory


def test_exports_are_the_defining_objects():
    for module, names in bs_ktheory._EXPORTS.items():
        defining = importlib.import_module(f"bs_ktheory.{module}")
        for name in names:
            assert getattr(bs_ktheory, name) is getattr(defining, name), name
            # kept in the namespace, so later lookups skip the module hook
            assert vars(bs_ktheory)[name] is getattr(defining, name), name


def test_all_lists_every_export_once():
    exported = [name for names in bs_ktheory._EXPORTS.values() for name in names]
    assert sorted(exported) == bs_ktheory.__all__
    assert len(set(exported)) == len(exported)


def test_dir_lists_the_exports():
    assert set(bs_ktheory.__all__) <= set(dir(bs_ktheory))


def test_submodules_are_attributes():
    # called directly: the import system binds a submodule once it is loaded
    assert bs_ktheory.__getattr__("solenoid") is importlib.import_module("bs_ktheory.solenoid")


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        bs_ktheory.no_such_name
    assert not hasattr(bs_ktheory, "cli_main")


def test_star_import():
    namespace = {}
    exec("from bs_ktheory import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == bs_ktheory.__all__
    assert all(value is getattr(bs_ktheory, name) for name, value in namespace.items())


def test_console_script_is_cli_main():
    # read without tomllib, which the oldest supported Python lacks
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    targets = dict(re.findall(r'^(\S+)\s*=\s*"([^"]+)"', scripts, re.M))
    module, _, attr = targets["bsk"].partition(":")
    assert getattr(importlib.import_module(module), attr) is importlib.import_module("bs_ktheory.cli").main
