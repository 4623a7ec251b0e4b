"""Byte identity as a gate: every corpus form writes its recorded bytes."""

import json

import numpy as np
import pytest
import scipy

from record_golden import FORMS, GOLDEN, run_form

RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_records_every_form():
    assert sorted(RECORDED["forms"]) == sorted(FORMS)


@pytest.mark.parametrize("name", list(FORMS))
def test_form_keeps_its_recorded_bytes(name, tmp_path):
    expected, got = RECORDED["forms"][name], run_form(name, tmp_path)
    moved = sorted(key for key in ("exit", "stderr") if got[key] != expected[key])
    files = set(got["files"]) | set(expected["files"])
    moved += sorted(f for f in files if got["files"].get(f) != expected["files"].get(f))
    assert not moved, (f"{name}: {', '.join(moved)} changed (numpy {np.__version__}, scipy "
                       f"{scipy.__version__}; recorded at numpy {RECORDED['numpy']}, scipy "
                       f"{RECORDED['scipy']})")
