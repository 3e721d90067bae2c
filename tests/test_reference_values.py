"""The committed reference values come out again: every entry of reference_values.json,
recomputed by write_reference_values.compute, within the tolerance of its kind."""

import json

import numpy as np

from write_reference_values import PATH, TOLERANCES, compute


def _move(kind, got, want):
    """How far a recomputed entry lies from the committed one, in units of its tolerance."""
    if kind == "exact":
        return 0.0 if got == want else np.inf
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = 1.0 if kind == "tol" else np.abs(want).max()
    return float(np.abs(got - want).max() / (TOLERANCES[kind] * scale))


def test_outputs_match_the_committed_values():
    want = json.loads(PATH.read_text())
    got = compute()
    assert list(got) == list(want)
    moved = {}
    for name, (kind, values) in got.items():
        assert want[name]["kind"] == kind, name
        move = _move(kind, values, want[name]["values"])
        if move > 1.0:
            moved[name] = move
    assert not moved, "moved beyond tolerance (in units of it): " + ", ".join(
        f"{name} ({move:.3g})" for name, move in moved.items())
