"""Output checks: NumPy references and comparisons.

The references are computed here, in NumPy, from the weights the
benchmark generated (or captured when the engine published them), not
through the engine.  Every check returns a list of mismatch messages;
an empty list means the outputs are correct.
"""

from __future__ import annotations

import numpy as np

#: float32 inference against a float32 reference computed another way
PREDICTION_TOLERANCE = dict(rtol=1e-4, atol=1e-5)
#: sums of up to 500k float32 predictions, accumulated in another order
SUM_RTOL = 1e-4

_ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "tanh": np.tanh,
    "linear": lambda x: x,
}


def _activation(layer, attribute: str = "activation"):
    return _ACTIVATIONS[getattr(layer, attribute).name]


def forward(model, inputs: np.ndarray, chunk: int = 65_536) -> np.ndarray:
    """First output of *model* for each input row (float32 NumPy)."""
    outputs = [
        _forward_chunk(model, np.asarray(inputs[lo : lo + chunk], np.float32))
        for lo in range(0, len(inputs), chunk)
    ]
    return np.concatenate(outputs) if outputs else np.empty(0)


def _forward_chunk(model, x: np.ndarray) -> np.ndarray:
    for index, layer in enumerate(model.layers):
        if layer.layer_type == "lstm" and index == 0:
            x = _lstm(layer, x)
        else:
            x = _activation(layer)(x @ layer.kernel + layer.bias)
    return x[:, 0]


def _lstm(layer, x: np.ndarray) -> np.ndarray:
    units = layer.units
    gate = _activation(layer, "recurrent_activation")
    act = _activation(layer)
    hidden = np.zeros((len(x), units), dtype=np.float32)
    cell = np.zeros((len(x), units), dtype=np.float32)
    for step in range(x.shape[1]):
        z = (x[:, step : step + 1] @ layer.kernel
             + hidden @ layer.recurrent_kernel + layer.bias)
        cell = (gate(z[:, units : 2 * units]) * cell
                + gate(z[:, :units]) * act(z[:, 2 * units : 3 * units]))
        hidden = gate(z[:, 3 * units :]) * act(cell)
    return hidden


def grouped_reference(groups: np.ndarray, predictions: np.ndarray) -> dict:
    """``{group: (count, sum)}`` as the scoring aggregates return it."""
    keys, counts = np.unique(groups, return_counts=True)
    sums = np.bincount(np.searchsorted(keys, groups), weights=predictions)
    return {
        int(k): (int(c), float(s)) for k, c, s in zip(keys, counts, sums)
    }


def merge_partials(rows) -> dict:
    """Fold ``(group, count, sum)`` rows into one row per group.

    A parallel ``GROUP BY`` on a non-partition key returns one row per
    group per partition (see ``repro.db.parallel``); the per-group
    partials add up to the serial answer.
    """
    merged: dict[int, list] = {}
    for group, count, total in rows:
        entry = merged.setdefault(int(group), [0, 0.0])
        entry[0] += int(count)
        entry[1] += float(total)
    return {group: (count, total) for group, (count, total) in merged.items()}


def compare_groups(label: str, observed: dict, expected: dict) -> list[str]:
    if observed.keys() != expected.keys():
        return [f"{label}: groups {sorted(observed)} != {sorted(expected)}"]
    problems = []
    for group, (count, total) in expected.items():
        got_count, got_total = observed[group]
        if got_count != count:
            problems.append(f"{label}: group {group} count {got_count} != {count}")
        if not np.isclose(got_total, total, rtol=SUM_RTOL, atol=1e-6):
            problems.append(f"{label}: group {group} sum {got_total} != {total}")
    return problems


def compare_predictions(label, ids, observed, expected) -> list[str]:
    """Point results: one ``(id, prediction)`` per lookup."""
    observed = np.asarray(observed, dtype=np.float64)
    bad = ~np.isclose(observed, expected, **PREDICTION_TOLERANCE)
    if not bad.any():
        return []
    first = int(np.flatnonzero(bad)[0])
    return [
        f"{label}: {int(bad.sum())} of {len(bad)} predictions differ, e.g. "
        f"id {ids[first]}: {observed[first]} != {expected[first]}"
    ]
