"""Correctness checks that decide whether a benchmark task failed.

A task fails when it raises, when its payload holds a non-finite number,
when a closed-form oracle or a-priori window disagrees with it, or, at the
default seed, when its payload differs from the stored reference.

Every check returns a list of problems; an empty list means the task passed.
"""

from __future__ import annotations

import math

#: reference payloads are compared at these tolerances; they are no looser
#: than the tolerances the repository's tests use for the same quantities
REF_RTOL = 1e-9
REF_ATOL = 1e-12


def nonfinite(obj, path="$"):
    """Paths of the non-finite numbers inside a decoded payload."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [] if math.isfinite(obj) else [f"{path} is {obj!r}"]
    if isinstance(obj, dict):
        return [p for k in sorted(obj) for p in nonfinite(obj[k], f"{path}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in nonfinite(v, f"{path}[{i}]")]
    return [f"{path} has unexpected type {type(obj).__name__}"]


def compare(ref, got, path="$", rtol=REF_RTOL, atol=REF_ATOL):
    """Differences between a stored reference payload and a fresh one."""
    if isinstance(ref, bool) or isinstance(got, bool) or isinstance(ref, str) or ref is None:
        return [] if ref == got and type(ref) is type(got) else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)):
        if not isinstance(got, (int, float)):
            return [f"{path}: {got!r} is not a number"]
        if math.isclose(got, ref, rel_tol=rtol, abs_tol=atol):
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path}: keys differ"]
        return [p for k in sorted(ref) for p in compare(ref[k], got[k], f"{path}.{k}", rtol, atol)]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: lengths differ"]
        return [p for i, (a, b) in enumerate(zip(ref, got))
                for p in compare(a, b, f"{path}[{i}]", rtol, atol)]
    return [f"{path}: unexpected type {type(ref).__name__}"]


def within(name, value, lo, hi):
    """One problem if `value` is not inside [lo, hi]."""
    if lo <= value <= hi:
        return []
    return [f"{name} = {value!r} outside [{lo!r}, {hi!r}]"]
