"""The bytes every dataset generator materializes, pinned.

Each case builds one spec through harness.datasets.materialize and compares
the sha256 of its rows (and labels, where it has them) with the digest the
generator gave when the table was recorded. A generator whose builder
drifts from its entry's defaults, or whose draws change order, shows up
here as a changed digest. Every key of a generator's own must also change
its rows: a key that nothing reads would otherwise be accepted.
"""

import hashlib

import numpy as np
import pytest

from oewb.harness import datasets
from oewb.harness.config import DatasetSpec

# id -> (generator, its other params, experiment dim, rows asked for, sha256 prefix)
CASES = {
    "gaussian": ("gaussian", {}, 5, 6, "63d135c00ad8788d"),
    "gaussian_range": ("gaussian", {"value_range": [-1.0, 1.0]}, 5, 6, "e0606f2f56a84122"),
    "rademacher": ("rademacher", {}, 5, 6, "de0093ead0d1348a"),
    "rademacher_n": ("rademacher", {}, 5, 11, "003aaf31182ce449"),
    "bernoulli": ("bernoulli", {}, 5, 6, "c0707fd07c0d555b"),
    "bernoulli_p": ("bernoulli", {"p": 0.2}, 5, 6, "a935f0cc76448173"),
    "uniform_box": ("uniform_box", {}, 5, 6, "a8b35681490b349e"),
    "uniform_box_bounds": ("uniform_box", {"low": -3.0, "high": 0.5}, 5, 6, "c13fee12c869a770"),
    "ring": ("ring", {}, 2, 6, "7fb07a9a770eac65"),
    "ring_wide": ("ring", {"radius": 6.0, "width": 0.5}, 4, 6, "a54403db55975f1d"),
    "shifted_gaussian": ("shifted_gaussian", {}, 3, 6, "4014b0f82edfd016"),
    "shifted_gaussian_mean": ("shifted_gaussian", {"mean": [0.0, 6.0, -2.5]}, 3, 6, "bc745465352284ac"),
    "scaled_gaussian": ("scaled_gaussian", {}, 3, 6, "4014b0f82edfd016"),
    "scaled_gaussian_sigma": ("scaled_gaussian", {"sigma": 2.0}, 3, 6, "6e5a0d60ac276c25"),
    "gaussian_scale_offset": ("gaussian", {"scale": 0.5, "offset": 2.0}, 5, 6, "4f2a121225cf9a45"),
    "ring_scale_offset": ("ring", {"radius": 3.0, "scale": 2.0, "offset": [1.0, -1.0]}, 2, 6, "47ec293b11c01f7e"),
}

# id -> (kind, params, rows asked for, experiment dim, sha256 prefix)
SOURCE_CASES = {
    "markov_chain": ("generator", {"generator": "markov_chain", "length": 6, "alphabet_size": 5}, 8, None, "780b9a9d9a21b637"),
    "markov_chain_walk": ("generator", {"generator": "markov_chain", "length": 6, "alphabet_size": 5,
                                        "p_step": 0.5, "p_stay": 0.3, "starts": [3, 1]}, 8, None, "da59e1b51e6e1517"),
    "synthetic_gaussian_mixture": ("synthetic_gaussian_mixture", {}, None, None, "fc738d07f6c89116"),
    "synthetic_gaussian_mixture_k": ("synthetic_gaussian_mixture",
                                     {"k": 3, "n_per_cluster": 7, "dim": 5, "separation": 2.0,
                                      "class_subset": [0, 2]}, None, None, "541b38b2be41f984"),
    "synthetic_gaussian_mixture_n": ("synthetic_gaussian_mixture", {"n": 9}, 9, 3, "344e7e3f324a10fd"),
}


# A legal value other than the default for each key of a generator's own,
# and the value of each key that a spec must set.
OTHER = {
    "value_range": [-1.0, 1.0], "p": 0.2, "low": -3.0, "high": 0.5, "radius": 6.0, "width": 0.5,
    "mean": [0.0, 6.0, -2.5, 1.0, 1.0], "sigma": 2.0,
    "p_step": 0.5, "p_stay": 0.05, "starts": [3, 1],
    "k": 3, "n_per_cluster": 7, "dim": 5, "separation": 2.0, "class_subset": [0, 2],
}
NEEDED = {"length": 6, "alphabet_size": 5}
# (generator, key) for every key but the ones every vector generator reads;
# a file's rows are the file's, so its keys are left to tests of reading.
OWN_KEYS = [
    (name, key) for name, kind in datasets._KINDS.items() if name != "file"
    for key, (_, default) in kind.params.items()
    if key not in ("generator", "n", "scale", "offset") and default is not datasets.NEEDED
]


def _digest(data) -> str:
    h = hashlib.sha256()
    if data.alphabet_size is not None:
        h.update(np.ascontiguousarray(data.rows, dtype="<i8").tobytes())
    else:
        h.update(np.ascontiguousarray(data.rows, dtype="<f8").tobytes())
        if data.labels is not None:
            h.update(np.ascontiguousarray(data.labels, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


def test_every_vector_generator_has_cases():
    vector = {name for name, kind in datasets._KINDS.items() if "scale" in kind.params}
    assert {case[0] for case in CASES.values()} == vector


@pytest.mark.parametrize("case", sorted(CASES))
def test_vector_generator_bytes(case):
    generator, params, dim, n, want = CASES[case]
    spec = DatasetSpec("generator", case, {"generator": generator, **params})
    data = datasets.materialize(spec, n=n, seed=np.random.SeedSequence([7, 3]), dim=dim)
    assert _digest(data) == want


@pytest.mark.parametrize("case", sorted(SOURCE_CASES))
def test_source_generator_bytes(case):
    kind, params, n, dim, want = SOURCE_CASES[case]
    data = datasets.materialize(DatasetSpec(kind, case, params), n=n, seed=np.random.SeedSequence([7, 3]), dim=dim)
    assert _digest(data) == want


def _bytes_with(name: str, **params) -> str:
    kind = datasets._KINDS[name]
    needed = {key: NEEDED[key] for key, (_, default) in kind.params.items()
              if default is datasets.NEEDED and key != "generator"}
    seed = np.random.SeedSequence([7, 3])
    if "generator" not in kind.params:  # synthetic_gaussian_mixture
        return _digest(datasets.materialize(DatasetSpec(name, name, {**needed, **params}), n=None, seed=seed))
    spec = DatasetSpec("generator", name, {"generator": name, **needed, **params})
    if name == "markov_chain":
        return _digest(datasets.materialize(spec, n=8, seed=seed))
    return _digest(datasets.materialize(spec, n=6, seed=seed, dim=len(OTHER["mean"])))


@pytest.mark.parametrize("name, key", OWN_KEYS, ids=[f"{name}.{key}" for name, key in OWN_KEYS])
def test_every_key_of_its_own_changes_the_rows(name, key):
    assert OTHER[key] != datasets._KINDS[name].params[key][1]
    assert _bytes_with(name, **{key: OTHER[key]}) != _bytes_with(name)
