"""What every kind that harness.datasets._KINDS builds keeps to.

Each generator, and the synthetic_gaussian_mixture inliers, is one table
entry, so each must behave the same way where the entry's shared keys are
concerned: rows of the asked shape drawn from the seed alone, a row count
below one refused, the spec's params resolved to every key the entry reads
and left as they were given, and, for vector rows, scale and offset
applied last. The distribution checks at the end pin what the geometric
generators draw.
"""

import copy

import numpy as np
import pytest

from oewb.errors import ValidationError
from oewb.harness import datasets
from oewb.harness.config import DatasetSpec

GENERATORS = datasets._GENERATORS
VECTOR = [name for name in GENERATORS if "scale" in datasets._KINDS[name].params]
MIXTURE = "synthetic_gaussian_mixture"
# every kind that builds its rows: the generators and the mixture
BUILT = [*GENERATORS, MIXTURE]
# the keys a spec of each generator must set besides generator
NEEDED = {"markov_chain": {"length": 6, "alphabet_size": 5}}
DIM = 3
SEED = np.random.SeedSequence([7, 3])


def _spec(name: str, **params) -> DatasetSpec:
    if name == MIXTURE:
        return DatasetSpec(MIXTURE, name, params)
    return DatasetSpec("generator", name, {"generator": name, **NEEDED.get(name, {}), **params})


def _build(name: str, n: int = 8, seed=SEED, **params):
    return datasets.materialize(_spec(name, **params), n=n, seed=seed, dim=DIM)


def test_vector_and_sequence_generators_partition_the_generators():
    assert VECTOR and set(GENERATORS) - set(VECTOR) == {"markov_chain"}


@pytest.mark.parametrize("name", BUILT)
def test_rows_have_the_asked_shape(name):
    data = _build(name, n=11)
    if name in VECTOR:
        assert data.rows.shape == (11, DIM) and data.rows.dtype == np.float64
        assert data.labels is None
    elif name == MIXTURE:
        # 11 rows split over the default 4 classes, the first 3 taking the
        # remainder, in the experiment dimension
        assert data.rows.shape == (11, DIM) and data.rows.dtype == np.float64
        assert data.labels.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3]
    else:
        assert data.rows.shape == (11, NEEDED[name]["length"])
        assert 0 <= data.rows.min() and data.rows.max() < NEEDED[name]["alphabet_size"]


@pytest.mark.parametrize("name", BUILT)
def test_same_seed_same_bytes(name):
    assert _build(name).rows.tobytes() == _build(name, seed=np.random.SeedSequence([7, 3])).rows.tobytes()


@pytest.mark.parametrize("name", BUILT)
def test_another_seed_draws_other_rows(name):
    assert not np.array_equal(_build(name).rows, _build(name, seed=np.random.SeedSequence([7, 4])).rows)


@pytest.mark.parametrize("name", BUILT)
def test_numpy_global_random_state_is_left_alone(name):
    np.random.seed(5)
    _build(name)
    after = np.random.random(4)
    np.random.seed(5)
    assert np.array_equal(after, np.random.random(4))


@pytest.mark.parametrize("count", [0, -3])
@pytest.mark.parametrize("name", BUILT)
def test_a_row_count_below_one_is_refused(name, count):
    with pytest.raises(ValidationError) as info:
        datasets.materialize(_spec(name, n=count), n=5, seed=SEED, dim=DIM)
    assert str(info.value) == f"dataset {name!r} ({name}) params.n must be positive, got {count}"


@pytest.mark.parametrize("name", BUILT)
def test_check_params_resolves_every_key_the_entry_reads(name):
    entry = datasets._KINDS[name]
    given = _spec(name).params
    resolved = datasets.check_params(_spec(name))
    assert resolved == {key: given.get(key, default) for key, (_, default) in entry.params.items()}
    assert datasets.NEEDED not in resolved.values()


@pytest.mark.parametrize("name", BUILT)
def test_the_spec_params_are_left_as_given(name):
    spec = _spec(name, n=4)
    before = copy.deepcopy(spec.params)
    datasets.materialize(spec, n=4, seed=SEED, dim=DIM)
    assert spec.params == before


@pytest.mark.parametrize("name", BUILT)
def test_a_misspelled_key_is_refused_listing_the_keys_read(name):
    with pytest.raises(ValidationError) as info:
        _build(name, scael=2.0)
    reads = ", ".join(sorted(datasets._KINDS[name].params))
    assert str(info.value) == f"dataset {name!r} ({name}) does not read params key(s) scael; it reads {reads}"


@pytest.mark.parametrize("name", VECTOR)
def test_scale_and_offset_apply_to_the_rows_last(name):
    offset = [1.0, -2.0, 0.5]
    moved = _build(name, scale=2.5, offset=offset).rows
    assert np.array_equal(moved, _build(name).rows * 2.5 + np.asarray(offset))


@pytest.mark.parametrize("name", VECTOR)
def test_an_offset_of_another_length_than_dim_is_refused(name):
    with pytest.raises(ValidationError, match=rf"dataset {name!r} params.offset must have one entry per "
                                                 rf"dimension \(3\), got \[1.0, 2.0\]"):
        _build(name, offset=[1.0, 2.0])


@pytest.mark.parametrize("name", VECTOR)
def test_a_string_scale_is_refused(name):
    with pytest.raises(ValidationError) as info:
        _build(name, scale="2")
    assert str(info.value) == f"dataset {name!r} params.scale must be a number, got '2'"


@pytest.mark.parametrize("name", VECTOR)
def test_vector_rows_need_the_experiment_dimension(name):
    with pytest.raises(ValidationError, match=rf"dataset {name!r} \({name}\) takes the experiment dimension"):
        datasets.materialize(_spec(name), n=8, seed=SEED)


@pytest.mark.parametrize("name", VECTOR)
def test_vector_rows_survive_a_csv_round_trip_bit_for_bit(name, tmp_path):
    data = _build(name, scale=1.0 / 3.0)
    datasets.write_csv(tmp_path / "rows.csv", data)
    back = datasets.read_csv(tmp_path / "rows.csv")
    assert back.labels is None and back.rows.tobytes() == data.rows.tobytes()


def test_markov_chain_needs_a_row_count():
    with pytest.raises(ValidationError, match="'markov_chain' .* needs params key n: nothing else sets"):
        datasets.materialize(_spec("markov_chain"), n=None, seed=SEED)


def test_a_deleted_generator_is_refused_listing_every_generator():
    with pytest.raises(ValidationError) as info:
        _build("jigsaw")
    listed = ", ".join(GENERATORS)
    assert str(info.value) == f"dataset 'jigsaw': unknown generator 'jigsaw'; the generators are {listed}"


def test_uniform_box_stays_inside_its_bounds():
    x = _build("uniform_box", n=20_000, low=-3.0, high=0.5).rows
    assert -3.0 <= x.min() < -2.99 and 0.49 < x.max() < 0.5


def test_uniform_box_mean_of_the_unit_interval():
    x = _build("uniform_box", n=10_000, low=0.0, high=1.0).rows
    assert abs(x.mean() - 0.5) < 5.0 / np.sqrt(12.0 * x.size)


def test_ring_radius_averages_its_radius():
    x = _build("ring", n=10_000, radius=6.0, width=0.5).rows
    r = np.hypot(x[:, 0], x[:, 1])
    assert abs(r.mean() - 6.0) < 5.0 * 0.5 / np.sqrt(r.size)
    assert abs(x[:, 2].mean()) < 5.0 / np.sqrt(r.size)


def test_shifted_gaussian_centres_on_its_mean():
    x = _build("shifted_gaussian", n=10_000, mean=[0.0, 6.0, -2.5]).rows
    assert np.max(np.abs(x.mean(axis=0) - [0.0, 6.0, -2.5])) < 5.0 / np.sqrt(10_000)


def test_scaled_gaussian_spreads_by_its_sigma():
    x = _build("scaled_gaussian", n=10_000, sigma=4.0).rows
    assert np.max(np.abs(x.std(axis=0) - 4.0)) < 5.0 * 4.0 / np.sqrt(2.0 * 10_000)
