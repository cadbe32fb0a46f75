import numpy as np
import pytest

from oracles import target_encode_slow
from periop.encoding import (
    OneHotSchema,
    TargetEncoder,
    one_hot_many,
    target_encode_apply,
    target_encode_fit,
)


def test_one_hot_known_category():
    schema = OneHotSchema(categories=("f", "m"))
    assert one_hot_many(schema, ["f"])[0].tolist() == [1.0, 0.0]
    assert one_hot_many(schema, ["m"])[0].tolist() == [0.0, 1.0]


def test_one_hot_unknown_is_zero_row():
    schema = OneHotSchema(categories=("f", "m"))
    assert one_hot_many(schema, ["x"])[0].tolist() == [0.0, 0.0]


def test_one_hot_department_basis_vector():
    schema = OneHotSchema(categories=tuple(f"d{i}" for i in range(10)))
    vec = one_hot_many(schema, ["d3"])[0]
    assert vec[3] == 1.0 and vec.sum() == 1.0


def test_one_hot_unique_categories_enforced():
    with pytest.raises(ValueError):
        OneHotSchema(categories=("a", "a"))


def test_one_hot_many_matches_single():
    schema = OneHotSchema.fit(["a", "b", "c"])
    batch = one_hot_many(schema, ["b", "zz", "a"])
    assert np.array_equal(batch[0], one_hot_many(schema, ["b"])[0])
    assert np.array_equal(batch[1], one_hot_many(schema, ["zz"])[0])
    assert np.array_equal(batch[2], one_hot_many(schema, ["a"])[0])


def test_target_encode_hand_value():
    # category with n=40 and mean 100 against a global prior of 50
    categories = ["a"] * 40 + ["b"] * 40
    targets = [100.0] * 40 + [0.0] * 40
    encoder = target_encode_fit(categories, targets, m=40)
    assert encoder.prior == pytest.approx(50.0)
    assert encoder.encode("a") == pytest.approx(75.0)
    assert encoder.encode("b") == pytest.approx(25.0)


def test_target_encode_m_zero_is_raw_mean():
    encoder = target_encode_fit(["a", "a", "b"], [10.0, 20.0, 99.0], m=0)
    assert encoder.encode("a") == pytest.approx(15.0)
    assert encoder.encode("b") == pytest.approx(99.0)


def test_target_encode_unseen_returns_prior():
    encoder = target_encode_fit(["a", "b"], [10.0, 30.0], m=40)
    assert encoder.encode("zzz") == pytest.approx(encoder.prior) == pytest.approx(20.0)


def test_target_encode_apply_elementwise():
    encoder = target_encode_fit(["a", "a", "b"], [10.0, 20.0, 40.0], m=2)
    values = target_encode_apply(encoder, ["a", "b", "new"])
    assert values[0] == pytest.approx(encoder.encode("a"))
    assert values[1] == pytest.approx(encoder.encode("b"))
    assert values[2] == pytest.approx(encoder.prior)


def test_encoded_values_between_category_mean_and_prior():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        categories = [f"c{int(v)}" for v in rng.integers(0, 5, size=n)]
        targets = rng.normal(60, 25, size=n).tolist()
        encoder = target_encode_fit(categories, targets, m=float(rng.uniform(0.5, 80)))
        for cat, (n_i, mean_i) in encoder.stats.items():
            value = encoder.encode(cat)
            lo, hi = min(mean_i, encoder.prior), max(mean_i, encoder.prior)
            assert lo - 1e-12 <= value <= hi + 1e-12


def test_encoding_limits_monotone():
    prior, mean_i = 50.0, 100.0
    # growing category count pulls the encoding toward the category mean
    values_n = [
        TargetEncoder(stats={"a": (n, mean_i)}, prior=prior, m=40.0).encode("a")
        for n in (1, 10, 100, 10_000)
    ]
    assert values_n == sorted(values_n)
    assert values_n[-1] == pytest.approx(mean_i, rel=1e-2)
    # growing m pulls it toward the prior
    values_m = [
        TargetEncoder(stats={"a": (40, mean_i)}, prior=prior, m=m).encode("a")
        for m in (0.0, 10.0, 100.0, 1e6)
    ]
    assert values_m == sorted(values_m, reverse=True)
    assert values_m[0] == pytest.approx(mean_i)
    assert values_m[-1] == pytest.approx(prior, rel=1e-3)


def test_fit_row_order_invariant():
    categories = ["a", "b", "a", "c", "b", "a"]
    targets = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    e1 = target_encode_fit(categories, targets, m=7)
    order = [3, 0, 5, 2, 4, 1]
    e2 = target_encode_fit([categories[i] for i in order], [targets[i] for i in order], m=7)
    assert e1.prior == pytest.approx(e2.prior)
    for cat in e1.stats:
        assert e1.encode(cat) == pytest.approx(e2.encode(cat))


def test_matches_direct_formula_oracle():
    rng = np.random.default_rng(77)
    categories = [f"k{int(v)}" for v in rng.integers(0, 8, size=120)]
    targets = rng.lognormal(4.0, 0.4, size=120).tolist()
    encoder = target_encode_fit(categories, targets, m=40.0)
    table, prior = target_encode_slow(categories, targets, 40.0)
    assert encoder.prior == pytest.approx(prior, rel=1e-12)
    for cat, expected in table.items():
        assert encoder.encode(cat) == pytest.approx(expected, rel=1e-9)


def test_fit_validation():
    with pytest.raises(ValueError):
        target_encode_fit([], [], m=40)
    with pytest.raises(ValueError):
        target_encode_fit(["a"], [], m=40)
    with pytest.raises(ValueError):
        target_encode_fit(["a"], [1.0], m=-1)
    with pytest.raises(ValueError):
        target_encode_fit(["a"], [float("nan")], m=1)


def test_json_roundtrip():
    encoder = target_encode_fit(["a", "b", "a"], [10.0, 20.0, 30.0], m=5)
    clone = TargetEncoder.from_dict(encoder.to_dict())
    assert clone.prior == encoder.prior
    assert clone.m == encoder.m
    for cat in ("a", "b", "unseen"):
        assert clone.encode(cat) == pytest.approx(encoder.encode(cat))
    # int() would read 2 and 1; a count below 1 can make encode divide by 0
    for count in (2.5, True, 0, -5, 2**63):
        obj = encoder.to_dict()
        obj["stats"]["a"][0] = count
        with pytest.raises(ValueError, match="bad entry in 'a'"):
            TargetEncoder.from_dict(obj)
    obj = encoder.to_dict()
    obj["stats"]["a"][0], obj["m"] = 2, -2.0
    with pytest.raises(ValueError, match="bad value for 'm'"):
        TargetEncoder.from_dict(obj)
