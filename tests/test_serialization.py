import math
import random

import pytest

from boolefock import jsonutil, sampling
from boolefock.algebra import VACUUM, BooleanElement, FockVector
from boolefock.fock import FinitePermutation, TestAlgebraElement
from boolefock.states import BooleanState
from boolefock.verify import check_boolean_relations


def roundtrip(value, cls):
    text = jsonutil.dumps(value.to_json())
    return cls.from_json(jsonutil.loads(text))


def test_boolean_element_bit_exact_roundtrip():
    rng = random.Random(50)
    for _ in range(100):
        x = sampling.boolean_element(rng, sites=range(1, 9), max_entries=6)
        back = roundtrip(x, BooleanElement)
        assert back == x
        # serializing again gives the identical byte stream
        assert jsonutil.dumps(back.to_json()) == jsonutil.dumps(x.to_json())


def test_boolean_element_row_major_vacuum_first():
    x = BooleanElement({(2, 1): 1.0, (VACUUM, 3): 2.0, (1, VACUUM): 3.0, (VACUUM, VACUUM): 4.0})
    keys = [(item["row"], item["col"]) for item in x.to_json()["compact"]]
    assert keys == [("#", "#"), ("#", 3), (1, "#"), (2, 1)]


def test_fock_vector_roundtrip():
    rng = random.Random(51)
    for _ in range(50):
        v = sampling.fock_vector(rng, range(1, 9), 5)
        assert roundtrip(v, FockVector) == v


def test_test_algebra_element_roundtrip():
    rng = random.Random(52)
    for _ in range(50):
        a = sampling.test_element(rng)
        assert roundtrip(a, TestAlgebraElement) == a
    with pytest.raises(ValueError):
        TestAlgebraElement.from_json({"a": [0, 0]})


def test_permutation_roundtrip():
    rng = random.Random(53)
    for _ in range(50):
        g = sampling.permutation(rng, range(1, 9))
        assert roundtrip(g, FinitePermutation) == g
    assert FinitePermutation.from_json({"map": {"1": 2, "2": 1}}) == FinitePermutation.swap(1, 2)


def test_state_roundtrip():
    rng = random.Random(54)
    for _ in range(30):
        gamma = rng.choice([0.0, 1.0, rng.random()])
        state = BooleanState(gamma, sampling.generic_density(rng, rng.randint(1, 4), range(1, 7)))
        assert roundtrip(state, BooleanState) == state


def test_check_report_schema_roundtrips_through_parser():
    report = check_boolean_relations(n_samples=20, seed=56)
    payload = jsonutil.loads(jsonutil.dumps(report.to_json()))
    assert set(payload) == {"name", "passed", "max_deviation", "samples_run", "witness"}
    assert payload["name"] == "boolean_relations"
    assert payload["passed"] is True
    assert payload["witness"] is None


def test_decode_errors():
    with pytest.raises(ValueError):
        jsonutil.decode_complex([1.0])
    with pytest.raises(ValueError):
        jsonutil.decode_complex([1.0, "x"])
    with pytest.raises(ValueError):
        BooleanElement.from_json({"scalar": [0, 0]})
    for bad in (True, 0, -1, 1.0, "1", "x", None, [1]):
        for key in ("row", "col"):
            item = {"row": 1, "col": VACUUM, "amp": [1, 0], key: bad}
            with pytest.raises(ValueError, match="site labels"):
                BooleanElement.from_json({"scalar": [0, 0], "compact": [item]})
    with pytest.raises(ValueError):
        BooleanState.from_json({"gamma": "high", "T": {"eigenpairs": []}})


def test_float_formatting_is_roundtrip_exact():
    rng = random.Random(57)
    for _ in range(200):
        x = rng.uniform(-1, 1) * 10 ** rng.randint(-12, 3)
        assert float(jsonutil.format_float(x)) == x


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_loads_rejects_non_finite_numbers(literal):
    # even where no reader would look at the value
    with pytest.raises(ValueError, match="finite"):
        jsonutil.loads('{"unread": [%s]}' % literal)


def test_loads_keeps_integers():
    big = 10**400
    assert jsonutil.loads("[3, %d, 0.5]" % big) == [3, big, 0.5]
    assert [type(x) for x in jsonutil.loads("[3, 1.0]")] == [int, float]


@pytest.mark.parametrize(
    "value, error",
    [
        pytest.param(math.nan, ValueError, id="nan"),
        pytest.param(-math.inf, ValueError, id="infinity"),
        pytest.param({1: "one"}, TypeError, id="int_key"),
        pytest.param({VACUUM: 0.5, (1, 2): 0.5}, TypeError, id="tuple_key"),
        pytest.param(1 + 2j, TypeError, id="complex"),
    ],
)
def test_dumps_rejects_what_json_cannot_hold(value, error):
    # complex numbers go through encode_complex first; dumps takes none
    for obj in (value, {"nested": [0.5, value]}):
        with pytest.raises(error):
            jsonutil.dumps(obj)
