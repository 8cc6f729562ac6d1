import collections
import enum
import json
import math
import random
import re

import pytest

from boolefock import jsonutil, sampling
from boolefock.algebra import VACUUM, BooleanElement, FockVector, index_from_key
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
    for bad in ([True, 0.0], [0.5, math.inf], [0.5, 0.0, 0.0]):
        with pytest.raises(ValueError):
            jsonutil.decode_complex(bad)
    value = jsonutil.decode_complex([1, 0])
    assert (type(value), value) == (complex, 1 + 0j)
    with pytest.raises(ValueError):
        BooleanElement.from_json({"scalar": [0, 0]})
    for bad in (True, 0, -1, 1.0, "1", "x", None, [1]):
        for key in ("row", "col"):
            item = {"row": 1, "col": VACUUM, "amp": [1, 0], key: bad}
            with pytest.raises(ValueError, match="site labels"):
                BooleanElement.from_json({"scalar": [0, 0], "compact": [item]})
    # two items for one entry, even with equal amplitudes, spell no element
    for second in ([2, 0], [1, 0]):
        compact = [{"row": 1, "col": 1, "amp": [1, 0]}, {"row": 1, "col": 1, "amp": second}]
        with pytest.raises(ValueError, match="repeated compact entry"):
            BooleanElement.from_json({"scalar": [0, 0], "compact": compact})
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


def test_loads_rejects_an_overflowing_literal_with_the_decoder_message():
    for literal, shown in (("1e999", "inf"), ("-1e999", "-inf")):
        with pytest.raises(ValueError) as caught:
            jsonutil.loads("[0.5, %s]" % literal)
        assert str(caught.value) == f"expected a finite number, got {shown}"


def test_loads_names_the_first_repeated_key():
    assert jsonutil.loads('{"a": 1, "b": {"a": 2}}') == {"a": 1, "b": {"a": 2}}
    for text, key in (
        ('{"a": 1, "b": 2, "b": 3, "a": 4}', "b"),
        ('{"a": 1, "b": 2, "a": 3, "b": 4}', "a"),
        ('[{"x": 0.5}, {"y": [1, {"z": 1, "z": 2}]}]', "z"),
    ):
        with pytest.raises(ValueError) as caught:
            jsonutil.loads(text)
        assert str(caught.value) == f"duplicate object key {key!r}"


def test_index_from_key_accepts_exactly_the_canonical_spellings():
    assert [index_from_key(k) for k in ("1", "907", "#")] == [1, 907, VACUUM]
    for key in ("0", "01", "+1", " 1", "1 ", "", "\u0661", "\u00b2", "\uff11", "1.0", "-1", "##", 1, None):
        with pytest.raises(ValueError, match="canonical site integer key"):
            index_from_key(key)
    # every key of up to three characters over digits and look-alikes
    alphabet = ["0", "1", "9", "+", " ", "#", "\u0661", "\u00b2", "\uff11", "a"]
    keys = [""] + alphabet
    keys += [a + b for a in alphabet for b in alphabet]
    keys += [a + b + c for a in alphabet for b in "019" for c in alphabet]
    for key in keys:
        canonical = key == VACUUM or re.fullmatch("[1-9][0-9]*", key) is not None
        try:
            parsed = index_from_key(key)
        except ValueError:
            parsed = None
        assert (parsed is not None) == canonical, key
        if canonical and key != VACUUM:
            assert parsed == int(key)


def _fields(v: FockVector):
    """Every field of a vector, amplitudes as ``(type, repr)`` in dict order."""
    return (type(v.vacuum_amp), repr(v.vacuum_amp), [(ix, type(a), repr(a)) for ix, a in v.wave.items()])


def test_fock_vector_from_json_builds_what_the_constructor_builds():
    rng = random.Random(58)
    values = [0.0, -0.0, 1.0, -2.5, 5e-324, 1e308, 0.1, 3]
    for _ in range(300):
        obj = {}
        for key in rng.sample(["#", *map(str, range(1, 12))], rng.randint(0, 8)):
            obj[key] = [rng.choice(values + [rng.uniform(-1, 1)]) for _ in range(2)]
        v = FockVector.from_json(obj)
        pairs = {index_from_key(k): complex(*pair) for k, pair in obj.items()}
        reference = FockVector(pairs.pop(VACUUM, 0j), pairs)
        assert v == reference
        assert _fields(v) == _fields(reference)
        assert FockVector.from_json(v.to_json()) == v
    for vector in (
        {"#": [math.nan, 0.0]}, {"1": [0.0, math.inf]}, {"1": [10 ** 400, 0]}, {"1": [True, 0.0]},
        {"1": ["1", 0.0]}, {"1": [1.0]}, {"1": None}, {"0": [1.0, 0.0]}, {"01": [1.0, 0.0]}, {1: [1.0, 0.0]},
    ):
        with pytest.raises(ValueError):
            FockVector.from_json(vector)


def frozen_dumps(obj):
    """``jsonutil.dumps`` as it was before the writer dispatched on exact types."""
    buf = []
    _frozen_emit(obj, buf, 0)
    buf.append("\n")
    return "".join(buf)


def _frozen_emit(obj, buf, level):
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if obj is None:
        buf.append("null")
    elif isinstance(obj, bool):
        buf.append("true" if obj else "false")
    elif isinstance(obj, str):
        buf.append(json.dumps(obj))
    elif isinstance(obj, int):
        buf.append(str(obj))
    elif isinstance(obj, float):
        buf.append(jsonutil.format_float(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            buf.append("[]")
            return
        buf.append("[\n")
        for k, item in enumerate(obj):
            buf.append(pad)
            _frozen_emit(item, buf, level + 1)
            buf.append(",\n" if k + 1 < len(obj) else "\n")
        buf.append(close_pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            buf.append("{}")
            return
        buf.append("{\n")
        items = list(obj.items())
        for k, (key, value) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            buf.append(pad + json.dumps(key) + ": ")
            _frozen_emit(value, buf, level + 1)
            buf.append(",\n" if k + 1 < len(items) else "\n")
        buf.append(close_pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} value {obj!r}")


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class Ratio(float):
    pass


class Label(str):
    pass


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0, 1e16, 2.0 ** -1074, 123456789.125]
STRINGS = ["", "plain", 'quote " and \\ slash', "tab\t newline\n bell\x07", "caf\u00e9", "\u2028", "\U0001f600",
           "\ud800", Label("label")]


def _leaf(rng):
    return rng.choice([
        None, True, False, 0, -3, 10 ** 30, Level.HIGH, Ratio(0.25), Ratio(-0.0),
        rng.choice(EDGE_FLOATS), rng.uniform(-1e3, 1e3), rng.choice(STRINGS),
        [], (), {}, collections.OrderedDict(),
    ])


def _payload(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng)
    size = rng.randint(0, 4)
    kind = rng.choice(["list", "tuple", "dict", "ordered"])
    if kind in ("list", "tuple"):
        items = [_payload(rng, depth - 1) for _ in range(size)]
        return items if kind == "list" else tuple(items)
    pairs = [(rng.choice(STRINGS) + str(k), _payload(rng, depth - 1)) for k in range(size)]
    return dict(pairs) if kind == "dict" else collections.OrderedDict(pairs)


def _outcome(fn, obj):
    try:
        return fn(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def test_dumps_writes_the_bytes_of_the_frozen_writer():
    rng = random.Random(59)
    for _ in range(400):
        obj = _payload(rng, 4)
        assert jsonutil.dumps(obj) == frozen_dumps(obj)
    for obj in (EDGE_FLOATS, tuple(STRINGS), [[], {}, ()], {"": {"": []}}, Level.LOW, Ratio(1.5), Label("x"),
                [-0.0, 0.0], {"z": [5e-324, -1e308]}, [Ratio(0.25), 0.5], [0.5, Ratio(-0.0)]):
        assert jsonutil.dumps(obj) == frozen_dumps(obj)
    bad = [math.nan, -math.inf, {1: "one"}, {"a": 0.5, (1, 2): 0.5}, 1 + 2j, {1, 2}, {True: 0}, Ratio("nan")]
    for value in bad:
        for obj in (value, [0.5, value], {"nested": (value,)}, collections.OrderedDict(a=[{}, value])):
            outcome = _outcome(jsonutil.dumps, obj)
            assert outcome == _outcome(frozen_dumps, obj)
            assert isinstance(outcome, tuple) and outcome[0] in (TypeError, ValueError)
    for obj in ([math.nan, 0.5], {"z": [0.5, -math.inf]}):
        outcome = _outcome(jsonutil.dumps, obj)
        assert outcome == _outcome(frozen_dumps, obj) and outcome[0] is ValueError
