import json
import random

import pytest

from qwalk import steps
from qwalk.errors import EmptyStepSet, InvalidStep, OutOfRange


def test_parse_simple_walk():
    s = steps.parse_step_set([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert len(s) == 4
    assert s.delta(1, 0) == 1
    assert s.delta(1, 1) == 0


def test_parse_singleton_and_duplicates():
    s = steps.parse_step_set([(1, 0)])
    assert len(s) == 1
    assert len(steps.parse_step_set([(1, 0), (1, 0)])) == 1


def test_parse_rejects_origin_step():
    with pytest.raises(InvalidStep):
        steps.parse_step_set([(0, 0)])


def test_parse_rejects_far_step_and_empty():
    with pytest.raises(InvalidStep):
        steps.parse_step_set([(2, 0)])
    with pytest.raises(EmptyStepSet):
        steps.parse_step_set([])


def test_parse_rejects_what_is_not_a_list_of_pairs():
    # booleans are ints to isinstance, but JSON true/false are not coordinates
    for bad in (5, None, [[1, 0], 5], [(1, 0), None], [(1, 0), (0, True)],
                [(True, False), (False, True), (-1, -1)],
                "ab", "", b"", {}, {(1, 0): 1}, [(1, 0), "ab"], [b"\x01\x00"]):
        with pytest.raises(InvalidStep):
            steps.parse_step_set(bad)
    for text in ('{"steps": 5}', '{"steps": null}', '{"steps": [[1, 0], 5]}',
                 '{"steps": [[true, false], [false, true], [-1, -1]]}'):
        with pytest.raises(InvalidStep):
            steps.from_json(text)


def test_drift_simple_walk_is_centred():
    d = steps.drift(steps.preset("simple"))
    assert (d.m_x, d.m_y, d.covariance) == (0, 0, 0)
    assert d.cardinality == 4


def test_drift_kreweras():
    # direct integer sums over {(-1,0),(0,-1),(1,1)}
    d = steps.drift(steps.preset("kreweras"))
    assert (d.m_x, d.m_y) == (0, 0)
    assert d.covariance == 1


def test_drift_north_east_pair():
    d = steps.drift(steps.parse_step_set([(1, 0), (0, 1)]))
    assert (d.m_x, d.m_y) == (1, 1)
    assert d.covariance == 0 - 1


def test_drift_components_additive_over_disjoint_union():
    rng = random.Random(7)
    allowed = sorted({(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)} - {(0, 0)})
    for _ in range(50):
        k = rng.randint(2, 7)
        chosen = rng.sample(allowed, k)
        cut = rng.randint(1, k - 1)
        a, b = chosen[:cut], chosen[cut:]
        da = steps.drift(steps.parse_step_set(a))
        db = steps.drift(steps.parse_step_set(b))
        du = steps.drift(steps.parse_step_set(chosen))
        assert du.m_x == da.m_x + db.m_x
        assert du.m_y == da.m_y + db.m_y


def test_is_singular():
    assert not steps.is_singular(steps.preset("simple"))
    assert steps.is_singular(steps.parse_step_set([(1, 0), (0, 1), (1, 1)]))
    assert not steps.is_singular(steps.parse_step_set([(-1, -1)]))


def test_symmetry_class_fixes_symmetric_sets():
    s = steps.preset("simple")
    canon, transform = steps.symmetry_class(s)
    assert canon == s
    assert transform == "identity"


def test_symmetry_class_identifies_mirror_pairs():
    a = steps.parse_step_set([(1, 0)])
    b = steps.parse_step_set([(0, 1)])
    ca, _ = steps.symmetry_class(a)
    cb, _ = steps.symmetry_class(b)
    assert ca == cb


def test_symmetry_class_gouyou_beauchamps():
    s = steps.preset("gouyou-beauchamps")
    mirror = s.mirrored()
    canon, transform = steps.symmetry_class(s)
    expected = min(s.sorted_steps(), mirror.sorted_steps())
    assert canon.sorted_steps() == expected
    # the recorded transform really maps the input onto the canonical form
    applied = s.mirrored() if transform == "transpose" else s
    assert applied == canon


def test_symmetry_class_idempotent_and_transform_consistent():
    rng = random.Random(11)
    for s in rng.sample(list(steps.all_step_sets()), 40):
        canon, transform = steps.symmetry_class(s)
        canon2, t2 = steps.symmetry_class(canon)
        assert canon2 == canon and t2 == "identity"
        applied = s.mirrored() if transform == "transpose" else s
        assert applied == canon


def test_json_round_trip():
    s = steps.preset("gessel")
    assert steps.from_json(steps.to_json(s)) == s
    with pytest.raises(InvalidStep):
        steps.from_json(json.dumps({"moves": []}))
    with pytest.raises(InvalidStep, match="not valid JSON"):
        steps.from_json("nope")


def test_unknown_preset_is_out_of_range():
    with pytest.raises(OutOfRange, match="unknown preset 'nope'; available: .*'simple'"):
        steps.preset("nope")


def test_all_step_sets_census_size():
    assert sum(1 for _ in steps.all_step_sets()) == 255
