"""How the package's record classes behave as values.

Every record is frozen and compares, hashes and prints by its fields, in
declaration order; `FatPointSpec` keeps its per-query memos out of all
three.  Records survive `copy.copy` and a pickle round trip.
"""

import copy
import pickle

import pytest

from fatpoints.hilbert import HilbertTable
from fatpoints.lattice import Decomposition, DivisorClass, FatPointSpec, WeylWord
from fatpoints.oracle import PointConfig
from fatpoints.report import BoundReport
from fatpoints.resolution import BettiTable, NuBounds, QuasiUniformResolution

# (record, an equal one built separately, one that differs in a field, repr).
CASES = [
    (DivisorClass(5, (2, 1)), DivisorClass(5, [2, 1]), DivisorClass(5, (2, 0)), "(5; 2,1)"),
    (FatPointSpec((3, 2)), FatPointSpec([3, 2]), FatPointSpec((2, 3)),
     "FatPointSpec(mults=(3, 2))"),
    (WeylWord((("quad",),)), WeylWord((("quad",),)), WeylWord(), "WeylWord(moves=(('quad',),))"),
    (Decomposition(True, DivisorClass(1, (0,)), ()), Decomposition(True, DivisorClass(1, (0,)), ()),
     Decomposition(False, None, ()),
     "Decomposition(in_semigroup=True, moving_part=(1; 0), fixed_part=())"),
    (HilbertTable(2, 3, ((2, 1),), "exact"), HilbertTable(2, 3, ((2, 1),), "exact"),
     HilbertTable(2, 3, ((2, 1),), "shgh-conjectural"),
     "HilbertTable(alpha=2, tau=3, rows=((2, 1),), exactness='exact')"),
    (BettiTable(1, 2, ((1, 2, 2, 0),)), BettiTable(1, 2, ((1, 2, 2, 0),)),
     BettiTable(1, 3, ((1, 2, 2, 0),)), "BettiTable(alpha=1, tau=2, rows=((1, 2, 2, 0),))"),
    (QuasiUniformResolution(3, 1, 0, 0, 0, "x"), QuasiUniformResolution(3, 1, 0, 0, 0, "x"),
     QuasiUniformResolution(3, 1, 0, 0, 0),
     "QuasiUniformResolution(alpha=3, a=1, b=0, c=0, d=0, label='x')"),
    (NuBounds(((3, 0, 1),), 4, 2), NuBounds(((3, 0, 1),), 4, 2), NuBounds((), 4, 2),
     "NuBounds(per_degree=((3, 0, 1),), total_simple=4, total_refined=2)"),
    (BoundReport("roe", "alpha-lower", 7, (("r", 3),), ("v",)),
     BoundReport("roe", "alpha-lower", 7, (("r", 3),), ("v",)),
     BoundReport("roe", "alpha-lower", 7, (("r", 3),)),
     "BoundReport(method='roe', direction='alpha-lower', value=7, params=(('r', 3),), "
     "validity=('v',))"),
    (PointConfig(101, 0, ((1, 2), (3, 4))), PointConfig(101, 0, ((1, 2), (3, 4))),
     PointConfig(101, 1, ((1, 2), (3, 4))),
     "PointConfig(prime=101, seed=0, points=((1, 2), (3, 4)))"),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("record, same, other, text", CASES, ids=IDS)
def test_records_compare_hash_and_print_by_their_fields(record, same, other, text):
    assert record == same and not record != same and record is not same
    assert hash(record) == hash(same)
    assert record != other and len({record, same, other}) == 2
    assert record != tuple(vars(record).values()) and record != object()
    assert repr(record) == text


@pytest.mark.parametrize("record, same, other, text", CASES, ids=IDS)
def test_records_are_frozen(record, same, other, text):
    for name in list(vars(record)):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 0
    assert record == same


@pytest.mark.parametrize("record, same, other, text", CASES, ids=IDS)
def test_records_copy_and_pickle(record, same, other, text):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is type(record)
        assert vars(twin) == vars(record)
        assert repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, next(iter(vars(twin))), 0)


def test_record_defaults():
    assert BoundReport("m", "tau-upper", 4) == BoundReport("m", "tau-upper", 4, (), ())
    rep = BoundReport("m", "tau-upper", 4)
    assert (rep.params, rep.validity) == ((), ())
    assert BoundReport(method="m", direction="tau-upper", value=4, validity=("v",)).validity == ("v",)
    q = QuasiUniformResolution(3, 1, 0, 0, 0)
    assert q.label == "conjectural (quasi-uniform prediction)"
    assert QuasiUniformResolution(alpha=3, a=1, b=0, c=0, d=0) == q
    assert WeylWord().moves == ()
    with pytest.raises(TypeError):
        BoundReport("m", "tau-upper")
    with pytest.raises(TypeError):
        HilbertTable(2, 3, ())
    with pytest.raises(TypeError):
        BettiTable(1, 2, (), 4)
    with pytest.raises(TypeError):
        NuBounds((), 4, 2, total=1)


def test_point_config_checks_its_fields():
    with pytest.raises(ValueError, match="pairwise distinct"):
        PointConfig(101, 0, ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        PointConfig(100, 0, ((1, 2),))


def test_spec_memos_take_no_part_in_equality():
    z, fresh = FatPointSpec((3, 2, 2)), FatPointSpec((3, 2, 2))
    z.lowerings[1] = "kept"
    z.expected_dims[4] = 2
    assert (z.positive, z.sums, z.condition_sum) == ((3, 2, 2), (0, 3, 5, 7), 24)
    assert z == fresh and hash(z) == hash(fresh)
    assert repr(z) == repr(fresh) == "FatPointSpec(mults=(3, 2, 2))"
    assert z != FatPointSpec((3, 2, 2, 0))
    for twin in (copy.copy(z), pickle.loads(pickle.dumps(z))):
        assert twin == z and twin.expected_dims == {4: 2} and twin.lowerings == {1: "kept"}
        assert twin.sums == (0, 3, 5, 7)
