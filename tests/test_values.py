"""The contract of the public value types: immutable, hashable by value,
and preserved by pickle and deepcopy.  Sweep workers receive plain
``(t, r, iters)`` cells, not maps, but a map a caller sends to another
process must still evaluate bit for bit alike after the round trip."""

import copy
import pickle

import pytest

from barbilliard import (
    BarBilliardError,
    ConvexBody,
    DiskPoint,
    IdealPoint,
    TangentMap,
    Triangle,
    certify_rational,
    chord_through,
    condition_report,
    conjecture_check,
    detect_period5,
    standard_pentagram,
    tau_n,
    triangle_map,
)
from barbilliard.rotation import scan_winding_zeros
from lemmas import normalize_pair

P, Q = DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9)
#: the sandwich triangle (t, r) = (0.9, -0.02): rho = 2/5
TRI = Triangle(P, Q, DiskPoint(-0.02, 0.0))


def _scan():
    # the scan's own f is a closure over the map, which pickle cannot
    # serialise; a module-level function stands in for it
    return scan_winding_zeros(triangle_map(TRI), 2, 5)._replace(f=abs)


#: type name -> a function that builds one value of that type
VALUES = {
    "DiskPoint": lambda: DiskPoint(0.3, -0.2),
    "IdealPoint": lambda: IdealPoint(1.25),
    "Chord": lambda: chord_through(P, Q),
    "Triangle": lambda: TRI,
    "KleinIsometry": lambda: normalize_pair(DiskPoint(0.1, 0.2), DiskPoint(-0.3, 0.1))[0],
    "ConvexBody": lambda: ConvexBody.polygon(TRI.vertices),
    "TangentMap": lambda: triangle_map(TRI),
    "Piece": lambda: triangle_map(TRI).pieces(5)[0],
    "RationalCertificate": lambda: certify_rational(triangle_map(TRI), 2, 5).certificate,
    "RationalComparison": lambda: certify_rational(triangle_map(TRI), 1, 3).comparison,
    "RotationResult": lambda: certify_rational(triangle_map(TRI), 2, 5),
    "ZeroScan": _scan,
    "Zero": lambda: _scan().roots[0],
    "Pentagram": lambda: standard_pentagram(0.9)[1],
    "OrbitSet": lambda: detect_period5(triangle_map(TRI)),
    "TauResult": lambda: tau_n(P, Q, DiskPoint(-0.02, 0.0), 2),
    "LabelingReport": lambda: condition_report(TRI).labelings[0],
    "ConditionReport": lambda: condition_report(TRI),
    "ConjectureVerdict": lambda: conjecture_check(TRI, n=2000),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_type_contract(name):
    value = VALUES[name]()
    assert type(value).__name__ == name

    field = "body" if isinstance(value, TangentMap) else value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1

    twin = VALUES[name]()
    assert twin == value and hash(twin) == hash(value)

    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)


@pytest.mark.parametrize("body", [
    ConvexBody.polygon(TRI.vertices),
    ConvexBody.segment(P, Q),
    ConvexBody.point(DiskPoint(0.1, -0.3)),
], ids=["triangle", "segment", "point"])
def test_round_tripped_map_evaluates_alike(body):
    tmap = TangentMap(body)
    angles = (0.0, 0.1, 0.25, 0.5, 0.7071, 1.0 - 2.0 ** -40)
    bits = [tmap.eval_angle(a).hex() for a in angles]
    for copied in (pickle.loads(pickle.dumps(tmap)), copy.deepcopy(tmap)):
        assert [copied.eval_angle(a).hex() for a in angles] == bits


@pytest.mark.parametrize("value, field, bad", [
    (DiskPoint(0.3, -0.2), "x", 1.0),
    (IdealPoint(0.25), "angle", float("nan")),
    (chord_through(P, Q), "b", chord_through(P, Q).a),
    (TRI, "r", P),
    (normalize_pair(P, Q)[0], "b", 1.0),
    (ConvexBody.polygon(TRI.vertices), "kind", "disk"),
], ids=["DiskPoint", "IdealPoint", "Chord", "Triangle", "KleinIsometry", "ConvexBody"])
def test_replace_validates(value, field, bad):
    """``_replace`` goes through the constructor's checks, as construction does."""
    assert value._replace(**{field: getattr(value, field)}) == value
    with pytest.raises(BarBilliardError):
        value._replace(**{field: bad})
