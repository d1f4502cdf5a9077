"""Witness reports that keep little alive: slotted report classes, and one
shared square root per weight ratio.

Core claims:
    - a ``run_pipeline`` report and its ``profile`` carry no instance dict
      in either mode, and both still refuse assignment, to a field or to a
      new name
    - a report's ``__dict__`` reads its fields, built afresh on each read,
      so ``type(r)(**{**r.__dict__, "beta": b})`` still copies a report
      with one field changed
    - two reports under equal weights, from distinct ``WeightConfig``
      objects and different subgraphs, share their ``ratio`` and
      ``bound_lhs`` objects, in both modes; equal degree profiles are one
      object, whichever subgraph they come from
    - ``to_json_dict()``, equality and hashing are unchanged: a pinned
      report prints as before, equal reports are equal and hash as the
      tuple of their fields, and one changed field makes them unequal
    - ``bound_rhs`` is no field: it is derived from ``ratio`` and
      ``profile`` on each read, in both modes, and exact reports share
      one ``omega_beta`` object, the Fraction 1
    - ``scalars.shared_sqrt`` returns the value and type of an uncached
      ``mode.sqrt`` for int, Fraction and float inputs in both modes, and
      the same object when asked again
    - ``QuadraticScalar.sqrt_of`` builds the triple the constructor builds
"""

import dataclasses
from fractions import Fraction

import pytest

from cubesense import (
    DegreeProfile,
    InducedSubgraph,
    QuadraticScalar,
    ScalarMode,
    WeightConfig,
    run_pipeline,
    sqrt_decompose,
)
from cubesense.scalars import shared_sqrt

MODES = (ScalarMode.exact(), ScalarMode.floating())
# Q_3 without 011, and Q_4's vertices below 9 with 15
H3 = InducedSubgraph(3, 0b11110111)
H4 = InducedSubgraph.from_vertices(4, list(range(9)) + [15])


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.kind)
def test_reports_hold_no_instance_dict_and_stay_frozen(mode):
    report = run_pipeline(WeightConfig.from_ratio(4, 2), H4, mode)
    for obj, field in ((report, "beta"), (report.profile, "indegree")):
        assert type(obj).__dictoffset__ == 0
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "note", 1)  # no dict to hold a new name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, 0)
        # before Python 3.12 a slotted frozen dataclass refuses a new name
        # with TypeError, from its __setattr__'s super() call
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            obj.note = 0
    assert not hasattr(report.profile, "__dict__")


def test_report_dict_reads_the_fields():
    report = run_pipeline(WeightConfig.from_ratio(3, Fraction(1, 2)), H3)
    view = report.__dict__
    assert view == {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    assert view is not report.__dict__
    forged = type(report)(**{**view, "beta": 0b011})
    assert forged.beta == 0b011
    assert forged == dataclasses.replace(report, beta=0b011) != report


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.kind)
def test_equal_weights_share_ratio_and_bound(mode):
    first = run_pipeline(WeightConfig.from_ratio(4, Fraction(1, 2)), H4, mode)
    second = run_pipeline(
        WeightConfig.uniform(4, Fraction(1, 2), 2), InducedSubgraph(4, (1 << 16) - 1), mode
    )
    assert first.ratio is second.ratio
    assert first.bound_lhs is second.bound_lhs
    other = run_pipeline(WeightConfig.from_ratio(4, 2), H4, mode)
    assert other.ratio != first.ratio


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.kind)
def test_bound_rhs_is_derived_and_the_unit_coordinate_shared(mode):
    reports = [
        run_pipeline(WeightConfig.from_ratio(4, ratio), H, mode)
        for ratio in (Fraction(1, 2), 2) for H in (H4, InducedSubgraph(4, (1 << 16) - 1))
    ]
    for report in reports:
        assert "bound_rhs" not in {f.name for f in dataclasses.fields(report)}
        ratio, profile = report.ratio, report.profile
        assert report.bound_rhs == ratio * profile.indegree + profile.outdegree / ratio
    if mode.is_exact:
        assert all(r.omega_beta is reports[0].omega_beta == 1 for r in reports)


def test_equal_profiles_are_one_object():
    cube = InducedSubgraph(4, (1 << 16) - 1)
    assert cube.degree_profile(0b0011) is cube.degree_profile(0b0101)
    assert H4.degree_profile(0) is cube.degree_profile(0)
    assert cube.degree_profile(0) == DegreeProfile(0, 4) != cube.degree_profile(0b1111)


def test_report_prints_compares_and_hashes_as_before():
    report = run_pipeline(WeightConfig.from_ratio(3, Fraction(1, 2)), H3)
    assert report.to_json_dict() == {
        "n": 3,
        "mode": "exact",
        "C": "1/2",
        "beta": "000",
        "omega_beta": "1",
        "indegree": 0,
        "outdegree": 3,
        "degree": 3,
        "bound_lhs": "0+1*sqrt(3)",
        "bound_rhs": "6",
        "certified": True,
        "marginal": False,
    }
    again = run_pipeline(WeightConfig.from_ratio(3, Fraction(1, 2)), H3)
    assert again == report and hash(again) == hash(report)
    assert hash(report) == hash(tuple(getattr(report, f.name) for f in dataclasses.fields(report)))
    assert report.profile == DegreeProfile(0, 3)
    assert hash(report.profile) == hash((0, 3))
    assert dataclasses.replace(report, certified=False) != report


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.kind)
@pytest.mark.parametrize(
    "q", [1, 2, 6, 12, Fraction(1, 4), Fraction(3, 5), Fraction(49, 9), 0.5, 2.25, 6.0]
)
def test_shared_sqrt_matches_uncached_sqrt(mode, q):
    value = shared_sqrt(mode, q)
    expected = mode.sqrt(q)
    assert value == expected
    assert type(value) is type(expected)
    assert shared_sqrt(mode, q) is value


@pytest.mark.parametrize("q", [1, 4, 2, 12, Fraction(1, 4), Fraction(3, 5), Fraction(50, 9)])
def test_sqrt_of_builds_the_constructors_triple(q):
    built = QuadraticScalar.sqrt_of(q)
    expected = QuadraticScalar(0, *sqrt_decompose(q))
    assert (built._a, built._b, built._c, built._d) == (
        expected._a, expected._b, expected._c, expected._d
    )
