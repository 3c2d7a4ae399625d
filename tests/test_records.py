"""The eight plain records are namedtuples: their reprs, immutability,
equality, hashing and keyword construction, and the checks that
DeletionPattern and SimConfig keep on every way of building one."""

import dataclasses
import inspect
import pickle

import pytest

import gccodes
from gccodes import (
    BoundReport,
    DeletionPattern,
    GuessEval,
    InvalidConfigError,
    InvalidPatternError,
    OracleReport,
    SimConfig,
    TrialReport,
    TrialRow,
    Window,
)

# name -> (a fixed build, its repr as the frozen dataclasses printed it)
RECORDS = {
    "Window": (lambda: Window(start=3, offsets=(0, 2)),
               "Window(start=3, offsets=(0, 2))"),
    "DeletionPattern": (
        lambda: DeletionPattern(windows=(Window(3, (0, 2)), Window(12, ()))),
        "DeletionPattern(windows=(Window(start=3, offsets=(0, 2)), "
        "Window(start=12, offsets=())))"),
    "BoundReport": (
        lambda: BoundReport(redundancy_bits=25, rate=0.7191011235955056, failure_bound=1.0,
                            regime="large-window", windows=1),
        "BoundReport(redundancy_bits=25, rate=0.7191011235955056, failure_bound=1.0, "
        "regime='large-window', windows=1)"),
    "OracleReport": (
        lambda: OracleReport(trials=480, failures=1,
                             failure_patterns=(DeletionPattern((Window(2, (1,)),)),)),
        "OracleReport(trials=480, failures=1, "
        "failure_patterns=(DeletionPattern(windows=(Window(start=2, offsets=(1,)),)),))"),
    "SimConfig": (
        lambda: SimConfig(k_list=(64,), c=3, trials=10, delta=2),
        "SimConfig(k_list=(64,), c=3, trials=10, z=1, delta=2, delta_frac=None, "
        "master_seed=0, sampling_mode='whole-codeword', kind='cauchy')"),
    "TrialRow": (
        lambda: TrialRow(k=64, w=6, ell=6, c=3, z=1, delta=2, trials=10, failures=1,
                         miscorrections=0, pr_failure=0.1, rate=0.75, bound=1.0),
        "TrialRow(k=64, w=6, ell=6, c=3, z=1, delta=2, trials=10, failures=1, "
        "miscorrections=0, pr_failure=0.1, rate=0.75, bound=1.0)"),
    "TrialReport": (lambda: TrialReport(rows=()), "TrialReport(rows=())"),
    "GuessEval": (
        lambda: GuessEval(guess=2, decoded_pair=(5, 9), erased_region="0101",
                          decoded_bits="010111", padding_ok=True, parities_ok=False,
                          supersequence_ok=True, candidate=None),
        "GuessEval(guess=2, decoded_pair=(5, 9), erased_region='0101', "
        "decoded_bits='010111', padding_ok=True, parities_ok=False, "
        "supersequence_ok=True, candidate=None)"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    build, text = RECORDS[name]
    rec = build()
    assert type(rec).__name__ == name
    assert repr(rec) == text
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], 0)
    with pytest.raises(AttributeError):
        rec.unknown = 0
    twin = build()
    assert twin == rec and twin is not rec and hash(twin) == hash(rec)
    assert type(rec)(*rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert rec._replace() == rec


def test_fixed_builds_are_what_the_package_returns():
    # the fixed builds are what the package itself returns
    assert gccodes.bound_single(64, 6, 3) == RECORDS["BoundReport"][0]()
    assert gccodes.pattern_from_text("3:0,2;12:") == RECORDS["DeletionPattern"][0]()


@pytest.mark.parametrize("bad", [
    dict(windows=(Window(0, (1,)),)),
    dict(windows=(Window(3, (1, 0)),)),
    dict(windows=(Window(3, (0,)), Window(2, (0,)))),
    dict(windows=(Window(True, (0,)),)),
])
def test_pattern_checks_hold_for_replace_and_unpickling(bad):
    good = DeletionPattern((Window(1, (0,)),))
    with pytest.raises(InvalidPatternError):
        DeletionPattern(**bad)
    with pytest.raises(InvalidPatternError):
        good._replace(**bad)
    with pytest.raises(InvalidPatternError):
        DeletionPattern._make(bad.values())
    forged = tuple.__new__(DeletionPattern, tuple(bad.values()))
    with pytest.raises(InvalidPatternError):
        pickle.loads(pickle.dumps(forged))


@pytest.mark.parametrize("bad", [
    dict(trials=0), dict(trials=True), dict(delta=None), dict(delta=7),
    dict(k_list=()), dict(c=2), dict(sampling_mode="bogus"),
])
def test_config_checks_hold_for_replace_and_unpickling(bad):
    good = SimConfig(k_list=(64,), c=3, trials=10, delta=2)
    with pytest.raises(InvalidConfigError):
        SimConfig(**{**good._asdict(), **bad})
    with pytest.raises(InvalidConfigError):
        good._replace(**bad)
    forged = tuple.__new__(SimConfig, tuple({**good._asdict(), **bad}.values()))
    with pytest.raises(InvalidConfigError):
        pickle.loads(pickle.dumps(forged))


def test_records_behave_as_tuples():
    # what changed for callers: a record is a tuple of its fields
    win = Window(3, (0, 2))
    assert win == (3, (0, 2)) and tuple(win) == (3, (0, 2))
    assert Window(3, ()) < Window(4, ())
    assert win._replace(start=5) == Window(5, (0, 2))
    assert win.span_end(4) == 6


def test_only_the_three_coded_classes_are_dataclasses():
    """Among the classes in __all__, exactly CodeParams, DecodeResult and
    Generator are dataclasses. A frozen dataclass costs 0.85 to 2.1 ms
    to build at import, as it execs its generated methods, and the
    dataclasses module pulls in inspect, dis, ast and tokenize (about
    10 ms); every CLI call and worker process pays that. These three
    stay while the tests, README and bench call dataclasses.replace on
    them; a plain record should be a namedtuple."""
    classes = [getattr(gccodes, name) for name in gccodes.__all__
               if inspect.isclass(getattr(gccodes, name))]
    assert sorted(cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)) == [
        "CodeParams", "DecodeResult", "Generator"]
    assert {cls.__name__ for cls in classes if issubclass(cls, tuple)} == set(RECORDS)
