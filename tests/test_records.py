"""The eight plain records are namedtuples: their reprs, immutability,
equality, hashing and keyword construction, and the checks that
DeletionPattern and SimConfig keep on every way of building one. And
CodeParams and Generator, plain __slots__ classes: the reprs the frozen
dataclasses printed, immutability, and copies that derive again."""

import copy
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


def test_decode_result_is_the_only_dataclass():
    """Among the classes in __all__, only DecodeResult is a dataclass. A
    frozen dataclass costs 0.85 to 2.1 ms to build at import, as it execs
    its generated methods, and the dataclasses module pulls in inspect,
    dis, ast and tokenize (about 7 ms); every CLI call and worker process
    pays that. DecodeResult stays while bench/tests/test_bench.py calls
    dataclasses.replace on one. A plain record should be a namedtuple,
    and a class that derives fields from its init fields a _Frozen class,
    as CodeParams and Generator are."""
    classes = [getattr(gccodes, name) for name in gccodes.__all__
               if inspect.isclass(getattr(gccodes, name))]
    assert [cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)] == ["DecodeResult"]
    assert {cls.__name__ for cls in classes if issubclass(cls, tuple)} == set(RECORDS)


# The reprs of CodeParams and Generator as the frozen dataclasses printed
# them: every field but n and the kept tables
PARAMS_REPRS = {
    (16, 4, 3): "CodeParams(k=16, w=4, c=3, kind='cauchy', z=1, r=1, ell=4, m=4, "
                "last_block_len=4, ctx=FieldContext(ell=4, poly=0x13), gen=Generator(m=4, "
                "c=3, kind='cauchy', ctx=FieldContext(ell=4, poly=0x13), rows=((13, 11, 7), "
                "(11, 13, 6), (7, 6, 13), (6, 7, 11))))",
    (16, 2, 5, 2): "CodeParams(k=16, w=2, c=5, kind='cauchy', z=2, r=5, ell=4, m=4, "
                   "last_block_len=4, ctx=FieldContext(ell=4, poly=0x13), gen=Generator(m=4, "
                   "c=5, kind='cauchy', ctx=FieldContext(ell=4, poly=0x13), rows=((13, 11, 7, "
                   "6, 15), (11, 13, 6, 7, 2), (7, 6, 13, 11, 12), (6, 7, 11, 13, 5))))",
}


def _params(args):
    return gccodes.gc_params(*args) if len(args) == 3 else gccodes.multi_params(*args)


def _filled(args):
    """The code of args, every kept table filled by one guess-path decode
    and one encode."""
    p = _params(args)
    u = "1100101001111000"
    x = gccodes.encode(u, p)
    assert gccodes.decode(x[:5] + x[7:], p).message == u
    assert p.gen._planes and p._tables
    return p


@pytest.mark.parametrize("args", PARAMS_REPRS)
def test_params_and_generator_reprs_are_the_dataclasses(args):
    p = _filled(args)                   # the kept tables stay out of repr
    assert repr(p) == PARAMS_REPRS[args]
    assert repr(p.gen) == PARAMS_REPRS[args][PARAMS_REPRS[args].index("gen=") + 4:-1]


@pytest.mark.parametrize("args", PARAMS_REPRS)
def test_params_and_generator_refuse_assignment_and_replace(args):
    p = _params(args)
    for obj, name in ((p, "w"), (p, "n"), (p, "gen"), (p, "_tables"), (p.gen, "rows"),
                      (p.gen, "_planes")):
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, before)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
        assert getattr(obj, name) is before
    for obj in (p, p.gen):
        with pytest.raises(AttributeError):
            obj.unknown = 0
        # no half-derived copy: dataclasses.replace refuses both
        with pytest.raises(TypeError, match="dataclass instances"):
            dataclasses.replace(obj)
        assert not hasattr(obj, "__dict__") and not hasattr(obj, "replace")


@pytest.mark.parametrize("copy_of", [lambda obj: pickle.loads(pickle.dumps(obj)),
                                     copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
@pytest.mark.parametrize("args", PARAMS_REPRS)
def test_params_and_generator_copies_derive_again(args, copy_of):
    """A copy is built again from the init fields: equal, with equal rows
    and hash, and with empty tables however full the original's are."""
    p = _filled(args)
    twin = copy_of(p)
    assert twin == p and hash(twin) == hash(p) and twin is not p
    assert (twin.ell, twin.m, twin.last_block_len, twin.n) == (p.ell, p.m, p.last_block_len, p.n)
    assert twin.gen == p.gen and twin.gen is not p.gen and twin.gen.rows == p.gen.rows
    assert twin._tables == {}
    gen = copy_of(p.gen)
    assert gen == p.gen and hash(gen) == hash(p.gen) and gen is not p.gen
    for g in (twin.gen, gen):
        assert g._planes == []
    assert gccodes.decode(gccodes.encode("0" * 16, twin)[1:], twin).message == "0" * 16
