"""The one JSON path: specs, the files the program writes, and a structural fuzz.

Every JSON file shiftzoo reads goes through ``feature_store.read_json`` and
is checked against a spec by ``check_json``. These tests check the walker
itself, that every JSON file the program writes passes its own reader, and
that mutating any field of a manifest, a profile report or a run report
either leaves a command's output unchanged or exits 2 with one error line
naming the file and the JSON path.
"""

import copy
import functools
import json
import math
import operator
import random
import re

import pytest

from shiftzoo.cli import main
from shiftzoo.errors import ValidationError
from shiftzoo.feature_store import (
    MANIFEST_SPEC,
    check_json,
    dumps_json,
    load_manifest,
    read_json,
)
from shiftzoo.report import PROFILE_SPEC, RUN_SPEC, TRAIN_KIND, read_report

TRAIN = ["--main", "main_full", "--div-aux", "div_heavy", "--rew-aux", "cor_heavy",
         "--steps", "12", "--eval-every", "4", "--warmup", "2", "--anneal", "4",
         "--aux-steps", "6", "--batch-size", "16"]


def _refused(node, spec):
    with pytest.raises(ValidationError) as info:
        check_json(node, spec, "doc")
    return str(info.value)


# -- the walker -----------------------------------------------------------


def test_numbers_are_never_bools_and_floats_are_finite():
    for node in (0, -3, 2**70):
        assert check_json(node, int, "doc") == node
    for node in (0, 1.5, -2, 1e308, 10**300):
        assert check_json(node, float, "doc") == node
    assert _refused(True, int) == "doc: $ must be an integer, got True"
    assert _refused(False, float) == "doc: $ must be a finite number, got False"
    assert _refused(1.0, int) == "doc: $ must be an integer, got 1.0"
    for node in (math.nan, math.inf, -math.inf, 10**400, -(10**400), "1"):
        assert _refused(node, float).startswith("doc: $ must be a finite number, got ")


def test_integer_ranges_name_their_bounds():
    assert check_json(2**32, slice(1, 2**32), "doc") == 2**32
    assert _refused(0, slice(1, 2**32)) == "doc: $ must be an integer in [1, 4294967296], got 0"
    assert _refused(2**32 + 1, slice(1, 2**32)).endswith("got 4294967297")
    assert _refused(1e30, slice(1, 2**32)).endswith("got 1e+30")
    assert _refused(True, slice(0, None)) == "doc: $ must be an integer >= 0, got True"
    assert check_json(10**100, slice(0, None), "doc") == 10**100
    assert _refused(-1, slice(0, None)) == "doc: $ must be an integer >= 0, got -1"


def test_objects_name_missing_unknown_and_mistyped_keys_by_path():
    spec = {"a": int, "b": (str, ...), "c": [{"d": float}], "e": {str: str}}
    doc = {"a": 1, "c": [{"d": 0.5}, {"d": 2}], "e": {"x": "y"}}
    assert check_json(doc, spec, "doc") is doc
    assert check_json({**doc, "b": "z"}, spec, "doc")
    assert _refused({"c": [], "e": {}}, spec) == "doc: $.a is missing; it must be an integer"
    assert _refused({**doc, "zz": 1}, spec) == "doc: $.zz is an unknown key"
    bad = {**doc, "c": [{"d": 0.5}, {"d": "2"}]}
    assert _refused(bad, spec) == "doc: $.c[1].d must be a finite number, got '2'"
    assert _refused({**doc, "e": {"x": 7}}, spec) == "doc: $.e.x must be a string, got 7"
    assert _refused({**doc, "c": {}}, spec) == "doc: $.c must be an array, got an object"
    assert _refused([doc], spec) == "doc: $ must be an object, got an array"
    # the spec's keys are checked in its order, then the keys it does not name
    assert _refused({"zz": 1, "e": 3}, spec) == "doc: $.a is missing; it must be an integer"
    # with a str key, an object takes any other key whose value meets its spec
    open_spec = {"a": int, str: object}
    assert check_json({"a": 1, "b": [None, {"c": math.nan}]}, open_spec, "doc")
    assert _refused({"b": 2}, open_spec) == "doc: $.a is missing; it must be an integer"
    assert _refused({"a": 1, "b": 2}, {"a": int, str: str}) == "doc: $.b must be a string, got 2"


def test_alternatives_report_the_deepest_failure_or_every_choice():
    spec = ([float], str)
    assert check_json("0.5,1", spec, "doc") == "0.5,1"
    assert check_json([0.5, 1], spec, "doc") == [0.5, 1]
    assert _refused(5, spec) == "doc: $ must be an array or a string, got 5"
    assert _refused([0.5, "1"], spec) == "doc: $[1] must be a finite number, got '1'"
    assert check_json(None, (str, None, 1), "doc") is None
    assert _refused(2.5, (str, None, 1)) == "doc: $ must be a string or null or 1, got 2.5"
    assert _refused(2, (None, 1)) == "doc: $ must be null or 1, got 2"
    assert _refused(True, (None, 1)) == "doc: $ must be null or 1, got True"


def test_a_function_spec_picks_the_spec_for_the_value():
    spec = lambda node: int if type(node) is int else str  # noqa: E731
    assert check_json(3, spec, "doc") == 3
    assert check_json("3", spec, "doc") == "3"
    assert _refused(3.5, spec) == "doc: $ must be a string, got 3.5"


def test_read_json_names_the_file_for_every_failure(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(ValidationError, match="cannot read thing: .*doc.json"):
        read_json(path, "thing", int)
    path.write_text("{nope")
    with pytest.raises(ValidationError, match=f"thing is not valid JSON: {re.escape(str(path))}"):
        read_json(path, "thing", int)
    path.write_text("9" * 5000)  # past Python's digit limit
    with pytest.raises(ValidationError, match="thing is not valid JSON"):
        read_json(path, "thing", int)
    path.write_text('{"a": NaN}')
    with pytest.raises(ValidationError, match=f"^thing {re.escape(str(path))}: \\$\\.a must be"):
        read_json(path, "thing", {"a": float})


def test_read_json_refuses_a_repeated_key_at_any_depth(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": {"b": 1, "c": [{"d": 2, "d": 3}]}}')
    with pytest.raises(ValidationError, match=(
            f"^thing is not valid JSON: {re.escape(str(path))}: key 'd' is repeated$")):
        read_json(path, "thing", object)
    path.write_text('{"a": {"b": 1}, "c": {"b": 2}}')  # one key in two objects
    assert read_json(path, "thing", object) == {"a": {"b": 1}, "c": {"b": 2}}


# -- every JSON file the program writes passes its own reader ----------------


@pytest.fixture(scope="module")
def tiny_zoo(tmp_path_factory):
    out = tmp_path_factory.mktemp("json_zoo")
    assert main(["synth", "--out", str(out), "--samples", "80", "--seed", "2"]) == 0
    return out


def _reads_back(path, reader):
    """The file ``reader`` returns is the written one, byte for byte."""
    doc = reader(path)
    assert dumps_json(json.loads(path.read_text())) == path.read_text()
    return doc


def test_every_json_file_the_program_writes_passes_its_reader(tiny_zoo, tmp_path, capsys):
    manifest = tiny_zoo / "manifest.json"
    loaded = load_manifest(manifest)
    assert [e.encoder_id for e in loaded.encoders] == [
        e["id"] for e in json.loads(manifest.read_text())["encoders"]]
    assert check_json(json.loads(manifest.read_text()), MANIFEST_SPEC, "manifest")
    for name, extra in (("default", []), ("seeded", ["--seed", "3"])):
        out = tmp_path / f"profile-{name}.json"
        assert main(["profile", "--manifest", str(manifest), "--out", str(out), *extra]) == 0
        report = _reads_back(out, read_report)
        assert check_json(report, PROFILE_SPEC, "profile") is report
        del report["seed"]  # a report without a seed reads as seed 0
        out.write_text(dumps_json(report))
        _reads_back(out, read_report)
    runs = [(mode, []) for mode in ("erm", "rew", "hsic", "both")] + [("both", ["--target",
                                                                               "domain1"])]
    for mode, extra in runs:
        out = tmp_path / f"run-{mode}-{len(extra)}.json"
        argv = ["train", "--manifest", str(manifest), "--out", str(out), *TRAIN, "--mode", mode]
        assert main([*argv, *extra]) == 0
        report = _reads_back(out, read_report)
        assert report["kind"] == TRAIN_KIND and check_json(report, RUN_SPEC, "run") is report
        assert len(report["folds"]) == (1 if extra else 3)
        assert (report["config"]["temperature"] == "inf") == (mode in ("erm", "hsic"))
    capsys.readouterr()


# -- structural fuzz -------------------------------------------------------


def _nodes(node, path=()):
    """Every (path, value) of a JSON document, the root first."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _nodes(value, path + (key,))


def _json_path(path):
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def _mutations(value, in_object):
    """The mutations that apply to ``value``, by name."""
    out = {"wrong type": 7 if isinstance(value, str) else "x", "null": None, "nan": math.nan}
    if type(value) in (int, float):
        out["bool"] = True
    if isinstance(value, dict):
        out["unknown key"] = {**value, "zz_unknown": 1}
        out["array"] = [value]
    if in_object:
        out["missing"] = ...
    return out


def _at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


def _cases(doc, rng, per_node=2):
    """(mutation, path, mutated document): up to ``per_node`` seeded mutations of every node."""
    for path, value in _nodes(doc):
        options = _mutations(value, bool(path) and isinstance(_at(doc, path[:-1]), dict))
        for name in rng.sample(sorted(options), min(per_node, len(options))):
            if not path:
                yield name, path, options[name]
                continue
            mutated = copy.deepcopy(doc)
            parent = _at(mutated, path[:-1])
            if options[name] is ...:
                del parent[path[-1]]
            else:
                parent[path[-1]] = options[name]
            yield name, path, mutated


def _run(argv, capsys, out=None):
    rc = main(argv)
    captured = capsys.readouterr()
    data = out.read_bytes() if out is not None and out.exists() else None
    return rc, captured.out, captured.err, data


# (document, mutation, JSON path) the specs accept: an optional key left out,
# a null auxiliary, any key of a run report's config map, and a manifest
# domain left out of an encoder's files, which the manifest check refuses
ACCEPTED = [
    ("manifest", "missing", r"\$\.split_ratio"),
    ("manifest", "missing", r"\$\.encoders\[\d+\]\.files\.\w+"),
    ("profile", "missing", r"\$\.seed"),
    ("run", "null", r"\$\.encoders\.(div|rew)_aux"),
    ("run", "missing", r"\$\.config\.\w+"),
    ("run", "unknown key", r"\$\.config"),
]


def _check(got, base, refusal, where, accepted, path):
    """What a command did with a file mutated at ``path``.

    ``refusal`` is the reader's message for the file, or None. A mutation
    the spec does not accept is refused by the reader, naming the mutated
    path, and the command prints that message alone and exits 2. One it
    accepts leaves the command's output unchanged, or is refused for what it
    says with one error line.
    """
    rc, _, err, data = got
    jpath = _json_path(path)
    assert "Traceback" not in err, (jpath, err)
    if not accepted:
        assert refusal is not None and refusal.startswith(f"{where}: {jpath}"), (jpath, refusal)
        assert (rc, err, data) == (2, f"error: {refusal}\n", None)
    elif got != base:
        assert refusal is None and rc == 2 and data is None, (jpath, got)
        assert err.startswith("error: ") and err.count("\n") == 1, (jpath, err)


def _accepted(document, name, path):
    return any(d == document and n == name and re.fullmatch(p, _json_path(path))
               for d, n, p in ACCEPTED)


def _refusal(check, *args):
    try:
        check(*args)
    except ValidationError as exc:
        return str(exc)
    return None


def test_fuzzed_manifests_exit_0_unchanged_or_2_naming_the_path(tiny_zoo, tmp_path, capsys):
    doc = json.loads((tiny_zoo / "manifest.json").read_text())
    fuzz = tiny_zoo / "fuzz-manifest.json"  # beside the files it names
    commands = {
        "profile": ["profile", "--manifest", str(fuzz), "--encoder", "clean"],
        "train": ["train", "--manifest", str(fuzz), *TRAIN, "--mode", "both",
                  "--target", "domain2"],
    }
    base = {}
    fuzz.write_text(json.dumps(doc))
    capsys.readouterr()
    for command, argv in commands.items():
        out = tmp_path / f"{command}-base.json"
        base[command] = _run([*argv, "--out", str(out)], capsys, out)
        assert base[command][0] == 0
    cases = list(_cases(doc, random.Random(14)))
    assert 60 <= len(cases) <= 200
    for i, (name, path, mutated) in enumerate(cases):
        fuzz.write_text(json.dumps(mutated))
        command = sorted(commands)[i % 2]
        out = tmp_path / f"{command}-{i}.json"
        got = _run([*commands[command], "--out", str(out)], capsys, out)
        where = f"manifest {fuzz}"
        _check(got, base[command], _refusal(check_json, mutated, MANIFEST_SPEC, where), where,
               _accepted("manifest", name, path), path)
        if name == "missing" and len(path) == 4 and path[::2] == ("encoders", "files"):
            # a domain left out of an encoder's files: refused naming the manifest and the map
            assert got[2] == (f"error: {where}: {_json_path(path[:-1])} has no feature file "
                              f"for domain '{path[-1]}'\n"), got


@pytest.mark.parametrize("kind", ["profile", "run"])
def test_fuzzed_reports_exit_0_unchanged_or_2_naming_the_path(
    tiny_zoo, tmp_path, capsys, kind
):
    report = tmp_path / "report.json"
    manifest = str(tiny_zoo / "manifest.json")
    if kind == "profile":
        argv = ["profile", "--manifest", manifest, "--encoder", "clean", "--out", str(report)]
    else:
        argv = ["train", "--manifest", manifest, *TRAIN, "--target", "domain0", "--out",
                str(report)]
    assert main(argv) == 0
    doc = json.loads(report.read_text())
    fuzz = tmp_path / "fuzz.json"
    fuzz.write_text(json.dumps(doc))
    commands = [["rank", "--report", str(fuzz)], ["report", str(fuzz)]]
    capsys.readouterr()
    base = [_run(argv, capsys) for argv in commands]
    # rank and report take profile reports: a run report is refused by its kind
    assert {b[0] for b in base} == ({0} if kind == "profile" else {2})
    if kind == "run":
        for _, _, err, _ in base:
            assert err == f"error: report {fuzz}: $.kind must be 'shift_profile', got 'train_run'\n"
    cases = list(_cases(doc, random.Random(14)))
    assert 40 <= len(cases) <= 200
    for name, path, mutated in cases:
        fuzz.write_text(json.dumps(mutated))
        refusal = _refusal(read_report, fuzz)
        for argv, expected in zip(commands, base):
            _check(_run(argv, capsys), expected, refusal, f"report {fuzz}",
                   _accepted(kind, name, path), path)


# -- repeated keys ------------------------------------------------------------


def _repeat(text, key, value):
    """``text`` with the first ``"key": `` of it preceded by ``"key": value, ``."""
    field = f'"{key}": '
    assert field in text
    return text.replace(field, f"{field}{value}, {field}", 1)


@pytest.mark.parametrize("kind", ["manifest", "profile", "run", "config"])
def test_a_repeated_key_exits_2_naming_the_file_and_the_key(tiny_zoo, tmp_path, capsys, kind):
    """``json`` keeps a repeated key's last value, so a config of {"seed": 1,
    "seed": 7} would write a seed-7 zoo, and a manifest could name a second
    file for a domain. Each JSON kind the program reads refuses it."""
    manifest = tiny_zoo / "manifest.json"
    bad = tiny_zoo / f"repeated-{kind}.json"  # beside the files a manifest names
    if kind == "manifest":
        text, key = _repeat(manifest.read_text(), "domain0", '"clean_domain1.fzf"'), "domain0"
        argv = ["profile", "--manifest", str(bad), "--out", str(tmp_path / "out.json")]
        what = "manifest"
    elif kind == "config":
        text, key = '{"seed": 1, "seed": 7}', "seed"
        argv = ["synth", "--config", str(bad), "--out", str(tmp_path / "zoo")]
        what = "config file"
    else:
        report = tmp_path / "report.json"
        command = (["profile", "--manifest", str(manifest), "--encoder", "clean"]
                   if kind == "profile" else ["train", "--manifest", str(manifest), *TRAIN])
        assert main([*command, "--out", str(report)]) == 0
        key = "f_div" if kind == "profile" else "target_domain"
        text = _repeat(report.read_text(), key, '"domain1"' if kind == "run" else "0.0")
        argv = ["rank", "--report", str(bad)]
        what = "report"
    bad.write_text(text)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {what} is not valid JSON: {bad}: key '{key}' is repeated\n"
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "zoo").exists()
