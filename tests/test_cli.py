import json
from dataclasses import replace
from pathlib import Path

import pytest

from appvirtsim import container, customization, defaults, worlds
from appvirtsim.cli import (
    HOOK_DISPATCH_CALLS,
    build_report_document,
    compare_to_golden,
    main,
    scenario_digest,
)
from appvirtsim.manifest import (
    ACTIVITY,
    AppManifest,
    Component,
    load_manifest_file,
    serialize_manifest,
    write_manifest_file,
)
from appvirtsim.probes import DetectionReport, ProbeOutcome, Verdict, run_matrix
from appvirtsim.worlds import CLOAKED_ENV, ENVIRONMENTS, NAIVE_ENV, NATIVE_ENV, unprobed_world

import output_digests
from conftest import DATA_DIR, counted_builds, load_golden

GOLDEN = str(DATA_DIR / "expected_matrix.json")


def run(argv):
    return main(argv)


def write_launcherless(path):
    """A victim document with an activity but no launcher flag."""
    write_manifest_file(path, AppManifest(
        package="org.nolaunch.app",
        activities=(Component(name=".Main", kind=ACTIVITY),),
    ))
    return path


def assert_one_error_line(capsys, *fragments):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for fragment in fragments:
        assert fragment in lines[0]


def fail_validation(monkeypatch):
    def broken(victim, result):
        raise customization.CustomizationInvariantError("forced")
    monkeypatch.setattr(customization, "validate_result", broken)


# ---------------------------------------------------------------------------
# build-addon


def test_build_addon_ok(fixture_paths, tmp_path, victim):
    out = tmp_path / "addon.json"
    malicious_out = tmp_path / "payload.json"
    code = run([
        "build-addon",
        "--victim", str(fixture_paths["victim"]),
        "--template", str(fixture_paths["template"]),
        "--catalog", str(fixture_paths["catalog"]),
        "--out", str(out),
        "--malicious-out", str(malicious_out),
    ])
    assert code == 0
    addon = load_manifest_file(out)
    malicious = load_manifest_file(malicious_out)
    assert addon.permissions >= victim.permissions
    assert malicious.permissions <= victim.permissions
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert [s["step"] for s in report["steps"]] == [
        "permissions", "trim_payload", "components", "resources",
    ]


def test_build_addon_malformed_victim(fixture_paths, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"package": "a.b", "bogus_field": 1}', encoding="utf-8")
    code = run([
        "build-addon", "--victim", str(bad),
        "--template", str(fixture_paths["template"]),
        "--catalog", str(fixture_paths["catalog"]),
        "--out", str(tmp_path / "a.json"),
        "--malicious-out", str(tmp_path / "m.json"),
    ])
    assert code == 2
    assert "bogus_field" in capsys.readouterr().err


def test_build_addon_missing_catalog(fixture_paths, tmp_path):
    code = run([
        "build-addon", "--victim", str(fixture_paths["victim"]),
        "--template", str(fixture_paths["template"]),
        "--catalog", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "a.json"),
        "--malicious-out", str(tmp_path / "m.json"),
    ])
    assert code == 2


def test_build_addon_catalog_with_activity_rejected(fixture_paths, tmp_path, capsys):
    catalog = tmp_path / "catalog.json"
    write_manifest_file(catalog, AppManifest(
        package="com.pluginhost.payload",
        activities=(Component(name=".Shown", kind=ACTIVITY),),
        services=defaults.default_catalog().services,
    ))
    code = run([
        "build-addon", "--victim", str(fixture_paths["victim"]),
        "--template", str(fixture_paths["template"]),
        "--catalog", str(catalog),
        "--out", str(tmp_path / "a.json"),
        "--malicious-out", str(tmp_path / "m.json"),
    ])
    assert code == 2
    assert_one_error_line(capsys, "payload catalogs declare services only")
    assert not (tmp_path / "a.json").exists()


def test_build_addon_invariant_violation(fixture_paths, tmp_path, capsys, monkeypatch):
    fail_validation(monkeypatch)
    code = run([
        "build-addon", "--victim", str(fixture_paths["victim"]),
        "--template", str(fixture_paths["template"]),
        "--catalog", str(fixture_paths["catalog"]),
        "--out", str(tmp_path / "a.json"),
        "--malicious-out", str(tmp_path / "m.json"),
    ])
    assert code == 3
    assert_one_error_line(capsys, "pipeline invariant violated: forced")


# ---------------------------------------------------------------------------
# run-matrix


def test_run_matrix_against_golden(tmp_path):
    out = tmp_path / "report.json"
    code = run(["run-matrix", "--out", str(out), "--expect", GOLDEN])
    assert code == 0
    document = json.loads(out.read_text())
    assert {e["environment"] for e in document["environments"]} == {
        "native", "naive_container", "cloaked_container",
    }
    assert document["scenario_digest"]
    assert document["run_log"]


def test_run_matrix_single_mode(tmp_path):
    out = tmp_path / "report.json"
    code = run(["run-matrix", "--mode", "naive", "--out", str(out)])
    assert code == 0
    document = json.loads(out.read_text())
    assert [e["environment"] for e in document["environments"]] == ["naive_container"]


def test_run_matrix_tampered_golden(tmp_path, capsys):
    golden = json.loads(Path(GOLDEN).read_text())
    golden["environments"]["native"]["4"] = "virtual_detected"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(golden), encoding="utf-8")
    code = run(["run-matrix", "--out", str(tmp_path / "r.json"),
                "--expect", str(tampered)])
    assert code == 4
    err = capsys.readouterr().err
    assert "(native, 4): expected virtual_detected, got clean" in err


def test_run_matrix_golden_cell_the_run_never_produced(tmp_path, capsys):
    golden = json.loads(Path(GOLDEN).read_text())
    golden["environments"]["native"]["19"] = "clean"
    extended = tmp_path / "extended.json"
    extended.write_text(json.dumps(golden), encoding="utf-8")
    code = run(["run-matrix", "--out", str(tmp_path / "r.json"),
                "--expect", str(extended)])
    assert code == 4
    err = capsys.readouterr().err
    assert "golden mismatch: 1 differing cell(s)" in err
    assert "(native, 19): expected clean, got None" in err


@pytest.mark.parametrize("golden", ['[1, 2]', '{"environments": {"native": ["x"]}}'])
def test_run_matrix_misshapen_golden_rejected(tmp_path, capsys, golden):
    path = tmp_path / "golden.json"
    path.write_text(golden, encoding="utf-8")
    code = run(["run-matrix", "--mode", "native", "--out", str(tmp_path / "r.json"),
                "--expect", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not-json"])
def test_run_matrix_unreadable_golden_rejected(tmp_path, capsys, text):
    path = tmp_path / "golden.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code = run(["run-matrix", "--mode", "native", "--out", str(tmp_path / "r.json"),
                "--expect", str(path)])
    assert code == 2
    assert_one_error_line(capsys, "cannot read golden file")


def test_run_matrix_unwritable_out(tmp_path, capsys):
    code = run(["run-matrix", "--mode", "native",
                "--out", str(tmp_path / "missing" / "r.json")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("change", [
    {"catalog": {"label": "Other"}},
    {"catalog": {"version": 9}},
    {"catalog": {"launcher_icon": "other.png"}},
    {"companion": {"label": "Other"}},
])
def test_scenario_digest_covers_the_whole_catalog_and_companion(scenario, change):
    [(role, fields)] = change.items()
    changed = replace(scenario, **{role: replace(getattr(scenario, role), **fields)})
    assert scenario_digest(changed) != scenario_digest(scenario)


def test_compare_to_golden_reports_missing_environments():
    golden = load_golden("expected_matrix.json")
    native = golden["environments"]["native"]
    reports = [
        DetectionReport(env, [ProbeOutcome(probe, Verdict(verdict), "")
                              for probe, verdict in native.items()])
        for env in ("native", "extra_env")
    ]
    golden["environments"] = {"native": native, "cloaked_container": native}
    assert compare_to_golden(reports, golden) == [
        "(cloaked_container, *): environment missing from run",
        "(extra_env, *): environment missing from golden",
    ]


def test_table_and_structured_formats_agree(tmp_path):
    structured = tmp_path / "report.json"
    table = tmp_path / "report.txt"
    assert run(["run-matrix", "--out", str(structured)]) == 0
    assert run(["run-matrix", "--format", "table", "--out", str(table)]) == 0

    document = json.loads(structured.read_text())
    letters = {"virtual_detected": "V", "clean": "C", "inconclusive": "I",
               "error": "E"}
    expected = {
        env["environment"]: {o["probe"]: letters[o["verdict"]]
                             for o in env["outcomes"]}
        for env in document["environments"]
    }

    lines = table.read_text().splitlines()
    environments = lines[0].split()[1:]
    parsed = {env: {} for env in environments}
    for line in lines[2:]:
        cells = line.split()
        if len(cells) != len(environments) + 1 or cells[0] not in set(
                str(n) for n in range(1, 19)) | {"hotness"}:
            continue
        for env, letter in zip(environments, cells[1:]):
            parsed[env][cells[0]] = letter
    assert parsed == expected


def test_run_matrix_missing_victim_file(tmp_path):
    code = run(["run-matrix", "--victim", str(tmp_path / "ghost.json")])
    assert code == 2


def test_run_matrix_launcherless_victim(tmp_path, capsys):
    victim = write_launcherless(tmp_path / "victim.json")
    assert run(["run-matrix", "--victim", str(victim)]) == 2
    assert_one_error_line(capsys, "no launcher activity declared")


_CLASHES = [(command, role) for command in ("run-matrix", "build-addon", "bench")
            for role in ("template", "companion", "catalog")]


@pytest.mark.parametrize("command, role", _CLASHES, ids=[
    role if command == "run-matrix" else f"{command}-{role}" for command, role in _CLASHES])
def test_run_matrix_victim_package_clash(fixture_paths, tmp_path, capsys, command, role):
    # Every command builds a MatrixScenario, which refuses the victim.
    package = getattr(defaults, f"default_{role}")().package
    victim = tmp_path / "corpus" / "victim.json"
    victim.parent.mkdir()
    victim.write_text(serialize_manifest(defaults.default_victim()).replace(
        defaults.VICTIM_PACKAGE, package), encoding="utf-8")
    out = tmp_path / "addon.json"
    argv = {
        "run-matrix": ["--victim", str(victim)],
        "build-addon": ["--victim", str(victim), "--template", str(fixture_paths["template"]),
                        "--catalog", str(fixture_paths["catalog"]), "--out", str(out),
                        "--malicious-out", str(tmp_path / "payload.json")],
        "bench": ["--corpus", str(victim.parent), "--repeat", "1"],
    }[command]
    assert run([command, *argv]) == 2
    assert_one_error_line(capsys, repr(package), f"the {role}'s")
    assert not out.exists()


_NOT_UTF8 = ("bench --corpus", "build-addon --victim", "run-matrix --victim",
             "run-matrix --expect")


@pytest.mark.parametrize("path", _NOT_UTF8)
def test_a_file_that_is_not_utf8_is_an_input_error(fixture_paths, tmp_path, capsys, path):
    bad = tmp_path / "corpus" / "bad.json"
    bad.parent.mkdir()
    bad.write_bytes(b"\xff\xfe{}")
    inputs = ["--template", str(fixture_paths["template"]),
              "--catalog", str(fixture_paths["catalog"])]
    argv = {
        "bench --corpus": ["bench", "--corpus", str(bad.parent), "--repeat", "1", *inputs],
        "build-addon --victim": ["build-addon", "--victim", str(bad), *inputs,
                                 "--out", str(tmp_path / "addon.json"),
                                 "--malicious-out", str(tmp_path / "payload.json")],
        "run-matrix --victim": ["run-matrix", "--victim", str(bad)],
        "run-matrix --expect": ["run-matrix", "--mode", "native",
                                "--out", str(tmp_path / "r.json"), "--expect", str(bad)],
    }[path]
    assert run(argv) == 2
    assert_one_error_line(capsys, "can't decode byte 0xff", str(bad))


def test_run_matrix_invariant_violation(capsys, monkeypatch):
    fail_validation(monkeypatch)
    assert run(["run-matrix"]) == 3
    assert_one_error_line(capsys, "pipeline invariant violated: forced")


def _strip_durations(document):
    for step in document.get("customization_steps", []):
        step.pop("duration_ms", None)
    return document


def test_run_matrix_deterministic_modulo_durations(tmp_path):
    first, second = tmp_path / "one.json", tmp_path / "two.json"
    assert run(["run-matrix", "--out", str(first)]) == 0
    assert run(["run-matrix", "--out", str(second)]) == 0
    a = _strip_durations(json.loads(first.read_text()))
    b = _strip_durations(json.loads(second.read_text()))
    assert a == b


def test_a_cached_matrix_reports_like_a_fresh_one(scenario):
    # The first matrix on a scenario builds its worlds, the second forks them.
    miss = build_report_document(scenario, run_matrix(scenario))
    hit = build_report_document(scenario, run_matrix(scenario))
    assert miss["run_log"] and miss["customization_steps"]
    assert _strip_durations(hit) == _strip_durations(miss)


@pytest.mark.parametrize("mode, env", [("native", NATIVE_ENV), ("naive", NAIVE_ENV)])
def test_a_single_mode_report_builds_no_cloaked_world(scenario, tmp_path, monkeypatch,
                                                       mode, env):
    # A report is an environment and its verdicts; the document reads the run
    # log and step report from the scenario's cloaked build only when the
    # cloaked environment ran.
    built = counted_builds(monkeypatch)
    out = tmp_path / "report.json"
    assert run(["run-matrix", "--mode", mode, "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert (document["run_log"], document["customization_steps"]) == ([], [])
    [report] = run_matrix(scenario, (env,))
    values = build_report_document(scenario, [DetectionReport(env, report.outcomes)])
    assert values["environments"] == document["environments"]
    assert built == [env, env]


def test_a_matrix_report_reads_the_cached_cloaked_build(scenario, monkeypatch):
    built = counted_builds(monkeypatch)
    reports = [DetectionReport(r.environment, r.outcomes) for r in run_matrix(scenario)]
    document = build_report_document(scenario, reports)
    assert built == list(ENVIRONMENTS)
    assert document["run_log"] == unprobed_world(scenario, CLOAKED_ENV).container.run_log


def test_writing_into_a_document_leaves_the_next_one_alone(scenario):
    # A document copies each run-log entry of the cached cloaked build and
    # takes its steps from a fresh customize, so it shares no record with the
    # cache or with another document.
    reports = run_matrix(scenario)
    first = build_report_document(scenario, reports)
    expected = _strip_durations(json.loads(json.dumps(first)))
    first["customization_steps"][0].pop("duration_ms")
    first["run_log"][0]["step"] = "tampered"
    second = build_report_document(scenario, reports)
    assert all("duration_ms" in step for step in second["customization_steps"])
    assert _strip_durations(second) == expected
    log = worlds._unprobed_build(scenario, CLOAKED_ENV).container.run_log
    cached = {id(entry) for entry in log}
    assert cached.isdisjoint(id(entry) for entry in first["run_log"] + second["run_log"])


# ---------------------------------------------------------------------------
# gen-corpus


def test_gen_corpus_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["gen-corpus", "--count", "100", "--seed", "7", "--out", str(a)]) == 0
    assert run(["gen-corpus", "--count", "100", "--seed", "7", "--out", str(b)]) == 0
    files_a = sorted(p.name for p in a.glob("*.json"))
    files_b = sorted(p.name for p in b.glob("*.json"))
    assert files_a == files_b and len(files_a) == 100
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_corpus_different_seeds_differ(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["gen-corpus", "--count", "5", "--seed", "1", "--out", str(a)])
    run(["gen-corpus", "--count", "5", "--seed", "2", "--out", str(b)])
    contents_a = b"".join(p.read_bytes() for p in sorted(a.glob("*.json")))
    contents_b = b"".join(p.read_bytes() for p in sorted(b.glob("*.json")))
    assert contents_a != contents_b


def test_gen_corpus_empty(tmp_path):
    out = tmp_path / "empty"
    assert run(["gen-corpus", "--count", "0", "--seed", "7", "--out", str(out)]) == 0
    assert list(out.glob("*.json")) == []


def test_gen_corpus_negative_count_rejected(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert run(["gen-corpus", "--count", "-3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--count" in captured.err
    assert not out.exists()


def test_gen_corpus_all_parse(tmp_path):
    out = tmp_path / "corpus"
    assert run(["gen-corpus", "--count", "100", "--seed", "3", "--out", str(out)]) == 0
    packages = set()
    for path in out.glob("*.json"):
        m = load_manifest_file(path)  # re-parse oracle
        packages.add(m.package)
        assert 1 <= len(m.components()) <= 12
    assert len(packages) == 100


# ---------------------------------------------------------------------------
# bench


def test_bench_small_corpus(tmp_path):
    corpus_dir = tmp_path / "corpus"
    run(["gen-corpus", "--count", "4", "--seed", "7", "--out", str(corpus_dir)])
    out = tmp_path / "bench.json"
    code = run(["bench", "--corpus", str(corpus_dir), "--repeat", "2",
                "--out", str(out)])
    assert code == 0
    document = json.loads(out.read_text())
    assert len(document["per_manifest"]) == 4
    assert document["aggregate"]["manifests"] == 4
    assert document["hook_dispatch"]["baseline_us"] > 0
    assert document["hook_dispatch"]["hooked_us"] > 0
    for row in document["per_manifest"]:
        assert row["min_ms"] <= row["mean_ms"] <= row["max_ms"]


def test_bench_table_format(tmp_path):
    corpus_dir = tmp_path / "corpus"
    run(["gen-corpus", "--count", "3", "--seed", "7", "--out", str(corpus_dir)])
    out = tmp_path / "bench.txt"
    assert run(["bench", "--corpus", str(corpus_dir), "--repeat", "1",
                "--format", "table", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split() == ["package", "mean_ms", "min_ms", "max_ms"]
    packages = sorted(p.stem for p in corpus_dir.glob("*.json"))
    assert [line.split()[0] for line in lines[1:4]] == packages
    assert lines[4].startswith("aggregate: 3 manifests, mean ")
    assert lines[5].startswith("hook dispatch: ") and lines[5].endswith(" us with 4 hooks")
    assert len(lines) == 6


def test_bench_unwritable_out(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run(["gen-corpus", "--count", "1", "--seed", "7", "--out", str(corpus_dir)])
    capsys.readouterr()
    code = run(["bench", "--corpus", str(corpus_dir), "--repeat", "1",
                "--out", str(tmp_path / "missing" / "bench.json")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_bench_empty_corpus(tmp_path):
    corpus_dir = tmp_path / "empty"
    corpus_dir.mkdir()
    out = tmp_path / "bench.json"
    assert run(["bench", "--corpus", str(corpus_dir), "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["per_manifest"] == []
    assert "aggregate" not in document


def test_bench_repeat_below_one_rejected(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run(["gen-corpus", "--count", "1", "--seed", "7", "--out", str(corpus_dir)])
    capsys.readouterr()
    for repeat in ("0", "-1"):
        assert run(["bench", "--corpus", str(corpus_dir), "--repeat", repeat]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--repeat" in captured.err


def test_bench_missing_corpus(tmp_path):
    assert run(["bench", "--corpus", str(tmp_path / "ghost")]) == 2


def test_bench_launcherless_victim_in_corpus(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run(["gen-corpus", "--count", "2", "--seed", "7", "--out", str(corpus_dir)])
    write_launcherless(corpus_dir / "org.nolaunch.app.json")
    capsys.readouterr()
    assert run(["bench", "--corpus", str(corpus_dir), "--repeat", "1"]) == 2
    assert_one_error_line(capsys, "no launcher activity declared")


def test_bench_hook_dispatch_times_the_hooked_kinds(tmp_path, monkeypatch):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    template = tmp_path / "template.json"
    write_manifest_file(template, replace(defaults.default_template(),
                                          package="com.otherhost.addon"))
    seen = []
    real = container.plugin_syscall

    def recording(os, c, caller, call):
        seen.append((c.addon_package, call.kind, call.cmd, call.package))
        return real(os, c, caller, call)

    monkeypatch.setattr(container, "plugin_syscall", recording)
    assert run(["bench", "--corpus", str(corpus_dir), "--template", str(template),
                "--out", str(tmp_path / "bench.json")]) == 0
    assert {host for host, *_ in seen} == {"com.otherhost.addon"}
    timed = [call for call in seen if call[1] not in ("start_activity", "start_service")]
    # One warm-up pass, then one pass without and one with the hooks.
    assert len(timed) == 3 * HOOK_DISPATCH_CALLS
    assert set(timed) == {
        ("com.otherhost.addon", "get_running_app_processes", None, None),
        ("com.otherhost.addon", "exec_shell", "ps", None),
        ("com.otherhost.addon", "get_application_info", None, defaults.VICTIM_PACKAGE),
        ("com.otherhost.addon", "read_proc_maps", None, None),
    }


def test_bench_times_the_cached_cloaked_build(tmp_path, monkeypatch):
    built = counted_builds(monkeypatch)
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    assert run(["bench", "--corpus", str(corpus_dir), "--repeat", "1",
                "--out", str(tmp_path / "bench.json")]) == 0
    assert built == [CLOAKED_ENV]


def test_bench_repeat_count_only_affects_durations(tmp_path):
    corpus_dir = tmp_path / "corpus"
    run(["gen-corpus", "--count", "3", "--seed", "7", "--out", str(corpus_dir)])
    once, tenfold = tmp_path / "r1.json", tmp_path / "r10.json"
    assert run(["bench", "--corpus", str(corpus_dir), "--repeat", "1",
                "--out", str(once)]) == 0
    assert run(["bench", "--corpus", str(corpus_dir), "--repeat", "10",
                "--out", str(tenfold)]) == 0
    a, b = json.loads(once.read_text()), json.loads(tenfold.read_text())
    assert [r["package"] for r in a["per_manifest"]] == [
        r["package"] for r in b["per_manifest"]
    ]


# ---------------------------------------------------------------------------
# committed outputs


def test_outputs_match_their_committed_digests():
    # Regenerate with ``python3 tests/output_digests.py`` only when an output
    # is meant to change.
    assert output_digests.compute() == json.loads(output_digests.DIGESTS.read_text())
