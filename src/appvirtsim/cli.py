"""Command-line front end.

Commands:
  build-addon   customize an add-on for a victim manifest
  run-matrix    run all detection probes across the three environments
  gen-corpus    generate a synthetic victim-manifest corpus
  bench         benchmark the customization pipeline over a corpus

Exit codes: 0 success, 2 bad input (schema or I/O), 3 pipeline invariant
violation, 4 golden-matrix mismatch. ``main`` maps the input and invariant
errors of every command to their codes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

from . import __version__, container, corpus, defaults, probes, worlds
from .customization import CustomizationInvariantError, customize
from .manifest import (
    ManifestError,
    load_manifest_file,
    serialize_manifest,
    write_manifest_file,
)
from .simos import ApiCall, ApiError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3
EXIT_GOLDEN_MISMATCH = 4

# Plugin calls timed per hook configuration by ``bench``.
HOOK_DISPATCH_CALLS = 500


def scenario_digest(sc: worlds.MatrixScenario) -> str:
    """Content digest of the inputs, so reports self-identify their scenario."""
    hasher = hashlib.sha256()
    for m in (sc.victim, sc.template, sc.catalog, sc.companion):
        hasher.update(serialize_manifest(m).encode())
    hasher.update(json.dumps([sc.seed, sorted(defaults.DEFAULT_STORE_COUNTS.items())]).encode())
    return hasher.hexdigest()[:16]


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(text: str, out_path: str | None) -> None:
    """Write a report to ``out_path`` or stdout."""
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# build-addon


def cmd_build_addon(args) -> int:
    sc = worlds.default_scenario(defaults.DEFAULT_SEED, args.victim, args.template, args.catalog)
    result = customize(sc.victim, sc.template, sc.catalog)
    write_manifest_file(args.out, result.addon)
    write_manifest_file(args.malicious_out, result.malicious)
    report_path = args.report or str(Path(args.out).with_suffix(".report.json"))
    Path(report_path).write_text(json.dumps({
        "tool": {"name": "appvirtsim", "version": __version__},
        "victim": sc.victim.package,
        "rename_map": result.rename_map,
        "steps": result.report,
    }, indent=2) + "\n", encoding="utf-8")
    print(f"addon written to {args.out}; payload manifest to {args.malicious_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run-matrix


def _render_table(reports: list[probes.DetectionReport]) -> str:
    environments = [r.environment for r in reports]
    verdicts = {r.environment: r.verdicts() for r in reports}
    id_width = max(len("mechanism"), max(len(p) for p in probes.PROBE_IDS))
    widths = [max(len(env), 1) for env in environments]
    header = "mechanism".ljust(id_width) + "  " + "  ".join(
        env.ljust(w) for env, w in zip(environments, widths)
    )
    lines = [header, "-" * len(header)]
    for probe_id in probes.PROBE_IDS:
        cells = [
            probes.Verdict(verdicts[env][probe_id]).letter.ljust(w)
            for env, w in zip(environments, widths)
        ]
        lines.append(probe_id.ljust(id_width) + "  " + "  ".join(cells))
    lines.append("")
    lines.append("V=virtual_detected  C=clean  I=inconclusive  E=error")
    for report in reports:
        counts = report.summary()
        lines.append(
            f"{report.environment}: {counts['virtual_detected']} detected, "
            f"{counts['clean']} clean, {counts['inconclusive']} inconclusive, "
            f"{counts['error']} error"
        )
    return "\n".join(lines) + "\n"


def build_report_document(sc: worlds.MatrixScenario,
                          reports: list[probes.DetectionReport]) -> dict:
    # Forks share the cloaked build's run-log entries, so the document copies
    # them; ``customize`` is pure, so a fresh call differs only in durations.
    cloaked = (worlds.unprobed_world(sc, worlds.CLOAKED_ENV)
               if any(r.environment == worlds.CLOAKED_ENV for r in reports) else None)
    return {
        "tool": {"name": "appvirtsim", "version": __version__},
        "scenario_digest": scenario_digest(sc),
        "environments": [r.to_dict() for r in reports],
        "run_log": [dict(entry) for entry in cloaked.container.run_log] if cloaked else [],
        "customization_steps": (customize(sc.victim, sc.template, sc.catalog).report
                                if cloaked else []),
    }


def compare_to_golden(reports: list[probes.DetectionReport],
                      golden: dict) -> list[str]:
    """Differing cells as "(environment, probe): expected X, got Y" strings."""
    diffs = []
    expected_envs = golden.get("environments", {})
    actual = {r.environment: r.verdicts() for r in reports}
    for env in sorted(set(expected_envs) | set(actual)):
        if env not in actual:
            diffs.append(f"({env}, *): environment missing from run")
            continue
        if env not in expected_envs:
            diffs.append(f"({env}, *): environment missing from golden")
            continue
        extra = sorted(set(expected_envs[env]) - set(probes.PROBE_IDS))
        for probe_id in (*probes.PROBE_IDS, *extra):
            want = expected_envs[env].get(probe_id)
            got = actual[env].get(probe_id)
            if want != got:
                diffs.append(f"({env}, {probe_id}): expected {want}, got {got}")
    return diffs


def cmd_run_matrix(args) -> int:
    sc = worlds.default_scenario(args.seed, args.victim, args.template, args.catalog)

    environments = worlds.ENVIRONMENTS if args.mode == "all" else (
        {"native": worlds.NATIVE_ENV, "naive": worlds.NAIVE_ENV,
         "cloaked": worlds.CLOAKED_ENV}[args.mode],
    )
    reports = probes.run_matrix(sc, environments)

    if args.format == "table":
        text = _render_table(reports)
    else:
        text = json.dumps(build_report_document(sc, reports), indent=2) + "\n"
    _emit(text, args.out)
    if not args.expect:
        return EXIT_OK

    try:
        golden = json.loads(Path(args.expect).read_text(encoding="utf-8"))
    except OSError as exc:  # names the file itself
        return _fail(f"cannot read golden file: {exc}", EXIT_INPUT)
    except ValueError as exc:  # not UTF-8, or not JSON
        return _fail(f"cannot read golden file {args.expect}: {exc}", EXIT_INPUT)
    expected = golden.get("environments") if isinstance(golden, dict) else None
    if not (isinstance(expected, dict)
            and all(isinstance(cells, dict) for cells in expected.values())):
        return _fail('golden file is not {"environments": {env: {probe: verdict}}}',
                     EXIT_INPUT)
    diffs = compare_to_golden(reports, golden)
    if diffs:
        print(f"golden mismatch: {len(diffs)} differing cell(s)", file=sys.stderr)
        for diff in diffs:
            print(f"  {diff}", file=sys.stderr)
        return EXIT_GOLDEN_MISMATCH
    print("matrix matches golden file", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen-corpus


def cmd_gen_corpus(args) -> int:
    if args.count < 0:
        return _fail(f"--count must be at least 0, got {args.count}", EXIT_INPUT)
    paths = corpus.generate_corpus(args.count, args.seed, args.out)
    print(f"wrote {len(paths)} manifests to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def _bench_customization(manifests, template, catalog, repeat: int) -> list[dict]:
    rows = []
    for m in manifests:
        durations = []
        for _ in range(repeat):
            start = time.perf_counter()
            customize(m, template, catalog)
            durations.append((time.perf_counter() - start) * 1000.0)
        rows.append({
            "package": m.package,
            "mean_ms": statistics.fmean(durations),
            "min_ms": min(durations),
            "max_ms": max(durations),
        })
    return rows


def _bench_hook_dispatch(sc: worlds.MatrixScenario) -> dict:
    """Mean plugin-call latency in a cloaked world's fork without the bypass
    hookset versus the world itself, over the four call kinds the hooks target."""
    calls = (ApiCall("get_running_app_processes"), ApiCall("exec_shell", cmd="ps"),
             ApiCall("get_application_info", package=sc.victim.package),
             ApiCall("read_proc_maps"))

    def measure(world: worlds.World) -> float:
        start = time.perf_counter()
        for i in range(HOOK_DISPATCH_CALLS):
            try:
                container.plugin_syscall(world.os, world.container, world.probe_pid,
                                         calls[i % len(calls)])
            except ApiError:  # the hooked read_proc_maps is denied
                pass
        return (time.perf_counter() - start) / HOOK_DISPATCH_CALLS * 1e6

    hooked = worlds.unprobed_world(sc, worlds.CLOAKED_ENV)
    bare = hooked.fork()
    container.uninstall_hooks(bare.container, container.CLOAK_HOOK_LABELS)
    measure(bare)  # warm-up
    baseline_us = measure(bare)
    hooked_us = measure(hooked)
    return {"calls": HOOK_DISPATCH_CALLS, "baseline_us": baseline_us,
            "hooked_us": hooked_us, "note": "dispatch micro-overhead with 0 vs 4 installed hooks"}


def cmd_bench(args) -> int:
    if args.repeat < 1:
        return _fail(f"--repeat must be at least 1, got {args.repeat}", EXIT_INPUT)
    corpus_dir = Path(args.corpus)
    if not corpus_dir.is_dir():
        return _fail(f"corpus directory missing: {corpus_dir}", EXIT_INPUT)
    sc = worlds.default_scenario(template_path=args.template, catalog_path=args.catalog)
    # Building each victim's scenario checks its package against the other inputs.
    manifests = [worlds.MatrixScenario(load_manifest_file(p), sc.template, sc.catalog,
                                       sc.companion).victim
                 for p in sorted(corpus_dir.glob("*.json"))]

    rows = _bench_customization(manifests, sc.template, sc.catalog, args.repeat)
    document: dict = {
        "tool": {"name": "appvirtsim", "version": __version__},
        "repeat": args.repeat,
        "per_manifest": rows,
        "hook_dispatch": _bench_hook_dispatch(sc),
    }
    if rows:
        means = [r["mean_ms"] for r in rows]
        document["aggregate"] = {
            "manifests": len(rows),
            "mean_ms": statistics.fmean(means),
            "max_mean_ms": max(means),
        }

    if args.format == "table":
        lines = [f"{'package':<24} {'mean_ms':>10} {'min_ms':>10} {'max_ms':>10}"]
        for row in rows:
            lines.append(
                f"{row['package']:<24} {row['mean_ms']:>10.3f} "
                f"{row['min_ms']:>10.3f} {row['max_ms']:>10.3f}"
            )
        if "aggregate" in document:
            agg = document["aggregate"]
            lines.append(
                f"aggregate: {agg['manifests']} manifests, "
                f"mean {agg['mean_ms']:.3f} ms"
            )
        hook = document["hook_dispatch"]
        lines.append(
            f"hook dispatch: {hook['baseline_us']:.2f} us bare, "
            f"{hook['hooked_us']:.2f} us with 4 hooks"
        )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(document, indent=2) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="appvirtsim",
        description="app-virtualization attack/defense simulator",
    )
    parser.add_argument("--version", action="version",
                        version=f"appvirtsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-addon", help="customize an add-on for a victim")
    p.add_argument("--victim", required=True, help="victim manifest document")
    p.add_argument("--template", required=True, help="host template document")
    p.add_argument("--catalog", required=True, help="payload catalog document")
    p.add_argument("--out", required=True, help="customized add-on output path")
    p.add_argument("--malicious-out", required=True,
                   help="trimmed payload manifest output path")
    p.add_argument("--report", help="step report path (default: <out>.report.json)")
    p.set_defaults(func=cmd_build_addon)

    p = sub.add_parser("run-matrix", help="run the detection matrix")
    p.add_argument("--victim", help="victim manifest (default: built-in)")
    p.add_argument("--template", help="host template (default: built-in)")
    p.add_argument("--catalog", help="payload catalog (default: built-in)")
    p.add_argument("--mode", choices=("all", "native", "naive", "cloaked"),
                   default="all")
    p.add_argument("--format", choices=("structured", "table"), default="structured")
    p.add_argument("--seed", type=int, default=defaults.DEFAULT_SEED)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--expect", help="golden matrix file to compare against")
    p.set_defaults(func=cmd_run_matrix)

    p = sub.add_parser("gen-corpus", help="generate synthetic victim manifests")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=defaults.DEFAULT_SEED)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("bench", help="benchmark customization over a corpus")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--repeat", type=int, default=10)
    p.add_argument("--template", help="host template (default: built-in)")
    p.add_argument("--catalog", help="payload catalog (default: built-in)")
    p.add_argument("--format", choices=("structured", "table"), default="structured")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ManifestError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    except CustomizationInvariantError as exc:
        return _fail(f"pipeline invariant violated: {exc}", EXIT_INVARIANT)


if __name__ == "__main__":
    sys.exit(main())
