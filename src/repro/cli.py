"""Command-line interface: ``mcpat-repro``.

Subcommands mirror how the original tool is used:

* ``report <preset|config.json>`` — model a chip and print the
  McPAT-style breakdown.
* ``validate`` — run the published-vs-modeled validation tables.
* ``scaling`` — the technology-scaling sweep.
* ``clustering`` — the 22 nm manycore clustering case study.
* ``sweep`` — batch-evaluate a parameter grid over a base config on the
  parallel, cached evaluation engine.
* ``stats`` — evaluate a config with instrumentation on and print the
  observability metrics table (cache/memo hit rates, pool throughput).
* ``serve`` — run the long-running async HTTP/JSON evaluation service
  (:mod:`repro.serve`): ``POST /evaluate``, ``POST /sweep``,
  ``GET /metrics``, ``GET /healthz``.
* ``surrogate train``/``surrogate check`` — fit the learned O(µs)
  approximate-evaluation tier (:mod:`repro.surrogate`) on exact sweep
  grids, and audit its declared error bounds on fresh held-out points.
* ``lint`` — run the model-invariant static-analysis suite
  (:mod:`repro.analysis`) over source trees.

Observability flags: ``report --trace out.json`` writes a Chrome
``trace_event`` file (``.jsonl`` suffix switches to JSONL spans), and
``sweep --profile`` prints a per-component span-time breakdown plus the
engine metrics for the whole sweep.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# The chip model and config tables load inside the subcommands that use
# them, so `--help` and `lint` start without building either.


def _resolve_config(source: str):
    from repro.config import load_system_config, presets

    if source in presets.VALIDATION_PRESETS:
        return presets.VALIDATION_PRESETS[source]()
    path = Path(source)
    if path.exists():
        try:
            return load_system_config(path)
        except json.JSONDecodeError as exc:
            raise SystemExit(
                f"config file {path} is not valid JSON: {exc}"
            ) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(
                f"config file {path} is malformed: {exc!r}"
            ) from exc
    known = ", ".join(presets.VALIDATION_PRESETS)
    raise SystemExit(
        f"unknown config {source!r}: not a preset ({known}) nor a file"
    )


def _write_trace(path: str) -> None:
    """Export the recorded spans; ``.jsonl`` selects JSONL, else Chrome."""
    from repro import obs

    if path.endswith(".jsonl"):
        obs.write_jsonl(path)
    else:
        obs.write_chrome_trace(path)
    print(f"\ntrace: {len(obs.spans())} spans -> {path}")


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.chip import Processor, format_report, render_report_text

    config = _resolve_config(args.config)
    if args.trace:
        from repro import obs

        obs.enable(detail=args.trace_detail)
    processor = Processor(config)
    if args.timing_breakdown:
        from repro.chip import format_timing_breakdown, timing_breakdown

        times = timing_breakdown(processor)
        print(format_report(
            processor.report(), max_depth=args.depth, include_runtime=False,
        ))
        print()
        print("Model-build wall time by component:")
        print(format_timing_breakdown(times))
        print()
        print(f"TDP  = {processor.tdp:.1f} W")
        print(f"Area = {processor.area * 1e6:.1f} mm^2")
        for name, cycles in processor.timing_summary().items():
            print(f"{name:<22} = {cycles:.2f} cycles")
    else:
        # Single source of the report text, shared with the serve tier
        # so `POST /evaluate` responses are byte-identical to this.
        print(render_report_text(processor, max_depth=args.depth))
    if args.trace:
        _write_trace(args.trace)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.update_goldens:
        from repro.goldens import write_goldens

        written = write_goldens()
        for path in written:
            print(f"wrote {path}")
        return 0
    if args.against_goldens:
        from repro.goldens import compare_to_goldens, format_golden_diffs

        try:
            diffs = compare_to_goldens()
        except FileNotFoundError as exc:
            raise SystemExit(str(exc)) from exc
        print(format_golden_diffs(diffs))
        return 0 if not diffs else 1

    from repro.experiments import format_validation_table, run_validation

    print(format_validation_table(run_validation()))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Evaluate one config with instrumentation on; print the metrics."""
    from repro import obs
    from repro.engine import EvalCache, evaluate_many

    config = _resolve_config(args.config)
    obs.enable()
    cache = EvalCache()
    repeat = max(1, args.repeat)
    snap = None
    for _ in range(repeat):
        _, snap = evaluate_many(
            [config], jobs=args.jobs, cache=cache, with_metrics=True,
        )
    obs.disable()
    print(f"metrics for {repeat} evaluation(s) of {config.name}:\n")
    print(obs.format_metrics_table(snap))
    if args.trace:
        _write_trace(args.trace)
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.experiments.tech_scaling import (
        format_scaling_table,
        run_tech_scaling,
    )

    print(format_scaling_table(run_tech_scaling(jobs=args.jobs)))
    return 0


def _cmd_clustering(args: argparse.Namespace) -> int:
    from repro.experiments.clustering import (
        format_clustering_table,
        run_clustering_study,
    )

    points = run_clustering_study(n_cores=args.cores)
    print(format_clustering_table(points))
    return 0


def _cmd_dvfs(args: argparse.Namespace) -> int:
    from repro.experiments.dvfs import format_dvfs_table, run_dvfs_study

    base = _resolve_config(args.config) if args.config else None
    print(format_dvfs_table(run_dvfs_study(base_config=base)))
    return 0


def _cmd_pipeline(_: argparse.Namespace) -> int:
    from repro.experiments.pipeline_depth import (
        format_pipeline_table,
        run_pipeline_depth_study,
    )

    print(format_pipeline_table(run_pipeline_depth_study()))
    return 0


def _cmd_manycore(args: argparse.Namespace) -> int:
    from repro.experiments.manycore_scaling import (
        format_scaling_points,
        run_manycore_scaling,
    )

    print(format_scaling_points(run_manycore_scaling(jobs=args.jobs)))
    return 0


def _parse_axis(spec: str) -> tuple[str, list]:
    """Parse ``name=v1,v2,...`` into an axis; values are JSON-typed."""
    name, sep, raw = spec.partition("=")
    if not sep or not name or not raw:
        raise SystemExit(
            f"bad --axis {spec!r}: expected name=value1,value2,..."
        )
    values = []
    for token in raw.split(","):
        token = token.strip()
        try:
            values.append(json.loads(token))
        except json.JSONDecodeError:
            values.append(token)
    return name, values


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine import (
        EvalCache,
        SweepSpec,
        format_sweep_table,
        run_sweep,
    )
    from repro.perf import SPLASH2_PROFILES

    base = _resolve_config(args.base)
    axes = dict(_parse_axis(spec) for spec in args.axis)
    try:
        spec = SweepSpec.from_axes(base, axes)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc

    workload = None
    if args.workload is not None:
        if args.workload not in SPLASH2_PROFILES:
            known = ", ".join(SPLASH2_PROFILES)
            raise SystemExit(
                f"unknown workload {args.workload!r} (known: {known})"
            )
        workload = SPLASH2_PROFILES[args.workload]

    if args.profile:
        from repro import obs

        obs.enable()
    cache = EvalCache(path=args.cache) if args.cache else None
    start_s = time.perf_counter()
    results = run_sweep(
        spec,
        workload=workload,
        jobs=args.jobs,
        **({"cache": cache} if cache is not None else {}),
        checkpoint_path=args.checkpoint,
        backend=args.backend,
    )
    wall_s = time.perf_counter() - start_s
    print(f"{spec.n_points}-point sweep of {base.name}")
    print(format_sweep_table(results))
    if cache is not None:
        print(f"\ncache: {cache.hits} hits, {cache.misses} misses "
              f"({cache.path})")
    if args.profile:
        from repro import obs
        from repro.engine import DEFAULT_CACHE, metrics_snapshot

        obs.disable()
        if cache is None:
            cache = DEFAULT_CACHE  # what run_sweep actually used
        print("\nSpan timing by component:")
        print(obs.format_profile(
            obs.profile(), wall_s=wall_s, covered_s=obs.root_total_s(),
        ))
        print("\nEngine metrics:")
        print(obs.format_metrics_table(metrics_snapshot(cache)))
        if args.trace:
            _write_trace(args.trace)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-running async HTTP evaluation service."""
    from repro.serve import ServeConfig, serve_forever

    if args.trace:
        from repro import obs

        obs.enable()
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            concurrency=args.concurrency,
            queue_limit=args.queue_limit,
            timeout_s=args.timeout_s,
            jobs=args.jobs,
            cache_entries=args.cache_entries,
            cache_path=args.cache,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    print(f"mcpat-repro serve on http://{config.host}:{config.port} "
          f"(concurrency={config.concurrency}, "
          f"queue_limit={config.queue_limit}, "
          f"timeout={config.timeout_s:g}s, jobs={config.jobs})")
    print("endpoints: POST /evaluate, POST /sweep, GET /jobs/<id>, "
          "GET /metrics, GET /healthz")
    try:
        serve_forever(config)
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _cmd_surrogate_train(args: argparse.Namespace) -> int:
    """Train the fast-tier model and save the JSON artifact."""
    from repro import surrogate
    from repro.config import presets

    sources = args.preset or list(presets.VALIDATION_PRESETS)
    bases = [_resolve_config(source) for source in sources]
    started_s = time.perf_counter()
    try:
        model = surrogate.train(bases, folds=args.folds, jobs=args.jobs)
    except ValueError as exc:
        raise SystemExit(f"surrogate training failed: {exc}") from exc
    model.save(args.output)
    elapsed_s = time.perf_counter() - started_s
    print(f"trained {len(model.segments)} segment(s) in "
          f"{elapsed_s:.1f}s -> {args.output}")
    for segment in model.segments:
        print(f"  {segment.name}: {segment.n_train} points, "
              f"declared rel-err bound {segment.rel_err_bound:.3g}")
    return 0


def _cmd_surrogate_check(args: argparse.Namespace) -> int:
    """Audit a model's declared bounds against fresh exact points."""
    from repro import surrogate
    from repro.config import presets
    from repro.surrogate.model import SurrogateModel
    from repro.surrogate.tier import default_tier

    if args.model is not None:
        try:
            model = SurrogateModel.load(args.model)
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(f"cannot load {args.model}: {exc}") from exc
    else:
        tier = default_tier()
        if tier is None:
            raise SystemExit(
                "no packaged surrogate model artifact; train one with "
                "'mcpat-repro surrogate train' and pass --model"
            )
        model = tier.model
    sources = args.preset or list(presets.VALIDATION_PRESETS)
    checks = []
    for source in sources:
        base = _resolve_config(source)
        checks.append(
            surrogate.check_calibration(model, base, jobs=args.jobs)
        )
    if args.format == "json":
        print(json.dumps([check.to_dict() for check in checks],
                         indent=2, sort_keys=True))
    else:
        for check in checks:
            verdict = "ok" if check.ok else "FAIL"
            print(f"{check.base}: {verdict} "
                  f"({check.in_domain}/{check.n_points} in domain, "
                  f"worst rel err {check.worst_rel_err:.3g} vs "
                  f"bound {check.bound:.3g})")
    return 0 if all(check.ok for check in checks) else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        format_json,
        format_sarif,
        format_text,
        lint_paths,
    )

    dimensional = args.dimensional or args.all
    concurrency = args.concurrency or args.all
    keysound = args.keysound or args.all
    try:
        result = lint_paths(
            args.paths, disable=args.disable,
            dimensional=dimensional,
            concurrency=concurrency,
            keysound=keysound,
        )
    except (FileNotFoundError, ValueError) as exc:
        # Usage errors (bad path, unknown rule id) exit 2; findings
        # exit 1; a clean run exits 0.
        print(f"mcpat-repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(result))
    elif args.format == "sarif":
        print(format_sarif(result))
    else:
        print(format_text(result))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``mcpat-repro`` console script."""
    parser = argparse.ArgumentParser(
        prog="mcpat-repro",
        description="McPAT reproduction: power/area/timing modeling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="model a chip, print breakdown")
    report.add_argument("config", help="preset name or config JSON path")
    report.add_argument("--depth", type=int, default=2)
    report.add_argument(
        "--timing-breakdown", action="store_true",
        help="also print per-component model-build wall time",
    )
    report.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record trace spans and write them to PATH "
             "(Chrome trace_event JSON; a .jsonl suffix writes "
             "one span per line instead)",
    )
    report.add_argument(
        "--trace-detail", action="store_true",
        help="also record high-frequency solver spans (large traces)",
    )
    report.set_defaults(func=_cmd_report)

    validate = sub.add_parser("validate", help="published-vs-modeled tables")
    validate.add_argument(
        "--against-goldens", action="store_true",
        help="compare fresh reports to the checked-in golden JSON "
             "reports (tests/goldens/); non-zero exit on mismatch",
    )
    validate.add_argument(
        "--update-goldens", action="store_true",
        help="regenerate the golden JSON reports in place",
    )
    validate.set_defaults(func=_cmd_validate)

    stats = sub.add_parser(
        "stats",
        help="evaluate with instrumentation on, print the metrics table",
    )
    stats.add_argument("config", help="preset name or config JSON path")
    stats.add_argument("--repeat", type=int, default=2,
                       help="evaluations to run (default 2; the second "
                            "exercises the result cache)")
    stats.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1)")
    stats.add_argument("--trace", default=None, metavar="PATH",
                       help="also write the recorded spans to PATH")
    stats.set_defaults(func=_cmd_stats)

    scaling = sub.add_parser("scaling", help="technology scaling sweep")
    scaling.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default 1)")
    scaling.set_defaults(func=_cmd_scaling)

    clustering = sub.add_parser("clustering", help="clustering case study")
    clustering.add_argument("--cores", type=int, default=64)
    clustering.set_defaults(func=_cmd_clustering)

    dvfs = sub.add_parser("dvfs", help="voltage/frequency scaling study")
    dvfs.add_argument("config", nargs="?", default=None,
                      help="preset or JSON (default: niagara2)")
    dvfs.set_defaults(func=_cmd_dvfs)

    pipeline = sub.add_parser("pipeline", help="pipeline depth study")
    pipeline.set_defaults(func=_cmd_pipeline)

    manycore = sub.add_parser("manycore",
                              help="max cores per node under budgets")
    manycore.add_argument("--jobs", type=int, default=1,
                          help="worker processes (default 1)")
    manycore.set_defaults(func=_cmd_manycore)

    sweep = sub.add_parser(
        "sweep",
        help="batch-evaluate a parameter grid over a base config",
    )
    sweep.add_argument("base", help="preset name or config JSON path")
    sweep.add_argument(
        "--axis", action="append", required=True, metavar="NAME=V1,V2,...",
        help="parameter axis, e.g. cores=2,4,8 or tech_nm=45,32,22; "
             "dotted paths like core.issue_width=1,2 reach nested fields "
             "(repeatable; the grid is the cross product)",
    )
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1)")
    sweep.add_argument(
        "--backend", default="scalar",
        choices=("auto", "scalar", "numpy"),
        help="evaluation backend: scalar (exact, default), numpy "
             "(vectorized frequency/temperature axes, needs the [fast] "
             "extra), or auto (numpy when available)",
    )
    sweep.add_argument("--workload", default=None,
                       help="SPLASH-2 profile for runtime metrics")
    sweep.add_argument("--cache", default=None, metavar="PATH",
                       help="persistent JSONL result cache")
    sweep.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="JSONL checkpoint for resume-after-interrupt")
    sweep.add_argument(
        "--profile", action="store_true",
        help="trace the sweep and print per-component span timings "
             "plus engine metrics (cache/memo hit rates, throughput)",
    )
    sweep.add_argument("--trace", default=None, metavar="PATH",
                       help="with --profile: also write the spans to PATH")
    sweep.set_defaults(func=_cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="run the async HTTP/JSON evaluation service",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (default 8080; 0 = ephemeral)")
    serve.add_argument("--concurrency", type=int, default=4,
                       help="evaluations allowed to run at once "
                            "(default 4)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="requests allowed to wait for a slot before "
                            "the server answers 503 (default 16)")
    serve.add_argument("--timeout-s", type=float, default=60.0,
                       help="per-request wall-clock budget in seconds; "
                            "504 on expiry (default 60)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="engine worker processes available to one "
                            "sweep request (default 1)")
    serve.add_argument("--cache", default=None, metavar="PATH",
                       help="JSONL file backing the shared result cache "
                            "(persists across restarts)")
    serve.add_argument("--cache-entries", type=int, default=4096,
                       help="in-memory result-cache capacity "
                            "(default 4096)")
    serve.add_argument("--trace", action="store_true",
                       help="enable obs instrumentation: request spans "
                            "and span histograms appear in GET /metrics")
    serve.set_defaults(func=_cmd_serve)

    surrogate = sub.add_parser(
        "surrogate",
        help="train/audit the learned O(µs) approximate-evaluation tier",
    )
    surrogate_sub = surrogate.add_subparsers(
        dest="surrogate_command", required=True,
    )
    surrogate_train = surrogate_sub.add_parser(
        "train",
        help="fit a model on exact sweep grids and save the artifact",
    )
    surrogate_train.add_argument(
        "--preset", action="append", metavar="NAME",
        help="base preset/config to train a segment on (repeatable; "
             "default: every validation preset)",
    )
    surrogate_train.add_argument(
        "--output", default="surrogate_model.json", metavar="PATH",
        help="artifact path (default surrogate_model.json)",
    )
    surrogate_train.add_argument(
        "--folds", type=int, default=5,
        help="cross-validation folds behind the declared error bound "
             "(default 5)",
    )
    surrogate_train.add_argument(
        "--jobs", type=int, default=1,
        help="engine worker processes for the oracle sweeps (default 1)",
    )
    surrogate_train.set_defaults(func=_cmd_surrogate_train)
    surrogate_check = surrogate_sub.add_parser(
        "check",
        help="audit declared error bounds on fresh held-out exact points",
    )
    surrogate_check.add_argument(
        "--model", default=None, metavar="PATH",
        help="artifact to audit (default: the packaged model)",
    )
    surrogate_check.add_argument(
        "--preset", action="append", metavar="NAME",
        help="preset/config to audit against (repeatable; default: "
             "every validation preset)",
    )
    surrogate_check.add_argument(
        "--jobs", type=int, default=1,
        help="engine worker processes for the exact grid (default 1)",
    )
    surrogate_check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    surrogate_check.set_defaults(func=_cmd_surrogate_check)

    lint = sub.add_parser(
        "lint",
        help="static analysis: cache-purity, numeric, units lints",
    )
    lint.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="files or directories to lint (e.g. src/ tests/)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default text; sarif for code scanning)",
    )
    lint.add_argument(
        "--disable", action="append", default=[], metavar="RULE",
        help="disable a rule id, e.g. --disable NUM001 (repeatable)",
    )
    lint.add_argument(
        "--dimensional", action="store_true",
        help="also run the interprocedural physical-dimension inference "
             "pass (DIM001-DIM004)",
    )
    lint.add_argument(
        "--concurrency", action="store_true",
        help="also run the whole-program concurrency-safety pass "
             "(CONC001-CONC004: races, blocking-in-async, fork safety)",
    )
    lint.add_argument(
        "--keysound", action="store_true",
        help="also run the whole-program cache-key soundness pass "
             "(KEY001/KEY002, DET001/DET002: stale keys, over-keying, "
             "nondeterministic or impure cached computations)",
    )
    lint.add_argument(
        "--all", action="store_true",
        help="run every analysis pass (base + --dimensional + "
             "--concurrency + --keysound) with one merged report",
    )
    lint.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
