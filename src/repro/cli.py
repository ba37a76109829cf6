"""Command-line interface: regenerate any experiment, inspect queries.

Examples::

    python -m repro list
    python -m repro sql 13d
    python -m repro explain 13d --scale small
    python -m repro run table1 --scale small
    python -m repro run fig6 --queries 1a,6a,13d --scale tiny
    python -m repro sweep --scale tiny --queries 1a,4a,6a --processes 4 \
        --truth-cache .truth-cache --csv sweep.csv
    python -m repro report fig6 --scale tiny --queries 1a,4a \
        --result-cache .truth-cache
    python -m repro report summary --scale tiny --result-cache .truth-cache
    python -m repro work enqueue --scale tiny --queries 1a,4a \
        --queue .queue --result-cache .truth-cache
    python -m repro work worker --queue .queue --progress
    python -m repro work status --queue .queue
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from repro.experiments import ExperimentSuite


def _suite(args: argparse.Namespace) -> ExperimentSuite:
    names = args.queries.split(",") if args.queries else None
    return ExperimentSuite(scale=args.scale, seed=args.seed, query_names=names)


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.workloads import job_queries

    print(f"{'query':8s} {'relations':>9s} {'joins':>6s} {'selections':>11s}")
    for q in job_queries():
        print(
            f"{q.name:8s} {q.n_relations:9d} {len(q.joins):6d} "
            f"{len(q.selections):11d}"
        )
    print(f"\n{len(job_queries())} queries total")
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    from repro.query.sqlgen import query_to_sql
    from repro.workloads import job_query

    print(query_to_sql(job_query(args.query)))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.cost import SimpleCostModel
    from repro.enumeration import DPEnumerator
    from repro.physical import IndexConfig
    from repro.plans.explain import explain
    from repro.workloads import job_query

    suite = _suite(args)
    query = job_query(args.query)
    design = suite.design(IndexConfig[args.indexes])
    dp = DPEnumerator(SimpleCostModel(suite.db), design, allow_nlj=False)
    est = suite.estimators["PostgreSQL"].bind(query)
    plan, cost = dp.optimize(suite.context(query), est)
    truth = suite.truth.bind(query)
    print(f"-- {query.name}: optimized with PostgreSQL-style estimates "
          f"(cost {cost:.1f})")
    print(explain(plan, query, est, true_card=truth,
                  cost_model=SimpleCostModel(suite.db)))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.workloads import job_queries
    from repro.workloads.analysis import profile_workload

    print(profile_workload(job_queries()).render())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.workloads.export import export_job_sql

    paths = export_job_sql(args.directory)
    print(f"wrote {len(paths)} queries to {args.directory}")
    return 0


_EXPERIMENTS: dict[str, Callable] = {}


def _register_experiments() -> None:
    from repro.experiments import (
        ablation, fig3, fig4, fig5, fig6, fig7, fig8, fig9,
        table1, table2, table3,
    )

    _EXPERIMENTS.update(
        {
            "table1": lambda s: table1.run(s),
            "fig3": lambda s: fig3.run(s, max_subexpr_size=6),
            "fig4": lambda s: fig4.run(s),
            "fig5": lambda s: fig5.run(s, max_subexpr_size=6),
            "section4.1": lambda s: fig6.run_injection(s),
            "fig6": lambda s: fig6.run_engine_ablation(s),
            "fig7": lambda s: fig7.run(s),
            "fig8": lambda s: fig8.run(s),
            "fig9": lambda s: fig9.run(s),
            "table2": lambda s: table2.run(s),
            "table3": lambda s: table3.run(s),
            "ablation.cmm": lambda s: ablation.cmm_parameter_sweep(s),
            "ablation.quickpick": lambda s: ablation.quickpick_sample_sweep(s),
            "ablation.error": lambda s: ablation.error_scaling(s),
            "ablation.hedging": lambda s: ablation.hedging(s),
            "ablation.join-sampling": (
                lambda s: ablation.join_sampling_comparison(s)
            ),
        }
    )


def _cmd_run(args: argparse.Namespace) -> int:
    _register_experiments()
    if args.experiment == "all":
        names = list(_EXPERIMENTS)
    elif args.experiment in _EXPERIMENTS:
        names = [args.experiment]
    else:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"choose from: {', '.join(_EXPERIMENTS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    suite = _suite(args)
    for name in names:
        result = _EXPERIMENTS[name](suite)
        print(result.render())
        print()
    return 0


def _build_sweep_spec(args: argparse.Namespace):
    """Validate the shared grid flags and build a SweepSpec.

    One spec builder for every verb that names a sweep grid (``sweep``
    and ``work enqueue``).  Returns ``(spec, 0)`` or ``(None, exit
    code)`` with the complaint already printed.
    """
    from repro.physical import IndexConfig
    from repro.pipeline import (
        EnumeratorConfig,
        SweepSpec,
        check_dataset,
        workload_queries,
    )
    from repro.pipeline.resources import ESTIMATOR_ORDER

    try:
        check_dataset(args.dataset)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return None, 2
    if args.queries:
        known = {q.name for q in workload_queries(args.dataset)}
        bad = [n for n in args.queries.split(",") if n not in known]
        if bad:
            print(
                f"unknown query name(s): {', '.join(bad)} "
                "(see `repro list`)",
                file=sys.stderr,
            )
            return None, 2

    if args.estimators:
        estimators = tuple(args.estimators.split(","))
        unknown = [e for e in estimators if e not in ESTIMATOR_ORDER]
        if unknown:
            print(
                f"unknown estimator(s) {', '.join(unknown)}; "
                f"choose from: {', '.join(ESTIMATOR_ORDER)}",
                file=sys.stderr,
            )
            return None, 2
    else:
        estimators = tuple(ESTIMATOR_ORDER)
    index_names = args.indexes.split(",")
    bad = [n for n in index_names if n not in IndexConfig.__members__]
    if bad:
        print(
            f"unknown index config(s) {', '.join(bad)}; "
            f"choose from: {', '.join(IndexConfig.__members__)}",
            file=sys.stderr,
        )
        return None, 2
    configs = tuple(
        EnumeratorConfig(name.lower().replace("_", "+"), IndexConfig[name])
        for name in index_names
    )
    spec = SweepSpec(
        scale=args.scale,
        seed=args.seed,
        query_names=(
            tuple(args.queries.split(",")) if args.queries else None
        ),
        estimators=estimators,
        configs=configs,
        dataset=args.dataset,
    )
    return spec, 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.pipeline import run_sweep

    spec, code = _build_sweep_spec(args)
    if spec is None:
        return code
    if args.no_result_cache:
        result_root = None
    else:
        result_root = args.result_cache or args.truth_cache
    progress = None
    if args.progress:
        def progress(report):
            print(report.render(), file=sys.stderr, flush=True)
    aggregator = None
    if args.summary:
        from repro.pipeline.aggregate import StreamingAggregator

        aggregator = StreamingAggregator()
        inner = progress

        def progress(report, _inner=inner, _agg=aggregator):
            _agg.on_report(report)
            if _inner is not None:
                _inner(report)

    result = run_sweep(
        spec,
        processes=args.processes,
        truth_root=args.truth_cache,
        result_root=result_root,
        resume=args.resume,
        progress=progress,
        stream_csv=args.csv,
    )
    if aggregator is not None:
        print(aggregator.summary().render())
        print()
    print(result.render())
    total = result.priced_cells + result.cached_cells
    print(
        f"\npriced {result.priced_cells} of {total} grid cells "
        f"({result.cached_cells} served from the result cache)"
    )
    if args.csv:
        print(f"wrote {len(result.rows)} rows to {args.csv}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import frame as frame_mod
    from repro.pipeline import check_dataset
    from repro.pipeline.grid import SweepSpec
    from repro.pipeline import instrument

    try:
        check_dataset(args.dataset)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    artifacts = list(args.artifact)
    run_summary = "summary" in artifacts
    names = [n for n in artifacts if n != "summary"]
    known = frame_mod.available_reports()
    if "all" in names:
        names = known
    unknown = [n for n in names if n not in known]
    if unknown:
        import difflib

        hints = []
        for name in unknown:
            close = difflib.get_close_matches(name, known, n=1)
            if close:
                hints.append(f"did you mean {close[0]!r}?")
        hint = (" " + " ".join(hints)) if hints else ""
        print(
            f"unknown report(s) {', '.join(unknown)};{hint}\n"
            f"available artifacts: {', '.join(known)}, summary, or 'all'",
            file=sys.stderr,
        )
        return 2
    if run_summary:
        code = _report_summary(args)
        if code != 0 or not names:
            return code
        print()

    base = SweepSpec(
        scale=args.scale,
        seed=args.seed,
        query_names=(
            tuple(args.queries.split(",")) if args.queries else None
        ),
        dataset=args.dataset,
    )
    truth_root = args.truth_cache or args.result_cache
    result_root = args.result_cache or args.truth_cache
    progress = None
    if args.progress:
        def progress(report):
            print(report.render(), file=sys.stderr, flush=True)

    before = instrument.snapshot()
    replayed = priced = 0
    for name in names:
        run = frame_mod.run_report(
            name,
            base,
            result_root=result_root,
            truth_root=truth_root,
            processes=args.processes,
            progress=progress,
            resume=args.resume,
        )
        print(run.text)
        print()
        replayed += run.replayed_cells
        priced += run.priced_cells
    delta = instrument.snapshot() - before
    print(
        f"replayed {replayed} cells, priced {priced}; "
        f"databases generated: {delta.db_generations}",
        file=sys.stderr,
    )
    return 0


def _report_summary(args: argparse.Namespace) -> int:
    """Aggregate whatever the result store holds — a pure batch fold."""
    from repro.pipeline import ResultStore
    from repro.pipeline.aggregate import aggregate_deep_store, aggregate_store

    result_root = args.result_cache or args.truth_cache
    if not result_root:
        print(
            "report summary needs --result-cache (or --truth-cache): "
            "it folds the store",
            file=sys.stderr,
        )
        return 2
    store = ResultStore(
        result_root,
        args.scale,
        args.seed,
        dataset=args.dataset,
    )
    summary = aggregate_store(store)
    print(summary.render())
    if store.index.total_deep_rows():
        print()
        print(aggregate_deep_store(store).render())
    if summary.n_rows == 0:
        print(
            f"(store at {store.directory} holds no rows)", file=sys.stderr
        )
    return 0


def _cmd_work_enqueue(args: argparse.Namespace) -> int:
    from repro.pipeline import SWEEP_KIND, WorkQueue

    spec, code = _build_sweep_spec(args)
    if spec is None:
        return code
    result_root = args.result_cache or args.truth_cache
    if not result_root:
        print(
            "work enqueue needs --result-cache (or --truth-cache): "
            "workers ship rows back through the result store",
            file=sys.stderr,
        )
        return 2
    queue = WorkQueue(args.queue, lease_ttl=args.lease_ttl)
    stats = queue.enqueue(
        spec,
        SWEEP_KIND,
        result_root,
        truth_root=args.truth_cache,
        resume=args.resume,
    )
    print(stats.render())
    return 0


def _cmd_work_worker(args: argparse.Namespace) -> int:
    from repro.pipeline import WorkQueue, run_worker

    progress = None
    if args.progress:
        def progress(line):
            print(line, file=sys.stderr, flush=True)

    stats = run_worker(
        WorkQueue(args.queue),
        worker_id=args.worker_id,
        max_units=args.max_units,
        poll=args.poll,
        progress=progress,
    )
    print(stats.render())
    return 0


def _cmd_work_status(args: argparse.Namespace) -> int:
    from repro.pipeline import WorkQueue

    queue = WorkQueue(args.queue)
    status = queue.status()
    for key in ("specs", "pending", "leased", "expired", "done"):
        print(f"{key:8s} {status[key]}")
    if queue.drained():
        print("queue is drained")
    return 0


def _grid_flags() -> argparse.ArgumentParser:
    """Shared parent parser: which grid (database identity + queries)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--scale", default="tiny",
                   choices=["tiny", "small", "medium"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--queries", default=None,
        help="comma-separated workload query names (default: all of them)",
    )
    p.add_argument(
        "--dataset", default="imdb",
        help="workload dataset: imdb (JOB) or tpch",
    )
    return p


def _axes_flags() -> argparse.ArgumentParser:
    """Shared parent parser: the sweep grid's estimator/config axes."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--estimators", default=None,
        help="comma-separated estimator names (default: all five)",
    )
    p.add_argument(
        "--indexes", default="PK,PK_FK",
        help="comma-separated index configs out of NONE,PK,PK_FK",
    )
    return p


def _store_flags() -> argparse.ArgumentParser:
    """Shared parent parser: stores, pricing fan-out, resume, progress.

    One definition of ``--truth-cache`` / ``--result-cache`` /
    ``--processes`` / ``--resume`` / ``--progress`` serves ``sweep``,
    ``report``, and ``work enqueue`` alike — the flags mean the same
    thing everywhere.
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--truth-cache", default=None, metavar="DIR",
        help="directory for the persistent exact-cardinality store",
    )
    p.add_argument(
        "--result-cache", default=None, metavar="DIR",
        help=(
            "directory for the persistent priced-row store (defaults "
            "to the --truth-cache directory)"
        ),
    )
    p.add_argument(
        "--processes", type=int, default=1,
        help="worker processes (1 = sequential; results are identical)",
    )
    p.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help=(
            "replay cells already priced by previous runs "
            "(--no-resume re-prices everything, still updating the store)"
        ),
    )
    p.add_argument(
        "--progress", action="store_true",
        help="print a progress line to stderr as each unit completes",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'How Good Are Query Optimizers, Really?' "
            "(Leis et al., VLDB 2015)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    grid_flags = _grid_flags()
    axes_flags = _axes_flags()
    store_flags = _store_flags()

    p_list = sub.add_parser("list", help="list the 113 JOB queries")
    p_list.set_defaults(func=_cmd_list)

    p_sql = sub.add_parser("sql", help="print a query as SQL")
    p_sql.add_argument("query", help="query name, e.g. 13d")
    p_sql.set_defaults(func=_cmd_sql)

    p_explain = sub.add_parser("explain", help="optimize and explain a query")
    p_explain.add_argument("query")
    p_explain.add_argument("--scale", default="tiny",
                           choices=["tiny", "small", "medium"])
    p_explain.add_argument("--seed", type=int, default=42)
    p_explain.add_argument("--queries", default=None, help=argparse.SUPPRESS)
    p_explain.add_argument("--indexes", default="PK_FK",
                           choices=["NONE", "PK", "PK_FK"])
    p_explain.set_defaults(func=_cmd_explain)

    p_profile = sub.add_parser(
        "profile", help="print the workload's structural profile (§2.2)"
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_export = sub.add_parser(
        "export-sql", help="write all 113 JOB queries as .sql files"
    )
    p_export.add_argument("directory")
    p_export.set_defaults(func=_cmd_export)

    p_run = sub.add_parser("run", help="run an experiment and print its table")
    p_run.add_argument("experiment",
                       help="table1|fig3|...|table3|ablation.*|all")
    p_run.add_argument("--scale", default="tiny",
                       choices=["tiny", "small", "medium"])
    p_run.add_argument("--seed", type=int, default=42)
    p_run.add_argument(
        "--queries", default=None,
        help="comma-separated JOB query names (default: all 113)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[grid_flags, axes_flags, store_flags],
        help="batch-optimize the (query x estimator x config) grid",
    )
    p_sweep.add_argument(
        "--no-result-cache", action="store_true",
        help="neither read nor write the priced-row store",
    )
    p_sweep.add_argument(
        "--csv", default=None, metavar="PATH",
        help=(
            "write the rows as CSV, streamed while the sweep runs and "
            "canonically ordered once it finishes"
        ),
    )
    p_sweep.add_argument(
        "--summary", action="store_true",
        help=(
            "print a workload-level aggregate (q-error quantiles, "
            "slowdown buckets, throughput) folded incrementally while "
            "the sweep runs"
        ),
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_report = sub.add_parser(
        "report",
        parents=[grid_flags, store_flags],
        help=(
            "render a figure/table from the result store; a warm store "
            "replays with zero database generation, a cold one prices "
            "only the missing cells"
        ),
    )
    p_report.add_argument(
        "artifact",
        nargs="+",
        help=(
            "one or more of: fig3..fig9, table1..table3, ablation, a "
            "paper-faithful deep variant (fig3-deep, fig5-deep, "
            "fig6-deep, fig7-deep, fig8-deep — subexpression "
            "distributions and simulated runtimes replayed from stored "
            "DeepRows), summary (aggregate the whole store), or 'all'"
        ),
    )
    p_report.set_defaults(func=_cmd_report)

    p_work = sub.add_parser(
        "work",
        help=(
            "lease-queue verbs: enqueue a sweep's unpriced units, drain "
            "them with N independent worker processes, inspect progress"
        ),
    )
    work_sub = p_work.add_subparsers(dest="verb", required=True)

    p_enq = work_sub.add_parser(
        "enqueue",
        parents=[grid_flags, axes_flags, store_flags],
        help=(
            "decompose a sweep grid, subtract stored cells, queue the "
            "rest as leasable units (idempotent per grid delta)"
        ),
    )
    p_enq.add_argument(
        "--queue", required=True, metavar="DIR",
        help="the work queue directory (created if missing)",
    )
    p_enq.add_argument(
        "--lease-ttl", type=float, default=120.0,
        help=(
            "seconds a silent lease survives before any worker reclaims "
            "it (recorded in the queue; every worker honours it)"
        ),
    )
    p_enq.set_defaults(func=_cmd_work_enqueue)

    p_worker = work_sub.add_parser(
        "worker",
        help=(
            "claim, price, and merge units until the queue drains; run "
            "N of these concurrently for an N-way sweep"
        ),
    )
    p_worker.add_argument(
        "--queue", required=True, metavar="DIR",
        help="the work queue directory",
    )
    p_worker.add_argument(
        "--worker-id", default=None,
        help="lease owner label (default: hostname-pid)",
    )
    p_worker.add_argument(
        "--max-units", type=int, default=None,
        help="exit after completing this many units (default: drain)",
    )
    p_worker.add_argument(
        "--poll", type=float, default=0.5,
        help="seconds between claim attempts while others hold leases",
    )
    p_worker.add_argument(
        "--progress", action="store_true",
        help="print a progress line to stderr as each unit completes",
    )
    p_worker.set_defaults(func=_cmd_work_worker)

    p_status = work_sub.add_parser(
        "status", help="print per-state unit counts for a queue"
    )
    p_status.add_argument(
        "--queue", required=True, metavar="DIR",
        help="the work queue directory",
    )
    p_status.set_defaults(func=_cmd_work_status)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
