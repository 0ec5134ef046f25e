"""Command-line interface for running WATTER experiments.

Five subcommands cover the common workflows:

* ``compare`` — run several algorithms over one generated workload and
  print the comparison table (the Table III default experiment),
* ``run``    — execute a scenario described by a JSON/YAML spec file
  (``repro.api.ScenarioSpec`` serialised with ``to_dict``); with
  ``--checkpoint-dir``/``--checkpoint-interval`` the run snapshots
  resumable state every N ticks, and ``--resume CKPT`` continues an
  interrupted run from its last checkpoint (see docs/DURABILITY.md),
* ``sweep``   — regenerate one of the paper's figures (vary orders,
  workers, deadline or capacity) as text tables,
* ``example1`` — rerun the worked example of the introduction,
* ``serve``  — stand up the resident scenario service (``repro.serve``):
  an asyncio HTTP server (or ``--stdin`` JSON-lines loop) that accepts
  ScenarioSpec documents, shares prepared networks/oracles across
  concurrent runs and streams results to sinks (see docs/SERVING.md);
  with ``--state-dir`` accepted runs are journaled write-ahead and
  recovered after a crash, and ``SIGTERM`` drains gracefully within
  ``--drain-grace`` seconds (see docs/DURABILITY.md).

Every workload command accepts ``--oracle {ch,lazy}`` to pick
the shortest-path backend and ``--oracle-cache DIR`` to persist (and
reuse) CH preprocessing on disk, without touching any code.

The CLI is intentionally a thin veneer over :mod:`repro.api` — every
flag set maps onto a :class:`~repro.api.ScenarioSpec`, so anything it
can do is equally reachable (and scriptable) from Python.

Usage::

    python -m repro.cli compare --dataset CDC --orders 120 --workers 24
    python -m repro.cli run --spec scenario.json
    python -m repro.cli sweep --figure fig5 --dataset XIA
    python -m repro.cli example1
"""

from __future__ import annotations

import argparse
from typing import Callable, Sequence, TypeVar

from .api import RunResult, ScenarioSpec, Session, load_spec
from .datasets.workloads import DATASETS
from .exceptions import ConfigurationError
from .experiments.reporting import (
    format_comparison_table,
    format_full_sweep_report,
    format_oracle_stats_table,
)
from .experiments.runner import ALGORITHMS
from .experiments.sweeps import run_sweep
from .experiments.worked_example import run_worked_example
from .network.oracle import ORACLE_BACKENDS

#: Figure -> the axis of ``repro.experiments.sweeps.AXES`` it sweeps.
_FIGURES = {
    "fig3": "num_orders",
    "fig4": "num_workers",
    "fig5": "deadline_scale",
    "fig6": "max_capacity",
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the WATTER ridesharing framework (ICDE 2024)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = subparsers.add_parser(
        "compare", help="run several algorithms over one workload"
    )
    _add_workload_arguments(compare)
    compare.add_argument(
        "--algorithms",
        nargs="+",
        default=list(ALGORITHMS),
        choices=list(ALGORITHMS),
        help="algorithms to compare (default: all)",
    )
    compare.add_argument(
        "--use-rl",
        action="store_true",
        help="train the RL value function for WATTER-expect instead of the GMM fit",
    )

    run = subparsers.add_parser(
        "run", help="execute a scenario described by a JSON/YAML spec file"
    )
    run.add_argument(
        "--spec",
        required=True,
        metavar="PATH",
        help="scenario file (repro.api.ScenarioSpec as JSON, or YAML with PyYAML)",
    )
    run.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        choices=list(ALGORITHMS),
        help="override the spec's algorithm with a comparison set",
    )
    run.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "snapshot resumable run state to DIR/<algorithm>.ckpt every "
            "--checkpoint-interval periodic checks (single-algorithm "
            "runs only; see docs/DURABILITY.md)"
        ),
    )
    run.add_argument(
        "--checkpoint-interval",
        type=_positive_int,
        default=None,
        metavar="TICKS",
        help="periodic checks between checkpoints (default: 25)",
    )
    run.add_argument(
        "--resume",
        default=None,
        metavar="CKPT",
        help=(
            "continue an interrupted run from a checkpoint file written "
            "by --checkpoint-dir (or by a served run under --state-dir); "
            "the finished metrics match an uninterrupted run"
        ),
    )

    sweep = subparsers.add_parser("sweep", help="regenerate one figure of the paper")
    _add_workload_arguments(sweep)
    sweep.add_argument(
        "--figure",
        choices=sorted(_FIGURES),
        default="fig3",
        help="which figure to regenerate",
    )
    sweep.add_argument(
        "--algorithms",
        nargs="+",
        default=["WATTER-expect", "WATTER-online", "WATTER-timeout", "GDP", "GAS"],
        choices=list(ALGORITHMS),
        help="algorithms included in the sweep",
    )

    subparsers.add_parser("example1", help="rerun the worked example of Section I")

    serve = subparsers.add_parser(
        "serve",
        help="run the resident scenario service (HTTP, or JSON-lines on stdin)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="HTTP listen address")
    serve.add_argument(
        "--port",
        type=_port,
        default=8700,
        help="HTTP listen port (0 picks a free one)",
    )
    serve.add_argument(
        "--stdin",
        action="store_true",
        help=(
            "serve JSON-lines requests on stdin/stdout instead of HTTP "
            "(one request object per line; exits on EOF or a shutdown op)"
        ),
    )
    serve.add_argument(
        "--max-runs",
        type=_positive_int,
        default=2,
        metavar="N",
        help="how many submitted runs may execute concurrently",
    )
    serve.add_argument(
        "--pool-sessions",
        type=_positive_int,
        default=8,
        metavar="N",
        help="bound of the shared prepared-session pool",
    )
    serve.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="stream every run's events to DIR/<run_id>.jsonl",
    )
    serve.add_argument(
        "--oracle-cache",
        default=None,
        metavar="DIR",
        help="on-disk oracle-preprocessing cache shared by pooled sessions",
    )
    serve.add_argument(
        "--default-deadline",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget applied to every run whose spec sets no "
            "deadline_seconds; expiry cancels the run at the next tick "
            "boundary (default: unlimited)"
        ),
    )
    serve.add_argument(
        "--max-queue",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "bound on queued (not yet running) runs; a full queue refuses "
            "submissions with a 429 'overloaded' error (default: unbounded)"
        ),
    )
    serve.add_argument(
        "--inject-faults",
        default=None,
        metavar="FILE",
        help=(
            "JSON fault schedule installed for the service's lifetime "
            "(testing aid; see repro.resilience.faults)"
        ),
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help=(
            "durable run state: a write-ahead run journal, per-run "
            "checkpoints and finished results live here, and a restart "
            "on the same directory recovers every previously accepted "
            "run (see docs/DURABILITY.md)"
        ),
    )
    serve.add_argument(
        "--checkpoint-interval",
        type=_positive_int,
        default=None,
        metavar="TICKS",
        help=(
            "periodic checks between run checkpoints when --state-dir "
            "is set (default: 25)"
        ),
    )
    serve.add_argument(
        "--no-auto-resume",
        action="store_true",
        help=(
            "on recovery, mark crash-orphaned in-flight runs as "
            "interrupted instead of resuming them from their last "
            "checkpoint"
        ),
    )
    serve.add_argument(
        "--drain-grace",
        type=_positive_float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "budget a graceful drain (SIGTERM or POST /shutdown?drain=1) "
            "gives in-flight runs before cutting them at a checkpoint "
            "boundary (default: 30)"
        ),
    )
    return parser


_Number = TypeVar("_Number", int, float)


def _checked(
    kind: Callable[[str], _Number],
    value: str,
    valid: Callable[[_Number], bool],
    message: str,
) -> _Number:
    """``kind(value)`` if it parses and is ``valid``, else a usage error.

    Non-numeric text gets ``message`` too, so argparse never names the
    private ``type=`` helper in what the user reads.
    """
    try:
        parsed = kind(value)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if not valid(parsed):
        raise argparse.ArgumentTypeError(message)
    return parsed


def _positive_int(value: str) -> int:
    return _checked(int, value, lambda n: n >= 1, "must be a positive integer")


def _port(value: str) -> int:
    return _checked(
        int, value, lambda n: 0 <= n <= 65535, "must be a port number in 0-65535"
    )


def _positive_float(value: str) -> float:
    return _checked(float, value, lambda x: x > 0, "must be a positive number")


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        default="CDC",
        choices=list(DATASETS),
        help=(
            "dataset preset: the paper's three cities, or LARGE — the "
            "102400-node synthetic city (pair it with the lazy backend)"
        ),
    )
    parser.add_argument("--orders", type=int, default=None, help="number of orders")
    parser.add_argument("--workers", type=int, default=None, help="number of workers")
    parser.add_argument("--horizon", type=float, default=None, help="horizon (s)")
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument(
        "--oracle",
        default=None,
        choices=list(ORACLE_BACKENDS),
        help="distance-oracle backend for shortest-path queries",
    )
    parser.add_argument(
        "--oracle-cache",
        default=None,
        metavar="DIR",
        help=(
            "directory for persisted oracle preprocessing; a warm cache "
            "lets the ch backend skip graph contraction entirely"
        ),
    )


def _scenario_line(run: RunResult) -> str:
    """One self-describing identity line appended to comparison output."""
    config = run.spec.config()
    return (
        f"scenario: {run.spec.describe()} oracle={config.oracle.backend} "
        f"seed={config.seed} graph={run.graph_hash[:12]}"
    )


def _comparison_output(results: list[RunResult], title: str) -> str:
    metrics = [run.metrics for run in results]
    output = format_comparison_table(metrics, title=title)
    oracle_table = format_oracle_stats_table(metrics)
    if oracle_table:
        output += "\n\n" + oracle_table
    output += "\n\n" + _scenario_line(results[0])
    return output


def _run_compare(args: argparse.Namespace, spec: ScenarioSpec) -> str:
    config = spec.config()
    results = Session(oracle_cache_dir=args.oracle_cache).compare(
        spec, algorithms=args.algorithms, use_rl=args.use_rl
    )
    title = f"Algorithm comparison ({args.dataset}, n={config.num_orders}, m={config.num_workers})"
    return _comparison_output(results, title)


def _run_spec_file(args: argparse.Namespace, spec: ScenarioSpec) -> str:
    if args.checkpoint_dir or args.resume:
        return _run_spec_durable(args, spec)
    algorithms = tuple(args.algorithms) if args.algorithms else (spec.algorithm,)
    results = Session().compare(spec, algorithms=algorithms, use_rl=spec.use_rl)
    config = spec.config()
    title = (
        f"Scenario {spec.describe()} "
        f"(n={config.num_orders}, m={config.num_workers})"
    )
    return _comparison_output(results, title)


def _run_spec_durable(args: argparse.Namespace, spec: ScenarioSpec) -> str:
    """``run`` with checkpointing and/or resume: one durable single run.

    Checkpoints and resumes are per-run state, so this path executes
    exactly one algorithm — the spec's (or the single ``--algorithms``
    override).
    """
    from pathlib import Path

    from .durability import DEFAULT_CHECKPOINT_INTERVAL, Checkpointer

    if args.algorithms and len(args.algorithms) > 1:
        raise SystemExit(
            "--checkpoint-dir/--resume run a single algorithm; pass at "
            "most one --algorithms entry"
        )
    if args.algorithms:
        spec = spec.with_overrides(algorithm=args.algorithms[0])
    hooks = None
    if args.checkpoint_dir:
        directory = Path(args.checkpoint_dir)
        directory.mkdir(parents=True, exist_ok=True)
        interval = args.checkpoint_interval or DEFAULT_CHECKPOINT_INTERVAL
        hooks = Checkpointer(
            directory / f"{spec.algorithm}.ckpt", interval=interval
        )
    result = Session().run(spec, hooks=hooks, resume_from=args.resume)
    config = spec.config()
    title = (
        f"Scenario {spec.describe()} "
        f"(n={config.num_orders}, m={config.num_workers})"
    )
    output = _comparison_output([result], title)
    if args.resume:
        output += f"\nresumed from {args.resume}"
    if isinstance(hooks, Checkpointer) and hooks.writes:
        output += (
            f"\n{hooks.writes} checkpoint(s) written to {hooks.path}"
        )
    return output


def _run_sweep(args: argparse.Namespace, spec: ScenarioSpec) -> str:
    axis = _FIGURES[args.figure]
    points = run_sweep(
        axis,
        spec,
        algorithms=args.algorithms,
        session=Session(oracle_cache_dir=args.oracle_cache),
    )
    header = f"=== {args.figure}: {axis} sweep on {args.dataset} ==="
    return header + "\n" + format_full_sweep_report(points)


def _run_example1() -> str:
    result = run_worked_example()
    lines = ["Example 1 (Figure 1 network, Table I orders)"]
    for name, total in result.as_dict().items():
        lines.append(f"  {name:<28} total worker travel time = {total:7.1f} s")
    return "\n".join(lines)


def _run_serve(args: argparse.Namespace) -> int:
    """Stand the resident scenario service up on the chosen transport."""
    import asyncio
    import signal

    from .serve import ScenarioServer, ScenarioService, serve_stdin

    injector = None
    if args.inject_faults:
        from .resilience import FaultInjector, install_injector

        injector = FaultInjector.from_file(args.inject_faults)
        install_injector(injector)
    service_kwargs = {}
    if args.checkpoint_interval is not None:
        service_kwargs["checkpoint_interval"] = args.checkpoint_interval
    service = ScenarioService(
        max_runs=args.max_runs,
        max_sessions=args.pool_sessions,
        trace_dir=args.trace_dir,
        oracle_cache_dir=args.oracle_cache,
        max_queue=args.max_queue,
        default_deadline=args.default_deadline,
        state_dir=args.state_dir,
        auto_resume=not args.no_auto_resume,
        **service_kwargs,
    )

    async def serve_http() -> None:
        server = ScenarioServer(
            service, args.host, args.port, drain_grace=args.drain_grace
        )
        await server.start()
        host, port = server.address
        print(f"repro.serve listening on http://{host}:{port}", flush=True)
        loop = asyncio.get_running_loop()
        try:
            # SIGTERM is the operator's graceful stop: finish (or
            # checkpoint) in-flight runs, journal the clean-shutdown
            # marker, exit 0.
            loop.add_signal_handler(signal.SIGTERM, server.request_drain)
        except NotImplementedError:  # pragma: no cover - non-unix loop
            pass
        try:
            await server.serve_forever()
        finally:
            try:
                loop.remove_signal_handler(signal.SIGTERM)
            except (NotImplementedError, ValueError):  # pragma: no cover
                pass

    try:
        if args.stdin:
            previous = signal.signal(
                signal.SIGTERM, lambda *_: _drain_and_exit(service, args)
            )
            try:
                serve_stdin(service)
            finally:
                signal.signal(signal.SIGTERM, previous)
            return 0
        try:
            asyncio.run(serve_http())
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            service.shutdown(wait=True)
        return 0
    finally:
        if injector is not None:
            from .resilience import uninstall_injector

            uninstall_injector()


def _drain_and_exit(service, args: argparse.Namespace) -> None:
    """SIGTERM handler of the stdin transport: drain, then exit clean."""
    service.drain(args.drain_grace)
    raise SystemExit(0)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "example1":
        print(_run_example1())
        return 0
    try:
        if args.command == "run":
            spec = load_spec(args.spec)
        else:
            spec = ScenarioSpec.from_args(args)
    except ConfigurationError as exc:
        # An invalid scenario is a usage error, reported like argparse's.
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")
    if args.command == "compare":
        output = _run_compare(args, spec)
    elif args.command == "run":
        output = _run_spec_file(args, spec)
    else:
        output = _run_sweep(args, spec)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
