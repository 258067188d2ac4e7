"""``advm`` — command-line driver for on-disk ADVM workspaces.

The paper's workflow is file-based: module owners edit trees shaped like
Figures 3/5, run regressions, cut release labels.  This CLI drives that
workflow over a real directory tree:

=============  ============================================================
command        effect
=============  ============================================================
``init``       write the default Figure 5 system tree into a directory
``validate``   structural conformance check of a system tree
``run``        build one test cell off the tree and execute it
``regress``    run a module (or the whole system) across targets,
               print the verdict matrix and any divergence attribution
``port``       measure the ADVM-vs-hardwired porting effort to a
               derivative (the paper's headline claim, from the shell)
``grep-plan``  search the plain-text test plans (the paper's stated
               reason for TESTPLAN.TXT being plain text)
``check``      run the Figure 2 abuse checker over a module environment
``serve``      run the always-available regression daemon (warm session
               pools, crash-safe journal, NDJSON streaming)
``submit``     submit a scenario pack to a running daemon and stream
               the per-cell verdicts back
=============  ============================================================

Examples::

    python -m repro.cli init  ./workspace
    python -m repro.cli run   ./workspace/ADVM_System_Verification_Environment \
                              NVM TEST_NVM_PAGE_001 --derivative sc88b
    python -m repro.cli regress ./workspace/... NVM --targets golden,rtl
    python -m repro.cli port --suite 6 --to sc88c
    python -m repro.cli grep-plan ./workspace/... PAGE
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.environment import GlobalLayer
from repro.core.reporting import regression_matrix, render_table
from repro.core.scheduler import (
    RegressionScheduler,
    ResultCache,
    matrix_digest,
)
from repro.core.targets import all_targets, target as lookup_target
from repro.core.testplan import TestPlan
from repro.core.workspace import (
    DiskBuilder,
    SYSTEM_DIR_NAME,
    TESTPLAN_FILE,
    load_module_environment,
    validate_system_tree,
    write_system_environment,
)
from repro.soc.derivatives import all_derivatives, derivative as lookup_derivative


def _lookup(lookup, name: str):
    """Resolve a target or derivative name, or exit 2 with one line
    naming the available ones (the catalogue's own ``KeyError``)."""
    try:
        return lookup(name)
    except KeyError as exc:
        print(f"advm: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(2) from None


def _system_dir(path: str) -> Path:
    candidate = Path(path)
    if candidate.name != SYSTEM_DIR_NAME and (
        candidate / SYSTEM_DIR_NAME
    ).is_dir():
        candidate = candidate / SYSTEM_DIR_NAME
    return candidate


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_init(args: argparse.Namespace) -> int:
    from repro.core.system_env import make_default_system

    system = make_default_system(
        nvm_tests=args.nvm_tests, uart_tests=args.uart_tests
    )
    system_dir = write_system_environment(system, args.directory)
    print(f"wrote {system_dir}")
    print(
        f"{len(system.environments)} module environments, "
        f"{system.total_tests} test cells"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    issues = validate_system_tree(_system_dir(args.directory))
    if not issues:
        print("tree OK")
        return 0
    for issue in issues:
        print(f"issue: {issue}")
    return 1


def cmd_run(args: argparse.Namespace) -> int:
    builder = DiskBuilder(_system_dir(args.directory))
    deriv = _lookup(lookup_derivative, args.derivative)
    tgt = _lookup(lookup_target, args.target)
    result = builder.run(args.module, args.test, deriv, tgt)
    print(
        f"{args.module}/{args.test} on {tgt.name}/{deriv.name}: "
        f"{result.status.value}"
    )
    if result.signature is not None:
        print(f"signature: {result.signature:#010x}")
    print(f"instructions: {result.instructions}, cycles: {result.cycles}")
    if result.uart_output:
        print(f"uart: {result.uart_output!r}")
    if result.fault_reason:
        print(f"fault: {result.fault_reason}")
    return 0 if result.passed else 1


def _load_modules(system_dir: Path, module: str | None):
    names = (
        [module]
        if module
        else [
            p.name
            for p in sorted(system_dir.iterdir())
            if p.is_dir() and p.name != "Global_Libraries"
        ]
    )
    layer = GlobalLayer()
    return {
        name: load_module_environment(system_dir / name, global_layer=layer)
        for name in names
    }


def cmd_regress(args: argparse.Namespace) -> int:
    if args.fleet and (not args.cache_dir or args.no_cache):
        print(
            "--fleet requires --cache-dir and no --no-cache (its peers "
            "share their verdicts through the cache)",
            file=sys.stderr,
        )
        return 2
    if args.run_timeout is not None and not args.fleet:
        print(
            "--run-timeout requires --fleet (a running core cannot be "
            "preempted; only a fleet peer can take its cell over)",
            file=sys.stderr,
        )
        return 2
    deriv = _lookup(lookup_derivative, args.derivative)
    targets = (
        [_lookup(lookup_target, name) for name in args.targets.split(",")]
        if args.targets
        else all_targets()
    )
    system_dir = _system_dir(args.directory)
    environments = _load_modules(system_dir, args.module)
    cache = None
    if args.cache_dir and not args.no_cache:
        cache = ResultCache(args.cache_dir)
    store = None
    worklist = None
    if args.store_dir:
        from repro.store import ArtifactStore, set_artifact_store

        store = ArtifactStore(Path(args.store_dir) / "artifacts")
        set_artifact_store(store)
    if args.fleet:
        from repro.store import WorkList

        worklist = WorkList(cache, lease_ttl=args.lease_ttl)
    scheduler = RegressionScheduler(
        targets=targets,
        cache=cache,
        run_timeout=args.run_timeout,
        retries=args.retries,
        worklist=worklist,
    )
    report = scheduler.run_system(environments, deriv)
    print(regression_matrix(report))
    print(report.summary())
    if args.engine_stats:
        line = _stats_line(scheduler.engine_stats)
        print(f"engine-stats: {line or '(no runs executed)'}")
        print(f"matrix-digest: {matrix_digest(report)}")
    if store is not None:
        print(f"store-stats: {_stats_line(store.stats())}")
    if worklist is not None:
        print(f"worklist-stats: {_stats_line(worklist.stats())}")
    if cache is not None:
        print(f"cache-stats: {_stats_line(cache.stats())}")
    if cache is not None and args.cache_prune:
        removed = cache.prune(
            max_entries=args.cache_max_entries, max_age=args.cache_max_age
        )
        print(
            f"cache-prune: removed {removed} record(s); "
            f"{_stats_line(cache.stats())}"
        )
    return 0 if report.clean else 1


def _stats_line(stats: dict) -> str:
    """The ``key=value`` pairs of a ``*-stats:`` line, in key order."""
    return " ".join(f"{key}={stats[key]}" for key in sorted(stats))


def cmd_port(args: argparse.Namespace) -> int:
    from repro.core.porting import compare_nvm_port

    known = [_lookup(lookup_derivative, args.base)]
    new = _lookup(lookup_derivative, args.to)
    comparison = compare_nvm_port(args.suite, known, new)
    print(comparison.summary())
    return 0 if comparison.advm.all_pass else 1


def cmd_grep_plan(args: argparse.Namespace) -> int:
    system_dir = _system_dir(args.directory)
    hits = 0
    for plan_path in sorted(system_dir.glob(f"*/{TESTPLAN_FILE}")):
        plan = TestPlan.from_text(plan_path.read_text())
        for item in plan.grep(args.pattern):
            print(f"{plan_path.parent.name}: {item.render()}")
            hits += 1
    if not hits:
        print(f"no test plan items match {args.pattern!r}")
    return 0 if hits else 1


def cmd_check(args: argparse.Namespace) -> int:
    from repro.core.violations import check_environment

    system_dir = _system_dir(args.directory)
    env = load_module_environment(system_dir / args.module)
    deriv = _lookup(lookup_derivative, args.derivative)
    tgt = _lookup(lookup_target, args.target)
    violations = check_environment(env, deriv, tgt)
    if not violations:
        print(f"{args.module}: no abstraction-layer violations")
        return 0
    for violation in violations:
        print(f"violation: {violation}")
    return 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import JobJournal, RegressionService, WarmSessionPool
    from repro.service.daemon import run_daemon

    system_dir = _system_dir(args.directory)
    journal = JobJournal(args.journal_dir) if args.journal_dir else None
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    store = None
    if args.store_dir:
        from repro.store import ArtifactStore

        store = ArtifactStore(Path(args.store_dir) / "artifacts")
    service = RegressionService(
        system_dir,
        pool=WarmSessionPool(max_idle=args.pool_size),
        journal=journal,
        cache=cache,
        max_pending=args.max_pending,
        max_active=args.max_active,
        default_deadline=args.deadline,
        store=store,
    )
    return asyncio.run(run_daemon(service, args.host, args.port))


def _build_pack(args: argparse.Namespace) -> dict:
    import json

    if args.pack:
        return json.loads(Path(args.pack).read_text())
    pack: dict = {"schema": 1, "name": args.name}
    if args.module:
        pack["modules"] = [args.module]
    if args.cells:
        pack["cells"] = args.cells.split(",")
    if args.targets:
        pack["targets"] = args.targets.split(",")
    if args.deadline is not None:
        pack["deadline"] = args.deadline
    pack["derivative"] = args.derivative
    return pack


def cmd_submit(args: argparse.Namespace) -> int:
    """Stream one scenario pack through a running daemon (the CI serve
    smoke test is exactly this command)."""
    import http.client
    import json

    body = json.dumps(_build_pack(args)).encode()
    connection = http.client.HTTPConnection(
        args.host, args.port, timeout=args.timeout
    )
    try:
        connection.request(
            "POST",
            "/submit",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        if response.status != 200:
            detail = response.read().decode(errors="replace").strip()
            retry_after = response.getheader("Retry-After")
            suffix = f" (Retry-After: {retry_after}s)" if retry_after else ""
            print(
                f"submit rejected: HTTP {response.status} {detail}{suffix}",
                file=sys.stderr,
            )
            return 1
        verdict = 1
        for raw in response:
            line = raw.strip()
            if not line:
                continue
            event = json.loads(line)
            print(json.dumps(event))
            if event.get("event") == "done":
                verdict = 0 if event.get("clean") else 1
            elif event.get("event") == "error":
                verdict = 1
        return verdict
    finally:
        connection.close()


def cmd_derivatives(args: argparse.Namespace) -> int:
    rows = [
        [
            deriv.name,
            deriv.title,
            f"pos={deriv.page_field_pos} width={deriv.page_field_width}",
            f"v{deriv.es_version}",
            deriv.description,
        ]
        for deriv in all_derivatives()
    ]
    print(
        render_table(
            ["name", "title", "NVM PAGE field", "firmware", "change class"],
            rows,
        )
    )
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advm",
        description="drive ADVM verification workspaces (DATE 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="write the default system tree")
    p_init.add_argument("directory")
    p_init.add_argument("--nvm-tests", type=int, default=4)
    p_init.add_argument("--uart-tests", type=int, default=3)
    p_init.set_defaults(func=cmd_init)

    p_validate = sub.add_parser("validate", help="validate a system tree")
    p_validate.add_argument("directory")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="build + run one test cell")
    p_run.add_argument("directory")
    p_run.add_argument("module")
    p_run.add_argument("test")
    p_run.add_argument("--derivative", default="sc88a")
    p_run.add_argument("--target", default="golden")
    p_run.set_defaults(func=cmd_run)

    p_regress = sub.add_parser("regress", help="run a regression")
    p_regress.add_argument("directory")
    p_regress.add_argument("module", nargs="?", default=None)
    p_regress.add_argument("--derivative", default="sc88a")
    p_regress.add_argument(
        "--targets", default=None, help="comma-separated target names"
    )
    p_regress.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "persistent result cache; unchanged cells are not re-run. "
            "Under --fleet, the directory the peers share: their "
            "verdicts and cell leases"
        ),
    )
    p_regress.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        help=(
            "fleet per-cell deadline in seconds: a cell running longer "
            "stops renewing its lease, so a peer steals it once the "
            "lease expires; requires --fleet (default: no deadline)"
        ),
    )
    p_regress.add_argument(
        "--retries",
        type=int,
        default=2,
        help=(
            "failed attempts per cell before it is quarantined as a "
            "FAULT verdict; under --fleet also the lease steals (dead or "
            "overrunning holders) a cell may cost (default: 2)"
        ),
    )
    p_regress.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir and execute every matrix entry",
    )
    p_regress.add_argument(
        "--store-dir",
        default=None,
        help=(
            "persistent artifact store root; warmed decode/superblock "
            "state and assembled objects are saved there and fresh "
            "processes warm-start from it instead of re-deriving them"
        ),
    )
    p_regress.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "shard the matrix with peer processes sharing --cache-dir "
            "(lease claims under its leases/, work stealing, "
            "first-writer-wins verdicts; not with --no-cache); start "
            "one such process per core to use more cores"
        ),
    )
    p_regress.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help=(
            "fleet cell-lease expiry in seconds (--fleet only); a "
            "worker dead longer than this has its cells stolen by "
            "survivors (default: 30)"
        ),
    )
    p_regress.add_argument(
        "--engine-stats",
        action="store_true",
        help=(
            "append aggregated engine telemetry (sb_blocks, sb_replays, "
            "ff_warps, sb_fallback_steps, reset counters) and a "
            "matrix-digest line (one SHA-256 over every "
            "verdict, signature, cycle count and trace) to the report "
            "summary"
        ),
    )
    p_regress.add_argument(
        "--cache-prune",
        action="store_true",
        help=(
            "after the run, compact the result cache's log per "
            "--cache-max-* (verdict records past the bounds are dropped, "
            "the segments of finished writers folded into one) and "
            "print the cache accounting"
        ),
    )
    p_regress.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        help="prune: keep at most this many cached verdicts (oldest go)",
    )
    p_regress.add_argument(
        "--cache-max-age",
        type=float,
        default=None,
        help="prune: drop cached verdicts older than this many seconds",
    )
    p_regress.set_defaults(func=cmd_regress)

    p_port = sub.add_parser(
        "port", help="measure ADVM vs hardwired porting effort"
    )
    p_port.add_argument("--suite", type=int, default=4)
    p_port.add_argument("--base", default="sc88a")
    p_port.add_argument("--to", required=True)
    p_port.set_defaults(func=cmd_port)

    p_grep = sub.add_parser("grep-plan", help="search the test plans")
    p_grep.add_argument("directory")
    p_grep.add_argument("pattern")
    p_grep.set_defaults(func=cmd_grep_plan)

    p_check = sub.add_parser(
        "check", help="run the Figure 2 abuse checker on a module"
    )
    p_check.add_argument("directory")
    p_check.add_argument("module")
    p_check.add_argument("--derivative", default="sc88a")
    p_check.add_argument("--target", default="golden")
    p_check.set_defaults(func=cmd_check)

    p_serve = sub.add_parser(
        "serve", help="run the always-available regression daemon"
    )
    p_serve.add_argument("directory")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8787, help="0 picks a free port"
    )
    p_serve.add_argument(
        "--journal-dir",
        default=None,
        help=(
            "crash-safe job journal; accepted jobs replay from here "
            "after a restart"
        ),
    )
    p_serve.add_argument(
        "--cache-dir", default=None, help="shared persistent result cache"
    )
    p_serve.add_argument(
        "--store-dir",
        default=None,
        help=(
            "persistent artifact store root; a job loads an image's "
            "decode/superblock state from it on first use and "
            "persists what jobs warm up"
        ),
    )
    p_serve.add_argument(
        "--pool-size",
        type=int,
        default=12,
        help="max idle warm sessions kept between requests",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=8,
        help="admission bound; beyond it submissions shed with 503",
    )
    p_serve.add_argument(
        "--max-active",
        type=int,
        default=1,
        help="jobs executing concurrently (the rest wait admitted)",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="default per-job wall-clock deadline in seconds",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a scenario pack to a running daemon"
    )
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8787)
    p_submit.add_argument(
        "--pack", default=None, help="JSON scenario-pack file to submit"
    )
    p_submit.add_argument("--name", default="cli-submit")
    p_submit.add_argument("--module", default=None)
    p_submit.add_argument(
        "--cells", default=None, help="comma-separated test cell names"
    )
    p_submit.add_argument(
        "--targets", default=None, help="comma-separated target names"
    )
    p_submit.add_argument("--derivative", default="sc88a")
    p_submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-job wall-clock deadline in seconds",
    )
    p_submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="client-side socket timeout in seconds",
    )
    p_submit.set_defaults(func=cmd_submit)

    p_derivatives = sub.add_parser(
        "derivatives", help="list the derivative catalogue"
    )
    p_derivatives.set_defaults(func=cmd_derivatives)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
