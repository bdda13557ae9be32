"""Command-line interface: ``python -m repro <command>``.

Commands
--------
sign / verify
    Sign and verify real files/messages through the unified client API
    (``repro.api``): ``--transport local`` signs in-process,
    ``--transport pooled`` fans out across a worker pool, and
    ``--transport tcp`` drives a remote ``serve-async`` service over
    protocol v3 (or the ``--protocol 2`` JSON downgrade) — same flags,
    same output, any tier.
serve
    Drive the batch-signing runtime end-to-end: hand messages to the
    BatchScheduler, which signs them in batches of ``--batch-size`` on
    the selected backends as it is handed them, and report per-backend
    throughput.
serve-async
    Run the asyncio signing service: multi-tenant keystore,
    deadline-aware batching, admission control, a TCP wire protocol
    (every connection opens with ``hello``: JSON lines at v2, zero-copy
    binary frames with streamed sign-many at v3), and a ``stats`` verb.
serve-cluster
    Run a cluster router over N signing nodes: consistent-hash tenant
    placement, health-check-driven failover and shard re-homing, and
    the same northbound wire protocol as ``serve-async`` — either
    self-hosting N in-process nodes or fronting running ones.
loadtest
    Drive a signing service with a generated arrival trace (poisson /
    bursty / ramp) and print client latency percentiles plus the
    server's telemetry report.  Self-hosts a server unless ``--connect``
    names one.  ``--verify-fraction`` turns part of the trace into
    verify operations for verification-dominant workloads.
audit
    Replay a transparency log from its on-disk segments: re-verify
    every entry's batch signature, recompute every tree head, check the
    checkpoint chain and signatures (optionally byte-comparing against
    the reference scheme), and emit a JSON digest report.  Exit 0 when
    the log survives; exit 1 naming the first bad entry index.
conformance
    Run the conformance subsystem: the cross-backend differential oracle
    over an adversarial corpus (optionally with an injected hash fault),
    and the pinned KAT vector workflow (--check-kats / --regen-kats).
tune
    Run the Tree Tuning search for a parameter set and device.
model
    Model baseline vs HERO-Sign throughput for a device.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .errors import ReproError


class _Refused(Exception):
    """A command's arguments were refused: :func:`main` prints the one
    line and exits 2."""


@contextlib.contextmanager
def _usage(command: str):
    """Where a command builds its objects from its arguments, before
    anything starts or signs: a :class:`~repro.errors.ReproError` the
    library raises there (a bad tenant spec, parameter set, size, rate or
    budget) is a usage error, one stderr line and exit 2."""
    try:
        yield
    except ReproError as exc:
        raise _Refused(f"{command}: {exc}") from None


def _backend_names(spec: str) -> list[str]:
    """argparse type of ``serve --backends``: names from the runtime's
    table, so an unknown one exits 2 before anything is signed."""
    from .runtime.registry import BACKENDS

    names = [name.strip() for name in spec.split(",")]
    for name in names:
        if name not in BACKENDS:
            raise argparse.ArgumentTypeError(
                f"unknown backend {name!r}; known: {', '.join(BACKENDS)} "
                "(a worker pool is a size, --workers N, not a backend)")
    return names


def _parse_hostport(spec: str) -> tuple[str, int] | None:
    """``HOST:PORT`` -> (host, port); None when malformed."""
    host, sep, port = spec.rpartition(":")
    host = host.strip("[]") or "127.0.0.1"  # [::1]:7744 -> ::1
    if not sep or not port.isdigit():
        return None
    return host, int(port)


def _make_api_client(args: argparse.Namespace, command: str):
    """Open the repro.api client a sign/verify subcommand drives.

    Returns ``(client, exit_code)``; a non-None exit code means the
    arguments were unusable and the caller should return it.
    """
    from . import api

    if args.transport in ("tcp", "cluster"):
        ignored = [flag for flag, is_set in (
            ("--deterministic", args.deterministic),
            ("--keystore", bool(args.keystore)),
            ("--params", args.params != "128f"),
        ) if is_set]
        if ignored:
            print(f"{command}: note — ignoring {', '.join(ignored)} "
                  f"with --transport {args.transport}: keys, parameter "
                  "set, and signing mode belong to the server's tenant",
                  file=sys.stderr)
        target = _parse_hostport(args.connect or "127.0.0.1:7744")
        if target is None:
            print(f"{command}: --connect wants HOST:PORT, got "
                  f"{args.connect!r}", file=sys.stderr)
            return None, 2
        options = {}
        if getattr(args, "protocol", None):
            options["version"] = args.protocol
        try:
            return api.connect(args.transport, host=target[0],
                               port=target[1], **options), None
        except (ConnectionError, OSError, api.ServiceError) as exc:
            print(f"{command}: cannot reach {target[0]}:{target[1]} — "
                  f"{exc}", file=sys.stderr)
            return None, 2
    from .service import Keystore

    client = None
    # e.g. an unknown --params, a --keystore tenant pinned to a different
    # --params, or a quarantined corrupt tenant file.
    with _usage(command):
        try:
            keystore = Keystore(root=args.keystore) if args.keystore else None
            options = {"keystore": keystore,
                       "deterministic": args.deterministic}
            if args.transport == "pooled":
                options["workers"] = args.workers
            client = api.connect(args.transport, **options)
            # Local tiers own their keys: ensure the tenant exists
            # (deterministic runs derive the key from "<tenant>/<key>",
            # matching the service CLI).
            client.add_tenant(args.tenant, args.params, key=args.key)
        except BaseException:
            if client is not None:
                client.close()  # it owns worker processes
            raise
    return client, None


def _read_message(args: argparse.Namespace) -> bytes:
    if args.file:
        with open(args.file, "rb") as handle:
            return handle.read()
    return args.message.encode()


def _cmd_sign(args: argparse.Namespace) -> int:
    from .errors import ServiceError

    client, exit_code = _make_api_client(args, "sign")
    if client is None:
        return exit_code
    try:
        with client:
            message = _read_message(args)
            result = client.sign(args.tenant, message, key=args.key)
            verdict = client.verify(args.tenant, message, result.signature,
                                    key=args.key)
            print(f"parameter set : {result.params}")
            print(f"transport     : {result.transport} "
                  f"(backend {result.backend})")
            print(f"tenant / key  : {result.tenant} / {result.key}")
            print(f"message bytes : {len(message)}")
            print(f"signature     : {len(result.signature)} bytes")
            if hasattr(client, "keystore"):
                # Local tiers: without this, an ephemeral key's signature
                # could never be verified out-of-band.
                keys, _ = client.keystore.resolve(args.tenant, args.key)
                print(f"public key    : {keys.public.hex()}")
            print(f"self-verify   : {verdict.valid}")
            if args.out:
                with open(args.out, "wb") as handle:
                    handle.write(result.signature)
                print(f"wrote {args.out}")
    except (ServiceError, OSError) as exc:
        print(f"sign: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .errors import ServiceError

    client, exit_code = _make_api_client(args, "verify")
    if client is None:
        return exit_code
    try:
        with client:
            message = _read_message(args)
            with open(args.sig, "rb") as handle:
                signature = handle.read()
            verdict = client.verify(args.tenant, message, signature,
                                    key=args.key)
            print(f"parameter set : {verdict.params}")
            print(f"transport     : {verdict.transport}")
            print(f"tenant / key  : {verdict.tenant} / {verdict.key}")
            print(f"message bytes : {len(message)}")
            print(f"signature     : {len(signature)} bytes")
            print(f"valid         : {verdict.valid}")
    except (ServiceError, OSError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    return 0 if verdict.valid else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .runtime import BatchScheduler, WorkerPool

    if args.messages < 1:
        print("serve: --messages must be >= 1", file=sys.stderr)
        return 2
    if args.batch_size < 0:
        print("serve: --batch-size must be >= 0", file=sys.stderr)
        return 2
    if args.workers < 0:
        print("serve: --workers must be >= 0", file=sys.stderr)
        return 2
    # The one backend with a layer cache to budget and a plan to put on a
    # pool; a pool under the rest would fake the comparison asked for.
    options = {"cache_budget_mb": args.cache_budget_mb}
    pool = contextlib.nullcontext()
    if args.workers > 0:
        if args.backends != ["vectorized"]:
            print("serve: --workers takes exactly one --backends entry, "
                  "vectorized (the backend whose plan the pool runs), "
                  f"got {','.join(args.backends)!r}", file=sys.stderr)
            return 2
        pool = options["pool"] = WorkerPool(args.workers)
    with pool:
        scheduler = BatchScheduler(
            target_batch_size=args.batch_size or args.messages,
            deterministic=args.deterministic,
            verify=args.verify,
            backend_options={"vectorized": options},
        )
        runs = [(params, backend) for params in args.params.split(",")
                for backend in args.backends]
        with _usage("serve"):  # every backend is built before one signs
            for params, backend in runs:
                scheduler.backend_for(params.strip(), backend)
        for params, backend in runs:
            scheduler.run(
                (f"{params}/{backend}/msg{i}".encode()
                 for i in range(args.messages)),
                params=params.strip(), backend=backend,
            )
    print(scheduler.report(
        title=f"Batch signing runtime, {args.messages} messages per "
              f"(set, backend)"
    ))
    if any(stats.verified is False for stats in scheduler.batches):
        print("serve: a batch failed verification", file=sys.stderr)
        return 1
    return 0


def _parse_tenants(spec: str) -> list[tuple[str, str]]:
    """Parse ``name:params,name:params`` (params optional, default 128f)."""
    tenants = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, params = item.partition(":")
        tenants.append((name.strip(), params.strip() or "128f"))
    return tenants


def _build_keystore(args: argparse.Namespace):
    """The tenant registry a serve-async/serve-cluster run provisions."""
    from .service import Keystore, derive_seed
    from .params import get_params

    keystore = Keystore(root=args.keystore or None)
    for name, params in _parse_tenants(args.tenants):
        keystore.add_tenant(name, params, exist_ok=True)
        seed = (derive_seed(f"{name}/default", get_params(params).n)
                if args.deterministic else None)
        keystore.generate_key(name, "default", seed=seed, exist_ok=True)
    return keystore


def _build_service(args: argparse.Namespace, keystore=None):
    """The SigningService a serve-async/loadtest run or a self-hosted
    serve-cluster node fronts; no ``--workers`` is ``auto_workers()``."""
    from .runtime.pool import auto_workers
    from .service import SigningService

    if keystore is None:
        keystore = _build_keystore(args)
    tracer = None
    if getattr(args, "trace_out", None):
        from .obs import Tracer

        tracer = Tracer(out_path=args.trace_out)
    if getattr(args, "log_json", None):
        from .obs import configure_logging

        configure_logging(args.log_json)
    return SigningService(
        keystore,
        target_batch_size=args.batch_size,
        max_wait_s=args.max_wait_ms / 1000.0,
        max_pending=args.max_pending,
        deterministic=args.deterministic,
        workers=auto_workers() if args.workers is None else args.workers,
        cache_budget_mb=args.cache_budget_mb,
        tracer=tracer,
    )


def _run_service(main) -> int:
    """``asyncio.run(main())`` with SIGTERM handled like Ctrl-C: the main
    task is cancelled, so its ``finally`` blocks stop the servers and
    close the worker pool instead of leaving its processes behind."""
    import asyncio
    import signal

    async def guarded():
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel)
        return await main()

    try:
        return asyncio.run(guarded())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("\nshutting down")
        return 0


def _start_metrics(args: argparse.Namespace, service):
    """Start the Prometheus endpoint when --metrics-port was given."""
    port = getattr(args, "metrics_port", None)
    if port is None:
        return None
    from .obs import MetricsServer

    endpoint = MetricsServer(service.metrics_registry, port=port).start()
    print(f"metrics endpoint on http://127.0.0.1:{endpoint.port}/metrics")
    return endpoint


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tenants", default="demo:128f",
                        help="comma-separated name:params tenant specs")
    parser.add_argument("--keystore", default=None,
                        help="keystore directory (default: in-memory)")
    parser.add_argument("--batch-size", type=int, default=16,
                        help="most requests one batch signs")
    parser.add_argument("--max-wait-ms", type=float, default=100.0,
                        help="default latency budget (orders queues)")
    parser.add_argument("--max-pending", type=int, default=256,
                        help="shed requests beyond this queue depth")
    parser.add_argument("--workers", type=int, default=None,
                        help="size of the multi-process worker pool "
                             "(0 = sign in-process; default: serve-async "
                             "and each self-hosted serve-cluster node "
                             "take one worker per CPU it may run on "
                             "when there are two or more; loadtest's "
                             "self-hosted service signs in-process)")
    parser.add_argument("--deterministic", action="store_true",
                        help="deterministic backends and tenant key seeds")
    parser.add_argument("--cache-budget-mb", type=float, default=None,
                        help="layer-cache budget in MiB per parameter "
                             "set, all its keys together (default: 32)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="export request spans as JSONL to PATH "
                             "(enables end-to-end tracing)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve Prometheus /metrics on PORT "
                             "(0 picks a free port)")
    parser.add_argument("--log-json", default=None, metavar="DEST",
                        help="structured JSON logs to DEST "
                             "('-' for stderr, else a file path)")


def _cmd_serve_async(args: argparse.Namespace) -> int:
    import asyncio

    from .service import SigningServer

    async def run() -> int:
        # Workers are forked here, before the port is announced.
        with _usage("serve-async"):
            service = _build_service(args)
        server = SigningServer(service, host=args.host, port=args.port)
        await server.start()
        metrics = _start_metrics(args, service)
        config = service.stats()["config"]
        print(f"signing service listening on {args.host}:{server.port}")
        print(f"  tenants       : {config['tenants']}")
        print(f"  backend       : {config['backend']}"
              + (f" on a {config['workers']}-process worker pool"
                 if config["workers"] else ""))
        print(f"  batching      : <= {config['target_batch_size']} per batch, "
              "one at a time, earliest deadline first (deadline_ms, "
              f"else enqueue + {config['max_wait_ms']} ms), "
              f"shed above {config['max_pending']} queued")
        if config.get("cache_budget_mb") is not None:
            print(f"  layer cache   : {config['cache_budget_mb']} MiB/set "
                  "budget, pinned subtrees filled as paths need them")
        if args.trace_out:
            print(f"  tracing       : spans -> {args.trace_out}")
        print("  protocol      : v3 binary frames with streamed "
              "sign-many, or v2 JSON lines, after a mandatory hello "
              "(verbs: sign, sign-many, verify, keys, stats, metrics, "
              "ping); Ctrl-C to stop")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()
            if metrics is not None:
                metrics.close()
            if service.tracer is not None:
                service.tracer.close()
        return 0

    return _run_service(run)


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    import asyncio

    from .cluster import ClusterRouter, LocalCluster, RouterService
    from .errors import ServiceError

    spec = args.nodes.strip()

    async def run() -> int:
        cluster = None
        metrics = None
        if spec.isdigit():
            # Self-hosted fleet: N in-process nodes sharing one keystore
            # (identical keys on every node — a re-homed tenant signs
            # and verifies the same either way), each with its own pool.
            count = int(spec)
            if count < 1:
                print("serve-cluster: --nodes must be >= 1",
                      file=sys.stderr)
                return 2
            with _usage("serve-cluster"):  # every node's service too
                keystore = _build_keystore(args)
                cluster = LocalCluster(
                    [lambda: _build_service(args, keystore=keystore)]
                    * count, host=args.host, port=args.port,
                    max_retries=args.max_retries,
                    health_interval_s=args.health_interval_ms / 1000.0)
                await cluster.start()
            router = cluster.router
            print(f"cluster router listening on {args.host}:{cluster.port}")
            pool = cluster.services[0].pool
            print(f"  nodes         : {count} in-process, ports "
                  + ", ".join(str(s.port) for s in cluster.servers)
                  + (f"; a {pool.workers}-process worker pool each"
                     if pool is not None else ""))
        else:
            # Front an existing fleet: --nodes host:port,host:port,...
            addresses = []
            for item in spec.split(","):
                target = _parse_hostport(item.strip())
                if target is None:
                    print("serve-cluster: --nodes wants a node count or "
                          f"HOST:PORT list, got {item.strip()!r}",
                          file=sys.stderr)
                    return 2
                addresses.append(target)
            with _usage("serve-cluster"):
                keystore = _build_keystore(args)
            service = RouterService(
                addresses, keystore,
                max_retries=args.max_retries,
                health_interval_s=args.health_interval_ms / 1000.0)
            router = ClusterRouter(service, host=args.host, port=args.port)
            await router.start()
            print(f"cluster router listening on {args.host}:{router.port}")
            print("  nodes         : "
                  + ", ".join(f"{h}:{p}" for h, p in addresses))
        assert router is not None
        metrics = _start_metrics(args, router.service)
        stats = router.service.stats()["cluster"]
        print(f"  live nodes    : {stats['live_nodes']}"
              f"/{len(stats['nodes'])}")
        print(f"  placement     : consistent hashing on tenant name, "
              f"{args.max_retries} failover retries, health check every "
              f"{args.health_interval_ms:g} ms")
        print("  protocol      : v2/v3 northbound after hello (same verbs "
              "as serve-async, plus the 'unavailable' error code); "
              "Ctrl-C to stop")
        try:
            await router.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            if cluster is not None:
                await cluster.stop()
            else:
                await router.stop()
            if metrics is not None:
                metrics.close()
        return 0

    try:
        return _run_service(run)
    except ServiceError as exc:
        print(f"serve-cluster: {exc}", file=sys.stderr)
        return 2


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import asyncio

    from .api import AsyncClient
    from .service import (LoadGenerator, SigningServer, make_trace,
                          render_snapshot)

    host = port = None
    if args.connect:
        target = _parse_hostport(args.connect)
        if target is None:
            print(f"loadtest: --connect wants HOST:PORT, got "
                  f"{args.connect!r}", file=sys.stderr)
            return 2
        host, port = target
    if args.messages < 1:
        print("loadtest: --messages must be >= 1", file=sys.stderr)
        return 2
    tenants = _parse_tenants(args.tenants)
    if not tenants:
        print("loadtest: --tenants must name at least one tenant",
              file=sys.stderr)
        return 2
    tenant = tenants[0][0]
    client = seeded = None  # bound by run(), before the first request
    seed_message = b"loadgen verify seed"

    async def signer(message: bytes):
        return await client.sign(tenant, message,
                                 deadline_ms=args.deadline_ms)

    async def verifier(message: bytes):
        # One seeded (message, signature) pair backs every verify op:
        # SPHINCS+ verification cost does not depend on which valid pair
        # is checked, so the load profile is what matters.
        return await client.verify(tenant, seed_message, seeded.signature)

    with _usage("loadtest"):
        offsets = make_trace(args.trace, args.messages, args.rate,
                             seed=args.seed)
        generator = LoadGenerator(signer, verifier=verifier,
                                  verify_fraction=args.verify_fraction,
                                  seed=args.seed)

    async def run() -> int:
        nonlocal client, seeded
        server = None
        metrics = None
        version = args.protocol or 3
        if args.connect:
            client = await AsyncClient.connect(host, port, version=version)
        else:
            with _usage("loadtest"):
                service = _build_service(args)
            server = SigningServer(service, port=0)
            await server.start()
            metrics = _start_metrics(args, server.service)
            print(f"self-hosted signing service on 127.0.0.1:{server.port}")
            client = await AsyncClient.connect(port=server.port,
                                               version=version)
        print(f"wire protocol : v{client.info().protocol_version}"
              + (" (binary frames, streamed sign-many)"
                 if client.info().protocol_version >= 3
                 else " (JSON lines)"))

        try:
            if args.verify_fraction > 0.0:
                seeded = await client.sign(tenant, seed_message)
            print(f"replaying {args.messages} requests, trace "
                  f"{args.trace!r} at ~{args.rate}/s "
                  f"(tenant {tenant!r}"
                  + (f", {args.verify_fraction:.0%} verifies"
                     if args.verify_fraction > 0.0 else "")
                  + ")...")
            report = await generator.run(offsets, trace=args.trace)
            stats = await client.stats()
        finally:
            await client.close()
            if server is not None:
                await server.stop()
                if metrics is not None:
                    metrics.close()
                tracer = server.service.tracer
                if tracer is not None:
                    tracer.close()
                    print(f"\n{len(tracer.spans())} spans across "
                          f"{len(tracer.traces())} traces -> "
                          f"{args.trace_out} "
                          "(render with: repro trace --input "
                          f"{args.trace_out})")
        print()
        print(report.table())
        print()
        print(render_snapshot(stats, title="Server telemetry"))
        return 0 if report.failed == 0 else 1

    return _run_service(run)


def _cmd_audit(args: argparse.Namespace) -> int:
    """Replay a transparency log and verify every tree head.

    Exit 0 when the whole log re-verifies; exit 1 (naming the first bad
    entry index on stderr) when any entry signature, tree head, chain
    link, or checkpoint signature fails the replay.
    """
    import json

    from .errors import LedgerError
    from .ledger import run_audit
    from .service import Keystore

    try:
        report = run_audit(args.root, Keystore(root=args.keystore),
                           tenant=args.tenant, key=args.key,
                           deterministic=args.deterministic)
    except LedgerError as exc:
        print(f"audit: {exc}", file=sys.stderr)
        return 2
    rendered = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
        print(f"digest report -> {args.out}")
    else:
        print(rendered)
    if report["ok"]:
        return 0
    where = report["first_bad_index"]
    print("audit: log failed verification"
          + (f" (first bad entry index: {where})" if where is not None
             else "")
          + f" — {len(report['problems'])} problem(s)", file=sys.stderr)
    return 1


def _cmd_conformance(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .errors import ConformanceError, ParameterError
    from .testing import (DifferentialOracle, KAT_SETS, check_kat,
                          generate_kat, parse_fault)

    vectors_dir = Path(args.vectors_dir) if args.vectors_dir else None
    params_list = ([p.strip() for p in args.params.split(",") if p.strip()]
                   if args.params else [])

    # Exit-code contract: 0 clean, 1 conformance failure (divergence /
    # KAT drift), 2 misconfiguration (unknown set, bad fault spec, fault
    # armed but never fired).
    try:
        if args.regen_kats:
            for params in (params_list or list(KAT_SETS)):
                path = generate_kat(params, vectors_dir)
                print(f"wrote {path}")
            return 0

        if args.check_kats:
            failed = False
            for params in (params_list or list(KAT_SETS)):
                problems = check_kat(params, vectors_dir)
                if problems:
                    failed = True
                    for problem in problems:
                        print(f"KAT DRIFT: {problem}")
                else:
                    print(f"kat {params}: ok")
            return 1 if failed else 0

        fault = parse_fault(args.inject_fault) if args.inject_fault else None
    except (ConformanceError, ParameterError) as exc:
        print(f"conformance: {exc}", file=sys.stderr)
        return 2

    backends = ([b.strip() for b in args.backends.split(",") if b.strip()]
                if args.backends else None)
    exit_code = 0
    for params in (params_list or ["128f"]):
        try:
            oracle = DifferentialOracle(
                params, backends=backends, seed=args.seed, smoke=args.smoke,
                fault=fault)
            report = oracle.run()
        except (ConformanceError, ParameterError) as exc:
            print(f"conformance: {exc}", file=sys.stderr)
            return 2
        print(report.render())
        if fault is not None and not report.fault_fired:
            print(f"conformance: fault {fault.spec} armed but never fired "
                  f"(only {fault.calls_seen} {fault.target} calls)",
                  file=sys.stderr)
            exit_code = 2
        if not report.passed:
            divergence = report.first_divergence()
            if divergence is not None:
                print(f"conformance: FAILED — first divergence at "
                      f"{divergence.stage} ({divergence.path}, "
                      f"case {divergence.case})", file=sys.stderr)
            else:
                print("conformance: FAILED — see report above",
                      file=sys.stderr)
            exit_code = max(exit_code, 1)
        else:
            print(f"conformance: {params} ok — all paths byte-identical "
                  "and verified")
    return exit_code


def _cmd_tune(args: argparse.Namespace) -> int:
    from .core.fusion import plan_fors
    from .gpusim.device import get_device
    from .params import get_params

    with _usage("tune"):
        device = get_device(args.device)
        params = get_params(args.params)
        plan = plan_fors(
            params, device.shared_mem_per_block_static,
            hard_limit=device.shared_mem_per_block_optin,
        )
    print(f"{params.name} on {device.name} ({device.architecture})")
    print(f"  threads/block : {plan.threads_per_block}")
    print(f"  trees per set : {plan.n_tree}")
    print(f"  fusion F      : {plan.fusion_f}")
    print(f"  relax-FORS    : {plan.relax}")
    print(f"  shared memory : {plan.smem_per_block} B (padded)")
    print(f"  barriers      : {plan.sync_points}")
    if plan.tuning:
        print("  near-optimal candidates:")
        for cand in plan.tuning.top(5):
            print(f"    (T_set={cand.t_set}, F={cand.f}) "
                  f"sync={cand.sync_points} U_T={cand.u_t:.3f} "
                  f"U_S={cand.u_s:.3f}")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    from .core.batch import end_to_end_kops
    from .gpusim.device import get_device
    from .params import get_params

    # Exit codes: 0 modelled, 2 unusable input (unknown device or set, a
    # workload the model cannot launch) — one line on stderr, no table.
    with _usage("model"):
        device = get_device(args.device)
        params = get_params(args.params)
        results = end_to_end_kops(params, device, args.messages,
                                  args.batches)
    print(f"{params.name} on modeled {device.name}, "
          f"{args.messages} messages:")
    for mode, result in results.items():
        print(f"  {mode:15s} {result.kops:8.2f} KOPS   "
              f"launch {result.launch_latency_us:7.1f} us")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import load_spans, render_critical_path

    # Exit codes: 0 report rendered, 2 unusable input (missing /
    # unreadable file, or a file with no parseable spans) — one line on
    # stderr either way, never a traceback.
    try:
        spans = load_spans(args.input)
    except OSError as exc:
        print(f"trace: cannot read {args.input!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    if not spans:
        print(f"trace: no spans in {args.input!r}", file=sys.stderr)
        return 2
    print(render_critical_path(spans, top=args.top))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_transport_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--transport", default="local",
                       choices=("local", "pooled", "tcp", "cluster"),
                       help="execution tier behind the repro.api facade")
        p.add_argument("--connect", default=None, metavar="HOST:PORT",
                       help="target service for --transport tcp/cluster "
                            "(default 127.0.0.1:7744)")
        p.add_argument("--protocol", type=int, default=None,
                       choices=(2, 3),
                       help="wire protocol to offer for --transport "
                            "tcp/cluster (default: v3 binary frames, with "
                            "automatic downgrade to v2 JSON lines)")
        p.add_argument("--workers", type=int, default=2,
                       help="worker-pool size for --transport pooled")
        p.add_argument("--tenant", default="cli",
                       help="tenant name (local tiers auto-provision it)")
        p.add_argument("--key", default="default", help="named tenant key")
        p.add_argument("--keystore", default=None,
                       help="keystore directory for local tiers "
                            "(default: ephemeral in-memory keys)")
        p.add_argument("--params", default="128f")
        p.add_argument("--message", default="hello post-quantum world")
        p.add_argument("--file", default=None)
        p.add_argument("--deterministic", action="store_true")

    p_sign = sub.add_parser(
        "sign", help="sign a message/file through the unified client API")
    _add_transport_args(p_sign)
    p_sign.add_argument("--out", default=None)
    p_sign.set_defaults(func=_cmd_sign)

    p_verify = sub.add_parser(
        "verify",
        help="verify a signature through the unified client API")
    _add_transport_args(p_verify)
    p_verify.add_argument("--sig", required=True,
                          help="signature file to check")
    p_verify.set_defaults(func=_cmd_verify)

    p_serve = sub.add_parser(
        "serve", help="run the batch-signing runtime end-to-end")
    p_serve.add_argument("--params", default="128f",
                         help="comma-separated parameter sets")
    p_serve.add_argument("--backends", default="vectorized",
                         type=_backend_names,
                         help="comma-separated backend names: scalar, "
                              "vectorized")
    p_serve.add_argument("--messages", type=int, default=4,
                         help="messages per (set, backend)")
    p_serve.add_argument("--batch-size", type=int, default=0,
                         help="scheduler target batch size (default: all)")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="run batches on a multi-process worker pool "
                              "of this size (0 = in-process)")
    p_serve.add_argument("--deterministic", action="store_true")
    p_serve.add_argument("--cache-budget-mb", type=float, default=None,
                         help="layer-cache budget in MiB per parameter "
                              "set, all its keys together (default: 32)")
    p_serve.add_argument("--verify", action="store_true",
                         help="verify every batch after signing")
    p_serve.set_defaults(func=_cmd_serve)

    p_serve_async = sub.add_parser(
        "serve-async",
        help="run the asyncio signing service over TCP")
    p_serve_async.add_argument("--host", default="127.0.0.1")
    p_serve_async.add_argument("--port", type=int, default=7744,
                               help="TCP port (0 picks a free one)")
    _add_service_args(p_serve_async)
    p_serve_async.set_defaults(func=_cmd_serve_async)

    p_serve_cluster = sub.add_parser(
        "serve-cluster",
        help="run a cluster router over N signing nodes")
    p_serve_cluster.add_argument("--host", default="127.0.0.1")
    p_serve_cluster.add_argument("--port", type=int, default=7744,
                                 help="router TCP port (0 picks a free one)")
    p_serve_cluster.add_argument(
        "--nodes", default="2", metavar="N|HOST:PORT,...",
        help="node count to self-host in-process (default 2), or a "
             "comma-separated HOST:PORT list of running serve-async "
             "nodes to front")
    p_serve_cluster.add_argument("--max-retries", type=int, default=2,
                                 help="failover attempts after the "
                                      "primary node (default 2)")
    p_serve_cluster.add_argument("--health-interval-ms", type=float,
                                 default=500.0,
                                 help="node liveness probe cadence")
    _add_service_args(p_serve_cluster)
    p_serve_cluster.set_defaults(func=_cmd_serve_cluster)

    p_loadtest = sub.add_parser(
        "loadtest",
        help="drive a signing service with a generated arrival trace")
    p_loadtest.add_argument("--connect", default=None, metavar="HOST:PORT",
                            help="target service (default: self-host one)")
    p_loadtest.add_argument("--trace", default="poisson",
                            choices=("poisson", "bursty", "ramp"))
    p_loadtest.add_argument("--messages", type=int, default=32)
    p_loadtest.add_argument("--rate", type=float, default=20.0,
                            help="mean arrival rate, requests/second")
    p_loadtest.add_argument("--deadline-ms", type=float, default=None,
                            help="per-request latency budget")
    p_loadtest.add_argument("--seed", type=int, default=0)
    p_loadtest.add_argument("--protocol", type=int, default=None,
                            choices=(2, 3),
                            help="wire protocol to offer (default: v3 "
                                 "binary frames, auto-downgrade to v2)")
    p_loadtest.add_argument("--verify-fraction", type=float, default=0.0,
                            metavar="F",
                            help="turn this fraction of requests into "
                                 "verify operations (0.9 models "
                                 "verification-dominant traffic)")
    _add_service_args(p_loadtest)
    p_loadtest.set_defaults(func=_cmd_loadtest, workers=0)

    p_audit = sub.add_parser(
        "audit",
        help="replay a transparency log, re-verify every tree head")
    p_audit.add_argument("--root", required=True,
                        help="ledger directory (segments/ + checkpoints/)")
    p_audit.add_argument("--keystore", required=True,
                        help="keystore directory holding the log "
                             "tenant's keys")
    p_audit.add_argument("--tenant", default="ledger",
                        help="log signing tenant (default: ledger)")
    p_audit.add_argument("--key", default="default")
    p_audit.add_argument("--deterministic", action="store_true",
                        help="additionally re-sign each checkpoint body "
                             "on the reference scheme and byte-compare "
                             "(the differential-oracle cross-check)")
    p_audit.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON digest report to PATH "
                             "(default: stdout)")
    p_audit.set_defaults(func=_cmd_audit)

    p_conf = sub.add_parser(
        "conformance",
        help="differential oracle, KAT pinning, and fault injection")
    p_conf.add_argument("--params", default=None,
                        help="comma-separated parameter sets (oracle "
                             "default: 128f; KAT commands default to all "
                             "four pinned sets)")
    p_conf.add_argument("--backends", default=None,
                        help="comma-separated backend names "
                             "(default: scalar, vectorized, pooled)")
    p_conf.add_argument("--smoke", action="store_true",
                        help="small corpus")
    p_conf.add_argument("--seed", type=int, default=0,
                        help="corpus generation seed")
    p_conf.add_argument("--inject-fault", default=None, metavar="SPEC",
                        help="install a deterministic fault and require "
                             "the run to fail naming the stage: "
                             "'thash:bitflip[:call:bit]' or 'prf:...' on "
                             "the scalar backend's hashes, 'cache:flip', "
                             "'memo:flip', 'verify:...' or 'plan:...'")
    p_conf.add_argument("--check-kats", action="store_true",
                        help="verify the pinned KAT vectors, report drift")
    p_conf.add_argument("--regen-kats", action="store_true",
                        help="rewrite the pinned KAT vectors")
    p_conf.add_argument("--vectors-dir", default=None,
                        help="KAT vector directory (default: tests/vectors)")
    p_conf.set_defaults(func=_cmd_conformance)

    p_tune = sub.add_parser("tune", help="run the Tree Tuning search")
    p_tune.add_argument("--params", default="128f")
    p_tune.add_argument("--device", default="RTX 4090")
    p_tune.set_defaults(func=_cmd_tune)

    p_model = sub.add_parser("model", help="model throughput on a device")
    p_model.add_argument("--params", default="128f")
    p_model.add_argument("--device", default="RTX 4090")
    p_model.add_argument("--messages", type=int, default=1024)
    p_model.add_argument("--batches", type=int, default=8)
    p_model.set_defaults(func=_cmd_model)

    p_trace = sub.add_parser(
        "trace",
        help="critical-path breakdown of a --trace-out span export")
    p_trace.add_argument("--input", required=True, metavar="PATH",
                         help="JSONL span export written by --trace-out")
    p_trace.add_argument("--top", type=int, default=10,
                         help="show the N slowest requests (default 10)")
    p_trace.set_defaults(func=_cmd_trace)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Refused as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
