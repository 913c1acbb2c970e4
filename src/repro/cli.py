"""Command-line interface: ``python -m repro <command>``.

Commands mirror the tool chain a user drives interactively:

* ``describe``  — AST → natural language for a Verilog file (Fig 5)
* ``check``     — yosys-style lint
* ``simulate``  — run a (testbench-containing) file, optional VCD out
* ``synth``     — gate-level synthesis report
* ``flow``      — full RTL-to-GDS flow + PPA report
* ``augment``   — run the augmentation pipeline over Verilog files
* ``augment-dist`` — sharded/parallel/cache-aware augmentation
  over files or directories (``--jobs``, ``--cache-dir``)
* ``agent``     — run the Fig-1 agent loop on a named benchmark problem
* ``train``     — checkpointed finetuning over a corpus
  (``repro.train``): loads through the shard cache, resumes from
  ``--checkpoint-dir``, writes a trained-model artefact (``--out``)
* ``evaluate``  — run one benchmark suite on the shared evaluation
  engine (``--suite``, ``--models``, ``--jobs``, ``--cache-dir``,
  ``--k``, ``--sim-backend compiled|interp``, ``--artifact`` to score
  a trained model)
* ``tables``    — regenerate the paper's tables/figures (``--only``
  computes just the requested ones; ``--jobs``/``--cache-dir`` reach
  Tables 3–5 through the engine)
* ``serve``     — run the crash-safe job daemon (``repro.serve``):
  augmentation, evaluation, simulation and experiments as journaled,
  resumable jobs behind the asyncio multi-tenant JSON HTTP gateway
  (tenant rate limits/quotas via ``X-Repro-Tenant``, SSE job streams,
  429 + ``Retry-After`` backpressure — see ``repro.serve.gateway``)
* ``submit`` / ``status`` / ``result`` / ``cancel`` — client commands
  talking to a running daemon (``--url``, ``--tenant``)
* ``pipeline``  — submit augment → train → evaluate to the daemon as
  one dependency DAG; the evaluate stage scores the freshly trained
  model
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def cmd_describe(args: argparse.Namespace) -> int:
    from .nl import describe_source
    print(describe_source(_read(args.file)).annotated())
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .checker import check_source
    result = check_source(_read(args.file), args.file)
    print(result.report())
    return 0 if result.ok else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    from .sim import run_simulation
    result = run_simulation(_read(args.file), top=args.top,
                            trace=args.vcd is not None,
                            backend=args.sim_backend)
    if not result.ok:
        print(result.error, file=sys.stderr)
        return 1
    print(result.output)
    print(f"-- finished={result.finished} time={result.time}")
    if args.vcd and result.vcd:
        with open(args.vcd, "w", encoding="utf-8") as handle:
            handle.write(result.vcd)
        print(f"-- wrote {args.vcd}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from .eda import SynthesisError, synthesize
    try:
        result = synthesize(_read(args.file), top=args.top)
    except SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return 1
    print(f"module:        {result.netlist.module}")
    print(f"cells:         {result.num_cells}")
    for kind, count in sorted(result.cell_counts.items()):
        print(f"  {kind:<8} {count}")
    print(f"area:          {result.area_um2:.1f} um^2")
    print(f"critical path: {result.critical_path_ns:.3f} ns "
          f"(fmax {result.fmax_mhz:.1f} MHz)")
    if args.netlist:
        from .eda.netlist_writer import netlist_to_verilog
        with open(args.netlist, "w", encoding="utf-8") as handle:
            handle.write(netlist_to_verilog(result.netlist))
        print(f"-- wrote {args.netlist}")
    return 0


def cmd_flow(args: argparse.Namespace) -> int:
    from .eda import Flow, FlowConstraints
    constraints = FlowConstraints(clock_period_ns=args.clock)
    result = Flow().run(_read(args.file), args.top, constraints)
    print(result.summary())
    return 0 if result.ok else 1


def _augment_config(args: argparse.Namespace):
    from .core import PipelineConfig
    if args.completion_only:
        return PipelineConfig.completion_only()
    return PipelineConfig(seed=args.seed)


def _run_augment(args: argparse.Namespace, paths: list[str]) -> int:
    """Shared driver for ``augment`` and ``augment-dist``.

    Both stream files through :mod:`repro.scale` — sources are read
    per-shard inside the workers, never held in memory as one corpus —
    and merge in canonical (content-digest) order, so serial and
    distributed runs write byte-identical JSONL.
    """
    from .core import dataset_stats, render_table2
    from .scale import augment_distributed
    from .scale.store import DEFAULT_NUM_SHARDS
    report = augment_distributed(
        paths, config=_augment_config(args), jobs=args.jobs,
        cache_dir=args.cache_dir,
        num_shards=(args.shards if args.shards is not None
                    else DEFAULT_NUM_SHARDS))
    print(render_table2(dataset_stats(report.dataset)))
    print(f"-- {report.summary()}")
    if args.out:
        report.dataset.save(args.out)
        print(f"-- wrote {len(report.dataset)} records to {args.out}")
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    return _run_augment(args, list(args.files))


def cmd_augment_dist(args: argparse.Namespace) -> int:
    return _run_augment(args, list(args.paths))


def cmd_agent(args: argparse.Namespace) -> int:
    from .agent import ChipAgent
    from .bench import rtllm_suite, thakur_suite
    problems = {p.name: p for p in list(thakur_suite())
                + list(rtllm_suite())}
    if args.problem not in problems:
        print(f"unknown problem '{args.problem}'; choose from: "
              f"{', '.join(sorted(problems))}", file=sys.stderr)
        return 2
    agent = ChipAgent(args.model, run_flow=args.gds)
    result = agent.build(problems[args.problem])
    print(result.transcript)
    print(f"-- {'PASSED' if result.passed else 'FAILED'} in "
          f"{result.rounds} round(s)")
    return 0 if result.passed else 1


#: Train knobs shared by `train`, `submit train` and `pipeline`
#: (None = not given; the spec normaliser / TrainConfig defaults fill
#: the gaps).
_TRAIN_KNOBS = ("epochs", "batch_size", "micro_batch", "seq_len", "lr",
                "train_seed", "vocab_size", "d_model", "n_heads",
                "n_layers", "d_ff", "max_records", "checkpoint_every")


def _train_knobs(args: argparse.Namespace) -> dict:
    """The train knobs the user actually set (``--max-records 0`` means
    unlimited)."""
    knobs = {name: getattr(args, name) for name in _TRAIN_KNOBS
             if getattr(args, name) is not None}
    if knobs.get("max_records") == 0:
        knobs["max_records"] = None
    return knobs


def cmd_train(args: argparse.Namespace) -> int:
    from .scale.store import DEFAULT_NUM_SHARDS
    from .train import (TrainConfig, build_artifact, corpus_dataset,
                        train_run)
    knobs = _train_knobs(args)
    config = _augment_config(args)
    dataset, scale_report = corpus_dataset(
        list(args.paths), config=config, cache_dir=args.cache_dir,
        jobs=args.jobs,
        num_shards=(args.shards if args.shards is not None
                    else DEFAULT_NUM_SHARDS))
    seed = knobs.pop("train_seed", None)
    train_config = TrainConfig(**knobs)
    if seed is not None:
        train_config.seed = seed
    report = train_run(dataset, train_config,
                       checkpoint_dir=args.checkpoint_dir)
    print(f"-- corpus: {scale_report.summary()}")
    print(f"-- train: {report.summary()}")
    if args.out:
        artifact = build_artifact(args.register_as, report, dataset)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-- wrote artefact to {args.out}")
    if args.report_out:
        blob = {"steps": report.steps, "records": report.records,
                "losses": report.losses,
                "val_losses": report.val_losses,
                "final_loss": report.final_loss,
                "weights_sha256": report.weights_sha256,
                "dataset_digest": report.dataset_digest,
                "trained_tokens": report.trained_tokens}
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(blob, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-- wrote report to {args.report_out}")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Submit augment → train → evaluate as one DAG and (optionally)
    wait for the evaluation of the freshly trained model.

    The DAG is the built-in :func:`repro.flow.pipeline_flow` spec,
    submitted whole through ``/api/flow`` — one journal group commit
    instead of three submits.
    """
    from .flow import pipeline_flow
    from .serve import ServeError
    client = _client(args)
    flow = pipeline_flow(
        paths=[os.path.abspath(p) for p in args.paths],
        seed=args.seed, completion_only=args.completion_only,
        train_knobs=_train_knobs(args),
        register_as=args.register_as, suite=args.suite,
        models=args.models.split(",") if args.models else None,
        samples=args.samples, k=args.k,
        levels=args.levels.split(",") if args.levels else None,
        sim_backend=args.sim_backend, priority=args.priority)
    try:
        submitted = client.submit_flow(flow)
    except ServeError as exc:
        print(f"pipeline submit failed: {exc}", file=sys.stderr)
        return 1
    nodes = submitted["nodes"]
    stages = [(stage, nodes[stage])
              for stage in ("augment", "train", "evaluate")]
    train = nodes["train"]
    evaluate = nodes["evaluate"]
    for stage, job in stages:
        print(f"-- submitted {job['id']} ({stage})")
    if args.no_wait:
        return 0
    try:
        jobs = client.wait([job["id"] for _, job in stages],
                           timeout=args.timeout)
    except TimeoutError as exc:
        print(f"pipeline timed out: {exc}", file=sys.stderr)
        return 1
    failed = [job for job in jobs.values() if job["state"] != "done"]
    for job in failed:
        print(f"-- {job['id']} {job['state']}: "
              f"{job.get('error') or ''}", file=sys.stderr)
    if failed:
        return 1
    train_blob = client.result(train["id"])
    print(f"-- trained '{train_blob['register_as']}': "
          f"{train_blob['steps']} step(s), final loss "
          f"{train_blob['final_loss']:.4f}, weights "
          f"{train_blob['weights_sha256'][:12]}")
    eval_blob = client.result(evaluate["id"])
    print(eval_blob["rendered"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(eval_blob["rendered"] + "\n")
        print(f"-- wrote report to {args.out}")
    return 0


def cmd_dag(args: argparse.Namespace) -> int:
    """Validate / run / submit a user-defined DAG spec file.

    ``--check`` prints the expanded, topologically ordered graph;
    ``--direct`` executes it serially in process (the determinism
    reference); otherwise the whole graph goes to the daemon as one
    ``/api/flow`` group commit.
    """
    import tempfile

    from .flow import FlowError, run_flow, run_flow_direct, validate_flow
    from .serve import ServeError, SpecError
    with open(args.spec, encoding="utf-8") as handle:
        blob = json.load(handle)
    try:
        nodes = validate_flow(blob)
    except SpecError as exc:
        print(f"invalid flow: {exc}", file=sys.stderr)
        return 1
    if args.check:
        for node in nodes:
            deps = (" after " + ", ".join(node.after)
                    if node.after else "")
            print(f"-- {node.name}: {node.kind}{deps}")
        print(f"-- {len(nodes)} node(s), spec is valid")
        return 0
    try:
        if args.direct:
            workdir = args.workdir or tempfile.mkdtemp(
                prefix="repro-dag-")
            results = run_flow_direct(blob, workdir,
                                      engine_jobs=args.jobs)
        else:
            results = run_flow(_client(args), blob,
                               timeout=args.timeout)
    except (FlowError, ServeError, TimeoutError) as exc:
        print(f"flow failed: {exc}", file=sys.stderr)
        return 1
    for node in nodes:
        print(f"-- {node.name}: done ({node.kind})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-- wrote results to {args.out}")
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """List or run registered scenarios; non-zero exit on violations."""
    from .scenarios import run_scenarios, select_scenarios
    if args.scenarios_cmd == "list":
        for scenario in select_scenarios(tag=args.tag):
            tags = ",".join(scenario.tags)
            print(f"{scenario.name:24} {scenario.family:6} [{tags}] "
                  f"{scenario.description}")
        return 0
    names = args.name or None
    if not (names or args.tag or args.all):
        print("pick one of --all, --name or --tag", file=sys.stderr)
        return 2
    report = run_scenarios(names=names, tag=args.tag, root=args.root,
                           via=args.via, jobs=args.jobs)
    print(report.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"-- wrote scenario report to {args.out}")
    return 0 if report.ok else 1


def _eval_engine(args: argparse.Namespace):
    from .eval import EvalEngine
    return EvalEngine(jobs=args.jobs, cache_dir=args.cache_dir)


def cmd_tables(args: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS, run_selected
    names = args.only.split(",") if args.only else None
    # Validate ids up front so execution errors keep their tracebacks.
    unknown = [n for n in names or () if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s) {', '.join(unknown)}; "
              f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    results = run_selected(names, quick=not args.full,
                           engine=_eval_engine(args))
    for name, text in results.items():
        print(f"\n{'=' * 72}\n{name.upper()}\n{'=' * 72}")
        print(text)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .eval import run_suite
    engine = _eval_engine(args)
    artifacts = None
    if args.artifact:
        artifacts = [json.loads(_read(path)) for path in args.artifact]
    result = run_suite(
        args.suite,
        models=args.models.split(",") if args.models else None,
        samples=args.samples, k=args.k,
        levels=tuple(args.levels.split(",")) if args.levels else None,
        seed=args.seed, engine=engine, sim_backend=args.sim_backend,
        artifacts=artifacts)
    print(result.rendered)
    print(f"-- {engine.stats.summary()}")
    # The engine aggregates each worker's thread-local counters back
    # through its result stream, so these totals are exact for any
    # --jobs setting (cached cells simply ran no simulations).
    stats = engine.sim_stats
    if stats.compiled_runs or stats.interp_runs or stats.fallbacks:
        print(f"-- {stats.summary()}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.rendered + "\n")
        print(f"-- wrote report to {args.out}")
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    """Decode completions from a trained-model artefact, locally (the
    daemon-free twin of ``repro submit infer``: same seed derivation,
    same result blob)."""
    from .infer import sample_tokens, shared_host
    from .train.data import stable_seed
    artifact = json.loads(_read(args.artifact))
    weights = (artifact.get("weights")
               if isinstance(artifact, dict) else None)
    if not isinstance(weights, dict):
        print(f"{args.artifact} carries no weights bundle (written by "
              "a pre-inference `repro train`? retrain to decode it)",
              file=sys.stderr)
        return 2
    loaded = shared_host().load_bundle(weights)
    tokenizer = loaded.tokenizer
    prompts = list(args.prompt)
    rows = [[tokenizer.bos_id] + tokenizer.encode(p) for p in prompts]
    seeds = [stable_seed("infer", loaded.digest, args.seed, index,
                         prompt)
             for index, prompt in enumerate(prompts)]
    outs = sample_tokens(loaded.model, rows,
                         max_tokens=args.max_tokens,
                         temperature=args.temperature, seeds=seeds,
                         stop_token=tokenizer.eos_id)
    completions = []
    for index, (prompt, row) in enumerate(zip(prompts, rows)):
        generated = outs[index][len(row):][:args.max_tokens]
        completions.append({"prompt": prompt,
                            "text": tokenizer.decode(generated),
                            "tokens": len(generated)})
    for entry in completions:
        print(f">>> {entry['prompt']}")
        print(entry["text"] or "(empty completion)")
    print(f"-- decoded {len(completions)} completion(s) from weights "
          f"{loaded.digest[:12]}")
    if args.out:
        blob = {"kind": "infer", "model": artifact.get("name"),
                "weights_sha256": loaded.digest,
                "max_tokens": args.max_tokens,
                "temperature": args.temperature, "seed": args.seed,
                "completions": completions}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(blob, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-- wrote completions to {args.out}")
    return 0


def _parse_tenants(items) -> dict:
    """``name=rate[:burst[:max_active[:boost]]]`` → policy map.

    Empty fields keep the default (e.g. ``paid=::64:10`` sets only the
    quota and priority boost).
    """
    from .serve import TenantPolicy
    tenants = {}
    for item in items or ():
        name, _, knobs = item.partition("=")
        if not name:
            raise ValueError(f"bad --tenant '{item}'")
        fields = (knobs.split(":") + ["", "", "", ""])[:4]
        rate, burst, max_active, boost = fields
        tenants[name] = TenantPolicy(
            name=name,
            rate=float(rate) if rate else None,
            burst=int(burst) if burst else 64,
            max_active=int(max_active) if max_active else None,
            priority_boost=int(boost) if boost else 0)
    return tenants


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the daemon behind the asyncio gateway in the foreground."""
    import asyncio

    from .serve import JOB_KINDS, Daemon, Gateway, GatewayConfig
    budgets = {}
    for item in args.budget or ():
        kind, _, count = item.partition("=")
        if kind not in JOB_KINDS or not count.isdigit():
            print(f"bad --budget '{item}' (want kind=N with kind in "
                  f"{', '.join(JOB_KINDS)}; N=0 pauses the kind)",
                  file=sys.stderr)
            return 2
        budgets[kind] = int(count)
    try:
        tenants = _parse_tenants(args.tenant)
    except ValueError as exc:
        print(f"{exc} (want name=rate[:burst[:max_active[:boost]]])",
              file=sys.stderr)
        return 2
    config = GatewayConfig(
        max_queue_depth=args.max_queue_depth, tenants=tenants,
        allow_unknown_tenants=not args.strict_tenants)
    daemon = Daemon(args.store, budgets=budgets or None,
                    engine_jobs=args.jobs, workers=args.workers,
                    batch_limit=args.batch_limit)

    async def _main() -> None:
        gateway = Gateway(daemon, host=args.host, port=args.port,
                          config=config)
        await gateway.start()
        if daemon.store.recovered:
            print(f"-- recovered {len(daemon.store.recovered)} "
                  f"interrupted job(s): "
                  f"{', '.join(daemon.store.recovered)}", flush=True)
        print(f"-- serving on http://{args.host}:{gateway.port} "
              f"(store {args.store})", flush=True)
        try:
            await gateway.serve_forever()
        finally:
            await gateway.close()

    daemon.start()
    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        daemon.stop()
        print("-- daemon stopped (store compacted)")
    return 0


def _client(args: argparse.Namespace):
    from .serve import ServeClient
    return ServeClient(args.url, tenant=getattr(args, "tenant", None))


def cmd_submit(args: argparse.Namespace) -> int:
    from .serve import ServeError
    after = None
    if args.job_kind == "augment":
        spec = {"paths": [os.path.abspath(p) for p in args.paths],
                "seed": args.seed,
                "completion_only": args.completion_only}
    elif args.job_kind == "train":
        spec = {"paths": [os.path.abspath(p) for p in args.paths],
                "seed": args.seed,
                "completion_only": args.completion_only,
                "register_as": args.register_as}
        spec.update(_train_knobs(args))
    elif args.job_kind == "evaluate":
        spec = {"suite": args.suite,
                "models": args.models.split(",") if args.models
                else None,
                "samples": args.samples, "k": args.k,
                "levels": args.levels.split(",") if args.levels
                else None,
                "seed": args.seed, "sim_backend": args.sim_backend}
    elif args.job_kind == "infer":
        spec = {"prompts": list(args.prompt),
                "trained": {"name": args.trained_name,
                            "job": args.train_job},
                "max_tokens": args.max_tokens,
                "temperature": args.temperature, "seed": args.seed}
        # Gate on the train job so the weights exist when we decode
        # (a done dependency resolves immediately).
        after = [args.train_job]
    elif args.job_kind == "simulate":
        spec = {"source": _read(args.file), "top": args.top,
                "backend": args.sim_backend, "vcd": args.vcd}
    elif args.job_kind == "probe":
        try:
            payload = json.loads(args.payload) if args.payload else ""
        except ValueError:
            payload = args.payload      # plain string payload
        spec = {"payload": payload, "sleep_ms": args.sleep_ms}
    else:   # experiment
        spec = {"name": args.name, "quick": not args.full}
    try:
        job = _client(args).submit(args.job_kind, spec,
                                   priority=args.priority, after=after)
    except ServeError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    print(f"-- submitted {job['id']} ({job['kind']}, "
          f"priority {job['priority']})")
    print(job["id"])
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    from .serve import ServeError
    client = _client(args)
    try:
        if args.job:
            job = client.status(args.job)
            print(json.dumps(job, indent=2, sort_keys=True))
            return 0
        jobs = client.jobs()
        health = client.health()
    except ServeError as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 1
    for job in jobs:
        line = (f"{job['id']}  {job['kind']:<10} "
                f"{job['state']:<9} prio={job['priority']}")
        if job.get("error"):
            line += f"  error: {job['error']}"
        print(line)
    counts = health["jobs"]
    summary = ", ".join(f"{state}={count}"
                        for state, count in sorted(counts.items()))
    print(f"-- {len(jobs)} job(s): {summary or 'none'}")
    print(f"-- queues: {health['queue_depths'] or {}} "
          f"in-flight: {health['in_flight'] or {}}")
    print(f"-- {health['sim_backend']['summary']}")
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    from .serve import ServeError
    try:
        blob = _client(args).result(args.job)
    except ServeError as exc:
        print(f"result not available: {exc}", file=sys.stderr)
        return 1
    if args.json or "rendered" not in blob:
        text = json.dumps(blob, indent=2, sort_keys=True)
    else:
        text = blob["rendered"]
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"-- wrote {args.out}")
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    from .serve import ServeError
    try:
        job = _client(args).cancel(args.job)
    except ServeError as exc:
        print(f"cancel failed: {exc}", file=sys.stderr)
        return 1
    print(f"-- cancelled {job['id']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .sim import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ChipGPT-FT reproduction tool chain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="Verilog → natural language")
    p.add_argument("file")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("check", help="yosys-style lint")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("simulate", help="run a testbench")
    p.add_argument("file")
    p.add_argument("--top")
    p.add_argument("--vcd", help="write VCD waveform to this path")
    p.add_argument("--sim-backend", choices=BACKENDS, default=None,
                   help="simulator backend (default: compiled, with "
                        "automatic fallback to the interpreter; "
                        "'interp' runs the reference interpreter only)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("synth", help="gate-level synthesis report")
    p.add_argument("file")
    p.add_argument("--top")
    p.add_argument("--netlist", help="write structural Verilog netlist")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("flow", help="RTL-to-GDS flow + PPA")
    p.add_argument("file")
    p.add_argument("--top")
    p.add_argument("--clock", type=float, default=10.0,
                   help="clock period in ns")
    p.set_defaults(fn=cmd_flow)

    def add_augment_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write records as JSONL")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--completion-only", action="store_true",
                       help="ablation baseline (general aug)")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1 = serial)")
        p.add_argument("--cache-dir",
                       help="shard result cache; re-runs only recompute "
                            "dirty shards")
        p.add_argument("--shards", type=int, default=None,
                       help="shard count for the corpus store")

    p = sub.add_parser("augment", help="run the augmentation pipeline")
    p.add_argument("files", nargs="+")
    add_augment_options(p)
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("augment-dist",
                       help="sharded/parallel/incremental augmentation "
                            "over files or directories")
    p.add_argument("paths", nargs="+",
                   help="Verilog files and/or directories to walk")
    add_augment_options(p)
    p.set_defaults(fn=cmd_augment_dist)

    def add_train_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--batch-size", type=int, default=None)
        p.add_argument("--micro-batch", type=int, default=None,
                       help="gradient-accumulation micro-batch size")
        p.add_argument("--seq-len", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--train-seed", type=int, default=None,
                       help="training seed (schedule + init); distinct "
                            "from the augmentation --seed")
        p.add_argument("--vocab-size", type=int, default=None)
        p.add_argument("--d-model", type=int, default=None)
        p.add_argument("--n-heads", type=int, default=None)
        p.add_argument("--n-layers", type=int, default=None)
        p.add_argument("--d-ff", type=int, default=None)
        p.add_argument("--max-records", type=int, default=None,
                       help="canonical-order dataset cap (0 = no cap)")
        p.add_argument("--checkpoint-every", type=int, default=None,
                       help="checkpoint cadence in optimizer steps "
                            "(0 = final checkpoint only)")
        p.add_argument("--register-as", default="trained",
                       help="name the trained model evaluates under")

    p = sub.add_parser("train",
                       help="checkpointed finetuning over a corpus "
                            "(resumable via --checkpoint-dir)")
    p.add_argument("paths", nargs="+",
                   help="Verilog files and/or directories to train on")
    p.add_argument("--seed", type=int, default=0,
                   help="augmentation seed for the corpus")
    p.add_argument("--completion-only", action="store_true",
                   help="train on the ablation (general aug) dataset")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for augmentation shards "
                        "(default 1 = serial; training runs "
                        "in-process, and output is identical for any "
                        "setting)")
    p.add_argument("--cache-dir",
                   help="augment shard cache; a warm cache means the "
                        "corpus loads with zero re-augmentation")
    p.add_argument("--shards", type=int, default=None)
    p.add_argument("--checkpoint-dir",
                   help="checkpoint store; an interrupted run resumes "
                        "here to bit-identical weights")
    p.add_argument("--out", help="write the trained-model artefact "
                                 "(JSON) to this path")
    p.add_argument("--report-out",
                   help="write the run report (loss curve, weights "
                        "digest) as JSON")
    add_train_options(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("agent", help="Fig-1 agent loop on a benchmark")
    p.add_argument("problem")
    p.add_argument("--model", default="ours-13b")
    p.add_argument("--gds", action="store_true",
                   help="run the flow on the surviving design")
    p.set_defaults(fn=cmd_agent)

    def add_engine_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for benchmark cells "
                            "(default 1 = serial)")
        p.add_argument("--cache-dir",
                       help="persistent eval cell cache; warm re-runs "
                            "recompute nothing")

    p = sub.add_parser("tables", help="regenerate paper tables/figures")
    p.add_argument("--full", action="store_true")
    p.add_argument("--only", help="comma-separated ids, e.g. table5,fig3")
    add_engine_options(p)
    p.set_defaults(fn=cmd_tables)

    # Mirrors repro.bench.EVAL_SUITES (kept literal so parser construction
    # stays import-light; test_eval_engine pins the two together).
    EVAL_SUITES = ("generation", "rtllm", "rtllm-full", "thakur",
                   "repair", "scripts")
    p = sub.add_parser("evaluate",
                       help="run one benchmark suite on the shared "
                            "evaluation engine")
    p.add_argument("--suite", choices=EVAL_SUITES, default="generation",
                   help="benchmark suite id (default: generation = "
                        "the full Table-5 problem set)")
    p.add_argument("--models",
                   help="comma-separated model names (default: the "
                        "suite's paper column order)")
    p.add_argument("--samples", type=int, default=None,
                   help="samples per cell (default 5; max attempts for "
                        "scripts, default 10)")
    p.add_argument("--k", type=int, default=5,
                   help="k for the report's pass@k rows")
    p.add_argument("--levels",
                   help="comma-separated prompt levels "
                        "(generation suites; default low,middle,high)")
    p.add_argument("--seed", type=int, default=0,
                   help="benchmark-construction seed (repair suite)")
    p.add_argument("--sim-backend", choices=BACKENDS, default=None,
                   help="simulator backend for testbench verdicts "
                        "(default: compiled, with automatic fallback "
                        "to the interpreter; reports are byte-identical "
                        "either way)")
    p.add_argument("--out", help="also write the report to this file")
    p.add_argument("--artifact", action="append",
                   help="trained-model artefact JSON (from `repro "
                        "train --out`) to register and score "
                        "(repeatable); include its name in --models "
                        "or omit --models to append it")
    add_engine_options(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("infer",
                       help="decode completions from a trained-model "
                            "artefact with the batched KV-cache "
                            "sampler")
    p.add_argument("artifact",
                   help="trained-model artefact JSON (from `repro "
                        "train --out`) carrying a weights bundle")
    p.add_argument("--prompt", action="append", required=True,
                   help="prompt text (repeatable; one completion each)")
    p.add_argument("--max-tokens", type=int, default=32,
                   help="new tokens to decode per prompt (default 32)")
    p.add_argument("--temperature", type=float, default=0.0,
                   help="0 = greedy (default); >0 samples")
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed (per-row streams are derived "
                        "from it content-stably)")
    p.add_argument("--out",
                   help="also write the result blob (JSON) to this "
                        "file")
    p.set_defaults(fn=cmd_infer)

    # Mirrors repro.serve.daemon.DEFAULT_PORT (kept literal so parser
    # construction stays import-light; test_serve_recovery pins them).
    DEFAULT_PORT = 8471

    p = sub.add_parser("serve",
                       help="run the crash-safe job daemon "
                            "(augment/train/evaluate/infer/simulate "
                            "as jobs)")
    p.add_argument("--store", required=True,
                   help="persistent job store directory (journal, "
                        "snapshot, results, caches)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT,
                   help=f"API port (default {DEFAULT_PORT}; 0 = "
                        "ephemeral, printed on startup)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes per engine run inside a job")
    p.add_argument("--workers", type=int, default=2,
                   help="daemon worker threads executing batches")
    p.add_argument("--batch-limit", type=int, default=8,
                   help="max jobs grouped into one shared run")
    p.add_argument("--budget", action="append", metavar="KIND=N",
                   help="per-kind concurrent-batch budget, e.g. "
                        "simulate=4 (repeatable)")
    # No-op: the gateway is the only front end.  Kept (hidden) because
    # existing command lines, perfbench's serve-mix among them, pass it.
    p.add_argument("--gateway", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--max-queue-depth", type=int, default=512,
                   help="gateway admission ceiling on queued+running "
                        "jobs before submits get 429s (default 512)")
    p.add_argument("--tenant", action="append",
                   metavar="NAME=RATE[:BURST[:MAX_ACTIVE[:BOOST]]]",
                   help="gateway tenant policy (repeatable): token "
                        "bucket RATE/s + BURST, MAX_ACTIVE job quota, "
                        "BOOST added to submit priority; empty fields "
                        "keep defaults, e.g. paid=::64:10")
    p.add_argument("--strict-tenants", action="store_true",
                   help="reject requests with an unrecognised "
                        "X-Repro-Tenant header (403) instead of "
                        "applying the default policy")
    p.set_defaults(fn=cmd_serve)

    def add_client_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", default=f"http://127.0.0.1:{DEFAULT_PORT}",
                       help="daemon base URL")
        p.add_argument("--tenant", default=None,
                       help="X-Repro-Tenant header value (gateway "
                            "rate limits/quotas resolve against it)")

    p = sub.add_parser("submit", help="submit a job to the daemon")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first (FIFO within a priority)")
    add_client_options(p)
    kinds = p.add_subparsers(dest="job_kind", required=True)

    k = kinds.add_parser("augment", help="augmentation job")
    k.add_argument("paths", nargs="+",
                   help="Verilog files/directories (daemon-local paths)")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--completion-only", action="store_true")

    k = kinds.add_parser("train", help="finetuning job")
    k.add_argument("paths", nargs="+",
                   help="Verilog files/directories (daemon-local paths)")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--completion-only", action="store_true")
    add_train_options(k)

    k = kinds.add_parser("evaluate", help="benchmark-suite job")
    k.add_argument("--suite", choices=EVAL_SUITES, default="generation")
    k.add_argument("--models")
    k.add_argument("--samples", type=int, default=None)
    k.add_argument("--k", type=int, default=5)
    k.add_argument("--levels")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--sim-backend", choices=BACKENDS, default=None)

    k = kinds.add_parser("infer",
                         help="decode completions from a trained "
                              "job's weights")
    k.add_argument("train_job",
                   help="train job id whose artefact supplies the "
                        "weights bundle")
    k.add_argument("--trained-name", default="trained",
                   help="the train job's register_as name "
                        "(default: trained)")
    k.add_argument("--prompt", action="append", required=True,
                   help="prompt text (repeatable; one completion each)")
    k.add_argument("--max-tokens", type=int, default=32)
    k.add_argument("--temperature", type=float, default=0.0)
    k.add_argument("--seed", type=int, default=0)

    k = kinds.add_parser("simulate", help="simulation job")
    k.add_argument("file", help="Verilog file (inlined into the spec)")
    k.add_argument("--top")
    k.add_argument("--sim-backend", choices=BACKENDS, default=None)
    k.add_argument("--vcd", action="store_true",
                   help="include VCD text in the result blob")

    k = kinds.add_parser("experiment",
                         help="paper table/figure by registry id")
    k.add_argument("name", help="experiment id, e.g. table5")
    k.add_argument("--full", action="store_true")

    k = kinds.add_parser("probe",
                         help="near-zero-cost serving probe (echoes "
                              "a payload; stress/health checks)")
    k.add_argument("--payload", default="",
                   help="JSON value to echo (default empty string)")
    k.add_argument("--sleep-ms", type=int, default=0,
                   help="simulated execution time (drain scenarios)")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("status", help="job/daemon status")
    p.add_argument("job", nargs="?",
                   help="job id (omit to list all jobs + health)")
    add_client_options(p)
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("result", help="fetch a finished job's result")
    p.add_argument("job")
    p.add_argument("--json", action="store_true",
                   help="print the raw result blob")
    p.add_argument("--out", help="also write the output to this file")
    add_client_options(p)
    p.set_defaults(fn=cmd_result)

    p = sub.add_parser("cancel", help="cancel a queued job")
    p.add_argument("job")
    add_client_options(p)
    p.set_defaults(fn=cmd_cancel)

    p = sub.add_parser("pipeline",
                       help="submit augment → train → evaluate as one "
                            "dependency DAG; the evaluate stage scores "
                            "the freshly trained model")
    p.add_argument("paths", nargs="+",
                   help="Verilog files/directories (daemon-local paths)")
    p.add_argument("--seed", type=int, default=0,
                   help="augmentation seed for the corpus stages")
    p.add_argument("--completion-only", action="store_true")
    add_train_options(p)
    p.add_argument("--suite", choices=EVAL_SUITES, default="thakur",
                   help="benchmark suite for the evaluate stage")
    p.add_argument("--models",
                   help="comma-separated models to score (default: "
                        "just the trained model; add baselines for a "
                        "side-by-side)")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--levels")
    p.add_argument("--sim-backend", choices=BACKENDS, default=None)
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--no-wait", action="store_true",
                   help="submit the DAG and return without polling")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="seconds to wait for the DAG to finish")
    p.add_argument("--out", help="also write the evaluation report to "
                                 "this file")
    add_client_options(p)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("dag",
                       help="validate/run/submit a user-defined job "
                            "DAG spec file (nodes of any job kind, "
                            "'after' edges, foreach fan-out)")
    p.add_argument("spec", help="JSON flow spec file")
    p.add_argument("--check", action="store_true",
                   help="validate + print the expanded graph, run "
                        "nothing")
    p.add_argument("--direct", action="store_true",
                   help="execute serially in process instead of "
                        "submitting to a daemon")
    p.add_argument("--workdir",
                   help="work dir for --direct (default: fresh temp)")
    p.add_argument("--jobs", type=int, default=1,
                   help="engine parallelism for --direct")
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--out", help="write per-node results JSON here")
    add_client_options(p)
    p.set_defaults(fn=cmd_dag)

    p = sub.add_parser("scenarios",
                       help="declarative scenario registry: paper "
                            "sweeps + chaos + perf floors, regression-"
                            "gated by expected score ranges")
    scen = p.add_subparsers(dest="scenarios_cmd", required=True)
    q = scen.add_parser("list", help="list registered scenarios")
    q.add_argument("--tag", help="only scenarios carrying this tag")
    q.set_defaults(fn=cmd_scenarios)
    q = scen.add_parser("run", help="run a scenario selection")
    q.add_argument("--all", action="store_true",
                   help="run every registered scenario")
    q.add_argument("--name", action="append",
                   help="run this scenario (repeatable)")
    q.add_argument("--tag", help="run scenarios carrying this tag")
    q.add_argument("--via", choices=("direct", "daemon"),
                   default="direct",
                   help="execute flow scenarios in process or through "
                        "a private in-process daemon")
    q.add_argument("--jobs", type=int, default=1,
                   help="engine parallelism inside scenarios")
    q.add_argument("--root", help="scratch root (default: fresh temp)")
    q.add_argument("--out",
                   help="write the machine-readable report JSON here")
    q.set_defaults(fn=cmd_scenarios)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
