"""Command-line interface: ``python -m repro <command>``.

Commands mirror the tool chain a user drives interactively:

* ``describe``  — AST → natural language for a Verilog file (Fig 5)
* ``check``     — yosys-style lint
* ``simulate``  — run a (testbench-containing) file, optional VCD out
* ``synth``     — gate-level synthesis report
* ``flow``      — full RTL-to-GDS flow + PPA report
* ``augment``   — sharded/parallel/cache-aware augmentation over
  Verilog files or directories (``--jobs``, ``--cache-dir``)
* ``agent``     — run the Fig-1 agent loop on a named benchmark problem
* ``train``     — checkpointed finetuning over a corpus
  (``repro.train``): loads through the shard cache, resumes from
  ``--checkpoint-dir``, writes a trained-model artefact (``--out``)
* ``evaluate``  — run one benchmark suite on the shared evaluation
  engine (``--suite``, ``--models``, ``--jobs``, ``--cache-dir``,
  ``--k``, ``--artifact`` to score a trained model); testbench verdicts
  come from the one event-driven simulator (``repro.sim``)
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
* ``infer``     — decode completions from a trained-model artefact
  (the infer job's code, run locally)
* ``pipeline``  — submit augment → train → evaluate to the daemon as
  one dependency DAG; the evaluate stage scores the freshly trained
  model
* ``dag``       — validate, run in process (``--direct``) or submit a
  user-defined job DAG spec file
* ``scenarios`` — list or run the registered scenarios (paper sweeps,
  chaos drills, perf floors)
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write_json(path: str, blob: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(blob, handle, indent=2, sort_keys=True)
        handle.write("\n")


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
                            trace=args.vcd is not None)
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


def cmd_augment(args: argparse.Namespace) -> int:
    """Run the augment job's corpus pass on local paths.  Sources are
    read per shard inside the workers, never held in memory as one
    corpus, and merged in canonical (content-digest) order, so serial
    and parallel runs write byte-identical JSONL."""
    from .core import dataset_stats, render_table2
    from .serve.executor import run_augment
    spec = _checked_spec("augment", _corpus_spec(args))
    if spec is None:
        return 2
    report = run_augment(spec, args.cache_dir, args.jobs)
    print(render_table2(dataset_stats(report.dataset)))
    print(f"-- {report.summary()}")
    if args.out:
        report.dataset.save(args.out)
        print(f"-- wrote {len(report.dataset)} records to {args.out}")
    return 0


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


def cmd_train(args: argparse.Namespace) -> int:
    """Run the train job's code on local paths: ``--cache-dir`` and
    ``--checkpoint-dir`` stand in for the job's work-dir layout,
    ``--out`` writes the job blob's ``artifact`` and ``--report-out``
    the rest of the blob."""
    from .serve.executor import run_training
    spec = _checked_spec("train", _train_spec(args))
    if spec is None:
        return 2
    blob, corpus_report, report = run_training(
        spec, args.cache_dir, args.checkpoint_dir, args.jobs)
    print(f"-- corpus: {corpus_report.summary()}")
    print(f"-- train: {report.summary()}")
    artifact = blob.pop("artifact")
    for path, what, payload in ((args.out, "artefact", artifact),
                                (args.report_out, "report", blob)):
        if path:
            _write_json(path, payload)
            print(f"-- wrote {what} to {path}")
    return 0


def _pipeline_flow(args: argparse.Namespace) -> dict:
    """The :func:`repro.flow.pipeline_flow` DAG the flags describe: the
    corpus and train flags feed the augment and train nodes, the eval
    flags the evaluate node (``--seed`` is the corpus seed; the
    evaluate node's seed is pipeline_flow's)."""
    from .flow import pipeline_flow
    from .serve.jobs import DEFAULT_REGISTER_AS
    knobs = _train_spec(args)
    corpus = {key: knobs.pop(key)
              for key in ("paths", "seed", "completion_only")
              if key in knobs}
    register_as = knobs.pop("register_as", DEFAULT_REGISTER_AS)
    evaluate = _eval_spec(args)
    evaluate.pop("seed", None)
    return pipeline_flow(**corpus, train_knobs=knobs,
                         register_as=register_as, **evaluate,
                         priority=args.priority)


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Submit augment → train → evaluate as one DAG and (optionally)
    wait for the evaluation of the freshly trained model.

    The DAG is the built-in :func:`repro.flow.pipeline_flow` spec,
    submitted whole through ``/api/flow`` — one journal group commit
    instead of three submits.
    """
    from .flow import FlowError, submit_flow, wait_flow
    from .serve import ServeError
    client = _client(args)
    try:
        run = submit_flow(client, _pipeline_flow(args))
    except ServeError as exc:
        print(f"pipeline submit failed: {exc}", file=sys.stderr)
        return 1
    stages = ("augment", "train", "evaluate")     # pipeline_flow's nodes
    for stage in stages:
        print(f"-- submitted {run.id_for(stage)} ({stage})")
    if args.no_wait:
        return 0
    try:
        wait_flow(client, run, timeout=args.timeout)
    except TimeoutError as exc:
        print(f"pipeline timed out: {exc}", file=sys.stderr)
        return 1
    except FlowError as exc:
        for job in (exc.failures[st] for st in stages if st in exc.failures):
            print(f"-- {job['id']} {job['state']}: "
                  f"{job.get('error') or ''}", file=sys.stderr)
        return 1
    train_blob = client.result(run.id_for("train"))
    print(f"-- trained '{train_blob['register_as']}': "
          f"{train_blob['steps']} step(s), final loss "
          f"{train_blob['final_loss']:.4f}, weights "
          f"{train_blob['weights_sha256'][:12]}")
    eval_blob = client.result(run.id_for("evaluate"))
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
        _write_json(args.out, results)
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
        _write_json(args.out, report.to_dict())
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
    spec = _eval_spec(args)
    result = run_suite(spec.pop("suite"), **spec, engine=engine,
                       artifacts=artifacts)
    print(result.rendered)
    print(f"-- {engine.stats.summary()}")
    # The engine aggregates each worker's thread-local counters back
    # through its result stream, so these totals are exact for any
    # --jobs setting (cached cells simply ran no simulations).
    stats = engine.sim_stats
    if stats.interp_runs:
        print(f"-- {stats.summary()}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.rendered + "\n")
        print(f"-- wrote report to {args.out}")
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    """Decode completions from a trained-model artefact by running the
    infer job (:func:`repro.serve.executor.execute_job`) on it: ``--out``
    is the blob ``repro submit infer`` yields for the same weights,
    prompts and knobs."""
    import tempfile

    from .infer import shared_host
    from .serve.executor import artifact_weights, execute_job
    artifact = json.loads(_read(args.artifact))
    spec = dict(_decode_spec(args),
                trained={"name": artifact.get("name"), "job": "local"})
    try:
        # Loading the bundle here reports a malformed one without the
        # job's exception class; the job then hits the host's cache.
        shared_host().load_bundle(artifact_weights(artifact, "the artefact"))
        with tempfile.TemporaryDirectory(prefix="repro-infer-") as work:
            blob = execute_job("infer", spec, work,
                               resolve={"local": {"artifact": artifact}}.get)
    except (RuntimeError, ValueError) as exc:   # SpecError included
        print(f"cannot decode {args.artifact}: {exc}", file=sys.stderr)
        return 2
    for entry in blob["completions"]:
        print(f">>> {entry['prompt']}")
        print(entry["text"] or "(empty completion)")
    print(f"-- decoded {len(blob['completions'])} completion(s) from "
          f"weights {blob['weights_sha256'][:12]}")
    if args.out:
        _write_json(args.out, blob)
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
    spec = args.build_spec(args)
    # A job that names a train job's artefact waits for it, so the
    # weights exist when it runs (a done dependency resolves at once).
    after = [spec["trained"]["job"]] if "trained" in spec else None
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


# -- one flag set and one spec builder per job kind ------------------------
#
# Shared by the direct commands, `repro submit <kind>` and `repro
# pipeline`.  A shared flag defaults to None ("not given") and the
# builders leave it out, so repro.serve.validate_spec fills in the one
# default and rejects bad values, for a direct command as for a daemon.

# Mirrors repro.eval.EVAL_SUITES (kept literal so parser construction
# stays import-light; test_eval_engine pins the two together).
EVAL_SUITES = ("generation", "rtllm", "rtllm-full", "thakur", "repair",
               "scripts")

# Mirrors repro.serve.jobs.TRAIN_KNOBS, one `--<knob>` flag each (kept
# literal so parser construction stays import-light; test_cli_specs
# pins the two together).
TRAIN_KNOBS = ("epochs", "batch_size", "micro_batch", "seq_len",
               "vocab_size", "d_model", "n_heads", "n_layers", "d_ff",
               "checkpoint_every", "train_seed", "lr", "max_records")

_TRAIN_HELP = {
    "train_seed": "training seed (schedule + init); distinct from the "
                  "augmentation --seed",
    "checkpoint_every": "checkpoint cadence in optimizer steps (0 = "
                        "final checkpoint only)",
    "max_records": "canonical-order dataset cap (0 = no cap)",
}


def _given(args: argparse.Namespace, *names: str) -> dict:
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def _corpus_flags(p: argparse.ArgumentParser, shards: bool = True) -> None:
    p.add_argument("paths", nargs="+",
                   help="Verilog files and/or directories")
    p.add_argument("--seed", type=int,
                   help="augmentation seed for the corpus (default 0)")
    p.add_argument("--completion-only", action="store_true", default=None,
                   help="ablation baseline (general aug) dataset")
    if shards:
        p.add_argument("--shards", type=int,
                       help="shard count for the corpus store (0 = the "
                            "default)")


def _corpus_spec(args: argparse.Namespace) -> dict:
    return dict(_given(args, "seed", "completion_only", "shards"),
                paths=[os.path.abspath(p) for p in args.paths])


def _shard_cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for augmentation shards "
                        "(default 1 = serial; same output for any "
                        "setting)")
    p.add_argument("--cache-dir",
                   help="augment shard cache; a warm re-run recomputes "
                        "only dirty shards")


def _train_flags(p: argparse.ArgumentParser, shards: bool = True) -> None:
    _corpus_flags(p, shards)
    for knob in TRAIN_KNOBS:
        p.add_argument("--" + knob.replace("_", "-"),
                       type=float if knob == "lr" else int,
                       help=_TRAIN_HELP.get(knob))
    p.add_argument("--register-as",
                   help="name the trained model evaluates under "
                        "(default: trained)")


def _train_spec(args: argparse.Namespace) -> dict:
    spec = dict(_corpus_spec(args),
                **_given(args, *TRAIN_KNOBS, "register_as"))
    if spec.get("max_records") == 0:
        spec["max_records"] = None
    return spec


def _eval_flags(p: argparse.ArgumentParser, suite: str | None = "generation",
                seed: bool = True) -> None:
    # A spec must name its suite, so --suite keeps a default (None =
    # pipeline_flow's).
    p.add_argument("--suite", choices=EVAL_SUITES, default=suite,
                   help="benchmark suite (default: "
                        f"{suite or 'the pipeline flow'})")
    p.add_argument("--models",
                   help="comma-separated model names (default: the "
                        "suite's paper column order; for a pipeline, "
                        "the trained model alone)")
    p.add_argument("--samples", type=int,
                   help="samples per cell (default 5; max attempts for "
                        "scripts, default 10)")
    p.add_argument("--k", type=int,
                   help="k for the report's pass@k rows (default 5)")
    p.add_argument("--levels",
                   help="comma-separated prompt levels "
                        "(generation suites; default low,middle,high)")
    if seed:
        p.add_argument("--seed", type=int,
                       help="benchmark-construction seed (repair suite)")


def _eval_spec(args: argparse.Namespace) -> dict:
    spec = _given(args, "suite", "samples", "k", "seed")
    for name in ("models", "levels"):
        if getattr(args, name):
            spec[name] = getattr(args, name).split(",")
    return spec


def _decode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prompt", action="append", required=True,
                   help="prompt text (repeatable; one completion each)")
    p.add_argument("--max-tokens", type=int,
                   help="new tokens to decode per prompt (default 32)")
    p.add_argument("--temperature", type=float,
                   help="0 = greedy (default); >0 samples")
    p.add_argument("--seed", type=int, help="sampling seed (default 0)")


def _decode_spec(args: argparse.Namespace) -> dict:
    return dict(_given(args, "max_tokens", "temperature", "seed"),
                prompts=list(args.prompt))


def _infer_job_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("train_job", help="train job id whose artefact "
                                     "supplies the weights bundle")
    p.add_argument("--trained-name", help="the train job's register_as "
                                          "name (default: trained)")
    _decode_flags(p)


def _infer_job_spec(args: argparse.Namespace) -> dict:
    from .serve.jobs import DEFAULT_REGISTER_AS
    return dict(_decode_spec(args), trained={
        "name": args.trained_name or DEFAULT_REGISTER_AS,
        "job": args.train_job})


def _simulate_job_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="Verilog file (inlined into the spec)")
    p.add_argument("--top")
    p.add_argument("--vcd", action="store_true",
                   help="include VCD text in the result blob")


def _experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", help="experiment id, e.g. table5")
    p.add_argument("--full", action="store_true")


def _probe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--payload", default="",
                   help="JSON value to echo (default empty string)")
    p.add_argument("--sleep-ms", type=int, default=0,
                   help="simulated execution time (drain scenarios)")


def _probe_spec(args: argparse.Namespace) -> dict:
    try:
        payload = json.loads(args.payload) if args.payload else ""
    except ValueError:
        payload = args.payload      # plain string payload
    return {"payload": payload, "sleep_ms": args.sleep_ms}


#: `repro submit <kind>`: kind -> (help, flag adder, spec builder).
_SUBMIT_KINDS = {
    "augment": ("augmentation job", _corpus_flags, _corpus_spec),
    "train": ("finetuning job", _train_flags, _train_spec),
    "evaluate": ("benchmark-suite job", _eval_flags, _eval_spec),
    "infer": ("decode completions from a trained job's weights",
              _infer_job_flags, _infer_job_spec),
    "simulate": ("simulation job", _simulate_job_flags,
                 lambda args: {"source": _read(args.file),
                               "top": args.top, "vcd": args.vcd}),
    "experiment": ("paper table/figure by registry id", _experiment_flags,
                   lambda args: {"name": args.name,
                                 "quick": not args.full}),
    "probe": ("near-zero-cost serving probe (echoes a payload; "
              "stress/health checks)", _probe_flags, _probe_spec),
}


def _checked_spec(kind: str, spec: dict) -> dict | None:
    """The canonical spec, or None after printing why a daemon would
    reject it (the caller exits 2)."""
    from .serve import SpecError, validate_spec
    try:
        return validate_spec(kind, spec)
    except SpecError as exc:
        print(f"invalid {kind} options: {exc}", file=sys.stderr)
        return None


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("augment", help="run the augmentation pipeline")
    _corpus_flags(p)
    _shard_cache_flags(p)
    p.add_argument("--out", help="write records as JSONL")
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("train",
                       help="checkpointed finetuning over a corpus "
                            "(resumable via --checkpoint-dir)")
    _train_flags(p)
    _shard_cache_flags(p)
    p.add_argument("--checkpoint-dir",
                   help="checkpoint store; an interrupted run resumes "
                        "here to bit-identical weights")
    p.add_argument("--out", help="write the trained-model artefact "
                                 "(JSON) to this path")
    p.add_argument("--report-out",
                   help="write the run report (loss curve, weights "
                        "digest) as JSON")
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

    p = sub.add_parser("evaluate",
                       help="run one benchmark suite on the shared "
                            "evaluation engine")
    _eval_flags(p)
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
    _decode_flags(p)
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
    for kind, (text, add_flags, build_spec) in _SUBMIT_KINDS.items():
        k = kinds.add_parser(kind, help=text)
        add_flags(k)
        k.set_defaults(build_spec=build_spec)
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
    _train_flags(p, shards=False)
    _eval_flags(p, None, seed=False)
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
