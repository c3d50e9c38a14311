//! The `slimstart` command-line tool.
//!
//! ```text
//! slimstart catalog                         list the paper's 22 applications
//! slimstart run <CODE> [options]            full pipeline on one catalog app
//!     --cold-starts <N>                     cold starts per run (default 500)
//!     --seed <S>                            experiment seed (default 2025)
//!     --json                                machine-readable output
//!     --iterate <ROUNDS>                    iterative CI/CD rounds
//!     --async-collector                     ship profiles over the channel
//! slimstart lint <CODE> [--json]            static-analysis diagnostics
//!     --seed <S> / --cold-starts <N>        profiling run parameters
//!     --runtime <python|nodejs|java>        cost profile used to rank the
//!                                           anti-pattern lints (default:
//!                                           python)
//!     --deny warnings                       exit 1 on warnings, not just
//!                                           errors
//!     --fix                                 apply verifier-approved fixes
//!                                           through the pipeline's auto-fix
//!                                           stage and report the measured
//!                                           cold-start delta
//! slimstart lint --passes                   list analysis passes + lint ids
//! slimstart lint --explain <LINT-ID>        rationale, detection rule and
//!                                           suggested refactoring of a lint
//! slimstart source <CODE> <MODULE>          rendered source of a module
//! slimstart graph <CODE> [--optimized]      import graph as Graphviz DOT
//! slimstart trace [--seed <S>]              production-trace statistics
//! slimstart fleet [options]                 optimize a fleet of N apps
//!     --apps <N>                            fleet size (default 22)
//!     --threads <T>                         worker threads (default: cores)
//!     --runs <R>                            averaged runs per app (default 1)
//!     --seed <S> / --cold-starts <N>        experiment parameters
//!     --light                               cycle the 5 lightweight fixture
//!                                           apps instead of the full catalog
//!                                           (sub-ms each; use for 10k+ runs)
//!     --chunk <C>                           population indices per
//!                                           work-stealing chunk (default 32)
//!     --snapshot-budget <BYTES>             enable the node snapshot pool
//!                                           with this per-node byte budget
//!                                           (`64m`-style suffixes allowed;
//!                                           `0`/`unlimited` = pool with no
//!                                           byte limit; default: the
//!                                           $SLIMSTART_SNAPSHOT_BUDGET env
//!                                           var, else no pool). Restores
//!                                           replay only the recorded
//!                                           working set unless
//!                                           $SLIMSTART_NO_LAZY_RESTORE=1.
//!     --node-size <N>                       apps packed per modeled node
//!                                           (default 8; needs a node pool:
//!                                           --snapshot-budget or --zygotes)
//!     --zygotes <Z>                         enable the node zygote pool:
//!                                           Z pre-warmed processes per node
//!                                           holding the node's hottest
//!                                           library closure; cold starts
//!                                           fork from the best match
//!                                           (default: the $SLIMSTART_ZYGOTES
//!                                           env var, else no pool; 0
//!                                           disables)
//!     --fork-cost-us <U>                    cost of acquiring one
//!                                           zygote-resident module at fork
//!                                           in µs (default 100; needs
//!                                           --zygotes)
//!     --json                                machine-readable output
//! slimstart chaos [options]                 fleet run under fault injection
//!     --fault-rate <P>                      per-event fault probability
//!                                           (default: $SLIMSTART_FAULT_RATE
//!                                           or 0.1)
//!     --apps/--threads/--runs/--seed/--cold-starts/--light/--chunk/
//!     --snapshot-budget/--node-size/--zygotes/--fork-cost-us/--json as
//!     for `fleet`
//! slimstart help                            this text
//! ```
//!
//! `fleet` output is byte-identical for any `--threads` value at the same
//! seed — the worker pool decides when an application runs, never with
//! which randomness. The same holds for `chaos`: injected faults draw from
//! dedicated per-app streams split up front, so `slimstart chaos --seed N
//! --json` reproduces byte-for-byte across runs and thread counts.
//!
//! `lint` exits 1 when any error-severity diagnostic is reported and 0
//! otherwise (warnings and infos alone do not fail the build). With
//! `--deny warnings` the warning threshold also fails the build — CI runs
//! this over the catalog's clean fixture apps to keep them lint-free. With
//! `--fix`, the exit code reflects the *post-fix* analysis.

use std::process::ExitCode;

use slimstart::analyzer::{
    lint_catalog, lint_info, AnalysisReport, Analyzer, AntipatternConfig, RuntimeProfile,
};
use slimstart::appmodel::catalog::{by_code, catalog, CatalogApp};
use slimstart::appmodel::source::render_module;
use slimstart::appmodel::Application;
use slimstart::core::export::outcome_to_json;
use slimstart::core::pipeline::{Pipeline, PipelineConfig};
use slimstart::core::report::render;
use slimstart::core::{AutoFixStage, StageEngine};
use slimstart::fleet::{
    parse_budget, FleetConfig, FleetOrchestrator, NodeSnapshotPool, NodeZygotePool,
    DEFAULT_NODE_SIZE,
};
use slimstart::platform::chaos::ChaosConfig;
use slimstart::pyrt::zygote::DEFAULT_FORK_COST;
use slimstart::simcore::SimDuration;
use slimstart::workload::trace::{ProductionTrace, TraceConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let result = match command {
        "catalog" => cmd_catalog(),
        "run" => cmd_run(&args[1..]),
        // `lint` owns its exit code: 1 on error-severity findings, 0 when
        // the report is clean or carries only warnings/infos.
        "lint" => {
            return match cmd_lint(&args[1..]) {
                Ok(code) => code,
                Err(message) => {
                    eprintln!("error: {message}");
                    ExitCode::FAILURE
                }
            }
        }
        "source" => cmd_source(&args[1..]),
        "graph" => cmd_graph(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "fleet" => cmd_fleet(&args[1..]),
        "chaos" => cmd_chaos(&args[1..]),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `slimstart help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "slimstart — profile-guided serverless cold-start optimization (ICDCS'25 reproduction)

USAGE:
    slimstart catalog
    slimstart run <CODE> [--cold-starts N] [--seed S] [--json] [--iterate R] [--async-collector]
    slimstart lint <CODE> [--json] [--seed S] [--cold-starts N] [--runtime R] [--deny warnings] [--fix]
    slimstart lint --passes
    slimstart lint --explain <LINT-ID>
    slimstart source <CODE> <MODULE>
    slimstart graph <CODE> [--optimized] [--seed S]
    slimstart trace [--seed S]
    slimstart fleet [--apps N] [--threads T] [--runs R] [--seed S] [--cold-starts N] [--light] [--chunk C] [--snapshot-budget B] [--node-size N] [--zygotes Z] [--fork-cost-us U] [--json]
    slimstart chaos [--fault-rate P] [--apps N] [--threads T] [--runs R] [--seed S] [--cold-starts N] [--light] [--chunk C] [--snapshot-budget B] [--node-size N] [--zygotes Z] [--fork-cost-us U] [--json]
    slimstart help

Run `cargo bench -p slimstart-bench` to regenerate every paper table/figure."
    );
}

fn flag_value(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag} needs an integer value")),
    }
}

fn flag_value_str(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn flag_value_f64(args: &[String], flag: &str) -> Result<Option<f64>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag} needs a numeric value")),
    }
}

fn cmd_catalog() -> Result<(), String> {
    println!(
        "{:<9} {:<26} {:<15} {:<14} {:>6} {:>6} {:>8}",
        "CODE", "NAME", "SUITE", "LIBRARY", "#LIBS", "#MODS", "GATE"
    );
    for app in catalog() {
        println!(
            "{:<9} {:<26} {:<15} {:<14} {:>6} {:>6} {:>8}",
            app.code,
            app.name,
            app.suite.label(),
            app.main_library,
            app.n_libs,
            app.n_modules,
            if app.above_gate() { "above" } else { "below" }
        );
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let code = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: slimstart run <CODE> [options]")?;
    let entry = by_code(code).ok_or_else(|| format!("unknown catalog code `{code}`"))?;
    let cold_starts = flag_value(args, "--cold-starts")?.unwrap_or(500) as usize;
    let seed = flag_value(args, "--seed")?.unwrap_or(2025);
    let json = args.iter().any(|a| a == "--json");
    let rounds = flag_value(args, "--iterate")?.unwrap_or(1) as usize;
    let async_collector = args.iter().any(|a| a == "--async-collector");

    let built = entry.build(seed).map_err(|e| e.to_string())?;
    let config = PipelineConfig::default()
        .with_cold_starts(cold_starts)
        .with_seed(seed)
        .with_async_collector(async_collector);
    let pipeline = Pipeline::new(config);
    let outcomes = pipeline
        .run_iterative(&built.app, &entry.workload_weights(), rounds.max(1))
        .map_err(|e| e.to_string())?;
    let outcome = outcomes.last().expect("at least one round");

    if json {
        println!("{}", outcome_to_json(outcome));
        return Ok(());
    }

    println!("{}", render(&outcome.report, &built.app));
    if rounds > 1 {
        println!("CI/CD rounds executed: {}", outcomes.len());
    }
    if let Some(opt) = &outcome.optimization {
        if !opt.deferred_packages.is_empty() {
            println!("lazy-loaded: {:?}", opt.deferred_packages);
        }
        if !opt.skipped.is_empty() {
            println!("kept eager:  {:?}", opt.skipped);
        }
    }
    let first = outcomes.first().expect("at least one round");
    println!(
        "\nbaseline : init {:>8.1} ms   e2e {:>8.1} ms   mem {:>6.1} MB",
        first.baseline.mean_init_ms, first.baseline.mean_e2e_ms, first.baseline.peak_mem_mb
    );
    println!(
        "optimized: init {:>8.1} ms   e2e {:>8.1} ms   mem {:>6.1} MB",
        outcome.optimized.mean_init_ms,
        outcome.optimized.mean_e2e_ms,
        outcome.optimized.peak_mem_mb
    );
    // Cumulative speedup: round-1 baseline vs last round's deployment.
    let speedup =
        slimstart::platform::metrics::Speedup::between(&first.baseline, &outcome.optimized);
    println!(
        "speedup  : lib-load {:.2}x | cold-init {:.2}x | e2e {:.2}x | p99 e2e {:.2}x | mem {:.2}x",
        speedup.load, speedup.init, speedup.e2e, speedup.p99_e2e, speedup.mem
    );
    println!(
        "paper    : init {:.2}x | e2e {:.2}x | mem {:.2}x",
        entry.paper.init_speedup, entry.paper.e2e_speedup, entry.paper.mem_reduction
    );
    println!(
        "profiler overhead: {:.2}%",
        (outcome.profiler_overhead() - 1.0) * 100.0
    );
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--passes") {
        println!("{:<28} {:<28} {:<8}", "LINT ID", "PASS", "DEFAULT");
        for lint in lint_catalog() {
            println!(
                "{:<28} {:<28} {:<8}",
                lint.id, lint.pass, lint.default_severity
            );
        }
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(id) = flag_value_str(args, "--explain")? {
        let info = lint_info(&id).ok_or_else(|| {
            format!("unknown lint id `{id}` (list them with `slimstart lint --passes`)")
        })?;
        println!(
            "{}  (pass: {}, default severity: {})",
            info.id, info.pass, info.default_severity
        );
        println!("\nwhy it hurts cold starts:\n  {}", info.rationale);
        println!("\nhow it is detected:\n  {}", info.detection);
        println!("\nsuggested refactoring:\n  {}", info.refactoring);
        return Ok(ExitCode::SUCCESS);
    }

    let code = args.first().filter(|a| !a.starts_with("--")).ok_or(
        "usage: slimstart lint <CODE> [--fix] [--deny warnings] [--json] \
         | --passes | --explain <LINT-ID>",
    )?;
    let entry = by_code(code).ok_or_else(|| format!("unknown catalog code `{code}`"))?;
    let seed = flag_value(args, "--seed")?.unwrap_or(2025);
    let cold_starts = flag_value(args, "--cold-starts")?.unwrap_or(500) as usize;
    let json = args.iter().any(|a| a == "--json");
    let deny_warnings = match flag_value_str(args, "--deny")? {
        None => false,
        Some(v) if v == "warnings" => true,
        Some(v) => return Err(format!("--deny supports only `warnings`, got `{v}`")),
    };
    let runtime = match flag_value_str(args, "--runtime")? {
        None => RuntimeProfile::python(),
        Some(name) => RuntimeProfile::by_name(&name)
            .ok_or_else(|| format!("unknown runtime `{name}` (python, nodejs, java)"))?,
    };
    let lint_config = AntipatternConfig::default().with_runtime(runtime);

    let built = entry.build(seed).map_err(|e| e.to_string())?;
    let config = PipelineConfig::default()
        .with_cold_starts(cold_starts)
        .with_seed(seed);

    if args.iter().any(|a| a == "--fix") {
        if json {
            return Err("--fix prints a human-readable fix journal; drop --json".to_string());
        }
        return cmd_lint_fix(&entry, &built.app, config, lint_config, deny_warnings);
    }

    // One profiling deployment gives the usage-driven passes (the
    // over-approximation auditor, hot-import detection) their observed view;
    // the other passes are purely static.
    let utilization = Pipeline::new(config)
        .profile_usage(&built.app, &entry.workload_weights())
        .map_err(|e| e.to_string())?;
    let observed = utilization.to_observed();
    let report =
        Analyzer::with_antipattern_passes(lint_config).analyze(&built.app, Some(&observed));

    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    Ok(lint_exit(&report, deny_warnings))
}

fn lint_exit(report: &AnalysisReport, deny_warnings: bool) -> ExitCode {
    if report.has_errors() || (deny_warnings && report.warning_count() > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `slimstart lint <CODE> --fix`: run the full pipeline with the
/// verifier-gated [`AutoFixStage`] in the optimize slot, report what was
/// applied/refused with the measured cold-start delta, then re-lint the
/// deployed application to show the fixed lints are gone.
fn cmd_lint_fix(
    entry: &CatalogApp,
    app: &Application,
    config: PipelineConfig,
    lint_config: AntipatternConfig,
    deny_warnings: bool,
) -> Result<ExitCode, String> {
    let engine = StageEngine::canonical(&config)
        .replace("optimize", AutoFixStage::with_config(lint_config.clone()));
    let outcome = Pipeline::new(config)
        .run_with_engine(&engine, app, &entry.workload_weights())
        .map_err(|e| e.to_string())?;
    let autofix = outcome
        .autofix
        .as_ref()
        .ok_or("the auto-fix stage recorded no outcome")?;
    let report = &autofix.report;

    println!(
        "auto-fix: {} applied, {} rejected in {} round(s){}",
        report.applied.len(),
        report.rejected.len(),
        report.rounds,
        if report.converged {
            ""
        } else {
            " (round budget exhausted)"
        }
    );
    for fix in &report.applied {
        println!(
            "  fixed {:<26} {}  (modeled -{:.1} ms)",
            fix.lint_id, fix.subject, fix.estimated_saving_ms
        );
    }
    for fix in &report.rejected {
        println!(
            "  kept  {:<26} {}  ({})",
            fix.lint_id, fix.subject, fix.reason
        );
    }
    if autofix.rolled_back {
        println!("cold-start regression in the measurement run — all fixes rolled back");
    } else if let (Some(before), Some(after), Some(speedup)) =
        (&autofix.before, &autofix.after, &autofix.speedup)
    {
        println!(
            "measured : init {:.1} -> {:.1} ms | e2e {:.1} -> {:.1} ms | speedup init {:.2}x e2e {:.2}x",
            before.mean_init_ms,
            after.mean_init_ms,
            before.mean_e2e_ms,
            after.mean_e2e_ms,
            speedup.init,
            speedup.e2e
        );
    }

    let post = Analyzer::with_antipattern_passes(lint_config).analyze(&outcome.final_app, None);
    println!("\npost-fix analysis:");
    print!("{}", post.render_text());
    Ok(lint_exit(&post, deny_warnings))
}

fn cmd_source(args: &[String]) -> Result<(), String> {
    let code = args
        .first()
        .ok_or("usage: slimstart source <CODE> <MODULE>")?;
    let module_name = args
        .get(1)
        .ok_or("usage: slimstart source <CODE> <MODULE>")?;
    let entry = by_code(code).ok_or_else(|| format!("unknown catalog code `{code}`"))?;
    let seed = flag_value(args, "--seed")?.unwrap_or(2025);
    let built = entry.build(seed).map_err(|e| e.to_string())?;
    let module = built
        .app
        .module_by_name(module_name)
        .ok_or_else(|| format!("no module `{module_name}` in {code}"))?;
    print!("{}", render_module(&built.app, module));
    Ok(())
}

fn cmd_graph(args: &[String]) -> Result<(), String> {
    let code = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: slimstart graph <CODE> [--optimized]")?;
    let entry = by_code(code).ok_or_else(|| format!("unknown catalog code `{code}`"))?;
    let seed = flag_value(args, "--seed")?.unwrap_or(2025);
    let built = entry.build(seed).map_err(|e| e.to_string())?;
    if args.iter().any(|a| a == "--optimized") {
        let config = PipelineConfig::default()
            .with_cold_starts(100)
            .with_seed(seed);
        let outcome = Pipeline::new(config)
            .run(&built.app, &entry.workload_weights())
            .map_err(|e| e.to_string())?;
        print!(
            "{}",
            slimstart::appmodel::dot::import_graph_dot(&outcome.final_app)
        );
    } else {
        print!("{}", slimstart::appmodel::dot::import_graph_dot(&built.app));
    }
    Ok(())
}

/// Parses the flags `fleet` and `chaos` share into a [`FleetConfig`] plus
/// the `--light` population switch.
fn parse_fleet_config(args: &[String]) -> Result<(FleetConfig, bool), String> {
    let apps = flag_value(args, "--apps")?.unwrap_or(22) as usize;
    let threads = match flag_value(args, "--threads")? {
        Some(t) => t as usize,
        None => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    };
    let seed = flag_value(args, "--seed")?.unwrap_or(2025);
    let cold_starts = flag_value(args, "--cold-starts")?.unwrap_or(500) as usize;
    let runs = flag_value(args, "--runs")?.unwrap_or(1) as usize;
    let chunk = flag_value(args, "--chunk")?.unwrap_or(32) as usize;
    let light = args.iter().any(|a| a == "--light");
    if apps == 0 {
        return Err("--apps must be at least 1".to_string());
    }
    if chunk == 0 {
        return Err("--chunk must be at least 1".to_string());
    }
    let mut config = FleetConfig::default()
        .with_apps(apps)
        .with_threads(threads.max(1))
        .with_seed(seed)
        .with_cold_starts(cold_starts)
        .with_runs(runs.max(1))
        .with_chunk(chunk);
    let node_size = match flag_value(args, "--node-size")? {
        Some(0) => return Err("--node-size must be at least 1".to_string()),
        Some(n) => Some(n as usize),
        None => None,
    };
    let snapshot_pool = parse_snapshot_pool(args, node_size)?;
    let zygote_pool = parse_zygote_pool(args, node_size)?;
    if node_size.is_some() && snapshot_pool.is_none() && zygote_pool.is_none() {
        return Err(
            "--node-size needs a node pool (pass --snapshot-budget or --zygotes)".to_string(),
        );
    }
    if let Some(pool) = snapshot_pool {
        config = config.with_snapshot_pool(pool);
    }
    if let Some(pool) = zygote_pool {
        config = config.with_zygote_pool(pool);
    }
    Ok((config, light))
}

/// Resolves the node snapshot pool for `fleet`/`chaos`: the
/// `--snapshot-budget` flag, falling back to `SLIMSTART_SNAPSHOT_BUDGET`;
/// no pool when neither is set. `SLIMSTART_NO_LAZY_RESTORE=1` switches
/// restores back to PR 5 full-stream replay.
fn parse_snapshot_pool(
    args: &[String],
    node_size: Option<usize>,
) -> Result<Option<NodeSnapshotPool>, String> {
    let budget = match flag_value_str(args, "--snapshot-budget")? {
        Some(v) => v,
        None => match std::env::var("SLIMSTART_SNAPSHOT_BUDGET") {
            Ok(v) if !v.is_empty() => v,
            _ => return Ok(None),
        },
    };
    let node_budget = parse_budget(&budget)?;
    let lazy = std::env::var("SLIMSTART_NO_LAZY_RESTORE").map_or(true, |v| v != "1");
    Ok(Some(NodeSnapshotPool::new(
        node_budget,
        node_size.unwrap_or(DEFAULT_NODE_SIZE),
        lazy,
    )))
}

/// Resolves the node zygote pool for `fleet`/`chaos`: the `--zygotes`
/// flag, falling back to `SLIMSTART_ZYGOTES`; no pool when neither is
/// set (or either is `0`). `--fork-cost-us` prices the acquisition of a
/// zygote-resident module at fork time (default 100 µs).
fn parse_zygote_pool(
    args: &[String],
    node_size: Option<usize>,
) -> Result<Option<NodeZygotePool>, String> {
    let zygotes = match flag_value(args, "--zygotes")? {
        Some(n) => n,
        None => match std::env::var("SLIMSTART_ZYGOTES") {
            Ok(v) if !v.is_empty() => v
                .parse()
                .map_err(|_| "SLIMSTART_ZYGOTES must be an integer".to_string())?,
            _ => 0,
        },
    };
    if zygotes == 0 {
        if flag_value(args, "--fork-cost-us")?.is_some() {
            return Err("--fork-cost-us needs the zygote pool (pass --zygotes)".to_string());
        }
        return Ok(None);
    }
    let fork_cost = flag_value(args, "--fork-cost-us")?
        .map(SimDuration::from_micros)
        .unwrap_or(DEFAULT_FORK_COST);
    Ok(Some(NodeZygotePool::new(
        zygotes as usize,
        node_size.unwrap_or(DEFAULT_NODE_SIZE),
        fork_cost,
    )))
}

fn run_fleet(config: FleetConfig, light: bool, json: bool) -> Result<(), String> {
    let orchestrator = FleetOrchestrator::new(config);
    let result = if light {
        let population = slimstart::appmodel::catalog::light_population(orchestrator.config().apps);
        orchestrator.run_population(&population)
    } else {
        orchestrator.run()
    };
    let (report, stats) = result.map_err(|e| e.to_string())?;

    if json {
        // Wall-clock stats stay on stderr: stdout is the deterministic,
        // thread-count-independent report.
        println!("{}", report.to_json());
        eprintln!("{stats}");
    } else {
        print!("{}", report.render_text());
        println!("{stats}");
    }
    Ok(())
}

fn cmd_fleet(args: &[String]) -> Result<(), String> {
    let json = args.iter().any(|a| a == "--json");
    let (config, light) = parse_fleet_config(args)?;
    run_fleet(config, light, json)
}

fn cmd_chaos(args: &[String]) -> Result<(), String> {
    let json = args.iter().any(|a| a == "--json");
    let rate = match flag_value_f64(args, "--fault-rate")? {
        Some(r) => r,
        None => match std::env::var("SLIMSTART_FAULT_RATE") {
            Ok(v) => v
                .parse()
                .map_err(|_| "SLIMSTART_FAULT_RATE must be numeric".to_string())?,
            Err(_) => 0.1,
        },
    };
    if !(0.0..=1.0).contains(&rate) {
        return Err("--fault-rate must be within [0, 1]".to_string());
    }
    let (config, light) = parse_fleet_config(args)?;
    run_fleet(config.with_chaos(ChaosConfig::uniform(rate)), light, json)
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let seed = flag_value(args, "--seed")?.unwrap_or(2025);
    let trace = ProductionTrace::generate(TraceConfig::default(), seed);
    println!(
        "apps: {}   windows: {} x {:.0}h   multi-handler: {:.1}%",
        trace.apps().len(),
        trace.window_count(),
        trace.config().window.as_secs_f64() / 3600.0,
        trace.multi_handler_fraction() * 100.0
    );
    let cdf = trace.invocation_cdf_by_rank();
    println!(
        "invocation share: top-1 {:.1}%  top-3 {:.1}%",
        cdf.first().copied().unwrap_or(1.0) * 100.0,
        cdf.get(2).copied().unwrap_or(1.0) * 100.0
    );
    println!("\nhour  mean-dp   apps>eps");
    for (w, (mean, frac)) in trace.delta_p_timeline(0.002).iter().enumerate() {
        println!("{:>4}  {:.5}   {:>5.1}%", w * 12, mean, frac * 100.0);
    }
    Ok(())
}
