//! In-process layer tracer behind `perfbench/run.py --trace 1`.
//!
//! Each rep runs every workload command three ways inside this process:
//!
//! * `a` — `dmig_cli::run`, exactly what the `dmig` binary does; its wall
//!   is the untraced in-process command time;
//! * `b` — the same call with the program's own recorder switched on, for
//!   the spans and counters the crates already publish (`solve_even.pad`,
//!   `exec_replan`, `flow_solves`, `dinic.calls`, …); its wall against
//!   `a` is the recorder's overhead;
//! * `c` — a replay that makes the command's calls into each crate's
//!   public functions in the same order, timing every call as a benchmark
//!   span (`cli.parse`, `core.solve`, `sim.step`, `obs.journal_sync`, …).
//!
//! The program itself gains no tracing: every span here is recorded
//! around a public call. Spans stay in memory and are written to
//! `spans.json` when the run ends; the per-rep summary goes to
//! `trace.json`. `run.py` turns both into the per-layer metrics and checks
//! that `b` and `c` reproduce the outputs of `a`.
//!
//! Usage: `perfbench-tracer <spec.json>`, where the spec is
//! `{"dir": D, "seconds": S, "commands": [[arg, …], …]}` and `{out}` in an
//! argument stands for the variant directory `D/a`, `D/b` or `D/c`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dmig_core::parallel::{
    merge_component_schedules, solve_components, split_components, ParallelSolver,
};
use dmig_core::solver::{solver_by_name, Solver};
use dmig_core::{bounds, MigrationProblem, MigrationSchedule, SolveError};
use dmig_graph::EdgeId;
use dmig_obs::SpanNode;
use dmig_obs::Value;
use dmig_sim::{Cluster, Executor, ExecutorConfig, FaultPlan, StepOutcome};

/// One benchmark span: a timed call into a crate, or a command's root.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    thread: u64,
    rep: usize,
    cmd: usize,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span store. Shared by reference with solver worker
/// threads, so every field is thread-safe.
struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    rep: AtomicUsize,
    cmd: AtomicUsize,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            rep: AtomicUsize::new(0),
            cmd: AtomicUsize::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        spans.push(Span {
            name,
            parent,
            thread: THREAD.with(|t| *t),
            rep: self.rep.load(Ordering::Relaxed),
            cmd: self.cmd.load(Ordering::Relaxed),
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned by a panic")[id].end_ns = end_ns;
    }

    fn time<T>(&self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }
}

// --- command-line plumbing ---------------------------------------------

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn threads_of(args: &[String]) -> Result<usize, String> {
    flag(args, "--threads")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("bad --threads: {e}"))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn substitute(args: &[String], out: &Path) -> Vec<String> {
    let out = out.display().to_string();
    args.iter().map(|a| a.replace("{out}", &out)).collect()
}

// --- replay -------------------------------------------------------------

/// `ParallelSolver::with_threads(AutoSolver, threads).solve`, call by
/// call: the component split, the concurrent per-component auto
/// dispatch (with its `is_bipartite` check timed), and the merge.
fn replay_solve(
    tr: &Tracer,
    parent: usize,
    problem: &MigrationProblem,
    threads: usize,
) -> Result<MigrationSchedule, String> {
    let id = tr.open("core.solve", Some(parent));
    dmig_flow::pool::budget().set_parallelism(threads);
    let parts = tr.time("core.split", id, || split_components(problem));
    let solved = solve_components(&parts, threads, |sub| auto_dispatch(tr, id, sub));
    let out = solved
        .map(|s| merge_component_schedules(&parts, &s))
        .map_err(|e| e.to_string());
    tr.close(id);
    out
}

/// The dispatch of `AutoSolver::solve`.
fn auto_dispatch(
    tr: &Tracer,
    parent: usize,
    problem: &MigrationProblem,
) -> Result<MigrationSchedule, SolveError> {
    if problem.capacities().all_even() {
        return dmig_core::even::solve_even(problem);
    }
    if tr.time("graph.bipartite_check", parent, || {
        dmig_graph::bipartite::is_bipartite(problem.graph())
    }) {
        return dmig_core::bipartite_opt::solve_bipartite(problem);
    }
    Ok(dmig_core::general::solve_general(problem).schedule)
}

fn parse_instance(tr: &Tracer, root: usize, path: &str) -> Result<MigrationProblem, String> {
    let text = tr.time("cli.read", root, || read(path))?;
    tr.time("cli.parse", root, || {
        dmig_cli::instance::parse_instance(&text)
    })
    .map_err(|e| format!("cannot parse {path}: {e}"))
}

fn parse_faults(tr: &Tracer, root: usize, path: &str, disks: usize) -> Result<FaultPlan, String> {
    let text = tr.time("cli.read", root, || read(path))?;
    tr.time("sim.fault_parse", root, || {
        FaultPlan::parse_checked(&text, disks)
    })
    .map_err(|e| format!("{path}: {e}"))
}

fn validate(
    tr: &Tracer,
    root: usize,
    schedule: &MigrationSchedule,
    problem: &MigrationProblem,
) -> Result<(), String> {
    tr.time("core.validate", root, || schedule.validate(problem))
        .map_err(|e| format!("invalid schedule: {e}"))
}

/// One line per round, the item ids separated by spaces.
fn render_rounds(schedule: &MigrationSchedule) -> String {
    let mut out = String::new();
    for round in schedule.rounds() {
        let ids: Vec<String> = round.iter().map(|e| e.index().to_string()).collect();
        let _ = writeln!(out, "{}", ids.join(" "));
    }
    out
}

/// What a replayed command leaves behind for `run.py` to compare.
enum ReplayOutput {
    Schedule(String),
    Report(String),
}

/// Per-command counts the replay observes directly.
#[derive(Default)]
struct ReplayCounts {
    checkpoint_bytes: u64,
    journal_syncs: u64,
}

/// `dmig solve <file> --threads N`.
fn replay_cli_solve(tr: &Tracer, root: usize, args: &[String]) -> Result<ReplayOutput, String> {
    let path = args.get(1).ok_or("solve: missing instance")?;
    let problem = parse_instance(tr, root, path)?;
    let schedule = replay_solve(tr, root, &problem, threads_of(args)?)?;
    validate(tr, root, &schedule, &problem)?;
    // The "lower bound" line of the output: max(Δ', Γ').
    let lb1 = tr.time("core.lb1", root, || bounds::lb1(&problem));
    let lb2 = tr.time("core.lb2", root, || bounds::lb2(&problem));
    std::hint::black_box(lb1.max(lb2));
    Ok(ReplayOutput::Schedule(render_rounds(&schedule)))
}

/// `dmig simulate <file> --threads N [--faults F [--replan]]`.
fn replay_cli_simulate(tr: &Tracer, root: usize, args: &[String]) -> Result<ReplayOutput, String> {
    let path = args.get(1).ok_or("simulate: missing instance")?;
    let problem = parse_instance(tr, root, path)?;
    let threads = threads_of(args)?;
    let faults = match flag(args, "--faults") {
        Some(f) => Some(parse_faults(tr, root, f, problem.num_disks())?),
        None => None,
    };
    let schedule = replay_solve(tr, root, &problem, threads)?;
    let cluster = Cluster::uniform(problem.num_disks(), 1.0);
    let json = match &faults {
        Some(plan) => {
            let config = ExecutorConfig {
                replan: args.iter().any(|a| a == "--replan"),
                ..ExecutorConfig::default()
            };
            let solver = ParallelSolver::with_threads(auto_solver()?, threads);
            let mut exec = tr
                .time("sim.exec_init", root, || {
                    Executor::new(&problem, &schedule, &cluster, plan, &config, &solver)
                })
                .map_err(|e| e.to_string())?;
            while tr
                .time("sim.step", root, || exec.step())
                .map_err(|e| e.to_string())?
                == StepOutcome::Running
            {}
            exec.into_report().to_json()
        }
        None => tr
            .time("sim.simulate_rounds", root, || {
                dmig_sim::engine::simulate_rounds(&problem, &schedule, &cluster)
            })
            .map_err(|e| e.to_string())?
            .to_json(),
    };
    Ok(ReplayOutput::Report(json))
}

/// `dmig migrate plan <file> --workspace W --faults F --replan --threads N`.
fn replay_migrate_plan(tr: &Tracer, root: usize, args: &[String]) -> Result<ReplayOutput, String> {
    let path = args.get(2).ok_or("migrate plan: missing instance")?;
    let problem = parse_instance(tr, root, path)?;
    if let Some(f) = flag(args, "--faults") {
        parse_faults(tr, root, f, problem.num_disks())?;
    }
    let schedule = replay_solve(tr, root, &problem, threads_of(args)?)?;
    validate(tr, root, &schedule, &problem)?;
    Ok(ReplayOutput::Schedule(render_rounds(&schedule)))
}

fn json_field<'a>(doc: &'a Value, key: &str) -> Result<&'a Value, String> {
    doc.get_path(key).ok_or_else(|| format!("missing `{key}`"))
}

/// Loads `plan.json` and `config.json` of a planned workspace.
fn load_plan(ws: &Path) -> Result<(MigrationSchedule, ExecutorConfig, Vec<f64>), String> {
    let plan = Value::parse(&read(&ws.join("plan.json").display().to_string())?)
        .map_err(|e| format!("plan.json: {e}"))?;
    let mut rounds = Vec::new();
    for round in json_field(&plan, "rounds")?.as_array().ok_or("rounds")? {
        let ids = round.as_array().ok_or("round is not an array")?;
        rounds.push(
            ids.iter()
                .map(|e| EdgeId::new(e.as_f64().unwrap_or_default() as usize))
                .collect(),
        );
    }
    let cfg = Value::parse(&read(&ws.join("config.json").display().to_string())?)
        .map_err(|e| format!("config.json: {e}"))?;
    let bits = |key: &str| -> Result<f64, String> {
        let s = json_field(&cfg, key)?.as_str().ok_or(key.to_string())?;
        Ok(f64::from_bits(
            s.parse().map_err(|e| format!("{key}: {e}"))?,
        ))
    };
    let config = ExecutorConfig {
        replan: json_field(&cfg, "replan")?.as_f64().unwrap_or_default() != 0.0,
        retry_max: json_field(&cfg, "retry_max")?.as_f64().unwrap_or_default() as u32,
        backoff_base: bits("backoff_base")?,
        backoff_factor: bits("backoff_factor")?,
        degrade_replan_threshold: bits("degrade_replan_threshold")?,
        stall_factor: bits("stall_factor")?,
    };
    let mut bandwidths = Vec::new();
    for b in json_field(&cfg, "bandwidths")?
        .as_array()
        .ok_or("bandwidths")?
    {
        let s = b.as_str().ok_or("bandwidth")?;
        bandwidths.push(f64::from_bits(
            s.parse().map_err(|e| format!("bandwidth: {e}"))?,
        ));
    }
    Ok((MigrationSchedule::from_rounds(rounds), config, bandwidths))
}

/// `dmig migrate execute --workspace W --threads N`: reads the workspace
/// that variant `a` planned and journals into `out`.
fn replay_migrate_execute(
    tr: &Tracer,
    root: usize,
    args: &[String],
    planned_ws: &Path,
    out: &Path,
    counts: &mut ReplayCounts,
) -> Result<ReplayOutput, String> {
    let threads = threads_of(args)?;
    let problem = parse_instance(
        tr,
        root,
        &planned_ws.join("instance.txt").display().to_string(),
    )?;
    let (schedule, config, bandwidths) = tr.time("cli.load", root, || load_plan(planned_ws))?;
    validate(tr, root, &schedule, &problem)?;
    let faults = parse_faults(
        tr,
        root,
        &planned_ws.join("faults.toml").display().to_string(),
        problem.num_disks(),
    )?;
    let cluster = Cluster::from_bandwidths(bandwidths);
    let solver = ParallelSolver::with_threads(auto_solver()?, threads);
    let mut exec = tr
        .time("sim.exec_init", root, || {
            Executor::new(&problem, &schedule, &cluster, &faults, &config, &solver)
        })
        .map_err(|e| e.to_string())?;

    // The recorder and the durable event sink, set up as the command does.
    let journal = out.join("journal.jsonl").display().to_string();
    dmig_obs::reset();
    dmig_obs::set_enabled(true);
    dmig_obs::events::reset();
    dmig_obs::events::open_sink(&journal).map_err(|e| format!("cannot open {journal}: {e}"))?;
    dmig_obs::events::set_enabled(true);
    let result = journal_loop(tr, root, &mut exec, counts);
    dmig_obs::events::set_enabled(false);
    dmig_obs::events::close_sink();
    dmig_obs::events::reset();
    let json = exec.into_report().to_json();
    dmig_obs::set_enabled(false);
    result.map(|()| ReplayOutput::Report(json))
}

fn journal_loop(
    tr: &Tracer,
    root: usize,
    exec: &mut Executor<'_>,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    loop {
        let ckpt = tr.time("sim.checkpoint", root, || exec.checkpoint_json());
        counts.checkpoint_bytes += ckpt.len() as u64 + 1;
        tr.time("obs.journal_append", root, || {
            dmig_obs::events::append_sink_line(&ckpt)
        })
        .map_err(|e| format!("journal append: {e}"))?;
        tr.time("obs.journal_sync", root, dmig_obs::events::sync_sink)
            .map_err(|e| format!("journal sync: {e}"))?;
        counts.journal_syncs += 1;
        let outcome = tr
            .time("sim.step", root, || exec.step())
            .map_err(|e| e.to_string())?;
        if outcome == StepOutcome::Finished {
            return Ok(());
        }
    }
}

fn auto_solver() -> Result<Box<dyn Solver>, String> {
    solver_by_name("auto").ok_or_else(|| "no `auto` solver".to_string())
}

// --- the three variants ----------------------------------------------------

/// Span totals of the program's own recorder, by span name.
#[derive(Default)]
struct RecorderSpans {
    inclusive_ns: BTreeMap<String, u64>,
    self_ns: BTreeMap<String, u64>,
}

fn fold_spans(node: &SpanNode, into: &mut RecorderSpans) {
    let total = node.duration_ns.unwrap_or_default();
    let children: u64 = node
        .children
        .iter()
        .map(|c| c.duration_ns.unwrap_or_default())
        .sum();
    *into.inclusive_ns.entry(node.name.clone()).or_default() += total;
    *into.self_ns.entry(node.name.clone()).or_default() += total.saturating_sub(children);
    for c in &node.children {
        fold_spans(c, into);
    }
}

/// Everything one command contributes to one rep of `trace.json`.
struct CommandTrace {
    verb: String,
    untraced_ns: u64,
    traced_ns: u64,
    untraced_code: i32,
    traced_code: i32,
    replay_ns: u64,
    replay_error: Option<String>,
    counts: ReplayCounts,
    counters: BTreeMap<String, u64>,
    histogram_sums: BTreeMap<String, u64>,
    recorder: RecorderSpans,
}

fn run_cli(args: &[String], out: &Path, k: usize) -> Result<(u64, i32), String> {
    let started = Instant::now();
    let outcome = dmig_cli::run(args);
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    write(&out.join(format!("cmd{k}.stdout")), &outcome.stdout)?;
    Ok((ns, outcome.code))
}

fn verb_of(args: &[String]) -> String {
    match args.first().map(String::as_str) {
        Some("migrate") => format!("migrate {}", args.get(1).map_or("", String::as_str)),
        Some(v) => v.to_string(),
        None => String::new(),
    }
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path)
            .map_err(|e| format!("cannot clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
}

/// Runs every command as variant `a` (untraced) into `traces`.
fn untraced(commands: &[Vec<String>], a: &Path, traces: &mut [CommandTrace]) -> Result<(), String> {
    for (k, cmd) in commands.iter().enumerate() {
        (traces[k].untraced_ns, traces[k].untraced_code) = run_cli(&substitute(cmd, a), a, k)?;
    }
    Ok(())
}

/// Runs every command as variant `b`, with the program's recorder on.
fn recorded(commands: &[Vec<String>], b: &Path, traces: &mut [CommandTrace]) -> Result<(), String> {
    for (k, cmd) in commands.iter().enumerate() {
        dmig_obs::reset();
        dmig_obs::set_enabled(true);
        let (ns, code) = run_cli(&substitute(cmd, b), b, k)?;
        dmig_obs::set_enabled(false);
        let snap = dmig_obs::snapshot();
        let t = &mut traces[k];
        t.traced_ns = ns;
        t.traced_code = code;
        t.counters = snap.counters.clone();
        t.histogram_sums = snap
            .histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.sum))
            .collect();
        for root in &snap.spans {
            fold_spans(root, &mut t.recorder);
        }
        dmig_obs::reset();
    }
    Ok(())
}

/// One rep: all commands untraced and with the recorder (in alternating
/// order from rep to rep, so warm caches favour neither), then replayed.
fn rep(
    tr: &Tracer,
    dir: &Path,
    commands: &[Vec<String>],
    index: usize,
) -> Result<Vec<CommandTrace>, String> {
    let (a, b, c) = (dir.join("a"), dir.join("b"), dir.join("c"));
    for d in [&a, &b, &c] {
        fresh_dir(d)?;
    }
    let mut traces: Vec<CommandTrace> = commands
        .iter()
        .map(|cmd| CommandTrace {
            verb: verb_of(cmd),
            untraced_ns: 0,
            traced_ns: 0,
            untraced_code: 0,
            traced_code: 0,
            replay_ns: 0,
            replay_error: None,
            counts: ReplayCounts::default(),
            counters: BTreeMap::new(),
            histogram_sums: BTreeMap::new(),
            recorder: RecorderSpans::default(),
        })
        .collect();
    if index.is_multiple_of(2) {
        untraced(commands, &a, &mut traces)?;
        recorded(commands, &b, &mut traces)?;
    } else {
        recorded(commands, &b, &mut traces)?;
        untraced(commands, &a, &mut traces)?;
    }
    for (k, cmd) in commands.iter().enumerate() {
        tr.cmd.store(k, Ordering::Relaxed);
        let args = substitute(cmd, &c);
        let mut counts = ReplayCounts::default();
        let root = tr.open("cmd", None);
        let started = Instant::now();
        let result = match traces[k].verb.as_str() {
            "solve" => replay_cli_solve(tr, root, &args),
            "simulate" => replay_cli_simulate(tr, root, &args),
            "migrate plan" => replay_migrate_plan(tr, root, &args),
            "migrate execute" => {
                let ws_arg = flag(cmd, "--workspace").unwrap_or_default();
                let planned = PathBuf::from(ws_arg.replace("{out}", &a.display().to_string()));
                replay_migrate_execute(tr, root, &args, &planned, &c, &mut counts)
            }
            other => Err(format!("no replay for `{other}`")),
        };
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        tr.close(root);
        let t = &mut traces[k];
        t.replay_ns = ns;
        t.counts = counts;
        match result {
            Ok(ReplayOutput::Schedule(s)) => write(&c.join(format!("cmd{k}.schedule")), &s)?,
            Ok(ReplayOutput::Report(r)) => write(&c.join(format!("cmd{k}.report.json")), &r)?,
            Err(e) => t.replay_error = Some(e),
        }
    }
    Ok(traces)
}

// --- output ----------------------------------------------------------------

fn ms(ns: u64) -> String {
    format!("{:.6}", ns as f64 / 1e6)
}

fn map_json<V>(map: &BTreeMap<String, V>, render: impl Fn(&V) -> String) -> String {
    let fields: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{}: {}", dmig_obs::json::string(k), render(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The replay's layer totals for one command: inclusive ms per span name
/// below the command root, and the sum over the root's direct children.
fn layer_totals(spans: &[Span], rep: usize, cmd: usize) -> (BTreeMap<String, u64>, u64) {
    let mut by_name = BTreeMap::new();
    let mut direct = 0u64;
    let roots: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.rep == rep && s.cmd == cmd)
        .map(|(i, _)| i)
        .collect();
    for s in spans
        .iter()
        .filter(|s| s.rep == rep && s.cmd == cmd && s.parent.is_some())
    {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        *by_name.entry(s.name.to_string()).or_default() += dur;
        if s.parent.is_some_and(|p| roots.contains(&p)) {
            direct += dur;
        }
    }
    (by_name, direct)
}

fn command_json(t: &CommandTrace, spans: &[Span], rep: usize, k: usize) -> String {
    let (layers, direct) = layer_totals(spans, rep, k);
    let mut counts = BTreeMap::new();
    counts.insert(
        "sim.checkpoint_bytes".to_string(),
        t.counts.checkpoint_bytes,
    );
    counts.insert("obs.journal_syncs".to_string(), t.counts.journal_syncs);
    format!(
        "{{\"verb\": {}, \"untraced_ms\": {}, \"traced_ms\": {}, \"replay_ms\": {}, \
         \"untraced_code\": {}, \"traced_code\": {}, \"replay_error\": {}, \
         \"layers_ms\": {}, \"layer_sum_ms\": {}, \"counts\": {}, \"counters\": {}, \
         \"histogram_sums\": {}, \"recorder_ms\": {}, \"recorder_self_ms\": {}}}",
        dmig_obs::json::string(&t.verb),
        ms(t.untraced_ns),
        ms(t.traced_ns),
        ms(t.replay_ns),
        t.untraced_code,
        t.traced_code,
        t.replay_error
            .as_deref()
            .map_or_else(|| "null".to_string(), dmig_obs::json::string),
        map_json(&layers, |v| ms(*v)),
        ms(direct),
        map_json(&counts, u64::to_string),
        map_json(&t.counters, u64::to_string),
        map_json(&t.histogram_sums, u64::to_string),
        map_json(&t.recorder.inclusive_ns, |v| ms(*v)),
        map_json(&t.recorder.self_ns, |v| ms(*v)),
    )
}

fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"id\": {i}, \"name\": {}, \"parent\": {}, \"thread\": {}, \"rep\": {}, \
             \"cmd\": {}, \"start_us\": {:.3}, \"dur_us\": {:.3}}}",
            dmig_obs::json::string(s.name),
            s.parent
                .map_or_else(|| "null".to_string(), |p| p.to_string()),
            s.thread,
            s.rep,
            s.cmd,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}

struct Spec {
    dir: PathBuf,
    seconds: f64,
    commands: Vec<Vec<String>>,
}

fn load_spec(path: &str) -> Result<Spec, String> {
    let doc = Value::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    let dir = json_field(&doc, "dir")?.as_str().ok_or("dir")?;
    let seconds = json_field(&doc, "seconds")?.as_f64().ok_or("seconds")?;
    let mut commands = Vec::new();
    for cmd in json_field(&doc, "commands")?.as_array().ok_or("commands")? {
        let args = cmd.as_array().ok_or("command is not an array")?;
        commands.push(
            args.iter()
                .map(|a| a.as_str().map(str::to_string).ok_or("argument"))
                .collect::<Result<Vec<_>, _>>()?,
        );
    }
    Ok(Spec {
        dir: PathBuf::from(dir),
        seconds,
        commands,
    })
}

fn main_inner() -> Result<(), String> {
    let spec_path = std::env::args()
        .nth(1)
        .ok_or("usage: perfbench-tracer <spec.json>")?;
    let spec = load_spec(&spec_path)?;
    let tr = Tracer::new();

    // Warm-up: variant `a` once, so pools and page caches are filled.
    let warm = spec.dir.join("warmup");
    fresh_dir(&warm)?;
    for (k, cmd) in spec.commands.iter().enumerate() {
        run_cli(&substitute(cmd, &warm), &warm, k)?;
    }
    std::fs::remove_dir_all(&warm).map_err(|e| format!("cannot clear warm-up: {e}"))?;

    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.is_empty() || started.elapsed().as_secs_f64() < spec.seconds {
        tr.rep.store(reps.len(), Ordering::Relaxed);
        reps.push(rep(&tr, &spec.dir, &spec.commands, reps.len())?);
    }

    let spans = tr
        .spans
        .into_inner()
        .expect("span store poisoned by a panic");
    let mut out = String::from("{\"reps\": [\n");
    for (r, traces) in reps.iter().enumerate() {
        if r > 0 {
            out.push_str(",\n");
        }
        let cmds: Vec<String> = traces
            .iter()
            .enumerate()
            .map(|(k, t)| command_json(t, &spans, r, k))
            .collect();
        let _ = write!(out, "[{}]", cmds.join(",\n "));
    }
    out.push_str("\n]}\n");
    write(&spec.dir.join("trace.json"), &out)?;
    write(&spec.dir.join("spans.json"), &spans_json(&spans))
}

fn main() {
    if let Err(e) = main_inner() {
        eprintln!("perfbench-tracer: {e}");
        std::process::exit(1);
    }
}
