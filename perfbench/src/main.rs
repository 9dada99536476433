//! The stabcon benchmark: one command that drives a workload through the
//! library's public entry points, checks every store it produces against
//! the in-process reference, and prints the metrics by name with units.
//!
//! ```text
//! perfbench --workload <inproc-dense|served-cells|queue-jobs> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted` and `failed` (cells) and `metrics`: the end-to-end metrics
//! when untraced, the per-layer metrics when traced. The line before it
//! records the run's context (machine, sample counts, ratio bases). All
//! files go to `.bench_work/` under the current directory and are removed
//! afterwards; the traced run leaves its spans in `.bench_out/`.

mod check;
mod env;
mod inproc;
mod metrics;
mod probe;
mod queue;
mod served;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use stabcon_exp::fabric::ServeOutcome;
use stabcon_util::rng::derive_seed;

use metrics::{Values, END_TO_END, PER_LAYER};
use trace::Tracer;

/// The workloads, as named on the command line.
pub const WORKLOADS: [&str; 3] = ["inproc-dense", "served-cells", "queue-jobs"];

/// The workloads `BENCHMARK.json` lists. `inproc-dense` is CPU-bound on
/// every core and follows the host's load too closely for the benchmark's
/// bounds on a shared machine, so it is run by hand (see `METRICS.md`).
pub const LISTED: [&str; 2] = ["served-cells", "queue-jobs"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: u64 = 9;

/// Campaign numbers of the traced pass start here, so its seeds differ
/// from the untraced pass's.
const TRACED_FIRST: u64 = 1_000_000;

/// Everything a workload run needs to know.
pub struct Plan {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Length of the timed region, seconds.
    pub seconds: f64,
    /// CPUs available (`nproc`); in-process campaigns use all of them.
    pub threads: usize,
    /// This run's scratch directory.
    pub dir: PathBuf,
    /// Minimal grids, for the benchmark's own tests.
    pub tiny: bool,
    /// Damage one produced store line before the gate (tests only).
    pub corrupt: bool,
}

/// What one timed region did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Trials completed.
    pub trials: u64,
    /// Seconds the trials are divided by: the region's wall time, or on
    /// `queue-jobs` the part of it with at least one job in flight.
    pub wall_s: f64,
    /// Per-campaign (or per-job) turnaround, seconds.
    pub turnaround_s: Vec<f64>,
    /// Cells attempted.
    pub cells: u64,
}

/// Seed of campaign `k` of input stream `stream` (48 bits, so it survives
/// every JSON number parser on the wire).
pub fn campaign_seed(seed: u64, stream: u64, k: u64) -> u64 {
    derive_seed(derive_seed(seed, stream), k) & ((1 << 48) - 1)
}

/// A finished run: metric values, the gate's counts, and context notes.
pub struct Report {
    values: Values,
    attempted: u64,
    failed: u64,
    notes: Vec<(&'static str, String)>,
}

impl Report {
    fn new(setups: &[f64]) -> Self {
        let mut values = Values::default();
        values.set("setup_s", stats::median(setups));
        Self {
            values,
            attempted: 0,
            failed: 0,
            notes: vec![("setup_samples", setups.len().to_string())],
        }
    }

    fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }

    /// Fold a pass and its gate result into the end-to-end values.
    fn end_to_end(&mut self, pass: &Pass, bad: u64) {
        let tps = pass.trials as f64 / pass.wall_s;
        self.values.set("trials_per_s", tps);
        let t = &pass.turnaround_s;
        self.values
            .set("job_turnaround_p50_s", stats::percentile(t, 0.5));
        self.values
            .set("job_turnaround_p75_s", stats::percentile(t, 0.75));
        self.attempted += pass.cells;
        self.failed += bad;
        self.note("trials", pass.trials);
        self.note("trials_per_s_base_s", pass.wall_s);
        self.note("turnaround_samples", t.len());
        self.note("p75_ten_beyond", stats::tail_supported(t.len(), 0.75));
    }

    /// The traced-run values every workload derives the same way: tracing
    /// overhead against the untraced half, and the share of the traced
    /// pass's wall time that no span covers.
    fn traced(&mut self, base: &Pass, pass: &Pass, tracer: &Tracer, hi: u64, bad: u64) {
        let untraced = base.trials as f64 / base.wall_s;
        let traced = pass.trials as f64 / pass.wall_s;
        self.values
            .set("trace.overhead_share", 1.0 - traced / untraced);
        self.note("overhead_base_untraced_trials_per_s", untraced);
        self.note("traced_trials_per_s", traced);
        let gap = trace::unaccounted(tracer.spans(), 0, hi);
        self.values
            .set("trace.unaccounted_share", gap / (hi as f64 / 1e9));
        self.note("traced_wall_s", hi as f64 / 1e9);
        self.attempted += base.cells + pass.cells;
        self.failed += bad;
    }

    /// Serve-side counters summed over `outcomes`.
    fn serve_counters(&mut self, outcomes: &[&ServeOutcome]) {
        let sum = |f: fn(&ServeOutcome) -> u64| outcomes.iter().map(|o| f(o)).sum::<u64>();
        let ingested = sum(|o| o.cells_ingested);
        let deduped = sum(|o| o.results_deduped);
        let v = &mut self.values;
        v.set(
            "fabric.serve.leases_reclaimed",
            sum(|o| o.leases_reclaimed) as f64,
        );
        v.set(
            "fabric.serve.leases_renewed",
            sum(|o| o.leases_renewed) as f64,
        );
        v.set("fabric.serve.results_deduped", deduped as f64);
        v.set(
            "fabric.serve.ingest_share",
            ingested as f64 / (ingested + deduped).max(1) as f64,
        );
        self.note("ingest_share_base_results", ingested + deduped);
    }

    /// Record the probes' sample counts and ratio bases.
    fn probe_notes(&mut self, probed: &probe::Probed) {
        self.notes.extend(probed.notes.iter().cloned());
    }

    /// Client and queue values from a probe daemon.
    fn queue_probe(&mut self, probe: &queue::QueueProbe) {
        let v = &mut self.values;
        v.set("fabric.client.submit_ms_p50", probe.submit_ms);
        v.set(
            "fabric.client.status_ms_p50",
            stats::percentile(&probe.status_ms, 0.5),
        );
        v.set(
            "fabric.client.status_ms_p99",
            stats::percentile(&probe.status_ms, 0.99),
        );
        v.set("fabric.queue.first_cell_ms_p50", probe.first_cell_ms);
        v.set("fabric.queue.drain_s", probe.drain_s);
        self.note("status_samples", probe.status_ms.len());
        self.note("submit_samples", 1);
    }
}

fn setups(f: impl Fn(u64) -> Result<f64, String>) -> Result<Vec<f64>, String> {
    (0..SETUPS).map(f).collect()
}

fn run_inproc(plan: &Plan, traced: bool) -> Result<(Report, Option<Tracer>), String> {
    let mut r = Report::new(&setups(|k| inproc::setup_once(plan, k))?);
    r.note("cell_threads", plan.threads);
    if !traced {
        let (pass, ran) = inproc::timed(plan, 0, plan.seconds, &mut Tracer::new(false))?;
        let bad = inproc::check(plan, &ran)?;
        r.end_to_end(&pass, bad);
        return Ok((r, None));
    }
    let half = plan.seconds / 2.0;
    let (base, ran0) = inproc::timed(plan, 0, half, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let (pass, ran1) = inproc::timed(plan, TRACED_FIRST, half, &mut tracer)?;
    let hi = tracer.now_ns();
    let bad = inproc::check(plan, &ran0)? + inproc::check(plan, &ran1)?;
    r.traced(&base, &pass, &tracer, hi, bad);
    r.values.set("fabric.worker.reconnects", 0.0);
    let descs = [inproc::descriptor(plan, TRACED_FIRST)];
    let probed = probe::run(
        plan,
        &descs,
        plan.threads,
        1,
        false,
        &mut tracer,
        &mut r.values,
    )?;
    // In process there is no worker: the same quantity is the first traced
    // campaign's wall time beyond the same cells run alone.
    let overhead_s = pass.turnaround_s[0] - probed.campaigns[0].run_cell_s;
    let cells = probed.campaigns[0].cells.len() as f64;
    r.values.set(
        "fabric.worker.overhead_ms_per_cell",
        overhead_s * 1e3 / cells,
    );
    r.note("overhead_base_cells", cells);
    r.serve_counters(&probed.lease_outcomes.iter().collect::<Vec<_>>());
    r.probe_notes(&probed);
    r.queue_probe(&queue::probe(plan, &descs[0], &mut tracer)?);
    Ok((r, Some(tracer)))
}

fn run_served(plan: &Plan, traced: bool) -> Result<(Report, Option<Tracer>), String> {
    let mut r = Report::new(&setups(|k| served::setup_once(plan, k))?);
    r.note("cell_threads", 1);
    if !traced {
        let (pass, ran) = served::timed(plan, 0, plan.seconds, &mut Tracer::new(false))?;
        let bad = served::check(plan, &ran)?;
        r.end_to_end(&pass, bad);
        return Ok((r, None));
    }
    let half = plan.seconds / 2.0;
    let (base, ran0) = served::timed(plan, 0, half, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let (pass, ran1) = served::timed(plan, TRACED_FIRST, half, &mut tracer)?;
    let hi = tracer.now_ns();
    let bad = served::check(plan, &ran0)? + served::check(plan, &ran1)?;
    r.traced(&base, &pass, &tracer, hi, bad);
    let all: Vec<&served::Ran> = ran0.iter().chain(&ran1).collect();
    r.serve_counters(&all.iter().map(|x| &x.served.serve).collect::<Vec<_>>());
    let reconnects: u64 = all.iter().map(|x| x.served.worker.reconnects).sum();
    r.values.set("fabric.worker.reconnects", reconnects as f64);
    let descs = [served::descriptor(plan, TRACED_FIRST)];
    let probed = probe::run(plan, &descs, 1, 1, false, &mut tracer, &mut r.values)?;
    // The first traced campaign against the same cells run alone.
    let first = &ran1[0];
    let (w0, w1) = first.served.worker_span;
    let overhead_s = (w1 - w0).as_secs_f64() - probed.campaigns[0].run_cell_s;
    let cells = first.served.serve.cells_total as f64;
    r.values.set(
        "fabric.worker.overhead_ms_per_cell",
        overhead_s * 1e3 / cells,
    );
    r.note("overhead_base_cells", cells);
    r.probe_notes(&probed);
    r.queue_probe(&queue::probe(plan, &descs[0], &mut tracer)?);
    Ok((r, Some(tracer)))
}

fn run_queue(plan: &Plan, traced: bool) -> Result<(Report, Option<Tracer>), String> {
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for k in 0..SETUPS {
        let (d, s) = match queue::bring_up(plan, &format!("setup-{k}")) {
            Ok(up) => up,
            Err(e) => {
                if let Some(old) = daemon.take() {
                    let _ = queue::Daemon::stop(old);
                }
                return Err(e);
            }
        };
        setup_s.push(s);
        if let Some(old) = daemon.replace(d) {
            queue::Daemon::stop(old)?;
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let mut r = Report::new(&setup_s);
    r.note("cell_threads", 1);
    r.note("poll_ms", queue::POLL.as_millis());
    r.note("clients", queue::CLIENTS.len());
    let outcome = (|| {
        if !traced {
            let (pass, jobs, _) = queue::closed_loop(
                plan,
                &daemon,
                0,
                (plan.seconds, queue::min_jobs(plan)),
                &mut Tracer::new(false),
            )?;
            let bad = queue::check(plan, &daemon, &jobs)?;
            r.end_to_end(&pass, bad);
            return Ok(None);
        }
        let half = (plan.seconds / 2.0, queue::min_jobs_traced(plan));
        let (base, jobs0, calls0) =
            queue::closed_loop(plan, &daemon, 0, half, &mut Tracer::new(false))?;
        let mut tracer = Tracer::new(true);
        let (pass, jobs1, calls1) =
            queue::closed_loop(plan, &daemon, TRACED_FIRST, half, &mut tracer)?;
        let hi = tracer.now_ns();
        let bad = queue::check(plan, &daemon, &jobs0)? + queue::check(plan, &daemon, &jobs1)?;
        r.traced(&base, &pass, &tracer, hi, bad);
        let submit: Vec<f64> = calls0
            .submit_ms
            .iter()
            .chain(&calls1.submit_ms)
            .copied()
            .collect();
        let status: Vec<f64> = calls0
            .status_ms
            .iter()
            .chain(&calls1.status_ms)
            .copied()
            .collect();
        let first_cell: Vec<f64> = jobs0
            .iter()
            .chain(&jobs1)
            .filter_map(|j| Some((j.first_cell? - j.accepted).as_secs_f64() * 1e3))
            .collect();
        let v = &mut r.values;
        v.set("fabric.client.submit_ms_p50", stats::median(&submit));
        v.set("fabric.client.status_ms_p50", stats::median(&status));
        v.set(
            "fabric.client.status_ms_p99",
            stats::percentile(&status, 0.99),
        );
        v.set("fabric.queue.first_cell_ms_p50", stats::median(&first_cell));
        r.note("submit_samples", submit.len());
        r.note("status_samples", status.len());
        r.note("first_cell_samples", first_cell.len());
        let descs: Vec<_> = jobs1.iter().map(|j| j.desc.clone()).collect();
        let probed = probe::run(plan, &descs, 1, 2, true, &mut tracer, &mut r.values)?;
        // Time with at least one job in flight, as the client saw it, beyond
        // the jobs' own cells run alone.
        let cell_s: f64 = probed.campaigns.iter().map(|c| c.run_cell_s).sum();
        r.values.set(
            "fabric.worker.overhead_ms_per_cell",
            (pass.wall_s - cell_s) * 1e3 / pass.cells as f64,
        );
        r.note("overhead_base_cells", pass.cells);
        r.serve_counters(&probed.lease_outcomes.iter().collect::<Vec<_>>());
        r.probe_notes(&probed);
        Ok::<_, String>(Some(tracer))
    })();
    let stopped = daemon.stop()?;
    let tracer = outcome?;
    if tracer.is_some() {
        r.values.set("fabric.queue.drain_s", stopped.drain_s);
        let reconnects = stopped.worker.map_or(0, |w| w.reconnects);
        r.values.set("fabric.worker.reconnects", reconnects as f64);
    }
    Ok((r, tracer))
}

/// Run `workload` under `plan`; the report and, when traced, the spans.
pub fn run(workload: &str, plan: &Plan, traced: bool) -> Result<(Report, Option<Tracer>), String> {
    match workload {
        "inproc-dense" => run_inproc(plan, traced),
        "served-cells" => run_served(plan, traced),
        "queue-jobs" => run_queue(plan, traced),
        other => Err(format!("unknown workload '{other}' (one of {WORKLOADS:?})")),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Per-name span totals and self times, for the traced run's summary.
fn print_self_times(tracer: &Tracer) {
    let self_s = trace::self_time_by_name(tracer.spans());
    eprintln!("perfbench: span self times (s):");
    for (name, own) in &self_s {
        let total: f64 = tracer.durations_ms(name).iter().sum::<f64>() / 1e3;
        let calls = tracer.spans().iter().filter(|s| s.name == *name).count();
        eprintln!("  {name:<36} calls {calls:>7}  total {total:>10.4}  self {own:>10.4}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(".bench_work").join(format!(
        "{}-s{}-p{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: {}: {e}", dir.display());
        std::process::exit(1);
    }
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        threads: env::nproc(),
        dir: dir.clone(),
        tiny: false,
        corrupt: false,
    };
    let started = Instant::now();
    let outcome = run(&args.workload, &plan, args.trace);
    let _ = std::fs::remove_dir_all(&dir);
    let (mut report, tracer) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if !args.trace {
        report.values.set("peak_rss_mb", env::peak_rss_mb());
    }
    if let Some(tracer) = &tracer {
        print_self_times(tracer);
        let out = PathBuf::from(".bench_out");
        let path = out.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&out).and_then(|_| tracer.write_jsonl(&path)) {
            eprintln!("perfbench: write spans to {}: {e}", path.display());
        }
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    let mut context = format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"available_parallelism\": {}, \"commit\": \"{}\", \
         \"error_rate\": {error_rate:?}, \"run_s\": {:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.threads,
        env::available_parallelism(),
        env::commit(),
        started.elapsed().as_secs_f64(),
    );
    for (key, value) in &report.notes {
        context.push_str(&format!(", \"{key}\": \"{value}\""));
    }
    context.push_str("}}");
    println!("{context}");
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = report.failed == 0;
    match metrics::result_line(
        correct,
        report.attempted,
        report.failed,
        catalogue,
        &report.values,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !correct {
        eprintln!(
            "perfbench: correctness gate failed: {} of {} cells missing or different",
            report.failed, report.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan(tag: &str, corrupt: bool) -> Plan {
        let dir = PathBuf::from(".bench_work").join(format!("test-{tag}-p{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test dir");
        Plan {
            seed: 7,
            seconds: 0.01,
            threads: 2,
            dir,
            tiny: true,
            corrupt,
        }
    }

    /// A tiny pass of `workload` is clean, and the same pass with one
    /// store line damaged fails the gate.
    fn gate_trips_on_corruption(workload: &str) {
        for corrupt in [false, true] {
            let plan = tiny_plan(&format!("{workload}-{corrupt}"), corrupt);
            let (report, _) = run(workload, &plan, false).expect("tiny pass runs");
            std::fs::remove_dir_all(&plan.dir).expect("remove test dir");
            assert!(report.attempted > 0);
            if corrupt {
                assert!(report.failed >= 1, "{workload}: corrupted line not caught");
            } else {
                assert_eq!(report.failed, 0, "{workload}: clean pass failed the gate");
            }
        }
    }

    /// A tiny traced pass measures every per-layer metric.
    fn traced_reports_every_layer(workload: &str) {
        let plan = tiny_plan(&format!("{workload}-traced"), false);
        let (report, tracer) = run(workload, &plan, true).expect("tiny traced pass runs");
        std::fs::remove_dir_all(&plan.dir).expect("remove test dir");
        assert_eq!(report.failed, 0);
        assert!(!tracer
            .expect("traced run keeps its spans")
            .spans()
            .is_empty());
        metrics::result_line(true, 1, 0, PER_LAYER, &report.values).expect("every layer measured");
    }

    #[test]
    fn inproc_gate() {
        gate_trips_on_corruption("inproc-dense");
    }

    #[test]
    fn served_gate() {
        gate_trips_on_corruption("served-cells");
    }

    #[test]
    fn queue_gate() {
        gate_trips_on_corruption("queue-jobs");
    }

    #[test]
    fn inproc_traced() {
        traced_reports_every_layer("inproc-dense");
    }

    #[test]
    fn served_traced() {
        traced_reports_every_layer("served-cells");
    }

    #[test]
    fn queue_traced() {
        traced_reports_every_layer("queue-jobs");
    }

    #[test]
    fn campaign_seeds_are_distinct_and_json_safe() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..1000).map(|k| campaign_seed(1, 3, k)).collect();
        assert_eq!(seeds.len(), 1000);
        assert!(seeds.iter().all(|&s| s < 1 << 48));
        assert_ne!(campaign_seed(1, 3, 0), campaign_seed(2, 3, 0));
    }
}
