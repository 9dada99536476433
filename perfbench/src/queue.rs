//! `queue-jobs`: one long-lived `QueueServer` (per-record fsync) and one
//! single-threaded `run_worker_any`, driven by one client thread that
//! holds two client identities in a closed loop: each identity submits its
//! next job only after `query_status` reports the previous one done. Jobs
//! alternate between a `smoke` job and a small `hostile-net` job, each
//! with its own seed.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stabcon_exp::fabric::{
    cancel_job, job_store_path, query_status, run_worker_any, submit_campaign, JobInfo,
    QueueOutcome, QueueServeConfig, QueueServer, SpecDescriptor, WorkerConfig, WorkerOutcome,
};
use stabcon_exp::store::Durability;

use crate::trace::{self, Tracer};
use crate::{campaign_seed, check, served, stats, Pass, Plan};

/// The two client identities the client thread drives.
pub const CLIENTS: [&str; 2] = ["client-a", "client-b"];

/// Pause between status sweeps over the jobs in flight.
pub const POLL: Duration = Duration::from_millis(20);

/// Jobs an untraced run completes at least: enough that the p75
/// turnaround has ten samples beyond it, and half again so that a run's
/// p50 and p75 repeat from seed to seed.
pub fn min_jobs(plan: &Plan) -> usize {
    if plan.tiny {
        2
    } else {
        stats::min_samples_for(0.75) * 3 / 2
    }
}

/// Jobs each half of a traced run completes at least, so that the
/// first-cell p50 over both halves has ten samples beyond it.
pub fn min_jobs_traced(plan: &Plan) -> usize {
    if plan.tiny {
        2
    } else {
        stats::min_samples_for(0.5) / 2
    }
}

/// Job `k`: a `smoke` job (4 dense cells) or a `hostile-net` job at
/// n = 512 (6 message-engine cells under latency, drops, a partition,
/// churn and Byzantine responders).
pub fn descriptor(plan: &Plan, k: u64, smoke: bool) -> SpecDescriptor {
    let seed = Some(campaign_seed(plan.seed, 4, k));
    if smoke {
        SpecDescriptor {
            preset: "smoke".into(),
            name: None,
            trials: plan.tiny.then_some(2),
            seed,
            ns: plan.tiny.then(|| "128".into()),
        }
    } else {
        SpecDescriptor {
            preset: "hostile-net".into(),
            name: None,
            trials: Some(if plan.tiny { 1 } else { 4 }),
            seed,
            ns: Some("512".into()),
        }
    }
}

/// A running daemon: the queue server thread and, once started, the
/// worker thread, both stoppable through their flags.
pub struct Daemon {
    /// The daemon's loopback address (ephemeral port).
    pub addr: String,
    prefix: PathBuf,
    shutdown: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    server: JoinHandle<(Result<QueueOutcome, String>, Instant)>,
    worker: Option<JoinHandle<Result<WorkerOutcome, String>>>,
}

/// What stopping a daemon observed.
pub struct Stopped {
    /// Shutdown flag set → `QueueServer::run` returned, in seconds.
    pub drain_s: f64,
    /// The worker's summary.
    pub worker: Option<WorkerOutcome>,
}

impl Daemon {
    /// Bind on an ephemeral loopback port and start serving (journal and
    /// job stores under `<dir>/queue-<tag>`), without a worker yet.
    pub fn serve(plan: &Plan, tag: &str) -> Result<Self, String> {
        let prefix = plan.dir.join(format!("queue-{tag}"));
        let server = QueueServer::bind("127.0.0.1:0", &prefix)?;
        let addr = server.local_addr()?.to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let cfg = QueueServeConfig {
            durability: Durability::Cell,
            shutdown: Some(Arc::clone(&shutdown)),
            ..QueueServeConfig::default()
        };
        let server = std::thread::spawn(move || (server.run(&cfg), Instant::now()));
        Ok(Self {
            addr,
            prefix,
            shutdown,
            drain: Arc::new(AtomicBool::new(false)),
            server,
            worker: None,
        })
    }

    /// Connect the one any-campaign worker.
    pub fn start_worker(&mut self) {
        let addr = self.addr.clone();
        let cfg = WorkerConfig {
            drain: Some(Arc::clone(&self.drain)),
            ..served::worker_config("perfbench-worker")
        };
        self.worker = Some(std::thread::spawn(move || run_worker_any(&addr, &cfg)));
    }

    /// Job `job`'s store.
    pub fn store(&self, job: u64) -> PathBuf {
        job_store_path(&self.prefix, job)
    }

    /// Stop through the shutdown flag, wait for the server to return, then
    /// drain and join the worker.
    pub fn stop(self) -> Result<Stopped, String> {
        let asked = Instant::now();
        self.shutdown.store(true, Ordering::SeqCst);
        let (served, returned) = self.server.join().expect("queue server thread panicked");
        self.drain.store(true, Ordering::SeqCst);
        let worker = match self.worker {
            Some(h) => Some(h.join().expect("worker thread panicked")?),
            None => None,
        };
        served?;
        Ok(Stopped {
            drain_s: returned.duration_since(asked).as_secs_f64(),
            worker,
        })
    }
}

/// Poll `job` every [`POLL`] until it is terminal; its final row.
fn wait_terminal(addr: &str, client: &str, job: u64) -> Result<JobInfo, String> {
    loop {
        let row = status_row(addr, client, job)?;
        if matches!(row.state.as_str(), "done" | "failed" | "cancelled") {
            return Ok(row);
        }
        std::thread::sleep(POLL);
    }
}

/// `job`'s row from the status plane.
pub fn status_row(addr: &str, client: &str, job: u64) -> Result<JobInfo, String> {
    query_status(addr, client, Some(job))?
        .jobs
        .into_iter()
        .find(|j| j.job == job)
        .ok_or_else(|| format!("status: job {job} missing"))
}

/// Seed of the set-up's warm-up job.
const WARMUP_SEED: u64 = 1;

/// Wait until `path` holds a header and at least one cell line.
fn wait_first_line(path: &Path) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    while std::fs::read(path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count()) < 2 {
        if Instant::now() > deadline {
            return Err(format!("{}: no cell line within 60 s", path.display()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// One set-up: bind, journal create, a warm-up job submitted and the
/// worker connected (pool spawn, handshake), until the job's first cell
/// is in its store. The set-up ends there and not at the next status
/// poll, whose round trip would round the figure up by a step; the rest
/// of the job then runs out untimed. The warm-up job is the same in every
/// set-up and every run. Returns the running daemon and the seconds the
/// set-up took.
pub fn bring_up(plan: &Plan, tag: &str) -> Result<(Daemon, f64), String> {
    let started = Instant::now();
    let mut daemon = Daemon::serve(plan, tag)?;
    let warm = SpecDescriptor {
        seed: Some(WARMUP_SEED),
        ..descriptor(plan, 0, true)
    };
    let mut setup_s = 0.0;
    let warmed = submit_campaign(&daemon.addr, "perfbench-setup", &warm).and_then(|job| {
        daemon.start_worker();
        wait_first_line(&daemon.store(job.job))?;
        setup_s = started.elapsed().as_secs_f64();
        wait_terminal(&daemon.addr, "perfbench-setup", job.job)
    });
    match warmed {
        Ok(row) if row.state == "done" => Ok((daemon, setup_s)),
        other => {
            let _ = daemon.stop();
            Err(match other {
                Ok(row) => format!("warm-up job ended {}", row.state),
                Err(e) => e,
            })
        }
    }
}

/// One job of the closed loop.
pub struct Job {
    /// Index into [`CLIENTS`].
    pub client: usize,
    /// Queue-assigned id.
    pub id: u64,
    /// What was submitted.
    pub desc: SpecDescriptor,
    /// Cells in its grid.
    pub cells: u64,
    /// When the submit call started.
    pub submitted: Instant,
    /// When the submit call returned Accepted.
    pub accepted: Instant,
    /// First status sweep that saw `written ≥ 1`.
    pub first_cell: Option<Instant>,
    /// Final state label and trials, once terminal.
    pub end: Option<(Instant, String, u64)>,
}

/// Client-side call latencies of a closed loop, in ms.
#[derive(Default)]
pub struct Calls {
    /// `submit_campaign` round trips.
    pub submit_ms: Vec<f64>,
    /// `query_status` round trips.
    pub status_ms: Vec<f64>,
}

/// Longest pause an identity takes between seeing its job done and
/// submitting the next. Each pause is drawn uniformly from the workload
/// seed. It is as long as the worker's idle `Wait`, so submissions land at
/// every phase of the worker's sleep instead of locking into one pattern
/// for a whole run.
pub const THINK_MAX: Duration = Duration::from_millis(1000);

/// One identity's place in the closed loop.
enum Slot {
    /// Pausing until `until`, then submitting.
    Thinking { client: usize, until: Instant },
    /// Waiting for its job to turn terminal.
    Waiting(Job),
}

/// Drive the closed loop, submitting jobs numbered from `first`, until
/// `seconds` have passed and at least `min_jobs` jobs are terminal.
pub fn closed_loop(
    plan: &Plan,
    daemon: &Daemon,
    first: u64,
    (seconds, min_jobs): (f64, usize),
    tracer: &mut Tracer,
) -> Result<(Pass, Vec<Job>, Calls), String> {
    let started = Instant::now();
    let mut calls = Calls::default();
    let mut k = first;
    let mut sent = [0u64; 2];
    let mut submit = |client: usize, tracer: &mut Tracer, calls: &mut Calls| {
        // Each identity alternates kinds, out of phase with the other.
        let desc = descriptor(plan, k, (sent[client] + client as u64).is_multiple_of(2));
        k += 1;
        sent[client] += 1;
        let submitted = Instant::now();
        let out = tracer.span("fabric.client.submit_campaign", |_| {
            submit_campaign(&daemon.addr, CLIENTS[client], &desc)
        })?;
        let accepted = Instant::now();
        calls.submit_ms.push(ms(accepted - submitted));
        Ok::<_, String>(Job {
            client,
            id: out.job,
            desc,
            cells: out.cells,
            submitted,
            accepted,
            first_cell: None,
            end: None,
        })
    };
    let mut pauses = first;
    let mut think = || {
        pauses += 1;
        let u = campaign_seed(plan.seed, 5, pauses) as f64 / (1u64 << 48) as f64;
        THINK_MAX.mul_f64(u)
    };
    let mut slots: Vec<Slot> = (0..CLIENTS.len())
        .map(|client| Slot::Thinking {
            client,
            until: started,
        })
        .collect();
    let mut finished: Vec<Job> = Vec::new();
    while !slots.is_empty() {
        let mut i = 0;
        while i < slots.len() {
            let job = match &mut slots[i] {
                Slot::Thinking { client, until } => {
                    if Instant::now() >= *until {
                        slots[i] = Slot::Waiting(submit(*client, tracer, &mut calls)?);
                    }
                    i += 1;
                    continue;
                }
                Slot::Waiting(job) => job,
            };
            let t0 = Instant::now();
            let row = tracer.span("fabric.client.query_status", |_| {
                status_row(&daemon.addr, CLIENTS[job.client], job.id)
            })?;
            let now = Instant::now();
            calls.status_ms.push(ms(now - t0));
            if job.first_cell.is_none() && row.written >= 1 {
                job.first_cell = Some(now);
            }
            if !matches!(row.state.as_str(), "done" | "failed" | "cancelled") {
                i += 1;
                continue;
            }
            let Slot::Waiting(mut job) = slots.remove(i) else {
                unreachable!("slot {i} holds a job");
            };
            job.end = Some((now, row.state, row.trials));
            tracer.record("queue.job", job.submitted, now);
            let more = started.elapsed().as_secs_f64() < seconds
                || finished.len() + slots.len() + 1 < min_jobs;
            let client = job.client;
            finished.push(job);
            if more {
                let until = now + think();
                slots.insert(i, Slot::Thinking { client, until });
                i += 1;
            }
        }
        if !slots.is_empty() {
            tracer.span("queue.poll_sleep", |_| std::thread::sleep(POLL));
        }
    }

    // Trials are divided by the time with at least one job in flight, so
    // that the identities' pauses between jobs do not count.
    let in_flight: Vec<_> = finished
        .iter()
        .filter_map(|j| Some((j.submitted, j.end.as_ref()?.0)))
        .collect();
    let mut pass = Pass {
        wall_s: trace::union_s(&in_flight),
        ..Pass::default()
    };
    for job in &finished {
        let (end, state, trials) = job.end.as_ref().expect("finished jobs are terminal");
        pass.turnaround_s.push((*end - job.submitted).as_secs_f64());
        pass.cells += job.cells;
        if state == "done" {
            pass.trials += trials;
        }
    }
    Ok((pass, finished, calls))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The gate: every done job's store must equal the in-process store of
/// the same descriptor byte-for-byte; a job that ended failed or
/// cancelled fails all its cells.
pub fn check(plan: &Plan, daemon: &Daemon, jobs: &[Job]) -> Result<u64, String> {
    let mut bad = 0;
    for (i, job) in jobs.iter().enumerate() {
        let (_, state, _) = job.end.as_ref().expect("finished jobs are terminal");
        if state != "done" {
            bad += job.cells;
            continue;
        }
        let path = daemon.store(job.id);
        if plan.corrupt && i == 0 {
            check::corrupt_cell_line(&path, 0)?;
        }
        let want = served::reference(plan, &job.desc.build()?, &path)?;
        bad += check::bad_cells(&path, &want, job.cells)?;
    }
    Ok(bad)
}

/// Client and queue layer figures from a probe daemon: submit `desc`
/// with the worker idle, poll until its first cell is written, cancel it
/// and stop the daemon.
pub struct QueueProbe {
    /// The submit round trip, ms.
    pub submit_ms: f64,
    /// Status round trips, ms.
    pub status_ms: Vec<f64>,
    /// Accepted → first status showing `written ≥ 1`, ms.
    pub first_cell_ms: f64,
    /// Shutdown flag → server returned, seconds.
    pub drain_s: f64,
}

/// Run the queue probe for `desc` (used by workloads that have no queue
/// of their own).
pub fn probe(
    plan: &Plan,
    desc: &SpecDescriptor,
    tracer: &mut Tracer,
) -> Result<QueueProbe, String> {
    tracer.span("probe.queue", |tracer| {
        let mut daemon = Daemon::serve(plan, "probe")?;
        daemon.start_worker();
        let client = "perfbench-probe";
        let mut status_ms = Vec::new();
        let probed = (|| {
            let t0 = Instant::now();
            let job = tracer.span("fabric.client.submit_campaign", |_| {
                submit_campaign(&daemon.addr, client, desc)
            })?;
            let accepted = Instant::now();
            loop {
                let t1 = Instant::now();
                let row = tracer.span("fabric.client.query_status", |_| {
                    status_row(&daemon.addr, client, job.job)
                })?;
                status_ms.push(ms(t1.elapsed()));
                if row.written >= 1 {
                    break;
                }
                std::thread::sleep(POLL);
            }
            let first_cell_ms = ms(accepted.elapsed());
            cancel_job(&daemon.addr, client, job.job)?;
            Ok::<_, String>((ms(accepted - t0), first_cell_ms))
        })();
        let stopped = daemon.stop();
        let (submit_ms, first_cell_ms) = probed?;
        Ok(QueueProbe {
            submit_ms,
            status_ms,
            first_cell_ms,
            drain_s: stopped?.drain_s,
        })
    })
}
