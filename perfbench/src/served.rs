//! `served-cells`: back-to-back served campaigns — one `Server` and one
//! single-threaded `run_worker` in this process, on loopback — over the
//! `figure1-small` grid, at a trial count that keeps compute near a third
//! of the wall time so lease round-trips, heartbeats, framing and in-order
//! flushing dominate.

use std::path::{Path, PathBuf};
use std::time::Instant;

use stabcon_exp::fabric::{
    run_worker, ServeConfig, ServeOutcome, Server, SpecDescriptor, WorkerConfig, WorkerOutcome,
};
use stabcon_exp::{run_campaign, CampaignSpec, RunConfig};

use crate::check;
use crate::trace::Tracer;
use crate::{campaign_seed, Pass, Plan};

/// The grid of campaign `k`: `figure1-small` (24 cells, n ≤ 1024).
pub fn descriptor(plan: &Plan, k: u64) -> SpecDescriptor {
    SpecDescriptor {
        preset: "figure1-small".into(),
        name: None,
        trials: Some(if plan.tiny { 2 } else { 100 }),
        seed: Some(campaign_seed(plan.seed, 3, k)),
        ns: plan.tiny.then(|| "256".into()),
    }
}

/// The worker every served workload and probe uses: one pool thread.
pub fn worker_config(name: &str) -> WorkerConfig {
    WorkerConfig {
        threads: 1,
        name: name.into(),
        ..WorkerConfig::default()
    }
}

/// What one served campaign did, with both sides' wall-clock intervals.
pub struct Served {
    /// The server's summary.
    pub serve: ServeOutcome,
    /// The worker's summary.
    pub worker: WorkerOutcome,
    /// `Server::run` start and return.
    pub serve_span: (Instant, Instant),
    /// `run_worker` start and return.
    pub worker_span: (Instant, Instant),
}

/// Bind a server for `spec` on an ephemeral loopback port, run it and one
/// worker to completion, and return what both did.
pub fn serve_campaign(spec: &CampaignSpec, path: &Path) -> Result<Served, String> {
    let server = Server::bind("127.0.0.1:0", spec, path)?;
    let addr = server.local_addr()?.to_string();
    std::thread::scope(|s| {
        let serving = s.spawn(|| {
            let t0 = Instant::now();
            let out = server.run(&ServeConfig::default());
            (out, (t0, Instant::now()))
        });
        let working = s.spawn(|| {
            let t0 = Instant::now();
            let out = run_worker(&addr, spec, &worker_config("perfbench-worker"));
            (out, (t0, Instant::now()))
        });
        let (worker, worker_span) = working.join().expect("worker thread panicked");
        let (serve, serve_span) = serving.join().expect("server thread panicked");
        Ok(Served {
            serve: serve?,
            worker: worker?,
            serve_span,
            worker_span,
        })
    })
}

/// The one-cell campaign whose served run is the set-up: server bind,
/// store create, worker pool spawn and handshake, one warm-up cell.
fn warmup_spec(plan: &Plan, k: u64) -> Result<CampaignSpec, String> {
    let mut spec = descriptor(plan, u64::MAX - k).build()?;
    spec.ns.truncate(1);
    spec.inits.truncate(1);
    spec.adversaries.truncate(1);
    Ok(spec)
}

/// One set-up, in seconds.
pub fn setup_once(plan: &Plan, k: u64) -> Result<f64, String> {
    let spec = warmup_spec(plan, k)?;
    let started = Instant::now();
    serve_campaign(&spec, &plan.dir.join(format!("served-setup-{k}.jsonl")))?;
    Ok(started.elapsed().as_secs_f64())
}

/// A served campaign of the timed region, kept for the gate and probes.
pub struct Ran {
    /// The campaign.
    pub spec: CampaignSpec,
    /// Its served store.
    pub path: PathBuf,
    /// Both sides' summaries.
    pub served: Served,
}

/// Run whole served campaigns, numbered from `first`, until `seconds`
/// have passed.
pub fn timed(
    plan: &Plan,
    first: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Pass, Vec<Ran>), String> {
    let mut pass = Pass::default();
    let mut ran = Vec::new();
    let started = Instant::now();
    let mut k = first;
    while ran.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let spec = descriptor(plan, k).build()?;
        let path = plan.dir.join(format!("served-{k}.jsonl"));
        let t0 = Instant::now();
        let served = tracer.span("served.campaign", |tracer| {
            let served = serve_campaign(&spec, &path)?;
            tracer.record("fabric.serve.run", served.serve_span.0, served.serve_span.1);
            tracer.record(
                "fabric.worker.run_worker",
                served.worker_span.0,
                served.worker_span.1,
            );
            Ok::<_, String>(served)
        })?;
        pass.turnaround_s.push(t0.elapsed().as_secs_f64());
        pass.trials += served.worker.trials_run;
        pass.cells += served.serve.cells_total;
        ran.push(Ran { spec, path, served });
        k += 1;
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    Ok((pass, ran))
}

/// The in-process reference store of `spec`, written by `run_campaign`
/// next to the store `of` it is compared with.
pub fn reference(plan: &Plan, spec: &CampaignSpec, of: &Path) -> Result<PathBuf, String> {
    let path = of.with_extension("ref.jsonl");
    let cfg = RunConfig {
        threads: plan.threads,
        ..RunConfig::default()
    };
    run_campaign(spec, &path, &cfg)?;
    Ok(path)
}

/// The gate: every served store must equal the in-process store of the
/// same spec byte-for-byte.
pub fn check(plan: &Plan, ran: &[Ran]) -> Result<u64, String> {
    let mut bad = 0;
    for (i, r) in ran.iter().enumerate() {
        if plan.corrupt && i == 0 {
            check::corrupt_cell_line(&r.path, 0)?;
        }
        let want = reference(plan, &r.spec, &r.path)?;
        bad += check::bad_cells(&r.path, &want, r.served.serve.cells_total)?;
    }
    Ok(bad)
}
