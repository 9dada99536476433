//! `inproc-dense`: back-to-back `run_campaign` calls on a figure-1-shaped
//! grid at populations large enough that the dense kernel, the trial
//! runner, the adversaries, the pool and the cell fold do nearly all the
//! work, and the store and fabric almost none.

use std::path::PathBuf;
use std::time::Instant;

use stabcon_exp::fabric::SpecDescriptor;
use stabcon_exp::store::{self, Durability};
use stabcon_exp::{chunk_for, run_campaign, run_cell, CampaignSpec, RunConfig};
use stabcon_par::ThreadPool;

use crate::check;
use crate::trace::Tracer;
use crate::{campaign_seed, Pass, Plan};

/// The grid of campaign `k`: the `figure1` preset ({two-bins-half,
/// all-distinct} × {none, balancer, median-pusher, random}) at two large
/// populations.
pub fn descriptor(plan: &Plan, k: u64) -> SpecDescriptor {
    let (ns, trials) = if plan.tiny {
        ("256", 2)
    } else {
        ("4096,16384", 20)
    };
    SpecDescriptor {
        preset: "figure1".into(),
        name: Some("inproc-dense".into()),
        trials: Some(trials),
        seed: Some(campaign_seed(plan.seed, 1, k)),
        ns: Some(ns.into()),
    }
}

fn config(plan: &Plan) -> RunConfig {
    RunConfig {
        threads: plan.threads,
        durability: Durability::None,
        ..RunConfig::default()
    }
}

/// Seed of the set-up's warm-up campaign.
const WARMUP_SEED: u64 = 1;

/// One set-up: pool spawn, store create and one warm-up cell, through
/// `run_campaign` stopped after its first cell. The warm-up cell is the
/// same in every set-up and every run, whatever the workload seed, so the
/// figure times the program and not the input. It is a cell at the largest
/// population, long enough (tens of ms) that thread wake-up jitter does
/// not decide the figure. Returns seconds.
pub fn setup_once(plan: &Plan, k: u64) -> Result<f64, String> {
    let warm = SpecDescriptor {
        seed: Some(WARMUP_SEED),
        ..descriptor(plan, 0)
    };
    let mut spec = warm.build()?;
    spec.ns.reverse();
    let path = plan.dir.join(format!("inproc-setup-{k}.jsonl"));
    let cfg = RunConfig {
        max_cells: Some(1),
        ..config(plan)
    };
    let started = Instant::now();
    run_campaign(&spec, &path, &cfg)?;
    Ok(started.elapsed().as_secs_f64())
}

/// A campaign run in the timed region, kept for the correctness gate.
pub struct Ran {
    k: u64,
    spec: CampaignSpec,
    path: PathBuf,
}

/// Run whole campaigns, numbered from `first`, until `seconds` have
/// passed, each inside an `exp.campaign` span.
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
        let path = plan.dir.join(format!("inproc-{k}.jsonl"));
        let t0 = Instant::now();
        let trials = tracer
            .span("exp.campaign", |_| {
                run_campaign(&spec, &path, &config(plan))
            })?
            .trials_run;
        pass.turnaround_s.push(t0.elapsed().as_secs_f64());
        pass.trials += trials;
        pass.cells += spec.expand().len() as u64;
        ran.push(Ran { k, spec, path });
        k += 1;
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    Ok((pass, ran))
}

/// The gate for in-process stores: the header must match the spec, every
/// cell line must carry its cell's identity, and one seeded cell per
/// campaign is re-run with `run_cell` on one thread and must reproduce its
/// stored line byte-for-byte.
pub fn check(plan: &Plan, ran: &[Ran]) -> Result<u64, String> {
    let pool = ThreadPool::new(1);
    let mut bad = 0;
    for (i, r) in ran.iter().enumerate() {
        let cells = r.spec.expand();
        let pick = campaign_seed(plan.seed, 2, r.k) % cells.len() as u64;
        if plan.corrupt && i == 0 {
            check::corrupt_cell_line(&r.path, pick)?;
        }
        let cell = &cells[pick as usize];
        let agg = run_cell(&pool, cell, chunk_for(cell.trials, 1));
        let line = store::cell_line(cell, &agg);
        bad +=
            check::bad_cells_sampled(&r.path, &r.spec.header().to_line(), &cells, &[(pick, line)])?;
    }
    Ok(bad)
}
