//! Layer probes for the traced run: calls into each layer's public
//! functions, made from the benchmark on the workload's own generated
//! inputs (its campaigns, cells and store lines), each inside a span.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rand::RngCore;
use stabcon_core::adversary::{AdversarySpec, Corruptor};
use stabcon_core::engine::{dense, EngineSpec, MessageConfig, MessageEngine};
use stabcon_core::protocol::{MedianRule, Protocol};
use stabcon_core::value::{Value, ValueSet};
use stabcon_core::workspace::TrialWorkspace;
use stabcon_exp::fabric::{
    JobQueue, Msg, Parked, QueueConfig, ServeConfig, ServeOutcome, ServeState, Server,
    SpecDescriptor, FABRIC_SCHEMA,
};
use stabcon_exp::store::{self, Durability, StoreWriter};
use stabcon_exp::{chunk_for, run_cell, CellAggregate, CellSpec};
use stabcon_par::ThreadPool;
use stabcon_util::rng::{derive_seed, Xoshiro256pp};

use crate::metrics::Values;
use crate::stats::{mean, percentile};
use crate::trace::Tracer;
use crate::Plan;

/// How long each micro-probe repeats its call.
const MICRO: Duration = Duration::from_millis(40);

/// Call `f` until `budget` has passed (at least `min` times); mean µs per
/// call.
fn repeat_us(budget: Duration, min: u64, mut f: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    let mut calls = 0;
    while calls < min || started.elapsed() < budget {
        f(calls);
        calls += 1;
    }
    started.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Time each call of `f` separately until `budget` has passed or `max`
/// samples are taken (at least `min`); samples in ms.
fn sample_ms(budget: Duration, min: usize, max: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && started.elapsed() < budget) {
        let t0 = Instant::now();
        f(out.len());
        out.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out
}

fn label<'a>(cell: &'a CellSpec, key: &str) -> &'a str {
    cell.labels
        .iter()
        .find(|(k, _)| k == key)
        .map_or("", |(_, v)| v.as_str())
}

fn n_of(cell: &CellSpec) -> usize {
    cell.sim.n_processes()
}

/// The initial state the cell's trials start from.
fn init_state(cell: &CellSpec) -> Vec<Value> {
    let n = n_of(cell);
    match label(cell, "init") {
        "two-bins-half" => (0..n).map(|i| Value::from(i >= n / 2)).collect(),
        _ => (0..n as Value).collect(),
    }
}

/// One campaign's probed cells with their aggregates and store lines.
pub struct Campaign {
    /// The grid's cells, in id order.
    pub cells: Vec<CellSpec>,
    /// `run_cell` results, one per cell.
    pub aggs: Vec<CellAggregate>,
    /// `store::cell_line` of each cell.
    pub lines: Vec<String>,
    /// Σ `run_cell` wall, seconds.
    pub run_cell_s: f64,
}

/// What the probes measured beyond the values they set directly.
pub struct Probed {
    /// Each probed campaign.
    pub campaigns: Vec<Campaign>,
    /// The lease-RTT probe servers' summaries.
    pub lease_outcomes: Vec<ServeOutcome>,
    /// Sample counts behind the probes' percentiles, and the bases of
    /// their ratios.
    pub notes: Vec<(&'static str, String)>,
}

/// Run every layer probe over `descs` (the workload's campaigns) and set
/// the layer values they measure. Cells run through `run_cell` at
/// `threads`; the per-trial runner probe covers the first
/// `runner_campaigns` campaigns; `job_frames` sends Result2 frames.
pub fn run(
    plan: &Plan,
    descs: &[SpecDescriptor],
    threads: usize,
    runner_campaigns: usize,
    job_frames: bool,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<Probed, String> {
    let pool = ThreadPool::new(threads);
    let mut campaigns = Vec::new();
    for desc in descs {
        let cells = desc.build()?.expand();
        let mut aggs = Vec::new();
        let mut lines = Vec::new();
        let mut run_cell_s = 0.0;
        for cell in &cells {
            let t0 = Instant::now();
            let agg = tracer.span("exp.cell.run_cell", |_| {
                run_cell(&pool, cell, chunk_for(cell.trials, threads))
            });
            run_cell_s += t0.elapsed().as_secs_f64();
            lines.push(store::cell_line(cell, &agg));
            aggs.push(agg);
        }
        campaigns.push(Campaign {
            cells,
            aggs,
            lines,
            run_cell_s,
        });
    }
    drop(pool);

    let cell_ms = tracer.durations_ms("exp.cell.run_cell");
    values.set("exp.cell.run_cell_ms_p50", percentile(&cell_ms, 0.5));
    values.set("exp.cell.run_cell_ms_p99", percentile(&cell_ms, 0.99));

    let runner = &campaigns[..runner_campaigns.min(campaigns.len())];
    let (trials, trial_s) = runner_and_kernels(runner, threads, tracer, values);
    adversaries(&campaigns, tracer, values);
    let syncs = store_layer(plan, &campaigns, tracer, values)?;
    protocol(&campaigns, job_frames, tracer, values);
    state_machines(&descs[0], &campaigns[0], tracer, values)?;
    let (rtts, lease_outcomes) = tracer.span("probe.lease_rtt", |_| {
        lease_rtt(plan, &descs[0], &campaigns[0])
    })?;
    values.set("fabric.serve.lease_rtt_ms_p50", percentile(&rtts, 0.5));
    values.set("fabric.serve.lease_rtt_ms_p99", percentile(&rtts, 0.99));
    Ok(Probed {
        campaigns,
        lease_outcomes,
        notes: vec![
            ("run_cell_samples", cell_ms.len().to_string()),
            ("trial_samples", trials.to_string()),
            ("share_base_trial_s", trial_s.to_string()),
            ("sync_samples", syncs.to_string()),
            ("lease_rtt_samples", rtts.len().to_string()),
        ],
    })
}

/// Kernel shape key: population, initial state and engine.
type Shape = (usize, String, String);

fn shape(cell: &CellSpec) -> Shape {
    (
        n_of(cell),
        label(cell, "init").to_string(),
        format!("{:?}", cell.sim.engine_spec()),
    )
}

/// µs per `dense::step_seq` round on the cell's initial state.
fn dense_round_us(cell: &CellSpec) -> f64 {
    let mut old = init_state(cell);
    let mut new = vec![0; old.len()];
    repeat_us(MICRO, 3, |round| {
        dense::step_seq(&old, &mut new, &MedianRule, cell.seed, round);
        std::mem::swap(&mut old, &mut new);
    })
}

/// µs per `MessageEngine::step` round under `cfg`'s scenario.
fn message_round_us(cell: &CellSpec, cfg: MessageConfig) -> f64 {
    let mut old = init_state(cell);
    let mut new = vec![0; old.len()];
    let mut engine = MessageEngine::new(old.len(), cfg, cell.seed);
    let rule: &dyn Protocol = &MedianRule;
    repeat_us(MICRO, 3, |round| {
        engine.step(&old, &mut new, rule, cell.seed, round);
        std::mem::swap(&mut old, &mut new);
    })
}

/// The per-trial runner probe (every trial of the cells, one thread, a
/// span each) and the kernel probes on each cell shape, combined into the
/// runner's kernel share and the pool's busy share. Returns the number of
/// trials timed and their total seconds (the base of both shares).
fn runner_and_kernels(
    campaigns: &[Campaign],
    threads: usize,
    tracer: &mut Tracer,
    values: &mut Values,
) -> (usize, f64) {
    let mut ws = TrialWorkspace::new();
    let mut trial_ms = Vec::new();
    let mut rounds_by_shape: BTreeMap<Shape, (u64, &CellSpec)> = BTreeMap::new();
    let mut rounds = 0u64;
    for cell in campaigns.iter().flat_map(|c| &c.cells) {
        for i in 0..cell.trials {
            let t0 = Instant::now();
            let result = tracer.span("core.runner.run_seeded_into", |_| {
                cell.sim.run_seeded_into(derive_seed(cell.seed, i), &mut ws)
            });
            trial_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            rounds += result.rounds_executed;
            rounds_by_shape.entry(shape(cell)).or_insert((0, cell)).0 += result.rounds_executed;
            ws.recycle(result);
        }
    }
    values.set("core.runner.trial_ms_p50", percentile(&trial_ms, 0.5));
    values.set("core.runner.trial_ms_p99", percentile(&trial_ms, 0.99));
    values.set(
        "core.runner.rounds_per_trial",
        rounds as f64 / trial_ms.len() as f64,
    );

    // Round-weighted kernel cost per engine kind.
    let (mut dense_us, mut dense_rounds, mut msg_us, mut msg_rounds) = (0.0, 0, 0.0, 0);
    for (rounds, cell) in rounds_by_shape.values() {
        match cell.sim.engine_spec() {
            EngineSpec::Message(cfg) => {
                let us = tracer.span("core.engine.message_probe", |_| message_round_us(cell, cfg));
                msg_us += us * *rounds as f64;
                msg_rounds += rounds;
            }
            _ => {
                let us = tracer.span("core.engine.dense_probe", |_| dense_round_us(cell));
                dense_us += us * *rounds as f64;
                dense_rounds += rounds;
            }
        }
    }
    let trial_s: f64 = trial_ms.iter().sum::<f64>() / 1e3;
    values.set(
        "core.runner.kernel_share",
        (dense_us + msg_us) / 1e6 / trial_s,
    );
    let largest = campaigns
        .iter()
        .flat_map(|c| &c.cells)
        .max_by_key(|c| n_of(c))
        .expect("probed campaigns have cells");
    values.set(
        "core.engine.dense_round_us",
        if dense_rounds > 0 {
            dense_us / dense_rounds as f64
        } else {
            tracer.span("core.engine.dense_probe", |_| dense_round_us(largest))
        },
    );
    // A workload without message cells probes the clean network at its
    // largest population.
    values.set(
        "core.engine.message_round_us",
        if msg_rounds > 0 {
            msg_us / msg_rounds as f64
        } else {
            tracer.span("core.engine.message_probe", |_| {
                message_round_us(largest, MessageConfig::default())
            })
        },
    );
    let cell_s: f64 = campaigns.iter().map(|c| c.run_cell_s).sum();
    values.set("par.pool_busy_share", trial_s / (threads as f64 * cell_s));
    (trial_ms.len(), trial_s)
}

/// µs per `Adversary::corrupt` call, averaged over the workload's
/// strategies (the absent adversary when it has none).
fn adversaries(campaigns: &[Campaign], tracer: &mut Tracer, values: &mut Values) {
    let specs = [
        AdversarySpec::None,
        AdversarySpec::Random,
        AdversarySpec::Balancer,
        AdversarySpec::MedianPusher,
        AdversarySpec::Stubborn,
    ];
    let mut strategies: BTreeMap<(String, usize, u64), &CellSpec> = BTreeMap::new();
    for cell in campaigns.iter().flat_map(|c| &c.cells) {
        let budget: u64 = label(cell, "T").parse().unwrap_or(0);
        if budget > 0 {
            strategies.insert((label(cell, "adversary").into(), n_of(cell), budget), cell);
        }
    }
    let largest = campaigns
        .iter()
        .flat_map(|c| &c.cells)
        .max_by_key(|c| n_of(c))
        .expect("probed campaigns have cells");
    if strategies.is_empty() {
        strategies.insert(("none".into(), n_of(largest), 1), largest);
    }
    let mut per_strategy = Vec::new();
    for ((name, _, budget), cell) in &strategies {
        let spec = specs
            .iter()
            .find(|s| s.label() == name)
            .copied()
            .unwrap_or(AdversarySpec::None);
        let base = init_state(cell);
        let allowed = ValueSet::from_values(&base);
        let mut buf = base.clone();
        let mut adversary = spec.build();
        let mut rng = Xoshiro256pp::seed(cell.seed);
        let rng: &mut dyn RngCore = &mut rng;
        let mut busy = Duration::ZERO;
        let mut calls = 0u64;
        tracer.span("core.adversary.corrupt_probe", |_| {
            let started = Instant::now();
            while calls < 20 || started.elapsed() < MICRO {
                buf.copy_from_slice(&base);
                let t0 = Instant::now();
                let mut c = Corruptor::new(&mut buf, &allowed, *budget);
                adversary.corrupt(calls, &mut c, rng);
                busy += t0.elapsed();
                calls += 1;
            }
        });
        per_strategy.push(busy.as_secs_f64() * 1e6 / calls as f64);
    }
    values.set("core.adversary.corrupt_us", mean(&per_strategy));
}

/// `store::cell_line`, and `StoreWriter::append` without and with
/// per-record fsync, on the workload's lines. Returns the number of
/// synced appends timed.
fn store_layer(
    plan: &Plan,
    campaigns: &[Campaign],
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<usize, String> {
    let pairs: Vec<(&CellSpec, &CellAggregate)> = campaigns
        .iter()
        .flat_map(|c| c.cells.iter().zip(&c.aggs))
        .collect();
    let lines: Vec<&String> = campaigns.iter().flat_map(|c| &c.lines).collect();
    let us = tracer.span("exp.store.cell_line_probe", |_| {
        repeat_us(MICRO, pairs.len() as u64, |i| {
            let (cell, agg) = pairs[i as usize % pairs.len()];
            std::hint::black_box(store::cell_line(cell, agg));
        })
    });
    values.set("exp.store.cell_line_us", us);
    let bytes: Vec<f64> = lines.iter().map(|l| l.len() as f64 + 1.0).collect();
    values.set("exp.store.bytes_per_cell", mean(&bytes));

    let open = |name: &str, durability| -> Result<StoreWriter, String> {
        let path = plan.dir.join(name);
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(StoreWriter::new(file, durability))
    };
    let mut plain = open("probe-append.jsonl", Durability::None)?;
    let appends = tracer.span("exp.store.append_probe", |_| {
        sample_ms(MICRO, lines.len(), 20_000, |i| {
            plain
                .append(lines[i % lines.len()])
                .expect("append to probe store");
        })
    });
    values.set("exp.store.append_us_p50", percentile(&appends, 0.5) * 1e3);
    let mut synced = open("probe-sync.jsonl", Durability::Cell)?;
    let syncs = tracer.span("exp.store.sync_probe", |_| {
        sample_ms(Duration::from_secs(1), 100, 1000, |i| {
            synced
                .append(lines[i % lines.len()])
                .expect("append to probe store");
        })
    });
    values.set("exp.store.sync_ms_p50", percentile(&syncs, 0.5));
    values.set("exp.store.sync_ms_p99", percentile(&syncs, 0.99));
    Ok(syncs.len())
}

/// The Result frame a worker ships for `lines[i]` of `campaign`.
fn result_frame(campaign: &Campaign, i: usize, job_frames: bool) -> Msg {
    let (cell, line) = (&campaign.cells[i], campaign.lines[i].clone());
    if job_frames {
        Msg::Result2 {
            job: 1,
            cell: cell.id,
            line,
            elapsed_secs: 0.0,
            trials: cell.trials,
        }
    } else {
        Msg::Result {
            cell: cell.id,
            line,
            elapsed_secs: 0.0,
            trials: cell.trials,
        }
    }
}

/// `Msg::encode` / `Msg::decode` on the workload's Result frames.
fn protocol(campaigns: &[Campaign], job_frames: bool, tracer: &mut Tracer, values: &mut Values) {
    let frames: Vec<Msg> = campaigns
        .iter()
        .flat_map(|c| (0..c.cells.len()).map(move |i| result_frame(c, i, job_frames)))
        .collect();
    let wire: Vec<String> = frames.iter().map(Msg::encode).collect();
    let bytes: Vec<f64> = wire.iter().map(|w| w.len() as f64 + 1.0).collect();
    values.set("fabric.protocol.frame_bytes", mean(&bytes));
    let n = frames.len() as u64;
    let encode = tracer.span("fabric.protocol.encode_probe", |_| {
        repeat_us(MICRO, n, |i| {
            std::hint::black_box(frames[(i % n) as usize].encode());
        })
    });
    let decode = tracer.span("fabric.protocol.decode_probe", |_| {
        repeat_us(MICRO, n, |i| {
            std::hint::black_box(Msg::decode(&wire[(i % n) as usize]).expect("own frame decodes"));
        })
    });
    values.set("fabric.protocol.encode_us", encode);
    values.set("fabric.protocol.decode_us", decode);
}

/// `ServeState` and `JobQueue` claim + ingest + pop_flushable per cell,
/// over the first campaign's cells.
fn state_machines(
    desc: &SpecDescriptor,
    campaign: &Campaign,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<(), String> {
    let cells = campaign.cells.len() as u64;
    let lease = Duration::from_secs(60);
    let parked = |i: u64| Parked {
        line: campaign.lines[i as usize].clone(),
        trials: campaign.cells[i as usize].trials,
        elapsed_secs: 0.0,
    };
    let mut busy = Duration::ZERO;
    let mut passes = 0;
    tracer.span("fabric.serve.state_probe", |_| {
        let started = Instant::now();
        while passes < 3 || started.elapsed() < MICRO {
            let mut state = ServeState::new(cells, BTreeSet::new(), lease);
            let t0 = Instant::now();
            for _ in 0..cells {
                let Msg::Lease { cell, .. } = state.claim(1, Instant::now()) else {
                    panic!("serve state refused a lease with cells pending");
                };
                state.ingest(cell, parked(cell), true);
                while state.pop_flushable().is_some() {}
            }
            busy += t0.elapsed();
            passes += 1;
        }
    });
    values.set(
        "fabric.serve.state_us_per_cell",
        busy.as_secs_f64() * 1e6 / (passes * cells) as f64,
    );

    let fingerprint = format!("{:016x}", desc.build()?.fingerprint());
    let mut busy = Duration::ZERO;
    let mut passes = 0;
    tracer.span("fabric.queue.state_probe", |_| {
        let started = Instant::now();
        while passes < 3 || started.elapsed() < MICRO {
            let mut queue = JobQueue::new(QueueConfig::default());
            let (id, _) = queue
                .submit("perfbench-probe", desc, &fingerprint)
                .map_err(|r| format!("probe submit refused: {r:?}"))?;
            queue.start(id, BTreeSet::new(), Instant::now())?;
            let t0 = Instant::now();
            for _ in 0..cells {
                let now = Instant::now();
                let Msg::Lease2 { cell, .. } = queue.claim(1, now) else {
                    return Err("job queue refused a lease with cells pending".to_string());
                };
                queue.ingest(id, cell, parked(cell), true, now);
                while queue.pop_flushable(id, now).is_some() {}
            }
            busy += t0.elapsed();
            passes += 1;
        }
        Ok(())
    })?;
    values.set(
        "fabric.queue.state_us_per_cell",
        busy.as_secs_f64() * 1e6 / (passes * cells) as f64,
    );
    Ok(())
}

/// Claim → Lease round trips against a live `Server` for `desc`'s grid,
/// from a probe that speaks `Msg` itself and answers each lease with the
/// cell's precomputed line. Repeats whole campaigns for about a second.
fn lease_rtt(
    plan: &Plan,
    desc: &SpecDescriptor,
    campaign: &Campaign,
) -> Result<(Vec<f64>, Vec<ServeOutcome>), String> {
    let spec = desc.build()?;
    let fingerprint = format!("{:016x}", spec.fingerprint());
    let started = Instant::now();
    let mut rtts = Vec::new();
    let mut outcomes = Vec::new();
    for round in 0.. {
        if round > 0 && started.elapsed() > Duration::from_secs(1) {
            break;
        }
        let path = plan.dir.join(format!("probe-lease-{round}.jsonl"));
        let server = Server::bind("127.0.0.1:0", &spec, &path)?;
        let addr = server.local_addr()?;
        let outcome = std::thread::scope(|s| {
            let serving = s.spawn(|| server.run(&ServeConfig::default()));
            let probed = probe_session(&addr.to_string(), &fingerprint, campaign, &mut rtts);
            let outcome = serving.join().expect("probe server thread panicked");
            probed.and(outcome)
        })?;
        outcomes.push(outcome);
    }
    Ok((rtts, outcomes))
}

fn send(stream: &mut TcpStream, msg: &Msg) -> Result<(), String> {
    let mut frame = msg.encode();
    frame.push('\n');
    stream
        .write_all(frame.as_bytes())
        .map_err(|e| format!("probe send: {e}"))
}

/// One `/1` worker session that computes nothing: every lease is answered
/// with the cell's known line, so only the fabric is timed.
fn probe_session(
    addr: &str,
    fingerprint: &str,
    campaign: &Campaign,
    rtts: &mut Vec<f64>,
) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
    let mut lines = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?).lines();
    let mut recv = || -> Result<Msg, String> {
        let line = lines
            .next()
            .ok_or("probe: server closed")?
            .map_err(|e| format!("probe read: {e}"))?;
        Msg::decode(&line)
    };
    send(
        &mut stream,
        &Msg::Hello {
            schema: FABRIC_SCHEMA.into(),
            worker: "perfbench-probe".into(),
            fingerprint: fingerprint.into(),
        },
    )?;
    match recv()? {
        Msg::Welcome { .. } => {}
        other => return Err(format!("probe handshake: {other:?}")),
    }
    loop {
        let t0 = Instant::now();
        send(&mut stream, &Msg::Claim)?;
        match recv()? {
            Msg::Lease { cell, .. } => {
                rtts.push(t0.elapsed().as_secs_f64() * 1e3);
                send(&mut stream, &result_frame(campaign, cell as usize, false))?;
            }
            Msg::Wait { .. } => std::thread::sleep(Duration::from_millis(5)),
            Msg::Drained => return Ok(()),
            other => return Err(format!("probe: unexpected {other:?}")),
        }
    }
}
