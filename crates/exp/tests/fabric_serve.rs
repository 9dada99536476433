//! Integration test for the `stabcon serve` daemon: a worker that claims a
//! cell and dies (disconnect) and one that claims a cell and hangs (lease
//! expiry) both have their cells re-claimed and re-run by a healthy worker
//! — and the assembled store is byte-identical to the single-host run,
//! because re-runs from deterministic seeds are exact.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use stabcon_exp::campaign::{run_campaign, CampaignSpec, RunConfig};
use stabcon_exp::fabric::{
    run_worker, run_worker_any, Msg, ServeConfig, Server, WorkerConfig, FABRIC_SCHEMA,
};
use stabcon_exp::telemetry::{check_telemetry, timings_path};
use stabcon_exp::InitSpec;
use stabcon_util::jsonl::{get, parse_flat, JsonScalar};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("stabcon-fabric-serve");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(format!("{}-{tag}.jsonl", std::process::id()))
}

fn cleanup(store: &PathBuf) {
    std::fs::remove_file(store).ok();
    std::fs::remove_file(timings_path(store)).ok();
}

/// A finished single-campaign run leaves exactly the store and its
/// timings sidecar next to it: no jobs journal, no `<store>.job-N.jsonl`.
fn assert_only_store_and_timings(store: &Path) {
    let name = |p: &Path| {
        p.file_name()
            .expect("file name")
            .to_string_lossy()
            .into_owned()
    };
    let mut left: Vec<String> = std::fs::read_dir(store.parent().expect("store dir"))
        .expect("read store dir")
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|file| file.starts_with(&name(store)))
        .collect();
    left.sort();
    assert_eq!(left, vec![name(store), name(&timings_path(store))]);
}

/// 4 quick cells.
fn grid() -> CampaignSpec {
    CampaignSpec {
        name: "serve-it".into(),
        seed: 0x5E4E,
        trials: 4,
        ns: vec![64, 96],
        inits: vec![InitSpec::TwoBinsHalf, InitSpec::AllDistinct],
        ..CampaignSpec::default()
    }
}

/// Connect and complete the fabric handshake, returning the connection and
/// its buffered read side.
fn handshake(addr: &str, fingerprint: &str) -> (TcpStream, BufReader<TcpStream>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let hello = Msg::Hello {
        schema: FABRIC_SCHEMA.into(),
        worker: "rogue".into(),
        fingerprint: fingerprint.into(),
    };
    writeln!(stream, "{}", hello.encode()).expect("send hello");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read welcome");
    match Msg::decode(line.trim_end()).expect("decode welcome") {
        Msg::Welcome { .. } => {}
        other => panic!("handshake failed: {other:?}"),
    }
    (stream, reader)
}

/// Claim one cell and return its id (the rogue never runs it).
fn claim_one(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> u64 {
    writeln!(stream, "{}", Msg::Claim.encode()).expect("send claim");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read lease");
    match Msg::decode(line.trim_end()).expect("decode lease") {
        Msg::Lease { cell, lease_ms } => {
            assert!(lease_ms > 0);
            cell
        }
        other => panic!("expected a lease, got {other:?}"),
    }
}

#[test]
fn serve_survives_killed_and_hung_workers() {
    let spec = grid();
    let fingerprint = format!("{:016x}", spec.header().fingerprint);

    // Reference: the single-host store.
    let reference_path = tmp("reference");
    cleanup(&reference_path);
    run_campaign(&spec, &reference_path, &RunConfig::default()).expect("single-host run");
    let reference = std::fs::read(&reference_path).expect("read reference");

    let store = tmp("served");
    let sink = tmp("served-telemetry");
    cleanup(&store);
    std::fs::remove_file(&sink).ok();
    let server = Server::bind("127.0.0.1:0", &spec, &store).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let cfg = ServeConfig {
        lease: Duration::from_millis(300),
        telemetry: Some(sink.clone()),
        ..ServeConfig::default()
    };
    let server_thread = std::thread::spawn(move || server.run(&cfg));

    // A worker whose spec disagrees is rejected at the handshake.
    let wrong_spec = CampaignSpec {
        seed: 0xBAD,
        ..grid()
    };
    let err = run_worker(&addr, &wrong_spec, &WorkerConfig::default()).unwrap_err();
    assert!(err.contains("rejected"), "{err}");
    assert!(err.contains("fingerprint"), "{err}");

    // Killed worker: claims a cell, then the host dies (connection drops).
    let killed_cell = {
        let (mut stream, mut reader) = handshake(&addr, &fingerprint);
        claim_one(&mut stream, &mut reader)
        // stream dropped here — the server releases the lease immediately.
    };

    // Hung worker: claims a cell and goes silent without disconnecting;
    // only the lease expiry can reclaim this one.
    let (hung_stream, mut hung_reader) = handshake(&addr, &fingerprint);
    let hung_cell = {
        let mut stream = hung_stream.try_clone().expect("clone");
        claim_one(&mut stream, &mut hung_reader)
    };

    // A healthy worker drains the campaign, re-running both lost cells.
    let outcome = run_worker(
        &addr,
        &spec,
        &WorkerConfig {
            threads: 2,
            name: "healthy".into(),
            ..WorkerConfig::default()
        },
    )
    .expect("healthy worker");
    assert_eq!(
        outcome.cells_run, 4,
        "the healthy worker re-runs the killed ({killed_cell}) and hung \
         ({hung_cell}) workers' cells"
    );

    let served = server_thread
        .join()
        .expect("server thread")
        .expect("serve outcome");
    drop(hung_stream);
    assert_eq!(served.cells_total, 4);
    assert_eq!(served.cells_ingested, 4);
    assert_eq!(
        served.workers_seen, 3,
        "rogues count, the rejected one doesn't"
    );
    assert!(
        served.leases_reclaimed >= 2,
        "both lost leases reclaimed (got {})",
        served.leases_reclaimed
    );

    // The assembled store is byte-identical to the single-host run.
    assert_eq!(
        std::fs::read(&store).expect("read served store"),
        reference,
        "serve-assembled store differs from the single-host store"
    );

    // The ingested telemetry stream satisfies the telemetry schema.
    let check = check_telemetry(&sink).expect("valid serve telemetry sink");
    assert!(check.cell_profiles >= 4, "one profile per ingested cell");
    assert_only_store_and_timings(&store);

    cleanup(&reference_path);
    cleanup(&store);
    std::fs::remove_file(&sink).ok();
}

/// The canonical store cell line for `cell`, looked up in a finished
/// reference store by id — what an honest worker would ship.
fn reference_line(reference: &[u8], cell: u64) -> String {
    String::from_utf8_lossy(reference)
        .lines()
        .skip(1) // header
        .find(|l| {
            parse_flat(l)
                .ok()
                .and_then(|o| get(&o, "cell").and_then(JsonScalar::as_u64))
                == Some(cell)
        })
        .unwrap_or_else(|| panic!("reference store has no cell {cell}"))
        .to_string()
}

#[test]
fn heartbeats_keep_a_slow_but_alive_worker_leased() {
    // A worker that takes 3× the lease to finish a cell keeps its lease by
    // heartbeating: the deadline sweep must distinguish slow from dead.
    let spec = grid();
    let fingerprint = format!("{:016x}", spec.header().fingerprint);

    let reference_path = tmp("slow-reference");
    cleanup(&reference_path);
    run_campaign(&spec, &reference_path, &RunConfig::default()).expect("single-host run");
    let reference = std::fs::read(&reference_path).expect("read reference");

    let store = tmp("slow-served");
    cleanup(&store);
    let server = Server::bind("127.0.0.1:0", &spec, &store).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let cfg = ServeConfig {
        lease: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let server_thread = std::thread::spawn(move || server.run(&cfg));

    // The slow worker: claims a cell, then "computes" for 3 lease
    // durations, renewing every lease/3 — and finally ships the exact
    // line an honest run produces.
    let (mut slow, mut slow_reader) = handshake(&addr, &fingerprint);
    let slow_cell = claim_one(&mut slow, &mut slow_reader);
    for _ in 0..9 {
        std::thread::sleep(Duration::from_millis(100));
        writeln!(slow, "{}", Msg::Renew { cell: slow_cell }.encode()).expect("send renew");
    }
    let result = Msg::Result {
        cell: slow_cell,
        line: reference_line(&reference, slow_cell),
        elapsed_secs: 0.9,
        trials: spec.trials,
    };
    writeln!(slow, "{}", result.encode()).expect("ship result");

    // A healthy worker drains the rest. If the sweep had reclaimed the
    // slow worker's cell, the healthy worker would have run 4 cells.
    let outcome = run_worker(&addr, &spec, &WorkerConfig::default()).expect("healthy worker");
    assert_eq!(outcome.cells_run, 3, "the slow worker's cell stayed leased");

    let served = server_thread
        .join()
        .expect("server thread")
        .expect("serve outcome");
    drop(slow);
    assert_eq!(served.leases_reclaimed, 0, "nobody died, nobody expired");
    assert!(
        served.leases_renewed >= 2,
        "heartbeats extended the lease (got {})",
        served.leases_renewed
    );
    assert_eq!(served.cells_ingested, 4);
    assert_eq!(
        std::fs::read(&store).expect("read served store"),
        reference,
        "slow-worker store differs from the single-host store"
    );

    cleanup(&reference_path);
    cleanup(&store);
}

#[test]
fn duplicate_results_across_reconnects_are_deduped_exactly() {
    // A worker that ships the same completed cell three times — the
    // reconnect-resubmission pattern, amplified — lands exactly one store
    // line, and the dedupe counter reports the other two.
    let spec = grid();
    let fingerprint = format!("{:016x}", spec.header().fingerprint);

    let reference_path = tmp("dup-reference");
    cleanup(&reference_path);
    run_campaign(&spec, &reference_path, &RunConfig::default()).expect("single-host run");
    let reference = std::fs::read(&reference_path).expect("read reference");

    let store = tmp("dup-served");
    cleanup(&store);
    let server = Server::bind("127.0.0.1:0", &spec, &store).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let cfg = ServeConfig {
        lease: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let server_thread = std::thread::spawn(move || server.run(&cfg));

    let (mut stream, mut reader) = handshake(&addr, &fingerprint);
    let cell = claim_one(&mut stream, &mut reader);
    let result = Msg::Result {
        cell,
        line: reference_line(&reference, cell),
        elapsed_secs: 0.1,
        trials: spec.trials,
    };
    for _ in 0..3 {
        writeln!(stream, "{}", result.encode()).expect("ship result");
    }
    // A claim round-trip proves (by in-order processing on this
    // connection) all three copies were ingested before we assert.
    writeln!(stream, "{}", Msg::Claim.encode()).expect("send claim");
    let mut line = String::new();
    reader.read_line(&mut line).expect("claim reply");
    drop(stream); // releases whatever that claim leased

    let outcome = run_worker(&addr, &spec, &WorkerConfig::default()).expect("healthy worker");
    assert_eq!(outcome.cells_run, 3);

    let served = server_thread
        .join()
        .expect("server thread")
        .expect("serve outcome");
    assert_eq!(served.results_deduped, 2, "three copies, one ingest");
    assert_eq!(served.cells_ingested, 4);
    assert_eq!(
        std::fs::read(&store).expect("read served store"),
        reference,
        "duplicated results corrupted the store"
    );

    cleanup(&reference_path);
    cleanup(&store);
}

#[test]
fn serve_resumes_a_partial_store() {
    // Cells already in the store are skipped: only the remainder is leased.
    let spec = grid();
    let store = tmp("resume");
    cleanup(&store);
    run_campaign(
        &spec,
        &store,
        &RunConfig {
            max_cells: Some(2),
            ..RunConfig::default()
        },
    )
    .expect("partial single-host run");

    let reference_path = tmp("resume-reference");
    cleanup(&reference_path);
    run_campaign(&spec, &reference_path, &RunConfig::default()).expect("reference run");

    let server = Server::bind("127.0.0.1:0", &spec, &store).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let cfg = ServeConfig {
        lease: Duration::from_millis(500),
        resume: true,
        ..ServeConfig::default()
    };
    let server_thread = std::thread::spawn(move || server.run(&cfg));

    // A single-campaign daemon has no descriptor to ship in a Lease2, so
    // any-campaign (`/2`) sessions are refused at the handshake.
    let err = run_worker_any(
        &addr,
        &WorkerConfig {
            retries: 0,
            ..WorkerConfig::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("rejected") && err.contains("--queue"), "{err}");

    let outcome = run_worker(&addr, &spec, &WorkerConfig::default()).expect("worker");
    assert_eq!(outcome.cells_run, 2, "only the missing cells are leased");

    let served = server_thread
        .join()
        .expect("server thread")
        .expect("serve outcome");
    assert_eq!(served.cells_skipped, 2);
    assert_eq!(served.cells_ingested, 2);
    assert_eq!(
        std::fs::read(&store).expect("read resumed store"),
        std::fs::read(&reference_path).expect("read reference"),
        "resumed serve store differs from the single-host store"
    );
    assert_only_store_and_timings(&store);

    cleanup(&store);
    cleanup(&reference_path);
}
