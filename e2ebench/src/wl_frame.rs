//! `frame_query`: the User's query by frame over HTTP.
//!
//! An in-process `cbvr-web` server serves a catalog of 60 default clips
//! (12 per category) really ingested into a file database. Two
//! closed-loop clients each POST `/query?k=10&format=json` and wait for
//! the reply before sending the next. Probes are the key frames of
//! held-out clips, round-robin as BMP, PPM and VJP; every eighth probe is
//! a stored key frame sent losslessly, which must come back at rank 1.

use crate::data;
use crate::layers::{self, Fmt, PhaseObs, Probe};
use crate::stats::{self, Dist, Interleaved, Window, P90_SAMPLES};
use crate::trace::Tracer;
use crate::{Args, Named, Outcome, SETUP_REPS};
use cbvr_core::QueryEngine;
use cbvr_imgproc::decode_auto;
use cbvr_storage::{CbvrDatabase, FileBackend};
use cbvr_web::{AppState, Server};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Closed-loop clients (the load generator's thread budget: nproc = 2).
const CLIENTS: usize = 2;
/// One probe in this many is an exact stored key frame.
const EXACT_EVERY: usize = 8;

/// Probes for the run: held-out key frames, plus exact stored frames.
/// Worked out in the preparation child from its own view of the
/// catalog, so no second copy of the catalog ever lives in the process
/// whose `peak_rss_mb` is reported.
fn probes(
    seed: u64,
    engine: &QueryEngine,
    db: &mut CbvrDatabase<FileBackend>,
) -> Result<Vec<Probe>, String> {
    let mut out = Vec::new();
    let mut held = Vec::new();
    for (category, video) in data::held_out(seed) {
        for frame in data::key_frames(&video) {
            held.push((category, frame));
        }
    }
    let rows = engine.len();
    for (i, (category, frame)) in held.iter().enumerate() {
        if out.len() % EXACT_EVERY == EXACT_EVERY - 1 {
            let entry = engine.entry((data::mix(seed, i as u64) % rows as u64) as usize);
            let row = db.get_key_frame(entry.i_id).map_err(|e| e.to_string())?;
            let bytes = db.read_image_bytes(&row).map_err(|e| e.to_string())?;
            let stored = decode_auto(&bytes).map_err(|e| e.to_string())?;
            let name = engine.video_name(entry.v_id).unwrap_or_default();
            let c = data::category_of(&name).ok_or("stored video without category")?;
            let fmt = if out.len() % 2 == 0 {
                Fmt::Bmp
            } else {
                Fmt::Ppm
            };
            out.push(Probe::new(engine, &stored, fmt, c, Some(entry.i_id)));
        }
        out.push(Probe::new(engine, frame, Fmt::ALL[i % 3], *category, None));
    }
    Ok(out)
}

/// Where the preparation child leaves the probes: beside the database.
fn probes_file(db_dir: &Path) -> std::path::PathBuf {
    db_dir.with_file_name("probes.bin")
}

/// The `--prepare` step (child process): ingest the catalog, then work
/// out the probes and their expected answers.
pub fn prepare(seed: u64, db_dir: &Path) -> Result<(), String> {
    data::ingest_family(
        seed,
        data::CATALOG,
        5 * data::FRAME_CATALOG_PER_CATEGORY,
        db_dir,
    )?;
    let mut db = CbvrDatabase::open_dir(db_dir).map_err(|e| e.to_string())?;
    let engine = QueryEngine::from_database(&mut db).map_err(|e| e.to_string())?;
    let probes = probes(seed, &engine, &mut db)?;
    Probe::write_all(&probes, &probes_file(db_dir)).map_err(|e| e.to_string())
}

/// Counts and latencies the clients gathered.
#[derive(Default)]
struct Load {
    rtt: Dist,
    /// In a traced phase every other request is traced.
    split: Interleaved,
    ok: u64,
    attempted: u64,
    failed: u64,
    /// Precision@10 of the first passing answer to each held-out probe.
    precision: Vec<Option<f64>>,
}

/// Run the closed-loop clients for the `window`. Traced: every other
/// request is followed by its socket-free and call-by-call twins.
fn drive(
    addr: std::net::SocketAddr,
    probes: &[Probe],
    window: Window,
    traced: Option<(&Tracer, &AppState<FileBackend>, &QueryEngine)>,
) -> (Load, f64) {
    let load = Mutex::new(Load {
        precision: vec![None; probes.len()],
        ..Load::default()
    });
    let next = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                if !window.running(load.lock().expect("client tally poisoned").rtt.n()) {
                    break;
                }
                let n = next.fetch_add(1, Ordering::Relaxed) as usize;
                let i = n % probes.len();
                let probe = &probes[i];
                let traced = traced.filter(|_| n.is_multiple_of(2));
                let (reply, rtt_ns, consistent) = match traced {
                    Some((t, state, engine)) => {
                        let q = layers::http_query_traced(t, addr, state, engine, probe);
                        (q.reply, q.rtt_ns, q.consistent)
                    }
                    None => {
                        let sent = Instant::now();
                        let r = crate::http::post(addr, &Probe::path(), &probe.body);
                        (r, sent.elapsed().as_nanos(), true)
                    }
                };
                let matches = reply
                    .as_ref()
                    .ok()
                    .and_then(|r| probe.check(r))
                    .filter(|_| consistent);
                let mut l = load.lock().expect("client tally poisoned");
                l.attempted += 1;
                l.rtt.push_nanos(rtt_ns);
                l.split.push_nanos(traced.is_some(), rtt_ns);
                match matches {
                    Some(m) => {
                        l.ok += 1;
                        if probe.exact.is_none() && l.precision[i].is_none() && !m.is_empty() {
                            let relevant = m
                                .iter()
                                .filter(|m| data::category_of(&m.video) == Some(probe.category))
                                .count();
                            l.precision[i] = Some(relevant as f64 / m.len() as f64);
                        }
                    }
                    None => l.failed += 1,
                }
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    (load.into_inner().expect("client tally poisoned"), wall)
}

/// One set-up: open the prepared database (WAL recovery), load the
/// catalog into the web state, and bind the server.
fn set_up(db_dir: &Path) -> Result<(Arc<AppState<FileBackend>>, Server, f64), String> {
    let started = Instant::now();
    let db = CbvrDatabase::open_dir(db_dir).map_err(|e| e.to_string())?;
    let state = AppState::new(db).map_err(|e| e.to_string())?;
    let server = Server::start(Arc::clone(&state), "127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok((state, server, started.elapsed().as_secs_f64()))
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let db_dir = dir.join("db");
    data::prepare_in_child("frame_query", args.seed, &db_dir)?;
    let probes = Probe::read_all(&probes_file(&db_dir))?;

    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, server)) = live.take() {
            Server::stop(server);
        }
        let (state, server, secs) = set_up(&db_dir)?;
        setup_s.push(secs);
        live = Some((state, server));
    }
    let (state, server) = live.expect("at least one set-up");
    let addr = server.addr();
    // Warm-up: one request per client, not measured.
    for p in probes.iter().take(CLIENTS) {
        let _ = crate::http::post(addr, &Probe::path(), &p.body);
    }

    let untraced = if args.trace {
        Window::new(args.seconds / 2.0, 0)
    } else {
        Window::new(args.seconds, P90_SAMPLES)
    };
    let (load, wall) = drive(addr, &probes, untraced, None);
    let peak_rss_mb = stats::peak_rss_mb();
    let mut attempted = load.attempted;
    let mut failed = load.failed;

    let mut layers_out = None;
    let mut shares = Vec::new();
    if args.trace {
        let t = Tracer::new(true);
        // The run's one traced catalog load gives the storage and seal
        // spans, and the engine the replay scores through. The replay
        // checks its ranking against the server's, whose engine
        // `from_database` loaded.
        let (loaded_db, engine, rows) = layers::load_traced(&t, &db_dir)?;
        let storage = loaded_db.telemetry();
        drop(loaded_db);
        let start = PhaseObs::begin();
        let (traced, _) = drive(
            addr,
            &probes,
            Window::new(args.seconds / 2.0, 0),
            Some((&t, &state, &engine)),
        );
        let mut path = PhaseObs::end(start);
        path.live_rows = rows as f64;
        path.live_videos = engine.video_ids().len() as f64;
        path.storage = storage;
        let overhead = traced.split.overhead();
        let (l, sweep) = layers::finish_trace(&t, args, dir, &path, overhead, true)?;
        attempted += traced.attempted + sweep.attempted;
        failed += traced.failed + sweep.failed;
        let handle = l.get("web.handle_ms").map_or(0.0, |v| v.value);
        for name in [
            "features.extract_ms",
            "imgproc.decode_ms.bmp",
            "index.range_ms",
            "core.score_ms",
        ] {
            if let Some(v) = l.get(name) {
                shares.push((format!("{name} / web.handle_ms"), v.value / handle));
            }
        }
        layers_out = Some(l);
    }
    server.stop();

    let answered: Vec<f64> = load.precision.iter().flatten().copied().collect();
    let precision = answered.iter().sum::<f64>() / answered.len().max(1) as f64;
    let throughput = load.ok as f64 / wall;
    let setup = stats::median(&setup_s).unwrap_or(0.0);
    let named = vec![
        Named {
            name: "setup_s",
            value: setup,
            unit: "s",
            samples: setup_s.len(),
        },
        Named {
            name: "frame_query_p50_ms",
            value: load.rtt.p50(),
            unit: "ms",
            samples: load.rtt.n(),
        },
        Named {
            name: "frame_query_p90_ms",
            value: load.rtt.p90(),
            unit: "ms",
            samples: load.rtt.n(),
        },
        Named {
            name: "frame_query_per_s",
            value: throughput,
            unit: "1/s",
            samples: load.ok as usize,
        },
        Named {
            name: "precision_at_10",
            value: precision,
            unit: "ratio",
            samples: answered.len(),
        },
        Named {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MiB",
            samples: 1,
        },
    ];
    Ok(Outcome {
        setup_s,
        op: load.rtt,
        throughput,
        peak_rss_mb,
        attempted,
        failed,
        named,
        layers: layers_out,
        shares,
    })
}
