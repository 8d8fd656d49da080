//! `ingest`: the Administrator's add.
//!
//! One closed-loop admin takes a stream of VSC clip bytes through
//! `decode_vsc` and `ingest_video` (default `IngestConfig`) into a
//! file-backed library of 10 clips prepared for the run; each add
//! returns after the fsync'd WAL commit.
//! Every clip of the stream is distinct: it is rendered and encoded from
//! the seed just before its add, outside the timed part. Clips carry one
//! to four key frames, so add latency is multimodal; a stream of distinct
//! clips keeps its mix, and so its median, the same from run to run.
//! Afterwards the database is reopened from disk and must list every
//! acknowledged video with exactly its key frames.

use crate::data;
use crate::layers::{self, KeyframeTally, PhaseObs};
use crate::stats::{self, Dist, Interleaved, Window, P90_SAMPLES};
use crate::trace::Tracer;
use crate::{Args, Named, Outcome, SETUP_REPS};
use cbvr_core::{ingest_video, IngestConfig};
use cbvr_storage::{CbvrDatabase, FileBackend};
use cbvr_video::decode_vsc;
use std::path::Path;
use std::time::Instant;

/// An acknowledged add: what the reopened database must hold.
struct Acked {
    v_id: u64,
    name: String,
    keyframe_ids: Vec<u64>,
}

#[derive(Default)]
struct Load {
    latency: Dist,
    /// In a traced phase every other add is traced.
    split: Interleaved,
    /// Total time spent in timed adds, seconds.
    busy_s: f64,
    acked: Vec<Acked>,
    keyframes: u64,
    input_bytes: u64,
    attempted: u64,
    failed: u64,
    tally: KeyframeTally,
}

/// The `n`-th clip of the admin's stream: its name and VSC bytes.
pub fn stream_clip(seed: u64, n: u64) -> (String, Vec<u8>) {
    let c = cbvr_video::Category::ALL[(n % 5) as usize];
    let video = data::clip(seed, data::INGEST, c, n / 5);
    (format!("{}_{n}", c.name()), data::vsc(&video))
}

/// Add clips for the `window`. Traced: every other add is followed by
/// its stages called one by one.
fn drive(
    db: &mut CbvrDatabase<FileBackend>,
    seed: u64,
    window: Window,
    tracer: Option<&Tracer>,
) -> Load {
    let mut load = Load::default();
    let config = IngestConfig::default();
    let mut n = 0u64;
    while window.running(load.latency.n()) {
        let (name, bytes) = stream_clip(seed, n);
        let tracer = tracer.filter(|_| n.is_multiple_of(2));
        n += 1;
        let (report, ns) = match tracer {
            Some(t) => layers::ingest_traced(t, db, &name, &bytes, &mut load.tally),
            None => {
                let sent = Instant::now();
                let report = decode_vsc(&bytes)
                    .map_err(|e| e.to_string())
                    .and_then(|v| ingest_video(db, &name, &v, &config).map_err(|e| e.to_string()));
                (report, sent.elapsed().as_nanos())
            }
        };
        load.attempted += 1;
        load.latency.push_nanos(ns);
        load.split.push_nanos(tracer.is_some(), ns);
        load.busy_s += ns as f64 / 1e9;
        match report {
            Ok(r) => {
                load.keyframes += r.keyframe_ids.len() as u64;
                load.input_bytes += bytes.len() as u64;
                load.acked.push(Acked {
                    v_id: r.v_id,
                    name,
                    keyframe_ids: r.keyframe_ids,
                });
            }
            Err(_) => load.failed += 1,
        }
    }
    load
}

/// Reopen from disk; count acknowledged adds the database lost or changed.
fn verify(db_dir: &Path, acked: &[Acked]) -> Result<u64, String> {
    let mut db = CbvrDatabase::open_dir(db_dir).map_err(|e| e.to_string())?;
    let listed: std::collections::HashMap<u64, String> = db
        .list_videos()
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|(v, n, _)| (v, n))
        .collect();
    let mut lost = 0;
    for a in acked {
        let same_name = listed.get(&a.v_id) == Some(&a.name);
        let same_frames = db.key_frames_of_video(a.v_id).ok().as_ref() == Some(&a.keyframe_ids);
        lost += u64::from(!(same_name && same_frames));
    }
    Ok(lost)
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let db_dir = dir.join("db");
    data::prepare_in_child("ingest", args.seed, &db_dir)?;
    let library_bytes = data::dir_bytes(&db_dir);

    // Set-up: open the library (WAL recovery) until the first add can be
    // taken. The last handle is the one the admin adds through.
    let mut setup_s = Vec::new();
    let mut db = None;
    for _ in 0..SETUP_REPS {
        drop(db.take());
        let started = Instant::now();
        let opened = CbvrDatabase::open_dir(&db_dir).map_err(|e| e.to_string())?;
        setup_s.push(started.elapsed().as_secs_f64());
        db = Some(opened);
    }
    let mut db = db.expect("at least one set-up");

    let untraced = if args.trace {
        Window::new(args.seconds / 2.0, 0)
    } else {
        Window::new(args.seconds, P90_SAMPLES)
    };
    let load = drive(&mut db, args.seed, untraced, None);
    drop(db);
    let db_bytes = data::dir_bytes(&db_dir).saturating_sub(library_bytes);
    let lost = verify(&db_dir, &load.acked)?;
    let peak_rss_mb = stats::peak_rss_mb();
    let mut attempted = load.attempted;
    let mut failed = load.failed + lost;

    let mut layers_out = None;
    let mut shares = Vec::new();
    if args.trace {
        let t = Tracer::new(true);
        // Reopened, so its storage counters cover the traced adds only.
        let root = t.root("op.setup");
        let reopened = t.child(&root, "storage.open", || CbvrDatabase::open_dir(&db_dir));
        t.close(root);
        let mut traced_db = reopened.map_err(|e| e.to_string())?;
        let start = PhaseObs::begin();
        let traced = drive(
            &mut traced_db,
            args.seed,
            Window::new(args.seconds / 2.0, 0),
            Some(&t),
        );
        let mut path = PhaseObs::end(start);
        path.keyframes = traced.tally;
        path.storage = traced_db.telemetry();
        path.input_bytes = traced.input_bytes as f64;
        path.clips = traced.acked.len() as f64;
        drop(traced_db);
        let overhead = traced.split.overhead();
        // No catalog load on this path: the sweep's is the traced one.
        let (l, sweep) = layers::finish_trace(&t, args, dir, &path, overhead, false)?;
        attempted += traced.attempted + sweep.attempted;
        failed += traced.failed + verify(&db_dir, &traced.acked)? + sweep.failed;
        let op = load.latency.p50();
        let kf_per_clip = load.keyframes as f64 / load.acked.len().max(1) as f64;
        for (name, per_clip) in [
            ("video.decode_ms", 1.0),
            ("keyframe.select_ms", 1.0),
            ("features.extract_ms", kf_per_clip),
            ("imgproc.encode_ms", kf_per_clip),
            ("video.encode_ms", 1.0),
            ("storage.commit_ms", 1.0),
        ] {
            if let Some(v) = l.get(name) {
                shares.push((
                    format!("{name} x per-clip count / ingest p50"),
                    v.value * per_clip / op,
                ));
            }
        }
        layers_out = Some(l);
    }

    // Per second of add time: clip rendering between adds is not the system's.
    let throughput = load.keyframes as f64 / load.busy_s;
    let named = vec![
        Named {
            name: "setup_s",
            value: stats::median(&setup_s).unwrap_or(0.0),
            unit: "s",
            samples: setup_s.len(),
        },
        Named {
            name: "ingest_clip_p50_ms",
            value: load.latency.p50(),
            unit: "ms",
            samples: load.latency.n(),
        },
        Named {
            name: "ingest_clip_p90_ms",
            value: load.latency.p90(),
            unit: "ms",
            samples: load.latency.n(),
        },
        Named {
            name: "ingest_keyframes_per_s",
            value: throughput,
            unit: "1/s",
            samples: load.keyframes as usize,
        },
        Named {
            name: "db_bytes_per_input_byte",
            value: db_bytes as f64 / load.input_bytes.max(1) as f64,
            unit: "ratio",
            samples: load.acked.len(),
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
        op: load.latency,
        throughput,
        peak_rss_mb,
        attempted,
        failed,
        named,
        layers: layers_out,
        shares,
    })
}
