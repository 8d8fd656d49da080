//! `catalog_churn`: a large catalog read beside writes.
//!
//! A database of 20,480 key-frame rows, one manifest segment per video,
//! is opened and loaded with `QueryEngine::from_database`. One client
//! thread sends three `query_frame` calls, then one `query_video`, and
//! again (held-out clips, default options, k = 10). One writer thread
//! runs on a fixed schedule: each round adds a video of pre-extracted
//! entries, removes the oldest churned video once enough are live, and
//! every few rounds compacts. The schedule's basis is given beside its
//! constants.

use crate::data;
use crate::layers::{self, KeyframeTally, PhaseObs, K};
use crate::stats::{self, Dist, Interleaved, Window, P90_SAMPLES};
use crate::trace::Tracer;
use crate::{Args, Named, Outcome};
use cbvr_core::engine::CatalogEntry;
use cbvr_core::{KeyframeConfig, QueryEngine};
use cbvr_imgproc::RgbImage;
use cbvr_storage::CbvrDatabase;
use cbvr_video::Video;
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Catalog loads per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Frame queries the client sends per clip query: frame latency is the
/// workload's primary metric, and its p90 needs 100 samples per run.
const FRAMES_PER_CLIP_QUERY: usize = 3;
/// Writer round period: one add per round, as often as one closed-loop
/// Administrator commits clips. That rate is measured by the `ingest`
/// workload: over seeds 1–10 on the reference machine (2 CPUs) its
/// median add took 169–199 ms, 188 ms in the middle, rounded up here to
/// 200 ms. The writer so makes the heaviest
/// add traffic one Administrator can, without the extraction, which
/// happened when the entries were made.
const ROUND: Duration = Duration::from_millis(200);
/// Every this many rounds the writer compacts (the program has no
/// compaction policy of its own; `cbvr compact` is run by hand). Six
/// rounds give at least 20 compactions in the 25 s `run_seconds`, the
/// samples the tail rule asks of a median
/// (`stats::tail_supported(20, 0.5)`), so `compact_p50_ms` is
/// reportable in every run.
const COMPACT_EVERY: u64 = 6;
/// Churned videos kept live before the oldest is removed: the videos
/// added between two compactions. The catalog so stays at its prepared
/// size plus at most this many videos, and each compaction finds the
/// removals since the last one as tombstones to drop.
const CHURN_LIVE: usize = COMPACT_EVERY as usize;
/// Ids of churned videos and their rows start above anything stored.
const CHURN_V_ID: u64 = 1 << 40;
const CHURN_I_ID: u64 = 1 << 41;

/// The held-out query inputs.
struct Queries {
    frames: Vec<RgbImage>,
    clips: Vec<Video>,
}

#[derive(Default)]
struct Load {
    frame: Dist,
    /// In a traced phase every other frame and clip query is traced.
    frame_split: Interleaved,
    clip: Dist,
    compact: Dist,
    /// How long the client ran, seconds.
    client_s: f64,
    attempted: u64,
    failed: u64,
    tally: KeyframeTally,
}

/// Check one ranked frame answer.
fn frame_ok(
    engine: &QueryEngine,
    frame: &RgbImage,
    m: &[cbvr_core::FrameMatch],
    removed: &HashSet<u64>,
) -> bool {
    let len_ok = m.len() == K || m.len() == K.min(engine.candidate_count(frame, true));
    len_ok
        && m.windows(2).all(|w| w[0].score >= w[1].score)
        && m.iter().all(|x| !removed.contains(&x.v_id))
}

/// Check one ranked clip answer.
fn clip_ok(engine: &QueryEngine, m: &[cbvr_core::VideoMatch], removed: &HashSet<u64>) -> bool {
    let len_ok = m.len() == K || m.len() == K.min(engine.video_ids().len());
    len_ok
        && m.windows(2).all(|w| w[0].distance <= w[1].distance)
        && m.iter().all(|x| !removed.contains(&x.v_id))
}

/// Client and writer for the client's `window`; the writer stops when
/// the client does. Traced: every other query runs call by call, and the
/// writer's rounds are spans.
fn drive(
    engine: &QueryEngine,
    queries: &Queries,
    templates: &[Vec<CatalogEntry>],
    window: Window,
    tracer: Option<&Tracer>,
) -> Load {
    let load = Mutex::new(Load::default());
    let removed: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
    let client_done = AtomicBool::new(false);
    let started = Instant::now();
    let options = layers::query_options();
    std::thread::scope(|s| {
        // Client: three frame queries, one clip query, and again.
        s.spawn(|| {
            let (mut i, mut frames, mut clips) = (0usize, 0usize, 0usize);
            let mut tally = KeyframeTally::default();
            while window.running(frames) {
                let before: HashSet<u64> = removed.lock().expect("removed set poisoned").clone();
                let sent = Instant::now();
                let ok = if i % (FRAMES_PER_CLIP_QUERY + 1) < FRAMES_PER_CLIP_QUERY {
                    let frame = &queries.frames[frames % queries.frames.len()];
                    let tracer = tracer.filter(|_| frames.is_multiple_of(2));
                    frames += 1;
                    let m = match tracer {
                        Some(t) => layers::frame_query_traced(t, engine, frame),
                        None => engine.query_frame(frame, &options),
                    };
                    let ns = sent.elapsed().as_nanos();
                    let mut l = load.lock().expect("tally poisoned");
                    l.frame.push_nanos(ns);
                    l.frame_split.push_nanos(tracer.is_some(), ns);
                    drop(l);
                    frame_ok(engine, frame, &m, &before)
                } else {
                    let clip = &queries.clips[clips % queries.clips.len()];
                    let tracer = tracer.filter(|_| clips.is_multiple_of(2));
                    clips += 1;
                    let m = match tracer {
                        Some(t) => layers::clip_query_traced(t, engine, clip, &mut tally),
                        None => engine.query_video(clip, &KeyframeConfig::default(), &options),
                    };
                    let ns = sent.elapsed().as_nanos();
                    load.lock().expect("tally poisoned").clip.push_nanos(ns);
                    clip_ok(engine, &m, &before)
                };
                let mut l = load.lock().expect("tally poisoned");
                l.attempted += 1;
                l.failed += u64::from(!ok);
                drop(l);
                i += 1;
            }
            let mut l = load.lock().expect("tally poisoned");
            l.tally = tally;
            l.client_s = started.elapsed().as_secs_f64();
            client_done.store(true, Ordering::Relaxed);
        });
        // Writer: a fixed schedule, not as fast as it can.
        s.spawn(|| {
            let mut live: std::collections::VecDeque<(u64, usize)> = Default::default();
            let mut round = 0u64;
            loop {
                let due = started + ROUND * (round as u32 + 1);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                if client_done.load(Ordering::Relaxed) {
                    break;
                }
                let root = tracer.map(|t| t.root("op.churn"));
                let v_id = CHURN_V_ID + round;
                let template = &templates[round as usize % templates.len()];
                let entries = data::relabel(template, v_id, CHURN_I_ID + round * 1000);
                let name = format!("{}_c{round}", category_name(engine, template));
                match (tracer, &root) {
                    (Some(t), Some(r)) => layers::add_traced(t, r, engine, &name, entries),
                    _ => engine.add_video(&name, entries),
                }
                live.push_back((v_id, template.len()));
                let mut failed = 0;
                if live.len() > CHURN_LIVE {
                    let (old, rows) = live.pop_front().expect("live is non-empty");
                    let gone = match (tracer, &root) {
                        (Some(t), Some(r)) => layers::remove_traced(t, r, engine, old),
                        _ => engine.remove_video(old),
                    };
                    removed.lock().expect("removed set poisoned").insert(old);
                    failed += u64::from(gone != rows);
                }
                let compact_ns =
                    (round + 1)
                        .is_multiple_of(COMPACT_EVERY)
                        .then(|| match (tracer, &root) {
                            (Some(t), Some(r)) => layers::compact_traced(t, r, engine),
                            _ => {
                                let started = Instant::now();
                                engine.compact();
                                started.elapsed().as_nanos()
                            }
                        });
                if let (Some(t), Some(r)) = (tracer, root) {
                    t.close(r);
                }
                let mut l = load.lock().expect("tally poisoned");
                l.attempted += 1;
                l.failed += failed;
                if let Some(ns) = compact_ns {
                    l.compact.push_nanos(ns);
                }
                drop(l);
                round += 1;
            }
        });
    });
    load.into_inner().expect("tally poisoned")
}

fn category_name(engine: &QueryEngine, template: &[CatalogEntry]) -> String {
    let name = engine.video_name(template[0].v_id).unwrap_or_default();
    data::category_of(&name)
        .map_or("unknown", |c| c.name())
        .to_string()
}

/// Entries of the first videos of the catalog, as templates for the
/// writer's adds.
fn templates(engine: &QueryEngine) -> Vec<Vec<CatalogEntry>> {
    let mut out: Vec<Vec<CatalogEntry>> = Vec::new();
    for i in 0..64.min(engine.len()) {
        let e = engine.entry(i);
        match out.last_mut() {
            Some(group) if group[0].v_id == e.v_id => group.push(e),
            _ => out.push(vec![e]),
        }
    }
    out
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let db_dir = dir.join("db");
    data::prepare_in_child("catalog_churn", args.seed, &db_dir)?;
    let held = data::held_out(args.seed);
    let queries = Queries {
        frames: held.iter().flat_map(|(_, v)| data::key_frames(v)).collect(),
        clips: held.into_iter().map(|(_, v)| v).collect(),
    };

    // Set-up: open the database (WAL recovery) and load the catalog.
    let mut setup_s = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let started = Instant::now();
        let mut db = CbvrDatabase::open_dir(&db_dir).map_err(|e| e.to_string())?;
        let loaded = QueryEngine::from_database(&mut db).map_err(|e| e.to_string())?;
        setup_s.push(started.elapsed().as_secs_f64());
        engine = Some(loaded);
    }
    let engine = engine.expect("at least one set-up");
    let templates = templates(&engine);
    // Warm-up: one query of each kind, not measured.
    engine.query_frame(&queries.frames[0], &layers::query_options());
    engine.query_video(
        &queries.clips[0],
        &KeyframeConfig::default(),
        &layers::query_options(),
    );

    let untraced = if args.trace {
        Window::new(args.seconds / 2.0, 0)
    } else {
        Window::new(args.seconds, P90_SAMPLES)
    };
    let load = drive(&engine, &queries, &templates, untraced, None);
    drop(engine);
    let peak_rss_mb = stats::peak_rss_mb();
    let mut attempted = load.attempted;
    let mut failed = load.failed;

    let mut layers_out = None;
    let mut shares = Vec::new();
    if args.trace {
        let t = Tracer::new(true);
        let (db, engine, rows) = layers::load_traced(&t, &db_dir)?;
        let storage = db.telemetry();
        drop(db);
        // The traced load copies the program's loader: check it built
        // what `from_database` builds.
        let mut db = CbvrDatabase::open_dir(&db_dir).map_err(|e| e.to_string())?;
        let reference = QueryEngine::from_database(&mut db).map_err(|e| e.to_string())?;
        let same = layers::same_catalog(&engine, &reference);
        drop((db, reference));
        attempted += 1;
        failed += u64::from(!same);
        let start = PhaseObs::begin();
        let traced = drive(
            &engine,
            &queries,
            &templates,
            Window::new(args.seconds / 2.0, 0),
            Some(&t),
        );
        let mut path = PhaseObs::end(start);
        path.live_rows = rows as f64;
        path.live_videos = engine.video_ids().len() as f64;
        path.keyframes = traced.tally;
        path.storage = storage;
        drop(engine);
        let overhead = traced.frame_split.overhead();
        let (l, sweep) = layers::finish_trace(&t, args, dir, &path, overhead, true)?;
        attempted += traced.attempted + sweep.attempted;
        failed += traced.failed + sweep.failed;
        let frame_p50 = load.frame.p50();
        let clip_p50 = load.clip.p50();
        for (name, base, label) in [
            ("features.extract_ms", frame_p50, "frame query p50"),
            ("core.score_ms", frame_p50, "frame query p50"),
            ("index.range_ms", frame_p50, "frame query p50"),
            ("core.dtw_ms", clip_p50, "clip query p50"),
            ("keyframe.select_ms", clip_p50, "clip query p50"),
        ] {
            if let Some(v) = l.get(name) {
                shares.push((format!("{name} / {label}"), v.value / base));
            }
        }
        layers_out = Some(l);
    }

    let throughput = (load.frame.n() + load.clip.n()) as f64 / load.client_s;
    let named = vec![
        Named {
            name: "setup_s",
            value: stats::median(&setup_s).unwrap_or(0.0),
            unit: "s",
            samples: setup_s.len(),
        },
        Named {
            name: "frame_query_p50_ms",
            value: load.frame.p50(),
            unit: "ms",
            samples: load.frame.n(),
        },
        Named {
            name: "frame_query_p90_ms",
            value: load.frame.p90(),
            unit: "ms",
            samples: load.frame.n(),
        },
        Named {
            name: "clip_query_p50_ms",
            value: load.clip.p50(),
            unit: "ms",
            samples: load.clip.n(),
        },
        Named {
            name: "clip_query_p90_ms",
            value: load.clip.p90(),
            unit: "ms",
            samples: load.clip.n(),
        },
        Named {
            name: "compact_p50_ms",
            value: load.compact.p50(),
            unit: "ms",
            samples: load.compact.n(),
        },
        Named {
            name: "queries_per_s",
            value: throughput,
            unit: "1/s",
            samples: load.frame.n() + load.clip.n(),
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
        op: load.frame,
        throughput,
        peak_rss_mb,
        attempted,
        failed,
        named,
        layers: layers_out,
        shares,
    })
}
