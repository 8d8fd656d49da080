//! The traced operations: each workload operation taken apart into the
//! public functions of the layers it crosses, each call inside a span;
//! the program's own counters read around them; and the per-layer
//! metrics computed from both.
//!
//! Known telemetry defects are measured around from outside:
//! `compaction.secs` records 0 for sub-second runs, so `compact()` is
//! timed here; registry histograms are log2-bucketed, so only their
//! `sum / count` means are read; `query.arena.bytes` only ever grows, so
//! memory comes from `/proc` (see `stats::peak_rss_mb`).

use crate::data;
use crate::http::{self, Reply};
use crate::trace::{Open, Phase, Summary, Tracer};
use cbvr_core::engine::CatalogEntry;
use cbvr_core::{
    ingest_video, ExecPool, IngestConfig, IngestReport, QueryEngine, QueryOptions, Registry,
};
use cbvr_features::correlogram::AutoColorCorrelogram;
use cbvr_features::gabor::GaborTexture;
use cbvr_features::glcm::GlcmTexture;
use cbvr_features::histogram::ColorHistogram;
use cbvr_features::naive::NaiveSignature;
use cbvr_features::region::RegionGrowing;
use cbvr_features::tamura::TamuraTexture;
use cbvr_features::{FeatureKind, FeatureSet};
use cbvr_imgproc::codec::{encode, ImageFormat};
use cbvr_imgproc::{decode_auto, Histogram256, RgbImage};
use cbvr_index::{paper_range, RangeKey};
use cbvr_keyframe::{extract_keyframes, KeyframeConfig};
use cbvr_storage::{CbvrDatabase, FileBackend, StorageTelemetry};
use cbvr_video::{decode_vsc, encode_vsc, FrameCodec, Video};
use cbvr_web::{AppState, Method, Request, Server};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `k` of every query the benchmark sends.
pub const K: usize = 10;

/// Query options of every engine query: defaults with `k = 10`.
pub fn query_options() -> QueryOptions {
    QueryOptions {
        k: K,
        ..QueryOptions::default()
    }
}

// ---------------------------------------------------------------- probes

/// A feature name the server does not know (see [`Probe::twin_path`]).
const TWIN_FEATURE: &str = "none";

/// Upload formats of frame probes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fmt {
    Bmp,
    Ppm,
    Vjp,
}

impl Fmt {
    pub const ALL: [Fmt; 3] = [Fmt::Bmp, Fmt::Ppm, Fmt::Vjp];

    fn image_format(self) -> ImageFormat {
        match self {
            Fmt::Bmp => ImageFormat::Bmp,
            Fmt::Ppm => ImageFormat::Ppm,
            Fmt::Vjp => ImageFormat::Vjp,
        }
    }

    fn decode_span(self) -> &'static str {
        match self {
            Fmt::Bmp => "imgproc.decode.bmp",
            Fmt::Ppm => "imgproc.decode.ppm",
            Fmt::Vjp => "imgproc.decode.vjp",
        }
    }
}

/// One `POST /query` body with what its answer must satisfy.
pub struct Probe {
    pub fmt: Fmt,
    pub body: Vec<u8>,
    /// Category of the clip the frame came from.
    pub category: cbvr_video::Category,
    /// `Some(i_id)` when the body is that stored key frame, losslessly.
    pub exact: Option<u64>,
    /// `min(k, candidate rows)` for the frame the server will decode.
    pub expect_len: usize,
}

impl Probe {
    /// Encode `frame` as `fmt`; the expected answer length comes from
    /// the engine's candidate count for the frame as the server decodes it.
    pub fn new(
        engine: &QueryEngine,
        frame: &RgbImage,
        fmt: Fmt,
        category: cbvr_video::Category,
        exact: Option<u64>,
    ) -> Probe {
        let body = encode(frame, fmt.image_format());
        let decoded = decode_auto(&body).expect("own encoding decodes");
        let expect_len = K.min(engine.candidate_count(&decoded, true));
        Probe {
            fmt,
            body,
            category,
            exact,
            expect_len,
        }
    }

    pub fn path() -> String {
        format!("/query?k={K}&format=json")
    }

    /// The same upload with an unknown `feature`: the handler decodes the
    /// image and then answers 400, before any extraction.
    fn twin_path() -> String {
        format!("/query?k={K}&format=json&feature={TWIN_FEATURE}")
    }

    fn request(&self, twin: bool) -> Request {
        let mut query = vec![
            ("k".to_string(), K.to_string()),
            ("format".to_string(), "json".to_string()),
        ];
        if twin {
            query.push(("feature".to_string(), TWIN_FEATURE.to_string()));
        }
        Request {
            method: Method::Post,
            path: "/query".to_string(),
            query,
            headers: BTreeMap::new(),
            body: self.body.clone(),
        }
    }

    /// Write `probes` to `path` (see [`Probe::encode_all`]).
    pub fn write_all(probes: &[Probe], path: &Path) -> std::io::Result<()> {
        std::fs::write(path, Probe::encode_all(probes))
    }

    /// Read back what [`Probe::write_all`] wrote.
    pub fn read_all(path: &Path) -> Result<Vec<Probe>, String> {
        let raw = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Probe::decode_all(&raw).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// One record per probe: format, category, exact flag and `i_id`,
    /// expected length, body length, body.
    fn encode_all(probes: &[Probe]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in probes {
            let fmt = Fmt::ALL.iter().position(|f| *f == p.fmt);
            let category = cbvr_video::Category::ALL
                .iter()
                .position(|c| *c == p.category);
            out.push(fmt.expect("a listed format") as u8);
            out.push(category.expect("a listed category") as u8);
            out.push(u8::from(p.exact.is_some()));
            out.extend_from_slice(&p.exact.unwrap_or(0).to_le_bytes());
            out.extend_from_slice(&(p.expect_len as u32).to_le_bytes());
            out.extend_from_slice(&(p.body.len() as u32).to_le_bytes());
            out.extend_from_slice(&p.body);
        }
        out
    }

    fn decode_all(raw: &[u8]) -> Result<Vec<Probe>, String> {
        fn take<'a>(raw: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8], String> {
            let bytes = raw.get(*at..*at + n).ok_or("truncated probe file")?;
            *at += n;
            Ok(bytes)
        }
        let u32_at = |raw: &[u8], at: &mut usize| -> Result<u32, String> {
            Ok(u32::from_le_bytes(
                take(raw, at, 4)?.try_into().expect("4 bytes"),
            ))
        };
        let mut at = 0;
        let mut probes = Vec::new();
        while at < raw.len() {
            let head = take(raw, &mut at, 3)?;
            let (fmt, category, exact) = (head[0], head[1], head[2]);
            let i_id = u64::from_le_bytes(take(raw, &mut at, 8)?.try_into().expect("8 bytes"));
            let expect_len = u32_at(raw, &mut at)? as usize;
            let body_len = u32_at(raw, &mut at)? as usize;
            let body = take(raw, &mut at, body_len)?.to_vec();
            probes.push(Probe {
                fmt: *Fmt::ALL.get(fmt as usize).ok_or("bad probe format")?,
                body,
                category: *cbvr_video::Category::ALL
                    .get(category as usize)
                    .ok_or("bad probe category")?,
                exact: (exact != 0).then_some(i_id),
                expect_len,
            });
        }
        if probes.is_empty() {
            return Err("no probes".to_string());
        }
        Ok(probes)
    }

    /// The answer's matches if it passes every output check.
    pub fn check(&self, reply: &Reply) -> Option<Vec<http::Match>> {
        if reply.status != 200 {
            return None;
        }
        let matches = http::parse_matches(&reply.body)?;
        if matches.len() != self.expect_len {
            return None;
        }
        if matches.windows(2).any(|w| w[0].score < w[1].score) {
            return None;
        }
        if let Some(i_id) = self.exact {
            if matches.first().map(|m| m.i_id) != Some(i_id) {
                return None;
            }
        }
        Some(matches)
    }
}

// ------------------------------------------------------- traced operations

/// All seven extractors, each in its own span under `features.extract`.
pub fn extract_traced(t: &Tracer, parent: &Open, frame: &RgbImage) -> FeatureSet {
    let g = t.open(parent, "features.extract");
    let set = FeatureSet {
        histogram: t.child(&g, "features.extract.sch", || {
            ColorHistogram::extract(frame)
        }),
        glcm: t.child(&g, "features.extract.glcm", || GlcmTexture::extract(frame)),
        gabor: t.child(&g, "features.extract.gabor", || {
            GaborTexture::extract(frame)
        }),
        tamura: t.child(&g, "features.extract.tamura", || {
            TamuraTexture::extract(frame)
        }),
        correlogram: t.child(&g, "features.extract.acc", || {
            AutoColorCorrelogram::extract(frame)
        }),
        naive: t.child(&g, "features.extract.naive", || {
            NaiveSignature::extract(frame)
        }),
        regions: t.child(&g, "features.extract.srg", || RegionGrowing::extract(frame)),
    };
    t.close(g);
    set
}

fn range_traced(t: &Tracer, parent: &Open, frame: &RgbImage) -> RangeKey {
    t.child(parent, "index.range", || {
        paper_range(&Histogram256::of_rgb_luma(frame))
    })
}

/// What a traced HTTP frame query observed.
pub struct HttpQuery {
    pub reply: std::io::Result<Reply>,
    pub rtt_ns: u128,
    /// The socket-free `AppState::handle` answer equals the HTTP one and
    /// the decomposed pipeline ranks the same key frames.
    pub consistent: bool,
}

/// `POST /query` over the socket (root `op.http_query`), then a replay
/// (root `op.replay`): the same request through `AppState::handle`, and
/// the handler's pipeline call by call: decode → seven extractors →
/// range key → scoring.
///
/// Transport is measured on a twin of the request (root `op.http_twin`
/// and its replay `web.handle_twin`): same body, but an unknown feature,
/// so the handler stops after decoding. Round trip minus handling is then
/// the socket and HTTP cost for that body, without the ~100 ms of
/// extraction whose run-to-run noise would swamp a 1–2 ms difference.
pub fn http_query_traced(
    t: &Tracer,
    addr: SocketAddr,
    state: &AppState<FileBackend>,
    engine: &QueryEngine,
    probe: &Probe,
) -> HttpQuery {
    // The socket round trips are roots of their own: nothing inside the
    // server is visible from here, so all of their time is uncovered.
    let http = t.root("op.http_query");
    let reply = http::post(addr, &Probe::path(), &probe.body);
    let rtt_ns = u128::from(t.close(http));
    let twin = t.root("op.http_twin");
    let twin_reply = http::post(addr, &Probe::twin_path(), &probe.body);
    t.close(twin);
    let root = t.root("op.replay");
    let (request, twin_request) = (probe.request(false), probe.request(true));
    let direct = t.child(&root, "web.handle", || state.handle(&request));
    let twin_direct = t.child(&root, "web.handle_twin", || state.handle(&twin_request));
    let decoded = t.child(&root, probe.fmt.decode_span(), || decode_auto(&probe.body));
    let mut consistent = false;
    if let (Ok(frame), Ok(r), Ok(tr)) = (decoded, &reply, &twin_reply) {
        let set = extract_traced(t, &root, &frame);
        let range = range_traced(t, &root, &frame);
        let ranked = t.child(&root, "core.score", || {
            engine.query_features(&set, range, &query_options())
        });
        let over_http = http::parse_matches(&r.body).unwrap_or_default();
        consistent = r.body == direct.body
            && tr.status == 400
            && twin_direct.body == tr.body
            && over_http
                .iter()
                .map(|m| m.i_id)
                .eq(ranked.iter().map(|m| m.i_id));
    }
    t.close(root);
    HttpQuery {
        reply,
        rtt_ns,
        consistent,
    }
}

/// A frame query against an engine, call by call (what `query_frame`
/// does with default preprocessing).
pub fn frame_query_traced(
    t: &Tracer,
    engine: &QueryEngine,
    frame: &RgbImage,
) -> Vec<cbvr_core::FrameMatch> {
    let root = t.root("op.frame_query");
    let set = extract_traced(t, &root, frame);
    let range = range_traced(t, &root, frame);
    let out = t.child(&root, "core.score", || {
        engine.query_features(&set, range, &query_options())
    });
    t.close(root);
    out
}

/// A clip query, call by call: key frames → features → DTW ranking.
pub fn clip_query_traced(
    t: &Tracer,
    engine: &QueryEngine,
    video: &Video,
    tally: &mut KeyframeTally,
) -> Vec<cbvr_core::VideoMatch> {
    let root = t.root("op.clip_query");
    let kfs = t.child(&root, "keyframe.select", || {
        extract_keyframes(video, &KeyframeConfig::default())
    });
    tally.add(video.frame_count(), kfs.len());
    let sets: Vec<FeatureSet> = kfs
        .iter()
        .map(|k| extract_traced(t, &root, &k.frame))
        .collect();
    let out = t.child(&root, "core.dtw", || {
        engine.query_feature_sequence(&sets, &query_options())
    });
    t.close(root);
    out
}

/// Frames seen and key frames kept by key-frame selection.
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyframeTally {
    pub frames: u64,
    pub kept: u64,
}

impl KeyframeTally {
    pub fn add(&mut self, frames: usize, kept: usize) {
        self.frames += frames as u64;
        self.kept += kept as u64;
    }
}

/// One admin add: `decode_vsc` then `ingest_video` (the untraced
/// operation), followed by the ingest pipeline's stages called one by
/// one on the same clip: key frames, features, range keys, key-frame
/// blob encode, clip and stream encode. Returns the report and the
/// duration of the decode + ingest part.
pub fn ingest_traced<B: cbvr_storage::Backend>(
    t: &Tracer,
    db: &mut CbvrDatabase<B>,
    name: &str,
    bytes: &[u8],
    tally: &mut KeyframeTally,
) -> (Result<IngestReport, String>, u128) {
    let config = IngestConfig::default();
    let root = t.root("op.ingest");
    let started = Instant::now();
    let video = match t.child(&root, "video.decode", || decode_vsc(bytes)) {
        Ok(v) => v,
        Err(e) => {
            t.close(root);
            return (Err(e.to_string()), started.elapsed().as_nanos());
        }
    };
    let report = t.child(&root, "core.ingest_video", || {
        ingest_video(db, name, &video, &config)
    });
    let primary_ns = started.elapsed().as_nanos();
    let kfs = t.child(&root, "keyframe.select", || {
        extract_keyframes(&video, &config.keyframe)
    });
    tally.add(video.frame_count(), kfs.len());
    for kf in &kfs {
        extract_traced(t, &root, &kf.frame);
        range_traced(t, &root, &kf.frame);
        t.child(&root, "imgproc.encode", || {
            encode(&kf.frame, config.image_format)
        });
    }
    t.child(&root, "video.encode", || {
        std::hint::black_box(encode_vsc(&video, config.frame_codec));
        let frames: Vec<RgbImage> = kfs.iter().map(|k| k.frame.clone()).collect();
        if let Ok(stream) = Video::new(1, frames) {
            std::hint::black_box(encode_vsc(&stream, FrameCodec::Delta));
        }
    });
    t.close(root);
    (report.map_err(|e| e.to_string()), primary_ns)
}

/// Catalog load, call by call: open (WAL recovery) → scan → parse →
/// manifest grouping → seal (what `QueryEngine::from_database` does).
/// A copy of the program's loader, so it is used only for the one load
/// a traced run times, and [`same_catalog`] checks it against
/// `from_database`; every other load calls `from_database`.
pub fn load_traced(
    t: &Tracer,
    dir: &Path,
) -> Result<(CbvrDatabase<FileBackend>, QueryEngine, usize), String> {
    let root = t.root("op.setup");
    let result = (|| {
        let mut db = t
            .child(&root, "storage.open", || CbvrDatabase::open_dir(dir))
            .map_err(|e| e.to_string())?;
        let rows = t
            .child(&root, "storage.scan", || {
                let mut rows = Vec::new();
                db.scan_key_frames(|row| {
                    rows.push(row.clone());
                    true
                })
                .map(|()| rows)
            })
            .map_err(|e| e.to_string())?;
        let entries = t
            .child(&root, "features.parse", || {
                rows.iter()
                    .map(|row| {
                        let features = FeatureSet::from_feature_strings([
                            (FeatureKind::ColorHistogram, row.sch.as_str()),
                            (FeatureKind::Glcm, row.glcm.as_str()),
                            (FeatureKind::Gabor, row.gabor.as_str()),
                            (FeatureKind::Tamura, row.tamura.as_str()),
                            (FeatureKind::Correlogram, row.acc.as_str()),
                            (FeatureKind::Naive, row.naive.as_str()),
                            (FeatureKind::Regions, row.srg.as_str()),
                        ])?;
                        Ok(CatalogEntry {
                            i_id: row.i_id,
                            v_id: row.v_id,
                            range: RangeKey::new(row.min, row.max),
                            features,
                        })
                    })
                    .collect::<Result<Vec<_>, cbvr_features::FeatureError>>()
            })
            .map_err(|e| e.to_string())?;
        let n = entries.len();
        let (groups, names) = t
            .child(
                &root,
                "storage.manifest",
                || -> Result<_, cbvr_storage::StorageError> {
                    let manifest = db.list_manifest()?;
                    let names: HashMap<u64, String> = db
                        .list_videos()?
                        .into_iter()
                        .map(|(v, name, _)| (v, name))
                        .collect();
                    Ok((group_by_manifest(entries, &manifest), names))
                },
            )
            .map_err(|e| e.to_string())?;
        let engine = t.child(&root, "core.seal", || {
            QueryEngine::from_segmented(groups, names)
        });
        Ok((db, engine, n))
    })();
    t.close(root);
    result
}

/// Whether two engines hold the same catalog: rows in the same order
/// with the same ids and features, the same videos, the same segments.
pub fn same_catalog(a: &QueryEngine, b: &QueryEngine) -> bool {
    a.len() == b.len()
        && a.video_ids() == b.video_ids()
        && a.segment_stats() == b.segment_stats()
        && (0..a.len()).all(|i| {
            let (x, y) = (a.entry(i), b.entry(i));
            x.i_id == y.i_id && x.v_id == y.v_id && x.range == y.range && x.features == y.features
        })
}

/// Group `i_id`-ordered entries along the manifest, one group per record
/// (rows no record covers form their own runs), as catalog load does.
fn group_by_manifest(
    entries: Vec<CatalogEntry>,
    manifest: &[cbvr_storage::ManifestSegment],
) -> Vec<Vec<CatalogEntry>> {
    let mut groups: Vec<Vec<CatalogEntry>> = Vec::new();
    let mut current: Option<Option<usize>> = None;
    let mut j = 0;
    for e in entries {
        while j < manifest.len() && manifest[j].max_i_id < e.i_id {
            j += 1;
        }
        let key = (j < manifest.len() && manifest[j].min_i_id <= e.i_id).then_some(j);
        if current != Some(key) {
            groups.push(Vec::new());
            current = Some(key);
        }
        groups.last_mut().expect("a group was just pushed").push(e);
    }
    groups
}

/// The writer's engine mutations, each in a span under its round.
pub fn add_traced(
    t: &Tracer,
    parent: &Open,
    engine: &QueryEngine,
    name: &str,
    entries: Vec<CatalogEntry>,
) {
    t.child(parent, "core.add_video", || engine.add_video(name, entries));
}

pub fn remove_traced(t: &Tracer, parent: &Open, engine: &QueryEngine, v_id: u64) -> usize {
    t.child(parent, "core.remove_video", || engine.remove_video(v_id))
}

pub fn compact_traced(t: &Tracer, parent: &Open, engine: &QueryEngine) -> u128 {
    let started = Instant::now();
    t.child(parent, "core.compact", || engine.compact());
    started.elapsed().as_nanos()
}

// --------------------------------------------------------------- counters

/// Registry counters and histograms the per-layer metrics read.
/// Histograms are log2-bucketed, so only `sum/count` is used.
const COUNTERS: [&str; 11] = [
    "query.frame.requests",
    "query.frame.candidates",
    "query.clip.requests",
    "query.scan.elements",
    "query.scan.survivors",
    "query.abandon.dtw",
    "compaction.runs",
    "compaction.rows_dropped",
    "pool.jobs",
    "pool.steals",
    "web.backpressure.rejected",
];
const HISTOGRAMS: [&str; 2] = ["ingest.store_nanos", "pool.busy_nanos"];

/// A snapshot of [`COUNTERS`] and [`HISTOGRAMS`] (`<name>.sum`, `<name>.count`).
#[derive(Clone, Debug, Default)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    pub fn snapshot() -> Counters {
        let r = Registry::global();
        let mut m = BTreeMap::new();
        for name in COUNTERS {
            m.insert(name.to_string(), r.counter(name).get() as f64);
        }
        for name in HISTOGRAMS {
            let h = r.histogram(name);
            m.insert(format!("{name}.sum"), h.sum() as f64);
            m.insert(format!("{name}.count"), h.count() as f64);
        }
        Counters(m)
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.0.get(k).unwrap_or(&0.0)))
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one phase (path or sweep) observed besides spans.
#[derive(Clone, Debug, Default)]
pub struct PhaseObs {
    pub counters: Counters,
    pub wall_ns: f64,
    pub live_rows: f64,
    pub live_videos: f64,
    /// `catalog.segments` at the end of the phase.
    pub segments: f64,
    pub keyframes: KeyframeTally,
    /// Storage counters of the database the phase wrote or loaded.
    pub storage: StorageTelemetry,
    /// VSC bytes and clips ingested in the phase.
    pub input_bytes: f64,
    pub clips: f64,
}

impl PhaseObs {
    pub fn begin() -> (Counters, Instant) {
        (Counters::snapshot(), Instant::now())
    }

    pub fn end(start: (Counters, Instant)) -> PhaseObs {
        PhaseObs {
            counters: Counters::snapshot().since(&start.0),
            wall_ns: start.1.elapsed().as_nanos() as f64,
            segments: Registry::global().gauge("catalog.segments").get() as f64,
            ..PhaseObs::default()
        }
    }
}

/// `num / den` from the path when its denominator is positive, else
/// from the sweep.
fn ratio(path: &PhaseObs, sweep: &PhaseObs, f: impl Fn(&PhaseObs) -> (f64, f64)) -> Option<f64> {
    [path, sweep]
        .into_iter()
        .map(&f)
        .find(|(_, den)| *den > 0.0)
        .map(|(n, d)| n / d)
}

/// Every per-layer metric (name, unit, better), in report order.
pub const PER_LAYER: [(&str, &str, &str); 51] = [
    ("web.handle_ms", "ms", "lower"),
    ("web.transport_ms", "ms", "lower"),
    ("web.rejected", "count", "lower"),
    ("imgproc.decode_ms.bmp", "ms", "lower"),
    ("imgproc.decode_ms.ppm", "ms", "lower"),
    ("imgproc.decode_ms.vjp", "ms", "lower"),
    ("imgproc.encode_ms", "ms", "lower"),
    ("video.decode_ms", "ms", "lower"),
    ("video.encode_ms", "ms", "lower"),
    ("keyframe.select_ms", "ms", "lower"),
    ("keyframe.kept_ratio", "ratio", "lower"),
    ("features.extract_ms", "ms", "lower"),
    ("features.extract_ms.sch", "ms", "lower"),
    ("features.extract_ms.glcm", "ms", "lower"),
    ("features.extract_ms.gabor", "ms", "lower"),
    ("features.extract_ms.tamura", "ms", "lower"),
    ("features.extract_ms.acc", "ms", "lower"),
    ("features.extract_ms.naive", "ms", "lower"),
    ("features.extract_ms.srg", "ms", "lower"),
    ("features.parse_us_per_row", "us", "lower"),
    ("index.range_ms", "ms", "lower"),
    ("index.candidate_ratio", "ratio", "lower"),
    ("core.score_ms", "ms", "lower"),
    ("core.scan.elements_per_candidate", "count", "lower"),
    ("core.cascade.survivor_ratio", "ratio", "lower"),
    ("core.dtw_ms", "ms", "lower"),
    ("core.dtw.abandoned_ratio", "ratio", "higher"),
    ("core.seal_ms", "ms", "lower"),
    ("core.add_video_ms", "ms", "lower"),
    ("core.remove_video_ms", "ms", "lower"),
    ("core.segments", "count", "lower"),
    ("core.compact_ms", "ms", "lower"),
    ("core.compact.rows_dropped", "count", "higher"),
    ("core.pool.busy_ratio", "ratio", "higher"),
    ("core.pool.steals_per_job", "ratio", "higher"),
    ("storage.open_ms", "ms", "lower"),
    ("storage.scan_ms", "ms", "lower"),
    ("storage.commit_ms", "ms", "lower"),
    ("storage.wal_bytes_per_input_byte", "ratio", "lower"),
    ("storage.page_writes_per_clip", "count", "lower"),
    ("storage.cache_hit_ratio", "ratio", "higher"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.uncovered_ratio", "ratio", "lower"),
    ("bench.self_ms_per_op.web", "ms", "lower"),
    ("bench.self_ms_per_op.imgproc", "ms", "lower"),
    ("bench.self_ms_per_op.video", "ms", "lower"),
    ("bench.self_ms_per_op.keyframe", "ms", "lower"),
    ("bench.self_ms_per_op.features", "ms", "lower"),
    ("bench.self_ms_per_op.index", "ms", "lower"),
    ("bench.self_ms_per_op.core", "ms", "lower"),
    ("bench.self_ms_per_op.storage", "ms", "lower"),
];

/// One per-layer value and where it was measured.
pub struct LayerValue {
    pub value: f64,
    pub source: Phase,
}

/// Compute every per-layer metric. A metric the path does not reach is
/// read from the sweep; the source is kept for the report.
fn layer_metrics(
    summary: &Summary,
    path: &PhaseObs,
    sweep: &PhaseObs,
    trace_overhead: f64,
) -> BTreeMap<&'static str, LayerValue> {
    let mut out = BTreeMap::new();
    let span_ms = |span: &str| summary.mean_ms(span);
    let from_path_or_sweep = |f: &dyn Fn(&PhaseObs) -> (f64, f64)| {
        let on_path = f(path).1 > 0.0;
        ratio(path, sweep, f).map(|v| (v, if on_path { Phase::Path } else { Phase::Sweep }))
    };
    let obs = |p: Phase| if p == Phase::Path { path } else { sweep };
    let pool_width = ExecPool::global().max_threads() as f64;
    for (name, _, _) in PER_LAYER {
        let v: Option<(f64, Phase)> = match name {
            "web.handle_ms" => span_ms("web.handle"),
            "web.transport_ms" => match (span_ms("op.http_twin"), span_ms("web.handle_twin")) {
                (Some((rtt, p)), Some((handle, q))) if p == q => Some((rtt - handle, p)),
                _ => None,
            },
            "web.rejected" => span_ms("op.http_query")
                .map(|(_, p)| (obs(p).counters.get("web.backpressure.rejected"), p)),
            "imgproc.decode_ms.bmp" => span_ms("imgproc.decode.bmp"),
            "imgproc.decode_ms.ppm" => span_ms("imgproc.decode.ppm"),
            "imgproc.decode_ms.vjp" => span_ms("imgproc.decode.vjp"),
            "imgproc.encode_ms" => span_ms("imgproc.encode"),
            "video.decode_ms" => span_ms("video.decode"),
            "video.encode_ms" => span_ms("video.encode"),
            "keyframe.select_ms" => span_ms("keyframe.select"),
            "keyframe.kept_ratio" => {
                from_path_or_sweep(&|o| (o.keyframes.kept as f64, o.keyframes.frames as f64))
            }
            "features.extract_ms" => span_ms("features.extract"),
            "features.parse_us_per_row" => {
                span_ms("features.parse").map(|(ms, p)| (ms * 1e3 / obs(p).live_rows.max(1.0), p))
            }
            "index.range_ms" => span_ms("index.range"),
            "index.candidate_ratio" => from_path_or_sweep(&|o| {
                (
                    o.counters.get("query.frame.candidates"),
                    o.counters.get("query.frame.requests") * o.live_rows,
                )
            }),
            "core.score_ms" => span_ms("core.score"),
            "core.scan.elements_per_candidate" => from_path_or_sweep(&|o| {
                (
                    o.counters.get("query.scan.elements"),
                    o.counters.get("query.frame.candidates"),
                )
            }),
            "core.cascade.survivor_ratio" => from_path_or_sweep(&|o| {
                (
                    o.counters.get("query.scan.survivors"),
                    o.counters.get("query.frame.candidates"),
                )
            }),
            "core.dtw_ms" => span_ms("core.dtw"),
            "core.dtw.abandoned_ratio" => from_path_or_sweep(&|o| {
                (
                    o.counters.get("query.abandon.dtw"),
                    o.counters.get("query.clip.requests") * o.live_videos,
                )
            }),
            "core.seal_ms" => span_ms("core.seal"),
            "core.add_video_ms" => span_ms("core.add_video"),
            "core.remove_video_ms" => span_ms("core.remove_video"),
            "core.segments" => from_path_or_sweep(&|o| (o.segments, f64::from(o.segments > 0.0))),
            "core.compact_ms" => span_ms("core.compact"),
            "core.compact.rows_dropped" => from_path_or_sweep(&|o| {
                (
                    o.counters.get("compaction.rows_dropped"),
                    o.counters.get("compaction.runs"),
                )
            }),
            "core.pool.busy_ratio" => from_path_or_sweep(&|o| {
                (
                    o.counters.get("pool.busy_nanos.sum"),
                    o.wall_ns * pool_width,
                )
            }),
            "core.pool.steals_per_job" => from_path_or_sweep(&|o| {
                (o.counters.get("pool.steals"), o.counters.get("pool.jobs"))
            }),
            "storage.open_ms" => span_ms("storage.open"),
            "storage.scan_ms" => span_ms("storage.scan"),
            "storage.commit_ms" => from_path_or_sweep(&|o| {
                (
                    o.counters.get("ingest.store_nanos.sum") / 1e6,
                    o.counters.get("ingest.store_nanos.count"),
                )
            }),
            "storage.wal_bytes_per_input_byte" => {
                from_path_or_sweep(&|o| (o.storage.wal_bytes as f64, o.input_bytes))
            }
            "storage.page_writes_per_clip" => {
                from_path_or_sweep(&|o| (o.storage.page_writes as f64, o.clips))
            }
            "storage.cache_hit_ratio" => from_path_or_sweep(&|o| {
                let s = &o.storage;
                (s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64)
            }),
            "bench.trace_overhead" => Some((trace_overhead, Phase::Path)),
            "bench.uncovered_ratio" => summary.uncovered_ratio().map(|v| (v, Phase::Path)),
            other => match other.strip_prefix("bench.self_ms_per_op.") {
                Some(layer) => summary.layer_self_ms_per_op(layer),
                None => other
                    .strip_prefix("features.extract_ms.")
                    .and_then(|kind| span_ms(extract_span(kind))),
            },
        };
        if let Some((value, source)) = v {
            out.insert(name, LayerValue { value, source });
        }
    }
    out
}

fn extract_span(kind: &str) -> &'static str {
    match kind {
        "sch" => "features.extract.sch",
        "glcm" => "features.extract.glcm",
        "gabor" => "features.extract.gabor",
        "tamura" => "features.extract.tamura",
        "acc" => "features.extract.acc",
        "naive" => "features.extract.naive",
        _ => "features.extract.srg",
    }
}

// ------------------------------------------------------------------ sweep

/// What the sweep checked: operations attempted and checks failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
}

impl Checked {
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// End a traced run: run the sweep, write the spans out, and compute
/// every per-layer metric. `path_loaded` says whether the workload's
/// path already made the run's one traced catalog load; if it did, the
/// sweep loads its database with `QueryEngine::from_database`.
pub fn finish_trace(
    t: &Tracer,
    args: &crate::Args,
    dir: &Path,
    path: &PhaseObs,
    trace_overhead: f64,
    path_loaded: bool,
) -> Result<(BTreeMap<&'static str, LayerValue>, Checked), String> {
    let (sweep, checked) = sweep(
        t,
        &dir.join("sweep"),
        &data::sweep_clips(args.seed),
        !path_loaded,
    )?;
    let spans = t.take();
    let file = std::path::PathBuf::from(".bench_out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = crate::trace::write_spans(&file, &spans) {
        eprintln!("cannot write {}: {e}", file.display());
    }
    let summary = Summary::of(&spans);
    Ok((
        layer_metrics(&summary, path, &sweep, trace_overhead),
        checked,
    ))
}

/// HTTP frame queries the sweep sends (three per upload format).
const SWEEP_QUERIES: usize = 9;

/// Fill in the layers a workload's path does not reach: ingest `clips`
/// into a fresh file database, load it back, serve it over HTTP and
/// query it in every upload format, run clip queries, and add, remove
/// and compact. Spans land in the sweep phase; the catalog load is
/// traced only if `trace_load`. Returns the sweep's observations and
/// what it checked: each ingest, query and removal is one operation.
fn sweep(
    t: &Tracer,
    dir: &Path,
    clips: &[(String, Vec<u8>)],
    trace_load: bool,
) -> Result<(PhaseObs, Checked), String> {
    t.set_phase(Phase::Sweep);
    let start = PhaseObs::begin();
    let mut checked = Checked::default();
    let mut tally = KeyframeTally::default();
    let mut input_bytes = 0u64;
    let db_dir = dir.join("sweep_db");
    let storage = {
        let mut db = CbvrDatabase::open_dir(&db_dir).map_err(|e| e.to_string())?;
        for (name, bytes) in clips {
            input_bytes += bytes.len() as u64;
            let added = ingest_traced(t, &mut db, name, bytes, &mut tally).0;
            checked.count(added.is_ok());
        }
        db.telemetry()
    };
    let (mut db, engine, rows) = if trace_load {
        load_traced(t, &db_dir)?
    } else {
        let mut db = CbvrDatabase::open_dir(&db_dir).map_err(|e| e.to_string())?;
        let engine = QueryEngine::from_database(&mut db).map_err(|e| e.to_string())?;
        let rows = engine.len();
        (db, engine, rows)
    };
    if rows == 0 {
        return Err("the sweep ingested no key frames".into());
    }
    let live_videos = engine.video_ids().len();

    // Stored key frames in every upload format: BMP and PPM losslessly
    // (exact: rank 1 must be the frame itself), VJP lossy.
    let mut probes = Vec::new();
    for i in 0..SWEEP_QUERIES {
        let fmt = Fmt::ALL[i % Fmt::ALL.len()];
        let entry = engine.entry(i % rows);
        let row = db.get_key_frame(entry.i_id).map_err(|e| e.to_string())?;
        let bytes = db.read_image_bytes(&row).map_err(|e| e.to_string())?;
        let frame = decode_auto(&bytes).map_err(|e| e.to_string())?;
        let name = engine.video_name(entry.v_id).unwrap_or_default();
        let category = data::category_of(&name).ok_or("sweep video without category")?;
        let exact = (fmt != Fmt::Vjp).then_some(entry.i_id);
        probes.push(Probe::new(&engine, &frame, fmt, category, exact));
    }
    let state = AppState::new(db).map_err(|e| e.to_string())?;
    let server = Server::start(Arc::clone(&state), "127.0.0.1:0").map_err(|e| e.to_string())?;
    for probe in &probes {
        let q = http_query_traced(t, server.addr(), &state, &engine, probe);
        let ok = q.reply.as_ref().ok().and_then(|r| probe.check(r)).is_some() && q.consistent;
        checked.count(ok);
    }
    server.stop();

    for (_, bytes) in clips {
        let video = decode_vsc(bytes).map_err(|e| e.to_string())?;
        let ranked = clip_query_traced(t, &engine, &video, &mut tally);
        checked.count(ranked.len() == K.min(live_videos));
    }

    let root = t.root("op.churn");
    let first = engine.entry(0);
    let template: Vec<CatalogEntry> = (0..rows)
        .map(|i| engine.entry(i))
        .filter(|e| e.v_id == first.v_id)
        .collect();
    let new_v = 1_000_000;
    add_traced(
        t,
        &root,
        &engine,
        "sweep_added",
        data::relabel(&template, new_v, 1_000_000),
    );
    checked.count(remove_traced(t, &root, &engine, new_v) == template.len());
    compact_traced(t, &root, &engine);
    t.close(root);

    let mut obs = PhaseObs::end(start);
    obs.live_rows = rows as f64;
    obs.live_videos = live_videos as f64;
    obs.keyframes = tally;
    obs.storage = storage;
    obs.input_bytes = input_bytes as f64;
    obs.clips = clips.len() as f64;
    t.set_phase(Phase::Path);
    Ok((obs, checked))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_survive_the_probe_file() {
        let probes = vec![
            Probe {
                fmt: Fmt::Vjp,
                body: vec![1, 2, 3],
                category: cbvr_video::Category::News,
                exact: None,
                expect_len: 10,
            },
            Probe {
                fmt: Fmt::Ppm,
                body: Vec::new(),
                category: cbvr_video::Category::ELearning,
                exact: Some(u64::MAX - 7),
                expect_len: 3,
            },
        ];
        let raw = Probe::encode_all(&probes);
        let back = Probe::decode_all(&raw).expect("decodes");
        assert_eq!(back.len(), probes.len());
        for (a, b) in probes.iter().zip(&back) {
            assert_eq!(
                (a.fmt, &a.body, a.category, a.exact, a.expect_len),
                (b.fmt, &b.body, b.category, b.exact, b.expect_len)
            );
        }
        assert!(
            Probe::decode_all(&raw[..raw.len() - 1]).is_err(),
            "truncated"
        );
        assert!(Probe::decode_all(&[]).is_err(), "empty");
    }
}
