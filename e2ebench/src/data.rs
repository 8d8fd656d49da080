//! Seeded inputs and the data preparation that precedes set-up.
//!
//! Everything here derives from the run's `--seed`: the same seed gives
//! the same clips, probes, catalogs and schedules. Preparation that
//! builds a database runs in a child process (`--prepare`), so its memory
//! peak never reaches the `peak_rss_mb` of the process that serves the
//! catalog, and its time never reaches `setup_s`.

use cbvr_core::engine::CatalogEntry;
use cbvr_core::ingest::extract_feature_sets_parallel;
use cbvr_core::{ingest_video, IngestConfig, THREADS_AUTO};
use cbvr_imgproc::{Histogram256, RgbImage};
use cbvr_index::paper_range;
use cbvr_keyframe::{extract_keyframes, KeyframeConfig};
use cbvr_storage::{CbvrDatabase, KeyFrameRecord, ManifestSegment, VideoRecord};
use cbvr_video::{encode_vsc, Category, FrameCodec, GeneratorConfig, Video, VideoGenerator};
use std::path::{Path, PathBuf};

/// Catalog clips per category in `frame_query` (5 categories).
pub const FRAME_CATALOG_PER_CATEGORY: u64 = 12;
/// Held-out clips per category whose key frames are the probes.
pub const HELD_OUT_PER_CATEGORY: u64 = 4;
/// Clips already in the library the `ingest` admin adds to.
pub const INGEST_LIBRARY_CLIPS: u64 = 10;
/// Really extracted key frames the `catalog_churn` catalog is tiled from.
pub const CHURN_BASE_KEYFRAMES: usize = 128;
/// Key-frame rows of the `catalog_churn` catalog.
pub const CHURN_ROWS: usize = 20_480;
/// Videos per commit while bulk-loading the churn catalog.
const BULK_VIDEOS_PER_BATCH: usize = 256;

/// splitmix64: derive independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Salts separating the clip families drawn from one seed.
pub const CATALOG: u64 = 1;
pub const HELD_OUT: u64 = 2;
pub const INGEST: u64 = 3;
pub const CHURN_BASE: u64 = 4;
pub const LIBRARY: u64 = 5;

/// The default clip generator (160×120, 4 shots of 8–16 frames).
pub fn generator() -> VideoGenerator {
    VideoGenerator::new(GeneratorConfig::default()).expect("default generator config is valid")
}

/// Clip `i` of category `c` in family `salt`.
pub fn clip(seed: u64, salt: u64, c: Category, i: u64) -> Video {
    let video_seed = mix(mix(seed, salt), (c as u64) << 32 | i);
    generator()
        .generate(c, video_seed)
        .expect("generator renders default clips")
}

/// The category a video name starts with (`news_3` → News).
pub fn category_of(name: &str) -> Option<Category> {
    Category::from_name(name.split('_').next()?)
}

/// `n` clips cycling over the categories, with their names.
pub fn clip_family(seed: u64, salt: u64, n: u64) -> Vec<(String, Video)> {
    (0..n)
        .map(|j| {
            let c = Category::ALL[(j % 5) as usize];
            let i = j / 5;
            (format!("{}_{i}", c.name()), clip(seed, salt, c, i))
        })
        .collect()
}

/// Held-out clips (never stored) with their categories.
pub fn held_out(seed: u64) -> Vec<(Category, Video)> {
    clip_family(seed, HELD_OUT, 5 * HELD_OUT_PER_CATEGORY)
        .into_iter()
        .map(|(name, v)| {
            (
                category_of(&name).expect("family names carry a category"),
                v,
            )
        })
        .collect()
}

/// Two held-out clips, as VSC bytes, for the all-layer sweep.
pub fn sweep_clips(seed: u64) -> Vec<(String, Vec<u8>)> {
    held_out(seed)
        .into_iter()
        .take(2)
        .enumerate()
        .map(|(i, (c, v))| (format!("{}_s{i}", c.name()), vsc(&v)))
        .collect()
}

/// Key frames of a clip, as the default key-frame config selects them.
pub fn key_frames(video: &Video) -> Vec<RgbImage> {
    extract_keyframes(video, &KeyframeConfig::default())
        .into_iter()
        .map(|k| k.frame)
        .collect()
}

/// VSC bytes of a clip, as the admin would upload it.
pub fn vsc(video: &Video) -> Vec<u8> {
    encode_vsc(video, FrameCodec::Delta)
}

/// A per-run scratch directory inside the checkout.
pub fn work_dir(workload: &str) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()))
}

/// Run this program's `--prepare` mode in a child process and wait.
pub fn prepare_in_child(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["--prepare", workload, "--seed", &seed.to_string(), "--dir"])
        .arg(dir)
        .status()
        .map_err(|e| format!("spawn preparation: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("preparation of {workload} failed: {status}"))
    }
}

/// The `--prepare` entry point (child process).
pub fn prepare(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    match workload {
        "frame_query" => crate::wl_frame::prepare(seed, dir),
        "ingest" => ingest_family(seed, LIBRARY, INGEST_LIBRARY_CLIPS, dir),
        "catalog_churn" => prepare_churn_catalog(seed, dir),
        other => Err(format!("nothing to prepare for {other}")),
    }
}

/// `n` default clips of family `salt` really ingested into a file
/// database: the `frame_query` catalog, or the library `ingest` adds to.
pub fn ingest_family(seed: u64, salt: u64, n: u64, dir: &Path) -> Result<(), String> {
    let mut db = CbvrDatabase::open_dir(dir).map_err(|e| e.to_string())?;
    for (name, video) in clip_family(seed, salt, n) {
        ingest_video(&mut db, &name, &video, &IngestConfig::default())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One base clip of the churn catalog: its key frames' catalog rows.
struct BaseGroup {
    category: Category,
    rows: Vec<KeyFrameRecord>,
}

/// `catalog_churn`: extract at least [`CHURN_BASE_KEYFRAMES`] real key
/// frames, then bulk-load [`CHURN_ROWS`] rows tiled from them through
/// `insert_key_frame`, one video and one manifest segment per tile, as
/// ingest leaves them. Tiled rows carry no image (catalog load never
/// reads it), which keeps the database near 90 MB.
fn prepare_churn_catalog(seed: u64, dir: &Path) -> Result<(), String> {
    let mut groups: Vec<BaseGroup> = Vec::new();
    let mut frames_total = 0;
    let mut j = 0u64;
    while frames_total < CHURN_BASE_KEYFRAMES {
        let c = Category::ALL[(j % 5) as usize];
        let video = clip(seed, CHURN_BASE, c, j / 5);
        j += 1;
        let kfs = key_frames(&video);
        let refs: Vec<&RgbImage> = kfs.iter().collect();
        let sets = extract_feature_sets_parallel(&refs, THREADS_AUTO);
        let rows = kfs
            .iter()
            .zip(&sets)
            .map(|(frame, set)| {
                let range = paper_range(&Histogram256::of_rgb_luma(frame));
                KeyFrameRecord {
                    i_name: String::new(),
                    image: Vec::new(),
                    min: range.min,
                    max: range.max,
                    sch: set.histogram.to_feature_string(),
                    glcm: set.glcm.to_feature_string(),
                    gabor: set.gabor.to_feature_string(),
                    tamura: set.tamura.to_feature_string(),
                    acc: set.correlogram.to_feature_string(),
                    naive: set.naive.to_feature_string(),
                    srg: set.regions.to_feature_string(),
                    majorregions: set.regions.major_regions,
                    v_id: 0,
                }
            })
            .collect::<Vec<_>>();
        frames_total += rows.len();
        groups.push(BaseGroup { category: c, rows });
    }

    let mut db = CbvrDatabase::open_dir(dir).map_err(|e| e.to_string())?;
    let mut rows = 0usize;
    let mut tile = 0usize;
    while rows < CHURN_ROWS {
        db.run_batch(|db| {
            for _ in 0..BULK_VIDEOS_PER_BATCH {
                if rows >= CHURN_ROWS {
                    break;
                }
                // A seeded walk over the base groups, so neighbouring
                // tiles differ and the order depends on the seed.
                let g = &groups[(mix(seed, tile as u64) % groups.len() as u64) as usize];
                let v_id = db.insert_video(&VideoRecord {
                    v_name: format!("{}_t{tile}", g.category.name()),
                    video: Vec::new(),
                    stream: Vec::new(),
                    dostore: 0,
                })?;
                let mut ids = Vec::with_capacity(g.rows.len());
                for (k, row) in g.rows.iter().enumerate() {
                    let record = KeyFrameRecord {
                        i_name: format!("t{tile}_kf_{k}"),
                        v_id,
                        ..row.clone()
                    };
                    ids.push(db.insert_key_frame(&record)?);
                }
                db.append_manifest_segment(ManifestSegment {
                    min_i_id: ids[0],
                    max_i_id: ids[ids.len() - 1],
                    rows: ids.len() as u64,
                })?;
                rows += ids.len();
                tile += 1;
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Fresh catalog entries for the churn writer: the rows of `template`
/// relabelled as video `v_id` with ids starting at `first_i_id`.
pub fn relabel(template: &[CatalogEntry], v_id: u64, first_i_id: u64) -> Vec<CatalogEntry> {
    template
        .iter()
        .enumerate()
        .map(|(k, e)| CatalogEntry {
            i_id: first_i_id + k as u64,
            v_id,
            ..e.clone()
        })
        .collect()
}

/// Size of the files in a directory, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(8, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        let a = clip(3, HELD_OUT, Category::News, 0);
        let b = clip(3, HELD_OUT, Category::News, 0);
        let c = clip(4, HELD_OUT, Category::News, 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn names_carry_their_category() {
        assert_eq!(category_of("news_3"), Some(Category::News));
        assert_eq!(category_of("elearning_t12"), Some(Category::ELearning));
        assert_eq!(category_of("unknown"), None);
    }
}
