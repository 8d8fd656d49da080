//! Auto color correlogram (§4.7).
//!
//! "A color correlogram expresses how the spatial correlation of pairs of
//! colors changes with distance." The *auto*-correlogram keeps only
//! same-color pairs: entry `(c, d)` counts, over all pixels of quantised
//! color `c`, the neighbours at L∞ (chessboard) distance exactly `d` that
//! also have color `c`.
//!
//! Faithful to the pseudocode:
//!
//! - pixels are quantised in HSV space ([`quantize_hsv`], 64 cells:
//!   8 hue × 4 saturation × 2 value);
//! - distances run `1..=MAX_DISTANCE` (4, matching the Fig. 8 output
//!   `ACC 4 ...`);
//! - entries are the standard autocorrelogram *probability* (Huang et
//!   al.): `Pr(neighbour at distance d has color c | centre has color c)`,
//!   computed as same-color neighbours divided by *valid* (in-raster)
//!   neighbours, so borders introduce no bias and values live in `[0, 1]`.
//!
//! Normalisation note: the pseudocode tabulates a histogram "for
//! normalization" (step 6.III) but then normalises by the per-distance
//! maximum across colors (steps 11–13), which collapses any two-color
//! layout to the same correlogram regardless of structure. We use the
//! probability form that the "for normalization" histogram implies; the
//! deviation is recorded in DESIGN.md.
//!
//! Feature string: `ACC 4 v(0,1) v(0,2) ... v(63,4)` — color-major, the
//! order the pseudocode prints.

use crate::error::{FeatureError, Result};
use cbvr_imgproc::{rgb_to_hsv, RgbImage};

/// Number of quantised HSV colors.
pub const COLOR_BINS: usize = 64;
/// Maximum chessboard distance tabulated.
pub const MAX_DISTANCE: usize = 4;
/// Flattened correlogram size.
pub const DIM: usize = COLOR_BINS * MAX_DISTANCE;

/// Quantise an HSV triple (`h ∈ 0..=359`, `s, v ∈ 0..=255`) into one of 64
/// cells: 8 hue × 4 saturation × 2 value.
#[inline]
pub fn quantize_hsv(h: u16, s: u8, v: u8) -> u8 {
    let hq = ((h as u32 * 8) / 360).min(7) as u8;
    let sq = s >> 6; // 4 levels
    let vq = v >> 7; // 2 levels
    (hq << 3) | (sq << 1) | vq
}

/// The §4.7 auto color correlogram descriptor.
#[derive(Clone, Debug, PartialEq)]
pub struct AutoColorCorrelogram {
    /// `values[c * MAX_DISTANCE + (d-1)]` = normalised autocorrelation of
    /// color `c` at distance `d`.
    values: Vec<f64>,
}

impl AutoColorCorrelogram {
    /// Extract from a frame.
    pub fn extract(img: &RgbImage) -> AutoColorCorrelogram {
        let (w, h) = img.dimensions();
        let (wi, hi) = (w as i64, h as i64);

        // Quantise all pixels once.
        let mut quant = vec![0u8; (w * h) as usize];
        for (x, y, p) in img.enumerate_pixels() {
            let (hh, ss, vv) = rgb_to_hsv(p);
            quant[(y * w + x) as usize] = quantize_hsv(hh, ss, vv);
        }
        let mut same_counts = vec![0u64; DIM];
        let mut valid_counts = vec![0u64; DIM];
        let (w, h) = (w as usize, h as usize);
        // Pixels at least MAX_DISTANCE from every edge have every ring
        // inside the raster; on each row they are the run
        // [MAX_DISTANCE, MAX_DISTANCE + span). They are counted a row at a
        // time, the rest one by one with bounds tests. Counts are
        // integers, so the split changes no value.
        let md = MAX_DISTANCE;
        let span = w.saturating_sub(2 * md);
        let mut rings = vec![0u8; MAX_DISTANCE * span];
        for y in 0..h {
            let inner_row = span > 0 && y >= md && y + md < h;
            if inner_row {
                interior_row(&quant, w, y, &mut rings, &mut same_counts, &mut valid_counts);
            }
            for x in 0..w {
                if inner_row && (md..md + span).contains(&x) {
                    continue;
                }
                let p = (x as i64, y as i64);
                border_pixel(&quant, (wi, hi), p, &mut same_counts, &mut valid_counts);
            }
        }
        // Conditional probability per (color, distance).
        let mut values = vec![0.0f64; DIM];
        for i in 0..DIM {
            if valid_counts[i] > 0 {
                values[i] = same_counts[i] as f64 / valid_counts[i] as f64;
            }
        }
        AutoColorCorrelogram { values }
    }

    /// Flattened correlogram, color-major.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Entry for `(color c, distance d)` with `d ∈ 1..=MAX_DISTANCE`.
    pub fn at(&self, c: usize, d: usize) -> f64 {
        assert!(c < COLOR_BINS && (1..=MAX_DISTANCE).contains(&d));
        self.values[c * MAX_DISTANCE + (d - 1)]
    }

    /// Native distance: L1 over the normalised correlogram, scaled to
    /// `[0, 1]` by the dimensionality.
    pub fn distance(&self, other: &AutoColorCorrelogram) -> f64 {
        crate::distance::l1(&self.values, &other.values) / DIM as f64
    }

    /// Feature string: `ACC 4 v0 v1 ...` (Fig. 8 format).
    pub fn to_feature_string(&self) -> String {
        let mut s = format!("ACC {MAX_DISTANCE}");
        for v in &self.values {
            s.push(' ');
            s.push_str(&format!("{v}"));
        }
        s
    }

    /// Parse the feature string back.
    pub fn parse(s: &str) -> Result<AutoColorCorrelogram> {
        let mut t = s.split_whitespace();
        if t.next() != Some("ACC") {
            return Err(FeatureError::Parse("expected 'ACC' header".into()));
        }
        let d: usize = t
            .next()
            .ok_or_else(|| FeatureError::Parse("missing max distance".into()))?
            .parse()
            .map_err(|e| FeatureError::Parse(format!("bad max distance: {e}")))?;
        if d != MAX_DISTANCE {
            return Err(FeatureError::Parse(format!(
                "expected max distance {MAX_DISTANCE}, got {d}"
            )));
        }
        let values: std::result::Result<Vec<f64>, _> = t.map(str::parse).collect();
        let values = values.map_err(|e| FeatureError::Parse(format!("bad value: {e}")))?;
        if values.len() != DIM {
            return Err(FeatureError::Parse(format!("expected {DIM} values, got {}", values.len())));
        }
        Ok(AutoColorCorrelogram { values })
    }
}

/// Count the chessboard rings of pixel `(x, y)` with a bounds test on
/// every neighbour (any pixel, but used near the edges).
fn border_pixel(
    quant: &[u8],
    (wi, hi): (i64, i64),
    (x, y): (i64, i64),
    same_counts: &mut [u64],
    valid_counts: &mut [u64],
) {
    let at = |x: i64, y: i64| quant[(y * wi + x) as usize];
    let color = at(x, y) as usize;
    for d in 1..=MAX_DISTANCE as i64 {
        let mut same = 0u64;
        let mut valid = 0u64;
        let mut visit = |nx: i64, ny: i64| {
            if nx >= 0 && ny >= 0 && nx < wi && ny < hi {
                valid += 1;
                if at(nx, ny) as usize == color {
                    same += 1;
                }
            }
        };
        // Chessboard ring at distance exactly d: top and bottom rows plus
        // left and right columns.
        for dx in -d..=d {
            visit(x + dx, y - d);
            visit(x + dx, y + d);
        }
        for dy in (-d + 1)..d {
            visit(x - d, y + dy);
            visit(x + d, y + dy);
        }
        let slot = color * MAX_DISTANCE + (d as usize - 1);
        same_counts[slot] += same;
        valid_counts[slot] += valid;
    }
}

/// Count the rings of the interior run of row `y` (see
/// [`AutoColorCorrelogram::extract`]). For each neighbour offset, the run
/// is compared with the run shifted by that offset, and each match adds
/// one to that pixel's count for the offset's ring; these byte-wide
/// compares vectorise. `rings` is scratch of `MAX_DISTANCE × span` counts
/// (a ring holds at most `8 · MAX_DISTANCE` = 32 cells, so a byte holds
/// its count). Every interior ring has all `8d` neighbours valid.
fn interior_row(
    quant: &[u8],
    w: usize,
    y: usize,
    rings: &mut [u8],
    same_counts: &mut [u64],
    valid_counts: &mut [u64],
) {
    let md = MAX_DISTANCE;
    let span = rings.len() / MAX_DISTANCE;
    let center = &quant[y * w + md..][..span];
    rings.fill(0);
    for ny in y - md..=y + md {
        for nx0 in 0..=2 * md {
            if ny == y && nx0 == md {
                continue;
            }
            let d = (ny.abs_diff(y)).max(nx0.abs_diff(md));
            let other = &quant[ny * w + nx0..][..span];
            let ring = &mut rings[(d - 1) * span..][..span];
            for ((r, &c), &o) in ring.iter_mut().zip(center).zip(other) {
                *r += (c == o) as u8;
            }
        }
    }
    for (i, &color) in center.iter().enumerate() {
        let base = color as usize * MAX_DISTANCE;
        for d in 0..MAX_DISTANCE {
            same_counts[base + d] += rings[d * span + i] as u64;
            valid_counts[base + d] += 8 * (d as u64 + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_imgproc::Rgb;

    #[test]
    fn quantisation_has_64_cells() {
        assert!(quantize_hsv(0, 0, 0) < 64);
        assert!(quantize_hsv(359, 255, 255) < 64);
        // Distinct hues land in distinct cells at full saturation.
        let a = quantize_hsv(0, 255, 255);
        let b = quantize_hsv(180, 255, 255);
        assert_ne!(a, b);
    }

    #[test]
    fn flat_image_is_perfectly_autocorrelated() {
        let img = RgbImage::filled(16, 16, Rgb::new(200, 30, 30)).unwrap();
        let acc = AutoColorCorrelogram::extract(&img);
        let (h, s, v) = rgb_to_hsv(Rgb::new(200, 30, 30));
        let c = quantize_hsv(h, s, v) as usize;
        for d in 1..=MAX_DISTANCE {
            assert_eq!(acc.at(c, d), 1.0, "distance {d}");
        }
        // Every other color has zero correlation.
        for other in 0..COLOR_BINS {
            if other != c {
                for d in 1..=MAX_DISTANCE {
                    assert_eq!(acc.at(other, d), 0.0);
                }
            }
        }
    }

    #[test]
    fn values_are_normalised_to_unit_interval() {
        let img = RgbImage::from_fn(24, 24, |x, y| {
            Rgb::new((x * 11) as u8, (y * 7) as u8, ((x + y) * 5) as u8)
        })
        .unwrap();
        let acc = AutoColorCorrelogram::extract(&img);
        for &v in acc.values() {
            assert!((0.0..=1.0).contains(&v));
        }
        // The image has structure, so some color is self-correlated.
        assert!(acc.values().iter().any(|&v| v > 0.0));
    }

    #[test]
    fn correlogram_separates_layouts_with_same_histogram() {
        // Same 50/50 color mass, different spatial structure: big blocks
        // stay self-correlated at all distances, thin stripes do not.
        let blocks = RgbImage::from_fn(32, 32, |x, _| {
            if x < 16 { Rgb::new(255, 0, 0) } else { Rgb::new(0, 0, 255) }
        })
        .unwrap();
        let stripes = RgbImage::from_fn(32, 32, |x, _| {
            if x % 2 == 0 { Rgb::new(255, 0, 0) } else { Rgb::new(0, 0, 255) }
        })
        .unwrap();
        let ab = AutoColorCorrelogram::extract(&blocks);
        let st = AutoColorCorrelogram::extract(&stripes);
        assert!(ab.distance(&st) > 0.001, "distance {}", ab.distance(&st));
    }

    #[test]
    fn distance_properties() {
        let a = AutoColorCorrelogram::extract(&RgbImage::filled(8, 8, Rgb::new(10, 200, 10)).unwrap());
        let b = AutoColorCorrelogram::extract(&RgbImage::filled(8, 8, Rgb::new(200, 10, 10)).unwrap());
        assert_eq!(a.distance(&a), 0.0);
        assert!(a.distance(&b) > 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
        assert!(a.distance(&b) <= 1.0);
    }

    #[test]
    fn feature_string_round_trip() {
        let img = RgbImage::from_fn(12, 12, |x, y| Rgb::new((x * 20) as u8, (y * 20) as u8, 128)).unwrap();
        let acc = AutoColorCorrelogram::extract(&img);
        let s = acc.to_feature_string();
        assert!(s.starts_with("ACC 4 "));
        let back = AutoColorCorrelogram::parse(&s).unwrap();
        for (x, y) in acc.values().iter().zip(back.values()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(AutoColorCorrelogram::parse("CCA 4 0.5").is_err());
        assert!(AutoColorCorrelogram::parse("ACC 3 0.5").is_err());
        assert!(AutoColorCorrelogram::parse("ACC 4 0.5 0.5").is_err()); // too few
    }

    /// The row-at-a-time interior count equals bounds-testing every
    /// neighbour of every pixel, including rasters whose interior run is
    /// empty or one pixel wide.
    #[test]
    fn interior_rows_match_bounds_tested_counts() {
        for (w, h) in [(8u32, 8u32), (9, 9), (9, 20), (20, 9), (33, 17)] {
            let img = RgbImage::from_fn(w, h, |x, y| {
                let v = ((x * 7 + y * 13) ^ (x * y)) as u8;
                Rgb::new(v & 0xc0, (v << 2) & 0xc0, 255 - (v & 0x80))
            })
            .unwrap();
            let quant: Vec<u8> = img
                .enumerate_pixels()
                .map(|(_, _, p)| {
                    let (hh, ss, vv) = rgb_to_hsv(p);
                    quantize_hsv(hh, ss, vv)
                })
                .collect();
            let mut same = vec![0u64; DIM];
            let mut valid = vec![0u64; DIM];
            for y in 0..h as i64 {
                for x in 0..w as i64 {
                    border_pixel(&quant, (w as i64, h as i64), (x, y), &mut same, &mut valid);
                }
            }
            let expected: Vec<f64> = same
                .iter()
                .zip(&valid)
                .map(|(&s, &v)| if v > 0 { s as f64 / v as f64 } else { 0.0 })
                .collect();
            assert_eq!(AutoColorCorrelogram::extract(&img).values(), &expected[..], "{w}x{h}");
        }
    }

    #[test]
    fn border_pixels_are_handled() {
        // 1×1 image: all rings fall outside; correlogram must be all zero
        // and extraction must not panic.
        let img = RgbImage::filled(1, 1, Rgb::new(9, 9, 9)).unwrap();
        let acc = AutoColorCorrelogram::extract(&img);
        assert!(acc.values().iter().all(|&v| v == 0.0));
    }
}
