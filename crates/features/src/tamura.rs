//! Tamura texture features.
//!
//! The paper's `TAMURA VARCHAR2(500)` column and Fig. 8 output
//! (`Tamura 18 <coarseness> <contrast> <16 directionality bins>`) follow
//! Tamura/Mori/Yamawaki's three strongest features:
//!
//! - **coarseness** — per pixel, find the window size `2^k` (k = 1..=5)
//!   whose non-overlapping mean difference is largest; coarseness is the
//!   mean of the winning sizes (large = coarse texture);
//! - **contrast** — `σ / κ^{1/4}` where `κ = μ₄/σ⁴` is the kurtosis of the
//!   gray distribution (Tamura's polarisation-corrected spread);
//! - **directionality** — a 16-bin histogram of gradient orientations over
//!   pixels whose Prewitt gradient magnitude exceeds a threshold.
//!
//! Magnitude note: Fig. 8 reports coarseness ≈ 14620 because the Java
//! implementation sums (not averages) the winning window sizes; we store
//! the per-pixel *mean* so values are image-size independent. DESIGN.md
//! records this normalisation difference — rankings are unaffected.

use crate::error::{FeatureError, Result};
use cbvr_imgproc::{GrayImage, RgbImage};

/// Directionality histogram bins.
pub const DIR_BINS: usize = 16;
/// Total serialized values: coarseness + contrast + 16 bins.
pub const DIM: usize = 2 + DIR_BINS;
/// Maximum window exponent for coarseness (windows up to 2^5 = 32 px).
const MAX_K: u32 = 5;
/// Prewitt gradient magnitude threshold for directionality voting.
const DIR_THRESHOLD: f64 = 12.0;

/// The Tamura descriptor.
#[derive(Clone, Debug, PartialEq)]
pub struct TamuraTexture {
    /// Mean winning window size, in `[2, 2^MAX_K]` (0 for degenerate images).
    pub coarseness: f64,
    /// Polarisation-corrected gray-level spread.
    pub contrast: f64,
    /// Raw directionality votes per orientation bin.
    pub directionality: Vec<f64>,
}

/// Summed-area table for O(1) window means.
struct Integral {
    w: usize,
    data: Vec<u64>,
}

impl Integral {
    fn new(img: &GrayImage) -> Integral {
        let (w, h) = (img.width() as usize, img.height() as usize);
        let px = img.as_raw();
        let mut data = vec![0u64; (w + 1) * (h + 1)];
        for y in 0..h {
            for x in 0..w {
                let v = px[y * w + x] as u64;
                data[(y + 1) * (w + 1) + (x + 1)] =
                    v + data[y * (w + 1) + (x + 1)] + data[(y + 1) * (w + 1) + x] - data[y * (w + 1) + x];
            }
        }
        Integral { w: w + 1, data }
    }

    /// Sum over the half-open rectangle `[x0, x1) × [y0, y1)`.
    fn sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> u64 {
        self.data[y1 * self.w + x1] + self.data[y0 * self.w + x0]
            - self.data[y0 * self.w + x1]
            - self.data[y1 * self.w + x0]
    }
}

impl TamuraTexture {
    /// Extract from an RGB frame.
    pub fn extract(img: &RgbImage) -> TamuraTexture {
        Self::extract_gray(&img.to_gray())
    }

    /// Extract from a gray image.
    pub fn extract_gray(gray: &GrayImage) -> TamuraTexture {
        TamuraTexture {
            coarseness: coarseness(gray),
            contrast: contrast(gray),
            directionality: directionality(gray),
        }
    }

    /// Normalised 18-vector for distance computation: coarseness mapped to
    /// `[0,1]` by its max window, contrast squashed, directionality as a
    /// probability mass function.
    pub fn normalized_vector(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(DIM);
        v.push(self.coarseness / (1u64 << MAX_K) as f64);
        v.push(self.contrast / (self.contrast + 50.0)); // soft squash to [0,1)
        let total: f64 = self.directionality.iter().sum();
        for &d in &self.directionality {
            v.push(if total > 0.0 { d / total } else { 0.0 });
        }
        v
    }

    /// Native distance: Euclidean on the normalised vector.
    pub fn distance(&self, other: &TamuraTexture) -> f64 {
        crate::distance::l2(&self.normalized_vector(), &other.normalized_vector())
    }

    /// Feature string: `Tamura 18 <coarseness> <contrast> <16 bins>`.
    pub fn to_feature_string(&self) -> String {
        let mut s = format!("Tamura {DIM} {} {}", self.coarseness, self.contrast);
        for d in &self.directionality {
            s.push(' ');
            s.push_str(&format!("{d}"));
        }
        s
    }

    /// Parse the feature string back.
    pub fn parse(s: &str) -> Result<TamuraTexture> {
        let mut t = s.split_whitespace();
        if t.next() != Some("Tamura") {
            return Err(FeatureError::Parse("expected 'Tamura' header".into()));
        }
        let dim: usize = t
            .next()
            .ok_or_else(|| FeatureError::Parse("missing dimension".into()))?
            .parse()
            .map_err(|e| FeatureError::Parse(format!("bad dimension: {e}")))?;
        if dim != DIM {
            return Err(FeatureError::Parse(format!("expected dim {DIM}, got {dim}")));
        }
        let values: std::result::Result<Vec<f64>, _> = t.map(str::parse).collect();
        let values = values.map_err(|e| FeatureError::Parse(format!("bad value: {e}")))?;
        if values.len() != DIM {
            return Err(FeatureError::Parse(format!("expected {DIM} values, got {}", values.len())));
        }
        Ok(TamuraTexture {
            coarseness: values[0],
            contrast: values[1],
            directionality: values[2..].to_vec(),
        })
    }
}

/// Per-pixel best window size, averaged (Tamura F_crs).
///
/// Each pixel reads four window means per window size; most of them are
/// shared with neighbouring pixels. [`MeanRows`] computes every distinct
/// `mean_at(x, y, half)` once, with the same expression, and the pixels
/// then compare the same values in the same order as a direct evaluation.
fn coarseness(gray: &GrayImage) -> f64 {
    let (w, h) = (gray.width() as usize, gray.height() as usize);
    if w < 4 || h < 4 {
        return 0.0;
    }
    let integral = Integral::new(gray);
    let mean_at = |x: i64, y: i64, half: i64| -> f64 {
        // Window of side 2*half centred near (x, y), clamped to the raster.
        let x0 = (x - half).clamp(0, w as i64) as usize;
        let y0 = (y - half).clamp(0, h as i64) as usize;
        let x1 = (x + half).clamp(0, w as i64) as usize;
        let y1 = (y + half).clamp(0, h as i64) as usize;
        let area = ((x1 - x0) * (y1 - y0)) as f64;
        if area == 0.0 {
            0.0
        } else {
            integral.sum(x0, y0, x1, y1) as f64 / area
        }
    };
    // Window side 2^k = 2·half for k = 1..=MAX_K.
    let mut tables: Vec<MeanRows> =
        (1..=MAX_K).map(|k| MeanRows::new(1 << (k - 1), w)).collect();
    for t in &mut tables {
        for y in -t.half..t.half {
            t.fill(y, mean_at);
        }
    }
    let mut sum_best = 0.0f64;
    let n = (w * h) as f64;
    for y in 0..h as i64 {
        for t in &mut tables {
            t.fill(y + t.half, mean_at);
        }
        // Per window size: the means on row y (horizontal neighbours) and
        // on rows y ∓ half (vertical neighbours).
        let rows: Vec<(&[f64], &[f64], &[f64])> =
            tables.iter().map(|t| (t.row(y), t.row(y - t.half), t.row(y + t.half))).collect();
        for x in 0..w {
            let mut best_e = -1.0f64;
            let mut best_size = 2.0f64;
            for (t, &(mid, up, down)) in tables.iter().zip(&rows) {
                let half = t.half as usize;
                // Horizontal and vertical mean differences between
                // neighbouring non-overlapping windows: row entry `i` holds
                // the mean centred at x = i - half.
                let eh = (mid[x + 2 * half] - mid[x]).abs();
                let ev = (down[x + half] - up[x + half]).abs();
                let e = eh.max(ev);
                if e > best_e {
                    best_e = e;
                    best_size = (2 * half) as f64;
                }
            }
            sum_best += best_size;
        }
    }
    sum_best / n
}

/// Window means `mean_at(x, y, half)` for one window size, a row `y` at a
/// time over `x ∈ [-half, w + half)`. It keeps the `2·half + 1` latest
/// rows, which is every row a pixel row reads.
struct MeanRows {
    half: i64,
    width: usize,
    data: Vec<f64>,
}

impl MeanRows {
    fn new(half: i64, w: usize) -> MeanRows {
        let width = w + 2 * half as usize;
        MeanRows { half, width, data: vec![0.0; width * (2 * half as usize + 1)] }
    }

    fn slot(&self, y: i64) -> usize {
        (y + self.half) as usize % (2 * self.half as usize + 1) * self.width
    }

    fn fill(&mut self, y: i64, mean_at: impl Fn(i64, i64, i64) -> f64) {
        let (half, slot) = (self.half, self.slot(y));
        for (i, m) in self.data[slot..slot + self.width].iter_mut().enumerate() {
            *m = mean_at(i as i64 - half, y, half);
        }
    }

    fn row(&self, y: i64) -> &[f64] {
        let slot = self.slot(y);
        &self.data[slot..slot + self.width]
    }
}

/// Tamura F_con: `σ / κ^{1/4}`.
fn contrast(gray: &GrayImage) -> f64 {
    let n = gray.pixel_count() as f64;
    let mean = gray.pixels().map(|p| p.0 as f64).sum::<f64>() / n;
    let mut m2 = 0.0;
    let mut m4 = 0.0;
    for p in gray.pixels() {
        let d = p.0 as f64 - mean;
        let d2 = d * d;
        m2 += d2;
        m4 += d2 * d2;
    }
    m2 /= n;
    m4 /= n;
    if m2 <= 0.0 {
        return 0.0;
    }
    let kurtosis = m4 / (m2 * m2);
    m2.sqrt() / kurtosis.powf(0.25)
}

/// Tamura F_dir: 16-bin orientation histogram of strong Prewitt gradients.
fn directionality(gray: &GrayImage) -> Vec<f64> {
    let (w, h) = gray.dimensions();
    let mut hist = vec![0.0f64; DIR_BINS];
    if w < 3 || h < 3 {
        return hist;
    }
    let px = gray.as_raw();
    let at = |x: u32, y: u32| px[(y * w + x) as usize] as f64;
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            // Prewitt operators.
            let dh = (at(x + 1, y - 1) + at(x + 1, y) + at(x + 1, y + 1))
                - (at(x - 1, y - 1) + at(x - 1, y) + at(x - 1, y + 1));
            let dv = (at(x - 1, y + 1) + at(x, y + 1) + at(x + 1, y + 1))
                - (at(x - 1, y - 1) + at(x, y - 1) + at(x + 1, y - 1));
            let magnitude = (dh.abs() + dv.abs()) / 2.0;
            if magnitude < DIR_THRESHOLD {
                continue;
            }
            // Orientation folded into [0, π).
            let mut theta = dv.atan2(dh) + std::f64::consts::FRAC_PI_2;
            if theta < 0.0 {
                theta += std::f64::consts::PI;
            }
            if theta >= std::f64::consts::PI {
                theta -= std::f64::consts::PI;
            }
            let bin = ((theta / std::f64::consts::PI) * DIR_BINS as f64) as usize;
            hist[bin.min(DIR_BINS - 1)] += 1.0;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_imgproc::{Gray, Rgb};

    fn gray(w: u32, h: u32, f: impl Fn(u32, u32) -> u8) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| Gray(f(x, y))).unwrap()
    }

    #[test]
    fn coarse_texture_scores_higher_than_fine() {
        // 16-px blocks vs 2-px blocks of the same two intensities.
        let coarse = gray(64, 64, |x, y| if ((x / 16) + (y / 16)) % 2 == 0 { 0 } else { 255 });
        let fine = gray(64, 64, |x, y| if ((x / 2) + (y / 2)) % 2 == 0 { 0 } else { 255 });
        let tc = TamuraTexture::extract_gray(&coarse);
        let tf = TamuraTexture::extract_gray(&fine);
        assert!(
            tc.coarseness > tf.coarseness,
            "coarse {} should beat fine {}",
            tc.coarseness,
            tf.coarseness
        );
    }

    /// The row-ring coarseness equals evaluating all four window means of
    /// every window size at every pixel.
    #[test]
    fn coarseness_matches_direct_evaluation() {
        let direct = |gray: &GrayImage| -> f64 {
            let (w, h) = (gray.width() as i64, gray.height() as i64);
            let integral = Integral::new(gray);
            let mean_at = |x: i64, y: i64, half: i64| -> f64 {
                let x0 = (x - half).clamp(0, w) as usize;
                let y0 = (y - half).clamp(0, h) as usize;
                let x1 = (x + half).clamp(0, w) as usize;
                let y1 = (y + half).clamp(0, h) as usize;
                let area = ((x1 - x0) * (y1 - y0)) as f64;
                if area == 0.0 { 0.0 } else { integral.sum(x0, y0, x1, y1) as f64 / area }
            };
            let mut sum_best = 0.0f64;
            for y in 0..h {
                for x in 0..w {
                    let (mut best_e, mut best_size) = (-1.0f64, 2.0f64);
                    for k in 1..=MAX_K {
                        let half = 1i64 << (k - 1);
                        let eh = (mean_at(x + half, y, half) - mean_at(x - half, y, half)).abs();
                        let ev = (mean_at(x, y + half, half) - mean_at(x, y - half, half)).abs();
                        if eh.max(ev) > best_e {
                            best_e = eh.max(ev);
                            best_size = (1u64 << k) as f64;
                        }
                    }
                    sum_best += best_size;
                }
            }
            sum_best / (w * h) as f64
        };
        for (w, h) in [(4, 4), (5, 70), (33, 17), (64, 48)] {
            let img = gray(w, h, |x, y| ((x * 29) ^ (y * 53) ^ (x * y)) as u8);
            assert_eq!(coarseness(&img).to_bits(), direct(&img).to_bits(), "{w}x{h}");
        }
    }

    #[test]
    fn contrast_orders_spread() {
        let low = gray(32, 32, |x, _| 120 + (x % 4) as u8);
        let high = gray(32, 32, |x, _| if x % 2 == 0 { 0 } else { 255 });
        let tl = TamuraTexture::extract_gray(&low);
        let th = TamuraTexture::extract_gray(&high);
        assert!(th.contrast > tl.contrast * 2.0, "high {} low {}", th.contrast, tl.contrast);
    }

    #[test]
    fn flat_image_has_zero_contrast_and_no_directions() {
        let t = TamuraTexture::extract_gray(&gray(32, 32, |_, _| 200));
        assert_eq!(t.contrast, 0.0);
        assert!(t.directionality.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn directionality_peaks_for_oriented_stripes() {
        // Vertical stripes → gradients along x → one dominant orientation.
        let v = TamuraTexture::extract_gray(&gray(64, 64, |x, _| if (x / 4) % 2 == 0 { 0 } else { 255 }));
        let total: f64 = v.directionality.iter().sum();
        let max = v.directionality.iter().cloned().fold(0.0, f64::max);
        assert!(total > 0.0);
        assert!(max / total > 0.6, "dominant bin should hold most votes: {:?}", v.directionality);

        // Horizontal stripes peak in a different bin.
        let himg = TamuraTexture::extract_gray(&gray(64, 64, |_, y| if (y / 4) % 2 == 0 { 0 } else { 255 }));
        let argmax = |d: &[f64]| {
            d.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0
        };
        assert_ne!(argmax(&v.directionality), argmax(&himg.directionality));
    }

    #[test]
    fn distance_properties() {
        let a = TamuraTexture::extract(&RgbImage::filled(32, 32, Rgb::new(100, 100, 100)).unwrap());
        let img = RgbImage::from_fn(32, 32, |x, _| {
            if x % 2 == 0 { Rgb::new(0, 0, 0) } else { Rgb::new(255, 255, 255) }
        })
        .unwrap();
        let b = TamuraTexture::extract(&img);
        assert_eq!(a.distance(&a), 0.0);
        assert!(a.distance(&b) > 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn feature_string_round_trip() {
        let img = RgbImage::from_fn(32, 32, |x, y| Rgb::new((x * 8) as u8, (y * 8) as u8, 0)).unwrap();
        let t = TamuraTexture::extract(&img);
        let s = t.to_feature_string();
        assert!(s.starts_with("Tamura 18 "));
        let back = TamuraTexture::parse(&s).unwrap();
        assert!((back.coarseness - t.coarseness).abs() < 1e-12);
        assert!((back.contrast - t.contrast).abs() < 1e-12);
        assert_eq!(back.directionality.len(), DIR_BINS);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(TamuraTexture::parse("tamura 18 1 2").is_err()); // case-sensitive header
        assert!(TamuraTexture::parse("Tamura 17 1").is_err());
        assert!(TamuraTexture::parse("Tamura 18 1 2 3").is_err()); // too few
    }

    #[test]
    fn tiny_images_do_not_panic() {
        let t = TamuraTexture::extract_gray(&gray(2, 2, |_, _| 9));
        assert_eq!(t.coarseness, 0.0);
        assert!(t.directionality.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn normalized_vector_is_bounded() {
        let img = RgbImage::from_fn(48, 48, |x, y| Rgb::new((x * y) as u8, x as u8, y as u8)).unwrap();
        let t = TamuraTexture::extract(&img);
        for v in t.normalized_vector() {
            assert!((0.0..=1.0).contains(&v), "component {v} out of range");
        }
    }
}
