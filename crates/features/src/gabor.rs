//! Gabor wavelet texture (§4.4).
//!
//! The paper computes, per scale `m` and orientation `n`, the mean and the
//! variance-derived spread of the complex Gabor response magnitudes over
//! the gray-level raster, producing `M × N × 2` values. Its Fig. 8 output
//! begins `gabor 60 ...` — sixty values — fixing `M = 5` scales and
//! `N = 6` orientations, which is what we use.
//!
//! Implementation notes (standard spatial-domain filter bank):
//!
//! - frequencies follow a geometric ladder `f_m = F_MAX / √2^m` with
//!   `F_MAX = 0.4` cycles/pixel (the Manjunath–Ma upper band);
//! - orientations are `θ_n = nπ/N`;
//! - each filter is an odd-sided complex kernel with Gaussian envelope
//!   `σ = 0.56 / f` (bandwidth ≈ 1 octave), radius `⌈2σ⌉` capped at 10;
//! - the image is first resized so its longer side is at most
//!   [`GABOR_MAX_SIDE`] (extraction cost is quadratic in side length and
//!   texture statistics are scale-normalised anyway);
//! - per filter we record `mean(|response|)` and `std(|response|)`,
//!   both divided by the pixel count exactly as the pseudocode divides by
//!   `imageSize`, keeping values comparable across image sizes.
//!
//! Feature string (`GABOR VARCHAR2(1500)` column): `gabor 60 v0 ... v59`.

use crate::error::{FeatureError, Result};
use cbvr_imgproc::geom::{self, Interpolation};
use cbvr_imgproc::{GrayImage, RgbImage};
use std::sync::OnceLock;

/// Number of scales (M).
pub const SCALES: usize = 5;
/// Number of orientations (N).
pub const ORIENTATIONS: usize = 6;
/// Feature dimensionality: mean + std per filter.
pub const DIM: usize = SCALES * ORIENTATIONS * 2;
/// Longest image side fed to the filter bank.
pub const GABOR_MAX_SIDE: u32 = 64;

const F_MAX: f64 = 0.4;

/// One complex Gabor kernel (separately stored real/imaginary taps).
struct GaborKernel {
    radius: i64,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl GaborKernel {
    fn new(frequency: f64, theta: f64) -> GaborKernel {
        let sigma = 0.56 / frequency;
        let radius = (2.0 * sigma).ceil().min(PAD as f64) as i64;
        let side = (2 * radius + 1) as usize;
        let mut re = Vec::with_capacity(side * side);
        let mut im = Vec::with_capacity(side * side);
        let (sin_t, cos_t) = theta.sin_cos();
        let two_sigma2 = 2.0 * sigma * sigma;
        let omega = 2.0 * std::f64::consts::PI * frequency;
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                let xr = dx as f64 * cos_t + dy as f64 * sin_t;
                let yr = -(dx as f64) * sin_t + dy as f64 * cos_t;
                let envelope = (-(xr * xr + yr * yr) / two_sigma2).exp();
                let phase = omega * xr;
                re.push(envelope * phase.cos());
                im.push(envelope * phase.sin());
            }
        }
        // Zero the DC component of the real part so flat regions respond 0
        // (standard practice; otherwise brightness leaks into texture).
        let mean = re.iter().sum::<f64>() / re.len() as f64;
        for v in &mut re {
            *v -= mean;
        }
        GaborKernel { radius, re, im }
    }

    /// Mean and std of the response magnitude over the clamp-padded
    /// raster (see [`Padded`]); `magnitudes` is reusable scratch.
    ///
    /// Each output pixel gets `Σ re[k]·v` and `Σ im[k]·v` over the taps `k`
    /// in row-major `(dy, dx)` order, the same adds in the same order as a
    /// per-pixel loop, so the result is bit-identical to it. The loops are
    /// turned inside out for speed: a block of [`LANES`] neighbouring
    /// pixels keeps its accumulators in registers while the taps stream
    /// past, and the block's lanes vectorise (a lane is one pixel; no sum
    /// is split across lanes).
    fn response_stats(&self, img: &Padded, magnitudes: &mut Vec<f64>) -> (f64, f64) {
        let (w, h) = (img.w, img.h);
        let n = w * h;
        let r = self.radius as usize;
        let side = 2 * r + 1;
        magnitudes.clear();
        for y in 0..h {
            for x0 in (0..w).step_by(LANES) {
                let mut acc_re = [0.0f64; LANES];
                let mut acc_im = [0.0f64; LANES];
                let kernel_rows = self.re.chunks_exact(side).zip(self.im.chunks_exact(side));
                for (ky, (kre, kim)) in kernel_rows.enumerate() {
                    // Padded row of source row `y + ky - r`, from column `x0 - r`.
                    let row = (y + ky + PAD - r) * img.stride + x0 + PAD - r;
                    let src = &img.data[row..row + side - 1 + LANES];
                    for (kx, (&cr, &ci)) in kre.iter().zip(kim).enumerate() {
                        let v = &src[kx..kx + LANES];
                        for j in 0..LANES {
                            acc_re[j] += cr * v[j];
                            acc_im[j] += ci * v[j];
                        }
                    }
                }
                let live = LANES.min(w - x0);
                for j in 0..live {
                    magnitudes.push((acc_re[j] * acc_re[j] + acc_im[j] * acc_im[j]).sqrt());
                }
            }
        }
        let mean = magnitudes.iter().sum::<f64>() / n as f64;
        let var = magnitudes.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / n as f64;
        (mean, var.sqrt())
    }
}

/// Pixels per register block in [`GaborKernel::response_stats`].
const LANES: usize = 8;
/// Border of the padded raster: the largest kernel radius.
const PAD: usize = 10;

/// The gray raster as f64, padded by [`PAD`] on every side with the
/// nearest edge pixel (exactly what a clamped read returns) and on the
/// right by up to `LANES - 1` more columns, so a register block that runs
/// past the last pixel still reads in bounds. Those extra lanes are never
/// stored.
struct Padded {
    w: usize,
    h: usize,
    stride: usize,
    data: Vec<f64>,
}

impl Padded {
    fn new(img: &GrayImage) -> Padded {
        let (w, h) = (img.width() as usize, img.height() as usize);
        let stride = w.next_multiple_of(LANES) + 2 * PAD;
        let mut data = Vec::with_capacity(stride * (h + 2 * PAD));
        for py in 0..h + 2 * PAD {
            let y = py as i64 - PAD as i64;
            data.extend((0..stride).map(|px| img.get_clamped(px as i64 - PAD as i64, y).0 as f64));
        }
        Padded { w, h, stride, data }
    }
}

/// The 30-kernel bank, scale-major then orientation, built once per
/// process (≈ 99 KB of taps).
fn bank() -> &'static [GaborKernel] {
    static BANK: OnceLock<Vec<GaborKernel>> = OnceLock::new();
    BANK.get_or_init(|| {
        let mut bank = Vec::with_capacity(SCALES * ORIENTATIONS);
        for m in 0..SCALES {
            let frequency = F_MAX / 2f64.sqrt().powi(m as i32);
            for n in 0..ORIENTATIONS {
                let theta = n as f64 * std::f64::consts::PI / ORIENTATIONS as f64;
                bank.push(GaborKernel::new(frequency, theta));
            }
        }
        bank
    })
}

/// The §4.4 Gabor texture descriptor: 60 values.
#[derive(Clone, Debug, PartialEq)]
pub struct GaborTexture {
    features: Vec<f64>,
}

impl GaborTexture {
    /// Extract from an RGB frame (converted to gray, downscaled to at most
    /// [`GABOR_MAX_SIDE`] per side).
    pub fn extract(img: &RgbImage) -> GaborTexture {
        let gray = img.to_gray();
        let (w, h) = gray.dimensions();
        let long = w.max(h);
        let gray = if long > GABOR_MAX_SIDE {
            let scale = GABOR_MAX_SIDE as f64 / long as f64;
            let nw = ((w as f64 * scale).round() as u32).max(1);
            let nh = ((h as f64 * scale).round() as u32).max(1);
            geom::resize(&gray, nw, nh, Interpolation::Nearest).expect("nonzero target")
        } else {
            gray
        };
        Self::extract_gray(&gray)
    }

    /// Extract from an already-prepared gray image (no rescaling).
    pub fn extract_gray(gray: &GrayImage) -> GaborTexture {
        let padded = Padded::new(gray);
        let mut magnitudes = Vec::with_capacity(padded.w * padded.h);
        let mut features = Vec::with_capacity(DIM);
        for kernel in bank() {
            let (mean, std) = kernel.response_stats(&padded, &mut magnitudes);
            // The pseudocode divides both stats by imageSize; the stats
            // above are already per-pixel means, so they are directly
            // size-comparable. Scale to keep magnitudes tame.
            features.push(mean / 255.0);
            features.push(std / 255.0);
        }
        GaborTexture { features }
    }

    /// The 60 feature values, ordered `(scale, orientation, mean|std)`.
    pub fn features(&self) -> &[f64] {
        &self.features
    }

    /// Mean response for `(scale m, orientation n)`.
    pub fn mean_at(&self, m: usize, n: usize) -> f64 {
        self.features[(m * ORIENTATIONS + n) * 2]
    }

    /// Response spread for `(scale m, orientation n)`.
    pub fn std_at(&self, m: usize, n: usize) -> f64 {
        self.features[(m * ORIENTATIONS + n) * 2 + 1]
    }

    /// Native distance: Euclidean over the 60-vector.
    pub fn distance(&self, other: &GaborTexture) -> f64 {
        crate::distance::l2(&self.features, &other.features)
    }

    /// Feature string: `gabor 60 v0 ... v59` (Fig. 8 format).
    pub fn to_feature_string(&self) -> String {
        let mut s = format!("gabor {DIM}");
        for v in &self.features {
            s.push(' ');
            s.push_str(&format!("{v}"));
        }
        s
    }

    /// Parse the feature string back.
    pub fn parse(s: &str) -> Result<GaborTexture> {
        let mut t = s.split_whitespace();
        if t.next() != Some("gabor") {
            return Err(FeatureError::Parse("expected 'gabor' header".into()));
        }
        let dim: usize = t
            .next()
            .ok_or_else(|| FeatureError::Parse("missing dimension".into()))?
            .parse()
            .map_err(|e| FeatureError::Parse(format!("bad dimension: {e}")))?;
        if dim != DIM {
            return Err(FeatureError::Parse(format!("expected dim {DIM}, got {dim}")));
        }
        let features: std::result::Result<Vec<f64>, _> = t.map(str::parse).collect();
        let features = features.map_err(|e| FeatureError::Parse(format!("bad value: {e}")))?;
        if features.len() != DIM {
            return Err(FeatureError::Parse(format!(
                "expected {DIM} values, got {}",
                features.len()
            )));
        }
        Ok(GaborTexture { features })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_imgproc::{Gray, Rgb};

    fn stripes(period: u32, vertical: bool) -> RgbImage {
        RgbImage::from_fn(32, 32, |x, y| {
            let c = if vertical { x } else { y };
            if (c / period).is_multiple_of(2) {
                Rgb::new(0, 0, 0)
            } else {
                Rgb::new(255, 255, 255)
            }
        })
        .unwrap()
    }

    #[test]
    fn dimensionality_is_sixty() {
        let g = GaborTexture::extract(&stripes(4, true));
        assert_eq!(g.features().len(), DIM);
        assert_eq!(DIM, 60);
    }

    #[test]
    fn flat_image_has_near_zero_response() {
        let g = GaborTexture::extract(&RgbImage::filled(32, 32, Rgb::new(128, 128, 128)).unwrap());
        // DC-free kernels: flat image responds ~0 in every band.
        for &v in g.features() {
            assert!(v.abs() < 1e-6, "flat response {v}");
        }
    }

    #[test]
    fn orientation_selectivity() {
        // Vertical stripes vary along x → strongest response at θ = 0.
        let v = GaborTexture::extract(&stripes(4, true));
        let h = GaborTexture::extract(&stripes(4, false));
        // Sum mean responses at θ=0 (n=0) vs θ=π/2 (n=3) across scales.
        let sum_at = |g: &GaborTexture, n: usize| (0..SCALES).map(|m| g.mean_at(m, n)).sum::<f64>();
        assert!(
            sum_at(&v, 0) > sum_at(&v, 3),
            "vertical stripes: θ=0 {} should beat θ=π/2 {}",
            sum_at(&v, 0),
            sum_at(&v, 3)
        );
        assert!(
            sum_at(&h, 3) > sum_at(&h, 0),
            "horizontal stripes: θ=π/2 {} should beat θ=0 {}",
            sum_at(&h, 3),
            sum_at(&h, 0)
        );
    }

    #[test]
    fn scale_selectivity() {
        // Fine stripes excite high-frequency (low m) bands more than
        // coarse stripes do.
        let fine = GaborTexture::extract(&stripes(2, true));
        let coarse = GaborTexture::extract(&stripes(8, true));
        assert!(
            fine.mean_at(0, 0) > coarse.mean_at(0, 0),
            "fine {} vs coarse {} at highest band",
            fine.mean_at(0, 0),
            coarse.mean_at(0, 0)
        );
    }

    #[test]
    fn distance_properties() {
        let a = GaborTexture::extract(&stripes(4, true));
        let b = GaborTexture::extract(&stripes(4, false));
        assert_eq!(a.distance(&a), 0.0);
        assert!(a.distance(&b) > 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn big_images_are_downscaled_consistently() {
        // A 200×200 version of the same pattern lands near the 64×64 one.
        let small = GaborTexture::extract(&stripes(4, true));
        let big = RgbImage::from_fn(200, 200, |x, _| {
            if (x * 32 / 200 / 4) % 2 == 0 { Rgb::new(0, 0, 0) } else { Rgb::new(255, 255, 255) }
        })
        .unwrap();
        let gb = GaborTexture::extract(&big);
        assert!(small.distance(&gb) < small.features().iter().map(|v| v * v).sum::<f64>().sqrt());
    }

    #[test]
    fn feature_string_round_trip() {
        let g = GaborTexture::extract(&stripes(3, true));
        let s = g.to_feature_string();
        assert!(s.starts_with("gabor 60 "));
        let back = GaborTexture::parse(&s).unwrap();
        for (a, b) in g.features().iter().zip(back.features()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(GaborTexture::parse("glcm 60 1 2").is_err());
        assert!(GaborTexture::parse("gabor 59 1").is_err());
        assert!(GaborTexture::parse("gabor 60 1 2 3").is_err());
        let bad = format!("gabor 60 {}", vec!["x"; 60].join(" "));
        assert!(GaborTexture::parse(&bad).is_err());
    }

    /// The register-blocked kernel equals a per-pixel loop over clamped
    /// reads bit for bit, on rasters narrower than a block, narrower than
    /// the largest kernel, and not a multiple of the block width.
    #[test]
    fn matches_the_per_pixel_clamped_loop() {
        let reference = |img: &GrayImage| -> Vec<f64> {
            let (w, h) = img.dimensions();
            let n = (w * h) as f64;
            let mut out = Vec::new();
            for kernel in bank() {
                let r = kernel.radius;
                let mut magnitudes = Vec::new();
                for y in 0..h as i64 {
                    for x in 0..w as i64 {
                        let (mut re, mut im) = (0.0, 0.0);
                        let mut k = 0;
                        for dy in -r..=r {
                            for dx in -r..=r {
                                let v = img.get_clamped(x + dx, y + dy).0 as f64;
                                re += kernel.re[k] * v;
                                im += kernel.im[k] * v;
                                k += 1;
                            }
                        }
                        magnitudes.push((re * re + im * im).sqrt());
                    }
                }
                let mean = magnitudes.iter().sum::<f64>() / n;
                let var = magnitudes.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / n;
                out.push(mean / 255.0);
                out.push(var.sqrt() / 255.0);
            }
            out
        };
        for (w, h) in [(1, 1), (3, 7), (13, 9), (24, 5)] {
            let gray = GrayImage::from_fn(w, h, |x, y| Gray(((x * 37) ^ (y * 91)) as u8)).unwrap();
            let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let fast = GaborTexture::extract_gray(&gray);
            assert_eq!(bits(fast.features()), bits(&reference(&gray)), "{w}x{h}");
        }
    }

    #[test]
    fn extract_gray_skips_rescale() {
        let gray = GrayImage::from_fn(16, 16, |x, _| Gray((x * 16) as u8)).unwrap();
        let g = GaborTexture::extract_gray(&gray);
        assert_eq!(g.features().len(), DIM);
    }
}
