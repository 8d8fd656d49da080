//! Binary morphology: dilation and erosion.
//!
//! §4.8 preprocesses the segmentation input with *dilate, erode, erode,
//! dilate* (a closing followed by an opening) using the 5×5 structuring
//! element
//!
//! ```text
//! 0 0 0 0 0
//! 0 1 1 1 0
//! 0 1 1 1 0
//! 0 1 1 1 0
//! 0 0 0 0 0
//! ```
//!
//! which is effectively a 3×3 box. Images are treated as binary: any
//! non-zero intensity is foreground.

use crate::error::{ImgError, Result};
use crate::image::GrayImage;

/// A binary structuring element: a set of `(dx, dy)` offsets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructuringElement {
    offsets: Vec<(i32, i32)>,
}

impl StructuringElement {
    /// Build from a row-major 0/1 mask with odd side length.
    pub fn from_mask(side: usize, mask: &[u8]) -> Result<Self> {
        if side.is_multiple_of(2) || side * side != mask.len() {
            return Err(ImgError::Dimensions(format!(
                "structuring element must be an odd square; side {side}, len {}",
                mask.len()
            )));
        }
        let r = (side / 2) as i32;
        let offsets: Vec<(i32, i32)> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m != 0)
            .map(|(i, _)| ((i % side) as i32 - r, (i / side) as i32 - r))
            .collect();
        if offsets.is_empty() {
            return Err(ImgError::Dimensions("empty structuring element".into()));
        }
        Ok(StructuringElement { offsets })
    }

    /// The paper's §4.8 kernel: a 3×3 box embedded in a 5×5 mask.
    pub fn paper_5x5() -> StructuringElement {
        #[rustfmt::skip]
        let mask = [
            0, 0, 0, 0, 0,
            0, 1, 1, 1, 0,
            0, 1, 1, 1, 0,
            0, 1, 1, 1, 0,
            0, 0, 0, 0, 0u8,
        ];
        StructuringElement::from_mask(5, &mask).expect("static mask")
    }

    /// Full 3×3 box.
    pub fn box3() -> StructuringElement {
        StructuringElement::from_mask(3, &[1u8; 9]).expect("static mask")
    }

    fn hits(&self) -> &[(i32, i32)] {
        &self.offsets
    }
}

fn is_fg(img: &GrayImage, x: i64, y: i64) -> bool {
    // Outside the raster counts as background.
    if x < 0 || y < 0 || x >= img.width() as i64 || y >= img.height() as i64 {
        false
    } else {
        img.get(x as u32, y as u32).0 != 0
    }
}

/// Apply the element at every pixel: foreground when *all* (`all`) or
/// *any* (`!all`) of its hits are foreground.
///
/// Pixels whose whole element lies inside the raster read the buffer at
/// precomputed linear offsets with no bounds test; the rest go through
/// [`is_fg`]. The output is boolean, so both paths agree exactly.
fn apply(img: &GrayImage, se: &StructuringElement, all: bool) -> GrayImage {
    let (w, h) = (img.width() as usize, img.height() as usize);
    let reach = se.hits().iter().map(|&(dx, dy)| dx.unsigned_abs().max(dy.unsigned_abs())).max();
    let reach = reach.unwrap_or(0) as usize;
    let offsets: Vec<isize> =
        se.hits().iter().map(|&(dx, dy)| dy as isize * w as isize + dx as isize).collect();
    let src = img.as_raw();
    let mut out = vec![0u8; w * h];
    for y in 0..h {
        let inner_row = y >= reach && y + reach < h;
        for x in 0..w {
            let hit = if inner_row && x >= reach && x + reach < w {
                let i = (y * w + x) as isize;
                let fg = |o: &isize| src[(i + o) as usize] != 0;
                if all { offsets.iter().all(fg) } else { offsets.iter().any(fg) }
            } else {
                let (x, y) = (x as i64, y as i64);
                let fg = |&(dx, dy): &(i32, i32)| is_fg(img, x + dx as i64, y + dy as i64);
                if all { se.hits().iter().all(fg) } else { se.hits().iter().any(fg) }
            };
            out[y * w + x] = if hit { 255 } else { 0 };
        }
    }
    GrayImage::from_raw(w as u32, h as u32, out).expect("same nonzero dims")
}

/// Binary dilation: a pixel becomes foreground when *any* neighbour under
/// the element is foreground.
pub fn dilate(img: &GrayImage, se: &StructuringElement) -> GrayImage {
    apply(img, se, false)
}

/// Binary erosion: a pixel stays foreground only when *all* neighbours
/// under the element are foreground.
pub fn erode(img: &GrayImage, se: &StructuringElement) -> GrayImage {
    apply(img, se, true)
}

/// Closing: dilation followed by erosion (fills small holes).
pub fn close(img: &GrayImage, se: &StructuringElement) -> GrayImage {
    erode(&dilate(img, se), se)
}

/// Opening: erosion followed by dilation (removes small specks).
pub fn open(img: &GrayImage, se: &StructuringElement) -> GrayImage {
    dilate(&erode(img, se), se)
}

/// The exact §4.8 preprocessing chain: dilate, erode, erode, dilate
/// (closing then opening) with the paper's 5×5 element.
pub fn paper_morphology_chain(img: &GrayImage) -> GrayImage {
    let se = StructuringElement::paper_5x5();
    open(&close(img, &se), &se)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Gray;

    fn binary(w: u32, h: u32, fg: &[(u32, u32)]) -> GrayImage {
        let mut img = GrayImage::new(w, h).unwrap();
        for &(x, y) in fg {
            img.put(x, y, Gray(255));
        }
        img
    }

    fn fg_count(img: &GrayImage) -> usize {
        img.pixels().filter(|p| p.0 != 0).count()
    }

    #[test]
    fn paper_element_is_3x3_box() {
        assert_eq!(StructuringElement::paper_5x5(), StructuringElement::box3());
    }

    #[test]
    fn mask_validation() {
        assert!(StructuringElement::from_mask(2, &[1; 4]).is_err());
        assert!(StructuringElement::from_mask(3, &[1; 8]).is_err());
        assert!(StructuringElement::from_mask(3, &[0; 9]).is_err());
    }

    #[test]
    fn dilate_grows_single_pixel_to_box() {
        let img = binary(7, 7, &[(3, 3)]);
        let out = dilate(&img, &StructuringElement::box3());
        assert_eq!(fg_count(&out), 9);
        assert_eq!(out.get(2, 2), Gray(255));
        assert_eq!(out.get(4, 4), Gray(255));
        assert_eq!(out.get(1, 1), Gray(0));
    }

    #[test]
    fn erode_removes_single_pixel() {
        let img = binary(7, 7, &[(3, 3)]);
        let out = erode(&img, &StructuringElement::box3());
        assert_eq!(fg_count(&out), 0);
    }

    #[test]
    fn erode_then_dilate_preserves_large_blob_interior() {
        let mut fg = Vec::new();
        for y in 1..6 {
            for x in 1..6 {
                fg.push((x, y));
            }
        }
        let img = binary(7, 7, &fg);
        let opened = open(&img, &StructuringElement::box3());
        // A 5×5 blob survives opening with a 3×3 element.
        assert_eq!(fg_count(&opened), 25);
    }

    #[test]
    fn closing_fills_one_pixel_hole() {
        let mut fg = Vec::new();
        for y in 1..6 {
            for x in 1..6 {
                if (x, y) != (3, 3) {
                    fg.push((x, y));
                }
            }
        }
        let img = binary(7, 7, &fg);
        let closed = close(&img, &StructuringElement::box3());
        assert_eq!(closed.get(3, 3), Gray(255), "hole should be filled");
    }

    #[test]
    fn opening_removes_speck_keeps_blob() {
        let mut fg = vec![(0, 6)]; // isolated speck
        for y in 0..4 {
            for x in 0..4 {
                fg.push((x, y));
            }
        }
        let img = binary(8, 8, &fg);
        let out = paper_morphology_chain(&img);
        assert_eq!(out.get(0, 6), Gray(0), "speck removed");
        assert_eq!(out.get(1, 1), Gray(255), "blob interior kept");
    }

    #[test]
    fn outside_raster_is_background() {
        // Full-frame foreground: erosion must shave the border.
        let img = GrayImage::filled(5, 5, Gray(255)).unwrap();
        let out = erode(&img, &StructuringElement::box3());
        assert_eq!(out.get(0, 0), Gray(0));
        assert_eq!(out.get(2, 2), Gray(255));
    }

    /// The interior fast path agrees with a bounds-tested read of every
    /// hit, for symmetric and lopsided elements and rasters narrower than
    /// the element.
    #[test]
    fn interior_fast_path_matches_bounds_tested_reads() {
        let reference = |img: &GrayImage, se: &StructuringElement, all: bool| {
            let (w, h) = img.dimensions();
            GrayImage::from_fn(w, h, |x, y| {
                let (x, y) = (x as i64, y as i64);
                let fg = |&(dx, dy): &(i32, i32)| is_fg(img, x + dx as i64, y + dy as i64);
                let hit = if all { se.hits().iter().all(fg) } else { se.hits().iter().any(fg) };
                Gray(if hit { 255 } else { 0 })
            })
            .unwrap()
        };
        #[rustfmt::skip]
        let lopsided = StructuringElement::from_mask(5, &[
            0, 0, 0, 0, 1,
            0, 0, 0, 0, 0,
            0, 0, 1, 1, 0,
            0, 0, 0, 0, 0,
            1, 0, 0, 0, 0,
        ]).unwrap();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for (w, h) in [(1, 1), (2, 7), (3, 3), (4, 9), (17, 5), (40, 31)] {
            let img = GrayImage::from_fn(w, h, |_, _| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Gray(if state.is_multiple_of(3) { 0 } else { 200 })
            })
            .unwrap();
            for se in [StructuringElement::paper_5x5(), lopsided.clone()] {
                assert_eq!(dilate(&img, &se), reference(&img, &se, false), "dilate {w}x{h}");
                assert_eq!(erode(&img, &se), reference(&img, &se, true), "erode {w}x{h}");
            }
        }
    }
}
