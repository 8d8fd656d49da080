//! Bit-exactness pins for feature extraction, key-frame selection and VJP
//! decoding.
//!
//! Every digest below was generated from the straightforward reference
//! kernels (per-pixel loops, clamped reads, a 300×300 naive canvas, cosines
//! evaluated inside the IDCT). The optimised kernels must reproduce every
//! f64 of every descriptor bit for bit, so each value is hashed through
//! `f64::to_bits`. One digest is kept per (frame, extractor), so a failure
//! names both.
//!
//! On a mismatch the panic message prints the full table the current code
//! produces. Paste it here only when the change is *meant* to alter
//! outputs, and only under the tolerance contract in DESIGN.md
//! ("Feature extraction kernels").

use cbvr::features::correlogram::AutoColorCorrelogram;
use cbvr::features::gabor::GaborTexture;
use cbvr::features::glcm::GlcmTexture;
use cbvr::features::histogram::ColorHistogram;
use cbvr::features::naive::NaiveSignature;
use cbvr::features::region::RegionGrowing;
use cbvr::features::tamura::TamuraTexture;
use cbvr::imgproc::codec::vjp;
use cbvr::keyframe::extract_keyframes;
use cbvr::prelude::*;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64s(&mut self, values: &[f64]) {
        self.u64(values.len() as u64);
        for v in values {
            self.u64(v.to_bits());
        }
    }
}

fn digest(f: impl FnOnce(&mut Fnv)) -> u64 {
    let mut h = Fnv::new();
    f(&mut h);
    h.0
}

/// `(kind, digest)` for each of the seven extractors, in `FeatureSet` order.
fn extractor_digests(img: &RgbImage) -> [(&'static str, u64); 7] {
    [
        ("sch", digest(|h| {
            for &c in ColorHistogram::extract(img).counts() {
                h.u64(c as u64);
            }
        })),
        ("glcm", digest(|h| {
            let g = GlcmTexture::extract(img);
            h.u64(g.pixel_counter);
            h.f64s(&[g.asm, g.contrast, g.correlation, g.idm, g.entropy]);
        })),
        ("gabor", digest(|h| h.f64s(GaborTexture::extract(img).features()))),
        ("tamura", digest(|h| {
            let t = TamuraTexture::extract(img);
            h.f64s(&[t.coarseness, t.contrast]);
            h.f64s(&t.directionality);
        })),
        ("acc", digest(|h| h.f64s(AutoColorCorrelogram::extract(img).values()))),
        ("naive", digest(|h| {
            for c in NaiveSignature::extract(img).colors() {
                h.bytes(&[c.r, c.g, c.b]);
            }
        })),
        ("srg", digest(|h| {
            let r = RegionGrowing::extract(img);
            h.u64(r.regions as u64);
            h.u64(r.holes as u64);
            h.u64(r.major_regions as u64);
        })),
    ]
}

/// Seeded default-size (160×120) clips, one per category.
fn clips() -> Vec<(Category, Video)> {
    let generator = VideoGenerator::new(GeneratorConfig::default()).unwrap();
    Category::ALL.iter().map(|&c| (c, generator.generate(c, 17).unwrap())).collect()
}

/// xorshift64* byte stream, so edge-shape content needs no dependency.
fn noise(seed: u64) -> impl FnMut() -> u8 {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
    }
}

/// A `w × h` frame mixing flat blocks, a gradient, stripes and noise, so
/// every extractor sees both structure and texture at odd sizes.
fn edge_shape(w: u32, h: u32) -> RgbImage {
    let mut rnd = noise(u64::from(w) << 32 | u64::from(h));
    RgbImage::from_fn(w, h, |x, y| {
        let n = rnd();
        match ((x / 7) + (y / 5)) % 4 {
            0 => Rgb::new(200, 40, 40),
            1 => Rgb::new((x * 255 / w.max(1)) as u8, (y * 255 / h.max(1)) as u8, 90),
            2 => if (x / 2) % 2 == 0 { Rgb::new(20, 20, 220) } else { Rgb::new(240, 240, 240) },
            _ => Rgb::new(n, n.wrapping_mul(3), n ^ 0x5a),
        }
    })
    .unwrap()
}

const EDGE_SHAPES: [(u32, u32); 9] =
    [(1, 1), (2, 3), (5, 70), (21, 21), (64, 64), (65, 48), (200, 37), (300, 300), (301, 299)];

/// Every 8th frame of each clip plus every edge shape, labelled.
fn golden_frames() -> Vec<(String, RgbImage)> {
    let mut frames = Vec::new();
    for (category, clip) in clips() {
        for (i, frame) in clip.frames().iter().enumerate().step_by(8) {
            frames.push((format!("{}#{i}", category.name()), frame.clone()));
        }
    }
    for (w, h) in EDGE_SHAPES {
        frames.push((format!("edge{w}x{h}"), edge_shape(w, h)));
    }
    frames
}

/// Compare `(label, digest)` rows against the pinned table; on mismatch
/// name every differing row and print the table the code now produces.
fn check_table(what: &str, actual: &[(String, u64)], golden: &[(&str, u64)]) {
    let mut bad = Vec::new();
    for (label, got) in actual {
        match golden.iter().find(|(l, _)| l == label) {
            Some(&(_, want)) if want == *got => {}
            Some(&(_, want)) => bad.push(format!("{label}: got {got:#018x}, want {want:#018x}")),
            None => bad.push(format!("{label}: not pinned")),
        }
    }
    for (label, _) in golden {
        if !actual.iter().any(|(l, _)| l == label) {
            bad.push(format!("{label}: pinned but not produced"));
        }
    }
    if !bad.is_empty() {
        let table: String =
            actual.iter().map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n")).collect();
        panic!("{what} digests differ:\n  {}\ncurrent table:\n{table}", bad.join("\n  "));
    }
}

#[test]
fn every_extractor_is_bit_identical_on_clip_frames_and_edge_shapes() {
    let mut actual = Vec::new();
    for (label, frame) in golden_frames() {
        for (kind, d) in extractor_digests(&frame) {
            actual.push((format!("{label}/{kind}"), d));
        }
    }
    check_table("extractor", &actual, FEATURE_GOLDEN);
}

#[test]
fn keyframe_indices_are_pinned() {
    // The paper's 800 threshold and a tight one, so shot-internal motion
    // also starts runs.
    let mut actual: Vec<(String, Vec<usize>)> = Vec::new();
    for (c, clip) in clips() {
        for threshold in [800.0, 100.0] {
            let config = KeyframeConfig { threshold, ..KeyframeConfig::default() };
            let indices = extract_keyframes(&clip, &config).iter().map(|k| k.index).collect();
            actual.push((format!("{}@{threshold}", c.name()), indices));
        }
    }
    let golden: Vec<(String, Vec<usize>)> =
        KEYFRAME_GOLDEN.iter().map(|(c, i)| (c.to_string(), i.to_vec())).collect();
    assert_eq!(actual, golden, "key-frame indices moved");
}

#[test]
fn vjp_decode_is_byte_identical() {
    let clip_frame = clips().swap_remove(1).1.frames()[5].clone();
    let frames = [
        ("clip", clip_frame),
        ("edge65x48", edge_shape(65, 48)),
        ("edge1x1", edge_shape(1, 1)),
        ("edge301x299", edge_shape(301, 299)),
    ];
    let mut actual = Vec::new();
    for (label, frame) in &frames {
        for quality in [1u8, 25, 50, 75, 95, 100] {
            let decoded = vjp::decode(&vjp::encode(frame, quality)).unwrap();
            actual.push((format!("{label}@q{quality}"), digest(|h| h.bytes(decoded.as_raw()))));
        }
    }
    check_table("VJP decode", &actual, VJP_GOLDEN);
}

#[rustfmt::skip]
const FEATURE_GOLDEN: &[(&str, u64)] = &[
    ("elearning#0/sch", 0xfecd019991ba87a8),
    ("elearning#0/glcm", 0x3bf467a7edbf5bcd),
    ("elearning#0/gabor", 0x3738d17d18bbeff3),
    ("elearning#0/tamura", 0x6159f66a0bdf1190),
    ("elearning#0/acc", 0x329e4ab1ce0bf7ac),
    ("elearning#0/naive", 0x31c916d7e97f56bb),
    ("elearning#0/srg", 0x676e129db849bb47),
    ("elearning#8/sch", 0x975ff9febd29aba2),
    ("elearning#8/glcm", 0xea73b03cc27157a9),
    ("elearning#8/gabor", 0xd8101c35f709bef9),
    ("elearning#8/tamura", 0x271f7264259df598),
    ("elearning#8/acc", 0x1169c86323a0d231),
    ("elearning#8/naive", 0xf099c693e19071ad),
    ("elearning#8/srg", 0x676e129db849bb47),
    ("elearning#16/sch", 0x8cc6d5ed5418e364),
    ("elearning#16/glcm", 0xd8ccd5e38f922b09),
    ("elearning#16/gabor", 0x09570209b911a990),
    ("elearning#16/tamura", 0x17616b508f8a8610),
    ("elearning#16/acc", 0x0c8be8ba02e396c8),
    ("elearning#16/naive", 0x074667eae51846dd),
    ("elearning#16/srg", 0x676e129db849bb47),
    ("elearning#24/sch", 0x789ffe8d492384c0),
    ("elearning#24/glcm", 0x5ab1ba5ac544887d),
    ("elearning#24/gabor", 0x5d10f237c6acea81),
    ("elearning#24/tamura", 0x23fa10cc38befe9f),
    ("elearning#24/acc", 0x32b1afa427efa9ab),
    ("elearning#24/naive", 0x7826053f364af522),
    ("elearning#24/srg", 0x676e129db849bb47),
    ("elearning#32/sch", 0x933aa436f6d09c74),
    ("elearning#32/glcm", 0x3689863e6d99410b),
    ("elearning#32/gabor", 0x08fb58520cbb61ce),
    ("elearning#32/tamura", 0x394354acb7a298ce),
    ("elearning#32/acc", 0xe05c6f28ab8be8f0),
    ("elearning#32/naive", 0x5b1c97362ba30fb1),
    ("elearning#32/srg", 0x676e129db849bb47),
    ("elearning#40/sch", 0x1ed6fe04d860f268),
    ("elearning#40/glcm", 0x26c0ae1a465fe161),
    ("elearning#40/gabor", 0xbf8c7125cec7c122),
    ("elearning#40/tamura", 0x9e3cf8447802d893),
    ("elearning#40/acc", 0xe95fd2fa3f832374),
    ("elearning#40/naive", 0x7e7ecd456fb5af47),
    ("elearning#40/srg", 0x676e129db849bb47),
    ("elearning#48/sch", 0xbbc9c2872ccab392),
    ("elearning#48/glcm", 0xa0d1bb458f10e728),
    ("elearning#48/gabor", 0x5491998b246f2882),
    ("elearning#48/tamura", 0x5195a2732d1c4878),
    ("elearning#48/acc", 0x474beb08de71b9cb),
    ("elearning#48/naive", 0x05e1477a5f1104d9),
    ("elearning#48/srg", 0x422dee74521c4b44),
    ("sports#0/sch", 0x3d105ad5f3faa485),
    ("sports#0/glcm", 0x10a4924e733aff32),
    ("sports#0/gabor", 0x3a2816038d3283d0),
    ("sports#0/tamura", 0x07b84aa599500f51),
    ("sports#0/acc", 0xf45b84016cb93531),
    ("sports#0/naive", 0x9f6c28ac68c5f8d4),
    ("sports#0/srg", 0x9f1e438f72ea29a7),
    ("sports#8/sch", 0xf64c1483ed8058b5),
    ("sports#8/glcm", 0x34bb42f12bde5f56),
    ("sports#8/gabor", 0xf3038c3523132d38),
    ("sports#8/tamura", 0xa43b628faef1cb6e),
    ("sports#8/acc", 0x50394c9979b3f0a4),
    ("sports#8/naive", 0x45cb051471efe5e8),
    ("sports#8/srg", 0x9f1e438f72ea29a7),
    ("sports#16/sch", 0x3f960b75e1360c49),
    ("sports#16/glcm", 0x6a672cf183723a18),
    ("sports#16/gabor", 0xa1aafeb4b553bd21),
    ("sports#16/tamura", 0xe7c3115005f8d7e1),
    ("sports#16/acc", 0x945a490dbb31b28f),
    ("sports#16/naive", 0xa1d4795de53a651e),
    ("sports#16/srg", 0x9f1e438f72ea29a7),
    ("sports#24/sch", 0xf012859c2710e9ad),
    ("sports#24/glcm", 0x7d7d85152d0a68e6),
    ("sports#24/gabor", 0xd36013a2f535a06b),
    ("sports#24/tamura", 0xb0ed53b2d643bfa6),
    ("sports#24/acc", 0x69e17ee9de1bb605),
    ("sports#24/naive", 0x92843c1dafe2104a),
    ("sports#24/srg", 0x9f1e438f72ea29a7),
    ("sports#32/sch", 0xd93288fac2b1caab),
    ("sports#32/glcm", 0x5bbab98628e469b2),
    ("sports#32/gabor", 0x10316b88f52f7a70),
    ("sports#32/tamura", 0x486cc7fe67223838),
    ("sports#32/acc", 0x2beb0d820db7ed58),
    ("sports#32/naive", 0x6b556924cc22ba1e),
    ("sports#32/srg", 0x9f1e438f72ea29a7),
    ("sports#40/sch", 0xa604b73de74ea5ef),
    ("sports#40/glcm", 0xdc03f030e15c9550),
    ("sports#40/gabor", 0x2a79754018d94524),
    ("sports#40/tamura", 0x189b9463b6150d48),
    ("sports#40/acc", 0x6f000faaf1bd0a2e),
    ("sports#40/naive", 0x6b032cdaa9b9f0f1),
    ("sports#40/srg", 0x9f1e438f72ea29a7),
    ("cartoon#0/sch", 0xa6aba29f0c168c52),
    ("cartoon#0/glcm", 0xca7d40933e25b5c2),
    ("cartoon#0/gabor", 0x6d789d1bd13d779a),
    ("cartoon#0/tamura", 0xb7e4541facdbc75b),
    ("cartoon#0/acc", 0xd38332edb78e35f9),
    ("cartoon#0/naive", 0xcfe6c0db9dbe92e0),
    ("cartoon#0/srg", 0x422dee74521c4b44),
    ("cartoon#8/sch", 0xa6aba29f0c168c52),
    ("cartoon#8/glcm", 0xca7d40933e25b5c2),
    ("cartoon#8/gabor", 0x6972106bf0b404eb),
    ("cartoon#8/tamura", 0x38e9d68628c277cb),
    ("cartoon#8/acc", 0xdc2b1ef24b5ed750),
    ("cartoon#8/naive", 0xe4cf030c3ab41b42),
    ("cartoon#8/srg", 0x422dee74521c4b44),
    ("cartoon#16/sch", 0x22747cbd3d82613c),
    ("cartoon#16/glcm", 0x3e221a9c39d388f9),
    ("cartoon#16/gabor", 0x06f5bbaf43f22584),
    ("cartoon#16/tamura", 0x75eee5f7742e9ba6),
    ("cartoon#16/acc", 0xccb554977d36c018),
    ("cartoon#16/naive", 0x1d0dd2cced5a2008),
    ("cartoon#16/srg", 0x676e129db849bb47),
    ("cartoon#24/sch", 0x0c35d98ae06f3ae2),
    ("cartoon#24/glcm", 0xb5b58e0e038dc089),
    ("cartoon#24/gabor", 0x61e0ad7ca5822b85),
    ("cartoon#24/tamura", 0x6db563982c21e377),
    ("cartoon#24/acc", 0xa0460f07c08873a7),
    ("cartoon#24/naive", 0x81ec892e05f4f8e7),
    ("cartoon#24/srg", 0x676e129db849bb47),
    ("cartoon#32/sch", 0xdf0eb4bde375804a),
    ("cartoon#32/glcm", 0xe7425c52981afba9),
    ("cartoon#32/gabor", 0x37f4f2b52f600a58),
    ("cartoon#32/tamura", 0xc5466834b27f3318),
    ("cartoon#32/acc", 0x6194dbba7839fc20),
    ("cartoon#32/naive", 0x6d3c73cb2feb0187),
    ("cartoon#32/srg", 0x1420a144233c89c4),
    ("cartoon#40/sch", 0xc49da0c6f5799aef),
    ("cartoon#40/glcm", 0x092496d9a6cc4cfa),
    ("cartoon#40/gabor", 0xf7a3a3906e9f9336),
    ("cartoon#40/tamura", 0x85fa7191d0b1628b),
    ("cartoon#40/acc", 0x67abe9105927f5e7),
    ("cartoon#40/naive", 0x626ec04e03e2df9b),
    ("cartoon#40/srg", 0x1420a144233c89c4),
    ("cartoon#48/sch", 0x4bc08f24a35c3261),
    ("cartoon#48/glcm", 0xe2aa508128932cf6),
    ("cartoon#48/gabor", 0x817657fb827e2ea4),
    ("cartoon#48/tamura", 0xace976c3ab91252c),
    ("cartoon#48/acc", 0x34f1793d4e433490),
    ("cartoon#48/naive", 0x92a87c6332fe3e3a),
    ("cartoon#48/srg", 0x422dee74521c4b44),
    ("movie#0/sch", 0x1d46a03991b79e3e),
    ("movie#0/glcm", 0xe91e9cb97d2f9eb5),
    ("movie#0/gabor", 0xf90aabdcf68902a8),
    ("movie#0/tamura", 0x23d6bf417ccb63d2),
    ("movie#0/acc", 0x51820a53e705c4d9),
    ("movie#0/naive", 0x031d8408aa8475d3),
    ("movie#0/srg", 0x422dee74521c4b44),
    ("movie#8/sch", 0x1d46a03991b79e3e),
    ("movie#8/glcm", 0x76179ef4be50a8be),
    ("movie#8/gabor", 0x2b01ec1283c4add7),
    ("movie#8/tamura", 0xeb3e77e0f1cbedef),
    ("movie#8/acc", 0x5b214112e81ccc62),
    ("movie#8/naive", 0xe9817c30f459484b),
    ("movie#8/srg", 0x422dee74521c4b44),
    ("movie#16/sch", 0x9241b241f737309c),
    ("movie#16/glcm", 0x2b2bfd92c33ef87c),
    ("movie#16/gabor", 0x774f81e2bda2bc6e),
    ("movie#16/tamura", 0xeba4338564927382),
    ("movie#16/acc", 0xe7d88aac8b2499f9),
    ("movie#16/naive", 0x54c644f90c14cb17),
    ("movie#16/srg", 0x422dee74521c4b44),
    ("movie#24/sch", 0x5e00310d12f002cc),
    ("movie#24/glcm", 0x65ae7be66e6a4d25),
    ("movie#24/gabor", 0x572b209ff096a3aa),
    ("movie#24/tamura", 0x70a573dff7624d6e),
    ("movie#24/acc", 0xb744b4a548bbc219),
    ("movie#24/naive", 0x6ccdd35ca7bc1a2c),
    ("movie#24/srg", 0x422dee74521c4b44),
    ("movie#32/sch", 0x5e00310d12f002cc),
    ("movie#32/glcm", 0x99b42f974ee41720),
    ("movie#32/gabor", 0x27fe3366b4aee17d),
    ("movie#32/tamura", 0x01e4c9496fd86ad2),
    ("movie#32/acc", 0x03d13b5dfc40d78f),
    ("movie#32/naive", 0xe2ceaa2877d0336f),
    ("movie#32/srg", 0x422dee74521c4b44),
    ("movie#40/sch", 0x5c2d787d36075a15),
    ("movie#40/glcm", 0xa1da29153f27b130),
    ("movie#40/gabor", 0x168773cd6026280e),
    ("movie#40/tamura", 0x2663a94f9e8e7da0),
    ("movie#40/acc", 0x3f3d265ec33a40ca),
    ("movie#40/naive", 0xf63dea452f096605),
    ("movie#40/srg", 0x422dee74521c4b44),
    ("news#0/sch", 0x1d372694d90102c0),
    ("news#0/glcm", 0xad688a38aeb822f1),
    ("news#0/gabor", 0xe4269c1d452e0424),
    ("news#0/tamura", 0x1deda25f2fadac57),
    ("news#0/acc", 0x4d133417befefd7c),
    ("news#0/naive", 0x24efb283d4d18dbc),
    ("news#0/srg", 0x676e129db849bb47),
    ("news#8/sch", 0xb8e6d9ef377eef3a),
    ("news#8/glcm", 0xadd69a0f497fafd1),
    ("news#8/gabor", 0xa4592aedb0b3606c),
    ("news#8/tamura", 0x5ec8be209b0e70dc),
    ("news#8/acc", 0x4d133417befefd7c),
    ("news#8/naive", 0xef074f01b5a9047b),
    ("news#8/srg", 0x676e129db849bb47),
    ("news#16/sch", 0xced9d69c010acbe9),
    ("news#16/glcm", 0x980a1daa75f35f4b),
    ("news#16/gabor", 0x2ffa61d1f8e36a11),
    ("news#16/tamura", 0xdc41b641eadec3ac),
    ("news#16/acc", 0x6c1525cffbce4744),
    ("news#16/naive", 0x8e5e46a8f35e7a7d),
    ("news#16/srg", 0x422dee74521c4b44),
    ("news#24/sch", 0x6f5672d5c4896bef),
    ("news#24/glcm", 0x2d5e600391566882),
    ("news#24/gabor", 0x398ebd3fe6bcd39a),
    ("news#24/tamura", 0xf2b3144eda7b30b2),
    ("news#24/acc", 0x245cce5913e10377),
    ("news#24/naive", 0xe92aa8a8959f46ec),
    ("news#24/srg", 0xd62b13320d5df582),
    ("news#32/sch", 0xa1f8abe970f2cc61),
    ("news#32/glcm", 0x139311ffb13575b3),
    ("news#32/gabor", 0x605e0a57a2e2badb),
    ("news#32/tamura", 0x30b50d0d801f74e6),
    ("news#32/acc", 0x4d133417befefd7c),
    ("news#32/naive", 0x3df119a29744f4b4),
    ("news#32/srg", 0x676e129db849bb47),
    ("news#40/sch", 0x9a7c053774c06277),
    ("news#40/glcm", 0x64f162a8b77d4aef),
    ("news#40/gabor", 0x3931a26b5ee960a3),
    ("news#40/tamura", 0xf9bd66686ea07dfa),
    ("news#40/acc", 0x4dd4b8ea11a43054),
    ("news#40/naive", 0x61388fa066e59b90),
    ("news#40/srg", 0x3f8d563368657581),
    ("edge1x1/sch", 0x509fe16a6986bba4),
    ("edge1x1/glcm", 0x1de0cece531789c0),
    ("edge1x1/gabor", 0xade6b7bb0dcc6e5c),
    ("edge1x1/tamura", 0x0936f68169cf06b7),
    ("edge1x1/acc", 0x2557fe638573a6ea),
    ("edge1x1/naive", 0xe9088bf8c04f7b1f),
    ("edge1x1/srg", 0x8b2de55a4af806c4),
    ("edge2x3/sch", 0x787ca5dbf3deb423),
    ("edge2x3/glcm", 0x167a5951fe04ade6),
    ("edge2x3/gabor", 0xa3a808a96682a4f0),
    ("edge2x3/tamura", 0x0936f68169cf06b7),
    ("edge2x3/acc", 0x8e138278734b4f0a),
    ("edge2x3/naive", 0xe9088bf8c04f7b1f),
    ("edge2x3/srg", 0x8b2de55a4af806c4),
    ("edge5x70/sch", 0x61a8659111e60617),
    ("edge5x70/glcm", 0x11c085bff892a5c9),
    ("edge5x70/gabor", 0x67fbdc53b32d223e),
    ("edge5x70/tamura", 0xaee027d549c34379),
    ("edge5x70/acc", 0x177ec28dc4878d67),
    ("edge5x70/naive", 0xb3ef7b195010d5e5),
    ("edge5x70/srg", 0x422dee74521c4b44),
    ("edge21x21/sch", 0x40cdc623fb52d078),
    ("edge21x21/glcm", 0x41b666f8535f7d9b),
    ("edge21x21/gabor", 0xd29e0e56d0b13495),
    ("edge21x21/tamura", 0xdd6f4433c2ed0b63),
    ("edge21x21/acc", 0xa9ff577320571290),
    ("edge21x21/naive", 0x4a027ce17cb0088c),
    ("edge21x21/srg", 0x1420a144233c89c4),
    ("edge64x64/sch", 0xb1e9290bc69b6eb6),
    ("edge64x64/glcm", 0xbbb3c2233c26da2e),
    ("edge64x64/gabor", 0xff47d2c625007e5d),
    ("edge64x64/tamura", 0x25e6be18eb5d30d6),
    ("edge64x64/acc", 0xcf77a6d37d499f3d),
    ("edge64x64/naive", 0xa962bf018d791941),
    ("edge64x64/srg", 0xd7eebb5543c24944),
    ("edge65x48/sch", 0x02f6f76f491c648e),
    ("edge65x48/glcm", 0xc3fb6eb76de8bc38),
    ("edge65x48/gabor", 0xfaa64fe38aa77e16),
    ("edge65x48/tamura", 0xddd2472dc73e70b9),
    ("edge65x48/acc", 0x89380f032062bcfe),
    ("edge65x48/naive", 0x506d3eda6774c968),
    ("edge65x48/srg", 0x7f950009e5f14d44),
    ("edge200x37/sch", 0xdf101958f28b2586),
    ("edge200x37/glcm", 0x1a495f7c513d0a98),
    ("edge200x37/gabor", 0x6029202f356b4f57),
    ("edge200x37/tamura", 0xb0d4ebe156cf7240),
    ("edge200x37/acc", 0x156ba8ff8e32483d),
    ("edge200x37/naive", 0x78ecdcba1e6edc79),
    ("edge200x37/srg", 0x85cb31adb64ac15c),
    ("edge300x300/sch", 0x86b3b675f0956801),
    ("edge300x300/glcm", 0xad2a18470c572135),
    ("edge300x300/gabor", 0xd220370f384be781),
    ("edge300x300/tamura", 0xac067a2920a545f6),
    ("edge300x300/acc", 0xfb79e1b94674ef9a),
    ("edge300x300/naive", 0xbba10dc5bd3126cf),
    ("edge300x300/srg", 0x930017ab2af46e24),
    ("edge301x299/sch", 0x8bb170bd9e9267b9),
    ("edge301x299/glcm", 0x3b2fc046eaa5e331),
    ("edge301x299/gabor", 0x258a049961868a1d),
    ("edge301x299/tamura", 0x87090d5ed7ff08f4),
    ("edge301x299/acc", 0x2c8a9c27450dfed5),
    ("edge301x299/naive", 0x0d61ccb9343715c6),
    ("edge301x299/srg", 0x456986f56f1bd041),
];

#[rustfmt::skip]
const KEYFRAME_GOLDEN: &[(&str, &[usize])] = &[
    ("elearning@800", &[0]),
    ("elearning@100", &[0, 6, 12, 15, 21, 27, 31, 37, 41, 47]),
    ("sports@800", &[0, 21]),
    ("sports@100", &[0, 3, 5, 8, 10, 13, 20, 21, 30, 34, 36, 38, 39, 41]),
    ("cartoon@800", &[0, 15, 31, 41]),
    ("cartoon@100", &[0, 1, 4, 5, 8, 9, 12, 13, 15, 17, 19, 21, 22, 25, 26, 29, 30, 31, 41]),
    ("movie@800", &[0]),
    ("movie@100", &[0, 9, 20, 33]),
    ("news@800", &[0, 16, 32]),
    ("news@100", &[0, 8, 16, 32, 47]),
];

#[rustfmt::skip]
const VJP_GOLDEN: &[(&str, u64)] = &[
    ("clip@q1", 0x22bb212d356edaa4),
    ("clip@q25", 0x5bd73125c16cb8ca),
    ("clip@q50", 0x37217e25a509b27e),
    ("clip@q75", 0x0d21b6df06aed6df),
    ("clip@q95", 0x5388fcd5a7205a84),
    ("clip@q100", 0x0dde158a91b719b6),
    ("edge65x48@q1", 0x5448b972a83e5496),
    ("edge65x48@q25", 0xd0f51fea64d3408a),
    ("edge65x48@q50", 0xa5d86e8c4b9b8e60),
    ("edge65x48@q75", 0x46f91dbb2509707c),
    ("edge65x48@q95", 0xa3441f5e5e7aebb0),
    ("edge65x48@q100", 0xc92ce08273bd7d48),
    ("edge1x1@q1", 0x3264d21b73a95af6),
    ("edge1x1@q25", 0x9574e21c3cbf6656),
    ("edge1x1@q50", 0x9593be1c3cd9d9b9),
    ("edge1x1@q75", 0x9d63721c4108957f),
    ("edge1x1@q95", 0x9d63721c4108957f),
    ("edge1x1@q100", 0x9d63721c4108957f),
    ("edge301x299@q1", 0x41e1f087ff7e4a40),
    ("edge301x299@q25", 0x525de61a719e1db6),
    ("edge301x299@q50", 0x30d9a72a19cd417d),
    ("edge301x299@q75", 0x81bff3356e48ac58),
    ("edge301x299@q95", 0xdd8910dd64122e3d),
    ("edge301x299@q100", 0xd77317616fe7e9a5),
];
