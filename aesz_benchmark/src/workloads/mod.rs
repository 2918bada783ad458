//! The six workloads: what each one sets up from the seed, the closed loop
//! it times, the correctness checks on every output, and the layer probes
//! of its traced run.
//!
//! Every input is a generated `datagen` field, rotated by the seed: each
//! workload reads fixed snapshots (training snapshot 0, test snapshot 50,
//! served fields 100 ..) and [`rotated`] shifts them circularly by
//! seed-derived offsets. Different seeds therefore compress different bytes
//! with the same statistics, so the seed-to-seed spread of the ratio and
//! PSNR comes from block alignment alone and their bounds can stay tight
//! (a new snapshot per seed moved the ratio of the served fields by 12%
//! over ten seeds).

mod archive;
mod field;
mod serve;

use std::time::Instant;

use aesz_repro::core::training::TrainingOptions;
use aesz_repro::metrics::verify_error_bound;
use aesz_repro::{Dims, Field};

use crate::probes::Probes;
use crate::trace::Tracer;

/// A workload name of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Aesz2d,
    Aeb3d,
    Sz23d,
    Archive,
    Pipe,
    Serve,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Aesz2d,
        Kind::Aeb3d,
        Kind::Sz23d,
        Kind::Archive,
        Kind::Pipe,
        Kind::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Aesz2d => "aesz-2d",
            Kind::Aeb3d => "aeb-3d",
            Kind::Sz23d => "sz2-3d",
            Kind::Archive => "archive",
            Kind::Pipe => "pipe",
            Kind::Serve => "serve",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sizes: `full` for measurement, `toy` for the unit tests (debug
/// builds, seconds in total).
#[derive(Debug, Clone)]
pub struct Scale {
    /// The 8 MB CESM field AE-SZ compresses.
    pub cesm: Dims,
    /// The 32 MB CESM field the archive workloads chunk.
    pub cesm_big: Dims,
    /// The 8 MB Nyx field AE-B and SZ2.1 compress.
    pub nyx: Dims,
    pub train_2d: Dims,
    pub train_3d: Dims,
    pub training: TrainingOptions,
    pub aeb_epochs: usize,
    pub chunk: usize,
    pub serve: Dims,
    pub serve_fields: usize,
    /// Largest slab (in values) the layer probes run on.
    pub probe_elems: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            cesm: Dims::d2(2048, 1024),
            cesm_big: Dims::d2(4096, 2048),
            nyx: Dims::d3(128, 128, 128),
            train_2d: Dims::d2(256, 256),
            train_3d: Dims::d3(64, 64, 64),
            training: TrainingOptions::default_for_rank(2),
            aeb_epochs: 2,
            chunk: 256,
            serve: Dims::d2(128, 128),
            serve_fields: 8,
            probe_elems: 1 << 19,
        }
    }

    #[cfg(test)]
    pub fn toy() -> Scale {
        Scale {
            cesm: Dims::d2(64, 64),
            cesm_big: Dims::d2(96, 64),
            nyx: Dims::d3(32, 16, 16),
            train_2d: Dims::d2(64, 64),
            train_3d: Dims::d3(16, 16, 16),
            training: TrainingOptions {
                epochs: 1,
                max_blocks: 2,
                ..TrainingOptions::default_for_rank(2)
            },
            aeb_epochs: 1,
            chunk: 32,
            serve: Dims::d2(16, 16),
            serve_fields: 2,
            probe_elems: 4096,
        }
    }
}

/// Timings and op counts of one measured loop.
#[derive(Debug, Default)]
pub struct Measured {
    pub compress_s: Vec<f64>,
    pub decompress_s: Vec<f64>,
    /// Wall time of the whole loop, checks included.
    pub wall_s: f64,
    pub attempted: usize,
    pub failed: usize,
}

impl Measured {
    /// Completed (timed) compress and decompress ops.
    pub fn completed(&self) -> usize {
        self.compress_s.len() + self.decompress_s.len()
    }
}

/// What the outputs are worth, fixed by the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub ratio: f64,
    pub psnr_db: f64,
}

pub trait Workload {
    /// One untimed op that checks every output against what the codec
    /// guarantees and keeps them as the reference later ops must reproduce.
    fn warm_up(&mut self) -> Result<Quality, String>;

    /// The timed loop: at least `min_rounds` rounds and `seconds` of time.
    /// Codec errors count as failed ops; a wrong answer is an `Err`.
    fn measure(&mut self, seconds: f64, min_rounds: usize) -> Result<Measured, String>;

    /// One traced iteration of the layer probes (after `warm_up`).
    fn probe(&mut self, tr: &mut Tracer) -> Result<(), String>;
}

/// Build a workload's inputs and models from the seed.
pub fn setup(kind: Kind, seed: u64, scale: &Scale) -> Box<dyn Workload> {
    match kind {
        Kind::Aesz2d => Box::new(Single::new(
            field::FieldRoundTrip::aesz_2d(seed, scale),
            scale,
        )),
        Kind::Aeb3d => Box::new(Single::new(
            field::FieldRoundTrip::aeb_3d(seed, scale),
            scale,
        )),
        Kind::Sz23d => Box::new(Single::new(
            field::FieldRoundTrip::sz2_3d(seed, scale),
            scale,
        )),
        Kind::Archive => Box::new(Single::new(
            archive::ArchiveRoundTrip::new(seed, scale, false),
            scale,
        )),
        Kind::Pipe => Box::new(Single::new(
            archive::ArchiveRoundTrip::new(seed, scale, true),
            scale,
        )),
        Kind::Serve => Box::new(serve::ServeBench::new(seed, scale)),
    }
}

/// What a single-stream workload does: compress one input to bytes and
/// decode the bytes back, one op at a time.
trait RoundTrip {
    fn name(&self) -> &'static str;
    /// The field the ops compress.
    fn input(&self) -> &Field;
    fn compress(&mut self) -> Result<Vec<u8>, String>;
    fn decompress(&mut self, bytes: &[u8]) -> Result<Field, String>;
    /// Check a reconstruction (and its bytes) against what the codec
    /// guarantees.
    fn check(&self, bytes: &[u8], recon: &Field) -> Result<(), String>;
    /// The layer probes on this workload's data; `output` is what its ops
    /// produce.
    fn probes(&self, output: &[u8], probe_elems: usize) -> Probes;
}

/// The warm-up's outputs, which every timed op must reproduce, and the
/// repetitions per round its timings call for.
struct Reference {
    bytes: Vec<u8>,
    recon: Field,
    reps: (usize, usize),
}

/// A single-stream workload: its round trip, checked warm-up, timed closed
/// loop and probes.
struct Single<R> {
    rt: R,
    probe_elems: usize,
    reference: Option<Reference>,
    probes: Option<Probes>,
}

impl<R: RoundTrip> Single<R> {
    fn new(rt: R, scale: &Scale) -> Self {
        Single {
            rt,
            probe_elems: scale.probe_elems,
            reference: None,
            probes: None,
        }
    }
}

impl<R: RoundTrip> Workload for Single<R> {
    fn warm_up(&mut self) -> Result<Quality, String> {
        let rt = &mut self.rt;
        let name = rt.name();
        let (bytes, compress_s) = stopwatch(|| rt.compress());
        let bytes = bytes.map_err(|e| format!("{name} warm-up compress: {e}"))?;
        let (recon, decompress_s) = stopwatch(|| rt.decompress(&bytes));
        let recon = recon.map_err(|e| format!("{name} warm-up decompress: {e}"))?;
        rt.check(&bytes, &recon)?;
        let quality = Quality {
            ratio: ratio(rt.input(), bytes.len()),
            psnr_db: psnr(rt.input(), &recon),
        };
        self.reference = Some(Reference {
            bytes,
            recon,
            reps: reps_per_round(compress_s, decompress_s),
        });
        Ok(quality)
    }

    fn measure(&mut self, seconds: f64, min_rounds: usize) -> Result<Measured, String> {
        let reference = self
            .reference
            .as_ref()
            .expect("measure runs after the warm-up");
        let rt = &mut self.rt;
        let name = rt.name();
        let mut m = Measured::default();
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
            for _ in 0..reference.reps.0 {
                if let Some(bytes) = timed_op(&mut m, false, || rt.compress()) {
                    if bytes != reference.bytes {
                        return Err(format!(
                            "{name}: compressed bytes differ from the warm-up's"
                        ));
                    }
                }
            }
            for _ in 0..reference.reps.1 {
                if let Some(recon) = timed_op(&mut m, true, || rt.decompress(&reference.bytes)) {
                    if !same_bits(&recon, &reference.recon) {
                        return Err(format!("{name}: reconstruction differs from the warm-up's"));
                    }
                }
            }
            rounds += 1;
        }
        m.wall_s = start.elapsed().as_secs_f64();
        Ok(m)
    }

    fn probe(&mut self, tr: &mut Tracer) -> Result<(), String> {
        if self.probes.is_none() {
            let reference = self
                .reference
                .as_ref()
                .expect("probes run after the warm-up");
            self.probes = Some(self.rt.probes(&reference.bytes, self.probe_elems));
        }
        self.probes.as_mut().expect("built above").run(tr)
    }
}

/// Datagen snapshot of the training fields.
const TRAIN_SNAPSHOT: u64 = 0;
/// Datagen snapshot of the fields the timed ops compress (disjoint from the
/// training snapshot, like the paper's train/test split).
const TEST_SNAPSHOT: u64 = 50;

/// `field` shifted circularly along its fastest axis — and, in 3D, its
/// middle axis — by offsets derived from `seed` and `salt`. CESM wraps in
/// longitude (up to a seam in its smooth noise) and the Nyx box is periodic,
/// so the result is the same field seen from another origin.
fn rotated(field: &Field, seed: u64, salt: u64) -> Field {
    let offset = |axis: u64, extent: usize| {
        // splitmix64 of (seed, salt, axis)
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ axis);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % extent as u64) as usize
    };
    let ext = field.dims().extents();
    let nx = ext[ext.len() - 1];
    let sx = offset(0, nx);
    let (ny, sy) = match *ext.as_slice() {
        [_, ny, _] => (ny, offset(1, ny)),
        _ => (1, 0),
    };
    let mut out = Vec::with_capacity(field.len());
    for plane in field.as_slice().chunks(ny * nx) {
        for y in 0..ny {
            let row = &plane[(y + sy) % ny * nx..][..nx];
            out.extend_from_slice(&row[sx..]);
            out.extend_from_slice(&row[..sx]);
        }
    }
    Field::from_vec(field.dims(), out).expect("a rotation keeps the length")
}

/// Compress and decompress repetitions per round, from the warm-up op's
/// times: the faster direction repeats until it gets at least a quarter of
/// the slower one's time, so its median does not rest on a handful of
/// samples (AE-SZ decompresses 25 times faster than it compresses).
fn reps_per_round(compress_s: f64, decompress_s: f64) -> (usize, usize) {
    let reps = |slow: f64, fast: f64| ((slow / (4.0 * fast)).round() as usize).clamp(1, 64);
    (
        reps(decompress_s, compress_s),
        reps(compress_s, decompress_s),
    )
}

/// Time `op`, returning its result and duration.
fn stopwatch<T>(op: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = op();
    (out, t0.elapsed().as_secs_f64())
}

/// Time one op, recording its duration on success and counting it failed
/// on a codec error.
fn timed_op<T, E: std::fmt::Display>(
    m: &mut Measured,
    decompress: bool,
    op: impl FnOnce() -> Result<T, E>,
) -> Option<T> {
    m.attempted += 1;
    let (out, dt) = stopwatch(op);
    match out {
        Ok(v) => {
            if decompress {
                m.decompress_s.push(dt);
            } else {
                m.compress_s.push(dt);
            }
            Some(v)
        }
        Err(e) => {
            eprintln!("op failed: {e}");
            m.failed += 1;
            None
        }
    }
}

/// The leading slab (whole planes/rows along the slowest axis) of `field`
/// holding at most `max_elems` values.
pub fn leading_slab(field: &Field, max_elems: usize) -> Field {
    let dims = field.dims();
    let ext = dims.extents();
    let plane: usize = ext[1..].iter().product();
    let rows = (max_elems / plane.max(1)).clamp(1, ext[0]);
    let slab_dims = match *ext.as_slice() {
        [_] => Dims::d1(rows),
        [_, nx] => Dims::d2(rows, nx),
        [_, ny, nx] => Dims::d3(rows, ny, nx),
        _ => unreachable!("fields have rank 1 to 3"),
    };
    let data = field.as_slice()[..rows * plane].to_vec();
    Field::from_vec(slab_dims, data).expect("slab length matches its dims")
}

/// Every value of `recon` finite and within `abs * 1.0001` of `original`.
fn check_bound(what: &str, original: &Field, recon: &Field, abs: f64) -> Result<(), String> {
    if original.dims() != recon.dims() {
        return Err(format!(
            "{what}: dims {} became {}",
            original.dims(),
            recon.dims()
        ));
    }
    if !recon.as_slice().iter().all(|v| v.is_finite()) {
        return Err(format!("{what}: non-finite reconstruction"));
    }
    verify_error_bound(original.as_slice(), recon.as_slice(), abs, abs * 1e-4)
        .map_err(|e| format!("{what}: {e}"))
}

/// Bit-identical fields.
fn same_bits(a: &Field, b: &Field) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn psnr(original: &Field, recon: &Field) -> f64 {
    aesz_repro::metrics::psnr(original.as_slice(), recon.as_slice())
}

fn ratio(raw: &Field, bytes: usize) -> f64 {
    (raw.len() * 4) as f64 / bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leading_slab_takes_whole_rows() {
        let f = Field::from_fn(Dims::d3(8, 4, 4), |c| {
            (c[0] * 100 + c[1] * 10 + c[2]) as f32
        });
        let s = leading_slab(&f, 40);
        assert_eq!(s.dims(), Dims::d3(2, 4, 4));
        assert_eq!(s.as_slice(), &f.as_slice()[..32]);
        assert_eq!(leading_slab(&f, 1).dims(), Dims::d3(1, 4, 4));
        assert_eq!(leading_slab(&f, 1 << 20).dims(), f.dims());
    }

    #[test]
    fn rotation_is_a_seeded_circular_shift() {
        let f = Field::from_fn(Dims::d3(3, 4, 5), |c| {
            (c[0] * 100 + c[1] * 10 + c[2]) as f32
        });
        let r = rotated(&f, 9, 2);
        assert_eq!(r, rotated(&f, 9, 2), "the same seed gives the same input");
        assert_ne!(rotated(&f, 9, 2), rotated(&f, 10, 2));
        // Planes stay planes (z is not rotated); rows and columns shift
        // circularly.
        let (sy, sx) = ((r[0] as usize / 10) % 10, r[0] as usize % 10);
        for (i, &v) in r.as_slice().iter().enumerate() {
            let (z, y, x) = (i / 20, i / 5 % 4, i % 5);
            assert_eq!(v as usize, z * 100 + (y + sy) % 4 * 10 + (x + sx) % 5);
        }
        let g = Field::from_fn(Dims::d2(2, 7), |c| (c[0] * 10 + c[1]) as f32);
        let r = rotated(&g, 4, 1);
        let sx = r[0] as usize;
        assert_eq!(r[7] as usize, 10 + sx, "rows are not rotated in 2D");
    }

    #[test]
    fn the_faster_direction_repeats() {
        assert_eq!(reps_per_round(1.0, 0.04), (1, 6));
        assert_eq!(reps_per_round(0.2, 0.8), (1, 1));
        assert_eq!(reps_per_round(0.1, 1.0), (3, 1));
        assert_eq!(reps_per_round(1.0, 1e-9), (1, 64));
    }

    #[test]
    fn kinds_round_trip_their_names() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
