//! The I/O layer: raw `f32` fields in files and pipes as the archive layer's
//! chunk sources and sinks, whole fields and bytes from a path or `-`, and
//! the error statistics `compress --verify` and `compare` report.
//!
//! Files are read and written with seeks, one chunk at a time ([`RawFile`]);
//! pipes move one chunk-row band at a time ([`Band`]). Either way a chunk
//! travels as its little-endian bytes, run by run, and becomes values only
//! through [`Field::from_le_bytes`] / [`Field::to_le_bytes`].

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};

use aesz_repro::archive::{chunk_dims, ChunkSink, ChunkSource};
use aesz_repro::tensor::BlockSpec;
use aesz_repro::{Dims, Field};

/// Values per read when a raw file is scanned front to back (64 KiB).
const SLAB: usize = 1 << 14;

pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Byte offsets of the contiguous runs a chunk occupies in a row-major raw
/// file, in row-major order over the chunk, and the bytes in each run (the
/// chunk's fastest-axis extent).
fn runs(dims: Dims, spec: &BlockSpec) -> (impl Iterator<Item = u64>, usize) {
    // Rank 1 and 2 as rank 3 with leading unit axes.
    let pad = |v: &[usize], fill: usize| {
        let mut out = [fill; 3];
        for (o, &x) in out.iter_mut().rev().zip(v.iter().rev()) {
            *o = x;
        }
        out
    };
    let [_, ny, nx] = pad(&dims.extents(), 1);
    let [oz, oy, ox] = pad(spec.origin.as_slice(), 0);
    let [sz, sy, sx] = pad(spec.size.as_slice(), 1);
    let starts = (0..sz)
        .flat_map(move |z| (0..sy).map(move |y| (((oz + z) * ny + oy + y) * nx + ox) as u64 * 4));
    (starts, sx * 4)
}

/// Read the chunk at `spec` run by run through `read_run(offset, buffer)`.
fn gather(
    dims: Dims,
    spec: &BlockSpec,
    mut read_run: impl FnMut(u64, &mut [u8]) -> std::io::Result<()>,
) -> std::io::Result<Field> {
    let (starts, run) = runs(dims, spec);
    let mut bytes = vec![0u8; spec.valid_len() * 4];
    for (at, buf) in starts.zip(bytes.chunks_mut(run.max(1))) {
        read_run(at, buf)?;
    }
    Field::from_le_bytes(chunk_dims(spec), &bytes).map_err(std::io::Error::other)
}

/// Write `chunk` at `spec` run by run through `write_run(offset, bytes)`.
fn scatter(
    dims: Dims,
    spec: &BlockSpec,
    chunk: &Field,
    mut write_run: impl FnMut(u64, &[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let (starts, run) = runs(dims, spec);
    let bytes = chunk.to_le_bytes();
    starts
        .zip(bytes.chunks(run.max(1)))
        .try_for_each(|(at, buf)| write_run(at, buf))
}

/// Fill `buf` from `input`, looping over short reads, and return how many
/// bytes landed (< `buf.len()` only at end of input). Plain `read()` may
/// return counts that are not multiples of 4 — pipes routinely do — which
/// would shear every following `f32` off its byte boundary.
fn read_full(input: &mut impl Read, mut buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while !buf.is_empty() {
        let n = input.read(buf)?;
        if n == 0 {
            break;
        }
        filled += n;
        buf = std::mem::take(&mut buf).get_mut(n..).unwrap_or_default();
    }
    Ok(filled)
}

/// A raw little-endian `f32` file of known dims, read or written with
/// seeks, so only one chunk is resident at a time.
pub struct RawFile {
    file: File,
    dims: Dims,
}

impl RawFile {
    /// Open `path` for reading; its length must match `dims`.
    pub fn open(path: &str, dims: Dims) -> Result<RawFile, String> {
        let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let len = file
            .metadata()
            .map_err(|e| format!("stat {path}: {e}"))?
            .len();
        let expected = dims.len() as u64 * 4;
        if len != expected {
            return Err(format!(
                "{path} holds {len} bytes but dims {dims} need {expected} (f32)"
            ));
        }
        Ok(RawFile { file, dims })
    }

    /// Create (or truncate) `path` at the full size of `dims`.
    pub fn create(path: &str, dims: Dims) -> Result<RawFile, String> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| format!("create {path}: {e}"))?;
        file.set_len(dims.len() as u64 * 4)
            .map_err(|e| format!("size {path}: {e}"))?;
        Ok(RawFile { file, dims })
    }

    fn read_at(&mut self, at: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.file.seek(SeekFrom::Start(at))?;
        self.file.read_exact(buf)
    }

    /// The field front to back, [`SLAB`] values at a time.
    pub fn slabs(&mut self) -> impl Iterator<Item = std::io::Result<Field>> + '_ {
        let flat = Dims::d1(self.dims.len());
        (0..self.dims.len().div_ceil(SLAB)).map(move |i| {
            gather(flat, &BlockSpec::of(flat, SLAB, i), |at, buf| {
                self.read_at(at, buf)
            })
        })
    }
}

impl ChunkSource for RawFile {
    fn dims(&self) -> Dims {
        self.dims
    }

    fn min_max(&mut self) -> std::io::Result<(f32, f32)> {
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for slab in self.slabs() {
            // `f32::min`/`max` skip NaN.
            for &x in slab?.as_slice() {
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
        Ok(if lo > hi { (0.0, 0.0) } else { (lo, hi) })
    }

    fn read_chunk(&mut self, spec: &BlockSpec) -> std::io::Result<Field> {
        gather(self.dims, spec, |at, buf| self.read_at(at, buf))
    }
}

impl ChunkSink for RawFile {
    fn write_chunk(&mut self, spec: &BlockSpec, chunk: &Field) -> std::io::Result<()> {
        let file = &mut self.file;
        scatter(self.dims, spec, chunk, |at, bytes| {
            file.seek(SeekFrom::Start(at))?;
            file.write_all(bytes)
        })
    }
}

/// A raw field in a pipe, one *band* (a chunk-row of the field) resident.
/// The archive writers read chunks, and the decoders emit them, in
/// ascending index order, which over a row-major chunk grid is band by
/// band. So a source reads the next band from its pipe when a chunk needs
/// it, a sink writes its band out when a chunk of the next one arrives, and
/// neither pipe ever rewinds.
pub struct Band<P> {
    pipe: P,
    dims: Dims,
    chunk: usize,
    /// Extent of the slowest axis, and the bytes of one row along it.
    slow: usize,
    row_bytes: usize,
    /// The band's first slow-axis row and its row count (0 before the
    /// first band and past the last).
    start: usize,
    rows: usize,
    bytes: Vec<u8>,
}

impl<P> Band<P> {
    /// A pipe source; its first band is read when the first chunk is.
    pub fn new(pipe: P, dims: Dims, chunk: usize) -> Band<P> {
        let slow = dims.extents().first().copied().unwrap_or(1);
        Band {
            pipe,
            dims,
            chunk,
            slow,
            row_bytes: dims.len() / slow.max(1) * 4,
            start: 0,
            rows: 0,
            bytes: Vec::new(),
        }
    }

    /// Move on to the next band, zero-filled; `false` past the last one.
    fn advance(&mut self) -> bool {
        self.start += self.rows;
        self.rows = self.chunk.min(self.slow.saturating_sub(self.start));
        self.bytes.clear();
        self.bytes.resize(self.rows * self.row_bytes, 0);
        self.rows > 0
    }

    /// Field byte offset just past the band.
    fn end(&self) -> u64 {
        ((self.start + self.rows) * self.row_bytes) as u64
    }

    /// The band's bytes for the `len`-byte run at field byte offset `at`.
    fn run(&mut self, at: u64, len: usize) -> Option<&mut [u8]> {
        let from = at.checked_sub((self.start * self.row_bytes) as u64)?;
        let from = usize::try_from(from).ok()?;
        self.bytes.get_mut(from..from.checked_add(len)?)
    }
}

impl<R: Read> ChunkSource for Band<R> {
    fn dims(&self) -> Dims {
        self.dims
    }

    fn min_max(&mut self) -> std::io::Result<(f32, f32)> {
        // Resolving a relative bound needs the full value range up front,
        // and scanning for it would consume the pipe. `compress` rejects
        // --rel with piped input before it gets here.
        Err(std::io::Error::other(
            "a piped source cannot be pre-scanned for its value range; use --abs",
        ))
    }

    fn read_chunk(&mut self, spec: &BlockSpec) -> std::io::Result<Field> {
        gather(self.dims, spec, |at, buf| {
            while at >= self.end() && self.advance() {
                let got = read_full(&mut self.pipe, &mut self.bytes)?;
                if got != self.bytes.len() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!(
                            "piped input ended {got} bytes into a {}-byte band; \
                             --dims promise more data",
                            self.bytes.len()
                        ),
                    ));
                }
            }
            let run = self.run(at, buf.len()).ok_or_else(|| {
                std::io::Error::other("chunk read outside the buffered band; a pipe cannot rewind")
            })?;
            buf.copy_from_slice(run);
            Ok(())
        })
    }
}

impl<W: Write> Band<W> {
    /// A pipe sink, its first band ready for chunks.
    pub fn sink(pipe: W, dims: Dims, chunk: usize) -> Band<W> {
        let mut band = Band::new(pipe, dims, chunk);
        band.advance();
        band
    }

    fn flush_band(&mut self) -> std::io::Result<()> {
        self.pipe.write_all(&self.bytes)?;
        self.advance();
        Ok(())
    }
}

impl<W: Write> ChunkSink for Band<W> {
    fn write_chunk(&mut self, spec: &BlockSpec, chunk: &Field) -> std::io::Result<()> {
        scatter(self.dims, spec, chunk, |at, bytes| {
            while self.rows > 0 && at >= self.end() {
                self.flush_band()?;
            }
            // A chunk deferred on a late-arriving embedded model replays out
            // of order; that needs a seekable output file.
            let run = self.run(at, bytes.len()).ok_or_else(|| {
                std::io::Error::other(
                    "decoded chunk arrived behind the already-flushed band; \
                     a piped output cannot seek — decompress to a file",
                )
            })?;
            run.copy_from_slice(bytes);
            Ok(())
        })
    }
}

/// The raw input of `compress` and `append`: a file, or stdin for `-`.
pub fn source(path: &str, dims: Dims, chunk: usize) -> Result<Box<dyn ChunkSource>, String> {
    Ok(if path == "-" {
        Box::new(Band::new(std::io::stdin().lock(), dims, chunk))
    } else {
        Box::new(RawFile::open(path, dims)?)
    })
}

/// The raw output of a decode.
pub trait Output: ChunkSink {
    /// Write out what is still buffered.
    fn finish(&mut self) -> std::io::Result<()>;
}

impl Output for RawFile {
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl<W: Write> Output for Band<W> {
    /// Write out whatever bands remain — the last band has no successor
    /// chunk to trigger its flush — and flush the pipe.
    fn finish(&mut self) -> std::io::Result<()> {
        while self.rows > 0 {
            self.flush_band()?;
        }
        self.pipe.flush()
    }
}

/// The raw output of a decode: a file, or stdout for `-`.
pub fn output(path: &str, dims: Dims, chunk: usize) -> Result<Box<dyn Output>, String> {
    Ok(if path == "-" {
        let stdout = BufWriter::new(std::io::stdout().lock());
        Box::new(Band::sink(stdout, dims, chunk))
    } else {
        Box::new(RawFile::create(path, dims)?)
    })
}

/// All bytes of a file, or of stdin for `-`.
pub fn read_bytes(path: &str) -> Result<Vec<u8>, String> {
    if path != "-" {
        return std::fs::read(path).map_err(|e| format!("read {path}: {e}"));
    }
    let mut bytes = Vec::new();
    std::io::stdin()
        .lock()
        .read_to_end(&mut bytes)
        .map_err(|e| format!("read stdin: {e}"))?;
    Ok(bytes)
}

/// A whole raw `f32` field from a file, or from stdin for `-` (training
/// and the daemon's requests need it resident).
pub fn read_field(path: &str, dims: Dims) -> Result<Field, String> {
    let bytes = read_bytes(path)?;
    let (name, held) = if path == "-" {
        ("stdin", "held")
    } else {
        (path, "holds")
    };
    let expected = dims.len() * 4;
    if bytes.len() != expected {
        return Err(format!(
            "{name} {held} {} bytes but dims {dims} need {expected} (f32)",
            bytes.len()
        ));
    }
    Field::from_le_bytes(dims, &bytes).map_err(|_| format!("{name}: byte/dims mismatch"))
}

/// Write `bytes` to a file, or to stdout for `-`.
pub fn write_bytes(path: &str, bytes: &[u8]) -> Result<(), String> {
    let (mut out, name): (Box<dyn Write>, &str) = if path == "-" {
        (Box::new(std::io::stdout().lock()), "stdout")
    } else {
        let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        (Box::new(BufWriter::new(file)), path)
    };
    out.write_all(bytes)
        .and_then(|()| out.flush())
        .map_err(|e| format!("write {name}: {e}"))
}

/// Pointwise error statistics between two fields, accumulated chunk by
/// chunk or slab by slab (the library's `ErrorStats` needs both fields
/// resident).
#[derive(Default)]
pub struct ErrorStats {
    sum_sq: f64,
    pub max_abs: f64,
    count: u64,
}

impl ErrorStats {
    pub fn add(&mut self, a: &[f32], b: &[f32]) {
        for (&x, &y) in a.iter().zip(b) {
            let d = (x as f64 - y as f64).abs();
            self.sum_sq += d * d;
            self.max_abs = self.max_abs.max(d);
            self.count += 1;
        }
    }

    /// PSNR in dB against the value range `range`.
    pub fn psnr(&self, range: f64) -> f64 {
        if self.count == 0 || self.sum_sq == 0.0 {
            return f64::INFINITY;
        }
        let mse = self.sum_sq / self.count as f64;
        20.0 * range.log10() - 10.0 * mse.log10()
    }
}
