//! `aesz` — compress/decompress raw little-endian `f32` fields through the
//! chunked streaming archive layer.
//!
//! The tool drives [`aesz_repro::archive`] with *file-backed* chunk sources
//! and sinks: chunks are read and written with seeks, so a dataset is never
//! materialized in memory — peak resident payload is one window of chunks,
//! whatever the file size.
//!
//! ```text
//! aesz gen        --app cesm --dims 512x512 --seed 7 --output field.f32
//! aesz train      --input field.f32 --dims 512x512 --codec aesz \
//!                 --output field.aesm [--epochs 4]
//! aesz compress   --input field.f32 --dims 512x512 --codec aesz --rel 1e-3 \
//!                 --model field.aesm --embed-model \
//!                 --chunk 64 --window 8 --output field.aesa [--verify]
//! aesz decompress --input field.aesa --output recon.f32 [--model field.aesm]
//! aesz append     --archive field.aesa --input more.f32 --dims 128x512 \
//!                 --codec zfp --abs 1e-3
//! aesz info       --input field.aesa
//! aesz compare    --a x.f32 --b y.f32 --dims 512x512 [--max-abs 1e-3]
//! ```
//!
//! The `train` subcommand is the paper's offline stage: it trains a learned
//! codec's network and writes a content-addressed sidecar model file
//! (`AESM` frame). `compress` can load that sidecar (`--model`), train one
//! inline (`--train`), and embed the model bytes into the archive itself
//! (`--embed-model`) so `decompress` in a fresh process needs nothing but
//! the archive.
//!
//! # Piped streaming
//!
//! `compress` and `decompress` accept `-` for `--input` / `--output` and
//! then run truly streaming: stdin is consumed band by band (one chunk-row
//! of the field at a time), stdout receives the same inline archive a file
//! would (the one layout every writer emits, which never seeks), and
//! resident memory stays bounded by one band plus one window of chunks —
//! never the field:
//!
//! ```text
//! aesz gen --app cesm --dims 2048x2048 --output - \
//!   | aesz compress --input - --dims 2048x2048 --codec zfp --abs 1e-3 --output - \
//!   | aesz decompress --input - --output recon.f32
//! ```
//!
//! Piped compression requires `--abs` (a pipe cannot be re-scanned for the
//! value range a `--rel` bound resolves against), and `--embed-model`
//! requires a seekable output. `append` extends an archive in place along
//! its slowest axis without rewriting existing payload bytes; any archive
//! `compress` writes, to a file or a pipe, takes appends without a
//! capacity limit.
//!
//! # Compression as a service
//!
//! `aesz serve` runs the [`aesz_server`] daemon — trained models stay
//! resident across requests — and `aesz remote` is its client, speaking the
//! `AESP` protocol over TCP. A `Busy` backpressure rejection exits with
//! code 75 (`EX_TEMPFAIL`) so callers know to back off and retry.

#![forbid(unsafe_code)]

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::time::Instant;

use aesz_repro::archive::{
    write_archive_embedding, write_archive_stream, ArchiveAppender, ArchiveOptions, ArchiveReader,
    ChunkSink, ChunkSource,
};
use aesz_repro::datagen::Application;
use aesz_repro::metrics::protocol as wire;
use aesz_repro::model_store::{build_compressor, train_compressor, TrainSettings};
use aesz_repro::resolve::ModelResolver;
use aesz_repro::tensor::BlockSpec;
use aesz_repro::{
    CodecId, Compressor, Dims, EmbeddedModel, ErrorBound, Field, ModelStore, Registry,
    StreamFieldDecoder, StreamOutput,
};
use aesz_server::{RemoteClient, Server, ServerConfig};

const USAGE: &str = "usage:
  aesz gen        --app NAME --dims DIMS --output FILE|- [--seed N]
  aesz train      --input FILE | --app NAME  --dims DIMS --output FILE
                  [--codec aesz|aea|aeb] [--epochs N] [--block N] [--latent N]
                  [--channels 8,16] [--max-blocks N] [--train-seed N] [--seed N]
  aesz compress   --input FILE|- --dims DIMS --codec NAME --rel E | --abs E
                  --output FILE|- [--chunk N] [--window N] [--verify]
                  [--model FILE] [--train] [--embed-model] [--epochs N]
  aesz decompress --input FILE|- --output FILE|- [--window N] [--model FILE]
                  [--verify]
  aesz append     --archive FILE --input FILE|- --dims DIMS --codec NAME
                  --abs E [--window N] [--model FILE] [--embed-model]
  aesz info       --input FILE
  aesz compare    --a FILE --b FILE --dims DIMS [--max-abs E]
  aesz models     --dir DIR
  aesz serve      [--addr HOST:PORT] [--workers N] [--queue N] [--max-conns N]
                  [--max-bytes N] [--max-elems N] [--models DIR]
  aesz remote     --addr HOST:PORT compress --input FILE|- --dims DIMS
                  --codec NAME --rel E | --abs E --output FILE|-
  aesz remote     --addr HOST:PORT decompress --input FILE|- --output FILE|-
  aesz remote     --addr HOST:PORT train --input FILE|- --dims DIMS
                  --codec NAME --output FILE|- [--epochs N] [--block N]
                  [--latent N] [--max-blocks N] [--train-seed N]
  aesz remote     --addr HOST:PORT health | stats | models

DIMS is slow-to-fast extents, e.g. 1800x3600 or 256x256x256.
codecs: aesz, sz2, zfp, szauto, szinterp, aea, aeb. The learned codecs
(aesz, aea, aeb) need a trained model: train one offline (`aesz train`),
load it with --model, or train inline with --train. `--embed-model` ships
the model inside the archive; `decompress` also resolves sidecar files
given via --model. With --train, --model names where to SAVE the model.
apps for gen/train: cesm, cesm-freqsh, exafel, nyx, nyx-temp, nyx-dm,
hurricane-u, hurricane-qvapor, rtm.
`-` streams stdin/stdout with memory bounded by one chunk band plus one
window of chunks (`decompress --input -` decodes each --window of chunk
frames in parallel as they arrive): piped compression needs --abs (a pipe
cannot be re-scanned for the value range).
File and piped archives share one layout (AESA v3, no index table), which
`aesz append` extends in place without a capacity limit; append takes the
appended slab's DIMS (matching every axis but the slowest).
`serve` keeps models trained over the wire registered and shared across
requests; a --models DIR model is built by each request that names it.
`remote` exits 75 (EX_TEMPFAIL) on a Busy backpressure rejection so
callers back off.";

/// Print a line to stdout without dying on a closed pipe. `println!` panics
/// on `EPIPE`, so `aesz ... | head` used to crash with a raw Broken pipe
/// abort once `head` exited. Downstream closing early is flow control, not
/// failure: exit 141 (128 + SIGPIPE) quietly, the way a signal-killed
/// filter would.
macro_rules! emit {
    ($($arg:tt)*) => { emit_line(format_args!($($arg)*)) };
}

/// Route a status line: stdout normally, stderr when stdout is the data
/// channel (a status line inside a piped archive corrupts it).
macro_rules! status {
    ($stdout_is_data:expr, $($arg:tt)*) => {
        if $stdout_is_data { eprintln!($($arg)*) } else { emit!($($arg)*) }
    };
}

fn emit_line(line: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    let wrote = out.write_fmt(line).and_then(|()| out.write_all(b"\n"));
    if let Err(e) = wrote {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => {}
        Err(e) => {
            // Data writes that hit EPIPE surface here as error strings (the
            // subcommands wrap io::Error into prose); same deal as emit! —
            // the downstream hung up, so leave quietly.
            if e.to_lowercase().contains("broken pipe") {
                std::process::exit(141);
            }
            eprintln!("aesz: {e}");
            std::process::exit(1);
        }
    }
}

fn run(mut args: Vec<String>) -> Result<(), String> {
    if args.is_empty() {
        return Err(format!("missing subcommand\n{USAGE}"));
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "gen" => cmd_gen(args),
        "train" => cmd_train(args),
        "compress" => cmd_compress(args),
        "decompress" => cmd_decompress(args),
        "append" => cmd_append(args),
        "info" => cmd_info(args),
        "compare" => cmd_compare(args),
        "models" => cmd_models(args),
        "serve" => cmd_serve(args),
        "remote" => cmd_remote(args),
        "-h" | "--help" | "help" => {
            emit!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    }
}

// ---------------------------------------------------------------- arguments

fn take_opt(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == name) {
        if pos + 1 >= args.len() {
            return Err(format!("{name} needs a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

fn need_opt(args: &mut Vec<String>, name: &str) -> Result<String, String> {
    take_opt(args, name)?.ok_or(format!("{name} is required\n{USAGE}"))
}

fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == name) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn finish_args(args: Vec<String>) -> Result<(), String> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(format!("unrecognised arguments: {}", args.join(" ")))
    }
}

fn parse_dims(s: &str) -> Result<Dims, String> {
    let parts: Result<Vec<usize>, _> = s.split('x').map(|p| p.parse::<usize>()).collect();
    let parts = parts.map_err(|_| format!("bad dims `{s}` (expected e.g. 256x256)"))?;
    if parts.contains(&0) {
        return Err(format!("bad dims `{s}`: zero extent"));
    }
    match *parts.as_slice() {
        [n] => Ok(Dims::d1(n)),
        [ny, nx] => Ok(Dims::d2(ny, nx)),
        [nz, ny, nx] => Ok(Dims::d3(nz, ny, nx)),
        _ => Err(format!("bad dims `{s}`: rank must be 1..=3")),
    }
}

fn parse_codec(s: &str) -> Result<CodecId, String> {
    match s.to_ascii_lowercase().as_str() {
        "aesz" | "ae-sz" => Ok(CodecId::AeSz),
        "sz2" | "sz2.1" => Ok(CodecId::Sz2),
        "zfp" => Ok(CodecId::Zfp),
        "szauto" => Ok(CodecId::SzAuto),
        "szinterp" => Ok(CodecId::SzInterp),
        "aea" | "ae-a" => Ok(CodecId::AeA),
        "aeb" | "ae-b" => Ok(CodecId::AeB),
        other => Err(format!("unknown codec `{other}`")),
    }
}

fn parse_app(s: &str) -> Result<Application, String> {
    match s.to_ascii_lowercase().as_str() {
        "cesm" | "cesm-cldhgh" => Ok(Application::CesmCldhgh),
        "cesm-freqsh" => Ok(Application::CesmFreqsh),
        "exafel" => Ok(Application::Exafel),
        "nyx" | "nyx-baryon" => Ok(Application::NyxBaryonDensity),
        "nyx-temp" => Ok(Application::NyxTemperature),
        "nyx-dm" => Ok(Application::NyxDarkMatterDensity),
        "hurricane-u" => Ok(Application::HurricaneU),
        "hurricane-qvapor" => Ok(Application::HurricaneQvapor),
        "rtm" => Ok(Application::Rtm),
        other => Err(format!("unknown application `{other}`")),
    }
}

fn parse_f64(s: &str, what: &str) -> Result<f64, String> {
    s.parse::<f64>().map_err(|_| format!("bad {what} `{s}`"))
}

fn parse_usize(s: &str, what: &str) -> Result<usize, String> {
    s.parse::<usize>().map_err(|_| format!("bad {what} `{s}`"))
}

fn parse_channels(s: &str) -> Result<Vec<usize>, String> {
    let parts: Result<Vec<usize>, _> = s.split(',').map(|p| p.trim().parse::<usize>()).collect();
    let parts = parts.map_err(|_| format!("bad channels `{s}` (expected e.g. 8,16)"))?;
    if parts.is_empty() || parts.contains(&0) {
        return Err(format!(
            "bad channels `{s}`: need at least one, all non-zero"
        ));
    }
    Ok(parts)
}

// --------------------------------------------------------------- model files

/// Read a whole raw `f32` field into memory (training needs the blocks).
fn read_field(path: &str, dims: Dims) -> Result<Field, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let expected = dims.len() * 4;
    if bytes.len() != expected {
        return Err(format!(
            "{path} holds {} bytes but dims {dims} need {expected} (f32)",
            bytes.len()
        ));
    }
    Field::from_le_bytes(dims, &bytes).map_err(|_| format!("{path}: byte/dims mismatch"))
}

/// Load a sidecar `AESM` model file into a trained compressor.
fn load_model_file(path: &str) -> Result<(EmbeddedModel, Box<dyn Compressor>), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let (model, codec) = EmbeddedModel::from_frame(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let built = build_compressor(&model).map_err(|e| format!("{path}: {e}"))?;
    // Diagnostic, so stderr: compress/append may be piping their archive
    // through stdout when this prints.
    eprintln!(
        "loaded {} model {} from {path} ({} bytes)",
        codec.name(),
        model.id,
        bytes.len()
    );
    Ok((model, built))
}

/// Training knobs shared by `aesz train` and `compress --train`.
fn take_train_settings(args: &mut Vec<String>) -> Result<TrainSettings, String> {
    let mut take_usize = |name: &str| match take_opt(args, name)? {
        Some(s) => parse_usize(&s, name.trim_start_matches('-')).map(Some),
        None => Ok(None),
    };
    Ok(TrainSettings {
        epochs: take_usize("--epochs")?,
        block: take_usize("--block")?,
        latent: take_usize("--latent")?,
        max_blocks: take_usize("--max-blocks")?,
        seed: take_usize("--train-seed")?.map_or(2021, |s| s as u64),
        channels: match take_opt(args, "--channels")? {
            Some(s) => Some(parse_channels(&s)?),
            None => None,
        },
    })
}

// ------------------------------------------------------------- file chunk IO

/// Fill `buf` from `input`, looping over short reads, and return how many
/// bytes landed (< `buf.len()` only at end of input). Plain `read()` may
/// return counts that are not multiples of 4 — pipes routinely do — which
/// would shear every following `f32` off its byte boundary.
fn read_full(input: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = input.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(filled)
}

/// Enumerate the contiguous runs (element offset + length) a chunk occupies
/// inside a row-major file, in row-major order over the chunk.
fn for_each_run(
    dims: Dims,
    spec: &BlockSpec,
    mut f: impl FnMut(u64, usize) -> Result<(), String>,
) -> Result<(), String> {
    match dims {
        Dims::D1 { .. } => f(spec.origin[0] as u64, spec.size[0]),
        Dims::D2 { nx, .. } => {
            for y in 0..spec.size[0] {
                let at = (spec.origin[0] + y) * nx + spec.origin[1];
                f(at as u64, spec.size[1])?;
            }
            Ok(())
        }
        Dims::D3 { ny, nx, .. } => {
            for z in 0..spec.size[0] {
                for y in 0..spec.size[1] {
                    let at =
                        ((spec.origin[0] + z) * ny + (spec.origin[1] + y)) * nx + spec.origin[2];
                    f(at as u64, spec.size[2])?;
                }
            }
            Ok(())
        }
    }
}

/// [`ChunkSource`] over a raw little-endian `f32` file, read with seeks so
/// only one chunk is resident at a time.
struct RawFileSource {
    file: File,
    dims: Dims,
}

impl RawFileSource {
    fn open(path: &str, dims: Dims) -> Result<Self, String> {
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
        Ok(RawFileSource { file, dims })
    }
}

impl ChunkSource for RawFileSource {
    fn dims(&self) -> Dims {
        self.dims
    }

    fn min_max(&mut self) -> std::io::Result<(f32, f32)> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = vec![0u8; 1 << 16];
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        loop {
            // The file length is a validated multiple of 4, so a full read
            // (and the final partial one) always lands on f32 boundaries.
            let n = read_full(&mut self.file, &mut buf)?;
            if n == 0 {
                break;
            }
            for v in buf[..n].chunks_exact(4) {
                let x = f32::from_le_bytes([v[0], v[1], v[2], v[3]]);
                if x.is_nan() {
                    continue;
                }
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
        if lo > hi {
            Ok((0.0, 0.0))
        } else {
            Ok((lo, hi))
        }
    }

    fn read_chunk(&mut self, spec: &BlockSpec) -> std::io::Result<Field> {
        let mut values = Vec::with_capacity(spec.valid_len());
        let mut row = Vec::new();
        let file = &mut self.file;
        for_each_run(self.dims, spec, |offset, len| {
            file.seek(SeekFrom::Start(offset * 4))
                .map_err(|e| e.to_string())?;
            row.resize(len * 4, 0);
            file.read_exact(&mut row).map_err(|e| e.to_string())?;
            for v in row.chunks_exact(4) {
                values.push(f32::from_le_bytes([v[0], v[1], v[2], v[3]]));
            }
            Ok(())
        })
        .map_err(std::io::Error::other)?;
        Ok(
            Field::from_vec(aesz_repro::archive::chunk_dims(spec), values)
                .expect("run lengths sum to the chunk size"),
        )
    }
}

/// [`ChunkSink`] writing decoded chunks into a raw `f32` file with seeks.
struct RawFileSink {
    file: File,
    dims: Dims,
}

impl RawFileSink {
    fn create(path: &str, dims: Dims) -> Result<Self, String> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| format!("create {path}: {e}"))?;
        file.set_len(dims.len() as u64 * 4)
            .map_err(|e| format!("size {path}: {e}"))?;
        Ok(RawFileSink { file, dims })
    }
}

impl ChunkSink for RawFileSink {
    fn write_chunk(&mut self, spec: &BlockSpec, chunk: &Field) -> std::io::Result<()> {
        let values = chunk.as_slice();
        let mut taken = 0usize;
        let file = &mut self.file;
        for_each_run(self.dims, spec, |offset, len| {
            file.seek(SeekFrom::Start(offset * 4))
                .map_err(|e| e.to_string())?;
            let mut row = Vec::with_capacity(len * 4);
            for &v in &values[taken..taken + len] {
                row.extend_from_slice(&v.to_le_bytes());
            }
            taken += len;
            file.write_all(&row).map_err(|e| e.to_string())?;
            Ok(())
        })
        .map_err(std::io::Error::other)
    }
}

/// [`ChunkSource`] over a pipe of raw little-endian `f32` values: buffers
/// one *band* (a chunk-row of the field) and serves chunk reads out of it.
/// The archive writers read chunks in ascending index order, which over a
/// row-major chunk grid means band by band — so one band of residency is
/// enough and the pipe never rewinds.
struct BandSource<R: Read> {
    input: R,
    dims: Dims,
    chunk: usize,
    /// Elements per slow-axis row (product of every extent but the slowest).
    row_elems: usize,
    /// First slow-axis row currently buffered; `band` holds `band_rows`
    /// rows from there (zero rows before the first read).
    band_start: usize,
    band_rows: usize,
    band: Vec<f32>,
    bytes: Vec<u8>,
}

impl<R: Read> BandSource<R> {
    fn new(input: R, dims: Dims, chunk: usize) -> Self {
        let slow = dims.extents()[0];
        BandSource {
            input,
            dims,
            chunk,
            row_elems: dims.len() / slow,
            band_start: 0,
            band_rows: 0,
            band: Vec::new(),
            bytes: Vec::new(),
        }
    }

    /// Advance the band until it holds slow-axis row `row`, which must lie
    /// at or past the buffered band — pipes only move forward.
    fn load_to(&mut self, row: usize) -> std::io::Result<()> {
        let slow = self.dims.extents()[0];
        while row >= self.band_start + self.band_rows && self.band_start + self.band_rows < slow {
            self.band_start += self.band_rows;
            self.band_rows = self.chunk.min(slow - self.band_start);
            self.bytes.resize(self.band_rows * self.row_elems * 4, 0);
            let got = read_full(&mut self.input, &mut self.bytes)?;
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
            self.band.clear();
            self.band.extend(
                self.bytes
                    .chunks_exact(4)
                    .map(|v| f32::from_le_bytes([v[0], v[1], v[2], v[3]])),
            );
        }
        if row < self.band_start || row >= self.band_start + self.band_rows {
            return Err(std::io::Error::other(
                "chunk read outside the buffered band; a pipe cannot rewind",
            ));
        }
        Ok(())
    }
}

impl<R: Read> ChunkSource for BandSource<R> {
    fn dims(&self) -> Dims {
        self.dims
    }

    fn min_max(&mut self) -> std::io::Result<(f32, f32)> {
        // Resolving a relative bound needs the full value range up front,
        // and scanning for it would consume the pipe. cmd_compress rejects
        // --rel with piped input before it gets here.
        Err(std::io::Error::other(
            "a piped source cannot be pre-scanned for its value range; use --abs",
        ))
    }

    fn read_chunk(&mut self, spec: &BlockSpec) -> std::io::Result<Field> {
        self.load_to(spec.origin[0])?;
        let mut values = Vec::with_capacity(spec.valid_len());
        let band = &self.band;
        let base = self.band_start * self.row_elems;
        for_each_run(self.dims, spec, |offset, len| {
            let at = (offset as usize)
                .checked_sub(base)
                .filter(|at| at + len <= band.len())
                .ok_or_else(|| "chunk run outside the buffered band".to_string())?;
            values.extend_from_slice(&band[at..at + len]);
            Ok(())
        })
        .map_err(std::io::Error::other)?;
        Ok(
            Field::from_vec(aesz_repro::archive::chunk_dims(spec), values)
                .expect("run lengths sum to the chunk size"),
        )
    }
}

/// [`ChunkSink`] feeding a pipe of raw little-endian `f32` values: decoded
/// chunks land in a one-band buffer that is flushed, in order, the moment
/// decoding moves past it. The windowed decoder and the push decoder both
/// emit chunks in ascending index order for well-formed archives, so a band
/// is complete when the first chunk of the next band arrives.
struct BandSink<W: Write> {
    out: W,
    dims: Dims,
    chunk: usize,
    row_elems: usize,
    band_start: usize,
    band_rows: usize,
    band: Vec<f32>,
}

impl<W: Write> BandSink<W> {
    fn new(out: W, dims: Dims, chunk: usize) -> Self {
        let slow = dims.extents()[0];
        let band_rows = chunk.min(slow);
        let row_elems = dims.len() / slow;
        BandSink {
            out,
            dims,
            chunk,
            row_elems,
            band_start: 0,
            band_rows,
            band: vec![0.0; band_rows * row_elems],
        }
    }

    fn flush_band(&mut self) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(self.band.len() * 4);
        for &v in &self.band {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.out.write_all(&bytes)?;
        let slow = self.dims.extents()[0];
        self.band_start += self.band_rows;
        self.band_rows = self.chunk.min(slow.saturating_sub(self.band_start));
        self.band.clear();
        self.band.resize(self.band_rows * self.row_elems, 0.0);
        Ok(())
    }

    /// Write out whatever bands remain — the last band has no successor
    /// chunk to trigger its flush — and flush the pipe.
    fn finish(&mut self) -> std::io::Result<()> {
        while self.band_rows > 0 {
            self.flush_band()?;
        }
        self.out.flush()
    }
}

impl<W: Write> ChunkSink for BandSink<W> {
    fn write_chunk(&mut self, spec: &BlockSpec, chunk: &Field) -> std::io::Result<()> {
        while self.band_rows > 0 && spec.origin[0] >= self.band_start + self.band_rows {
            self.flush_band()?;
        }
        if self.band_rows == 0 || spec.origin[0] < self.band_start {
            // A chunk deferred on a late-arriving embedded model replays out
            // of order; that needs a seekable output file.
            return Err(std::io::Error::other(
                "decoded chunk arrived behind the already-flushed band; \
                 a piped output cannot seek — decompress to a file",
            ));
        }
        let values = chunk.as_slice();
        let base = self.band_start * self.row_elems;
        let band = &mut self.band;
        let mut taken = 0usize;
        for_each_run(self.dims, spec, |offset, len| {
            let at = offset as usize - base;
            band[at..at + len].copy_from_slice(&values[taken..taken + len]);
            taken += len;
            Ok(())
        })
        .map_err(std::io::Error::other)
    }
}

/// [`ChunkSink`] that compares decoded chunks against the original source
/// instead of storing them — the streaming PSNR/max-error accumulator of
/// `compress --verify`.
struct VerifySink {
    original: RawFileSource,
    sum_sq: f64,
    max_abs: f64,
    count: u64,
}

impl ChunkSink for VerifySink {
    fn write_chunk(&mut self, spec: &BlockSpec, chunk: &Field) -> std::io::Result<()> {
        let reference = self.original.read_chunk(spec)?;
        for (&a, &b) in reference.as_slice().iter().zip(chunk.as_slice()) {
            let d = (a as f64 - b as f64).abs();
            self.sum_sq += d * d;
            self.max_abs = self.max_abs.max(d);
            self.count += 1;
        }
        Ok(())
    }
}

fn psnr(range: f64, sum_sq: f64, count: u64) -> f64 {
    if count == 0 || sum_sq == 0.0 {
        return f64::INFINITY;
    }
    let mse = sum_sq / count as f64;
    20.0 * range.log10() - 10.0 * mse.log10()
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

// ------------------------------------------------------------- subcommands

fn cmd_gen(mut args: Vec<String>) -> Result<(), String> {
    let app = parse_app(&need_opt(&mut args, "--app")?)?;
    let dims = parse_dims(&need_opt(&mut args, "--dims")?)?;
    let output = need_opt(&mut args, "--output")?;
    let seed = match take_opt(&mut args, "--seed")? {
        Some(s) => parse_usize(&s, "seed")? as u64,
        None => 0,
    };
    finish_args(args)?;
    let field = app.generate(dims, seed);
    let piped = output == "-";
    if piped {
        let mut out = BufWriter::new(std::io::stdout().lock());
        out.write_all(&field.to_le_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| format!("write stdout: {e}"))?;
    } else {
        let mut out =
            BufWriter::new(File::create(&output).map_err(|e| format!("create {output}: {e}"))?);
        out.write_all(&field.to_le_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| format!("write {output}: {e}"))?;
    }
    let (lo, hi) = field.min_max();
    status!(
        piped,
        "wrote {} ({} elements, {:.1} MB) range [{lo}, {hi}]",
        output,
        field.len(),
        mb(field.len() * 4)
    );
    Ok(())
}

fn cmd_train(mut args: Vec<String>) -> Result<(), String> {
    let codec = match take_opt(&mut args, "--codec")? {
        Some(s) => parse_codec(&s)?,
        None => CodecId::AeSz,
    };
    let dims = parse_dims(&need_opt(&mut args, "--dims")?)?;
    let output = need_opt(&mut args, "--output")?;
    let input = take_opt(&mut args, "--input")?;
    let app = take_opt(&mut args, "--app")?;
    let seed = match take_opt(&mut args, "--seed")? {
        Some(s) => parse_usize(&s, "seed")? as u64,
        None => 0,
    };
    let knobs = take_train_settings(&mut args)?;
    finish_args(args)?;

    let field = match (&input, &app) {
        (Some(path), None) => read_field(path, dims)?,
        (None, Some(name)) => parse_app(name)?.generate(dims, seed),
        _ => {
            return Err(format!(
                "exactly one of --input / --app is required\n{USAGE}"
            ))
        }
    };
    let t0 = Instant::now();
    let (model, _) = train_compressor(codec, &field, &knobs)?;
    let secs = t0.elapsed().as_secs_f64();
    std::fs::write(&output, &model.frame).map_err(|e| format!("write {output}: {e}"))?;
    emit!(
        "trained {} on {} ({} elements) in {secs:.2} s ({:.2} MB/s of training data)",
        codec.name(),
        input.or(app).unwrap_or_default(),
        field.len(),
        mb(field.len() * 4) / secs,
    );
    emit!(
        "model {} -> {output} ({} bytes); decode with `--model {output}` or name it \
         <id>.aesm in a sidecar directory",
        model.id,
        model.frame.len()
    );
    Ok(())
}

fn cmd_compress(mut args: Vec<String>) -> Result<(), String> {
    let input = need_opt(&mut args, "--input")?;
    let dims = parse_dims(&need_opt(&mut args, "--dims")?)?;
    let codec = parse_codec(&need_opt(&mut args, "--codec")?)?;
    let output = need_opt(&mut args, "--output")?;
    let rel = take_opt(&mut args, "--rel")?;
    let abs = take_opt(&mut args, "--abs")?;
    let bound = match (rel, abs) {
        (Some(e), None) => ErrorBound::rel(parse_f64(&e, "relative bound")?),
        (None, Some(e)) => ErrorBound::abs(parse_f64(&e, "absolute bound")?),
        _ => return Err(format!("exactly one of --rel / --abs is required\n{USAGE}")),
    };
    let mut opts = ArchiveOptions::new();
    if let Some(s) = take_opt(&mut args, "--chunk")? {
        opts = opts.chunk(parse_usize(&s, "chunk")?);
    }
    if let Some(s) = take_opt(&mut args, "--window")? {
        opts = opts.window(parse_usize(&s, "window")?);
    }
    let verify = take_flag(&mut args, "--verify");
    let train = take_flag(&mut args, "--train");
    let embed_model = take_flag(&mut args, "--embed-model");
    let model_path = take_opt(&mut args, "--model")?;
    let knobs = take_train_settings(&mut args)?;
    finish_args(args)?;

    let piped_in = input == "-";
    let piped_out = output == "-";
    if piped_in && matches!(bound, ErrorBound::RangeRel(_)) {
        return Err(
            "--rel resolves against the value range, which means scanning the \
                    input twice; a pipe cannot be re-read — use --abs with --input -"
                .into(),
        );
    }
    if piped_in && train {
        return Err(
            "--train needs the whole field resident; train offline (`aesz train`) \
                    and pass --model instead of piping the training data"
                .into(),
        );
    }
    if piped_in && verify {
        return Err("--verify re-reads the input, which a pipe cannot replay".into());
    }
    if piped_out && verify {
        return Err("--verify re-reads the output archive; write a file to verify".into());
    }
    if piped_out && embed_model {
        return Err(
            "--embed-model back-patches the archive header, which needs a \
                    seekable output; write a file to embed models"
                .into(),
        );
    }

    let mut registry = Registry::with_defaults();
    if train {
        // The paper's offline stage, inline: train the codec on the field
        // being compressed, then (optionally) ship the model as a sidecar.
        let field = read_field(&input, dims)?;
        let t0 = Instant::now();
        let (model, built) = train_compressor(codec, &field, &knobs)?;
        status!(
            piped_out,
            "trained {} model {} in {:.2} s",
            codec.name(),
            model.id,
            t0.elapsed().as_secs_f64()
        );
        if let Some(path) = &model_path {
            std::fs::write(path, &model.frame).map_err(|e| format!("write {path}: {e}"))?;
            status!(piped_out, "model saved to {path}");
        }
        registry.register(built);
    } else if let Some(path) = &model_path {
        let (model, built) = load_model_file(path)?;
        if built.codec_id() != codec {
            return Err(format!(
                "{path} holds a {} model but --codec is {}",
                built.codec_id().name(),
                codec.name()
            ));
        }
        let _ = model;
        registry.register(built);
    }
    let registry = registry;
    let t0 = Instant::now();
    let mut codecs = |_spec: &BlockSpec| {
        registry
            .fork(codec)
            .ok_or(aesz_repro::CompressError::UnsupportedField(
                "codec not registered",
            ))
    };
    let mut file_source;
    let mut pipe_source;
    let source: &mut dyn ChunkSource = if piped_in {
        pipe_source = BandSource::new(std::io::stdin().lock(), dims, opts.chunk_edge());
        &mut pipe_source
    } else {
        file_source = RawFileSource::open(&input, dims)?;
        &mut file_source
    };
    let stats = if piped_out {
        let mut sink = BufWriter::new(std::io::stdout().lock());
        write_archive_stream(source, bound, &opts, &mut codecs, &mut sink)
            .and_then(|stats| Ok(sink.flush().map(|()| stats)?))
    } else {
        let file = File::create(&output).map_err(|e| format!("create {output}: {e}"))?;
        let mut sink = BufWriter::new(file);
        if embed_model {
            write_archive_embedding(source, bound, &opts, &mut codecs, &mut sink)
        } else {
            write_archive_stream(source, bound, &opts, &mut codecs, &mut sink)
        }
        .and_then(|stats| Ok(sink.flush().map(|()| stats)?))
    }
    .map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();

    status!(
        piped_out,
        "{} -> {}: {} chunks (chunk {}, window {}), {} -> {} bytes",
        input,
        output,
        stats.chunks,
        opts.chunk_edge(),
        opts.window_chunks(),
        stats.raw_bytes,
        stats.archive_bytes
    );
    status!(
        piped_out,
        "codec {}, bound {}, ratio {:.2}:1, {:.1} MB/s, peak window payload {:.2} MB",
        codec.name(),
        bound,
        stats.raw_bytes as f64 / stats.archive_bytes as f64,
        mb(stats.raw_bytes) / secs,
        mb(stats.peak_window_raw_bytes),
    );
    if embed_model {
        status!(
            piped_out,
            "embedded model section: {} bytes",
            stats.model_bytes
        );
    }

    if verify {
        let bytes = std::fs::read(&output).map_err(|e| format!("read {output}: {e}"))?;
        let reader = ArchiveReader::open(&bytes).map_err(|e| e.to_string())?;
        let mut original = RawFileSource::open(&input, dims)?;
        let (lo, hi) = original.min_max().map_err(|e| e.to_string())?;
        let mut check = VerifySink {
            original,
            sum_sq: 0.0,
            max_abs: 0.0,
            count: 0,
        };
        let mut resolver = ModelResolver::for_archive(&registry, &reader);
        reader
            .decode_into(
                opts.window_chunks(),
                &mut |i, id| resolver.chunk_decoder(&reader, i, id),
                &mut check,
            )
            .map_err(|e| e.to_string())?;
        let resolved = bound.absolute(lo, hi);
        let ok = check.max_abs <= resolved * 1.0001;
        emit!(
            "verify: PSNR {:.2} dB, max abs err {:.3e} (bound {:.3e}) {}",
            psnr((hi - lo) as f64, check.sum_sq, check.count),
            check.max_abs,
            resolved,
            if ok { "OK" } else { "VIOLATED" }
        );
        if !ok {
            return Err("error bound violated".into());
        }
    }
    Ok(())
}

fn cmd_decompress(mut args: Vec<String>) -> Result<(), String> {
    let input = need_opt(&mut args, "--input")?;
    let output = need_opt(&mut args, "--output")?;
    let window = match take_opt(&mut args, "--window")? {
        Some(s) => parse_usize(&s, "window")?,
        None => ArchiveOptions::default().window_chunks(),
    };
    let model_path = take_opt(&mut args, "--model")?;
    let verify = take_flag(&mut args, "--verify");
    finish_args(args)?;

    let piped_in = input == "-";
    let piped_out = output == "-";
    if verify && (piped_in || piped_out) {
        return Err("--verify re-reads both files, which pipes cannot replay".into());
    }

    let mut registry = Registry::with_defaults();
    if let Some(path) = &model_path {
        // Sidecar model: goes into the store so per-chunk resolution can
        // match it to the exact streams that name it.
        let id = registry
            .model_store_mut()
            .insert_file(std::path::Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        status!(piped_out, "loaded sidecar model {id} from {path}");
    }
    let registry = registry;
    if piped_in {
        return decompress_stdin(&registry, &output, piped_out, window);
    }
    let bytes = std::fs::read(&input).map_err(|e| format!("read {input}: {e}"))?;
    let t0 = Instant::now();
    let reader = ArchiveReader::open(&bytes).map_err(|e| e.to_string())?;
    for &(id, frame) in reader.models() {
        let codec = aesz_repro::metrics::container::read_model_frame(frame)
            .map(|(c, _)| c.name())
            .unwrap_or("?");
        status!(piped_out, "archive embeds {codec} model {id}");
    }
    // Per-chunk model resolution: the archive's embedded models, then the
    // registry's store (the sidecar above) — so the learned chunks decode
    // in this fresh process.
    let mut resolver = ModelResolver::for_archive(&registry, &reader);
    let mut decoders = |i, id| resolver.chunk_decoder(&reader, i, id);
    let dims = reader.dims();
    if piped_out {
        let mut sink = BandSink::new(
            BufWriter::new(std::io::stdout().lock()),
            dims,
            reader.header().chunk,
        );
        reader
            .decode_into(window, &mut decoders, &mut sink)
            .map_err(|e| e.to_string())?;
        sink.finish().map_err(|e| format!("write stdout: {e}"))?;
    } else {
        let mut sink = RawFileSink::create(&output, dims)?;
        reader
            .decode_into(window, &mut decoders, &mut sink)
            .map_err(|e| e.to_string())?;
        sink.file.flush().map_err(|e| e.to_string())?;
    }
    let secs = t0.elapsed().as_secs_f64();
    let raw = dims.len() * 4;
    status!(
        piped_out,
        "{} -> {}: dims {}, {} chunks, {} -> {} bytes, {:.1} MB/s",
        input,
        output,
        dims,
        reader.chunk_count(),
        bytes.len(),
        raw,
        mb(raw) / secs,
    );

    if verify {
        // Self-check: decode every chunk again through the random-access
        // path and compare against what the windowed decode wrote — the two
        // paths must agree bit for bit.
        let mut written = RawFileSource::open(&output, dims)?;
        for i in 0..reader.chunk_count() {
            let entry = reader.entries()[i];
            let mut codec = resolver
                .chunk_decoder(&reader, i, entry.codec)
                .map_err(|e| format!("chunk {i}: {e}"))?;
            let chunk = reader
                .decode_chunk(i, codec.as_mut())
                .map_err(|e| format!("chunk {i}: {e}"))?;
            let spec = reader.chunk_spec(i).expect("in range");
            let on_disk = written.read_chunk(&spec).map_err(|e| e.to_string())?;
            for (a, b) in chunk.as_slice().iter().zip(on_disk.as_slice()) {
                if a.to_bits() != b.to_bits() {
                    return Err(format!(
                        "verify: chunk {i} random-access decode diverged from the output file"
                    ));
                }
            }
        }
        emit!(
            "verify: all {} chunks random-access decode bit-identically OK",
            reader.chunk_count()
        );
    }
    Ok(())
}

/// `decompress --input -`: drive the push-based [`StreamFieldDecoder`] off
/// stdin, decoding `window` chunks at a time in parallel as their frames
/// arrive. Chunks are written as each window decodes — with seeks into the
/// output file, or forwarded band by band when the output is stdout too —
/// so resident memory is one band plus one window of chunks plus the
/// parser's bounded buffer, never the archive or the field.
fn decompress_stdin(
    registry: &Registry,
    output: &str,
    piped_out: bool,
    window: usize,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut decoder = StreamFieldDecoder::with_window(registry, window);
    let mut input = std::io::stdin().lock();
    let mut file_sink: Option<RawFileSink> = None;
    let mut band_sink: Option<BandSink<BufWriter<std::io::StdoutLock>>> = None;
    let mut dims_seen: Option<Dims> = None;
    let mut chunks = 0usize;
    let mut bytes_in = 0usize;
    let mut buf = [0u8; 1 << 16];
    loop {
        let n = input
            .read(&mut buf)
            .map_err(|e| format!("read stdin: {e}"))?;
        if n == 0 {
            decoder.finish();
        } else {
            bytes_in += n;
            decoder.feed(&buf[..n]);
        }
        while let Some(out) = decoder.poll().map_err(|e| e.to_string())? {
            match out {
                StreamOutput::Header(h) => {
                    dims_seen = Some(h.dims);
                    if piped_out {
                        band_sink = Some(BandSink::new(
                            BufWriter::new(std::io::stdout().lock()),
                            h.dims,
                            h.chunk,
                        ));
                    } else {
                        file_sink = Some(RawFileSink::create(output, h.dims)?);
                    }
                }
                StreamOutput::Chunk(spec, chunk) => {
                    chunks += 1;
                    if let Some(sink) = band_sink.as_mut() {
                        sink.write_chunk(&spec, &chunk)
                            .map_err(|e| format!("write stdout: {e}"))?;
                    } else if let Some(sink) = file_sink.as_mut() {
                        sink.write_chunk(&spec, &chunk)
                            .map_err(|e| format!("write {output}: {e}"))?;
                    }
                }
                StreamOutput::Field(field) => {
                    // The stream was one container frame, not an archive:
                    // the decoder hands over the whole reconstruction.
                    dims_seen = Some(field.dims());
                    let bytes = field.to_le_bytes();
                    if piped_out {
                        let mut out = std::io::stdout().lock();
                        out.write_all(&bytes)
                            .and_then(|()| out.flush())
                            .map_err(|e| format!("write stdout: {e}"))?;
                    } else {
                        std::fs::write(output, &bytes)
                            .map_err(|e| format!("write {output}: {e}"))?;
                    }
                }
            }
        }
        if n == 0 {
            break;
        }
    }
    if let Some(mut sink) = band_sink {
        sink.finish().map_err(|e| format!("write stdout: {e}"))?;
    }
    if let Some(mut sink) = file_sink {
        sink.file.flush().map_err(|e| e.to_string())?;
    }
    let dims = dims_seen.ok_or("empty stream")?;
    let secs = t0.elapsed().as_secs_f64();
    let raw = dims.len() * 4;
    status!(
        piped_out,
        "- -> {}: dims {}, {} chunks, {} -> {} bytes, {:.1} MB/s, peak parser buffer {} bytes",
        output,
        dims,
        chunks,
        bytes_in,
        raw,
        mb(raw) / secs,
        decoder.peak_buffered(),
    );
    Ok(())
}

fn cmd_append(mut args: Vec<String>) -> Result<(), String> {
    let archive = need_opt(&mut args, "--archive")?;
    let input = need_opt(&mut args, "--input")?;
    let dims = parse_dims(&need_opt(&mut args, "--dims")?)?;
    let codec = parse_codec(&need_opt(&mut args, "--codec")?)?;
    // Appends only take --abs: a relative bound would resolve against the
    // new slab's range alone and silently diverge from the archive's bound.
    let bound = ErrorBound::abs(parse_f64(&need_opt(&mut args, "--abs")?, "absolute bound")?);
    let window = match take_opt(&mut args, "--window")? {
        Some(s) => parse_usize(&s, "window")?,
        None => ArchiveOptions::default().window_chunks(),
    };
    let embed_model = take_flag(&mut args, "--embed-model");
    let model_path = take_opt(&mut args, "--model")?;
    finish_args(args)?;

    let mut registry = Registry::with_defaults();
    if let Some(path) = &model_path {
        let (_, built) = load_model_file(path)?;
        if built.codec_id() != codec {
            return Err(format!(
                "{path} holds a {} model but --codec is {}",
                built.codec_id().name(),
                codec.name()
            ));
        }
        registry.register(built);
    }
    let registry = registry;

    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&archive)
        .map_err(|e| format!("open {archive}: {e}"))?;
    let mut appender = ArchiveAppender::open(file).map_err(|e| format!("{archive}: {e}"))?;
    let chunk = appender.header().chunk;
    let old_dims = appender.header().dims;
    let spare_before = appender.spare_slots();

    let t0 = Instant::now();
    let mut codecs = |_spec: &BlockSpec| {
        registry
            .fork(codec)
            .ok_or(aesz_repro::CompressError::UnsupportedField(
                "codec not registered",
            ))
    };
    let mut file_source;
    let mut pipe_source;
    let source: &mut dyn ChunkSource = if input == "-" {
        pipe_source = BandSource::new(std::io::stdin().lock(), dims, chunk);
        &mut pipe_source
    } else {
        file_source = RawFileSource::open(&input, dims)?;
        &mut file_source
    };
    let stats = if embed_model {
        appender.append_embedding(source, bound, window, &mut codecs)
    } else {
        appender.append(source, bound, window, &mut codecs)
    }
    .map_err(|e| e.to_string())?;
    let new_dims = appender.header().dims;
    let spare_after = appender.spare_slots();
    let file = appender.finalize().map_err(|e| e.to_string())?;
    file.sync_all()
        .map_err(|e| format!("sync {archive}: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();

    emit!(
        "{archive}: dims {old_dims} -> {new_dims}, +{} chunks (chunk {chunk}), \
         {} -> {} bytes, {:.1} MB/s",
        stats.chunks,
        stats.raw_bytes,
        stats.archive_bytes,
        mb(stats.raw_bytes) / secs,
    );
    if spare_before == usize::MAX {
        emit!("inline archive (no index): append capacity is unbounded");
    } else {
        emit!("index slots: {spare_before} spare before, {spare_after} after");
    }
    Ok(())
}

fn cmd_info(mut args: Vec<String>) -> Result<(), String> {
    let input = need_opt(&mut args, "--input")?;
    finish_args(args)?;
    let bytes = std::fs::read(&input).map_err(|e| format!("read {input}: {e}"))?;
    let reader = ArchiveReader::open(&bytes).map_err(|e| e.to_string())?;
    let header = reader.header();
    emit!(
        "{input}: AESA v{}, f32, dims {} ({} elements), chunk {} -> {} chunks",
        header.version,
        header.dims,
        header.dims.len(),
        header.chunk,
        reader.chunk_count()
    );
    emit!(
        "archive {} bytes (ratio {:.2}:1), header+index {} bytes",
        bytes.len(),
        (header.dims.len() * 4) as f64 / bytes.len() as f64,
        header.data_start(),
    );
    for id in CodecId::all() {
        let (count, frame_bytes) = reader
            .entries()
            .iter()
            .filter(|e| e.codec == id)
            .fold((0usize, 0u64), |(n, b), e| (n + 1, b + e.len));
        if count > 0 {
            emit!("  {:<9} {count:>6} chunks, {frame_bytes} bytes", id.name());
        }
    }
    if !reader.models().is_empty() {
        emit!("embedded models ({} bytes):", header.model_len);
        for &(id, frame) in reader.models() {
            let codec = aesz_repro::metrics::container::read_model_frame(frame)
                .map(|(c, _)| c.name())
                .unwrap_or("?");
            emit!("  {codec:<9} {id} ({} bytes)", frame.len());
        }
    }
    Ok(())
}

fn cmd_compare(mut args: Vec<String>) -> Result<(), String> {
    let a = need_opt(&mut args, "--a")?;
    let b = need_opt(&mut args, "--b")?;
    let dims = parse_dims(&need_opt(&mut args, "--dims")?)?;
    let max_abs = match take_opt(&mut args, "--max-abs")? {
        Some(s) => Some(parse_f64(&s, "max-abs")?),
        None => None,
    };
    finish_args(args)?;

    let mut fa = RawFileSource::open(&a, dims)?;
    let mut fb = RawFileSource::open(&b, dims)?;
    let (lo, hi) = fa.min_max().map_err(|e| e.to_string())?;
    fa.file
        .seek(SeekFrom::Start(0))
        .map_err(|e| e.to_string())?;
    let (mut sum_sq, mut worst, mut count) = (0.0f64, 0.0f64, 0u64);
    let mut buf_a = vec![0u8; 1 << 16];
    let mut buf_b = vec![0u8; 1 << 16];
    loop {
        let n = read_full(&mut fa.file, &mut buf_a).map_err(|e| e.to_string())?;
        if n == 0 {
            break;
        }
        fb.file
            .read_exact(&mut buf_b[..n])
            .map_err(|e| e.to_string())?;
        for (va, vb) in buf_a[..n].chunks_exact(4).zip(buf_b[..n].chunks_exact(4)) {
            let x = f32::from_le_bytes([va[0], va[1], va[2], va[3]]) as f64;
            let y = f32::from_le_bytes([vb[0], vb[1], vb[2], vb[3]]) as f64;
            let d = (x - y).abs();
            sum_sq += d * d;
            worst = worst.max(d);
            count += 1;
        }
    }
    emit!(
        "{a} vs {b}: PSNR {:.2} dB, max abs err {:.3e}",
        psnr((hi - lo) as f64, sum_sq, count),
        worst
    );
    if let Some(cap) = max_abs {
        if worst > cap {
            return Err(format!(
                "max abs err {worst:.3e} exceeds --max-abs {cap:.3e}"
            ));
        }
        emit!("within --max-abs {cap:.3e} OK");
    }
    Ok(())
}

// --------------------------------------------------------------- service

/// `aesz models`: list the `.aesm` sidecar models in a directory, with
/// their content-addressed ids re-verified against the frame bytes.
fn cmd_models(mut args: Vec<String>) -> Result<(), String> {
    let dir = need_opt(&mut args, "--dir")?;
    finish_args(args)?;
    let entries = ModelStore::scan_sidecar_dir(std::path::Path::new(&dir))
        .map_err(|e| format!("scan {dir}: {e}"))?;
    if entries.is_empty() {
        emit!("{dir}: no .aesm sidecar models");
        return Ok(());
    }
    for entry in &entries {
        let codec = entry.codec.map(|c| c.name()).unwrap_or("?");
        let id = match entry.id {
            Some(id) => id.to_string(),
            None => "?".into(),
        };
        emit!(
            "{:<30} {codec:<9} {:>10} bytes  {}  {id}",
            entry.file_name,
            entry.param_bytes,
            if entry.verified {
                "verified  "
            } else {
                "UNVERIFIED"
            },
        );
    }
    Ok(())
}

/// `aesz serve`: run the compression daemon in the foreground. Models
/// trained over the wire stay registered and are shared by every worker,
/// so repeat requests skip the per-process model load the one-shot CLI
/// pays; a model found in `--models DIR` is built by each request that
/// names it.
fn cmd_serve(mut args: Vec<String>) -> Result<(), String> {
    let mut config = ServerConfig::default();
    if let Some(s) = take_opt(&mut args, "--addr")? {
        config.addr = s;
    }
    if let Some(s) = take_opt(&mut args, "--workers")? {
        config.workers = parse_usize(&s, "workers")?.max(1);
    }
    if let Some(s) = take_opt(&mut args, "--queue")? {
        config.queue_cap = parse_usize(&s, "queue")?;
    }
    if let Some(s) = take_opt(&mut args, "--max-conns")? {
        config.max_connections = parse_usize(&s, "max-conns")?.max(1);
    }
    if let Some(s) = take_opt(&mut args, "--max-bytes")? {
        config.max_request_bytes = parse_usize(&s, "max-bytes")? as u64;
    }
    if let Some(s) = take_opt(&mut args, "--max-elems")? {
        config.max_field_elems = parse_usize(&s, "max-elems")?;
    }
    if let Some(s) = take_opt(&mut args, "--models")? {
        config.model_dir = Some(std::path::PathBuf::from(s));
    }
    finish_args(args)?;
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let state = server.state();
    // The bound address goes to stdout (scripts read it, ports may be
    // auto-assigned via :0); flushed by emit_line before run() blocks.
    emit!(
        "aesz serve: listening on {addr} ({} workers, {} queue slots, {} connections max)",
        state.config.workers,
        state.config.queue_cap,
        state.config.max_connections
    );
    server.run().map_err(|e| format!("serve: {e}"))
}

/// `aesz remote`: one request against an `aesz serve` daemon.
fn cmd_remote(mut args: Vec<String>) -> Result<(), String> {
    let addr = need_opt(&mut args, "--addr")?;
    if args.is_empty() {
        return Err(format!(
            "remote needs a verb: compress, decompress, train, health, stats or models\n{USAGE}"
        ));
    }
    let verb = args.remove(0);
    let mut client = RemoteClient::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    match verb.as_str() {
        "compress" => remote_compress(&mut client, args),
        "decompress" => remote_decompress(&mut client, args),
        "train" => remote_train(&mut client, args),
        "health" => {
            finish_args(args)?;
            match remote_request(&mut client, &wire::Request::Health)? {
                wire::Response::HealthOk {
                    uptime_ms,
                    queue_depth,
                } => {
                    emit!(
                        "{addr}: healthy, uptime {:.1} s, queue depth {queue_depth}",
                        uptime_ms as f64 / 1e3
                    );
                    Ok(())
                }
                _ => Err("unexpected response to health".into()),
            }
        }
        "stats" => {
            finish_args(args)?;
            match remote_request(&mut client, &wire::Request::Stats)? {
                wire::Response::StatsOk(s) => {
                    print_stats(&addr, &s);
                    Ok(())
                }
                _ => Err("unexpected response to stats".into()),
            }
        }
        "models" => {
            finish_args(args)?;
            match remote_request(&mut client, &wire::Request::ListModels)? {
                wire::Response::ModelList { entries } => {
                    emit!("{addr}: {} models", entries.len());
                    for e in &entries {
                        emit!(
                            "  {} {:<9} {:>10} bytes  {}",
                            e.id,
                            e.codec.map(|c| c.name()).unwrap_or("?"),
                            e.param_bytes,
                            if e.verified { "verified" } else { "UNVERIFIED" },
                        );
                    }
                    Ok(())
                }
                _ => Err("unexpected response to models".into()),
            }
        }
        other => Err(format!("unknown remote verb `{other}`\n{USAGE}")),
    }
}

/// Send one request, translating the daemon's typed failure responses:
/// `Busy` exits 75 (EX_TEMPFAIL — retry later), `Error` becomes the
/// process-level error message.
fn remote_request(
    client: &mut RemoteClient,
    request: &wire::Request,
) -> Result<wire::Response, String> {
    match client.request(request).map_err(|e| e.to_string())? {
        wire::Response::Busy { queue_depth } => {
            eprintln!("aesz: server busy ({queue_depth} queued); retry later");
            std::process::exit(75);
        }
        wire::Response::Error { code, message } => {
            Err(format!("server error ({code:?}): {message}"))
        }
        other => Ok(other),
    }
}

fn remote_compress(client: &mut RemoteClient, mut args: Vec<String>) -> Result<(), String> {
    let input = need_opt(&mut args, "--input")?;
    let dims = parse_dims(&need_opt(&mut args, "--dims")?)?;
    let codec = parse_codec(&need_opt(&mut args, "--codec")?)?;
    let output = need_opt(&mut args, "--output")?;
    let rel = take_opt(&mut args, "--rel")?;
    let abs = take_opt(&mut args, "--abs")?;
    let bound = match (rel, abs) {
        (Some(e), None) => ErrorBound::rel(parse_f64(&e, "relative bound")?),
        (None, Some(e)) => ErrorBound::abs(parse_f64(&e, "absolute bound")?),
        _ => return Err(format!("exactly one of --rel / --abs is required\n{USAGE}")),
    };
    finish_args(args)?;
    let field = read_field_or_stdin(&input, dims)?;
    let raw_bytes = field.len() * 4;
    let response = remote_request(
        client,
        &wire::Request::Compress {
            codec,
            bound,
            field,
        },
    )?;
    let wire::Response::CompressOk { stream } = response else {
        return Err("unexpected response to compress".into());
    };
    let piped_out = output == "-";
    write_bytes_or_stdout(&output, &stream)?;
    status!(
        piped_out,
        "remote {}: {input} -> {output}, {raw_bytes} -> {} bytes (ratio {:.2}:1)",
        codec.name(),
        stream.len(),
        raw_bytes as f64 / stream.len().max(1) as f64,
    );
    Ok(())
}

fn remote_decompress(client: &mut RemoteClient, mut args: Vec<String>) -> Result<(), String> {
    let input = need_opt(&mut args, "--input")?;
    let output = need_opt(&mut args, "--output")?;
    finish_args(args)?;
    let bytes = read_bytes_or_stdin(&input)?;
    let compressed = bytes.len();
    let response = remote_request(client, &wire::Request::Decompress { bytes })?;
    let wire::Response::DecompressOk { field } = response else {
        return Err("unexpected response to decompress".into());
    };
    let piped_out = output == "-";
    write_bytes_or_stdout(&output, &field.to_le_bytes())?;
    status!(
        piped_out,
        "remote decompress: {input} -> {output}, dims {}, {compressed} -> {} bytes",
        field.dims(),
        field.len() * 4,
    );
    Ok(())
}

fn remote_train(client: &mut RemoteClient, mut args: Vec<String>) -> Result<(), String> {
    let input = need_opt(&mut args, "--input")?;
    let dims = parse_dims(&need_opt(&mut args, "--dims")?)?;
    let codec = match take_opt(&mut args, "--codec")? {
        Some(s) => parse_codec(&s)?,
        None => CodecId::AeSz,
    };
    let output = need_opt(&mut args, "--output")?;
    // Zero means "codec default" on the wire, so absent knobs encode as 0.
    let knobs = wire::TrainKnobs {
        epochs: take_knob_u32(&mut args, "--epochs")?,
        block: take_knob_u32(&mut args, "--block")?,
        latent: take_knob_u32(&mut args, "--latent")?,
        max_blocks: take_knob_u32(&mut args, "--max-blocks")?,
        seed: match take_opt(&mut args, "--train-seed")? {
            Some(s) => parse_usize(&s, "train-seed")? as u64,
            None => 2021,
        },
    };
    finish_args(args)?;
    let field = read_field_or_stdin(&input, dims)?;
    let response = remote_request(
        client,
        &wire::Request::Train {
            codec,
            knobs,
            field,
        },
    )?;
    let wire::Response::TrainOk { id, frame } = response else {
        return Err("unexpected response to train".into());
    };
    let piped_out = output == "-";
    write_bytes_or_stdout(&output, &frame)?;
    status!(
        piped_out,
        "remote train: {} model {id} ({} bytes) -> {output}; now resident on the server",
        codec.name(),
        frame.len(),
    );
    Ok(())
}

/// Parse an optional `u32` training knob; absent means 0 ("codec default").
fn take_knob_u32(args: &mut Vec<String>, name: &str) -> Result<u32, String> {
    match take_opt(args, name)? {
        Some(s) => {
            let v = parse_usize(&s, name.trim_start_matches('-'))?;
            u32::try_from(v).map_err(|_| format!("{name} {v} is out of range"))
        }
        None => Ok(0),
    }
}

fn print_stats(addr: &str, s: &wire::ServerStats) {
    emit!("{addr}: uptime {:.1} s", s.uptime_ms as f64 / 1e3);
    emit!(
        "requests {} (ok {}, errors {}, busy rejections {})",
        s.requests,
        s.ok,
        s.errors,
        s.busy_rejections
    );
    emit!("bytes {} in, {} out", s.bytes_in, s.bytes_out);
    emit!(
        "connections {} active / {} total, queue depth {}",
        s.connections_active,
        s.connections_total,
        s.queue_depth
    );
    emit!(
        "models {} resident, {} cache hits, {} store resolutions",
        s.models_resident,
        s.model_cache_hits,
        s.model_resolutions
    );
    for id in CodecId::all() {
        let slot = wire::ServerStats::codec_slot(id);
        let c = s.compress_by_codec.get(slot).copied().unwrap_or(0);
        let d = s.decompress_by_codec.get(slot).copied().unwrap_or(0);
        if c > 0 || d > 0 {
            emit!("  {:<9} {c} compressed, {d} decompressed", id.name());
        }
    }
}

/// Read a raw `f32` field from a file or stdin (`-`).
fn read_field_or_stdin(path: &str, dims: Dims) -> Result<Field, String> {
    if path != "-" {
        return read_field(path, dims);
    }
    let bytes = read_bytes_or_stdin(path)?;
    let expected = dims.len() * 4;
    if bytes.len() != expected {
        return Err(format!(
            "stdin held {} bytes but dims {dims} need {expected} (f32)",
            bytes.len()
        ));
    }
    Field::from_le_bytes(dims, &bytes).map_err(|_| "stdin: byte/dims mismatch".to_string())
}

fn read_bytes_or_stdin(path: &str) -> Result<Vec<u8>, String> {
    if path == "-" {
        let mut bytes = Vec::new();
        std::io::stdin()
            .lock()
            .read_to_end(&mut bytes)
            .map_err(|e| format!("read stdin: {e}"))?;
        Ok(bytes)
    } else {
        std::fs::read(path).map_err(|e| format!("read {path}: {e}"))
    }
}

fn write_bytes_or_stdout(path: &str, bytes: &[u8]) -> Result<(), String> {
    if path == "-" {
        let mut out = std::io::stdout().lock();
        out.write_all(bytes)
            .and_then(|()| out.flush())
            .map_err(|e| format!("write stdout: {e}"))
    } else {
        std::fs::write(path, bytes).map_err(|e| format!("write {path}: {e}"))
    }
}
