//! `aesz` — compress/decompress raw little-endian `f32` fields through the
//! chunked streaming archive layer.
//!
//! The tool drives [`aesz_repro::archive`] with *file-backed* chunk sources
//! and sinks: raw fields are read and written with seeks, one chunk at a
//! time, so a raw field is never resident — peak resident payload is one
//! window of chunks, whatever the file size. The compressed side is smaller:
//! decoding a file, `info` and `compress --verify` read the whole compressed
//! archive into memory (random access and the embedded models need it), but
//! never the raw field.
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
//! the archive. `decompress` and `info` also take a single `AESC` frame,
//! the unit `aesz remote compress` writes.
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
//!
//! [`args`] parses options and [`io`] moves raw fields and bytes between
//! files, pipes and the archive layer for the verbs in [`compress`],
//! [`decompress`], [`field`] and [`service`].

#![forbid(unsafe_code)]
// The CLI parses files and pipes it did not write, so it carries the same
// no-panic contract as the wire modules (the `aesz-lint` deny-set).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::io::Write;

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
  aesz serve      [--addr HOST:PORT] [--workers N] [--queue N] [--max-bytes N]
                  [--max-elems N] [--models DIR]
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
With --workers plus --queue connections in service, it answers Busy.
`remote` exits 75 (EX_TEMPFAIL) on a Busy backpressure rejection so
callers back off.";

/// Print a line to stdout without dying on a closed pipe. `println!` panics
/// on `EPIPE`, so `aesz ... | head` used to crash with a raw Broken pipe
/// abort once `head` exited. Downstream closing early is flow control, not
/// failure: exit 141 (128 + SIGPIPE) quietly, the way a signal-killed
/// filter would.
macro_rules! emit {
    ($($arg:tt)*) => { $crate::emit_line(format_args!($($arg)*)) };
}

/// Route a status line: stdout normally, stderr when stdout is the data
/// channel (a status line inside a piped archive corrupts it).
macro_rules! status {
    ($stdout_is_data:expr, $($arg:tt)*) => {
        if $stdout_is_data { eprintln!($($arg)*) } else { emit!($($arg)*) }
    };
}

mod args;
mod compress;
mod decompress;
mod field;
mod io;
mod service;

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
    let args = args::Args::new(std::env::args().skip(1).collect());
    if let Err(e) = run(args) {
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

fn run(mut args: args::Args) -> Result<(), String> {
    let Some(cmd) = args.next() else {
        return Err(format!("missing subcommand\n{USAGE}"));
    };
    match cmd.as_str() {
        "gen" => field::gen(args),
        "train" => compress::train(args),
        "compress" => compress::compress(args),
        "decompress" => decompress::decompress(args),
        "append" => compress::append(args),
        "info" => decompress::info(args),
        "compare" => field::compare(args),
        "models" => service::models(args),
        "serve" => service::serve(args),
        "remote" => service::remote(args),
        "-h" | "--help" | "help" => {
            emit!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    }
}
