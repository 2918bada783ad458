//! Chunked-archive workloads on the 32 MB CESM field, the codec cycling
//! SZ2.1 / ZFP / SZinterp from one row of chunks (a latitude band) to the
//! next:
//!
//! * `archive` — the seekable path: `archive::compress_field_with` writes an
//!   indexed AESA archive, `archive::decompress` reads it back (buffered,
//!   windowed);
//! * `pipe` — the pipe path (`aesz compress - | aesz decompress -`):
//!   `write_archive_stream` emits the inline v3 layout, `StreamFieldDecoder`
//!   decodes it from 64 KB packets.

use aesz_repro::archive::{self, write_archive_stream, ArchiveOptions, FieldSource};
use aesz_repro::datagen::Application;
use aesz_repro::tensor::BlockSpec;
use aesz_repro::{
    CodecId, CompressError, DecompressError, ErrorBound, Field, Registry, StreamFieldDecoder,
    StreamOutput,
};

use super::{check_bound, rotated, same_bits, RoundTrip, Scale, TEST_SNAPSHOT};
use crate::probes::{default_aesz, ProbeSetup, Probes, AESZ_BATCH};

const CYCLE: [CodecId; 3] = [CodecId::Sz2, CodecId::Zfp, CodecId::SzInterp];
/// Chunks in flight per batch: the `aesz` CLI's default.
const WINDOW: usize = 8;
const PACKET: usize = 64 * 1024;

/// The codec of a chunk, by chunk row: the seed rotates the field along
/// rows, so every seed hands each codec the same latitude bands.
fn pick(spec: &BlockSpec) -> CodecId {
    CYCLE[spec.origin[0] / spec.nominal % CYCLE.len()]
}

pub struct ArchiveRoundTrip {
    pipe: bool,
    registry: Registry,
    field: Field,
    bound: ErrorBound,
    opts: ArchiveOptions,
}

impl ArchiveRoundTrip {
    pub fn new(seed: u64, scale: &Scale, pipe: bool) -> ArchiveRoundTrip {
        let field = Application::CesmCldhgh.generate(scale.cesm_big, TEST_SNAPSHOT);
        ArchiveRoundTrip {
            pipe,
            registry: Registry::with_defaults(),
            field: rotated(&field, seed, 2),
            bound: ErrorBound::rel(1e-3),
            opts: ArchiveOptions::new().chunk(scale.chunk).window(WINDOW),
        }
    }

    fn buffered_decode(&self, bytes: &[u8]) -> Result<Field, String> {
        archive::decompress(&self.registry, bytes, WINDOW)
            .map(|(field, _)| field)
            .map_err(|e| e.to_string())
    }
}

/// Decode `bytes` pushed through a `StreamFieldDecoder` in pipe-sized
/// packets, assembling the chunks into a field.
fn stream_decode(registry: &Registry, bytes: &[u8]) -> Result<Field, DecompressError> {
    let mut decoder = StreamFieldDecoder::new(registry);
    let mut field: Option<Field> = None;
    let drain = |decoder: &mut StreamFieldDecoder, field: &mut Option<Field>| {
        while let Some(out) = decoder.poll()? {
            match out {
                StreamOutput::Header(h) => *field = Some(Field::zeros(h.dims)),
                StreamOutput::Chunk(spec, chunk) => field
                    .as_mut()
                    .ok_or(DecompressError::Inconsistent("chunk before header"))?
                    .write_block_valid(&spec, chunk.as_slice()),
                StreamOutput::Field(f) => *field = Some(f),
            }
        }
        Ok::<(), DecompressError>(())
    };
    for packet in bytes.chunks(PACKET) {
        decoder.feed(packet);
        drain(&mut decoder, &mut field)?;
    }
    decoder.finish();
    drain(&mut decoder, &mut field)?;
    field.ok_or(DecompressError::Truncated("stream ended before any output"))
}

impl RoundTrip for ArchiveRoundTrip {
    fn name(&self) -> &'static str {
        if self.pipe {
            "pipe"
        } else {
            "archive"
        }
    }

    fn input(&self) -> &Field {
        &self.field
    }

    fn compress(&mut self) -> Result<Vec<u8>, String> {
        let written = if self.pipe {
            let mut out = Vec::new();
            write_archive_stream(
                &mut FieldSource(&self.field),
                self.bound,
                &self.opts,
                &mut |spec: &BlockSpec| {
                    self.registry
                        .fork(pick(spec))
                        .ok_or(CompressError::UnsupportedField("codec not registered"))
                },
                &mut out,
            )
            .map(|_| out)
        } else {
            archive::compress_field_with(&self.registry, &self.field, self.bound, &self.opts, pick)
                .map(|(bytes, _)| bytes)
        };
        written.map_err(|e| e.to_string())
    }

    fn decompress(&mut self, bytes: &[u8]) -> Result<Field, String> {
        if self.pipe {
            stream_decode(&self.registry, bytes).map_err(|e| e.to_string())
        } else {
            self.buffered_decode(bytes)
        }
    }

    fn check(&self, bytes: &[u8], recon: &Field) -> Result<(), String> {
        // All three chunk codecs are error bounded against the field's range.
        check_bound(
            self.name(),
            &self.field,
            recon,
            self.bound.resolve(&self.field),
        )?;
        if self.pipe && !same_bits(&self.buffered_decode(bytes)?, recon) {
            return Err("pipe: streamed decode differs from the buffered decode".into());
        }
        Ok(())
    }

    fn probes(&self, output: &[u8], probe_elems: usize) -> Probes {
        let aesz = default_aesz(self.field.dims().rank());
        Probes::new(ProbeSetup {
            field: &self.field,
            output,
            codec: CYCLE[0],
            registry: Registry::with_defaults(),
            nn_model: aesz.model().clone(),
            nn_batch: AESZ_BATCH,
            aesz,
            bound: self.bound,
            probe_elems,
        })
    }
}
