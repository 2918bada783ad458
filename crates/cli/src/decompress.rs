//! The decode verbs: `decompress` and `info`.

use std::time::Instant;

use aesz_repro::archive::{self, ArchiveReader, ChunkSource};
use aesz_repro::metrics::container::{self, CONTAINER_MAGIC};
use aesz_repro::metrics::ArchiveReadError;
use aesz_repro::resolve::ModelResolver;
use aesz_repro::{CodecId, Registry, StreamFieldDecoder, StreamOutput};

use crate::args::Args;
use crate::io::{self, mb, Output, RawFile};

pub fn decompress(mut args: Args) -> Result<(), String> {
    let input = args.need("--input")?;
    let output = args.need("--output")?;
    let window = args.window()?;
    let model_path = args.opt("--model")?;
    let verify = args.flag("--verify");
    args.finish()?;

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
        return decode_stream(
            &registry,
            &mut std::io::stdin().lock(),
            &input,
            &output,
            window,
        );
    }
    let bytes = io::read_bytes(&input)?;
    if bytes.starts_with(&CONTAINER_MAGIC) {
        // One container frame (what `aesz remote compress` writes) decodes
        // whole, like the same frame piped through stdin.
        if verify {
            return Err(format!(
                "--verify decodes archive chunks at random; {input} is a single frame"
            ));
        }
        return decode_stream(&registry, &mut bytes.as_slice(), &input, &output, window);
    }
    let t0 = Instant::now();
    let reader = ArchiveReader::open(&bytes).map_err(|e| e.to_string())?;
    for &(id, frame) in reader.models() {
        status!(
            piped_out,
            "archive embeds {} model {id}",
            model_codec(frame)
        );
    }
    // Per-chunk model resolution: the archive's embedded models, then the
    // registry's store (the sidecar above) — so the learned chunks decode
    // in this fresh process.
    let dims = reader.dims();
    let mut sink = io::output(&output, dims, reader.header().chunk)?;
    archive::decompress_into(&registry, &reader, window, sink.as_mut())
        .map_err(|e| e.to_string())?;
    sink.finish().map_err(|e| format!("write stdout: {e}"))?;
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
    if !verify {
        return Ok(());
    }
    // Self-check: decode every chunk again through the random-access path
    // and compare against what the windowed decode wrote — the two paths
    // must agree bit for bit.
    let mut written = RawFile::open(&output, dims)?;
    let mut resolver = ModelResolver::for_archive(&registry, &reader);
    for (i, entry) in reader.entries().iter().enumerate() {
        let failed = |e| format!("chunk {i}: {e}");
        let spec = reader.chunk_spec(i).ok_or("chunk index out of range")?;
        let mut codec = resolver
            .chunk_decoder(&reader, i, entry.codec)
            .map_err(failed)?;
        let chunk = reader.decode_chunk(i, codec.as_mut()).map_err(failed)?;
        let on_disk = written.read_chunk(&spec).map_err(|e| e.to_string())?;
        let same = |(a, b): (&f32, &f32)| a.to_bits() == b.to_bits();
        if !chunk.as_slice().iter().zip(on_disk.as_slice()).all(same) {
            return Err(format!(
                "verify: chunk {i} random-access decode diverged from the output file"
            ));
        }
    }
    emit!(
        "verify: all {} chunks random-access decode bit-identically OK",
        reader.chunk_count()
    );
    Ok(())
}

/// An error of the push decoder's pull loop, or of a write it drives.
struct Failed(String);

impl From<ArchiveReadError> for Failed {
    fn from(e: ArchiveReadError) -> Failed {
        Failed(match e {
            ArchiveReadError::Archive(e) => e.to_string(),
            ArchiveReadError::Io(e) => format!("read stdin: {e}"),
            e => e.to_string(),
        })
    }
}

/// Decode a pushed stream — an archive or one container frame — from
/// `input` with the push decoder, `window` chunks at a time in parallel as
/// their frames arrive. Chunks are written as each window decodes, with
/// seeks into the output file or band by band to stdout, so resident memory
/// is one band plus one window of chunks plus the parser's bounded buffer,
/// never the archive or the field.
fn decode_stream(
    registry: &Registry,
    input: &mut dyn std::io::Read,
    name: &str,
    output: &str,
    window: usize,
) -> Result<(), String> {
    let piped_out = output == "-";
    let written = if piped_out { "stdout" } else { output };
    let t0 = Instant::now();
    let mut decoder = StreamFieldDecoder::with_window(registry, window);
    let mut sink: Option<Box<dyn Output>> = None;
    let mut dims = None;
    let mut chunks = 0usize;
    let bytes_in = decoder
        .read_each(input, &mut |out| {
            match out {
                StreamOutput::Header(h) => {
                    dims = Some(h.dims);
                    sink = Some(io::output(output, h.dims, h.chunk).map_err(Failed)?);
                }
                StreamOutput::Chunk(spec, chunk) => {
                    chunks += 1;
                    if let Some(sink) = sink.as_mut() {
                        sink.write_chunk(&spec, &chunk)
                            .map_err(|e| Failed(format!("write {written}: {e}")))?;
                    }
                }
                // The stream was one container frame, not an archive: the
                // decoder hands over the whole reconstruction.
                StreamOutput::Field(field) => {
                    dims = Some(field.dims());
                    io::write_bytes(output, &field.to_le_bytes()).map_err(Failed)?;
                }
            }
            Ok::<(), Failed>(())
        })
        .map_err(|Failed(e)| e)?;
    if let Some(mut sink) = sink {
        sink.finish().map_err(|e| format!("write {written}: {e}"))?;
    }
    let dims = dims.ok_or("empty stream")?;
    let secs = t0.elapsed().as_secs_f64();
    let raw = dims.len() * 4;
    status!(
        piped_out,
        "{name} -> {output}: dims {dims}, {chunks} chunks, {bytes_in} -> {raw} bytes, \
         {:.1} MB/s, peak parser buffer {} bytes",
        mb(raw) / secs,
        decoder.peak_buffered(),
    );
    Ok(())
}

/// The codec an embedded `AESM` model frame names.
fn model_codec(frame: &[u8]) -> &'static str {
    container::read_model_frame(frame).map_or("?", |(c, _)| c.name())
}

pub fn info(mut args: Args) -> Result<(), String> {
    let input = args.need("--input")?;
    args.finish()?;
    let bytes = io::read_bytes(&input)?;
    if bytes.starts_with(&CONTAINER_MAGIC) {
        let frame = container::peek(&bytes).map_err(|e| e.to_string())?;
        let model = frame.model_id.map_or("none".into(), |id| id.to_string());
        emit!(
            "{input}: AESC v{} frame, codec {}, model {model}, {} payload bytes",
            frame.version,
            frame.codec.name(),
            frame.payload_len
        );
        return Ok(());
    }
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
            emit!("  {:<9} {id} ({} bytes)", model_codec(frame), frame.len());
        }
    }
    Ok(())
}
