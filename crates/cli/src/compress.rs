//! The encode verbs: `train`, `compress` and `append`.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::time::Instant;

use aesz_repro::archive::{
    self, write_archive_embedding, write_archive_stream, ArchiveAppender, ArchiveOptions,
    ArchiveReader, ChunkSink, ChunkSource, CompressorFork,
};
use aesz_repro::model_store::{build_compressor, train_compressor};
use aesz_repro::tensor::BlockSpec;
use aesz_repro::{CodecId, CompressError, EmbeddedModel, ErrorBound, Field, Registry};

use crate::args::{parse_app, Args};
use crate::io::{self, mb, ErrorStats, RawFile};
use crate::USAGE;

pub fn train(mut args: Args) -> Result<(), String> {
    let codec = args.codec_or(CodecId::AeSz)?;
    let dims = args.dims()?;
    let output = args.need("--output")?;
    let input = args.opt("--input")?;
    let app = args.opt("--app")?;
    let seed = args.num("--seed")?.unwrap_or(0);
    let knobs = args.train_settings()?;
    args.finish()?;

    let field = match (&input, &app) {
        (Some(path), None) => io::read_field(path, dims)?,
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

/// `--model FILE` on the encode side: load the sidecar `AESM` model, check
/// it is a `codec` model and register it, so the chunks encode with it.
fn register_model(registry: &mut Registry, path: &str, codec: CodecId) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let (model, found) = EmbeddedModel::from_frame(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let built = build_compressor(&model).map_err(|e| format!("{path}: {e}"))?;
    // Diagnostic, so stderr: compress/append may be piping their archive
    // through stdout when this prints.
    eprintln!(
        "loaded {} model {} from {path} ({} bytes)",
        found.name(),
        model.id,
        bytes.len()
    );
    if built.codec_id() != codec {
        return Err(format!(
            "{path} holds a {} model but --codec is {}",
            built.codec_id().name(),
            codec.name()
        ));
    }
    registry.register(built);
    Ok(())
}

/// The per-chunk codec factory of the archive writers: a fork of the
/// registered `codec` for every chunk.
fn forks(registry: &Registry, codec: CodecId) -> impl FnMut(&BlockSpec) -> CompressorFork + '_ {
    move |_| {
        registry
            .fork(codec)
            .ok_or(CompressError::UnsupportedField("codec not registered"))
    }
}

pub fn compress(mut args: Args) -> Result<(), String> {
    let input = args.need("--input")?;
    let dims = args.dims()?;
    let codec = args.codec()?;
    let output = args.need("--output")?;
    let bound = args.bound()?;
    let mut opts = ArchiveOptions::new();
    if let Some(chunk) = args.num("--chunk")? {
        opts = opts.chunk(chunk);
    }
    let opts = opts.window(args.window()?);
    let verify = args.flag("--verify");
    let train = args.flag("--train");
    let embed_model = args.flag("--embed-model");
    let model_path = args.opt("--model")?;
    let knobs = args.train_settings()?;
    args.finish()?;

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
        let field = io::read_field(&input, dims)?;
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
        register_model(&mut registry, path, codec)?;
    }
    let t0 = Instant::now();
    let mut codecs = forks(&registry, codec);
    let mut source = io::source(&input, dims, opts.chunk_edge())?;
    let source = source.as_mut();
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

    let (chunk, window) = (opts.chunk_edge(), opts.window_chunks());
    status!(
        piped_out,
        "{input} -> {output}: {} chunks (chunk {chunk}, window {window}), {} -> {} bytes",
        stats.chunks,
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
        let model_bytes = stats.model_bytes;
        status!(piped_out, "embedded model section: {model_bytes} bytes");
    }
    if verify {
        verify_archive(&registry, &input, &output, bound, window)?;
    }
    Ok(())
}

/// [`ChunkSink`] that compares decoded chunks against the original raw
/// file instead of storing them.
struct VerifySink {
    original: RawFile,
    stats: ErrorStats,
}

impl ChunkSink for VerifySink {
    fn write_chunk(&mut self, spec: &BlockSpec, chunk: &Field) -> std::io::Result<()> {
        let reference = self.original.read_chunk(spec)?;
        self.stats.add(reference.as_slice(), chunk.as_slice());
        Ok(())
    }
}

/// `compress --verify`: decode the written archive against the input and
/// check the bound.
fn verify_archive(
    registry: &Registry,
    input: &str,
    output: &str,
    bound: ErrorBound,
    window: usize,
) -> Result<(), String> {
    let bytes = io::read_bytes(output)?;
    let reader = ArchiveReader::open(&bytes).map_err(|e| e.to_string())?;
    let mut original = RawFile::open(input, reader.dims())?;
    let (lo, hi) = original.min_max().map_err(|e| e.to_string())?;
    let mut check = VerifySink {
        original,
        stats: ErrorStats::default(),
    };
    archive::decompress_into(registry, &reader, window, &mut check).map_err(|e| e.to_string())?;
    let resolved = bound.absolute(lo, hi);
    let ok = check.stats.max_abs <= resolved * 1.0001;
    emit!(
        "verify: PSNR {:.2} dB, max abs err {:.3e} (bound {:.3e}) {}",
        check.stats.psnr((hi - lo) as f64),
        check.stats.max_abs,
        resolved,
        if ok { "OK" } else { "VIOLATED" }
    );
    if !ok {
        return Err("error bound violated".into());
    }
    Ok(())
}

pub fn append(mut args: Args) -> Result<(), String> {
    let archive = args.need("--archive")?;
    let input = args.need("--input")?;
    let dims = args.dims()?;
    let codec = args.codec()?;
    // Appends only take --abs: a relative bound would resolve against the
    // new slab's range alone and silently diverge from the archive's bound.
    let bound = ErrorBound::abs(crate::args::parse(&args.need("--abs")?, "absolute bound")?);
    let window = args.window()?;
    let embed_model = args.flag("--embed-model");
    let model_path = args.opt("--model")?;
    args.finish()?;

    let mut registry = Registry::with_defaults();
    if let Some(path) = &model_path {
        register_model(&mut registry, path, codec)?;
    }

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
    let mut codecs = forks(&registry, codec);
    let mut source = io::source(&input, dims, chunk)?;
    let stats = if embed_model {
        appender.append_embedding(source.as_mut(), bound, window, &mut codecs)
    } else {
        appender.append(source.as_mut(), bound, window, &mut codecs)
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
