//! The service verbs: `models`, `serve` and the `remote` client.

use aesz_repro::metrics::protocol as wire;
use aesz_repro::{CodecId, ModelStore};
use aesz_server::{RemoteClient, Server, ServerConfig};

use crate::args::Args;
use crate::io::{read_bytes, read_field, write_bytes};
use crate::USAGE;

/// `aesz models`: list the `.aesm` sidecar models in a directory, with
/// their content-addressed ids re-verified against the frame bytes.
pub fn models(mut args: Args) -> Result<(), String> {
    let dir = args.need("--dir")?;
    args.finish()?;
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
pub fn serve(mut args: Args) -> Result<(), String> {
    let d = ServerConfig::default();
    let config = ServerConfig {
        addr: args.opt("--addr")?.unwrap_or(d.addr),
        workers: args
            .num("--workers")?
            .map_or(d.workers, |n: usize| n.max(1)),
        queue_cap: args.num("--queue")?.unwrap_or(d.queue_cap),
        max_request_bytes: args.num("--max-bytes")?.unwrap_or(d.max_request_bytes),
        max_field_elems: args.num("--max-elems")?.unwrap_or(d.max_field_elems),
        model_dir: args
            .opt("--models")?
            .map(std::path::PathBuf::from)
            .or(d.model_dir),
        ..d
    };
    args.finish()?;
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let state = server.state();
    // The bound address goes to stdout (scripts read it, ports may be
    // auto-assigned via :0); flushed by emit_line before run() blocks.
    emit!(
        "aesz serve: listening on {addr} ({} workers, {} queue slots)",
        state.config.workers,
        state.config.queue_cap,
    );
    server.run().map_err(|e| format!("serve: {e}"))
}

/// `aesz remote`: one request against an `aesz serve` daemon.
pub fn remote(mut args: Args) -> Result<(), String> {
    let addr = args.need("--addr")?;
    let Some(verb) = args.next() else {
        return Err(format!(
            "remote needs a verb: compress, decompress, train, health, stats or models\n{USAGE}"
        ));
    };
    let mut client = RemoteClient::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let request = match verb.as_str() {
        "compress" => return remote_compress(&mut client, args),
        "decompress" => return remote_decompress(&mut client, args),
        "train" => return remote_train(&mut client, args),
        "health" => wire::Request::Health,
        "stats" => wire::Request::Stats,
        "models" => wire::Request::ListModels,
        other => return Err(format!("unknown remote verb `{other}`\n{USAGE}")),
    };
    args.finish()?;
    match remote_request(&mut client, &request)? {
        wire::Response::HealthOk {
            uptime_ms,
            queue_depth,
        } if verb == "health" => emit!(
            "{addr}: healthy, uptime {:.1} s, queue depth {queue_depth}",
            uptime_ms as f64 / 1e3
        ),
        wire::Response::StatsOk(s) if verb == "stats" => print_stats(&addr, &s),
        wire::Response::ModelList { entries } if verb == "models" => {
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
        }
        _ => return Err(format!("unexpected response to {verb}")),
    }
    Ok(())
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

fn remote_compress(client: &mut RemoteClient, mut args: Args) -> Result<(), String> {
    let input = args.need("--input")?;
    let dims = args.dims()?;
    let codec = args.codec()?;
    let output = args.need("--output")?;
    let bound = args.bound()?;
    args.finish()?;
    let field = read_field(&input, dims)?;
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
    write_bytes(&output, &stream)?;
    status!(
        output == "-",
        "remote {}: {input} -> {output}, {raw_bytes} -> {} bytes (ratio {:.2}:1)",
        codec.name(),
        stream.len(),
        raw_bytes as f64 / stream.len().max(1) as f64,
    );
    Ok(())
}

fn remote_decompress(client: &mut RemoteClient, mut args: Args) -> Result<(), String> {
    let input = args.need("--input")?;
    let output = args.need("--output")?;
    args.finish()?;
    let bytes = read_bytes(&input)?;
    let compressed = bytes.len();
    let response = remote_request(client, &wire::Request::Decompress { bytes })?;
    let wire::Response::DecompressOk { field } = response else {
        return Err("unexpected response to decompress".into());
    };
    write_bytes(&output, &field.to_le_bytes())?;
    status!(
        output == "-",
        "remote decompress: {input} -> {output}, dims {}, {compressed} -> {} bytes",
        field.dims(),
        field.len() * 4,
    );
    Ok(())
}

fn remote_train(client: &mut RemoteClient, mut args: Args) -> Result<(), String> {
    let input = args.need("--input")?;
    let dims = args.dims()?;
    let codec = args.codec_or(CodecId::AeSz)?;
    let output = args.need("--output")?;
    // Zero means "codec default" on the wire, so absent knobs encode as 0.
    let mut knob = |name: &str| match args.num::<usize>(name)? {
        Some(v) => u32::try_from(v).map_err(|_| format!("{name} {v} is out of range")),
        None => Ok(0),
    };
    let knobs = wire::TrainKnobs {
        epochs: knob("--epochs")?,
        block: knob("--block")?,
        latent: knob("--latent")?,
        max_blocks: knob("--max-blocks")?,
        seed: args.num("--train-seed")?.unwrap_or(2021),
    };
    args.finish()?;
    let field = read_field(&input, dims)?;
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
    write_bytes(&output, &frame)?;
    status!(
        output == "-",
        "remote train: {} model {id} ({} bytes) -> {output}; now resident on the server",
        codec.name(),
        frame.len(),
    );
    Ok(())
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
