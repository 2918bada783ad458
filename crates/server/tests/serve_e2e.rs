//! End-to-end daemon tests: a real `Server` on a loopback socket, real
//! `RemoteClient`s on OS threads. The service path must be *bit-identical*
//! to the local library path for compress, decompress, and train — the
//! daemon is a deployment shape, not a different compressor.

use std::sync::Arc;

use aesz_datagen::Application;
use aesz_repro::metrics::protocol as wire;
use aesz_repro::metrics::CodecId;
use aesz_repro::{Compressor, Dims, ErrorBound, Field, Registry};
use aesz_server::{RemoteClient, Server, ServerConfig, ServerState};

fn test_field(seed: u64) -> Field {
    Application::CesmCldhgh.generate(Dims::d2(32, 48), seed)
}

fn assert_fields_bit_identical(a: &Field, b: &Field, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: dims diverged");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} diverged");
    }
}

/// Bind a daemon on an ephemeral port and run it on a background thread.
/// Returns the address, the shared state, and a shutdown closure.
fn spawn_server(config: ServerConfig) -> (String, Arc<ServerState>, impl FnOnce()) {
    let server = Server::bind(config).expect("bind loopback");
    let state = server.state();
    let handle = server.handle().expect("handle");
    let addr = handle.addr().to_string();
    let runner = std::thread::spawn(move || server.run());
    let stop = move || {
        handle.shutdown();
        runner
            .join()
            .expect("accept loop exits")
            .expect("clean run");
    };
    (addr, state, stop)
}

#[test]
fn eight_concurrent_clients_match_the_local_path_bit_for_bit() {
    let (addr, state, stop) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        ..ServerConfig::default()
    });
    let bound = ErrorBound::abs(1e-3);

    let clients: Vec<_> = (0..8u64)
        .map(|seed| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let field = test_field(seed);
                // The reference result from the in-process library path.
                let registry = Registry::with_defaults();
                let mut local = registry.fork(CodecId::Zfp).expect("zfp registered");
                let want_stream = local.compress(&field, bound).expect("local compress");
                let want_field = local.decompress(&want_stream).expect("local decompress");

                let mut client = RemoteClient::connect(&addr).expect("connect");
                let got = client
                    .request(&wire::Request::Compress {
                        codec: CodecId::Zfp,
                        bound,
                        field: field.clone(),
                    })
                    .expect("compress request");
                let wire::Response::CompressOk { stream } = got else {
                    panic!("client {seed}: expected CompressOk, got {got:?}");
                };
                assert_eq!(
                    stream, want_stream,
                    "client {seed}: compressed bytes diverged"
                );

                // Same connection, next request: the daemon keeps it open
                // after a success response.
                let got = client
                    .request(&wire::Request::Decompress { bytes: stream })
                    .expect("decompress request");
                let wire::Response::DecompressOk { field: recon } = got else {
                    panic!("client {seed}: expected DecompressOk, got {got:?}");
                };
                assert_fields_bit_identical(&recon, &want_field, "remote decompress");
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // Liveness + counters over the wire.
    let mut probe = RemoteClient::connect(&addr).expect("connect");
    let got = probe
        .request(&wire::Request::Health)
        .expect("health request");
    assert!(matches!(got, wire::Response::HealthOk { .. }));
    let got = probe.request(&wire::Request::Stats).expect("stats request");
    let wire::Response::StatsOk(stats) = got else {
        panic!("expected StatsOk, got {got:?}");
    };
    assert!(stats.requests >= 18, "8×(compress+decompress)+health+stats");
    // The stats request itself is still in flight when the snapshot is
    // taken — it is counted ok only after its response is built.
    assert!(stats.ok >= 17);
    assert_eq!(stats.errors, 0);
    let zfp = wire::ServerStats::codec_slot(CodecId::Zfp);
    assert_eq!(stats.compress_by_codec[zfp], 8);
    assert_eq!(stats.decompress_by_codec[zfp], 8);
    assert!(stats.connections_total >= 9);
    drop(probe);
    stop();
    assert_eq!(state.snapshot().errors, 0);
}

#[test]
fn trickled_single_frame_decompresses_are_counted() {
    use std::io::{Read, Write};

    let (addr, state, stop) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let registry = Registry::with_defaults();
    let mut zfp = registry.fork(CodecId::Zfp).expect("zfp registered");
    let stream = zfp
        .compress(&test_field(5), ErrorBound::abs(1e-3))
        .expect("local compress");

    // Sent whole…
    let mut client = RemoteClient::connect(&addr).expect("connect");
    let got = client
        .request(&wire::Request::Decompress {
            bytes: stream.clone(),
        })
        .expect("decompress request");
    assert!(matches!(got, wire::Response::DecompressOk { .. }));

    // …then trickled: the first 16 body bytes one per 60 ms, so the
    // daemon's first socket read holds less than the 14-byte frame head.
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    let header = wire::header_bytes(wire::MsgType::Decompress, stream.len() as u64);
    raw.write_all(&header).expect("send header");
    for byte in &stream[..16] {
        raw.write_all(std::slice::from_ref(byte))
            .expect("send byte");
        raw.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(60));
    }
    raw.write_all(&stream[16..]).expect("send the rest");
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("response then close");
    let (resp, _) =
        wire::decode_response(&reply, &wire::Limits::default()).expect("typed response");
    assert!(
        matches!(resp, wire::Response::DecompressOk { .. }),
        "expected DecompressOk, got {resp:?}"
    );

    let zfp_slot = wire::ServerStats::codec_slot(CodecId::Zfp);
    assert_eq!(state.snapshot().decompress_by_codec[zfp_slot], 2);
    drop(client);
    stop();
}

#[test]
fn train_is_deterministic_resident_and_saved_as_a_sidecar() {
    let dir = std::env::temp_dir().join(format!("aesz-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, state, stop) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        model_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let field = test_field(3);
    let knobs = wire::TrainKnobs {
        epochs: 1,
        block: 0,
        latent: 0,
        max_blocks: 0,
        seed: 5,
    };

    // Reference: the same training run through the library path.
    let mut local = aesz_repro::baselines::AeA::new(knobs.seed);
    local.train(std::slice::from_ref(&field), 1, knobs.seed);
    let want = local.embedded_model().expect("trained model");

    let mut client = RemoteClient::connect(&addr).expect("connect");
    let got = client
        .request(&wire::Request::Train {
            codec: CodecId::AeA,
            knobs,
            field: field.clone(),
        })
        .expect("train request");
    let wire::Response::TrainOk { id, frame } = got else {
        panic!("expected TrainOk, got {got:?}");
    };
    assert_eq!(id, want.id, "training is not deterministic across paths");
    assert_eq!(frame, want.frame);

    // The model is resident: a learned stream compressed locally with the
    // very same model must decompress over the wire, no sidecar handshake.
    let mut codec = aesz_repro::model_store::build_compressor(&want).expect("build");
    let stream = codec
        .compress(&field, ErrorBound::abs(1e-3))
        .expect("local learned compress");
    let want_recon = codec.decompress(&stream).expect("local learned decode");
    let got = client
        .request(&wire::Request::Decompress {
            bytes: stream.clone(),
        })
        .expect("decompress request");
    let wire::Response::DecompressOk { field: recon } = got else {
        panic!("expected DecompressOk, got {got:?}");
    };
    assert_fields_bit_identical(&recon, &want_recon, "learned remote decompress");
    // The registered model served it: a cache hit, no store resolution.
    let got = client.request(&wire::Request::Stats).expect("stats");
    let wire::Response::StatsOk(stats) = got else {
        panic!("expected StatsOk, got {got:?}");
    };
    assert_eq!((stats.model_cache_hits, stats.model_resolutions), (1, 0));

    // Inventory over the wire names the trained model, hash-verified.
    let got = client
        .request(&wire::Request::ListModels)
        .expect("models request");
    let wire::Response::ModelList { entries } = got else {
        panic!("expected ModelList, got {got:?}");
    };
    let entry = entries
        .iter()
        .find(|e| e.id == id)
        .expect("trained model listed");
    assert!(entry.verified);
    assert_eq!(entry.codec, Some(CodecId::AeA));

    let stats = state.snapshot();
    assert!(stats.models_resident >= 1);
    drop(client);
    stop();

    // The sidecar landed on disk under the content-addressed name.
    let sidecar = dir.join(format!("{id}.aesm"));
    let bytes = std::fs::read(&sidecar).expect("sidecar written");
    assert_eq!(bytes, want.frame);

    // A second daemon on the same directory finds the model as a sidecar
    // and builds it for each request that names it: no request registers
    // it, so neither decode is a cache hit.
    let (addr, state, stop) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        model_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = RemoteClient::connect(&addr).expect("connect");
    for _ in 0..2 {
        let got = client
            .request(&wire::Request::Decompress {
                bytes: stream.clone(),
            })
            .expect("decompress request");
        let wire::Response::DecompressOk { field: recon } = got else {
            panic!("expected DecompressOk, got {got:?}");
        };
        assert_fields_bit_identical(&recon, &want_recon, "sidecar remote decompress");
    }
    let stats = state.snapshot();
    assert_eq!((stats.model_cache_hits, stats.model_resolutions), (0, 2));
    drop(client);
    stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The per-worker resident codec cache must follow retraining: compress
/// requests after a `Train` that re-registers the codec must be served by
/// a fork of the *new* model, byte-identical to the library path — a stale
/// cached fork would emit the old model's stream. Repeated rounds on one
/// worker also prove the cached fork itself never drifts between requests.
#[test]
fn worker_codec_cache_follows_retraining() {
    let (addr, state, stop) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServerConfig::default()
    });
    let field = test_field(7);
    let bound = ErrorBound::abs(1e-3);
    let mut client = RemoteClient::connect(&addr).expect("connect");

    for seed in [5u64, 9] {
        let knobs = wire::TrainKnobs {
            epochs: 1,
            block: 0,
            latent: 0,
            max_blocks: 0,
            seed,
        };
        let got = client
            .request(&wire::Request::Train {
                codec: CodecId::AeA,
                knobs,
                field: field.clone(),
            })
            .expect("train request");
        let wire::Response::TrainOk { .. } = got else {
            panic!("expected TrainOk, got {got:?}");
        };

        // The library-path reference for this model generation.
        let mut local = aesz_repro::baselines::AeA::new(seed);
        local.train(std::slice::from_ref(&field), 1, seed);
        let want = local.compress(&field, bound).expect("local compress");

        for round in 0..3 {
            let got = client
                .request(&wire::Request::Compress {
                    codec: CodecId::AeA,
                    bound,
                    field: field.clone(),
                })
                .expect("compress request");
            let wire::Response::CompressOk { stream } = got else {
                panic!("expected CompressOk, got {got:?}");
            };
            assert_eq!(
                stream, want,
                "seed {seed} round {round}: worker cache served a stale or drifted fork"
            );
        }
    }
    drop(client);
    stop();
    assert_eq!(state.snapshot().errors, 0);
}

#[test]
fn archive_bytes_stream_decode_remotely() {
    let (addr, _state, stop) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let field = Application::Rtm.generate(Dims::d3(16, 16, 16), 9);
    let registry = Registry::with_defaults();
    let opts = aesz_repro::archive::ArchiveOptions::new()
        .chunk(8)
        .window(2);
    let (bytes, _stats) = aesz_repro::archive::compress_field(
        &registry,
        &field,
        ErrorBound::abs(1e-3),
        &opts,
        CodecId::Zfp,
    )
    .expect("build archive");
    let (want, _) = aesz_repro::archive::decompress(&registry, &bytes, 2).expect("local decode");

    let mut client = RemoteClient::connect(&addr).expect("connect");
    let got = client
        .request(&wire::Request::Decompress { bytes })
        .expect("decompress request");
    let wire::Response::DecompressOk { field: recon } = got else {
        panic!("expected DecompressOk, got {got:?}");
    };
    assert_fields_bit_identical(&recon, &want, "remote archive decompress");
    drop(client);
    stop();
}

#[test]
fn connection_cap_rejects_with_typed_busy() {
    let (addr, state, stop) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 0,
        ..ServerConfig::default()
    });

    // First connection occupies the single slot (and stays open: success
    // responses keep the connection alive).
    let mut first = RemoteClient::connect(&addr).expect("connect");
    let got = first.request(&wire::Request::Health).expect("health");
    assert!(matches!(got, wire::Response::HealthOk { .. }));

    // Second connection must be shed at the edge with a typed Busy — the
    // acceptor observed the first connection before ever accepting this one,
    // so the rejection is deterministic, not timing-dependent. Read without
    // writing: the Busy arrives unprompted, and never sending means no RST
    // can race the buffered response away.
    {
        use std::io::Read;
        let mut second = std::net::TcpStream::connect(&addr).expect("connect");
        let mut reply = Vec::new();
        second
            .read_to_end(&mut reply)
            .expect("busy response then close");
        let (resp, _) =
            wire::decode_response(&reply, &wire::Limits::default()).expect("typed response");
        assert!(
            matches!(resp, wire::Response::Busy { .. }),
            "expected Busy, got {resp:?}"
        );
    }
    assert!(state.snapshot().busy_rejections >= 1);

    // Releasing the slot lets fresh connections through again.
    drop(first);
    let mut served = false;
    for _ in 0..50 {
        let mut retry = RemoteClient::connect(&addr).expect("connect");
        if let Ok(wire::Response::HealthOk { .. }) = retry.request(&wire::Request::Health) {
            served = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(served, "slot never freed after the first client left");
    stop();
}

#[test]
fn stalled_decompress_body_does_not_stall_train_or_other_clients() {
    use std::io::Write;

    let (addr, _state, stop) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        read_timeout: std::time::Duration::from_secs(8),
        ..ServerConfig::default()
    });

    // A peer that declares a Decompress body and then goes silent. Before
    // streaming decodes scoped their registry access per call, this held
    // the registry read lock for the whole read timeout — and one Train
    // request waiting on the write lock then queued every new reader
    // behind it, stalling the entire daemon.
    let mut stalled = std::net::TcpStream::connect(&addr).expect("connect");
    stalled
        .write_all(&wire::header_bytes(wire::MsgType::Decompress, 4096))
        .expect("send header");
    stalled.flush().expect("flush");
    // Give a worker time to pick the connection up and block on the body.
    std::thread::sleep(std::time::Duration::from_millis(200));

    // Train (write lock) plus a fresh decompress (read locks) must both
    // complete far inside the stalled peer's read timeout.
    let started = std::time::Instant::now();
    let field = test_field(7);
    let mut client = RemoteClient::connect(&addr).expect("connect");
    let got = client
        .request(&wire::Request::Train {
            codec: CodecId::AeA,
            knobs: wire::TrainKnobs {
                epochs: 1,
                block: 0,
                latent: 0,
                max_blocks: 0,
                seed: 2,
            },
            field: field.clone(),
        })
        .expect("train request");
    assert!(
        matches!(got, wire::Response::TrainOk { .. }),
        "expected TrainOk, got {got:?}"
    );

    let registry = Registry::with_defaults();
    let mut zfp = registry.fork(CodecId::Zfp).expect("zfp registered");
    let stream = zfp
        .compress(&field, ErrorBound::abs(1e-3))
        .expect("local compress");
    let got = client
        .request(&wire::Request::Decompress { bytes: stream })
        .expect("decompress request");
    assert!(
        matches!(got, wire::Response::DecompressOk { .. }),
        "expected DecompressOk, got {got:?}"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(4),
        "requests stalled behind an idle decompress body for {:?}",
        started.elapsed()
    );
    drop(stalled);
    drop(client);
    stop();
}

#[test]
fn hostile_train_knobs_are_rejected_before_any_work() {
    let (addr, _state, stop) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });

    // epochs is untrusted wire input: u32::MAX must bounce off the server
    // cap with a typed TooLarge, not pin a worker for ~4.3e9 epochs.
    let started = std::time::Instant::now();
    let mut client = RemoteClient::connect(&addr).expect("connect");
    let got = client
        .request(&wire::Request::Train {
            codec: CodecId::AeA,
            knobs: wire::TrainKnobs {
                epochs: u32::MAX,
                block: 0,
                latent: 0,
                max_blocks: 0,
                seed: 1,
            },
            field: test_field(1),
        })
        .expect("error still parses");
    let wire::Response::Error { code, message } = got else {
        panic!("expected Error, got {got:?}");
    };
    assert_eq!(code, wire::ErrorCode::TooLarge);
    assert!(message.contains("epochs"), "cap named in: {message}");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "the cap must reject before training, not after"
    );
    stop();
}

#[test]
fn oversized_and_hostile_requests_get_typed_errors() {
    use std::io::{Read, Write};

    let (addr, _state, stop) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_request_bytes: 1024,
        ..ServerConfig::default()
    });

    // A legitimate request whose body exceeds the server cap: typed
    // TooLarge, connection closed, nothing drained.
    let mut client = RemoteClient::connect(&addr).expect("connect");
    let got = client
        .request(&wire::Request::Compress {
            codec: CodecId::Zfp,
            bound: ErrorBound::abs(1e-3),
            field: test_field(0), // 32×48×4 B ≫ 1024
        })
        .expect("error still parses");
    let wire::Response::Error { code, .. } = got else {
        panic!("expected Error, got {got:?}");
    };
    assert_eq!(code, wire::ErrorCode::TooLarge);

    // A hostile declared length with no body behind it: the server must
    // answer from the header alone, without waiting for u64::MAX bytes.
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    raw.write_all(&wire::header_bytes(wire::MsgType::Compress, u64::MAX))
        .expect("send hostile header");
    raw.flush().expect("flush");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply)
        .expect("server responds and closes");
    let (resp, _) =
        wire::decode_response(&reply, &wire::Limits::default()).expect("typed response");
    let wire::Response::Error { code, .. } = resp else {
        panic!("expected Error, got {resp:?}");
    };
    assert_eq!(code, wire::ErrorCode::TooLarge);
    stop();
}

#[test]
fn the_buffered_handler_decodes_frames_and_archives_like_the_socket_path() {
    let state = ServerState::new(
        ServerConfig::default(),
        aesz_repro::SharedRegistry::with_defaults(),
    );
    let registry = Registry::with_defaults();
    let field = test_field(4);
    let frame = registry
        .fork(CodecId::Sz2)
        .expect("registered")
        .compress(&field, ErrorBound::abs(1e-3))
        .expect("frame");
    let opts = aesz_repro::archive::ArchiveOptions::new()
        .chunk(16)
        .window(2);
    let (archive, _) = aesz_repro::archive::compress_field(
        &registry,
        &field,
        ErrorBound::abs(1e-3),
        &opts,
        CodecId::Zfp,
    )
    .expect("archive");
    let (from_archive, _) =
        aesz_repro::archive::decompress(&registry, &archive, 2).expect("local archive decode");
    let (from_frame, _) = aesz_repro::decompress_any(&frame).expect("local frame decode");
    for (body, want, what) in [
        (&frame, &from_frame, "buffered frame decompress"),
        (&archive, &from_archive, "buffered archive decompress"),
    ] {
        let got =
            aesz_server::handler::handle_buffered(&state, None, wire::MsgType::Decompress, body);
        let wire::Response::DecompressOk { field: recon } = got else {
            panic!("{what}: expected DecompressOk, got {got:?}");
        };
        assert_fields_bit_identical(&recon, want, what);
    }
    // The frame names its codec; the archive is not attributed to one.
    assert_eq!(
        state.snapshot().decompress_by_codec[CodecId::Sz2 as usize - 1],
        1
    );
}

/// An archive whose chunk-1 frame decodes to a 4×4 or 16×16 field where
/// the grid has an 8×8 cell is answered with a typed `Error`, never a
/// panic or a field holding the wrong frame's values.
#[test]
fn archives_with_a_chunk_that_misses_its_grid_cell_get_a_typed_error() {
    let state = ServerState::new(
        ServerConfig::default(),
        aesz_repro::SharedRegistry::with_defaults(),
    );
    let registry = Registry::with_defaults();
    let field = Field::from_fn(Dims::d2(8, 16), |c| (c[0] * 16 + c[1]) as f32 * 0.01);
    let bound = ErrorBound::abs(1e-3);
    let opts = aesz_repro::archive::ArchiveOptions::new()
        .chunk(8)
        .window(2);
    for edge in [4, 16] {
        let (mut archive, _) =
            aesz_repro::archive::compress_field(&registry, &field, bound, &opts, CodecId::Zfp)
                .expect("archive");
        let misfit = registry
            .fork(CodecId::Zfp)
            .expect("registered")
            .compress(&Field::zeros(Dims::d2(edge, edge)), bound)
            .expect("frame");
        // The inline layout ends with chunk 1's frame: swap it out whole.
        let entry = aesz_repro::archive::ArchiveReader::open(&archive)
            .expect("open")
            .entries()[1];
        archive.truncate(entry.offset as usize);
        archive.extend_from_slice(&misfit);
        let got = aesz_server::handler::handle_buffered(
            &state,
            None,
            wire::MsgType::Decompress,
            &archive,
        );
        let wire::Response::Error { code, message } = got else {
            panic!("{edge}×{edge} chunk: expected a typed Error, got {got:?}");
        };
        assert_eq!(code, wire::ErrorCode::Malformed, "{message}");
        assert!(message.contains("archive grid"), "{message}");
    }
}
