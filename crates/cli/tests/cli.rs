//! End-to-end runs of the `aesz` binary through the CI smoke cycles, at a
//! size a debug build runs in seconds (96×128, chunk 32): file and pipe
//! compression, every decode direction, append, info, compare, the hostile
//! header, the learned-model lifecycle across processes and one daemon round
//! trip. Every data-carrying stdout is compared byte for byte, so a status
//! line that leaks into it fails here.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

const DIMS: &str = "96x128";
const RAW_BYTES: usize = 96 * 128 * 4;

/// A per-test directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("aesz-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `aesz args` with `stdin` piped in, collecting stdout and stderr.
fn aesz(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_aesz"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn aesz");
    let mut pipe = child.stdin.take().expect("stdin pipe");
    let bytes = stdin.to_vec();
    // A verb that never reads stdin closes it early; that is not an error.
    let feeder = std::thread::spawn(move || {
        let _ = pipe.write_all(&bytes);
    });
    let out = child.wait_with_output().expect("wait for aesz");
    feeder.join().expect("stdin feeder");
    out
}

fn ok_with(args: &[&str], stdin: &[u8]) -> Output {
    let out = aesz(args, stdin);
    assert!(
        out.status.success(),
        "aesz {args:?} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn ok(args: &[&str]) -> Output {
    ok_with(args, &[])
}

/// Run a command that must exit 1 with an `aesz:` message on stderr, and
/// return that message.
fn fails(args: &[&str], stdin: &[u8]) -> String {
    let out = aesz(args, stdin);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "aesz {args:?}: {err}");
    assert!(err.starts_with("aesz: "), "aesz {args:?}: {err}");
    err
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn read(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Generate a CESM field of `dims` into `scratch/name`.
fn gen(scratch: &Scratch, name: &str, dims: &str, seed: &str) -> String {
    let path = scratch.path(name);
    ok(&[
        "gen", "--app", "cesm", "--dims", dims, "--seed", seed, "--output", &path,
    ]);
    path
}

/// Compress `input` with SZ2.1 at `--abs 2e-3`, chunk 32, into `output`.
fn compress_sz2(input: &str, dims: &str, output: &str) -> Output {
    ok(&[
        "compress", "--input", input, "--dims", dims, "--codec", "sz2", "--abs", "2e-3", "--chunk",
        "32", "--window", "4", "--output", output,
    ])
}

#[test]
fn gen_writes_the_same_field_to_a_file_and_to_stdout() {
    let s = Scratch::new("gen");
    let field = s.path("field.f32");
    let out = ok(&[
        "gen", "--app", "cesm", "--dims", DIMS, "--seed", "7", "--output", &field,
    ]);
    assert_eq!(read(&field).len(), RAW_BYTES);
    assert!(stdout(&out).starts_with(&format!("wrote {field} (12288 elements")));
    let piped = ok(&[
        "gen", "--app", "cesm", "--dims", DIMS, "--seed", "7", "--output", "-",
    ]);
    assert_eq!(piped.stdout, read(&field), "stdout carries only the field");
    assert!(stderr(&piped).starts_with("wrote - (12288 elements"));
}

#[test]
fn compress_writes_one_archive_from_files_and_pipes() {
    let s = Scratch::new("compress");
    let field = gen(&s, "field.f32", DIMS, "7");
    let archive = s.path("field.aesa");
    let out = ok(&[
        "compress", "--input", &field, "--dims", DIMS, "--codec", "sz2", "--abs", "2e-3",
        "--chunk", "32", "--window", "4", "--output", &archive, "--verify",
    ]);
    let text = stdout(&out);
    assert!(text.contains(": 12 chunks (chunk 32, window 4)"), "{text}");
    assert!(
        text.contains("verify: PSNR") && text.trim_end().ends_with("OK"),
        "{text}"
    );
    let written = read(&archive);
    assert_eq!(&written[..4], b"AESA");

    let to_stdout = ok(&[
        "compress", "--input", &field, "--dims", DIMS, "--codec", "sz2", "--abs", "2e-3",
        "--chunk", "32", "--window", "4", "--output", "-",
    ]);
    assert_eq!(to_stdout.stdout, written, "file -> stdout");
    assert!(stderr(&to_stdout).contains("12 chunks"));

    let from_pipe = ok_with(
        &[
            "compress", "--input", "-", "--dims", DIMS, "--codec", "sz2", "--abs", "2e-3",
            "--chunk", "32", "--window", "4", "--output", "-",
        ],
        &read(&field),
    );
    assert_eq!(from_pipe.stdout, written, "pipe -> stdout");
}

#[test]
fn a_relative_bound_on_a_pipe_is_refused() {
    let s = Scratch::new("rel-pipe");
    let field = gen(&s, "field.f32", DIMS, "7");
    let err = fails(
        &[
            "compress", "--input", "-", "--dims", DIMS, "--codec", "sz2", "--rel", "1e-3",
            "--output", "-",
        ],
        &read(&field),
    );
    assert!(err.contains("--rel"), "{err}");
}

#[test]
fn every_decode_direction_writes_the_same_bytes() {
    let s = Scratch::new("decompress");
    let field = gen(&s, "field.f32", DIMS, "7");
    let archive = s.path("field.aesa");
    compress_sz2(&field, DIMS, &archive);
    let bytes = read(&archive);

    let file_to_file = s.path("recon.f32");
    let out = ok(&["decompress", "--input", &archive, "--output", &file_to_file]);
    assert!(stdout(&out).contains("dims 96x128, 12 chunks"));
    let recon = read(&file_to_file);
    assert_eq!(recon.len(), RAW_BYTES);

    let file_to_stdout = ok(&["decompress", "--input", &archive, "--output", "-"]);
    assert_eq!(file_to_stdout.stdout, recon, "file -> stdout");
    assert!(stderr(&file_to_stdout).contains("12 chunks"));

    let pipe_to_file = s.path("piped.f32");
    let out = ok_with(
        &["decompress", "--input", "-", "--output", &pipe_to_file],
        &bytes,
    );
    assert!(stdout(&out).contains("peak parser buffer"));
    assert_eq!(read(&pipe_to_file), recon, "stdin -> file");

    let pipe_to_stdout = ok_with(&["decompress", "--input", "-", "--output", "-"], &bytes);
    assert_eq!(pipe_to_stdout.stdout, recon, "stdin -> stdout");

    let serial = ok_with(
        &[
            "decompress",
            "--input",
            "-",
            "--output",
            "-",
            "--window",
            "1",
        ],
        &bytes,
    );
    assert_eq!(serial.stdout, recon, "--window 1");
    let serial_file = ok(&[
        "decompress",
        "--input",
        &archive,
        "--output",
        "-",
        "--window",
        "1",
    ]);
    assert_eq!(serial_file.stdout, recon, "file --window 1");

    let compared = ok(&[
        "compare",
        "--a",
        &field,
        "--b",
        &file_to_file,
        "--dims",
        DIMS,
        "--max-abs",
        "2e-3",
    ]);
    assert!(stdout(&compared).contains("within --max-abs"));
}

#[test]
fn info_names_the_inline_v3_layout() {
    let s = Scratch::new("info");
    let field = gen(&s, "field.f32", DIMS, "7");
    let archive = s.path("field.aesa");
    compress_sz2(&field, DIMS, &archive);
    let out = ok(&["info", "--input", &archive]);
    let text = stdout(&out);
    assert!(
        text.contains("AESA v3, f32, dims 96x128 (12288 elements), chunk 32 -> 12 chunks"),
        "{text}"
    );
    assert!(text.contains("SZ2.1"), "{text}");
}

#[test]
fn appended_slabs_decode_and_match_the_concatenation() {
    let s = Scratch::new("append");
    let a = gen(&s, "a.f32", "64x128", "3");
    let b = gen(&s, "b.f32", "32x128", "4");
    let archive = s.path("grow.aesa");
    compress_sz2(&a, "64x128", &archive);
    let out = ok(&[
        "append",
        "--archive",
        &archive,
        "--input",
        &b,
        "--dims",
        "32x128",
        "--codec",
        "zfp",
        "--abs",
        "2e-3",
    ]);
    assert!(stdout(&out).contains("dims 64x128 -> 96x128"));
    ok_with(
        &[
            "append",
            "--archive",
            &archive,
            "--input",
            "-",
            "--dims",
            "32x128",
            "--codec",
            "sz2",
            "--abs",
            "2e-3",
        ],
        &read(&b),
    );
    let info = stdout(&ok(&["info", "--input", &archive]));
    assert!(info.contains("dims 128x128"), "{info}");

    let grown = s.path("grown.f32");
    let out = ok(&[
        "decompress",
        "--input",
        &archive,
        "--output",
        &grown,
        "--verify",
    ]);
    assert!(stdout(&out).contains("random-access decode bit-identically OK"));
    let expect = s.path("expect.f32");
    let mut joined = read(&a);
    joined.extend(read(&b));
    joined.extend(read(&b));
    std::fs::write(&expect, joined).expect("write expect");
    ok(&[
        "compare",
        "--a",
        &expect,
        "--b",
        &grown,
        "--dims",
        "128x128",
        "--max-abs",
        "2e-3",
    ]);
}

#[test]
fn compare_exits_1_above_max_abs() {
    let s = Scratch::new("compare");
    let field = gen(&s, "field.f32", DIMS, "7");
    let archive = s.path("field.aesa");
    compress_sz2(&field, DIMS, &archive);
    let recon = s.path("recon.f32");
    ok(&["decompress", "--input", &archive, "--output", &recon]);
    let err = fails(
        &[
            "compare",
            "--a",
            &field,
            "--b",
            &recon,
            "--dims",
            DIMS,
            "--max-abs",
            "1e-9",
        ],
        &[],
    );
    assert!(err.contains("exceeds --max-abs"), "{err}");
}

#[test]
fn a_hostile_archive_header_is_an_error_not_an_abort() {
    let s = Scratch::new("hostile");
    // Inline v3, rank 1: extent 2^31, chunk edge 1, chunk count 2^31, index
    // capacity 0 and no model section, then no frames.
    let mut header = b"AESA\x03\x01\x01\x00".to_vec();
    for v in [1u64 << 31, 1, 1 << 31, 0, 0] {
        header.extend_from_slice(&v.to_le_bytes());
    }
    assert_eq!(header.len(), 48);
    let hostile = s.path("hostile.aesa");
    std::fs::write(&hostile, &header).expect("write hostile");
    fails(&["info", "--input", &hostile], &[]);
    fails(
        &[
            "decompress",
            "--input",
            &hostile,
            "--output",
            &s.path("out.f32"),
        ],
        &[],
    );
}

#[test]
fn a_trained_model_decodes_in_fresh_processes_from_files_and_pipes() {
    let s = Scratch::new("model");
    let field = gen(&s, "field.f32", DIMS, "7");
    let model = s.path("field.aesm");
    let out = ok(&[
        "train", "--input", &field, "--dims", DIMS, "--codec", "aea", "--epochs", "1", "--output",
        &model,
    ]);
    assert!(stdout(&out).contains("trained AE-A"));

    let embedded = s.path("embedded.aesa");
    ok(&[
        "compress",
        "--input",
        &field,
        "--dims",
        DIMS,
        "--codec",
        "aea",
        "--rel",
        "1e-3",
        "--model",
        &model,
        "--embed-model",
        "--chunk",
        "32",
        "--output",
        &embedded,
        "--verify",
    ]);
    let info = stdout(&ok(&["info", "--input", &embedded]));
    assert!(info.contains("embedded models"), "{info}");
    let sidecar = s.path("sidecar.aesa");
    ok(&[
        "compress", "--input", &field, "--dims", DIMS, "--codec", "aea", "--rel", "1e-3",
        "--model", &model, "--chunk", "32", "--output", &sidecar,
    ]);

    let from_embedded = s.path("embedded.f32");
    ok(&[
        "decompress",
        "--input",
        &embedded,
        "--output",
        &from_embedded,
        "--verify",
    ]);
    let recon = read(&from_embedded);
    let from_sidecar = s.path("sidecar.f32");
    ok(&[
        "decompress",
        "--input",
        &sidecar,
        "--output",
        &from_sidecar,
        "--model",
        &model,
        "--verify",
    ]);
    assert_eq!(read(&from_sidecar), recon, "sidecar vs embedded");
    let piped = ok_with(
        &["decompress", "--input", "-", "--output", "-"],
        &read(&embedded),
    );
    assert_eq!(piped.stdout, recon, "embedded through a pipe");
    let piped = ok_with(
        &[
            "decompress",
            "--input",
            "-",
            "--output",
            "-",
            "--model",
            &model,
        ],
        &read(&sidecar),
    );
    assert_eq!(piped.stdout, recon, "sidecar through a pipe");
    ok(&[
        "compare",
        "--a",
        &field,
        "--b",
        &from_embedded,
        "--dims",
        DIMS,
        "--max-abs",
        "1e-3",
    ]);
}

/// A running `aesz serve`, killed and reaped on drop.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn a_remote_round_trip_through_the_daemon() {
    let s = Scratch::new("remote");
    let field = gen(&s, "field.f32", DIMS, "7");
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_aesz"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn aesz serve"),
    );
    let mut line = String::new();
    let listening = daemon.0.stdout.take().expect("daemon stdout");
    BufReader::new(listening)
        .read_line(&mut line)
        .expect("daemon's first line");
    let addr = line
        .strip_prefix("aesz serve: listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected first line: {line}"))
        .to_string();

    let frame = s.path("field.aesc");
    let out = ok(&[
        "remote", "--addr", &addr, "compress", "--input", &field, "--dims", DIMS, "--codec", "zfp",
        "--abs", "1e-3", "--output", &frame,
    ]);
    assert!(stdout(&out).starts_with("remote ZFP:"));
    assert_eq!(&read(&frame)[..4], b"AESC");
    let recon = s.path("recon.f32");
    ok(&[
        "remote",
        "--addr",
        &addr,
        "decompress",
        "--input",
        &frame,
        "--output",
        &recon,
    ]);
    ok(&[
        "compare",
        "--a",
        &field,
        "--b",
        &recon,
        "--dims",
        DIMS,
        "--max-abs",
        "1e-3",
    ]);
    let local = ok_with(
        &["decompress", "--input", "-", "--output", "-"],
        &read(&frame),
    );
    assert_eq!(local.stdout, read(&recon), "remote and local decode agree");
    let health = stdout(&ok(&["remote", "--addr", &addr, "health"]));
    assert!(health.contains(": healthy, uptime"), "{health}");
    let stats = stdout(&ok(&["remote", "--addr", &addr, "stats"]));
    assert!(stats.contains("1 compressed, 1 decompressed"), "{stats}");
    let models = stdout(&ok(&["remote", "--addr", &addr, "models"]));
    assert!(models.contains(": 0 models"), "{models}");
    drop(daemon);
}

#[test]
fn a_file_holding_one_container_frame_decodes_like_the_piped_frame() {
    use aesz_repro::datagen::Application;
    use aesz_repro::{CodecId, Dims, ErrorBound, Registry};

    let s = Scratch::new("frame");
    let field = Application::CesmCldhgh.generate(Dims::d2(96, 128), 7);
    let frame = Registry::with_defaults()
        .fork(CodecId::Zfp)
        .expect("ZFP is registered")
        .compress(&field, ErrorBound::abs(1e-3))
        .expect("compress");
    let path = s.path("field.aesc");
    std::fs::write(&path, &frame).expect("write frame");

    let info = stdout(&ok(&["info", "--input", &path]));
    let peeked = aesz_repro::metrics::container::peek(&frame).expect("peek");
    assert!(info.contains("AESC"), "{info}");
    assert!(info.contains("ZFP"), "{info}");
    assert!(
        info.contains(&format!("{} payload bytes", peeked.payload_len)),
        "{info}"
    );

    let from_file = s.path("from_file.f32");
    ok(&["decompress", "--input", &path, "--output", &from_file]);
    let piped = ok_with(&["decompress", "--input", "-", "--output", "-"], &frame);
    assert_eq!(piped.stdout.len(), RAW_BYTES);
    assert_eq!(read(&from_file), piped.stdout, "file and pipe decode agree");
    let to_stdout = ok(&["decompress", "--input", &path, "--output", "-"]);
    assert_eq!(to_stdout.stdout, piped.stdout, "file -> stdout");
    fails(
        &[
            "decompress",
            "--input",
            &path,
            "--output",
            &from_file,
            "--verify",
        ],
        &[],
    );
}
