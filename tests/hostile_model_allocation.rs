//! A model file is untrusted input: its config names a network, but only
//! the weights the file carries may be paid for in memory. The 72-byte
//! `AESZMDL1` payload below describes a network of 537,134,124 parameters
//! (about 2 GB) and carries none of them. Rejecting it — directly, or inside
//! the `AESM` frame that `aesz compress --model`, an archive's model tail
//! or an `AESP` request hands to the AE-SZ and AE-B loaders — must never
//! ask the allocator for more than a mebibyte at once.
//!
//! This binary holds exactly one `#[test]` so the allocator's high-water
//! mark belongs to that test alone.

mod common;

use aesz_repro::metrics::{CodecId, EmbeddedModel};
use aesz_repro::model_store::build_compressor;
use aesz_repro::nn::serialize::load_model;

#[global_allocator]
static ALLOC: common::alloc::CountingAlloc = common::alloc::CountingAlloc::new();

const MIB: u64 = 1 << 20;

#[test]
fn rejecting_a_hostile_model_never_requests_more_than_a_mebibyte() {
    // Rank 2, block 1024, latent 1024, not variational, seed 0, one conv
    // block of 1 channel, and a parameter stream declaring 0 parameters.
    let mut payload = b"AESZMDL1".to_vec();
    for v in [2u64, 1024, 1024, 0, 0, 1, 1, 0] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    assert_eq!(payload.len(), 72);

    ALLOC.reset_largest();
    let rejected = load_model(&payload).is_err();
    let largest = ALLOC.largest();
    assert!(
        largest <= MIB,
        "load_model requested {largest} bytes at once"
    );
    assert!(rejected, "load_model accepted the payload");

    for codec in [CodecId::AeSz, CodecId::AeB] {
        let frame = EmbeddedModel::new(codec, &payload);
        assert_eq!(frame.frame.len(), 86);
        ALLOC.reset_largest();
        let rejected = build_compressor(&frame).is_err();
        let largest = ALLOC.largest();
        assert!(
            largest <= MIB,
            "{codec} model frame: requested {largest} bytes at once"
        );
        assert!(rejected, "{codec} model frame accepted");
    }
}
