//! Shared conformance suite over the unified compressor API: every
//! registered codec must roundtrip through the container frame, honour both
//! error-bound modes (unless it declares itself not error-bounded), survive
//! degenerate inputs, and reject — never panic on — truncated streams at
//! every offset, both at the frame level and inside the payload.

use aesz_repro::datagen::Application;
use aesz_repro::metrics::{
    container, max_abs_error, verify_error_bound, CodecId, CompressError, ErrorBound,
};
use aesz_repro::{Dims, Field};

mod common;
use common::{field_2d, test_field, trained_registry};

#[test]
fn roundtrip_honours_both_bound_modes() {
    let mut registry = trained_registry();
    for id in CodecId::all() {
        let field = test_field(id);
        let abs = 1e-2 * field.value_range() as f64;
        for bound in [ErrorBound::rel(1e-2), ErrorBound::abs(abs)] {
            let codec = registry.get_mut(id).expect("registered");
            let bounded = codec.is_error_bounded();
            let bytes = codec
                .compress(&field, bound)
                .unwrap_or_else(|e| panic!("{id} failed to compress ({bound}): {e}"));
            assert_eq!(container::peek(&bytes).unwrap().codec, id);
            let recon = codec
                .decompress(&bytes)
                .unwrap_or_else(|e| panic!("{id} failed to decode its own stream: {e}"));
            assert_eq!(recon.dims(), field.dims(), "{id} changed the dims");
            let resolved = bound.resolve(&field);
            if bounded {
                verify_error_bound(
                    field.as_slice(),
                    recon.as_slice(),
                    resolved,
                    resolved * 1e-3,
                )
                .unwrap_or_else(|e| panic!("{id} violated its bound ({bound}): {e}"));
            } else {
                // AE-B: fixed-rate, quality is whatever the network delivers —
                // but the reconstruction must still be sane.
                let (lo, hi) = field.min_max();
                let slack = (hi - lo) * 0.5;
                assert!(
                    recon
                        .as_slice()
                        .iter()
                        .all(|&v| v.is_finite() && v >= lo - slack && v <= hi + slack),
                    "{id} reconstruction left the data envelope"
                );
            }
        }
    }
}

#[test]
fn fields_whose_range_overflows_f32_are_refused_or_rebuilt_finite() {
    // Finite fields spanning ±3e38, whose max − min overflows f32: each codec
    // refuses them with a typed error or rebuilds every value finite, and
    // within the bound when it is error-bounded.
    let scaled = |field: Field| {
        let (unit, _, _) = field.normalize_pm1();
        let values = unit.as_slice().iter().map(|v| v * 3e38).collect();
        Field::from_vec(field.dims(), values).unwrap()
    };
    let fields = [
        scaled(Application::CesmCldhgh.generate(Dims::d2(64, 64), 4)),
        scaled(Application::NyxBaryonDensity.generate(Dims::d3(16, 16, 16), 4)),
    ];
    let mut registry = trained_registry();
    for id in CodecId::all() {
        for field in &fields {
            for bound in [ErrorBound::rel(1e-3), ErrorBound::abs(1e35)] {
                let codec = registry.get_mut(id).expect("registered");
                let Ok(bytes) = codec.compress(field, bound) else {
                    continue;
                };
                let what = format!("{id} on {} at {bound}", field.dims());
                let recon = codec
                    .decompress(&bytes)
                    .unwrap_or_else(|e| panic!("{what} failed to decode its own stream: {e}"));
                assert!(
                    recon.as_slice().iter().all(|v| v.is_finite()),
                    "{what} rebuilt non-finite values"
                );
                if codec.is_error_bounded() {
                    let resolved = bound.resolve(field);
                    verify_error_bound(field.as_slice(), recon.as_slice(), resolved, 0.0)
                        .unwrap_or_else(|e| panic!("{what} violated its bound: {e}"));
                }
            }
        }
    }
}

#[test]
fn constant_fields_roundtrip_within_bound() {
    let mut registry = trained_registry();
    let bound = ErrorBound::rel(1e-3);
    for id in CodecId::all() {
        let dims = match id {
            CodecId::AeB => Dims::d3(16, 16, 16),
            _ => Dims::d2(24, 24),
        };
        let field = Field::from_vec(dims, vec![4.2; dims.len()]).unwrap();
        let codec = registry.get_mut(id).expect("registered");
        let bytes = codec
            .compress(&field, bound)
            .unwrap_or_else(|e| panic!("{id} failed on a constant field: {e}"));
        let recon = codec
            .decompress(&bytes)
            .unwrap_or_else(|e| panic!("{id} failed to decode its constant-field stream: {e}"));
        assert_eq!(recon.dims(), field.dims());
        if codec.is_error_bounded() {
            // Degenerate-range contract: the relative value acts as the
            // absolute bound.
            let resolved = bound.resolve(&field);
            let max_err = max_abs_error(field.as_slice(), recon.as_slice());
            assert!(
                max_err <= resolved * 1.001,
                "{id} violated the degenerate-range bound: {max_err} > {resolved}"
            );
        }
    }
}

/// The PR-3 latent gap: `ErrorBound::Abs` on a constant (`hi == lo`) field.
/// Per the degenerate-range contract documented on `ErrorBound::resolve`, an
/// absolute bound resolves to exactly itself (no flooring, no rescaling), so
/// every error-bounded codec must reconstruct a constant field within the
/// requested absolute tolerance — and the streams must dispatch through
/// `decompress_any` like any other.
#[test]
fn abs_bound_on_constant_fields_roundtrips_through_decompress_any() {
    let mut registry = trained_registry();
    let bound = ErrorBound::abs(1e-3);
    for id in CodecId::all() {
        let dims = match id {
            CodecId::AeB => Dims::d3(16, 16, 16),
            _ => Dims::d2(24, 24),
        };
        let field = Field::from_vec(dims, vec![-7.25; dims.len()]).unwrap();
        let bounded = registry.get_mut(id).expect("registered").is_error_bounded();
        let bytes = registry
            .get_mut(id)
            .expect("registered")
            .compress(&field, bound)
            .unwrap_or_else(|e| panic!("{id} failed on a constant field with an abs bound: {e}"));
        let (recon, dispatched) = registry
            .decompress_any(&bytes)
            .unwrap_or_else(|e| panic!("decompress_any failed for {id}: {e}"));
        assert_eq!(dispatched, id);
        assert_eq!(recon.dims(), field.dims());
        // resolve() must hand every codec exactly the requested tolerance.
        assert_eq!(bound.resolve(&field), 1e-3, "{id}");
        if bounded {
            let max_err = max_abs_error(field.as_slice(), recon.as_slice());
            assert!(
                max_err <= 1e-3 * 1.001,
                "{id} violated the abs bound on a constant field: {max_err}"
            );
        }
    }
}

#[test]
fn empty_and_rank_mismatched_fields_are_rejected() {
    let mut registry = trained_registry();
    let empty = Field::zeros(Dims::d2(0, 16));
    for id in CodecId::all() {
        let codec = registry.get_mut(id).expect("registered");
        assert!(
            matches!(
                codec.compress(&empty, ErrorBound::rel(1e-3)),
                Err(CompressError::UnsupportedField(_))
            ),
            "{id} accepted an empty field"
        );
    }
    // AE-B is rank-3 only; a 2D field must be an error, not a panic.
    let codec = registry.get_mut(CodecId::AeB).expect("registered");
    assert!(matches!(
        codec.compress(&field_2d(), ErrorBound::rel(1e-3)),
        Err(CompressError::UnsupportedField(_))
    ));
}

#[test]
fn truncation_at_every_offset_returns_err_never_panics() {
    let mut registry = trained_registry();
    for id in CodecId::all() {
        let field = test_field(id);
        let codec = registry.get_mut(id).expect("registered");
        let bytes = codec
            .compress(&field, ErrorBound::rel(1e-2))
            .unwrap_or_else(|e| panic!("{id} failed to compress: {e}"));

        // Frame-level truncation: every prefix of the framed stream.
        for len in 0..bytes.len() {
            assert!(
                codec.decompress(&bytes[..len]).is_err(),
                "{id}: framed prefix of {len}/{} bytes decoded",
                bytes.len()
            );
        }

        // Payload-level truncation: re-frame every prefix of the payload with
        // a *consistent* frame, so the codec's own validation is what must
        // reject it (the frame length check cannot catch these).
        let (_, payload) = container::read_frame(&bytes).expect("own frame");
        let payload = payload.to_vec();
        for len in 0..payload.len() {
            let reframed = container::write_frame(id, &payload[..len]);
            assert!(
                codec.decompress(&reframed).is_err(),
                "{id}: payload prefix of {len}/{} bytes decoded",
                payload.len()
            );
        }
    }
}

#[test]
fn decompress_any_roundtrips_all_seven_codecs() {
    let mut registry = trained_registry();
    let mut streams = Vec::new();
    for id in CodecId::all() {
        let field = test_field(id);
        let bytes = registry
            .get_mut(id)
            .expect("registered")
            .compress(&field, ErrorBound::rel(1e-2))
            .unwrap_or_else(|e| panic!("{id} failed to compress: {e}"));
        streams.push((id, field, bytes));
    }
    for (id, field, bytes) in &streams {
        let (recon, dispatched) = registry
            .decompress_any(bytes)
            .unwrap_or_else(|e| panic!("decompress_any failed for {id}: {e}"));
        assert_eq!(dispatched, *id);
        assert_eq!(recon.dims(), field.dims());
        // Truncated prefixes must be errors through the dispatcher too.
        for len in 0..bytes.len() {
            assert!(
                registry.decompress_any(&bytes[..len]).is_err(),
                "{id}: dispatched prefix of {len} bytes decoded"
            );
        }
    }
}

#[test]
fn streams_are_rejected_by_the_wrong_codec() {
    let mut registry = trained_registry();
    let field = field_2d();
    let bytes = registry
        .get_mut(CodecId::Sz2)
        .unwrap()
        .compress(&field, ErrorBound::rel(1e-2))
        .unwrap();
    let zfp = registry.get_mut(CodecId::Zfp).unwrap();
    assert!(matches!(
        zfp.decompress(&bytes),
        Err(aesz_repro::DecompressError::WrongCodec {
            expected: CodecId::Zfp,
            found: CodecId::Sz2,
        })
    ));
}
