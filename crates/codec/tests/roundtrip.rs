//! Round-trip tests for the lossless coding substrate across the degenerate
//! shapes entropy coders historically get wrong: empty input, a single
//! distinct symbol (zero-entropy alphabet), and large random payloads.

use aesz_codec::{
    decode_codes_capped, decompress_bytes_capped, encode_codes, huffman_decode_capped,
    huffman_encode, varint, zlite_compress, zlite_decompress_capped, BitReader, BitWriter,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn huffman_roundtrips_empty_single_symbol_and_large_random() {
    let empty: Vec<u32> = vec![];
    assert_eq!(
        huffman_decode_capped(&huffman_encode(&empty), empty.len()),
        Some(empty)
    );

    // Zero-entropy alphabet: every code word would be 0 bits long without a
    // degenerate-tree guard.
    let single = vec![42u32; 10_000];
    assert_eq!(
        huffman_decode_capped(&huffman_encode(&single), single.len()),
        Some(single)
    );

    let one = vec![7u32];
    assert_eq!(
        huffman_decode_capped(&huffman_encode(&one), one.len()),
        Some(one)
    );

    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    let large: Vec<u32> = (0..200_000).map(|_| rng.gen_range(0..65_536u32)).collect();
    assert_eq!(
        huffman_decode_capped(&huffman_encode(&large), large.len()),
        Some(large)
    );
}

#[test]
fn pipeline_roundtrips_empty_single_symbol_and_large_random() {
    let empty: Vec<u32> = vec![];
    assert_eq!(
        decode_codes_capped(&encode_codes(&empty), empty.len()).unwrap(),
        empty
    );

    let single = vec![32_768u32; 4096];
    assert_eq!(
        decode_codes_capped(&encode_codes(&single), single.len()).unwrap(),
        single
    );

    // Quantization-code-like data: a dominant symbol with sparse outliers,
    // plus a fully random tail.
    let mut rng = StdRng::seed_from_u64(0x919E11);
    let mixed: Vec<u32> = (0..100_000)
        .map(|i| {
            if i % 31 == 0 {
                rng.gen_range(0..65_536u32)
            } else {
                32_768
            }
        })
        .collect();
    assert_eq!(
        decode_codes_capped(&encode_codes(&mixed), mixed.len()).unwrap(),
        mixed
    );
}

#[test]
fn zlite_roundtrips_empty_single_byte_and_large_random() {
    assert_eq!(
        zlite_decompress_capped(&zlite_compress(&[]), 0).unwrap(),
        vec![]
    );
    assert_eq!(
        zlite_decompress_capped(&zlite_compress(&[0xAB]), 1).unwrap(),
        vec![0xAB]
    );

    let runs = vec![0x5Au8; 100_000];
    assert_eq!(
        zlite_decompress_capped(&zlite_compress(&runs), runs.len()).unwrap(),
        runs
    );

    // Incompressible input must still round-trip (stored/literal path).
    let mut rng = StdRng::seed_from_u64(0x217E);
    let random: Vec<u8> = (0..150_000).map(|_| rng.gen()).collect();
    assert_eq!(
        zlite_decompress_capped(&zlite_compress(&random), random.len()).unwrap(),
        random
    );

    let compressed = compressible_then_random(&mut rng);
    assert_eq!(
        decompress_bytes_capped(&aesz_codec::compress_bytes(&compressed), compressed.len())
            .unwrap(),
        compressed
    );
}

fn compressible_then_random(rng: &mut StdRng) -> Vec<u8> {
    let mut v = b"abcabcabcabc".repeat(2000);
    v.extend((0..20_000).map(|_| rng.gen::<u8>()));
    v
}

#[test]
fn varint_roundtrips_boundary_and_random_values() {
    let mut buf = Vec::new();
    let boundary = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
    for &v in &boundary {
        varint::write_uvarint(&mut buf, v);
    }
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let random: Vec<u64> = (0..10_000).map(|_| rng.gen()).collect();
    for &v in &random {
        varint::write_uvarint(&mut buf, v);
    }
    let signed = [i64::MIN, -1, 0, 1, i64::MAX];
    for &v in &signed {
        varint::write_ivarint(&mut buf, v);
    }

    let mut pos = 0usize;
    for &v in &boundary {
        assert_eq!(varint::read_uvarint(&buf, &mut pos), Some(v));
    }
    for &v in &random {
        assert_eq!(varint::read_uvarint(&buf, &mut pos), Some(v));
    }
    for &v in &signed {
        assert_eq!(varint::read_ivarint(&buf, &mut pos), Some(v));
    }
    assert_eq!(pos, buf.len());
    assert_eq!(
        varint::read_uvarint(&buf, &mut pos),
        None,
        "buffer exhausted"
    );
}

#[test]
fn bitio_roundtrips_unaligned_widths() {
    let mut w = BitWriter::new();
    let mut rng = StdRng::seed_from_u64(0xB17);
    let mut expected = Vec::new();
    // Empty writer → empty buffer.
    assert!(BitWriter::new().into_bytes().is_empty());
    for _ in 0..50_000 {
        let width = rng.gen_range(1..=57u8);
        let value = rng.gen::<u64>() & ((1u64 << width) - 1);
        w.write_bits(value, width);
        expected.push((value, width));
    }
    let bytes = w.into_bytes();
    let mut r = BitReader::new(&bytes);
    for (value, width) in expected {
        assert_eq!(r.read_bits(width), Some(value));
    }
}
