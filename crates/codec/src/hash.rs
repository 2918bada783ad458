//! Content hashing for stable artifact identity.
//!
//! The model lifecycle stores trained networks *separately* from the
//! compressed data (the paper's Fig. 2 split), so streams and archives need a
//! way to name the exact network that produced them. [`ModelId`] is that
//! name: the first 16 bytes of the SHA-256 digest of the model's serialized
//! bytes. Content addressing makes the id stable across machines, processes
//! and re-serialization — two byte-identical model files always share one id,
//! and any corruption of the bytes changes it.
//!
//! The SHA-256 implementation is self-contained (the build environment is
//! offline, so no hashing crate is available) and matches FIPS 180-4; the
//! test vectors below pin the empty-string and `"abc"` digests.

/// First 32 bits of the fractional parts of the cube roots of the first 64
/// primes (the SHA-256 round constants).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

fn compress_block(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, c) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// SHA-256 digest of `bytes` (FIPS 180-4).
pub fn sha256(bytes: &[u8]) -> [u8; 32] {
    // Initial state: fractional parts of the square roots of the first 8 primes.
    let mut state: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut chunks = bytes.chunks_exact(64);
    for block in chunks.by_ref() {
        compress_block(&mut state, block);
    }
    // Padding: 0x80, zeros, and the bit length as a big-endian u64.
    let rem = chunks.remainder();
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() < 56 { 64 } else { 128 };
    let bit_len = (bytes.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    for block in tail[..tail_len].chunks_exact(64) {
        compress_block(&mut state, block);
    }
    let mut out = [0u8; 32];
    for (i, s) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&s.to_be_bytes());
    }
    out
}

/// Content-addressed identity of a serialized model: the first 16 bytes of
/// the SHA-256 digest of the model's serialized bytes.
///
/// The id is part of the wire formats that carry model provenance (the
/// AE-SZ `AESZ0003` stream header, the AE-A/AE-B payload headers, the `AESM`
/// model frame and the `AESA` archive model section), so its derivation
/// must never change. Displayed as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId([u8; 16]);

/// Encoded size of a [`ModelId`] in every wire format that carries one.
pub const MODEL_ID_LEN: usize = 16;

impl ModelId {
    /// The id of a serialized model: truncated SHA-256 of its bytes.
    pub fn of(serialized: &[u8]) -> ModelId {
        let digest = sha256(serialized);
        let mut id = [0u8; MODEL_ID_LEN];
        id.copy_from_slice(&digest[..MODEL_ID_LEN]);
        ModelId(id)
    }

    /// Wrap raw id bytes read from a stream.
    pub fn from_bytes(bytes: [u8; MODEL_ID_LEN]) -> ModelId {
        ModelId(bytes)
    }

    /// Read an id from the first [`MODEL_ID_LEN`] bytes of a buffer —
    /// the shape every wire format stores ids in. `None` when the buffer is
    /// too short.
    pub fn from_prefix(bytes: &[u8]) -> Option<ModelId> {
        let prefix = bytes.get(..MODEL_ID_LEN)?;
        let mut raw = [0u8; MODEL_ID_LEN];
        raw.copy_from_slice(prefix);
        Some(ModelId(raw))
    }

    /// The raw id bytes, as written into stream headers.
    pub fn as_bytes(&self) -> &[u8; MODEL_ID_LEN] {
        &self.0
    }

    /// Parse the 32-hex-digit form produced by `Display` (how sidecar model
    /// files are named).
    pub fn from_hex(s: &str) -> Option<ModelId> {
        let s = s.as_bytes();
        if s.len() != 2 * MODEL_ID_LEN {
            return None;
        }
        let nibble = |c: u8| -> Option<u8> {
            match c {
                b'0'..=b'9' => Some(c - b'0'),
                b'a'..=b'f' => Some(c - b'a' + 10),
                b'A'..=b'F' => Some(c - b'A' + 10),
                _ => None,
            }
        };
        let mut id = [0u8; MODEL_ID_LEN];
        for (i, pair) in s.chunks_exact(2).enumerate() {
            id[i] = nibble(pair[0])? << 4 | nibble(pair[1])?;
        }
        Some(ModelId(id))
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_handles_every_padding_boundary() {
        // Lengths straddling the 55/56 and 63/64 byte padding cases must not
        // panic and must all be distinct.
        let mut seen = std::collections::HashSet::new();
        for len in 0..200 {
            let digest = sha256(&vec![0xabu8; len]);
            assert!(seen.insert(digest), "digest collision at length {len}");
        }
    }

    #[test]
    fn model_id_roundtrips_through_hex() {
        let id = ModelId::of(b"some serialized model");
        let hexed = id.to_string();
        assert_eq!(hexed.len(), 32);
        assert_eq!(ModelId::from_hex(&hexed), Some(id));
        assert_eq!(ModelId::from_hex(&hexed.to_uppercase()), Some(id));
        assert_eq!(ModelId::from_hex("tooshort"), None);
        assert_eq!(ModelId::from_hex(&"g".repeat(32)), None);
        assert_eq!(ModelId::from_bytes(*id.as_bytes()), id);
    }

    #[test]
    fn distinct_content_gets_distinct_ids() {
        assert_ne!(ModelId::of(b"model a"), ModelId::of(b"model b"));
        assert_eq!(ModelId::of(b"model a"), ModelId::of(b"model a"));
    }
}
