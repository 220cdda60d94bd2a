//! AES-256 block cipher (FIPS 197) with CTR mode — the cipher behind the
//! IPSec gateway of §5.7 (AES-256-CTR) and the AES accelerator of Table 3.

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 11] = [
    0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
];

fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// Key words (Nk) and rounds (Nr) of AES-256.
const NK: usize = 8;
const ROUNDS: usize = 14;

/// An expanded AES-256 key schedule.
#[derive(Clone)]
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
}

impl Aes {
    /// Expand a 32-byte key (FIPS 197 §5.2).
    pub fn new_256(key: &[u8; 32]) -> Aes {
        let nwords = 4 * (ROUNDS + 1);
        let mut w = vec![[0u8; 4]; nwords];
        for (i, word) in w.iter_mut().take(NK).enumerate() {
            word.copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        for i in NK..nwords {
            let mut t = w[i - 1];
            if i % NK == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= RCON[i / NK];
            } else if i % NK == 4 {
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - NK][j] ^ t[j];
            }
        }
        let round_keys = w
            .chunks_exact(4)
            .map(|c| {
                let mut rk = [0u8; 16];
                for (i, word) in c.iter().enumerate() {
                    rk[i * 4..i * 4 + 4].copy_from_slice(word);
                }
                rk
            })
            .collect();
        Aes { round_keys }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // State is column-major: byte (row r, col c) at index c*4 + r.
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[c * 4 + r] = s[((c + r) % 4) * 4 + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = &mut state[c * 4..c * 4 + 4];
            let (a0, a1, a2, a3) = (col[0], col[1], col[2], col[3]);
            col[0] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
            col[1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
            col[2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
            col[3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
        }
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        Self::add_round_key(block, &self.round_keys[0]);
        for round in 1..ROUNDS {
            Self::sub_bytes(block);
            Self::shift_rows(block);
            Self::mix_columns(block);
            Self::add_round_key(block, &self.round_keys[round]);
        }
        Self::sub_bytes(block);
        Self::shift_rows(block);
        Self::add_round_key(block, &self.round_keys[ROUNDS]);
    }

    /// CTR-mode keystream transform (encryption and decryption are the same
    /// operation). `nonce` seeds the upper 8 bytes of the counter block.
    pub fn ctr_transform(&self, nonce: u64, data: &mut [u8]) {
        for (counter, chunk) in (0u64..).zip(data.chunks_mut(16)) {
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&nonce.to_be_bytes());
            block[8..].copy_from_slice(&counter.to_be_bytes());
            self.encrypt_block(&mut block);
            for (d, k) in chunk.iter_mut().zip(block.iter()) {
                *d ^= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 197 Appendix C.3: AES-256 known-answer test.
    #[test]
    fn fips197_aes256_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| u8::try_from(i).unwrap());
        let mut block: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        Aes::new_256(&key).encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
                0x60, 0x89
            ]
        );
    }

    #[test]
    fn ctr_roundtrip_various_lengths() {
        let key: [u8; 32] = core::array::from_fn(|i| u8::try_from(i * 7 + 3).unwrap());
        let aes = Aes::new_256(&key);
        for len in [0usize, 1, 15, 16, 17, 64, 100, 1024] {
            #[expect(clippy::cast_possible_truncation, reason = "the pattern wraps a byte")]
            let original: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
            let mut data = original.clone();
            aes.ctr_transform(0xDEAD_BEEF, &mut data);
            if len > 0 {
                assert_ne!(data, original, "len={len}");
            }
            aes.ctr_transform(0xDEAD_BEEF, &mut data);
            assert_eq!(data, original, "len={len}");
        }
    }

    #[test]
    fn ctr_nonce_separates_streams() {
        let key: [u8; 32] = [9; 32];
        let aes = Aes::new_256(&key);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        aes.ctr_transform(1, &mut a);
        aes.ctr_transform(2, &mut b);
        assert_ne!(a, b);
    }
}
