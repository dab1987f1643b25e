//! Hand-rolled CRC-32C (Castagnoli) behind one-time runtime dispatch.
//!
//! The durable GKSC v2 container ([`crate::io`]) checksums every section and
//! its header so a flipped bit or a short write is *detected* as a typed
//! [`crate::error::StoreError`] instead of being served as silently wrong
//! neighbours or a wrong k-NN graph.  The container sits on the serving path
//! — `index build` writes it, every server start reads it — so the checksum
//! must cost little next to the parse: every benchmark workload's `setup_s`
//! includes one checksummed `IvfIndex::load`.
//!
//! CRC-32C is chosen over the IEEE polynomial because both x86-64 (SSE4.2
//! `crc32` instruction) and aarch64 (the `crc` extension's `crc32cx`)
//! implement it in hardware, and the workspace has no registry access for a
//! crc crate.  Following the [`crate::kernels`] idiom, the implementation is
//! selected once per process via CPU-feature detection cached in a
//! [`OnceLock`]:
//!
//! * **x86-64 + SSE4.2** — `_mm_crc32_u64`, 8 bytes per instruction;
//! * **aarch64 + crc** — `__crc32cd`, 8 bytes per instruction;
//! * **fallback** — portable slicing-by-8 over compile-time tables.
//!
//! All three produce the standard CRC-32C value (init `!0`, reflected
//! polynomial `0x82F6_3B78`, final xor `!0`), so files written on one
//! architecture verify on every other.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::OnceLock;

/// Computes the CRC-32C checksum of `bytes`.
///
/// ```
/// // Standard test vector: CRC-32C("123456789") = 0xE3069283.
/// assert_eq!(vecstore::checksum::crc32c(b"123456789"), 0xE306_9283);
/// ```
#[inline]
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_append(!0u32, bytes) ^ !0u32
}

/// Streaming form: folds `bytes` into a running raw state (pre-final-xor).
///
/// Start from `!0`, fold any number of chunks, then xor with `!0` to obtain
/// the value [`crc32c`] would give for the concatenation.  Used by the
/// sectioned writer so tag, length and payload fold into one checksum without
/// materialising their concatenation.
#[inline]
pub fn crc32c_append(state: u32, bytes: &[u8]) -> u32 {
    static IMPL: OnceLock<fn(u32, &[u8]) -> u32> = OnceLock::new();
    (IMPL.get_or_init(detect))(state, bytes)
}

/// Human-readable name of the selected implementation (mirrors
/// `kernels::active_dispatch` for the bench report).
pub fn active_impl() -> &'static str {
    static NAME: OnceLock<&'static str> = OnceLock::new();
    NAME.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            return "sse4.2-crc32";
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("crc") {
            return "armv8-crc32";
        }
        "slicing-by-8"
    })
}

fn detect() -> fn(u32, &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        return x86_append;
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("crc") {
        return aarch64_append;
    }
    soft_append
}

#[cfg(target_arch = "x86_64")]
fn x86_append(state: u32, bytes: &[u8]) -> u32 {
    // SAFETY: `detect` only selects this implementation after
    // `is_x86_feature_detected!("sse4.2")` confirmed the instruction exists.
    unsafe { x86_append_inner(state, bytes) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn x86_append_inner(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(state);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in chunks.by_ref() {
        crc = _mm_crc32_u64(crc, le_u64_chunk(chunk));
    }
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

#[cfg(target_arch = "aarch64")]
fn aarch64_append(state: u32, bytes: &[u8]) -> u32 {
    // SAFETY: `detect` only selects this implementation after
    // `is_aarch64_feature_detected!("crc")` confirmed the instructions exist.
    unsafe { aarch64_append_inner(state, bytes) }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "crc")]
unsafe fn aarch64_append_inner(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::aarch64::{__crc32cb, __crc32cd};
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in chunks.by_ref() {
        crc = __crc32cd(crc, le_u64_chunk(chunk));
    }
    for &b in chunks.remainder() {
        crc = __crc32cb(crc, b);
    }
    crc
}

/// Little-endian `u64` from an 8-byte `chunks_exact` window (MSRV-friendly
/// stand-in for `as_chunks`).
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
fn le_u64_chunk(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `TABLES[0]` is the classic byte-at-a-time table and
/// `TABLES[j]` advances a byte seen `j` positions earlier, so eight table
/// lookups retire eight input bytes per iteration.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

fn soft_append(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let low = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = TABLES[7][(low & 0xff) as usize]
            ^ TABLES[6][((low >> 8) & 0xff) as usize]
            ^ TABLES[5][((low >> 16) & 0xff) as usize]
            ^ TABLES[4][(low >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_vectors() {
        // Catalogue of parametrised CRC algorithms, CRC-32C entry.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 3720 (iSCSI) appendix: 32 zero bytes.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 bytes of 0xFF.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        // Ascending 0..=31.
        let asc: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&asc), 0x46DD_794E);
    }

    #[test]
    fn software_matches_dispatched_on_all_lengths_and_offsets() {
        // Covers every tail length and unaligned starts; on hardware-capable
        // hosts this cross-checks the accelerated path against the tables.
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(131) >> 3) as u8)
            .collect();
        for start in 0..4 {
            for len in 0..(data.len() - start) {
                let slice = &data[start..start + len];
                let dispatched = crc32c(slice);
                let soft = soft_append(!0, slice) ^ !0;
                assert_eq!(dispatched, soft, "start={start} len={len}");
            }
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let mut state = !0u32;
            state = crc32c_append(state, &data[..split]);
            state = crc32c_append(state, &data[split..]);
            assert_eq!(state ^ !0, crc32c(&data), "split={split}");
        }
    }

    #[test]
    fn detects_every_single_bit_flip() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37) as u8).collect();
        let clean = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32c(&corrupt), clean, "byte={byte} bit={bit}");
            }
        }
    }

    #[test]
    fn active_impl_is_stable() {
        assert_eq!(active_impl(), active_impl());
        assert!(!active_impl().is_empty());
    }
}
