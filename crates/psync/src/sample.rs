//! FFT samples on the wire.
//!
//! The paper's samples are 64 bits (`S_s = 64`): a complex value carried as
//! two 32-bit halves. Nodes compute in f64 but the *wire and DRAM* format is
//! the 64-bit sample, so transport quantizes to f32 — exactly the fidelity a
//! real P-sync machine with 64-bit samples would have.

use fft::Complex64;

/// Pack a complex sample into its 64-bit wire format (re in the high half).
pub fn encode_sample(c: Complex64) -> u64 {
    let re = (c.re as f32).to_bits() as u64;
    let im = (c.im as f32).to_bits() as u64;
    (re << 32) | im
}

/// Unpack a 64-bit wire sample.
pub(crate) fn decode_sample(w: u64) -> Complex64 {
    let re = f32::from_bits((w >> 32) as u32) as f64;
    let im = f32::from_bits((w & 0xFFFF_FFFF) as u32) as f64;
    Complex64::new(re, im)
}

/// Encode a slice of samples.
pub fn encode_all(xs: &[Complex64]) -> Vec<u64> {
    xs.iter().copied().map(encode_sample).collect()
}

/// Decode a slice of wire words.
pub fn decode_all(ws: &[u64]) -> Vec<Complex64> {
    ws.iter().copied().map(decode_sample).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_f32_exact() {
        for (re, im) in [(0.0, 0.0), (1.5, -2.25), (3.0e8, -1.0e-8), (-0.1, 0.7)] {
            let c = Complex64::new(re, im);
            let back = decode_sample(encode_sample(c));
            assert_eq!(back.re, re as f32 as f64);
            assert_eq!(back.im, im as f32 as f64);
        }
    }

    #[test]
    fn quantization_error_is_small() {
        let c = Complex64::new(std::f64::consts::PI, -std::f64::consts::E);
        let back = decode_sample(encode_sample(c));
        assert!((back - c).abs() < 1e-6);
    }

    #[test]
    fn halves_are_independent() {
        let w = encode_sample(Complex64::new(1.0, -1.0));
        let re_only = decode_sample(w & 0xFFFF_FFFF_0000_0000);
        assert_eq!(re_only.re, 1.0);
        assert_eq!(re_only.im, 0.0);
    }

    #[test]
    fn bulk_roundtrip() {
        let xs: Vec<Complex64> = (0..64)
            .map(|i| Complex64::new(i as f64 * 0.5, -(i as f64)))
            .collect();
        let back = decode_all(&encode_all(&xs));
        for (a, b) in xs.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-4);
        }
    }
}
