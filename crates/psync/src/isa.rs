//! The Computation Program ISA — paper Fig. 7.
//!
//! A P-sync node's compute side is "a local Data Memory, an Execution Unit,
//! and a Computation Instruction Memory". Where the rest of this crate
//! calls the `fft` crate directly for convenience, this module makes the
//! architecture literal: computation is a *program* of butterfly-level
//! instructions compiled ahead of time (just as the Communication Program
//! schedules the waveguide), interpreted by the Execution Unit against the
//! Data Memory, with multiply counts — and therefore time — falling out of
//! execution rather than a formula.
//!
//! "The software generally is quite explicit about the computation
//! operations" (§IV) — here it is, explicitly.

use fft::Complex64;
use serde::Serialize;

/// One computation instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Instr {
    /// Radix-2 DIT butterfly on data memory cells `a` and `b` with twiddle
    /// ROM entry `w`: `(x_a, x_b) ← (x_a + w·x_b, x_a − w·x_b)`.
    /// Costs 4 real multiplies (the paper's Table I costing).
    Butterfly {
        /// First operand cell.
        a: u32,
        /// Second operand cell.
        b: u32,
        /// Twiddle ROM index.
        w: u32,
    },
    /// Swap two data-memory cells (bit-reversal permutation step). Free of
    /// multiplies.
    Swap {
        /// One cell.
        i: u32,
        /// The other.
        j: u32,
    },
    /// Pointwise twiddle multiply `x_i ← x_i · rom[w]` (six-step's step 2).
    /// Costs 4 real multiplies.
    TwiddleMul {
        /// Target cell.
        i: u32,
        /// Twiddle ROM index.
        w: u32,
    },
    /// Stop execution.
    Halt,
}

/// A compiled computation program: instructions + twiddle ROM.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompProgram {
    /// Instruction memory.
    pub instrs: Vec<Instr>,
    /// Twiddle ROM contents.
    pub rom: Vec<Complex64>,
}

/// Execution statistics from one program run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ExecStats {
    /// Instructions retired (including Halt).
    pub instructions: u64,
    /// Real multiplies performed.
    pub multiplies: u64,
}

impl ExecStats {
    /// Compute time in nanoseconds at `mult_ns` per multiply (the paper
    /// counts only multiplies).
    pub fn time_ns(&self, mult_ns: f64) -> f64 {
        self.multiplies as f64 * mult_ns
    }
}

impl CompProgram {
    /// Execute against a data memory. Returns statistics.
    ///
    /// # Panics
    /// Panics on out-of-range cell or ROM references (a miscompiled
    /// program) or on a missing `Halt`.
    pub fn execute(&self, data: &mut [Complex64]) -> ExecStats {
        let mut stats = ExecStats::default();
        for ins in &self.instrs {
            stats.instructions += 1;
            match *ins {
                Instr::Butterfly { a, b, w } => {
                    let wv = self.rom[w as usize];
                    let t = wv * data[b as usize];
                    let u = data[a as usize];
                    data[a as usize] = u + t;
                    data[b as usize] = u - t;
                    stats.multiplies += 4;
                }
                Instr::Swap { i, j } => data.swap(i as usize, j as usize),
                Instr::TwiddleMul { i, w } => {
                    data[i as usize] = data[i as usize] * self.rom[w as usize];
                    stats.multiplies += 4;
                }
                Instr::Halt => return stats,
            }
        }
        panic!("computation program fell off the end without Halt");
    }

    /// Program length in instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when only `Halt` remains.
    pub fn is_empty(&self) -> bool {
        self.instrs.len() <= 1
    }
}

impl Instr {
    /// Encode to the 64-bit instruction word: opcode in bits 62..64, three
    /// 20-bit operand fields below. This is the format that rides the
    /// SCA⁻¹ when computation programs are "delivered, along with
    /// operational code ... interleaved with data delivery" (§IV).
    pub fn encode(&self) -> u64 {
        const F: u64 = (1 << 20) - 1;
        match *self {
            Instr::Butterfly { a, b, w } => {
                ((a as u64 & F) << 40) | ((b as u64 & F) << 20) | (w as u64 & F)
            }
            Instr::Swap { i, j } => (1u64 << 62) | ((i as u64 & F) << 40) | ((j as u64 & F) << 20),
            Instr::TwiddleMul { i, w } => (2u64 << 62) | ((i as u64 & F) << 40) | (w as u64 & F),
            Instr::Halt => 3u64 << 62,
        }
    }

    /// Decode a 64-bit instruction word.
    pub fn decode(word: u64) -> Instr {
        const F: u64 = (1 << 20) - 1;
        let op = word >> 62;
        let x = ((word >> 40) & F) as u32;
        let y = ((word >> 20) & F) as u32;
        let z = (word & F) as u32;
        match op {
            0 => Instr::Butterfly { a: x, b: y, w: z },
            1 => Instr::Swap { i: x, j: y },
            2 => Instr::TwiddleMul { i: x, w: z },
            _ => Instr::Halt,
        }
    }
}

impl CompProgram {
    /// Serialize the whole program (instructions then ROM as 64-bit wire
    /// samples) for SCA⁻¹ delivery. Layout: `[n_instr][instrs...][rom...]`.
    pub fn encode_words(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(1 + self.instrs.len() + self.rom.len());
        out.push(self.instrs.len() as u64);
        out.extend(self.instrs.iter().map(Instr::encode));
        out.extend(self.rom.iter().map(|&c| crate::sample::encode_sample(c)));
        out
    }

    /// Deserialize from [`Self::encode_words`] output. ROM entries pass
    /// through the 64-bit (f32-pair) wire format, so twiddles round to f32
    /// — the precision a real 64-bit-sample machine would have.
    pub fn decode_words(words: &[u64]) -> CompProgram {
        let n_instr = words[0] as usize;
        let instrs = words[1..1 + n_instr]
            .iter()
            .map(|&w| Instr::decode(w))
            .collect();
        let rom = words[1 + n_instr..]
            .iter()
            .map(|&w| crate::sample::decode_sample(w))
            .collect();
        CompProgram { instrs, rom }
    }
}

/// Compile an in-place N-point radix-2 DIT FFT (including the bit-reversal
/// prologue) into a [`CompProgram`].
pub fn compile_fft(n: usize) -> CompProgram {
    assert!(
        n.is_power_of_two() && n >= 1,
        "radix-2 needs a power of two"
    );
    let bits = n.trailing_zeros();
    let mut instrs = Vec::new();

    // Bit-reversal prologue.
    if n > 2 {
        for i in 0..n {
            let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
            if j > i {
                instrs.push(Instr::Swap {
                    i: i as u32,
                    j: j as u32,
                });
            }
        }
    }

    // Twiddle ROM: w_N^j for j in 0..n/2 (stage strides index into it).
    let rom: Vec<Complex64> = (0..n.max(2) / 2)
        .map(|j| Complex64::cis(-2.0 * std::f64::consts::PI * j as f64 / n as f64))
        .collect();

    // Butterfly stages.
    for s in 0..bits {
        let half = 1usize << s;
        let block = half << 1;
        let stride = n / block;
        let mut base = 0;
        while base < n {
            for j in 0..half {
                instrs.push(Instr::Butterfly {
                    a: (base + j) as u32,
                    b: (base + j + half) as u32,
                    w: (j * stride) as u32,
                });
            }
            base += block;
        }
    }
    instrs.push(Instr::Halt);
    CompProgram {
        instrs,
        rom: if rom.is_empty() {
            vec![Complex64::ONE]
        } else {
            rom
        },
    }
}

/// Compile the six-step twiddle pass for an `n1 × n2` decomposition: cell
/// `(k1·n2 + j2)` multiplies by `W_N^{j2·k1}`.
pub fn compile_sixstep_twiddles(n1: usize, n2: usize) -> CompProgram {
    let n = n1 * n2;
    let mut rom = Vec::with_capacity(n);
    let mut instrs = Vec::with_capacity(n + 1);
    for k1 in 0..n1 {
        for j2 in 0..n2 {
            let theta = -2.0 * std::f64::consts::PI * (j2 * k1) as f64 / n as f64;
            rom.push(Complex64::cis(theta));
            instrs.push(Instr::TwiddleMul {
                i: (k1 * n2 + j2) as u32,
                w: (k1 * n2 + j2) as u32,
            });
        }
    }
    instrs.push(Instr::Halt);
    CompProgram { instrs, rom }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft::complex::max_error;
    use fft::{dft_reference, fft_in_place};

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.41).sin(), (i as f64 * 0.13).cos()))
            .collect()
    }

    #[test]
    fn compiled_fft_matches_library_fft() {
        for n in [2usize, 4, 16, 64, 256, 1024] {
            let prog = compile_fft(n);
            let x = signal(n);
            let mut via_isa = x.clone();
            prog.execute(&mut via_isa);
            let mut via_lib = x.clone();
            fft_in_place(&mut via_lib);
            assert!(max_error(&via_isa, &via_lib) < 1e-12, "n = {n}");
        }
    }

    #[test]
    fn executed_multiplies_match_table1_costing() {
        // The interpreter's counted multiplies must equal the closed form
        // 2N·log2 N the whole analysis rests on — measured, not assumed.
        for n in [16u64, 256, 1024] {
            let prog = compile_fft(n as usize);
            let mut x = signal(n as usize);
            let stats = prog.execute(&mut x);
            assert_eq!(stats.multiplies, fft::ops::multiplies(n), "n = {n}");
            // And the time at 2 ns/multiply reproduces Table I's t_c.
            if n == 1024 {
                assert_eq!(stats.time_ns(2.0), 40_960.0);
            }
        }
    }

    #[test]
    fn sixstep_twiddle_program_matches_plan() {
        let (n1, n2) = (8, 16);
        let plan = fft::SixStepPlan::new(n1, n2);
        let prog = compile_sixstep_twiddles(n1, n2);
        let mut m = fft::fft2d::Matrix {
            rows: n1,
            cols: n2,
            data: signal(n1 * n2),
        };
        let mut via_isa = m.data.clone();
        let stats = prog.execute(&mut via_isa);
        plan.apply_twiddles(&mut m);
        assert!(max_error(&via_isa, &m.data) < 1e-12);
        assert_eq!(stats.multiplies, 4 * (n1 * n2) as u64);
    }

    #[test]
    fn small_sizes_execute() {
        let prog = compile_fft(2);
        let mut x = signal(2);
        prog.execute(&mut x);
        let r = dft_reference(&signal(2));
        assert!(max_error(&x, &r) < 1e-12);
        // n = 1: nothing to do but Halt.
        let prog1 = compile_fft(1);
        let mut one = signal(1);
        let stats = prog1.execute(&mut one);
        assert_eq!(stats.multiplies, 0);
    }

    #[test]
    fn instruction_encoding_roundtrips() {
        for ins in [
            Instr::Butterfly {
                a: 12,
                b: 1_000_000 - 1,
                w: 511,
            },
            Instr::Swap { i: 0, j: 1023 },
            Instr::TwiddleMul { i: 7, w: 99 },
            Instr::Halt,
        ] {
            assert_eq!(Instr::decode(ins.encode()), ins);
        }
    }

    #[test]
    fn program_survives_the_wire_and_still_computes() {
        // Boot-over-photonics: the compiled FFT rides the 64-bit wire
        // format (twiddles quantize to f32) and still transforms correctly
        // to wire precision.
        let prog = compile_fft(256);
        let back = CompProgram::decode_words(&prog.encode_words());
        assert_eq!(back.instrs, prog.instrs);
        let x = signal(256);
        let mut via_wire = x.clone();
        back.execute(&mut via_wire);
        let mut exact = x.clone();
        fft_in_place(&mut exact);
        assert!(max_error(&via_wire, &exact) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "without Halt")]
    fn missing_halt_detected() {
        let prog = CompProgram {
            instrs: vec![Instr::Swap { i: 0, j: 1 }],
            rom: vec![Complex64::ONE],
        };
        prog.execute(&mut signal(2));
    }

    #[test]
    fn program_sizes_are_sane() {
        // 1024-pt FFT: 5120 butterflies + ~496 swaps + halt.
        let prog = compile_fft(1024);
        let butterflies = prog
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Butterfly { .. }))
            .count();
        assert_eq!(butterflies as u64, fft::ops::butterflies(1024));
        assert!(prog.len() > butterflies);
    }
}
