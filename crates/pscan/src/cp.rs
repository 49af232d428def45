//! Communication Programs (CPs).
//!
//! A CP "comprises non-overlapping portions of a global schedule that is
//! relative to the waveguide clock ... the program specifies when the
//! waveguide is available for any one processor to modulate light" (§III).
//!
//! Slots are indexed by global clock-edge number. Any slot a CP does not
//! mention is implicitly `Pass` — the node lets incident energy through
//! unmodified, which is what makes the splice work.

use serde::Serialize;

/// What a node does with the wavefronts of a slot range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CpAction {
    /// Modulate local data onto the data wavelength (SCA contribution).
    Drive,
    /// Detect the data wavelength into the local FIFO (SCA⁻¹ delivery).
    Listen,
}

/// One contiguous run of slots with a single action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CpEntry {
    /// First global slot of the run.
    pub start: u64,
    /// Number of slots (must be ≥ 1).
    pub len: u64,
    /// What to do during the run.
    pub action: CpAction,
}

impl CpEntry {
    /// Exclusive end slot.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// Whether `slot` lies inside this entry.
    pub fn contains(&self, slot: u64) -> bool {
        (self.start..self.end()).contains(&slot)
    }
}

/// A node's complete communication program: an ordered, non-overlapping
/// list of slot runs.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct CommProgram {
    entries: Vec<CpEntry>,
}

/// Why a CP failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpError {
    /// An entry has zero length.
    EmptyEntry { index: usize },
    /// Entries are not sorted by start slot or overlap each other.
    OverlapOrDisorder { index: usize },
}

impl std::fmt::Display for CpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpError::EmptyEntry { index } => write!(f, "CP entry {index} has zero length"),
            CpError::OverlapOrDisorder { index } => {
                write!(f, "CP entry {index} overlaps or precedes its predecessor")
            }
        }
    }
}

impl std::error::Error for CpError {}

impl CommProgram {
    /// Build a CP from entries, validating order and disjointness.
    pub fn new(entries: Vec<CpEntry>) -> Result<Self, CpError> {
        for (i, e) in entries.iter().enumerate() {
            if e.len == 0 {
                return Err(CpError::EmptyEntry { index: i });
            }
            if i > 0 && e.start < entries[i - 1].end() {
                return Err(CpError::OverlapOrDisorder { index: i });
            }
        }
        Ok(CommProgram { entries })
    }

    /// An empty (all-Pass) program.
    pub fn empty() -> Self {
        CommProgram::default()
    }

    /// The entries, in slot order.
    pub fn entries(&self) -> &[CpEntry] {
        &self.entries
    }

    /// Action at `slot`, or `None` for Pass.
    pub fn action_at(&self, slot: u64) -> Option<CpAction> {
        // Entries are sorted; binary-search the candidate run.
        let idx = self.entries.partition_point(|e| e.end() <= slot);
        self.entries
            .get(idx)
            .filter(|e| e.contains(slot))
            .map(|e| e.action)
    }

    /// Total slots the program drives.
    pub fn slots_driven(&self) -> u64 {
        self.action_slots(CpAction::Drive)
    }

    /// Total slots the program listens on.
    pub fn slots_listened(&self) -> u64 {
        self.action_slots(CpAction::Listen)
    }

    fn action_slots(&self, a: CpAction) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.action == a)
            .map(|e| e.len)
            .sum()
    }

    /// Iterate `(slot, action)` over all scheduled slots.
    pub fn iter_slots(&self) -> impl Iterator<Item = (u64, CpAction)> + '_ {
        self.entries
            .iter()
            .flat_map(|e| (e.start..e.end()).map(move |s| (s, e.action)))
    }

    /// Size of the hardware encoding in bits.
    ///
    /// Encoding: per entry, 1 action bit + 32-bit start + 15-bit length
    /// = 48 bits. The paper notes "CPs can be quite small, with the program
    /// for FFT being approximately 96-bits" — i.e. two entries, which is
    /// exactly what the FFT gather/scatter compiles to per node.
    pub fn encoded_bits(&self) -> usize {
        self.entries.len() * 48
    }

    /// Serialize to the 48-bit-per-entry wire format, packed into u64 words
    /// (one entry per word; the high 16 bits are zero). This is what rides
    /// the SCA⁻¹ when CPs are "delivered, along with operational code to the
    /// processor ... interleaved with data delivery" (§IV).
    pub fn encode_words(&self) -> Vec<u64> {
        self.entries
            .iter()
            .map(|e| {
                assert!(e.start < (1 << 32), "start slot exceeds 32-bit field");
                assert!(e.len < (1 << 15), "run length exceeds 15-bit field");
                let action = match e.action {
                    CpAction::Drive => 0u64,
                    CpAction::Listen => 1u64,
                };
                (action << 47) | (e.start << 15) | e.len
            })
            .collect()
    }

    /// Deserialize from [`Self::encode_words`] output.
    pub fn decode_words(words: &[u64]) -> Result<Self, CpError> {
        let entries = words
            .iter()
            .map(|&w| CpEntry {
                start: (w >> 15) & 0xFFFF_FFFF,
                len: w & 0x7FFF,
                action: if (w >> 47) & 1 == 1 {
                    CpAction::Listen
                } else {
                    CpAction::Drive
                },
            })
            .collect();
        CommProgram::new(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp(entries: &[(u64, u64, CpAction)]) -> CommProgram {
        CommProgram::new(
            entries
                .iter()
                .map(|&(start, len, action)| CpEntry { start, len, action })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn action_lookup() {
        let p = cp(&[(2, 2, CpAction::Drive), (6, 3, CpAction::Listen)]);
        assert_eq!(p.action_at(0), None);
        assert_eq!(p.action_at(2), Some(CpAction::Drive));
        assert_eq!(p.action_at(3), Some(CpAction::Drive));
        assert_eq!(p.action_at(4), None);
        assert_eq!(p.action_at(8), Some(CpAction::Listen));
        assert_eq!(p.action_at(9), None);
    }

    #[test]
    fn rejects_overlap() {
        let err = CommProgram::new(vec![
            CpEntry {
                start: 0,
                len: 3,
                action: CpAction::Drive,
            },
            CpEntry {
                start: 2,
                len: 1,
                action: CpAction::Drive,
            },
        ])
        .unwrap_err();
        assert_eq!(err, CpError::OverlapOrDisorder { index: 1 });
    }

    #[test]
    fn rejects_disorder() {
        let err = CommProgram::new(vec![
            CpEntry {
                start: 5,
                len: 1,
                action: CpAction::Drive,
            },
            CpEntry {
                start: 0,
                len: 1,
                action: CpAction::Drive,
            },
        ])
        .unwrap_err();
        assert_eq!(err, CpError::OverlapOrDisorder { index: 1 });
    }

    #[test]
    fn rejects_empty_entry() {
        let err = CommProgram::new(vec![CpEntry {
            start: 0,
            len: 0,
            action: CpAction::Drive,
        }])
        .unwrap_err();
        assert_eq!(err, CpError::EmptyEntry { index: 0 });
    }

    #[test]
    fn adjacent_entries_are_legal() {
        let p = cp(&[(0, 2, CpAction::Drive), (2, 2, CpAction::Listen)]);
        assert_eq!(p.slots_driven(), 2);
        assert_eq!(p.slots_listened(), 2);
    }

    #[test]
    fn slot_iteration_covers_everything() {
        let p = cp(&[(1, 2, CpAction::Drive), (5, 1, CpAction::Listen)]);
        let slots: Vec<_> = p.iter_slots().collect();
        assert_eq!(
            slots,
            vec![
                (1, CpAction::Drive),
                (2, CpAction::Drive),
                (5, CpAction::Listen)
            ]
        );
    }

    #[test]
    fn fft_cp_is_about_96_bits() {
        // A node's FFT program: one Listen run (its SCA⁻¹ delivery) and one
        // Drive run (its SCA writeback contribution) -> 2 entries x 48 bits.
        let p = cp(&[(0, 1024, CpAction::Listen), (90_000, 1024, CpAction::Drive)]);
        assert_eq!(p.encoded_bits(), 96);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = cp(&[
            (0, 1024, CpAction::Listen),
            (90_000, 1024, CpAction::Drive),
            (200_000, 1, CpAction::Drive),
        ]);
        let words = p.encode_words();
        assert_eq!(words.len(), 3);
        let back = CommProgram::decode_words(&words).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    #[should_panic(expected = "15-bit field")]
    fn encode_rejects_oversized_runs() {
        let p = cp(&[(0, 1 << 15, CpAction::Drive)]);
        p.encode_words();
    }

    #[test]
    fn empty_program() {
        let p = CommProgram::empty();
        assert_eq!(p.slots_driven(), 0);
        assert_eq!(p.action_at(123), None);
    }
}
