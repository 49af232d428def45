//! Communication Programs (CPs).
//!
//! A CP "comprises non-overlapping portions of a global schedule that is
//! relative to the waveguide clock ... the program specifies when the
//! waveguide is available for any one processor to modulate light" (§III).
//!
//! Slots are indexed by global clock-edge number. Any slot a CP does not
//! mention is implicitly `Pass` — the node lets incident energy through
//! unmodified, which is what makes the splice work.

/// What a node does with the wavefronts of a slot range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpAction {
    /// Modulate local data onto the data wavelength (SCA contribution).
    Drive,
    /// Detect the data wavelength into the local FIFO (SCA⁻¹ delivery).
    Listen,
}

/// One contiguous run of slots with a single action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq, Default)]
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

    /// Total slots the program drives.
    pub fn slots_driven(&self) -> u64 {
        self.action_slots(CpAction::Drive)
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
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CommProgram {
        /// Total slots the program listens on.
        pub(crate) fn slots_listened(&self) -> u64 {
            self.action_slots(CpAction::Listen)
        }
    }

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
    fn empty_program() {
        let p = CommProgram::empty();
        assert_eq!(p.slots_driven(), 0);
        assert!(p.entries().is_empty());
    }
}
