//! Integration: the dual-clock FIFO between a node's core clock domain and
//! the PSCAN clock domain, sized from a CP drain schedule.

#[test]
fn fifo_sizing_matches_cp_schedules() {
    // A node whose core delivers a burst of 8 words at once but whose CP
    // drains them in two 4-slot runs needs a FIFO ≥ ... compute it and
    // validate by replaying through the FIFO model.
    use pscan::fifo::{required_depth, DualClockFifo};
    use sim_core::Time;

    let pushes: Vec<Time> = (0..8).map(|_| Time::from_ps(0)).collect();
    let pops: Vec<Time> = (0..4)
        .map(|i| Time::from_ps(1_000 + i * 100))
        .chain((0..4).map(|i| Time::from_ps(5_000 + i * 100)))
        .collect();
    let depth = required_depth(&pushes, &pops);
    assert_eq!(depth, 8);

    let mut fifo = DualClockFifo::new(depth);
    let mut events: Vec<(Time, bool)> = pushes
        .iter()
        .map(|&t| (t, true))
        .chain(pops.iter().map(|&t| (t, false)))
        .collect();
    events.sort_by_key(|&(t, is_push)| (t, !is_push));
    for (t, is_push) in events {
        if is_push {
            fifo.push(t, 1).expect("sized exactly, no overflow");
        } else {
            fifo.pop(t).expect("no underflow");
        }
    }
    assert_eq!(fifo.high_water(), depth);
}
