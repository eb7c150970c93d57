//! Kill-mid-flight hooks for checkpoint/resume tests, mirroring the
//! `act_tasks::chaos` idiom: a test arms a *cursor* (the run index a
//! batch starts at); when the campaign loop reaches that batch boundary
//! the process panics, simulating an abrupt kill between two checkpoint
//! appends. The resume test then restarts the campaign from the
//! checkpoint file and asserts the final coverage equals an
//! uninterrupted run's.
//!
//! The armed cursor is per thread: the hook runs on the thread that
//! called `run_campaign*`, so a kill armed by one test can only fire in
//! a campaign that test itself drives, never in one running concurrently
//! on another test thread.

use std::cell::Cell;

thread_local! {
    /// `u64::MAX` means "disarmed" (no real campaign addresses that run).
    static ARMED_CURSOR: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Arms a one-shot kill at the batch starting at `cursor`, for campaigns
/// run on the calling thread. The panic fires at most once (firing
/// disarms), so the post-restart campaign sails past the same cursor.
pub fn kill_once_at_cursor(cursor: u64) {
    ARMED_CURSOR.set(cursor);
}

/// Disarms any pending kill on the calling thread.
pub fn disarm() {
    ARMED_CURSOR.set(u64::MAX);
}

/// Called by the runner at every batch boundary.
pub(crate) fn maybe_kill(cursor: u64) {
    if ARMED_CURSOR.get() == cursor {
        ARMED_CURSOR.set(u64::MAX);
        panic!("chaos: injected campaign kill at cursor {cursor}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_fires_exactly_once_at_the_armed_cursor() {
        disarm();
        maybe_kill(5); // disarmed: no panic
        kill_once_at_cursor(5);
        maybe_kill(4); // wrong cursor: no panic
        let err = std::panic::catch_unwind(|| maybe_kill(5));
        assert!(err.is_err(), "armed cursor must panic");
        maybe_kill(5); // one-shot: already disarmed
        disarm();
    }
}
