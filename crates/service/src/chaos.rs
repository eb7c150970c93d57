//! Seeded, replayable fault injection for the serve path — the wire and
//! disk counterpart of the runtime's scheduler-level
//! [`act_runtime::fault::FaultPlan`].
//!
//! A [`ServeFaultPlan`] is a serializable list of [`ServeFaultEvent`]s
//! addressed by *sequence numbers*: the `at_request`-th request a server
//! handles, or the `at_put`-th store write it performs. Both counters
//! are process-global and monotonically increasing, so a plan replays
//! identically for identical workloads — which is what lets
//! `ci/cluster_smoke.py` assert exact scrub and failover counts.
//!
//! Event kinds:
//!
//! * **DropConnection** — answer nothing and close the socket: the
//!   client observes a reset and must retry (exercising backoff);
//! * **DelayReply** — hold the reply for a bounded wall-clock delay:
//!   exercises client deadlines and timeout-triggered failover;
//! * **CloseAfterReply** — reply, then close the connection even if the
//!   client pipelined more requests: exercises reconnect paths;
//! * **TornWrite** — truncate the *next* store write at a byte budget
//!   and commit the truncated bytes directly to the final path,
//!   bypassing the atomic-rename discipline: the store must degrade the
//!   entry to a counted corrupt miss and the scrub pass must repair it;
//! * **KillPeer** — terminate the whole process with exit code
//!   [`KILL_EXIT_CODE`] before answering: the cluster smoke's
//!   replica-kill, exercising failover and post-restart anti-entropy.
//!
//! The plan is installed process-globally ([`install`]) because the
//! store's write path has no connection context; a server installs its
//! plan at startup (`fact-cli serve --fault-plan <file>`), and tests
//! install/uninstall around the section they exercise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Error, Reader, Serialize, Value, Writer};

use crate::SERVE_CHAOS_INJECTED;

/// Exit code of a [`ServeFaultEvent::KillPeer`] termination — distinct
/// from every CLI exit class so the smoke harness can tell an injected
/// kill from a genuine crash.
pub const KILL_EXIT_CODE: i32 = 42;

/// One injected serve-path fault, addressed by a process-global
/// sequence number (1-based: the first handled request is `1`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeFaultEvent {
    /// Close the connection of the `at_request`-th request without
    /// replying.
    DropConnection {
        /// 1-based global request sequence number the drop fires at.
        at_request: u64,
    },
    /// Delay the reply to the `at_request`-th request by `delay_ms`
    /// milliseconds.
    DelayReply {
        /// 1-based global request sequence number the delay fires at.
        at_request: u64,
        /// Reply delay in milliseconds.
        delay_ms: u64,
    },
    /// Reply to the `at_request`-th request, then close the connection.
    CloseAfterReply {
        /// 1-based global request sequence number the close fires at.
        at_request: u64,
    },
    /// Truncate the `at_put`-th store write to its first `keep_bytes`
    /// bytes and commit them *without* the atomic rename.
    TornWrite {
        /// 1-based global store-write sequence number the tear fires at.
        at_put: u64,
        /// Bytes of the serialized entry that reach the disk.
        keep_bytes: u64,
    },
    /// Exit the process (code [`KILL_EXIT_CODE`]) when the
    /// `at_request`-th request arrives, before answering it.
    KillPeer {
        /// 1-based global request sequence number the kill fires at.
        at_request: u64,
    },
}

// Hand-written (the vendored serde derive supports structs only): the
// enum serializes as an object with a `kind` discriminator, matching
// the runtime fault plan's wire idiom (and, like it, decoding buffers
// the object as a `Value`).
impl Serialize for ServeFaultEvent {
    fn serialize(&self, w: &mut Writer) {
        let value = match self {
            ServeFaultEvent::DropConnection { at_request } => Value::Map(vec![
                ("kind".to_string(), Value::Str("drop".to_string())),
                ("at_request".to_string(), Value::UInt(*at_request)),
            ]),
            ServeFaultEvent::DelayReply {
                at_request,
                delay_ms,
            } => Value::Map(vec![
                ("kind".to_string(), Value::Str("delay".to_string())),
                ("at_request".to_string(), Value::UInt(*at_request)),
                ("delay_ms".to_string(), Value::UInt(*delay_ms)),
            ]),
            ServeFaultEvent::CloseAfterReply { at_request } => Value::Map(vec![
                ("kind".to_string(), Value::Str("close".to_string())),
                ("at_request".to_string(), Value::UInt(*at_request)),
            ]),
            ServeFaultEvent::TornWrite { at_put, keep_bytes } => Value::Map(vec![
                ("kind".to_string(), Value::Str("torn-write".to_string())),
                ("at_put".to_string(), Value::UInt(*at_put)),
                ("keep_bytes".to_string(), Value::UInt(*keep_bytes)),
            ]),
            ServeFaultEvent::KillPeer { at_request } => Value::Map(vec![
                ("kind".to_string(), Value::Str("kill-peer".to_string())),
                ("at_request".to_string(), Value::UInt(*at_request)),
            ]),
        };
        value.serialize(w);
    }
}

impl Deserialize for ServeFaultEvent {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let v = Value::deserialize(r)?;
        let kind: String = v.field("kind")?.decode()?;
        match kind.as_str() {
            "drop" => Ok(ServeFaultEvent::DropConnection {
                at_request: v.field("at_request")?.decode()?,
            }),
            "delay" => Ok(ServeFaultEvent::DelayReply {
                at_request: v.field("at_request")?.decode()?,
                delay_ms: v.field("delay_ms")?.decode()?,
            }),
            "close" => Ok(ServeFaultEvent::CloseAfterReply {
                at_request: v.field("at_request")?.decode()?,
            }),
            "torn-write" => Ok(ServeFaultEvent::TornWrite {
                at_put: v.field("at_put")?.decode()?,
                keep_bytes: v.field("keep_bytes")?.decode()?,
            }),
            "kill-peer" => Ok(ServeFaultEvent::KillPeer {
                at_request: v.field("at_request")?.decode()?,
            }),
            other => Err(Error::msg(format!("unknown serve fault kind {other:?}"))),
        }
    }
}

/// A seeded, serializable serve-path fault plan. Identical workloads
/// replay identical injections, so a failing chaos run reproduces from
/// the plan file alone.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeFaultPlan {
    /// The seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// The injected faults, in no particular order.
    pub events: Vec<ServeFaultEvent>,
}

/// SplitMix64, the same tiny generator the runtime fault plan uses.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ServeFaultPlan {
    /// An empty plan (injects nothing).
    pub fn empty() -> ServeFaultPlan {
        ServeFaultPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Generates a deterministic plan from a seed: one to four
    /// non-lethal wire/disk events aimed at the first `horizon` requests
    /// (kills are never generated — a seeded sweep should perturb, not
    /// terminate; build kill plans by hand where the harness expects the
    /// exit). The same seed always yields the same plan.
    pub fn seeded(seed: u64, horizon: u64) -> ServeFaultPlan {
        let horizon = horizon.max(1);
        let mut state = seed;
        let count = 1 + (splitmix64(&mut state) % 4) as usize;
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let event = match splitmix64(&mut state) % 4 {
                0 => ServeFaultEvent::DropConnection {
                    at_request: 1 + splitmix64(&mut state) % horizon,
                },
                1 => ServeFaultEvent::DelayReply {
                    at_request: 1 + splitmix64(&mut state) % horizon,
                    delay_ms: 1 + splitmix64(&mut state) % 50,
                },
                2 => ServeFaultEvent::CloseAfterReply {
                    at_request: 1 + splitmix64(&mut state) % horizon,
                },
                _ => ServeFaultEvent::TornWrite {
                    at_put: 1 + splitmix64(&mut state) % horizon,
                    keep_bytes: splitmix64(&mut state) % 64,
                },
            };
            events.push(event);
        }
        ServeFaultPlan { seed, events }
    }

    /// Parses a plan from its JSON spelling.
    pub fn from_json(text: &str) -> Result<ServeFaultPlan, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// The plan's JSON spelling.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}

/// What the connection loop should do about the request it just read —
/// the wire-side verdict of [`on_request`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireAction {
    /// Handle the request normally.
    None,
    /// Close the connection without replying.
    Drop,
    /// Sleep this many milliseconds, then reply normally.
    DelayMs(u64),
    /// Reply normally, then close the connection.
    CloseAfterReply,
    /// Exit the process with [`KILL_EXIT_CODE`] before replying.
    Kill,
}

struct PlanState {
    plan: ServeFaultPlan,
    request_seq: AtomicU64,
    put_seq: AtomicU64,
}

fn slot() -> &'static Mutex<Option<Arc<PlanState>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<PlanState>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn current() -> Option<Arc<PlanState>> {
    slot().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Installs `plan` process-globally, resetting both sequence counters.
/// Replaces any previously installed plan.
pub fn install(plan: ServeFaultPlan) {
    *slot().lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(PlanState {
        plan,
        request_seq: AtomicU64::new(0),
        put_seq: AtomicU64::new(0),
    }));
}

/// Removes any installed plan (tests; graceful server shutdown).
pub fn uninstall() {
    *slot().lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Whether a plan is currently installed.
pub fn active() -> bool {
    current().is_some()
}

fn emit(kind: &str, seq: u64, detail: u64) {
    SERVE_CHAOS_INJECTED.add(1);
    if act_obs::enabled() {
        act_obs::event("serve.chaos.injected")
            .str("kind", kind)
            .u64("seq", seq)
            .u64("detail", detail)
            .emit();
    }
}

/// Advances the request counter and returns what the connection loop
/// must do with this request. Forwarded/internal requests count too —
/// the sequence numbers a plan addresses are *handled requests*, not
/// client-originated ones. [`WireAction::None`] when no plan is
/// installed.
pub fn on_request() -> WireAction {
    let Some(state) = current() else {
        return WireAction::None;
    };
    let seq = state.request_seq.fetch_add(1, Ordering::Relaxed) + 1;
    for event in &state.plan.events {
        match *event {
            ServeFaultEvent::KillPeer { at_request } if at_request == seq => {
                emit("kill-peer", seq, 0);
                return WireAction::Kill;
            }
            ServeFaultEvent::DropConnection { at_request } if at_request == seq => {
                emit("drop", seq, 0);
                return WireAction::Drop;
            }
            ServeFaultEvent::DelayReply {
                at_request,
                delay_ms,
            } if at_request == seq => {
                emit("delay", seq, delay_ms);
                return WireAction::DelayMs(delay_ms);
            }
            ServeFaultEvent::CloseAfterReply { at_request } if at_request == seq => {
                emit("close", seq, 0);
                return WireAction::CloseAfterReply;
            }
            _ => {}
        }
    }
    WireAction::None
}

/// Advances the store-write counter and, when a torn write is due,
/// returns how many bytes of the `len`-byte serialized entry should
/// reach the disk (committed *without* the atomic rename). `None` means
/// write normally.
pub fn torn_write(len: usize) -> Option<usize> {
    let state = current()?;
    let seq = state.put_seq.fetch_add(1, Ordering::Relaxed) + 1;
    for event in &state.plan.events {
        if let ServeFaultEvent::TornWrite { at_put, keep_bytes } = *event {
            if at_put == seq {
                let keep = (keep_bytes as usize).min(len);
                emit("torn-write", seq, keep as u64);
                return Some(keep);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_round_trip_through_json() {
        let plan = ServeFaultPlan {
            seed: 0,
            events: vec![
                ServeFaultEvent::DropConnection { at_request: 3 },
                ServeFaultEvent::DelayReply {
                    at_request: 5,
                    delay_ms: 20,
                },
                ServeFaultEvent::CloseAfterReply { at_request: 7 },
                ServeFaultEvent::TornWrite {
                    at_put: 2,
                    keep_bytes: 17,
                },
                ServeFaultEvent::KillPeer { at_request: 11 },
            ],
        };
        let back = ServeFaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
        assert!(plan.to_json().contains("\"kind\""));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_never_lethal() {
        for seed in 0..64u64 {
            let a = ServeFaultPlan::seeded(seed, 100);
            assert_eq!(a, ServeFaultPlan::seeded(seed, 100));
            assert!(!a.events.is_empty() && a.events.len() <= 4);
            assert!(!a
                .events
                .iter()
                .any(|e| matches!(e, ServeFaultEvent::KillPeer { .. })));
        }
        assert_ne!(
            ServeFaultPlan::seeded(1, 100),
            ServeFaultPlan::seeded(2, 100)
        );
    }

    #[test]
    fn sequence_counters_address_events_exactly() {
        let _guard = crate::test_serial_guard();
        install(ServeFaultPlan {
            seed: 0,
            events: vec![
                ServeFaultEvent::DropConnection { at_request: 2 },
                ServeFaultEvent::TornWrite {
                    at_put: 2,
                    keep_bytes: 5,
                },
            ],
        });
        assert_eq!(on_request(), WireAction::None); // request 1
        assert_eq!(on_request(), WireAction::Drop); // request 2
        assert_eq!(on_request(), WireAction::None); // request 3
        assert_eq!(torn_write(100), None); // put 1
        assert_eq!(torn_write(100), Some(5)); // put 2
        assert_eq!(torn_write(3), None); // put 3
        uninstall();
        assert_eq!(on_request(), WireAction::None);
        assert_eq!(torn_write(100), None);
        assert!(!active());
    }

    #[test]
    fn torn_write_budget_is_clamped_to_the_entry_length() {
        let _guard = crate::test_serial_guard();
        install(ServeFaultPlan {
            seed: 0,
            events: vec![ServeFaultEvent::TornWrite {
                at_put: 1,
                keep_bytes: 1_000,
            }],
        });
        assert_eq!(torn_write(8), Some(8));
        uninstall();
    }
}
